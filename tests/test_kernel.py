"""The parity-cycle kernel (`automaton.even_cycle_sccs`) on hand-built
graphs, and every caller that asks it a parity-cycle question, checked
against the even-pair product search of `conftest` on seeded random inputs."""

import random
from dataclasses import replace
from itertools import combinations, product as iproduct

import pytest

from posaut.automaton import (
    EPS,
    STUTTER,
    EdgeGraph,
    Transition,
    bisimulation_quotient,
    build,
    even_cycle_sccs,
    reaches_even_cycle,
    tarjan_scc,
    up_membership,
    upword,
)
from posaut.games import (
    ADAM,
    EVE,
    GameArena,
    NoUniformStrategy,
    PositionalStrategy,
    UniformlyPositional,
    brute_force_positional,
    gadget_for_witness,
    solve,
)
from posaut import normalform, signature
from posaut.epscomplete import decide_positionality_p2
from posaut.lang import complement_det, incl_det, incl_nd_in_det, noninclusion_pairs
from posaut.normalform import normalize
from posaut.signature import decide_positionality_p1
from posaut.ugraph import (
    MonotoneGraph,
    _graph_satisfying,
    all_cycles_even_min,
    all_paths_satisfy,
)
from posaut.witnesses import CompletionFailure, IncomparableResiduals

from conftest import (
    _PEdge,
    _even_pair_sccs,
    _explore_product,
    blowup,
    random_automaton,
    random_eps_automaton,
    random_upword,
    reference_disjoint,
    reference_incl,
    seed_65_blowup,
)


def _graph(n, edges):
    g = EdgeGraph(n)
    for e in edges:
        g.add(*e)
    return g


def _accepting_edges(g, roots):
    return sorted(e for inner in even_cycle_sccs(g, roots) for e in inner)


# -- the kernel on hand-built graphs ---------------------------------------------


def test_kernel_several_roots():
    # 0 -> 1 -> 1 (an even loop) and 2 -> 3 <-> 4 (an odd cycle, then an
    # even one at 4 that the odd cycle contains); each root sees its own part
    g = _graph(5, [
        (0, 1, 0, 0), (1, 1, 2, 0),
        (2, 3, 0, 0), (3, 4, 1, 0), (4, 3, 2, 0), (4, 4, 2, 2),
    ])
    assert _accepting_edges(g, [0]) == [1]
    assert _accepting_edges(g, [2]) == [5]
    assert _accepting_edges(g, [0, 2]) == [1, 5]
    assert _accepting_edges(g, [2, 0]) == [1, 5]
    assert reaches_even_cycle(g, [0, 2]) == ([True, True, True, True, True], {1, 5})


def test_kernel_ignores_unreached_accepting_cycle():
    # 1 <-> 2 is an even cycle and leads to 0, but root 0 reaches only its
    # odd loop
    g = _graph(3, [(0, 0, 1, 0), (1, 2, 0, 0), (2, 1, 2, 0), (1, 0, 0, 0)])
    assert _accepting_edges(g, [0]) == []
    assert _accepting_edges(g, [1]) == [1, 2]
    assert reaches_even_cycle(g, [0]) == ([False, False, False], set())
    assert reaches_even_cycle(g, [0, 1]) == ([False, True, True], {1, 2})


def test_kernel_drops_even_eps_only_cycle():
    # 0 <-> 1 by stutters of priority 0 reads no letter; the letter loop at
    # 2 is odd in its second priority
    g = _graph(3, [
        (0, 1, 0, STUTTER), (1, 0, 0, STUTTER), (0, 2, 0, 0), (2, 2, 0, 1),
    ])
    assert _accepting_edges(g, [0]) == []
    # a letter edge of even second priority closes the stutters into a word
    g.add(1, 1, 0, 2)
    assert _accepting_edges(g, [0]) == [0, 1, 4]


def test_kernel_needs_both_minima_even():
    # the loop at 0 has least priorities (0, 1) and the cycle 0 -> 1 -> 0
    # has (1, 2): the first minimum is even only where the second is odd
    g = _graph(2, [(0, 0, 0, 1), (0, 1, 1, 2), (1, 0, 2, 2)])
    assert _accepting_edges(g, [0]) == []
    # a loop of (0, 0) at 1 makes every edge lie on an accepting cycle
    g.add(1, 1, 0, 0)
    assert _accepting_edges(g, [0]) == [0, 1, 2, 3]


def _reference_accepting_edges(g, roots, priorities):
    """The edges of every strongly connected edge set reachable from
    `roots` whose least priority is even in each coordinate (`STUTTER` is
    odd), found by trying every edge subset."""
    reach, stack = set(roots), list(roots)
    while stack:
        for e in g.out[stack.pop()]:
            if g.dst[e] not in reach:
                reach.add(g.dst[e])
                stack.append(g.dst[e])
    edges = [e for e in range(len(g.dst)) if g.src[e] in reach]
    found = set()
    for size in range(1, len(edges) + 1):
        for subset in combinations(edges, size):
            if any(min(pr[e] for e in subset) % 2 for pr in priorities):
                continue
            nodes = sorted({g.src[e] for e in subset} | {g.dst[e] for e in subset})
            dense = {v: i for i, v in enumerate(nodes)}
            comps = tarjan_scc(len(nodes), [(dense[g.src[e]], dense[g.dst[e]]) for e in subset])
            if len(comps) == 1:
                found.update(subset)
    return sorted(found)


def test_kernel_k_coordinates_match_brute_force():
    # seeded random multigraphs with 1-3 coordinates, STUTTER on some edges
    rng = random.Random(700)
    accepted = {1: 0, 2: 0, 3: 0}
    for i in range(300):
        k, n = rng.randint(1, 3), rng.randint(1, 4)
        g = EdgeGraph(n)
        priorities = [[] for _ in range(k)]
        for _ in range(rng.randint(1, 7)):
            g.add(rng.randrange(n), rng.randrange(n), 0, 0)
            for pr in priorities:
                pr.append(STUTTER if rng.random() < 0.15 else rng.randint(0, 4))
        roots = sorted(rng.sample(range(n), rng.randint(1, n)))
        got = [e for inner in even_cycle_sccs(g, roots, priorities) for e in inner]
        want = _reference_accepting_edges(g, roots, priorities)
        assert sorted(got) == want, (i, k)
        assert len(got) == len(set(got)), (i, k)
        accepted[k] += bool(want)
        if k == 2:  # two coordinates by default are pr1 and pr2
            g.pr1, g.pr2 = priorities
            assert [e for inner in even_cycle_sccs(g, roots) for e in inner] == got, i
    assert min(accepted.values()) >= 30, accepted


# -- lang: inclusion witnesses and the residual relations ------------------------


@pytest.mark.parametrize("seed", range(3))
def test_incl_witnesses_match_reference(seed):
    rng = random.Random(100 + seed)
    for i in range(40):
        letters = ("a", "b", "c")[: rng.randint(1, 3)]
        a = random_automaton(rng, rng.randint(1, 5), letters, dmax=rng.randint(0, 4))
        b = random_automaton(rng, rng.randint(1, 5), letters, dmax=rng.randint(0, 4))
        for q in a.states():
            for p in b.states():
                assert incl_det(a, q, b, p) == reference_incl(a, q, b, p), (seed, i, q, p)
        e = random_eps_automaton(rng, letters)
        assert incl_nd_in_det(e, b) == reference_incl(e, e.initial, b, b.initial), (seed, i)
    # trimmed DPAs with n = 6-14 and their k = 2 blow-ups, whose products hold
    # many anchors per SCC; then, against the DPA, inputs shaped like p2's
    # failure bases (the DPA plus eps-moves, so the products carry stutter
    # edges), among them p2's own base with each of its two candidates
    for i in range(12):
        letters = ("a", "b", "c")[: rng.randint(2, 3)]
        aut = random_automaton(rng, rng.randint(6, 14), letters, dmax=rng.randint(2, 4)).trim()
        for a in (aut, blowup(aut, 2, i)):
            for q, p in [(rng.randrange(a.n_states), rng.randrange(a.n_states)) for _ in range(3)]:
                assert incl_det(a, q, a, p) == reference_incl(a, q, a, p), (seed, i, q, p)
        n, d = aut.n_states, aut.d_max
        eps = [(rng.randrange(n), EPS, rng.randint(0, d + 1), rng.randrange(n)) for _ in range(n)]
        trans = [(t.src, t.letter, t.priority, t.dst) for t in aut.transitions]
        bases = [build(n, letters, aut.initial, trans + eps, deterministic=False)]
        res = decide_positionality_p2(aut)
        if isinstance(getattr(res, "witness", None), CompletionFailure):
            w = res.witness
            bases += [
                replace(w.automaton, transitions=w.automaton.transitions + (t,))
                for t in (Transition(w.q, EPS, w.x, w.p), Transition(w.p, EPS, w.x + 1, w.q))
            ]
        for e in bases:
            assert incl_nd_in_det(e, aut) == reference_incl(e, e.initial, aut, aut.initial), (seed, i)


@pytest.mark.parametrize("seed", range(3))
def test_noninclusion_pairs_match_reference(seed):
    rng = random.Random(200 + seed)
    for i in range(30):
        letters = ("a", "b", "c")[: rng.randint(1, 3)]
        aut = random_automaton(rng, rng.randint(1, 7), letters, dmax=rng.randint(0, 5))
        states = sorted(rng.sample(range(aut.n_states), rng.randint(1, aut.n_states)))
        cex = {(q, p): reference_incl(aut, q, aut, p) for q in states for p in states}
        want = {pair: word for pair, word in cex.items() if word is not True}
        pairs, word = noninclusion_pairs(aut, states)
        assert pairs == set(want), (seed, i)
        assert {pair: word(*pair) for pair in pairs} == want, (seed, i)


def test_negative_witnesses_at_scale_match_reference(monkeypatch):
    # the seed-65 blow-up with n = 36: p1's residual pair and p2's completion
    # failure, whose products hold hundreds of anchors per SCC, give the
    # reference's words and pass their gadgets; p2's words are those against
    # W's bisimulation quotient, which merges here (18 states)
    aut = seed_65_blowup(2)
    quo = bisimulation_quotient(aut)
    assert quo.n_states < aut.n_states
    passes = []
    one_pass = signature._one_pass

    def spy(current, *args, **kwargs):
        passes.append(current)
        return one_pass(current, *args, **kwargs)

    monkeypatch.setattr(signature, "_one_pass", spy)
    w = decide_positionality_p1(aut).witness
    assert isinstance(w, IncomparableResiduals)
    cur = passes[-1]
    assert w.w1 == reference_incl(cur, w.q, cur, w.p)
    assert w.w2 == reference_incl(cur, w.p, cur, w.q)
    w2 = decide_positionality_p2(aut).witness
    assert isinstance(w2, CompletionFailure)
    base = w2.automaton
    candidates = (Transition(w2.q, EPS, w2.x, w2.p), Transition(w2.p, EPS, w2.x + 1, w2.q))
    for t, word in zip(candidates, (w2.cex1, w2.cex2)):
        e = replace(base, transitions=base.transitions + (t,))
        assert word == reference_incl(e, e.initial, quo, quo.initial)
    for g in (gadget_for_witness(w, aut), gadget_for_witness(w2, aut, aut=aut, w_det=aut)):
        sv = solve(g.arena, g.objective)
        assert all(sv.eve_wins_from(v) for v in g.designated)
        assert not brute_force_positional(g.arena, g.objective).uniform


# -- membership of nondeterministic automata with eps moves ----------------------


def _word_dpa(w, alphabet):
    """A DPA accepting exactly u.v^omega: priority 0 along the word, and a
    rejecting sink for every other letter."""
    word = w.u + w.v
    sink = len(word)
    trans = [(sink, a, 1, sink) for a in alphabet]
    for pos, letter in enumerate(word):
        nxt = len(w.u) if pos == len(word) - 1 else pos + 1
        trans += [(pos, a, 0 if a == letter else 1, nxt if a == letter else sink) for a in alphabet]
    return build(sink + 1, alphabet, 0, trans, deterministic=True)


@pytest.mark.parametrize("seed", range(3))
def test_membership_matches_reference(seed):
    rng = random.Random(300 + seed)
    for i in range(60):
        letters = ("a", "b")
        aut = random_eps_automaton(rng, letters)
        for _ in range(4):
            w = upword(*random_upword(rng, letters, max_u=3, max_v=3))
            want = not reference_disjoint(aut, _word_dpa(w, letters))
            assert up_membership(aut, w) == want, (seed, i, w)


# -- games: the brute-force oracle on arenas with eps edges and Adam vertices ----


def _random_arena(rng, letters):
    n = rng.randint(2, 6)
    owner = tuple(rng.choice((EVE, EVE, ADAM)) for _ in range(n))
    edges = []
    for s in range(n):
        for _ in range(rng.randint(1, 2)):
            t = rng.randrange(n)
            # eps edges only go forward, so no eps-cycle arises
            a = rng.choice(letters + (EPS,)) if t > s else rng.choice(letters)
            edges.append((s, a, t))
    return GameArena(n, owner, tuple(edges), letters)


def _reference_brute_force(arena, objective):
    """The positional strategies in the oracle's order, each judged from
    Eve's winning region by the even-pair search on the restricted arena."""
    sol = solve(arena, objective)
    region0 = frozenset(v for v in range(arena.n_vertices) if sol.eve_wins_from(v))
    eve = [v for v in range(arena.n_vertices) if arena.owner[v] == EVE]
    co = complement_det(objective)
    for combo in iproduct(*[[i for i, _ in arena.by_src[v]] for v in eve]):
        choice = dict(zip(eve, combo))
        kept = [
            (s, a, 0, t) for i, (s, a, t) in enumerate(arena.edges)
            if choice.get(s, i) == i
        ]
        plays = build(arena.n_vertices, objective.alphabet, 0, kept, deterministic=False)
        if all(reference_disjoint(plays.with_initial(v), co) for v in region0):
            return UniformlyPositional(PositionalStrategy(choice))
    return NoUniformStrategy(region0)


@pytest.mark.parametrize("seed", range(3))
def test_brute_force_matches_reference(seed):
    rng = random.Random(400 + seed)
    for i in range(40):
        arena = _random_arena(rng, ("a", "b"))
        objective = random_automaton(rng, rng.randint(1, 4), ("a", "b"), dmax=rng.randint(1, 4))
        got = brute_force_positional(arena, objective)
        assert got == _reference_brute_force(arena, objective), (seed, i)


# -- universal graphs: letter graphs against the even-pair search ----------------


def _random_letter_graph(rng, n, letters):
    edges = sorted({
        (s, rng.choice(letters), rng.randrange(n))
        for s in range(n) for _ in range(rng.randint(1, 3))
    })
    rng.shuffle(edges)
    return MonotoneGraph(tuple(f"v{i}" for i in range(n)), tuple(edges), tuple(letters))


def _as_automaton(g, initial=0):
    trans = [(s, a, 0, t) for (s, a, t) in g.edges]
    return build(g.n, g.alphabet, initial, trans, deterministic=False)


def _reference_all_cycles_even_min(g):
    edges = [_PEdge(s, t, a, int(a) + 1, 0) for (s, a, t) in g.edges]
    for _, _, accepting in _even_pair_sccs(g.n, edges):
        if accepting:
            anchors = [e for x_edges, _ in accepting.values() for e in x_edges]
            first = min(edges.index(e) for e in anchors)
            s, a, t = g.edges[first]
            return f"odd-dominated cycle with priority {a} via {s}->{t}"
    return True


def _reference_all_paths_satisfy(g, core, start_state):
    starts = [(v, start_state(v)) for v in range(g.n) if start_state(v) is not None]
    nodes, edges = _explore_product(_as_automaton(g), complement_det(core), starts)
    for _, _, accepting in _even_pair_sccs(len(nodes), edges):
        if accepting:
            y = next(iter(accepting.values()))[1][0].pr2
            return f"bad cycle: complement priority {y} reachable"
    return True


@pytest.mark.parametrize("seed", range(3))
def test_ugraph_checks_match_reference(seed):
    rng = random.Random(500 + seed)
    for i in range(60):
        letters = tuple(str(x) for x in range(rng.randint(2, 6)))
        g = _random_letter_graph(rng, rng.randint(1, 7), letters)
        assert all_cycles_even_min(g) == _reference_all_cycles_even_min(g), (seed, i)
        core = random_automaton(rng, rng.randint(1, 4), letters, dmax=rng.randint(1, 4))

        def start(v):
            return v % core.n_states if v % 3 else None

        got = all_paths_satisfy(g, core, start)
        assert got == _reference_all_paths_satisfy(g, core, start), (seed, i)
        co = complement_det(core)
        want = [
            v for v in range(g.n)
            if reference_disjoint(_as_automaton(g, v), co.with_initial(core.initial))
        ]
        assert _graph_satisfying(g.n, g.edges, core) == want, (seed, i)


# -- normal form: the opposite-cycle test ----------------------------------------


def _reference_accepting_sccs(trans, idxs, priority):
    """The transitions of `idxs` on an accepting cycle, flagged by the
    reference even-pair search, grouped by the SCCs that they form."""
    edges = [_PEdge(trans[i].src, trans[i].dst, "a", priority(trans[i]), 0) for i in idxs]
    n = max((max(e.src, e.dst) for e in edges), default=-1) + 1
    flagged = set()
    for sub, comp_of, accepting in _even_pair_sccs(n, edges):
        for k, e in enumerate(edges):
            if e in sub and comp_of[e.src] == comp_of[e.dst] and comp_of[e.src] in accepting:
                flagged.add(idxs[k])
    flagged = sorted(flagged)
    comps = tarjan_scc(n, ((trans[i].src, trans[i].dst) for i in flagged))
    comp_of = {q: c for c, comp in enumerate(comps) for q in comp}
    groups: dict[int, list[int]] = {}
    for i in flagged:
        assert comp_of[trans[i].src] == comp_of[trans[i].dst]
        groups.setdefault(comp_of[trans[i].src], []).append(i)
    return list(groups.values())


@pytest.mark.parametrize("seed", range(3))
def test_opposite_cycles_match_reference(seed, monkeypatch):
    rng = random.Random(600 + seed)
    cases = []
    for i in range(60):
        aut = random_automaton(rng, rng.randint(1, 6), ("a", "b"), dmax=rng.randint(0, 5))
        trans = aut.transitions
        idxs = sorted(rng.sample(range(len(trans)), rng.randint(1, len(trans))))
        for shift in (None, 0, 1):  # None: every cycle counts
            def priority(t):
                return 0 if shift is None else t.priority + shift

            got = normalform._accepting_sccs(trans, idxs, priority)
            want = _reference_accepting_sccs(trans, idxs, priority)
            assert sorted(map(sorted, got)) == sorted(want), (seed, i, shift)
        cases.append((aut, normalize(aut)))
    monkeypatch.setattr(normalform, "_accepting_sccs", _reference_accepting_sccs)
    for i, (aut, got) in enumerate(cases):
        assert got.transitions == normalize(aut).transitions, (seed, i)
