import random
from collections import deque
from dataclasses import dataclass, replace
from functools import cache

import pytest

from posaut import automaton, games, parityunion
from posaut.automaton import EPS, Transition, build, emit_dpa, up_membership, upword
from posaut.epscomplete import decide_positionality_p2
from posaut.games import (
    ADAM,
    EVE,
    GameArena,
    brute_force_positional,
    completion_gadget,
    emit_arena,
    gadget_for_witness,
    gadget_progress,
    gadget_residual,
    gadget_two_loops,
    parse_arena,
    solve,
)
from posaut.lang import complement_det, incl_nd_in_det
from posaut.normalform import normalize
from posaut.parityunion import StreamObjective
from posaut.signature import decide_positionality_p1
from posaut.witnesses import CompletionFailure, NotPositional, Positional
from posaut.zoo import (
    aut_accept_all,
    aut_first_letter_inf,
    aut_inf_a_or_fin_bb,
    aut_reach_aa,
)

from conftest import (
    FIXTURES,
    NOT_POSITIONAL_FIXTURES,
    blowup,
    random_automaton,
    reference_brute_force,
    reference_composite_objective,
    seed_65_blowup,
)


def game_ab_prefix():
    """Objective ab(a+b)^omega with the two-vertex arena where Eve wins from
    both vertices but not uniformly."""
    w = build(
        4,
        ("a", "b"),
        0,
        [
            (0, "a", 1, 1), (0, "b", 1, 3),
            (1, "b", 1, 2), (1, "a", 1, 3),
            (2, "a", 0, 2), (2, "b", 0, 2),
            (3, "a", 1, 3), (3, "b", 1, 3),
        ],
    )
    arena = GameArena(
        2, (EVE, EVE), ((0, "a", 1), (0, "b", 1), (1, "a", 0), (1, "b", 0)), ("a", "b")
    )
    return arena, w


def test_solve_trivial():
    arena = GameArena(1, (EVE,), ((0, "a", 0),), ("a", "b"))
    res = solve(arena, aut_accept_all())
    assert res.eve_wins_from(0)


def test_solve_non_uniform_game():
    arena, w = game_ab_prefix()
    res = solve(arena, w)
    assert res.eve_wins_from(0) and res.eve_wins_from(1)
    assert not brute_force_positional(arena, w).uniform


def test_solve_then_oracle_solves_the_reachable_game_once(monkeypatch):
    # a gadget check asks solve and the oracle about one arena and objective;
    # the game reachable from the pairs (vertex, initial state) is built and
    # solved once, and the oracle checks its strategies on that game
    real, depth, runs = games._zielonka, [0], []

    def counted(*args):
        runs.append(depth[0] == 0)
        depth[0] += 1
        try:
            return real(*args)
        finally:
            depth[0] -= 1

    builds = []
    product_game = games._product_game

    def spy(arena, objective, roots):
        builds.append(list(roots))
        return product_game(arena, objective, roots)

    monkeypatch.setattr(games, "_zielonka", counted)
    monkeypatch.setattr(games, "_product_game", spy)
    games._last_solve.clear()
    arena, w = game_ab_prefix()
    res = solve(arena, w)
    bf = brute_force_positional(arena, w)
    assert res.eve_wins_from(0) and res.eve_wins_from(1) and not bf.uniform
    assert sum(runs) == 1
    assert builds == [[(0, w.initial), (1, w.initial)]]


def test_each_result_solves_its_reachable_game_once(monkeypatch):
    # two results read in turn, a completion objective and its materialised
    # automaton on the same gadget: each keeps its own region
    real, runs = games._solve_game, []

    def counted(game):
        runs.append(game)
        return real(game)

    _, arena, objective = next(completion_gadget_cases(1))
    reference = objective.materialise()
    monkeypatch.setattr(games, "_solve_game", counted)
    games._last_solve.clear()
    one, two = solve(arena, objective), solve(arena, reference)
    for v in range(arena.n_vertices):
        assert one.eve_wins_from(v) == two.eve_wins_from(v), v
    assert len(runs) == 2
    # the oracle reuses the last reachable game solved
    brute_force_positional(arena, reference)
    assert len(runs) == 2


def test_oracle_reads_an_integer_limit(monkeypatch):
    arena, w = game_ab_prefix()
    monkeypatch.setenv("POSAUT_LIMIT", "3")
    with pytest.raises(ValueError, match="strategy space exceeds bound 3"):
        brute_force_positional(arena, w)
    monkeypatch.setenv("POSAUT_LIMIT", "abc")
    with pytest.raises(ValueError, match="POSAUT_LIMIT must be an integer, got 'abc'"):
        brute_force_positional(arena, w)


def test_solve_reach_aa_arena():
    arena = GameArena(
        3,
        (EVE, EVE, EVE),
        ((0, "b", 1), (1, "a", 0), (0, "a", 2), (2, "b", 0)),
        ("a", "b"),
    )
    res = solve(arena, aut_reach_aa())
    assert all(res.eve_wins_from(v) for v in range(3))
    assert not brute_force_positional(arena, aut_reach_aa()).uniform


def test_determinacy_and_strategy_replay(rng):
    for _ in range(40):
        n = rng.randint(1, 4)
        letters = ("a", "b")
        edges = []
        for v in range(n):
            for _ in range(rng.randint(1, 3)):
                edges.append((v, rng.choice(letters), rng.randrange(n)))
        arena = GameArena(
            n,
            tuple(rng.choice((EVE, ADAM)) for _ in range(n)),
            tuple(edges),
            letters,
        )
        objective = random_automaton(rng, rng.randint(1, 3), letters, dmax=2)
        res = solve(arena, objective)
        # determinacy: the two regions partition vertex-state space
        pairs = {(v, q) for v in range(n) for q in objective.states()}
        assert res.eve_region | res.adam_region == pairs
        assert not (res.eve_region & res.adam_region)
        _assert_strategy_wins(arena, objective, res)


def _assert_strategy_wins(arena, objective, res):
    """Replay: restrict Eve to her strategy and demand no losing cycle is
    reachable from any winning pair."""
    from posaut.automaton import tarjan_scc

    comp = complement_det(objective)
    nodes = {}
    edges = []

    def nid(v, q):
        if (v, q) not in nodes:
            nodes[(v, q)] = len(nodes)
        return nodes[(v, q)]

    from collections import deque

    starts = [(v, q) for (v, q) in res.eve_region]
    queue = deque(starts)
    for v, q in starts:
        nid(v, q)
    seen = set(starts)
    while queue:
        v, q = queue.popleft()
        outs = arena.out_edges(v)
        if arena.owner[v] == EVE:
            assert (v, q) in res.strategy, f"missing move at {(v, q)}"
            outs = [(res.strategy[(v, q)], arena.edges[res.strategy[(v, q)]])]
        for idx, (s, a, t) in outs:
            if a == "eps":
                tgt = (t, q)
                pr = None
            else:
                tr = comp.dsucc(q, a)
                tgt = (t, tr.dst)
                pr = tr.priority
            tid = nid(*tgt)
            edges.append((nodes[(v, q)], tid, pr))
            if tgt not in seen:
                seen.add(tgt)
                queue.append(tgt)
    for tgt in seen:
        assert tgt in res.eve_region, f"strategy left the winning region via {tgt}"
    n = len(nodes)
    for x in sorted({p for (_, _, p) in edges if p is not None}):
        if x % 2 != 0:
            continue
        sub = [(s, t) for (s, t, p) in edges if p is None or p >= x]
        comps = tarjan_scc(n, sub)
        comp_of = {}
        for i, c in enumerate(comps):
            for u in c:
                comp_of[u] = i
        assert not any(
            p == x and comp_of[s] == comp_of[t]
            for (s, t, p) in edges
            if p is not None and p >= x
        ), "strategy admits a rejected play"


# -- the solver against an eager-count reference --------------------------------------


@dataclass(frozen=True)
class ReferenceSolution:
    eve_region: frozenset  # (vertex, automaton state) pairs
    adam_region: frozenset
    strategy: dict  # (vertex, state) -> arena edge index


def reference_solve(arena, objective):
    """Zielonka on the subdivided product with a dict of node ids and
    attractors that count the live successors of every live vertex up
    front; node numbering and visiting order are those `solve` keeps."""
    arena.check_valid()
    nodes, order = {}, []
    for v in range(arena.n_vertices):
        for q in objective.states():
            nodes[(v, q)] = len(order)
            order.append((v, q))
    moves = []
    for idx, (s, a, t) in enumerate(arena.edges):
        for q in objective.states():
            if a == EPS:
                moves.append((nodes[(s, q)], idx, None, nodes[(t, q)]))
            else:
                tr = objective.dsucc(q, a)
                moves.append((nodes[(s, q)], idx, tr.priority, nodes[(t, tr.dst)]))
    neutral = objective.d_max + 2
    if neutral % 2 == 0:
        neutral += 1
    base = len(order)
    owner = [0 if arena.owner[v] == EVE else 1 for (v, _) in order]
    priority = [neutral] * base
    succ = [[] for _ in order]
    move_edge = {}
    for k, (src, idx, pr, dst) in enumerate(moves):
        owner.append(1)
        priority.append(neutral if pr is None else pr)
        succ.append([dst])
        succ[src].append(base + k)
        move_edge[base + k] = idx
    pred = [[] for _ in succ]
    for v, outs in enumerate(succ):
        for w in outs:
            pred[w].append(v)

    def attractor(player, target, alive):
        attr = set(v for v in target if v in alive)
        strategy = {}
        count = {v: sum(1 for w in succ[v] if w in alive) for v in alive}
        queue = deque(attr)
        while queue:
            u = queue.popleft()
            for v in pred[u]:
                if v not in alive or v in attr:
                    continue
                if owner[v] == player:
                    attr.add(v)
                    strategy[v] = u
                    queue.append(v)
                else:
                    count[v] -= 1
                    if count[v] == 0:
                        attr.add(v)
                        queue.append(v)
        return attr, strategy

    def zielonka(alive):
        if not alive:
            return set(), set(), {}, {}
        p = min(priority[v] for v in alive)
        player = p % 2
        attr, astrat = attractor(player, {v for v in alive if priority[v] == p}, alive)
        w0, w1, s0, s1 = zielonka(alive - attr)
        wins, strats = (w0, w1), (s0, s1)
        if not wins[1 - player]:
            strat = dict(strats[player])
            strat.update(astrat)
            for v in alive:
                if owner[v] == player and v not in strat:
                    strat[v] = next(w for w in succ[v] if w in alive)
            return (set(alive), set(), strat, {}) if player == 0 else (set(), set(alive), {}, strat)
        opp = 1 - player
        battr, bstrat = attractor(opp, wins[opp], alive)
        w0b, w1b, s0b, s1b = zielonka(alive - battr)
        if opp == 0:
            return w0 | battr | w0b, w1b, {**s0, **bstrat, **s0b}, s1b
        return w0b, w1 | battr | w1b, s0b, {**s1, **bstrat, **s1b}

    w0, w1, s0, _ = zielonka(set(range(len(owner))))
    eve = frozenset(vq for vq, i in nodes.items() if i in w0)
    adam = frozenset(vq for vq, i in nodes.items() if i in w1)
    strategy = {vq: move_edge[s0[i]] for vq, i in nodes.items() if i in s0 and i in w0}
    return ReferenceSolution(eve, adam, strategy)


def random_arena(rng, n, letters):
    """Both owners; eps-edges only go to higher vertices, so no eps-cycle."""
    edges = []
    for v in range(n):
        for _ in range(rng.randint(1, 3)):
            t = rng.randrange(n)
            if t > v and rng.random() < 0.3:
                edges.append((v, EPS, t))
            else:
                edges.append((v, rng.choice(letters), t))
    return GameArena(n, tuple(rng.choice((EVE, ADAM)) for _ in range(n)), tuple(edges), letters)


def solver_cases():
    rng = random.Random(2024)
    for i in range(150):
        letters = ("a", "b", "c")[: rng.randint(1, 3)]
        arena = random_arena(rng, rng.randint(1, 6), letters)
        objective = random_automaton(rng, rng.randint(1, 4), letters, dmax=rng.randint(0, 4))
        yield f"random{i}", arena, objective
    for name in NOT_POSITIONAL_FIXTURES:
        aut = FIXTURES[name][0]()
        p1 = gadget_for_witness(decide_positionality_p1(aut).witness, normalize(aut.trim()))
        p2 = gadget_for_witness(decide_positionality_p2(aut).witness, aut, aut=aut, w_det=aut)
        yield f"{name}/p1", p1.arena, p1.objective
        yield f"{name}/p2", p2.arena, p2.objective


def test_solve_matches_eager_reference():
    # the completion gadgets' objectives, materialised as one parity
    # automaton, make Zielonka recurse about 100 levels
    for name, arena, objective in [*solver_cases(), *completion_gadget_cases()]:
        if isinstance(objective, StreamObjective):
            objective = objective.materialise()
        got, ref = solve(arena, objective), reference_solve(arena, objective)
        assert got.eve_region == ref.eve_region, name
        assert got.adam_region == ref.adam_region, name
        assert list(got.strategy.items()) == list(ref.strategy.items()), name


def completion_gadget_cases(count=6):
    """Completion gadgets of p2's witnesses on seeded random DPAs with
    n = 6-10, the first `count` found."""
    rng = random.Random(12)
    found = 0
    while found < count:
        letters = ("a", "b", "c")[: rng.randint(2, 3)]
        aut = random_automaton(rng, rng.randint(6, 10), letters, dmax=rng.choice((3, 5)))
        res = decide_positionality_p2(aut)
        if res.positional or not isinstance(res.witness, CompletionFailure):
            continue
        g = gadget_for_witness(res.witness, aut, aut=aut, w_det=aut)
        found += 1
        yield f"completion{found}", g.arena, g.objective


def test_oracle_region_is_solve_region():
    cases = list(solver_cases()) + list(completion_gadget_cases())
    for name, arena, objective in cases:
        res = solve(arena, objective)
        expected = frozenset(
            v for v in range(arena.n_vertices) if (v, objective.initial) in res.eve_region
        )
        assert games._initial_solve(arena, objective)[2] == expected, name
        got = frozenset(v for v in range(arena.n_vertices) if solve(arena, objective).eve_wins_from(v))
        assert got == expected, name


def test_eve_wins_from_solves_only_the_reachable_game(monkeypatch):
    builds = []
    product_game = games._product_game

    def spy(arena, objective, roots):
        roots = list(roots)
        game, m = product_game(arena, objective, roots)
        builds.append((roots, game))
        return game, m

    monkeypatch.setattr(games, "_product_game", spy)
    for name, arena, objective in solver_cases():
        games._last_solve.clear()
        res = solve(arena, objective)
        wins = [v for v in range(arena.n_vertices) if res.eve_wins_from(v)]
        m = objective.n_states
        all_pairs = [divmod(i, m) for i in range(arena.n_vertices * m)]
        full, _ = product_game(arena, objective, all_pairs)
        assert full.nodes == list(range((arena.n_vertices + len(arena.edges)) * m)), name
        # eve_wins_from builds the full game's nodes reachable from (v, initial)
        [(roots, game)] = builds
        assert roots == [(v, objective.initial) for v in range(arena.n_vertices)], name
        reachable, stack = set(), [v * m + q for v, q in roots]
        while stack:
            i = stack.pop()
            if i not in reachable:
                reachable.add(i)
                stack.extend(full.succ[i])
        assert game.nodes == sorted(reachable), name
        for i in reachable:
            assert game.succ[i] == full.succ[i], name
            assert game.owner[i] == full.owner[i], name
            assert [p[i] for p in game.priorities] == [p[i] for p in full.priorities], name
        # the oracle checks its strategies on that game and builds none
        brute_force_positional(arena, objective)
        assert len(builds) == 1, name
        builds.clear()
        assert wins == [v for v, q in sorted(res.eve_region) if q == objective.initial], name
        assert res.adam_region is not None and res.strategy is not None
        # one full build serves all three
        assert [roots for roots, _ in builds] == [all_pairs], name
        builds.clear()


@cache
def completion_gadgets():
    """Completion gadgets of p2's witnesses on the zoo fixtures, their k = 2
    blow-ups, 100 seeded random DPAs with n = 6-10 and the non-positional
    blow-ups with n = 18 and 36, on the full W: per case its name, the
    automaton, the witness, the gadget and the reference composite
    objective."""
    return tuple(_completion_gadgets())


def _completion_gadgets():
    auts = [(f"seed65/k{k}", seed_65_blowup(k)) for k in (1, 2)]
    for name, (make, _) in FIXTURES.items():
        auts += [(name, make()), (f"{name}/k2", blowup(make(), 2, 0))]
    rng = random.Random(17)
    for i in range(100):
        letters = ("a", "b", "c")[: rng.randint(2, 3)]
        auts.append((f"random{i}", random_automaton(rng, rng.randint(6, 10), letters, dmax=rng.choice((3, 5)))))
    for name, aut in auts:
        res = decide_positionality_p2(aut)
        if res.positional or not isinstance(res.witness, CompletionFailure):
            continue
        w = res.witness
        g = completion_gadget(aut, aut, w.q, w.p, w.x)
        yield name, aut, w, g, reference_composite_objective(aut, g.arena.alphabet, _token_map(g.arena.alphabet))


def _token_map(alphabet):
    """Each completion-gadget token's (letter, priority, type)."""
    tokens = {}
    for t in alphabet:
        letter, pr, typ = t.rsplit("_", 2)
        tokens[t] = (letter, int(pr), typ)
    return tokens


def test_stepped_objective_matches_reference():
    # the three-stream objective on w_det's states against the reference
    # cascade of w_det with the union DPA, one parity automaton: the same
    # text once materialised, the same wins and the same oracle answer
    count = 0
    for name, _, _, g, ref in completion_gadgets():
        obj, arena = g.objective, g.arena
        assert isinstance(obj, StreamObjective), name
        assert emit_dpa(obj.materialise()) == emit_dpa(ref), name
        # one objective after the other: `_initial_solve` keeps the last one
        wins = [v for v in range(arena.n_vertices) if solve(arena, obj).eve_wins_from(v)]
        assert wins == [v for v in range(arena.n_vertices) if solve(arena, ref).eve_wins_from(v)], name
        assert set(g.designated) <= set(wins), name
        got, want = brute_force_positional(arena, obj), reference_brute_force(arena, ref)
        assert got.uniform == want.uniform, name
        if got.uniform:
            assert got.strategy.choice == want.strategy.choice, name
        else:
            assert got.region == want.region, name
        count += 1
    assert count >= 92


def test_completion_check_on_the_quotient_matches_the_full_w():
    # `gadget_for_witness` gives the completion gadget W's bisimulation
    # quotient; every vertex's winner and the oracle's answer must be those
    # of the gadget on the full W
    shrank = 0
    for name, aut, w, _, _ in completion_gadgets():
        quo = gadget_for_witness(w, aut, aut=aut, w_det=aut)
        g = completion_gadget(w.automaton, aut, w.q, w.p, w.x)
        assert (quo.arena, quo.designated) == (g.arena, g.designated), name
        vertices = range(g.arena.n_vertices)
        # one objective after the other: `_initial_solve` keeps the last one
        full = [solve(g.arena, g.objective).eve_wins_from(v) for v in vertices]
        assert [solve(quo.arena, quo.objective).eve_wins_from(v) for v in vertices] == full, name
        got, want = (brute_force_positional(x.arena, x.objective) for x in (quo, g))
        assert (got.uniform, got.region) == (want.uniform, want.region), name
        shrank += quo.objective.n_states < g.objective.n_states
    assert shrank >= 6
    # a W that is not deterministic and eps-free is refused as before
    _, aut, w, _, _ = completion_gadgets()[0]
    loop = Transition(aut.initial, EPS, 0, aut.initial)
    for bad in (replace(aut, deterministic=False), replace(aut, transitions=aut.transitions + (loop,))):
        with pytest.raises(ValueError, match="^w_det must be deterministic and eps-free$"):
            gadget_for_witness(w, aut, aut=aut, w_det=bad)


def test_completion_check_reuses_the_decisions_quotient(monkeypatch):
    # p2 refines W once for its decision; the completion check of its
    # witness takes the quotient kept on the same automaton object
    aut = seed_65_blowup(2)
    refinements = []
    real = automaton.quotient_leq_x
    monkeypatch.setattr(automaton, "quotient_leq_x", lambda *a: refinements.append(a) or real(*a))
    w = decide_positionality_p2(aut).witness
    assert len(refinements) == 1  # W merges: 36 states, 18 classes
    g = gadget_for_witness(w, aut, aut=aut, w_det=aut)
    assert len(refinements) == 1 and g.objective.n_states == 18


def test_oracle_matches_reference():
    rng = random.Random(2025)
    cases = []
    for i in range(300):
        letters = ("a", "b", "c")[: rng.randint(1, 3)]
        arena = random_arena(rng, rng.randint(1, 6), letters)
        cases.append((f"random{i}", arena, random_automaton(rng, rng.randint(1, 4), letters, dmax=rng.randint(0, 4))))
    # the completion gadgets are checked in test_stepped_objective_matches_reference
    outcomes = set()
    for name, arena, objective in cases:
        got, ref = brute_force_positional(arena, objective), reference_brute_force(arena, objective)
        assert got.uniform == ref.uniform, name
        if got.uniform:
            assert got.strategy.choice == ref.strategy.choice, name
        else:
            assert got.region == ref.region, name
        outcomes.add(got.uniform)
    assert outcomes == {True, False}


def test_gadget_check_does_not_materialise_the_objective(monkeypatch):
    # the check path of a completion gadget builds no Zielonka-tree automaton:
    # it is built only to materialise the objective as one parity automaton
    calls = []
    cascade = parityunion.cascade

    def spy(n_states, initial, alphabet, step, condition):
        calls.append(n_states)
        return cascade(n_states, initial, alphabet, step, condition)

    monkeypatch.setattr(parityunion, "cascade", spy)
    aut = aut_reach_aa()
    g = gadget_for_witness(decide_positionality_p2(aut).witness, aut, aut=aut, w_det=aut)
    games._last_solve.clear()
    sv = solve(g.arena, g.objective)
    assert all(sv.eve_wins_from(v) for v in g.designated)
    assert not brute_force_positional(g.arena, g.objective).uniform
    assert sv.eve_region and sv.strategy
    assert calls == []
    g.objective.materialise()
    assert len(calls) == 1


def test_out_edges_per_vertex():
    arena = GameArena(3, (EVE, ADAM, EVE), ((0, "a", 1), (1, "a", 2), (0, "b", 2), (2, "a", 0)), ("a", "b"))
    assert arena.out_edges(0) == [(0, (0, "a", 1)), (2, (0, "b", 2))]
    assert arena.out_edges(1) == [(1, (1, "a", 2))]
    assert arena.out_edges(2) == [(3, (2, "a", 0))]


# -- gadgets -----------------------------------------------------------------------


def test_gadget_residual_from_fixture():
    aut = aut_first_letter_inf()
    res = decide_positionality_p1(aut)
    g = gadget_for_witness(res.witness, aut)
    sv = solve(g.arena, g.objective)
    assert all(sv.eve_wins_from(v) for v in g.designated)
    assert not brute_force_positional(g.arena, g.objective).uniform


def test_gadget_residual_degenerate_same_entry():
    aut = aut_first_letter_inf()
    g = gadget_residual(("a",), ("a",), upword((), ("a",)), upword((), ("b",)), aut)
    assert brute_force_positional(g.arena, g.objective).uniform


def test_gadget_residual_comparable():
    aut = aut_first_letter_inf()
    # w1 = a^omega wins from both entries (first letter a in both cases)
    g = gadget_residual(("a",), ("a", "a"), upword((), ("a",)), upword((), ("b",)), aut)
    assert brute_force_positional(g.arena, g.objective).uniform


def test_gadget_progress_from_fixture():
    aut = aut_reach_aa()
    res = decide_positionality_p1(aut)
    g = gadget_for_witness(res.witness, aut)
    sv = solve(g.arena, g.objective)
    assert all(sv.eve_wins_from(v) for v in g.designated)
    assert not brute_force_positional(g.arena, g.objective).uniform


def test_gadget_progress_loop_wins():
    # w^omega already in the residual: looping forever is positional
    aut = aut_accept_all()
    g = gadget_progress((), ("a",), upword((), ("b",)), aut)
    assert brute_force_positional(g.arena, g.objective).uniform


def test_gadget_progress_exit_wins():
    aut = aut_reach_aa()
    # from [a], exiting directly with a-then-b^omega wins
    g = gadget_progress(("a",), ("b", "b"), upword(("a",), ("b",)), aut)
    assert brute_force_positional(g.arena, g.objective).uniform


def test_gadget_two_loops_alternation():
    # InfOften(a) and InfOften(b): each letter alone loses, alternation wins
    aut = build(
        2,
        ("a", "b"),
        0,
        [(0, "b", 0, 1), (0, "a", 1, 0), (1, "a", 0, 0), (1, "b", 1, 1)],
    )
    assert not up_membership(aut, upword((), ("a",)))
    assert not up_membership(aut, upword((), ("b",)))
    assert up_membership(aut, upword((), ("a", "b")))
    g = gadget_two_loops((), ("a",), ("b",), aut)
    sv = solve(g.arena, g.objective)
    assert all(sv.eve_wins_from(v) for v in g.designated)
    assert not brute_force_positional(g.arena, g.objective).uniform


def test_gadget_two_loops_first_wins():
    aut = aut_accept_all()
    g = gadget_two_loops(("a",), ("a",), ("b",), aut)
    assert brute_force_positional(g.arena, g.objective).uniform


def test_gadget_two_loops_equal_loops():
    aut = aut_inf_a_or_fin_bb()
    g = gadget_two_loops((), ("c",), ("c",), aut)
    assert brute_force_positional(g.arena, g.objective).uniform
    g2 = gadget_two_loops((), ("b",), ("b",), aut)
    res = solve(g2.arena, g2.objective)
    assert not any(res.eve_wins_from(v) for v in g2.designated)


# -- completion gadget -----------------------------------------------------------------


def test_completion_gadget_positional_fixture():
    aut = aut_inf_a_or_fin_bb()
    for (q, p, x) in [(0, 1, 0), (1, 2, 2), (2, 2, 0)]:
        g = completion_gadget(aut, aut, q, p, x)
        sv = solve(g.arena, g.objective)
        assert all(sv.eve_wins_from(v) for v in g.designated), (q, p, x)


def test_completion_gadget_choice_is_addable():
    aut = aut_inf_a_or_fin_bb()
    q, p, x = 2, 1, 2  # the completion adds q3 -eps:2-> q2
    g = completion_gadget(aut, aut, q, p, x)
    bf = brute_force_positional(g.arena, g.objective)
    assert bf.uniform
    qmark = 2 * aut.n_states
    edge_idx = bf.strategy.choice[qmark]
    _, letter, _ = g.arena.edges[edge_idx]
    base = replace(aut, deterministic=False)
    if letter.startswith(EPS + "_") and f"_{x}_" in letter:
        added = Transition(q, EPS, x, p)
    else:
        added = Transition(p, EPS, x + 1, q)
    augmented = replace(base, transitions=base.transitions + (added,),
                        priority_range=(0, max(aut.d_max, x + 1)))
    assert incl_nd_in_det(augmented, aut) is True


def test_completion_gadget_not_positional_witness():
    aut = aut_reach_aa()
    res = decide_positionality_p2(aut)
    assert isinstance(res, NotPositional)
    g = gadget_for_witness(res.witness, aut, aut=aut, w_det=aut)
    sv = solve(g.arena, g.objective)
    assert all(sv.eve_wins_from(v) for v in g.designated)
    assert not brute_force_positional(g.arena, g.objective).uniform


def test_completion_gadget_degenerate_pair():
    aut = aut_inf_a_or_fin_bb()
    g = completion_gadget(aut, aut, 1, 1, 0)
    sv = solve(g.arena, g.objective)
    assert all(sv.eve_wins_from(v) for v in g.designated)
    assert brute_force_positional(g.arena, g.objective).uniform


# -- arena format ------------------------------------------------------------------------


def test_arena_roundtrip():
    arena, _ = game_ab_prefix()
    back = parse_arena(emit_arena(arena))
    assert back.n_vertices == arena.n_vertices
    assert back.owner == arena.owner
    assert back.edges == arena.edges
    assert back.alphabet == arena.alphabet


def test_arena_validation():
    bad = GameArena(2, (EVE, ADAM), ((0, "a", 1),), ("a",))
    assert any("sink" in m for m in bad.validate())
    eps_cycle = GameArena(1, (EVE,), ((0, "eps", 0), (0, "a", 0)), ("a",))
    assert any("eps" in m for m in eps_cycle.validate())
