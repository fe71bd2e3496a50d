import itertools
import random
from dataclasses import replace

import pytest

from posaut import epscomplete
from posaut.automaton import EPS, Transition, build, up_membership, upword
from posaut.epscomplete import (
    EpsCompleteAutomaton,
    WalkMinima,
    compose_minima,
    decide_positionality_p2,
    eps_complete_from_signature,
    even_bound,
    merge_top_equivalent,
    preference_rank,
    priority_close,
    validate_eps_complete,
)
from posaut.games import gadget_for_witness, solve
from posaut.lang import DetProduct, incl_nd_in_det
from posaut.parityunion import union_parity_automaton
from posaut.progress import decide_bipositionality
from posaut.signature import decide_positionality_p1
from posaut.witnesses import CompletionFailure, NotPositional, Positional
from posaut.zoo import (
    aut_accept_all,
    aut_fin_nested_c_factors,
    aut_inf_a_or_fin_bb,
    aut_min_letter_even,
    aut_reach_aa,
)

from conftest import (
    FIXTURES,
    POSITIONAL_FIXTURES,
    blowup,
    has_common_word,
    random_automaton,
    random_upword,
    reference_p2,
    seed_65_blowup,
)

EXPECTED_EPS_TREE = {
    # states 0 < 1 < 2 in the level-2 chain: the completion tree plus odd self-loops
    (1, 0, 0), (2, 0, 0),          # q2, q3 -eps:0-> q1
    (1, 1, 0), (2, 1, 0),          # q2, q3 -eps:1-> q1
    (1, 1, 2), (2, 1, 1),          # q2 <-> q3 at eps:1
    (2, 2, 1), (2, 3, 1),          # q3 -eps:2,3-> q2
    (1, 2, 0), (1, 3, 0),          # q2 -eps:2,3-> q1
    (0, 1, 0), (1, 1, 1), (2, 1, 2),  # eps:1 self-loops
    (0, 3, 0), (1, 3, 1), (2, 3, 2),  # eps:3 self-loops
}


def eps_set(aut):
    return {(t.src, t.priority, t.dst) for t in aut.transitions if t.is_eps}


def test_preference_order():
    d = 2
    order = sorted(range(0, d + 2), key=lambda y: preference_rank(y, d))
    assert order == [1, 3, 2, 0]
    d = 4
    order = sorted(range(0, d + 2), key=lambda y: preference_rank(y, d))
    assert order == [1, 3, 5, 4, 2, 0]


def test_min_monotone_in_preference_order():
    # priority_close keeps one most preferred priority per transition on this
    for d in range(0, 9, 2):
        for y, y2, c in itertools.product(range(d + 2), repeat=3):
            if preference_rank(y, d) <= preference_rank(y2, d):
                assert preference_rank(min(y, c), d) <= preference_rank(min(y2, c), d)


def test_preference_remark_on_sequences():
    # pointwise preference-dominated priority sequences can only improve the
    # parity verdict; all sequences of length <= 6 over [0,3]
    d = 2
    related = [
        (y, yp)
        for y in range(4)
        for yp in range(4)
        if preference_rank(y, d) <= preference_rank(yp, d)
    ]
    for length in range(1, 7):
        for pairs in itertools.product(related, repeat=length):
            lo = min(p[0] for p in pairs)
            hi = min(p[1] for p in pairs)
            if lo % 2 == 0:
                assert hi % 2 == 0, pairs


def test_p2_three_priorities_positional():
    res = decide_positionality_p2(aut_inf_a_or_fin_bb())
    assert isinstance(res, Positional)
    cert = res.certificate
    assert cert.d == 2
    assert EXPECTED_EPS_TREE <= eps_set(cert.automaton)
    assert validate_eps_complete(cert.automaton, cert.d) is True
    assert incl_nd_in_det(cert.automaton, aut_inf_a_or_fin_bb()) is True


def test_p2_reach_aa_counterexamples_verify():
    aut = aut_reach_aa()
    res = decide_positionality_p2(aut)
    assert isinstance(res, NotPositional)
    wit = res.witness
    assert isinstance(wit, CompletionFailure)
    base = wit.automaton  # the partially completed automaton at failure time
    with_even = replace(
        base, transitions=base.transitions + (Transition(wit.q, EPS, wit.x, wit.p),)
    )
    with_odd = replace(
        base,
        transitions=base.transitions + (Transition(wit.p, EPS, wit.x + 1, wit.q),),
    )
    assert up_membership(with_even, wit.cex1)
    assert not up_membership(aut, wit.cex1)
    assert up_membership(with_odd, wit.cex2)
    assert not up_membership(aut, wit.cex2)


def test_p2_accept_all_self_loops():
    res = decide_positionality_p2(aut_accept_all())
    assert isinstance(res, Positional)
    eps = eps_set(res.certificate.automaton)
    assert any(pr % 2 == 1 and s == t for (s, pr, t) in eps)


def test_even_bound():
    assert even_bound(aut_accept_all()) == 0
    assert even_bound(aut_inf_a_or_fin_bb()) == 2
    assert even_bound(aut_reach_aa()) == 0


# -- priority closure ---------------------------------------------------------------


def test_close_adds_all_preference_variants():
    aut = build(1, ("a",), 0, [(0, "a", 0, 0)])
    closed = priority_close(replace(aut, priority_range=(0, 1)), 0)
    prios = {t.priority for t in closed.transitions}
    assert prios == {0, 1}
    d2 = priority_close(replace(aut, priority_range=(0, 3)), 2)
    assert {t.priority for t in d2.transitions} == {0, 1, 2, 3}


def test_close_sandwich():
    aut = build(
        4,
        ("a",),
        0,
        [
            (0, EPS, 1, 1),
            (1, "a", 2, 2),
            (2, EPS, 3, 3),
            (3, "a", 3, 3),
            (0, "a", 3, 0),
            (1, "a", 3, 1),
            (2, "a", 3, 2),
        ],
        deterministic=False,
    )
    closed = priority_close(aut, 2)
    assert any(
        t.src == 0 and t.letter == "a" and t.dst == 3 and t.priority == 1
        for t in closed.transitions
    )


def test_close_idempotent_and_language_preserving(rng):
    res = decide_positionality_p2(aut_inf_a_or_fin_bb())
    cert = res.certificate
    once = priority_close(cert.automaton, cert.d)
    twice = priority_close(once, cert.d)
    assert set(eps_set(once)) == set(eps_set(twice))
    assert len(once.transitions) == len(twice.transitions)
    core = aut_inf_a_or_fin_bb()
    assert incl_nd_in_det(once, core) is True
    for _ in range(100):
        u, v = random_upword(rng, core.alphabet)
        assert up_membership(once, upword(u, v)) == up_membership(core, upword(u, v))


def reference_priority_close(aut, d):
    """The closure computed round by round on the full transition set: each
    round adds every preference variant and every eps-letter-eps composite
    of the transitions present, until a round adds nothing."""
    trans = set((t.src, t.letter, t.priority, t.dst) for t in aut.transitions)
    changed = True
    while changed:
        changed = False
        new = set()
        for (s, a, y, t) in trans:
            for y2 in range(0, d + 2):
                if preference_rank(y2, d) < preference_rank(y, d):
                    key = (s, a, y2, t)
                    if key not in trans:
                        new.add(key)
        eps_out: dict[int, list[tuple[int, int]]] = {}
        eps_in: dict[int, list[tuple[int, int]]] = {}
        for (s, a, y, t) in trans:
            if a == EPS:
                eps_out.setdefault(s, []).append((y, t))
                eps_in.setdefault(t, []).append((y, s))
        for (s, a, y, t) in trans:
            for (y1, p) in eps_in.get(s, ()):
                for (y3, pp) in eps_out.get(t, ()):
                    key = (p, a, min(y1, y, y3), pp)
                    if key not in trans:
                        new.add(key)
        if new:
            trans |= new
            changed = True
    ordered = list(aut.transitions)
    seen = set((t.src, t.letter, t.priority, t.dst) for t in aut.transitions)
    for key in sorted(trans - seen):
        ordered.append(Transition(*key))
    prs = [t.priority for t in ordered]
    return replace(
        aut,
        transitions=tuple(ordered),
        priority_range=(min(prs), max(prs)),
        deterministic=False,
    )


def random_eps_automaton(rng, d):
    n = rng.randint(1, 6)
    letters = ("a", "b")[: rng.randint(1, 2)]
    trans = [
        (
            rng.randrange(n),
            rng.choice(letters + (EPS,)),
            rng.randint(0, d + 1),
            rng.randrange(n),
        )
        for _ in range(rng.randint(1, 3 * n))
    ]
    return build(n, letters, 0, trans, deterministic=False, priority_range=(0, d + 1))


@pytest.mark.parametrize("seed", range(4))
def test_close_matches_reference_on_random_eps_automata(seed):
    rng = random.Random(seed)
    for i in range(60):
        d = (0, 2, 4, 6)[i % 4]
        aut = random_eps_automaton(rng, d)
        assert priority_close(aut, d) == reference_priority_close(aut, d), (seed, i)


def test_close_matches_reference_on_p2_inputs():
    # p2's certificates and those of the fixtures' blow-ups
    certs = [
        decide_positionality_p2(aut).certificate
        for name in POSITIONAL_FIXTURES
        for aut in (FIXTURES[name][0](), blowup(FIXTURES[name][0](), 2, 0))
    ]
    for cert in certs:
        aut, d = cert.automaton, cert.d
        assert priority_close(aut, d).transitions == reference_priority_close(aut, d).transitions


def test_close_matches_reference_on_signature_completions():
    # `posaut ugraph` closes the eps-completion of p1's certificate
    auts = [
        aut
        for name in POSITIONAL_FIXTURES
        for aut in (FIXTURES[name][0](), blowup(FIXTURES[name][0](), 2, 0))
    ] + [aut_min_letter_even(d) for d in range(2, 9)]
    for i, aut in enumerate(auts):
        cert = eps_complete_from_signature(decide_positionality_p1(aut).certificate)
        assert priority_close(cert.automaton, cert.d) == reference_priority_close(
            cert.automaton, cert.d
        ), i


@pytest.mark.parametrize("name", POSITIONAL_FIXTURES)
def test_p2_certificate_same_with_reference_close(name):
    cert = decide_positionality_p2(FIXTURES[name][0]()).certificate
    closed = priority_close(cert.automaton, cert.d)
    assert closed == reference_priority_close(cert.automaton, cert.d)
    assert validate_eps_complete(closed, cert.d) is True


@pytest.mark.parametrize("seed", range(4))
def test_merge_then_close_equals_close_then_merge(seed):
    # with eps:d+1 reflexive, as after p2's greedy phase, merging first gives
    # the same automaton, transition order included
    rng = random.Random(seed)
    for i in range(60):
        d = (0, 2, 4)[i % 3]
        aut = random_eps_automaton(rng, d)
        loops = tuple(Transition(q, EPS, d + 1, q) for q in aut.states())
        aut = replace(aut, transitions=aut.transitions + loops)
        closed = priority_close(aut, d)
        assert priority_close(merge_top_equivalent(aut, d), d) == merge_top_equivalent(
            closed, d
        ), (seed, i)


def test_merge_classes_are_letter_free_cycles():
    # 0 -eps:2-> 1 -eps:1-> 0 has least priority 1: no merge; 1 -eps:2-> 2
    # -eps:3-> 1 has least priority 2, and 2 -eps:3-> 3 -eps:3-> 2 has d+1
    aut = build(
        4,
        ("a",),
        0,
        [(0, EPS, 2, 1), (1, EPS, 1, 0), (1, EPS, 2, 2), (2, EPS, 3, 1),
         (2, EPS, 3, 3), (3, EPS, 3, 2), (3, "a", 0, 0)],
        deterministic=False,
    )
    merged = merge_top_equivalent(aut, 2)
    assert merged.n_states == 2
    assert (3, "a", 0, 0) not in {(t.src, t.letter, t.priority, t.dst) for t in merged.transitions}
    assert (1, "a", 0, 0) in {(t.src, t.letter, t.priority, t.dst) for t in merged.transitions}


def test_close_rejects_priorities_outside_the_order():
    aut = build(1, ("a",), 0, [(0, "a", 4, 0)], deterministic=False)
    with pytest.raises(ValueError):
        priority_close(aut, 2)
    with pytest.raises(ValueError):
        priority_close(aut, 3)


# -- least priorities of letter-free walks -------------------------------------------


def test_compose_minima_is_min_of_pairs():
    d = 2
    empty = d + 2  # the empty walk's bit, above every priority
    for a, b in itertools.product(range(1 << (d + 3)), repeat=2):
        want = {
            min(y, z)
            for y in range(d + 3) if a >> y & 1
            for z in range(d + 3) if b >> z & 1
        }
        assert compose_minima(a, b) == sum(1 << y for y in want), (a, b)
    assert compose_minima(1 << empty, 1 << empty) == 1 << empty
    assert compose_minima(1 << empty, 0b101) == 0b101
    assert compose_minima(0, 0b101) == 0


def test_walk_minima_hand_example():
    walks = WalkMinima(3, 2)
    walks.add(Transition(0, EPS, 2, 1))
    walks.add(Transition(1, EPS, 3, 2))
    # 0 -eps:2-> 1 -eps:3-> 2 has least priority 2, and 1 < 3 < 2 < 0
    implied = {y for y in range(4) if walks.implies(Transition(0, EPS, y, 2))}
    assert implied == {1, 3, 2}
    # the empty walk implies no self-loop, a letter-free cycle does
    assert not walks.implies(Transition(0, EPS, 1, 0))
    walks.add(Transition(2, EPS, 1, 0))
    assert walks.implies(Transition(0, EPS, 1, 0))
    assert not walks.implies(Transition(0, EPS, 3, 0))
    assert walks.minima[0][0] == 1 << 4 | 1 << 1


def test_walk_minima_doomed_candidate():
    walks = WalkMinima(3, 2)
    walks.add(Transition(0, EPS, 3, 1))
    walks.reject(Transition(0, EPS, 2, 2))
    # 0 -eps:3-> 1 -eps:2-> 2 has least priority 2, as preferred as the
    # rejected 0 -eps:2-> 2; with eps:1 it is less preferred
    assert walks.dooms(Transition(1, EPS, 2, 2))
    assert walks.dooms(Transition(1, EPS, 0, 2))
    assert not walks.dooms(Transition(1, EPS, 1, 2))
    assert not walks.dooms(Transition(2, EPS, 2, 1))


def test_walk_minima_match_enumerated_walks():
    rng = random.Random(3)
    for i in range(40):
        n, d = rng.randint(1, 4), (0, 2, 4)[i % 3]
        edges = [
            (rng.randrange(n), rng.randint(0, d + 1), rng.randrange(n))
            for _ in range(rng.randint(0, 6))
        ]
        walks = WalkMinima(n, d)
        for q, y, p in edges:
            walks.add(Transition(q, EPS, y, p))
        # extend walks by one edge at a time until no (end, minimum) is new
        want = [[1 << (d + 2) if q == p else 0 for p in range(n)] for q in range(n)]
        changed = True
        while changed:
            changed = False
            for a, (q, y, p) in itertools.product(range(n), edges):
                for m in range(d + 3):
                    if want[a][q] >> m & 1 and not want[a][p] >> min(m, y) & 1:
                        want[a][p] |= 1 << min(m, y)
                        changed = True
        assert walks.minima == want, i


def test_p2_seeds_walks_with_the_input_eps_edges(monkeypatch):
    # the certificate without one eps-edge that a two-edge walk of it implies:
    # p2 decides the one candidate left open without a product test
    aut = aut_inf_a_or_fin_bb()
    cert = decide_positionality_p2(aut).certificate.automaton
    eps = eps_set(cert)
    drop = next(
        (q, x, p)
        for (q, x, p) in sorted(eps)
        if q != p and x % 2 == 0
        and any((q, y1, r) in eps and (r, y2, p) in eps and min(y1, y2) % 2 == 0
                and min(y1, y2) <= x for r in cert.states() if r not in (q, p)
                for y1 in range(x, 4) for y2 in range(x, 4))
    )
    stripped = replace(
        cert,
        transitions=tuple(
            t for t in cert.transitions if not t.is_eps or (t.src, t.priority, t.dst) != drop
        ),
    )
    tests = count_product_tests(monkeypatch)
    res = decide_positionality_p2(stripped, aut)
    assert tests == []
    assert res == reference_p2(stripped, aut)


# -- validation ----------------------------------------------------------------------


def test_validate_eps_complete_failure():
    aut = build(
        2,
        ("a",),
        0,
        [(0, "a", 0, 0), (1, "a", 0, 1), (0, EPS, 1, 0), (1, EPS, 1, 1)],
        deterministic=False,
    )
    # neither 0 -eps:0-> 1 nor 1 -eps:1-> 0: totality of eps:1 fails
    problems = validate_eps_complete(aut, 0)
    assert problems is not True
    assert any("total" in p or "strict" in p for p in problems)


def test_validate_single_state_odd_loops():
    aut = build(
        1,
        ("a",),
        0,
        [(0, "a", 0, 0), (0, EPS, 1, 0)],
        deterministic=False,
    )
    assert validate_eps_complete(aut, 0) is True


# -- from signature ---------------------------------------------------------------------


def test_from_signature_three_priorities():
    sig = decide_positionality_p1(aut_inf_a_or_fin_bb()).certificate
    eps_aut = eps_complete_from_signature(sig)
    assert EXPECTED_EPS_TREE <= eps_set(eps_aut.automaton)
    assert validate_eps_complete(eps_aut.automaton, eps_aut.d) is True


def test_from_signature_trivial_preorders():
    from posaut.signature import NestedPreorders, SignatureAutomaton

    aut = aut_accept_all()
    sig = SignatureAutomaton(aut, NestedPreorders(({0: 0},), 0), validated=True)
    eps_aut = eps_complete_from_signature(sig)
    eps = eps_set(eps_aut.automaton)
    assert all(pr % 2 == 1 for (_, pr, _) in eps)


def test_from_signature_random_certificates(rng):
    produced = 0
    while produced < 12:
        aut = random_automaton(rng, rng.randint(1, 4), ("a", "b"), dmax=3)
        res = decide_positionality_p1(aut)
        if not isinstance(res, Positional):
            continue
        produced += 1
        eps_aut = eps_complete_from_signature(res.certificate)
        assert validate_eps_complete(eps_aut.automaton, eps_aut.d) is True
        assert incl_nd_in_det(eps_aut.automaton, res.certificate.automaton) is True


def test_p2_shifts_negative_priorities():
    # p2 once called this DPA positional, with a certificate spanning the
    # priorities (-2, 1), while p1 finds two loops; p2 now runs on it shifted
    # up by 2, which keeps the language
    trans = [(0, "a", -1, 1), (0, "b", 0, 0), (1, "a", -2, 0), (1, "b", 1, 0)]
    aut = build(2, ("a", "b"), 0, trans)
    assert isinstance(decide_positionality_p1(aut), NotPositional)
    res = decide_positionality_p2(aut)
    assert isinstance(res, NotPositional) and isinstance(res.witness, CompletionFailure)
    shifted = build(2, ("a", "b"), 0, [(s, a, y + 2, t) for (s, a, y, t) in trans])
    assert res == decide_positionality_p2(shifted)
    g = gadget_for_witness(res.witness, aut, aut=aut, w_det=aut)
    sv = solve(g.arena, g.objective)
    assert all(sv.eve_wins_from(v) for v in g.designated)


def test_p2_agreement_with_p1_on_fixtures():
    for name, (mk, _) in FIXTURES.items():
        aut = mk()
        p1 = decide_positionality_p1(aut)
        p2 = decide_positionality_p2(aut)
        assert isinstance(p1, Positional) == isinstance(p2, Positional), name


# -- the greedy loop on one product against the rebuild-per-candidate loop ---------


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_p2_matches_reference_on_fixtures(name):
    aut = FIXTURES[name][0]()
    assert decide_positionality_p2(aut) == reference_p2(aut)


@pytest.mark.parametrize("chunk", range(4))
def test_p2_matches_reference_on_random_dpas(chunk):
    for seed in range(25 * chunk, 25 * chunk + 25):
        rng = random.Random(seed)
        letters = ("a", "b", "c")[: rng.randint(2, 3)]
        aut = random_automaton(rng, rng.randint(3, 9), letters, dmax=rng.randint(1, 5))
        aut = aut.trim()
        assert decide_positionality_p2(aut) == reference_p2(aut), seed


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_p2_matches_reference_on_blowups(k, seed):
    aut = blowup(aut_fin_nested_c_factors(), k, seed)
    res = decide_positionality_p2(aut)
    assert isinstance(res, Positional)
    assert res == reference_p2(aut)


@pytest.mark.parametrize("d", range(1, 7))
def test_p2_matches_reference_on_min_letter_even(d):
    aut = aut_min_letter_even(d)
    assert decide_positionality_p2(aut) == reference_p2(aut)


# -- p2 with a separate deterministic automaton w_det -------------------------------


def with_redundant_copy(aut, s, a):
    """`aut` plus a copy of the a-successor q of s, with the copy's own
    transitions, and a second a-transition from s into the copy (same
    priority): nondeterministic, and the copy is bisimilar to q, so the
    language is unchanged."""
    t = aut.dsucc(s, a)
    n = aut.n_states
    trans = [(u.src, u.letter, u.priority, u.dst) for u in aut.transitions]
    trans += [(n, u.letter, u.priority, u.dst) for u in aut.by_src[t.dst]]
    trans.append((s, a, t.priority, n))
    return build(n + 1, aut.alphabet, aut.initial, trans, deterministic=False)


@pytest.mark.parametrize("name", POSITIONAL_FIXTURES)
def test_p2_on_own_certificate_with_w_det(name):
    aut = FIXTURES[name][0]()
    cert = decide_positionality_p2(aut).certificate.automaton
    assert cert.has_eps and not cert.deterministic
    res = decide_positionality_p2(cert, aut)
    assert res == reference_p2(cert, aut)
    # the certificate is eps-complete already: no candidate is tested, and
    # the post-processing gives it back unchanged
    assert isinstance(res, Positional) and res.certificate.automaton == cert


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_p2_on_redundant_nondeterministic_transition(name):
    aut = FIXTURES[name][0]()
    nd = with_redundant_copy(aut, aut.initial, aut.alphabet[0])
    res = decide_positionality_p2(nd, aut)
    assert isinstance(res, type(decide_positionality_p2(aut)))
    assert res == reference_p2(nd, aut)


def test_p2_w_det_must_include_the_input():
    with pytest.raises(ValueError, match="not included in L\\(W_det\\)"):
        decide_positionality_p2(aut_accept_all(), aut_reach_aa())
    # only L(aut) ⊆ L(w_det) is checked: a smaller input language passes
    res = decide_positionality_p2(aut_reach_aa(), aut_accept_all())
    assert res == reference_p2(aut_reach_aa(), aut_accept_all())


@pytest.mark.parametrize(
    "broken",
    [{"initial": 7}, {"priority_range": (0, 0)}],
    ids=["initial", "priority_range"],
)
def test_entry_points_reject_invalid_automata(broken):
    bad = replace(aut_reach_aa(), **broken)
    for decide in (decide_positionality_p1, decide_positionality_p2, decide_bipositionality):
        with pytest.raises(ValueError, match="invalid automaton"):
            decide(bad)
    with pytest.raises(ValueError, match="invalid automaton"):
        decide_positionality_p2(aut_reach_aa(), bad)


# -- implied and doomed candidates: fewer product tests, same decisions --------------


def count_product_tests(monkeypatch):
    calls = []
    real = DetProduct.try_push

    def counted(self, t):
        calls.append(self)
        return real(self, t)

    monkeypatch.setattr(DetProduct, "try_push", counted)
    return calls


@pytest.mark.parametrize(
    "make, most",
    [
        (lambda: aut_min_letter_even(6), 100),  # 286 tests without the two facts
        (lambda: blowup(aut_fin_nested_c_factors(), 3, 0), 120),  # 402 without
    ],
    ids=["min_letter_even6", "blowup3"],
)
def test_p2_product_tests_are_few(make, most, monkeypatch):
    aut = make()
    tests = count_product_tests(monkeypatch)
    res = decide_positionality_p2(aut)
    assert len(tests) <= most
    assert res == reference_p2(aut)


def incremental_inputs(group):
    # each group has an input whose W merges states under bisimulation
    if group == "fixtures":
        for name in sorted(FIXTURES):
            yield FIXTURES[name][0](), None
            for k in (2, 3):
                yield blowup(FIXTURES[name][0](), k, 0), None
    elif group == "min_letter_even":
        for d in range(2, 9):
            yield aut_min_letter_even(d), None
        yield blowup(aut_min_letter_even(4), 2, 0), None
    elif group == "union":
        for k, d, length in [(2, 5, 24), (3, 5, 16)]:
            yield zielonka_union_dpa(k, d, length), None
        yield blowup(zielonka_union_dpa(2, 5, 24), 2, 0), None
    elif group == "random":
        for seed in range(300):
            rng = random.Random(seed)
            letters = ("a", "b", "c")[: rng.randint(1, 3)]
            yield random_automaton(rng, rng.randint(1, 9), letters, dmax=rng.randint(1, 5)), None
        for k in (1, 2):
            yield seed_65_blowup(k), None
    else:  # w_det: p2 on its own certificate, on a redundant nondeterministic
        # copy, and against a blown-up W
        for name in sorted(FIXTURES):
            aut = FIXTURES[name][0]()
            yield with_redundant_copy(aut, aut.initial, aut.alphabet[0]), aut
            res = decide_positionality_p2(aut)
            if isinstance(res, Positional):
                yield res.certificate.automaton, aut
        aut = FIXTURES["fin_nested_c_factors"][0]()
        yield aut, blowup(aut, 2, 5)


@pytest.mark.parametrize("group", ["fixtures", "min_letter_even", "union", "random", "w_det"])
def test_p2_incremental_answers_match_fresh_products(group, monkeypatch):
    # every answer of p2's `try_push` against `has_common_word` on a fresh
    # product of the automaton with the kept transitions and the candidate,
    # and against inclusion in the W given to p2: p2's product runs on W's
    # bisimulation quotient, whose answers must be those of W itself
    answers, merged, given = [], [], []

    class CheckedProduct(DetProduct):
        def __init__(self, a, b):
            super().__init__(a, b)
            self.a, self.b, self.kept = a, b, []
            merged.append(b.n_states < given[-1].n_states)

        def try_push(self, t):
            answer = super().try_push(t)
            extended = replace(self.a, transitions=self.a.transitions + tuple(self.kept) + (t,))
            assert answer == (not has_common_word(DetProduct(extended, self.b))), t
            assert answer == (incl_nd_in_det(extended, given[-1]) is True), t
            if answer:
                self.kept.append(t)
            answers.append(answer)
            return answer

    inputs = list(incremental_inputs(group))
    monkeypatch.setattr(epscomplete, "DetProduct", CheckedProduct)
    for aut, w_det in inputs:
        given.append(aut if w_det is None else w_det)
        decide_positionality_p2(aut, w_det)
    assert True in answers and (False in answers or group == "w_det")
    assert True in merged


def zielonka_union_dpa(k, d, length):
    """The Zielonka-tree DPA of a union of k min-parity conditions over
    `length` letters, the k-tuples of priorities in [0, d] in a seeded order."""
    tuples = list(itertools.product(range(d + 1), repeat=k))
    random.Random(0).shuffle(tuples)
    letters = [f"t{i}" for i in range(length)]
    return union_parity_automaton(letters, dict(zip(letters, tuples[:length]))).trim()


@pytest.mark.parametrize("k, d, length", [(2, 5, 24), (3, 5, 16)])
def test_p2_matches_reference_on_union_dpas(k, d, length):
    aut = zielonka_union_dpa(k, d, length)
    res = decide_positionality_p2(aut)
    assert isinstance(res, Positional)  # a union of positional objectives
    assert res == reference_p2(aut)


def pinned_inputs():
    for name in POSITIONAL_FIXTURES:
        yield name, FIXTURES[name][0]()
        for k in (2, 3):
            yield f"{name}-blowup{k}", blowup(FIXTURES[name][0](), k, 0)
    for d in range(2, 9):
        yield f"min_letter_even{d}", aut_min_letter_even(d)
    for k, d, length in [(2, 5, 24), (3, 5, 16)]:
        yield f"union{k, d, length}", zielonka_union_dpa(k, d, length)


def test_p2_certificate_has_the_closed_forms_relations(monkeypatch):
    # the certificate as p2 made it when it closed the merged automaton
    # before pruning: the same eps-relations on the same states
    merged = []
    real = epscomplete.merge_top_equivalent

    def spy(aut, d):
        merged.append(real(aut, d))
        return merged[-1]

    monkeypatch.setattr(epscomplete, "merge_top_equivalent", spy)
    for name, aut in pinned_inputs():
        cert = decide_positionality_p2(aut).certificate
        d = cert.d
        old = epscomplete._prune_even_eps(priority_close(merged[-1], d), d)
        assert eps_set(old) == eps_set(cert.automaton), name
        assert old.n_states == cert.automaton.n_states, name


def test_p2_certificate_size_min_letter_even8():
    # the input's 81 letter transitions and 405 eps-edges; 4,465 when closed
    cert = decide_positionality_p2(aut_min_letter_even(8)).certificate
    assert len(cert.automaton.transitions) == 486
    assert len(priority_close(cert.automaton, cert.d).transitions) == 4465


@pytest.mark.parametrize(
    "make",
    [lambda: blowup(aut_fin_nested_c_factors(), 6, 0), lambda: aut_min_letter_even(10)],
    ids=["blowup6", "min_letter_even10"],
)
def test_p2_scale(make):
    aut = make()
    res = decide_positionality_p2(aut)
    assert isinstance(res, Positional)
    cert = res.certificate
    assert validate_eps_complete(cert.automaton, cert.d) is True
    assert isinstance(decide_positionality_p1(aut), Positional)
