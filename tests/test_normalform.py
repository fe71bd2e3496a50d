import random

from posaut.automaton import build, up_membership, upword
from posaut.normalform import is_normal, normalize

from conftest import (
    FIXTURES,
    brute_force_minimal_labelling,
    enumerate_cycles,
    random_automaton,
    random_upword,
)


def test_idempotent_on_fixtures():
    for name, (mk, _) in FIXTURES.items():
        n1 = normalize(mk())
        n2 = normalize(n1)
        assert n1.transitions == n2.transitions, name


def test_spec_single_negative_cycle():
    aut = build(
        2,
        ("a", "b"),
        0,
        [(0, "a", 3, 1), (1, "a", 3, 0), (0, "b", 3, 0), (1, "b", 3, 1)],
    )
    norm = normalize(aut)
    assert all(t.priority == 1 for t in norm.transitions)


def test_spec_mixed_cycle():
    # cycle q0 -a:0-> q1 -a:2-> q0 with a b:1 self-loop on q0: the a-cycle can
    # take 0 on both transitions, the loop stays odd
    aut = build(
        2,
        ("a", "b"),
        0,
        [(0, "a", 0, 1), (1, "a", 2, 0), (0, "b", 1, 0)],
        deterministic=False,
    )
    norm = normalize(aut)
    pri = {(t.src, t.letter): t.priority for t in norm.transitions}
    assert pri[(0, "a")] == 0 and pri[(1, "a")] == 0 and pri[(0, "b")] == 1


def test_language_preserved(rng):
    for name, (mk, _) in FIXTURES.items():
        aut = mk()
        norm = normalize(aut)
        for _ in range(200):
            u, v = random_upword(rng, aut.alphabet)
            assert up_membership(aut, upword(u, v)) == up_membership(
                norm, upword(u, v)
            ), (name, u, v)


def test_cycle_parities_preserved():
    rng = random.Random(3)
    for _ in range(25):
        aut = random_automaton(rng, rng.randint(1, 3), ("a", "b"), dmax=3)
        norm = normalize(aut)
        for cyc in enumerate_cycles(aut):
            before = min(aut.transitions[i].priority for i in cyc)
            after = min(norm.transitions[i].priority for i in cyc)
            assert before % 2 == after % 2


def test_pointwise_minimal_vs_brute_force():
    rng = random.Random(4)
    cases = [mk() for mk, _ in FIXTURES.values() if mk().n_states <= 3]
    cases += [random_automaton(rng, rng.randint(1, 3), ("a", "b")) for _ in range(20)]
    for aut in cases:
        norm = normalize(aut)
        best = brute_force_minimal_labelling(aut, 3)
        for i, pr in best.items():
            assert norm.transitions[i].priority == pr, (aut.transitions, i)


def test_inter_scc_gets_max_priority():
    aut = build(
        2,
        ("a",),
        0,
        [(0, "a", 0, 1), (1, "a", 1, 1)],
    )
    norm = normalize(aut)
    pri = {(t.src, t.dst): t.priority for t in norm.transitions}
    assert pri[(1, 1)] == 1  # odd self-loop
    assert pri[(0, 1)] == 1  # inter-SCC: the maximum of the normalized automaton


def test_is_normal():
    assert is_normal(normalize(FIXTURES["inf_a_or_fin_bb"][0]()))


def test_normalize_random_hypothesis():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from("ab"),
                              st.integers(0, 3), st.integers(0, 2)),
                    min_size=1, max_size=8))
    def run(raw):
        n = max(max(s for (s, _, _, _) in raw), max(t for (_, _, _, t) in raw)) + 1
        aut = build(n, ("a", "b"), 0, raw, deterministic=False)
        norm = normalize(aut)
        again = normalize(norm)
        assert norm.transitions == again.transitions

    run()
