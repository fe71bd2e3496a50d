import random
from dataclasses import replace

import pytest

from posaut.automaton import (
    EPS,
    Transition,
    build,
    congruence_from_classes,
    up_membership,
    upword,
)
from posaut.epscomplete import decide_positionality_p2
from posaut.lang import (
    DetProduct,
    complement_det,
    disjoint_from_det,
    incl_det,
    incl_nd_in_det,
    noninclusion_pairs,
    residual_automaton,
    residual_congruence,
    residual_preorder,
    safe_incl,
)
from posaut.witnesses import CompletionFailure, NotPositional
from posaut.zoo import (
    aut_accept_all,
    aut_buchi_a_or_reach_aa,
    aut_fin_ac_or_fin_bb,
    aut_first_letter_inf,
    aut_inf_a_or_fin_bb,
    aut_reject_all,
)

from conftest import (
    FIXTURES,
    NOT_POSITIONAL_FIXTURES,
    blowup,
    random_automaton,
    random_eps_automaton,
    random_upword,
    reference_disjoint,
)


def test_complement_accept_all():
    comp = complement_det(aut_accept_all())
    assert all(t.priority == 1 for t in comp.transitions)
    assert not up_membership(comp, upword((), ("a",)))


def test_complement_buchi_example():
    comp = complement_det(aut_buchi_a_or_reach_aa())
    assert up_membership(comp, upword((), ("b",)))


def test_double_complement(rng):
    for name, (mk, _) in FIXTURES.items():
        aut = mk()
        cc = complement_det(complement_det(aut))
        for _ in range(100):
            u, v = random_upword(rng, aut.alphabet)
            assert up_membership(aut, upword(u, v)) == up_membership(cc, upword(u, v))


def test_incl_reflexive_and_transitive():
    for name in ("inf_a_or_fin_bb", "buchi_a_or_reach_aa", "tail_const_or_two_c"):
        aut = FIXTURES[name][0]()
        rel = {}
        for q in aut.states():
            for p in aut.states():
                rel[(q, p)] = incl_det(aut, q, aut, p) is True
        for q in aut.states():
            assert rel[(q, q)]
            for p in aut.states():
                for s in aut.states():
                    if rel[(q, p)] and rel[(p, s)]:
                        assert rel[(q, s)], (name, q, p, s)


def test_incl_three_priorities():
    aut = aut_inf_a_or_fin_bb()
    # L(q1) (= InfOften(a)) is included in the whole language
    assert incl_det(aut, 0, aut, 2) is True
    cex = incl_det(aut, 2, aut, 0)
    assert cex is not True
    assert up_membership(aut.with_initial(2), cex)
    assert not up_membership(aut.with_initial(0), cex)


def test_incl_counterexamples_verify(rng):
    for name, (mk, _) in FIXTURES.items():
        aut = mk()
        for q in aut.states():
            for p in aut.states():
                r = incl_det(aut, q, aut, p)
                if r is not True:
                    assert up_membership(aut.with_initial(q), r), (name, q, p)
                    assert not up_membership(aut.with_initial(p), r), (name, q, p)


def test_incl_nd_subautomaton():
    aut = aut_buchi_a_or_reach_aa()
    assert incl_nd_in_det(aut, aut) is True


def test_incl_nd_with_bad_eps_loop():
    from posaut.automaton import Transition
    from dataclasses import replace

    aut = aut_buchi_a_or_reach_aa()
    bad = replace(
        aut,
        transitions=aut.transitions + (Transition(0, "eps", 0, 0),),
        deterministic=False,
    )
    cex = incl_nd_in_det(bad, aut)
    assert cex is not True
    assert not up_membership(aut, cex)
    assert up_membership(bad, cex)


def test_residual_preorder_buchi_example():
    rp = residual_preorder(aut_buchi_a_or_reach_aa())
    assert rp.total
    assert rp.rank[0] < rp.rank[1] < rp.rank[2]


def test_residual_preorder_incomparable():
    aut = aut_first_letter_inf()
    rp = residual_preorder(aut)
    assert not rp.total
    q, p, w1, w2 = rp.incomparable_witness
    assert up_membership(aut.with_initial(q), w1)
    assert not up_membership(aut.with_initial(p), w1)
    assert up_membership(aut.with_initial(p), w2)
    assert not up_membership(aut.with_initial(q), w2)
    # the named pair of loop states is incomparable as well
    assert incl_det(aut, 1, aut, 2) is not True
    assert incl_det(aut, 2, aut, 1) is not True


def test_residual_preorder_one_state():
    rp = residual_preorder(aut_accept_all())
    assert rp.total and rp.rank == {0: 0}


def test_residual_monotonicity(rng):
    # q below p implies the w-successors stay ordered, for short words
    import itertools

    for name in ("inf_a_or_fin_bb", "buchi_a_or_reach_aa", "min_letter_even"):
        aut = FIXTURES[name][0]()
        rp = residual_preorder(aut)
        assert rp.total
        for q in aut.states():
            for p in aut.states():
                if rp.rank[q] > rp.rank[p]:
                    continue
                for wlen in range(1, 4):
                    for w in itertools.product(aut.alphabet, repeat=wlen):
                        q2 = aut.run_state(q, w)
                        p2 = aut.run_state(p, w)
                        assert rp.rank[q2] <= rp.rank[p2], (name, q, p, w)


def _pairwise_cases():
    rng = random.Random(31)
    cases = [
        random_automaton(rng, rng.randint(2, 10), ("a", "b", "c")[: rng.randint(2, 3)],
                         dmax=rng.randint(1, 5))
        for _ in range(14)
    ]
    for name in ("inf_a_or_fin_bb", "buchi_a_or_reach_aa", "reach_aa", "first_letter_inf"):
        cases += [blowup(FIXTURES[name][0](), k, seed) for k in (2, 3) for seed in (0, 1)]
    return cases


def _pairwise_preorder(aut, cex):
    """Residual preorder from the `incl_det` counterexamples of all pairs."""
    states = sorted(aut.reachable())
    for q in states:
        for p in states:
            if q < p and (q, p) in cex and (p, q) in cex:
                return {}, (q, p, cex[(q, p)], cex[(p, q)])
    rank = {q: sum(1 for p in states if (p, q) not in cex and (q, p) in cex) for q in states}
    renum = {v: i for i, v in enumerate(sorted(set(rank.values())))}
    return {q: renum[v] for q, v in rank.items()}, None


def _pairwise_congruence(aut):
    groups = []
    for q in aut.states():
        for g in groups:
            if incl_det(aut, q, aut, g[0]) is True and incl_det(aut, g[0], aut, q) is True:
                g.append(q)
                break
        else:
            groups.append([q])
    return congruence_from_classes(aut.n_states, groups)


@pytest.mark.parametrize("index", range(len(_pairwise_cases())))
def test_residual_relations_match_pairwise(index):
    aut = _pairwise_cases()[index]
    states = sorted(aut.reachable())
    cex = {}
    for q in states:
        for p in states:
            r = incl_det(aut, q, aut, p)
            if r is not True:
                cex[(q, p)] = r
    assert noninclusion_pairs(aut, states) == set(cex)
    for q in states[:3]:
        for p in states[:3]:
            holds = disjoint_from_det(
                aut.with_initial(q), complement_det(aut.with_initial(p))
            )
            assert holds == ((q, p) not in cex), (q, p)

    rp = residual_preorder(aut)
    rank, witness = _pairwise_preorder(aut, cex)
    assert (rp.rank, rp.incomparable_witness) == (rank, witness)
    assert rp.total == (witness is None)
    trimmed = aut.trim()
    assert residual_congruence(trimmed) == _pairwise_congruence(trimmed)


@pytest.mark.parametrize("name", NOT_POSITIONAL_FIXTURES)
def test_completion_failure_words_match_direct_inclusion(name):
    aut = FIXTURES[name][0]()
    res = decide_positionality_p2(aut)
    assert isinstance(res, NotPositional) and isinstance(res.witness, CompletionFailure)
    wit = res.witness
    base = wit.automaton
    with_even = replace(
        base, transitions=base.transitions + (Transition(wit.q, EPS, wit.x, wit.p),)
    )
    with_odd = replace(
        base, transitions=base.transitions + (Transition(wit.p, EPS, wit.x + 1, wit.q),)
    )
    assert not disjoint_from_det(with_even, complement_det(aut))
    assert not disjoint_from_det(with_odd, complement_det(aut))
    assert wit.cex1 == incl_nd_in_det(with_even, aut)
    assert wit.cex2 == incl_nd_in_det(with_odd, aut)


@pytest.mark.parametrize("seed", range(4))
def test_kernel_matches_lasso_search(seed):
    rng = random.Random(seed)
    for i in range(60):
        letters = ("a", "b")[: rng.randint(1, 2)]
        a = random_eps_automaton(rng, letters)
        c = random_automaton(rng, rng.randint(1, 4), letters, dmax=rng.randint(0, 4))
        co = complement_det(c)
        included = incl_nd_in_det(a, c) is True
        assert DetProduct(a, co).has_common_word() == (not included), (seed, i)
        assert disjoint_from_det(a, co) == included == reference_disjoint(a, co), (seed, i)


def test_kernel_push_and_pop():
    # pushing one transition gives the product of the extended automaton,
    # popping it gives back the product before
    rng = random.Random(7)
    for i in range(40):
        a = random_eps_automaton(rng, ("a", "b"))
        c = random_automaton(rng, rng.randint(1, 4), ("a", "b"))
        product = DetProduct(a, complement_det(c))

        def arrays():
            return [list(map(list, product.out)), product.src[:], product.dst[:],
                    product.pr1[:], product.pr2[:]]

        before = arrays()
        t = Transition(
            rng.randrange(a.n_states), rng.choice(("a", EPS)), rng.randint(0, 4),
            rng.randrange(a.n_states),
        )
        product.push(t)
        extended = replace(a, transitions=a.transitions + (t,))
        fresh = DetProduct(extended, complement_det(c))
        assert arrays() == [fresh.out, fresh.src, fresh.dst, fresh.pr1, fresh.pr2], i
        assert product.has_common_word() == (incl_nd_in_det(extended, c) is not True), i
        product.pop()
        assert arrays() == before, i


def test_kernel_rejects_even_eps_only_cycle():
    # 0 and 1 form a cycle of eps:0 edges, which reads no letter; the only
    # letter cycle (at 2) has odd priority, so L(a) is empty
    a = build(3, ("a",), 0, [(0, EPS, 0, 1), (1, EPS, 0, 0), (0, "a", 1, 2), (2, "a", 1, 2)])
    c = aut_reject_all(("a",))
    assert not DetProduct(a, complement_det(c)).has_common_word()
    assert incl_nd_in_det(a, c) is True


def test_kernel_ignores_unreachable_pairs():
    # a accepts a^omega; c accepts it from its initial state 0, and its
    # unreachable state 1 rejects it, so the product pair (0, 1) lies on an
    # accepting cycle that the initial pair (0, 0) does not reach
    a = build(1, ("a",), 0, [(0, "a", 0, 0)])
    c = build(2, ("a",), 0, [(0, "a", 0, 0), (1, "a", 1, 1)], deterministic=True)
    assert not DetProduct(a, complement_det(c)).has_common_word()
    assert incl_nd_in_det(a, c) is True
    assert DetProduct(a, complement_det(c.with_initial(1))).has_common_word()


def test_residual_automaton_shapes():
    structure, _ = residual_automaton(aut_inf_a_or_fin_bb())
    assert structure.n_states == 2
    structure, _ = residual_automaton(aut_buchi_a_or_reach_aa())
    assert structure.n_states == 3
    structure, _ = residual_automaton(aut_accept_all())
    assert structure.n_states == 1


def test_safe_incl_reflexive():
    aut = aut_fin_ac_or_fin_bb()
    for q in aut.states():
        assert safe_incl(aut, 2, q, q) is True


def test_safe_incl_acbb():
    aut = aut_fin_ac_or_fin_bb()
    # q1 strictly below q2, p1 strictly below p2
    assert safe_incl(aut, 2, 0, 1) is True
    assert safe_incl(aut, 2, 1, 0) is not True
    assert safe_incl(aut, 2, 2, 3) is True
    assert safe_incl(aut, 2, 3, 2) is not True


def test_safe_incl_three_priorities():
    aut = aut_inf_a_or_fin_bb()
    # within the b,c block: the just-saw-b state is strictly below the fresh one
    assert safe_incl(aut, 2, 1, 2) is True
    sep = safe_incl(aut, 2, 2, 1)
    assert sep is not True
    # the separating word is (<2)-safe from the fresh state only
    q2, q1 = 2, 1
    st, m = aut.run_min_priority(q2, sep)
    assert m >= 2
    part, m2 = None, None
    try:
        part, m2 = aut.run_min_priority(q1, sep)
    except ValueError:
        pass
    assert m2 is None or m2 < 2


def test_safe_language_monotonicity():
    # safe inclusion propagates along safe runs
    import itertools

    aut = aut_fin_ac_or_fin_bb()
    for q in aut.states():
        for p in aut.states():
            if safe_incl(aut, 2, q, p) is not True:
                continue
            for wlen in range(1, 4):
                for w in itertools.product(aut.alphabet, repeat=wlen):
                    q2, m = aut.run_min_priority(q, w)
                    if m is not None and m >= 2:
                        p2, m2 = aut.run_min_priority(p, w)
                        assert m2 >= 2
                        assert safe_incl(aut, 2, q2, p2) is True


def test_safe_incl_requires_determinism_over_geq():
    bad = build(
        2,
        ("a",),
        0,
        [(0, "a", 2, 0), (0, "a", 2, 1), (1, "a", 2, 1)],
        deterministic=False,
    )
    with pytest.raises(ValueError):
        safe_incl(bad, 2, 0, 1)
    # nondeterminism below the threshold is tolerated
    ok = build(
        2,
        ("a",),
        0,
        [(0, "a", 1, 0), (0, "a", 1, 1), (1, "a", 2, 1)],
        deterministic=False,
    )
    assert safe_incl(ok, 2, 0, 1) is True


def test_reject_all_included_everywhere():
    lo = aut_reject_all()
    hi = aut_accept_all()
    assert incl_det(lo, 0, hi, 0) is True
    assert incl_det(hi, 0, lo, 0) is not True
