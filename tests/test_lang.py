import random
from dataclasses import replace

import pytest

from posaut import lang
from posaut.automaton import (
    EPS,
    Transition,
    bisimulation_quotient,
    build,
    congruence_from_classes,
    up_membership,
    upword,
)
from posaut.epscomplete import decide_positionality_p2
from posaut.games import EVE, GameArena, solve
from posaut.lang import (
    DetProduct,
    complement_det,
    incl_det,
    incl_nd_in_det,
    lang_equal_det,
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
    has_common_word,
    random_automaton,
    random_eps_automaton,
    random_upword,
    reference_disjoint,
    reference_lang_equal_det,
    reference_safe_incl,
    seed_65_blowup,
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
    pairs, word = noninclusion_pairs(aut, states)
    assert pairs == set(cex)
    assert {pair: word(*pair) for pair in pairs} == cex
    for q in states[:3]:
        for p in states[:3]:
            product = DetProduct(aut.with_initial(q), complement_det(aut.with_initial(p)))
            assert has_common_word(product) == ((q, p) in cex), (q, p)

    rp = residual_preorder(aut)
    rank, witness = _pairwise_preorder(aut, cex)
    assert (rp.rank, rp.incomparable_witness) == (rank, witness)
    assert rp.total == (witness is None)
    trimmed = aut.trim()
    assert residual_congruence(trimmed) == _pairwise_congruence(trimmed)


@pytest.mark.parametrize(
    "name, k",
    [
        pytest.param(name, k, id=name if k == 1 else f"{name}-blowup{k}")
        for name in NOT_POSITIONAL_FIXTURES
        for k in (1, 2, 3)
    ],
)
def test_completion_failure_words_match_direct_inclusion(name, k):
    # p2's words are the direct inclusion's against W's bisimulation
    # quotient; every blow-up (k >= 2) has copies that merge
    aut = FIXTURES[name][0]() if k == 1 else blowup(FIXTURES[name][0](), k, 0)
    quo = bisimulation_quotient(aut)
    assert (quo.n_states < aut.n_states) == (k > 1)
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
    assert has_common_word(DetProduct(with_even, complement_det(aut)))
    assert has_common_word(DetProduct(with_odd, complement_det(aut)))
    assert wit.cex1 == incl_nd_in_det(with_even, quo)
    assert wit.cex2 == incl_nd_in_det(with_odd, quo)


def p1_word_inputs():
    for name in sorted(FIXTURES):
        yield FIXTURES[name][0]()
        for k in (2, 3):
            yield blowup(FIXTURES[name][0](), k, 0)
    for k in (1, 2, 3):
        yield seed_65_blowup(k)
    for seed in range(300):
        rng = random.Random(seed)
        letters = ("a", "b", "c")[: rng.randint(1, 3)]
        yield random_automaton(rng, rng.randint(1, 9), letters, dmax=rng.randint(1, 5))


def test_incomparable_witness_words_are_incl_det_words():
    # p1's two words, read off the product of `noninclusion_pairs`, are
    # those of the two inclusions on fresh products
    incomparable = 0
    for i, aut in enumerate(p1_word_inputs()):
        witness = residual_preorder(aut).incomparable_witness
        if witness is None:
            continue
        q, p = witness[:2]
        assert witness == (q, p, incl_det(aut, q, aut, p), incl_det(aut, p, aut, q)), i
        incomparable += 1
    assert incomparable >= 100


@pytest.mark.parametrize("seed", range(4))
def test_kernel_matches_lasso_search(seed):
    rng = random.Random(seed)
    for i in range(60):
        letters = ("a", "b")[: rng.randint(1, 2)]
        a = random_eps_automaton(rng, letters)
        c = random_automaton(rng, rng.randint(1, 4), letters, dmax=rng.randint(0, 4))
        co = complement_det(c)
        included = incl_nd_in_det(a, c) is True
        assert has_common_word(DetProduct(a, co)) == (not included), (seed, i)
        assert included == reference_disjoint(a, co), (seed, i)


def _equality_pairs():
    """Equal pairs (each fixture against its blow-ups, both ways), pairs
    that differ (each fixture against another over its alphabet and
    against itself with one priority raised by one), and 400 seeded random
    DPA pairs over one alphabet."""
    for make, _ in FIXTURES.values():
        base = make()
        for k in (2, 3):
            yield base, blowup(base, k, k)
            yield blowup(base, k, k), base
        for make2, _ in FIXTURES.values():
            if make2().alphabet == base.alphabet:
                yield base, make2()
        for i, t in enumerate(base.transitions):
            bumped = replace(t, priority=t.priority + 1)
            changed = base.transitions[:i] + (bumped,) + base.transitions[i + 1:]
            yield base, replace(base, transitions=changed, priority_range=(base.d_min, base.d_max + 1))
    rng = random.Random(30)
    for _ in range(400):
        letters = ("a", "b", "c")[: rng.randint(1, 3)]
        dmax = rng.randint(1, 4)
        yield (random_automaton(rng, rng.randint(1, 6), letters, dmax),
               random_automaton(rng, rng.randint(1, 6), letters, dmax))


def test_lang_equal_det_matches_two_inclusions():
    # one product and two kernel runs give the answer and word of the two
    # inclusions; every kind of answer occurs
    kinds = set()
    for a, b in _equality_pairs():
        got = lang_equal_det(a, b)
        assert got == reference_lang_equal_det(a, b), (a, b)
        kinds.add(True if got is True else got[0])
    assert kinds == {True, "left-minus-right", "right-minus-left"}


def test_lang_equal_det_raises_value_error():
    # on eps-transitions, nondeterminism, a missing move, or a letter that
    # only one side reads, where the one product would miss words
    det = aut_buchi_a_or_reach_aa()
    nondet = build(2, ("a", "b"), 0, [(0, "a", 0, 0), (0, "a", 1, 1), (0, "b", 0, 0),
                                      (1, "a", 0, 1), (1, "b", 0, 1)])
    eps = build(1, ("a", "b"), 0, [(0, "a", 0, 0), (0, "b", 0, 0), (0, EPS, 1, 0)])
    declared = replace(eps, deterministic=True)  # eps under a deterministic flag
    incomplete = build(1, ("a", "b"), 0, [(0, "a", 0, 0)], deterministic=True)
    wider = aut_accept_all(("a", "b", "c"))
    for bad in (nondet, eps, declared, incomplete, wider):
        for a, b in ((bad, det), (det, bad)):
            with pytest.raises(ValueError):
                lang_equal_det(a, b)
    with pytest.raises(ValueError):  # the product of the two reads no c
        lang_equal_det(aut_accept_all(), wider)


def test_missing_letter_raises_value_error():
    # the left side reads c, which the deterministic side has no row for
    a = build(1, ("a", "c"), 0, [(0, "c", 0, 0)])
    c = aut_accept_all(("a",))
    with pytest.raises(ValueError, match="right-hand side has no transitions on 'c'"):
        incl_nd_in_det(a, c)
    with pytest.raises(ValueError, match="right-hand side has no transitions on 'c'"):
        DetProduct(a, complement_det(c))
    with pytest.raises(ValueError, match="objective has no transitions on 'c'"):
        solve(GameArena(1, (EVE,), ((0, "c", 0),), ("a", "c")), c)


def test_kernel_push_and_pop():
    # pushing one transition gives the product of the extended automaton;
    # a rejected `try_push` takes it off again
    # (`test_try_push_rejects_a_path_to_an_old_accepting_scc`)
    rng = random.Random(7)
    for i in range(40):
        a = random_eps_automaton(rng, ("a", "b"))
        c = random_automaton(rng, rng.randint(1, 4), ("a", "b"))
        product = DetProduct(a, complement_det(c))
        t = Transition(
            rng.randrange(a.n_states), rng.choice(("a", EPS)), rng.randint(0, 4),
            rng.randrange(a.n_states),
        )
        product._push(t)
        extended = replace(a, transitions=a.transitions + (t,))
        fresh = DetProduct(extended, complement_det(c))
        assert [product.out, product.src, product.dst, product.pr1, product.pr2] == [
            fresh.out, fresh.src, fresh.dst, fresh.pr1, fresh.pr2
        ], i
        assert has_common_word(product) == (incl_nd_in_det(extended, c) is not True), i


def test_kernel_rejects_even_eps_only_cycle():
    # 0 and 1 form a cycle of eps:0 edges, which reads no letter; the only
    # letter cycle (at 2) has odd priority, so L(a) is empty
    a = build(3, ("a",), 0, [(0, EPS, 0, 1), (1, EPS, 0, 0), (0, "a", 1, 2), (2, "a", 1, 2)])
    c = aut_reject_all(("a",))
    assert not has_common_word(DetProduct(a, complement_det(c)))
    assert incl_nd_in_det(a, c) is True


def test_kernel_ignores_unreachable_pairs():
    # a accepts a^omega; c accepts it from its initial state 0, and its
    # unreachable state 1 rejects it, so the product pair (0, 1) lies on an
    # accepting cycle that the initial pair (0, 0) does not reach
    a = build(1, ("a",), 0, [(0, "a", 0, 0)])
    c = build(2, ("a",), 0, [(0, "a", 0, 0), (1, "a", 1, 1)], deterministic=True)
    assert not has_common_word(DetProduct(a, complement_det(c)))
    assert incl_nd_in_det(a, c) is True
    assert has_common_word(DetProduct(a, complement_det(c.with_initial(1))))


def spy_kernel(monkeypatch):
    """The roots of each kernel run that `lang` starts."""
    runs = []
    real = lang.even_cycle_sccs

    def spy(g, roots, *args, **kwargs):
        runs.append(list(roots))
        return real(g, roots, *args, **kwargs)

    monkeypatch.setattr(lang, "even_cycle_sccs", spy)
    return runs


def test_try_push_keeps_copies_from_unreached_pairs_without_a_kernel_run(monkeypatch):
    # a's state 1 is unreachable, so its pair (1, 0) is never reached: the
    # copy of 1 -a:0-> 1 closes an accepting cycle there, unseen
    a = build(2, ("a",), 0, [(0, "a", 1, 0), (1, "a", 1, 1)], deterministic=False)
    c = build(1, ("a",), 0, [(0, "a", 1, 0)], deterministic=True)
    product = DetProduct(a, complement_det(c))
    runs = spy_kernel(monkeypatch)
    assert product.try_push(Transition(0, EPS, 1, 0))
    assert runs == [[product.start]] and product.reached == [True, False]
    assert product.try_push(Transition(1, "a", 0, 1))
    assert runs == [[product.start]] and product.reached == [True, False]
    assert not has_common_word(product)


def test_first_try_push_keeps_copies_from_unreached_pairs_without_a_kernel_run(monkeypatch):
    # the a and c of the test above: `reached` is known from construction,
    # so the first candidate, whose copies all leave the unreached (1, 0),
    # needs no kernel run from the start pair
    a = build(2, ("a",), 0, [(0, "a", 1, 0), (1, "a", 1, 1)], deterministic=False)
    c = build(1, ("a",), 0, [(0, "a", 1, 0)], deterministic=True)
    product = DetProduct(a, complement_det(c))
    assert product.reached == [True, False]
    runs = spy_kernel(monkeypatch)
    assert product.try_push(Transition(1, "a", 0, 1))
    assert runs == [] and product.reached == [True, False]
    assert not has_common_word(product)


def test_try_push_rejects_a_path_to_an_old_accepting_scc(monkeypatch):
    # the unreachable pair (0, 1) of `test_kernel_ignores_unreachable_pairs`,
    # now behind a b-transition of c: a b-loop of a leads there from the
    # reached (0, 0), and the old a-loop at (0, 1) accepts b a^omega
    a = build(1, ("a", "b"), 0, [(0, "a", 0, 0)], deterministic=False)
    c = build(
        3,
        ("a", "b"),
        0,
        [(0, "a", 0, 0), (0, "b", 0, 1), (1, "a", 1, 1), (1, "b", 0, 2),
         (2, "a", 0, 2), (2, "b", 0, 2)],
        deterministic=True,
    )
    product = DetProduct(a, complement_det(c))
    assert product.try_push(Transition(0, "a", 2, 0))
    assert product.reached == [True, False, False]

    def state():
        return [list(map(list, product.out)), product.src[:], product.dst[:],
                product.pr1[:], product.pr2[:], product.label[:]]

    before = state()
    runs = spy_kernel(monkeypatch)
    t = Transition(0, "b", 0, 0)
    assert not product.try_push(t)
    assert runs == [[1]]  # from the head of the one copy that leaves (0, 0)
    assert product.reached == [True, False, False]
    assert state() == before
    # the word t adds, read off the held product, which it leaves as it was;
    # a candidate that adds no word raises
    kept = replace(a, transitions=a.transitions + (Transition(0, "a", 2, 0), t))
    assert product.added_word(t) == incl_nd_in_det(kept, c) == upword(["b"], ["a"])
    assert state() == before
    with pytest.raises(AssertionError, match="adds no word"):
        product.added_word(Transition(0, "a", 1, 0))
    assert state() == before
    product._push(t)
    assert has_common_word(product)


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


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize("seed", range(4))
def test_safe_incl_matches_reference(seed):
    # every pair at every level, with the same separating word
    rng = random.Random(300 + seed)
    for i in range(25):
        letters = ("a", "b", "c")[: rng.randint(1, 3)]
        aut = random_automaton(rng, rng.randint(2, 10), letters, dmax=rng.randint(1, 5))
        for x in range(aut.d_max + 2):
            for q in aut.states():
                for p in aut.states():
                    want = reference_safe_incl(aut, x, q, p)
                    assert safe_incl(aut, x, q, p) == want, (seed, i, x, q, p)


def test_safe_incl_errors_match_reference():
    # nondeterministic automata: the same ValueError, or the same answer
    # where the >= x transitions are deterministic
    rng = random.Random(310)
    raised = 0
    for i in range(60):
        aut = random_eps_automaton(rng, ("a", "b")[: rng.randint(1, 2)])
        for x in range(6):
            for q in aut.states():
                for p in aut.states():
                    want = _outcome(reference_safe_incl, aut, x, q, p)
                    assert _outcome(safe_incl, aut, x, q, p) == want, (i, x, q, p)
                    raised += isinstance(want, tuple) and want[0] == "ValueError"
    assert raised


def test_reject_all_included_everywhere():
    lo = aut_reject_all()
    hi = aut_accept_all()
    assert incl_det(lo, 0, hi, 0) is True
    assert incl_det(hi, 0, lo, 0) is not True
