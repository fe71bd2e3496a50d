import itertools
import random

import pytest

from posaut.automaton import build, up_membership, upword
from posaut.lang import ResidualPreorder, complement_det, residual_preorder
from posaut.progress import (
    Bipositional,
    CharacterisationMismatch,
    check_full_progress_consistency,
    check_progress_consistency,
    decide_bipositionality,
)
from posaut.signature import NestedPreorders, SignatureAutomaton, decide_positionality_p1
from posaut.witnesses import Positional, ProgressWitness
from conftest import (
    FIXTURES,
    POSITIONAL_FIXTURES,
    blowup,
    finite_path_language,
    random_automaton,
    random_eps_automaton,
    reference_full_progress_consistency,
    reference_progress_consistency,
)
from posaut.zoo import (
    aut_accept_all,
    aut_fin_ac_or_fin_bb,
    aut_fin_nested_c_factors,
    aut_inf_a_or_fin_bb,
    aut_min_letter_even,
    aut_parity_letters,
    aut_reach_aa,
    aut_reach_two_a,
)



# -- plain progress consistency -------------------------------------------------


def test_progress_reach_aa_witness():
    wit = check_progress_consistency(aut_reach_aa())
    assert isinstance(wit, ProgressWitness)
    assert wit.kind == "plain"
    assert wit.context_u == () and wit.w == ("b", "a")


def test_progress_two_a_consistent():
    assert check_progress_consistency(aut_reach_two_a()) is True


def test_progress_one_state():
    assert check_progress_consistency(aut_accept_all()) is True


def test_plain_witness_verifies():
    aut = aut_reach_aa()
    wit = check_progress_consistency(aut)
    rp = residual_preorder(aut)
    q = aut.run_state(aut.initial, wit.context_u)
    p = aut.run_state(q, wit.w)
    assert rp.rank[q] < rp.rank[p]
    assert not up_membership(aut, upword(wit.context_u, wit.w))


# -- finite path languages -------------------------------------------------------


def test_path_language_at_least_zero_routes():
    aut = aut_inf_a_or_fin_bb()
    dfa = finite_path_language(aut, 2, 0, ("at-least", 0))
    assert dfa.accepts(("a",))
    assert not dfa.accepts(("c",))


def test_path_language_three_priorities():
    aut = aut_inf_a_or_fin_bb()
    # the fresh state routes to just-saw-b on b safely; bb dips to priority 1
    dfa = finite_path_language(aut, 2, 1, ("at-least", 2))
    assert dfa.accepts(("b",))
    assert not dfa.accepts(("b", "b"))
    exact = finite_path_language(aut, 1, 2, ("exactly", 1))
    assert exact.accepts(("b",))


def test_path_language_matches_enumeration():
    aut = aut_fin_ac_or_fin_bb()
    for q in aut.states():
        for p in aut.states():
            dfa = finite_path_language(aut, q, p, ("exactly", 2))
            for n in range(0, 4):
                for w in itertools.product(aut.alphabet, repeat=n):
                    dst, m = aut.run_min_priority(q, w)
                    expected = dst == p and m == 2
                    assert dfa.accepts(w) == expected


# -- full progress consistency ----------------------------------------------------


def test_full_progress_on_certificate():
    res = decide_positionality_p1(aut_inf_a_or_fin_bb())
    assert isinstance(res, Positional)
    assert check_full_progress_consistency(res.certificate) is True


def test_full_progress_trivial_levels_reduce_to_plain():
    aut = aut_reach_aa()
    rp = residual_preorder(aut)
    levels = (dict(rp.rank), dict(rp.rank))
    sig = SignatureAutomaton(aut, NestedPreorders(levels, 1))
    wit = check_full_progress_consistency(sig)
    assert isinstance(wit, ProgressWitness)
    assert wit.level_x == 0 and wit.w == ("b", "a")


def test_full_progress_hand_built_violation():
    # q <_2 p, q -a:2-> p, p -a:1-> p
    aut = build(2, ("a",), 0, [(0, "a", 2, 1), (1, "a", 1, 1)])
    levels = ({0: 0, 1: 0}, {0: 0, 1: 0}, {0: 0, 1: 1})
    sig = SignatureAutomaton(aut, NestedPreorders(levels, 2))
    wit = check_full_progress_consistency(sig)
    assert wit.kind == "full" and wit.level_x == 2
    assert wit.q == 0 and wit.p == 1 and wit.w == ("a",)
    # brute-force cross-check on short words
    found = False
    for n in range(1, 5):
        for w in itertools.product(aut.alphabet, repeat=n):
            dst, m = aut.run_min_priority(0, w)
            if dst == 1 and m >= 2 and not up_membership(
                aut.with_initial(0), upword((), w)
            ):
                found = True
    assert found


def test_full_witness_verifies():
    aut = build(2, ("a",), 0, [(0, "a", 2, 1), (1, "a", 1, 1)])
    levels = ({0: 0, 1: 0}, {0: 0, 1: 0}, {0: 0, 1: 1})
    sig = SignatureAutomaton(aut, NestedPreorders(levels, 2))
    wit = check_full_progress_consistency(sig)
    dst, m = aut.run_min_priority(wit.q, wit.w)
    assert dst == wit.p and m >= wit.level_x
    assert not up_membership(aut.with_initial(wit.q), upword((), wit.w))


# -- the all-pairs searches against the pair-by-pair references ---------------------


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _random_dpa(rng):
    letters = ("a", "b", "c")[: rng.randint(1, 3)]
    return random_automaton(rng, rng.randint(2, 10), letters, dmax=rng.randint(1, 5))


@pytest.mark.parametrize("seed", range(4))
def test_progress_matches_reference(seed):
    # on the residual preorder, and on arbitrary ranks, which fail often
    rng = random.Random(400 + seed)
    for i in range(40):
        aut = _random_dpa(rng).trim()
        rp = residual_preorder(aut)
        want = _outcome(reference_progress_consistency, aut, rp)
        assert _outcome(check_progress_consistency, aut, rp) == want, (seed, i)
        ranks = ResidualPreorder({q: rng.randint(0, 3) for q in aut.states()}, True)
        want = reference_progress_consistency(aut, ranks)
        assert check_progress_consistency(aut, ranks) == want, (seed, i)


@pytest.mark.parametrize("seed", range(4))
def test_full_progress_matches_reference_on_random_levels(seed):
    rng = random.Random(410 + seed)
    for i in range(40):
        aut = _random_dpa(rng)
        d = aut.d_max
        levels = tuple({q: rng.randint(0, 2) for q in aut.states()} for _ in range(d + 1))
        sig = SignatureAutomaton(aut, NestedPreorders(levels, d))
        want = reference_full_progress_consistency(sig)
        assert check_full_progress_consistency(sig) == want, (seed, i)


@pytest.mark.parametrize("name", POSITIONAL_FIXTURES)
def test_full_progress_matches_reference_on_certificates(name):
    base = FIXTURES[name][0]()
    for aut in [base] + [blowup(base, k, seed) for k in (2, 3) for seed in range(2)]:
        sig = decide_positionality_p1(aut).certificate
        want = reference_full_progress_consistency(sig)
        assert want is True
        assert check_full_progress_consistency(sig) == want, name


def test_progress_errors_match_reference():
    # nondeterministic automata raise the route DFA's ValueError, or the
    # tracker's when the nondeterminism lies below the level
    rng = random.Random(420)
    raised = 0
    for i in range(150):
        aut = random_eps_automaton(rng, ("a", "b")[: rng.randint(1, 2)])
        ranks = ResidualPreorder({q: rng.randint(0, 2) for q in aut.states()}, True)
        want = _outcome(reference_progress_consistency, aut, ranks)
        assert _outcome(check_progress_consistency, aut, ranks) == want, i
        levels = tuple({q: rng.randint(0, 2) for q in aut.states()} for _ in range(5))
        sig = SignatureAutomaton(aut, NestedPreorders(levels, 4))
        want_full = _outcome(reference_full_progress_consistency, sig)
        assert _outcome(check_full_progress_consistency, sig) == want_full, i
        raised += isinstance(want, tuple) + isinstance(want_full, tuple)
    assert raised
    # deterministic over >= 2 only: the tracker of p raises
    aut = build(2, ("a",), 0, [(0, "a", 2, 1), (1, "a", 1, 1), (1, "a", 1, 0)])
    levels = ({0: 0, 1: 0}, {0: 0, 1: 0}, {0: 0, 1: 1})
    sig = SignatureAutomaton(aut, NestedPreorders(levels, 2))
    for check in (reference_full_progress_consistency, check_full_progress_consistency):
        with pytest.raises(ValueError, match="the run of state 1 forks at state 1 on 'a'"):
            check(sig)
    # p's run reaches the fork at state 2 only through an eps-transition,
    # which the run never takes: no error
    aut = build(
        3, ("a",), 0,
        [(0, "a", 2, 1), (1, "a", 1, 1), (1, "eps", 0, 2), (2, "a", 0, 0), (2, "a", 1, 1)],
    )
    levels = ({0: 0, 1: 0, 2: 0}, {0: 0, 1: 0, 2: 0}, {0: 0, 1: 1, 2: 0})
    sig = SignatureAutomaton(aut, NestedPreorders(levels, 2))
    wit = check_full_progress_consistency(sig)
    assert wit == reference_full_progress_consistency(sig)
    assert (wit.q, wit.p, wit.w) == (0, 1, ("a",))


# -- bipositionality -----------------------------------------------------------------


def test_bipositional_occ_parity():
    assert decide_bipositionality(aut_min_letter_even(4)).bipositional


def test_bipositional_reach_aa():
    r = decide_bipositionality(aut_reach_aa())
    assert not r.bipositional
    assert r.side == "W"


def test_bipositional_pure_parity():
    assert decide_bipositionality(aut_parity_letters(2)).bipositional


def test_bipositional_two_a():
    assert decide_bipositionality(aut_reach_two_a()).bipositional


def test_bipositional_not_concave_fails_on_complement():
    # positional but the complement is not
    r = decide_bipositionality(aut_fin_nested_c_factors())
    assert not r.bipositional
    assert r.side == "complement"


def test_bipositional_implies_bi_progress():
    for mk in (aut_min_letter_even, aut_parity_letters, aut_reach_two_a):
        aut = mk() if mk is not aut_min_letter_even else mk(4)
        r = decide_bipositionality(aut)
        assert r.bipositional
        comp = complement_det(aut.trim())
        assert check_progress_consistency(aut.trim()) is True
        assert check_progress_consistency(comp) is True
