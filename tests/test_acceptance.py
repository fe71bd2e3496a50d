"""Acceptance suite: every criterion runs at its stated tolerance (exact and
boolean throughout) and prints one pass/fail line.  Run with `pytest -s
tests/test_acceptance.py` to see the lines as they complete."""

import itertools
import random
import time

import pytest

from posaut.automaton import build, parse_dpa, up_membership, upword
from posaut.epscomplete import (
    EpsCompleteAutomaton,
    decide_positionality_p2,
    eps_complete_from_signature,
    priority_close,
)
from posaut.games import brute_force_positional, gadget_for_witness, solve, GameArena, EVE
from posaut.lang import incl_nd_in_det, lang_equal_det
from posaut.normalform import normalize
from posaut.progress import check_full_progress_consistency, decide_bipositionality
from posaut.signature import (
    PipelineError,
    build_structured_signature,
    decide_positionality_p1,
)
from posaut.ugraph import (
    all_cycles_even_min,
    all_paths_satisfy,
    build_uaut,
    build_upar,
    check_monotone,
    check_universality_bounded,
)
from posaut.witnesses import CompletionFailure, NotPositional, Positional
from posaut.zoo import (
    aut_buchi_a_or_reach_aa,
    aut_fin_ac_or_fin_bb,
    aut_fin_nested_c_factors,
    aut_first_letter_inf,
    aut_inf_a_or_fin_bb,
    aut_min_letter_even,
    aut_parity_letters,
    aut_reach_aa,
    aut_reach_two_a,
    aut_tail_const_or_two_c,
)

from conftest import (
    FIXTURES,
    blowup,
    brute_force_minimal_labelling,
    random_automaton,
    random_upword,
)

SEED = 20240601
RANDOM_COUNT = 500


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


CRITERION1_FIXTURES = [
    ("inf-a-or-no-a-fin-bb", aut_inf_a_or_fin_bb, True),
    ("inf-a-or-reach-aa", aut_buchi_a_or_reach_aa, True),
    ("reach-aa", aut_reach_aa, False),
    ("fin-ac-or-fin-bb", aut_fin_ac_or_fin_bb, True),
    ("fin-nested-c-factors", aut_fin_nested_c_factors, True),
    ("tail-const-or-two-c", aut_tail_const_or_two_c, True),
    ("reach-two-a", aut_reach_two_a, True),
    ("incomparable-residuals", aut_first_letter_inf, False),
]


@pytest.fixture(scope="session")
def fixture_results():
    out = {}
    for name, mk, expected in CRITERION1_FIXTURES:
        aut = mk()
        t0 = time.time()
        p1 = decide_positionality_p1(aut)
        p2 = decide_positionality_p2(aut)
        out[name] = (aut, p1, p2, time.time() - t0, expected)
    return out


@pytest.fixture(scope="session")
def random_suite():
    rng = random.Random(SEED)
    suite = []
    t0 = time.time()
    for _ in range(RANDOM_COUNT):
        n = rng.randint(1, 5)
        letters = ("a", "b", "c")[: rng.randint(2, 3)]
        aut = random_automaton(rng, n, letters, dmax=3)
        p1 = decide_positionality_p1(aut)
        p2 = decide_positionality_p2(aut)
        suite.append((aut, p1, p2))
    return suite, time.time() - t0


def test_criterion_1_fixture_verdicts(fixture_results):
    failures = []
    for name, (aut, p1, p2, elapsed, expected) in fixture_results.items():
        got1 = isinstance(p1, Positional)
        got2 = isinstance(p2, Positional)
        if got1 != expected or got2 != expected or elapsed >= 10.0:
            failures.append((name, got1, got2, round(elapsed, 2)))
    report(
        1,
        not failures,
        f"eight fixture verdicts, both procedures, each under 10 s"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_2_cross_procedure_agreement(random_suite):
    suite, elapsed = random_suite
    disagreements = sum(
        1 for (_, p1, p2) in suite if isinstance(p1, Positional) != isinstance(p2, Positional)
    )
    ok = disagreements == 0 and elapsed < 300.0
    report(
        2,
        ok,
        f"{len(suite)} random automata, {disagreements} disagreements, "
        f"{elapsed:.1f} s (< 300 s)",
    )


def test_criterion_3_witness_validation(fixture_results, random_suite):
    suite, _ = random_suite
    cases = [(aut, p1, p2) for (aut, p1, p2, _, _) in fixture_results.values()]
    cases += suite
    checked = 0
    failures = 0
    for aut, p1, p2 in cases:
        trimmed = normalize(aut.trim())
        if not isinstance(p1, Positional):
            g = gadget_for_witness(p1.witness, trimmed)
            if g is None:
                failures += 1
                continue
            sv = solve(g.arena, g.objective)
            bf = brute_force_positional(g.arena, g.objective)
            if not all(sv.eve_wins_from(v) for v in g.designated) or bf.uniform:
                failures += 1
            checked += 1
        if not isinstance(p2, Positional):
            g = gadget_for_witness(p2.witness, aut, aut=aut, w_det=aut)
            sv = solve(g.arena, g.objective)
            bf = brute_force_positional(g.arena, g.objective)
            if not all(sv.eve_wins_from(v) for v in g.designated) or bf.uniform:
                failures += 1
            checked += 1
    report(3, failures == 0, f"{checked} gadget validations, {failures} failures")


def test_criterion_4_positional_side_oracle():
    rng = random.Random(SEED + 1)
    fixtures = [
        mk()
        for mk in (
            aut_inf_a_or_fin_bb,
            aut_buchi_a_or_reach_aa,
            aut_reach_two_a,
            aut_parity_letters,
        )
        if mk().n_states <= 3
    ]
    checked = 0
    failures = 0
    for objective in fixtures:
        letters = objective.alphabet
        for _ in range(200):
            n = rng.randint(1, 4)
            edges = []
            for v in range(n):
                for _ in range(rng.randint(1, 3)):
                    edges.append((v, rng.choice(letters), rng.randrange(n)))
            arena = GameArena(n, tuple(EVE for _ in range(n)), tuple(edges), letters)
            res = solve(arena, objective)
            region = [v for v in range(n) if res.eve_wins_from(v)]
            if not region:
                continue
            checked += 1
            if not brute_force_positional(arena, objective).uniform:
                failures += 1
    report(
        4,
        failures == 0,
        f"{checked} nonempty-region arenas across positional fixtures, "
        f"{failures} without a uniform strategy",
    )


def test_criterion_5_normal_form():
    t0 = time.time()
    problems = []
    rng = random.Random(SEED + 2)
    for name, (mk, _) in FIXTURES.items():
        aut = mk()
        n1 = normalize(aut)
        if normalize(n1).transitions != n1.transitions:
            problems.append(f"{name}: not idempotent")
        for _ in range(100):
            u, v = random_upword(rng, aut.alphabet)
            if up_membership(aut, upword(u, v)) != up_membership(n1, upword(u, v)):
                problems.append(f"{name}: language changed on {(u, v)}")
                break
    small = [mk() for (mk, _) in FIXTURES.values() if mk().n_states <= 3]
    small += [random_automaton(rng, rng.randint(1, 3), ("a", "b")) for _ in range(40)]
    small.append(
        build(2, ("a", "b"), 0,
              [(0, "a", 3, 1), (1, "a", 3, 0), (0, "b", 3, 0), (1, "b", 3, 1)])
    )
    for aut in small:
        norm = normalize(aut)
        best = brute_force_minimal_labelling(aut, 3)
        for i, pr in best.items():
            if norm.transitions[i].priority != pr:
                problems.append(f"minimality broken at {aut.transitions}")
                break
    elapsed = time.time() - t0
    ok = not problems and elapsed < 60.0
    report(
        5,
        ok,
        f"idempotence, 100-word language preservation, pointwise minimality on "
        f"{len(small)} small automata in {elapsed:.1f} s"
        + (f"; problems: {problems[:3]}" if problems else ""),
    )


def test_criterion_6_completion_fidelity():
    aut = aut_inf_a_or_fin_bb()
    sig = decide_positionality_p1(aut).certificate
    eps_aut = eps_complete_from_signature(sig)
    closed = priority_close(eps_aut.automaton, eps_aut.d)
    eps = {(t.src, t.priority, t.dst) for t in closed.transitions if t.is_eps}
    expected_tree = {
        (1, 0, 0), (2, 0, 0),            # q2, q3 -eps:0-> q1
        (1, 1, 0), (2, 1, 0),            # q2, q3 -eps:1-> q1
        (1, 1, 2), (2, 1, 1),            # q2 -eps:1-> q3 and back
        (2, 2, 1), (2, 3, 1),            # q3 -eps:2,3-> q2
        (1, 2, 0), (1, 3, 0),            # q2 -eps:2,3-> q1
        (0, 1, 0), (1, 1, 1), (2, 1, 2),  # eps:1 self-loops
        (0, 3, 0), (1, 3, 1), (2, 3, 2),  # eps:3 self-loops
    }
    contained = expected_tree <= eps
    lang_ok = incl_nd_in_det(closed, sig.automaton) is True
    # the completion is a superset of the core automaton, so the reverse
    # inclusion is witnessed by the subautomaton relation; check on samples
    rng = random.Random(SEED + 3)
    reverse_ok = all(
        up_membership(closed, upword(u, v)) == up_membership(sig.automaton, upword(u, v))
        for u, v in (random_upword(rng, aut.alphabet) for _ in range(100))
    )
    ok = contained and lang_ok and reverse_ok
    report(
        6,
        ok,
        f"expected eps-tree contained: {contained}, language equal: "
        f"{lang_ok and reverse_ok}",
    )


def test_criterion_7_bipositionality():
    t0 = time.time()
    r_occ = decide_bipositionality(aut_min_letter_even(4))
    t_occ = time.time() - t0
    t0 = time.time()
    r_reach = decide_bipositionality(aut_reach_aa())
    t_reach = time.time() - t0
    t0 = time.time()
    r_par = decide_bipositionality(aut_parity_letters(2))
    t_par = time.time() - t0
    ok = (
        r_occ.bipositional
        and not r_reach.bipositional
        and r_par.bipositional
        and max(t_occ, t_reach, t_par) < 10.0
    )
    report(
        7,
        ok,
        f"min-letter-even bipositional ({t_occ:.2f} s), reach-aa not "
        f"({t_reach:.2f} s), pure parity bipositional ({t_par:.2f} s)",
    )


def test_criterion_8_universal_graphs():
    t0 = time.time()
    upar = build_upar(2, 3, max_letter=3)
    mono = check_monotone(upar) is True
    cyc = all_cycles_even_min(upar) is True
    rep = check_universality_bounded(upar, aut_parity_letters(3), 2)
    no_cex = not rep["failures"]
    aut = aut_inf_a_or_fin_bb()
    sig = decide_positionality_p1(aut).certificate
    eps_aut = eps_complete_from_signature(sig)
    closed = EpsCompleteAutomaton(priority_close(eps_aut.automaton, eps_aut.d), eps_aut.d)
    uaut, vmap = build_uaut(closed, 2)
    mono2 = check_monotone(uaut) is True
    sat = all_paths_satisfy(uaut, sig.automaton, lambda v: vmap[uaut.names[v]][0]) is True
    elapsed = time.time() - t0
    ok = mono and cyc and no_cex and mono2 and sat and elapsed < 120.0
    report(
        8,
        ok,
        f"parity graph: monotone {mono}, even cycles {cyc}, k=2 universality over "
        f"{rep['checked']} graphs with {len(rep['failures'])} failures; automaton "
        f"graph: monotone {mono2}, paths satisfy {sat}; {elapsed:.1f} s (< 120 s)",
    )


def _brute_force_full_pc(sig, max_len=8):
    aut = sig.automaton
    memb = {}

    def rejected_from(q, w):
        key = (q, w)
        if key not in memb:
            memb[key] = not up_membership(aut.with_initial(q), upword((), w))
        return memb[key]

    for length in range(1, max_len + 1):
        for w in itertools.product(aut.alphabet, repeat=length):
            runs = {}
            for q in aut.states():
                runs[q] = aut.run_min_priority(q, w)
            for x in range(0, sig.d + 1, 2):
                rank = sig.preorders.levels[x]
                for q in aut.states():
                    dst, m = runs[q]
                    if m is None or m < x:
                        continue
                    if rank[q] < rank[dst] and rejected_from(q, w):
                        return ("violation", x, q, dst, w)
    return True


def test_criterion_9_full_progress_vs_brute_force():
    rng = random.Random(SEED + 4)
    collected = 0
    mismatches = 0
    true_count = 0
    while collected < 100:
        aut = random_automaton(rng, rng.randint(1, 4), ("a", "b"), dmax=3)
        sig = build_structured_signature(aut)
        if sig is None:
            continue
        collected += 1
        fast = check_full_progress_consistency(sig) is True
        slow = _brute_force_full_pc(sig) is True
        if fast != slow:
            mismatches += 1
        if fast:
            true_count += 1
    report(
        9,
        mismatches == 0,
        f"100 structured fixtures, {mismatches} checker/brute-force mismatches "
        f"({true_count} fully progress consistent)",
    )


def test_criterion_10_union_spot_check():
    # a union of a prefix-independent positional objective with a positional
    # one, recognised by the hand-built deterministic automaton
    aut = aut_buchi_a_or_reach_aa()
    p1 = decide_positionality_p1(aut)
    p2 = decide_positionality_p2(aut)
    ok = isinstance(p1, Positional) and isinstance(p2, Positional)
    report(10, ok, "InfOften(a) union Reach(aa) verdicted positional by both procedures")


def _metamorphic_variants(aut, seed):
    """Language-preserving changes of the deterministic `aut`, by name."""
    rng = random.Random(seed)
    trans = [(t.src, t.letter, t.priority, t.dst) for t in aut.transitions]
    yield "blow-up k=2", blowup(aut, 2, seed)
    perm = list(aut.states())
    rng.shuffle(perm)
    renumbered = [(perm[s], a, pr, perm[d]) for (s, a, pr, d) in trans]
    rng.shuffle(renumbered)
    yield "renumbering", build(
        aut.n_states, aut.alphabet, perm[aut.initial], renumbered, deterministic=True
    )
    n = aut.n_states + rng.randint(1, 3)
    padding = [
        (q, a, rng.randint(aut.d_min, aut.d_max), rng.randrange(n))
        for q in range(aut.n_states, n)
        for a in aut.alphabet
    ]
    yield "unreachable padding", build(
        n, aut.alphabet, aut.initial, trans + padding, deterministic=True
    )
    # new names in reverse lexicographic order of the old ones
    names = {a: f"l{i}" for i, a in enumerate(reversed(aut.alphabet))}
    yield "letter renaming", build(
        aut.n_states,
        tuple(names[a] for a in aut.alphabet),
        aut.initial,
        [(s, names[a], pr, d) for (s, a, pr, d) in trans],
        deterministic=True,
    )
    yield "priorities +2", build(
        aut.n_states,
        aut.alphabet,
        aut.initial,
        [(s, a, pr + 2, d) for (s, a, pr, d) in trans],
        deterministic=True,
    )


def _metamorphic_check(name, aut, seed):
    verdict = isinstance(decide_positionality_p1(aut), Positional)
    changed = [
        change
        for change, variant in _metamorphic_variants(aut, seed)
        if isinstance(decide_positionality_p1(variant), Positional) != verdict
    ]
    agree = isinstance(decide_positionality_p2(aut), Positional) == verdict
    report(
        11,
        not changed and agree,
        f"{name}: p1 verdict {verdict} kept under five language-preserving changes"
        f" (changed by: {changed or 'none'}), p2 agrees: {agree}",
    )


def _metamorphic_dpa(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    letters = ("a", "b", "c")[: rng.randint(2, 3)]
    return random_automaton(rng, n, letters, dmax=rng.randint(1, 5)).trim()


# Seeds on which p1 raises (ROADMAP item 1); each is a strict xfail of its
# own, to be removed with the fix, never dropped or re-seeded.
METAMORPHIC_P1_RAISES: tuple[int, ...] = ()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_criterion_11_metamorphic_fixtures(name):
    _metamorphic_check(name, FIXTURES[name][0](), 11)


@pytest.mark.parametrize(
    "seed",
    [
        pytest.param(
            s,
            marks=pytest.mark.xfail(
                strict=True, raises=PipelineError, reason="p1 crash, ROADMAP item 1"
            ),
        )
        if s in METAMORPHIC_P1_RAISES
        else s
        for s in range(100)
    ],
)
def test_criterion_11_metamorphic_random(seed):
    _metamorphic_check(f"random DPA seed {seed}", _metamorphic_dpa(seed), seed)


# Sweep seed 58 of ROADMAP item 1, trimmed: not positional, refuted by p2,
# and p1 gets stuck in polish without a two-loop witness.
SEED_58_DPA = """dpa
alphabet: a b
states: 7
initial: 0
priorities: 0 2
deterministic: true
trans: 0 a 2 3
trans: 0 b 0 3
trans: 1 a 1 5
trans: 1 b 1 4
trans: 2 a 1 6
trans: 2 b 2 5
trans: 3 a 1 1
trans: 3 b 0 6
trans: 4 a 0 6
trans: 4 b 0 6
trans: 5 a 0 1
trans: 5 b 2 2
trans: 6 a 1 0
trans: 6 b 0 4
"""


def test_seed_58_p2_witness_passes_its_gadget():
    aut = parse_dpa(SEED_58_DPA)
    r = decide_positionality_p2(aut)
    assert isinstance(r, NotPositional) and isinstance(r.witness, CompletionFailure)
    g = gadget_for_witness(r.witness, aut, aut=aut, w_det=aut)
    sv = solve(g.arena, g.objective)
    assert all(sv.eve_wins_from(v) for v in g.designated)
    assert not brute_force_positional(g.arena, g.objective).uniform


@pytest.mark.xfail(
    strict=True,
    raises=PipelineError,
    reason="ROADMAP item 1: find_two_loops misses the loops this DPA needs",
)
def test_seed_58_p1_refutes():
    assert not decide_positionality_p1(parse_dpa(SEED_58_DPA)).positional
