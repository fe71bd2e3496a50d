import random
from functools import partial

import pytest

from posaut import signature
from posaut.automaton import (
    access_word,
    bisimulation_quotient,
    build,
    congruence_from_classes,
    parse_dpa,
    up_membership,
    upword,
)
from posaut.lang import lang_equal_det, residual_congruence, residual_preorder, safe_incl
from posaut.normalform import normalize
from posaut.progress import check_progress_consistency
from posaut.signature import (
    NestedPreorders,
    PipelineError,
    SignatureAutomaton,
    _hub_loops,
    _monoid_loops,
    _preorders_up_to,
    check_total_safe_order,
    decide_positionality_p1,
    emit_sig,
    find_two_loops,
    parse_sig,
    polish,
    redeterminise,
    safe_centralise,
    saturate,
    validate_signature,
)
from posaut.witnesses import (
    NotPositional,
    PolishLanguageChange,
    Positional,
    ProgressFailure,
    SafeOrderFailure,
)
from posaut.zoo import (
    aut_buchi_a_or_reach_aa,
    aut_fin_ac_or_fin_bb,
    aut_first_letter_inf,
    aut_inf_a_or_fin_bb,
    aut_reach_aa,
)

from conftest import (
    FIXTURES,
    POSITIONAL_FIXTURES,
    SEED_58_DPA,
    blowup,
    random_automaton,
    random_upword,
    reference_access_word,
    reference_aux_graph,
    reference_class_unpolished,
    reference_hub_loops,
    reference_monoid_loops,
    reference_polish,
)


def classes_of(aut, level_ranks):
    groups = {}
    for q, r in level_ranks.items():
        groups.setdefault(r, []).append(q)
    return congruence_from_classes(aut.n_states, groups.values())


# -- the decision -------------------------------------------------------------


def test_three_priorities_certificate_preorders():
    res = decide_positionality_p1(aut_inf_a_or_fin_bb())
    assert isinstance(res, Positional)
    sig = res.certificate
    lvl0 = sig.preorders.levels[0]
    lvl2 = sig.preorders.levels[2]
    # level 0: the inf-a state strictly below the equivalent b/c pair
    assert lvl0[0] < lvl0[1] == lvl0[2]
    # level 2: strict chain q1 < q2 < q3
    assert lvl2[0] < lvl2[1] < lvl2[2]
    assert sig.validated


def test_certificate_preorders_are_semantic():
    # the certificate's levels are the nested preorders recomputed from its
    # automaton: residual inclusion, safe components, safe-language inclusion
    for name in POSITIONAL_FIXTURES:
        sig = decide_positionality_p1(FIXTURES[name][0]()).certificate
        pre = _preorders_up_to(sig.automaton, sig.automaton.d_max)
        assert pre.levels == sig.preorders.levels, name


def test_reach_aa_progress_failure():
    res = decide_positionality_p1(aut_reach_aa())
    assert isinstance(res, NotPositional)
    assert isinstance(res.witness, ProgressFailure)
    assert res.witness.witness.w == ("b", "a")


def test_incomparable_residual_witness():
    res = decide_positionality_p1(aut_first_letter_inf())
    assert isinstance(res, NotPositional)
    from posaut.witnesses import IncomparableResiduals

    assert isinstance(res.witness, IncomparableResiduals)


# -- saturation ----------------------------------------------------------------


def test_saturate_no_xm1_transitions():
    aut = build(1, ("a",), 0, [(0, "a", 2, 0)])
    cong = congruence_from_classes(1, [[0]])
    assert saturate(aut, 2, cong).transitions == aut.transitions


def test_saturate_singleton_classes():
    aut = normalize(aut_buchi_a_or_reach_aa())
    cong = congruence_from_classes(3, [[0], [1], [2]])
    assert saturate(aut, 2, cong).transitions == aut.transitions


def test_saturate_acbb_fans_out():
    aut = aut_fin_ac_or_fin_bb()
    cong = congruence_from_classes(4, [[0, 1, 2, 3]])
    sat = saturate(aut, 2, cong)
    fan = {t.dst for t in sat.succ(0, "c")}
    assert fan == {0, 1, 2, 3}
    fan_b = {t.dst for t in sat.succ(2, "b")}
    assert fan_b == {0, 1, 2, 3}
    # language preserved
    from posaut.lang import incl_nd_in_det

    assert incl_nd_in_det(sat, aut) is True


# -- safe centralisation ---------------------------------------------------------


def test_centralise_acbb_unchanged():
    aut = aut_fin_ac_or_fin_bb()
    cong = congruence_from_classes(4, [[0, 1, 2, 3]])
    sat = saturate(aut, 2, cong)
    cen, _ = safe_centralise(sat, 2, cong)
    assert cen.n_states == sat.n_states


def duplicated_component_automaton():
    """fin_ac_or_fin_bb with a redundant copy of the ac-tracking component."""
    q1, q2, p1, p2, r1, r2 = range(6)
    return build(
        6,
        ("a", "b", "c"),
        q2,
        [
            (q1, "a", 2, q1), (q1, "b", 2, q2), (q1, "c", 1, p2),
            (q2, "a", 2, q1), (q2, "b", 2, q2), (q2, "c", 2, q2),
            (p1, "a", 2, p2), (p1, "b", 1, r2), (p1, "c", 2, p2),
            (p2, "a", 2, p2), (p2, "b", 2, p1), (p2, "c", 2, p2),
            (r1, "a", 2, r1), (r1, "b", 2, r2), (r1, "c", 1, p2),
            (r2, "a", 2, r1), (r2, "b", 2, r2), (r2, "c", 2, r2),
        ],
    )


def test_centralise_deletes_duplicate(rng):
    aut = duplicated_component_automaton()
    cong = congruence_from_classes(6, [list(range(6))])
    sat = saturate(aut, 2, cong)
    cen, _ = safe_centralise(sat, 2, cong)
    assert cen.n_states < aut.n_states
    from posaut.lang import incl_nd_in_det

    assert incl_nd_in_det(cen, aut) is True
    for _ in range(100):
        u, v = random_upword(rng, aut.alphabet)
        assert up_membership(aut, upword(u, v)) == up_membership(
            aut_fin_ac_or_fin_bb(), upword(u, v)
        )


# -- total safe order --------------------------------------------------------------


def test_total_safe_order_singletons():
    aut = normalize(aut_buchi_a_or_reach_aa())
    cong = congruence_from_classes(3, [[0], [1], [2]])
    assert isinstance(check_total_safe_order(aut, 2, cong), dict)


def test_total_safe_order_three_priorities():
    aut = normalize(aut_inf_a_or_fin_bb())
    cong = congruence_from_classes(3, [[0], [1, 2]])
    assert isinstance(check_total_safe_order(aut, 2, cong), dict)


def safe_incomparable_cobuchi():
    """One safe component whose two states have incomparable safe languages."""
    return build(
        2,
        ("a", "b"),
        0,
        [(0, "a", 2, 1), (0, "b", 1, 0), (1, "b", 2, 0), (1, "a", 1, 1)],
    )


def test_total_safe_order_failure():
    aut = safe_incomparable_cobuchi()
    cong = congruence_from_classes(2, [[0, 1]])
    res = check_total_safe_order(aut, 2, cong)
    assert isinstance(res, tuple)
    q, p, sep_qp, sep_pq = res
    # the separating words certify both non-inclusions
    _, m = aut.run_min_priority(q, sep_qp[:-1])
    assert safe_incl(aut, 2, q, p) is not True
    assert safe_incl(aut, 2, p, q) is not True


def test_pipeline_safe_order_witness():
    res = decide_positionality_p1(safe_incomparable_cobuchi())
    assert isinstance(res, NotPositional)
    assert isinstance(res.witness, SafeOrderFailure)
    assert res.witness.loops is not None


# -- re-determinisation --------------------------------------------------------------


def test_redeterminise_acbb_round_robin():
    aut = aut_fin_ac_or_fin_bb()
    cong = congruence_from_classes(4, [[0, 1, 2, 3]])
    sat = saturate(aut, 2, cong)
    cen, cong_c = safe_centralise(sat, 2, cong)
    rank_x = check_total_safe_order(cen, 2, cong_c)
    det = redeterminise(cen, 2, cong_c, rank_x)
    assert det.deterministic
    # the priority-1 jumps target the maximal state of the other component
    assert det.dsucc(2, "b").dst == 1  # p1 -b:1-> q2
    assert det.dsucc(0, "c").dst == 3  # q1 -c:1-> p2
    assert lang_equal_det(det, aut) is True


def test_redeterminise_preserves_language_on_duplicates(rng):
    aut = duplicated_component_automaton()
    cong = congruence_from_classes(6, [list(range(6))])
    sat = saturate(aut, 2, cong)
    cen, cong_c = safe_centralise(sat, 2, cong)
    rank_x = check_total_safe_order(cen, 2, cong_c)
    det = redeterminise(cen, 2, cong_c, rank_x)
    assert lang_equal_det(det, aut_fin_ac_or_fin_bb()) is True


# -- polishing ------------------------------------------------------------------------


def test_polish_singleton_classes_structured():
    aut = normalize(aut_buchi_a_or_reach_aa())
    cong = residual_congruence(aut)
    status, out = polish(aut, 0, cong)
    assert status == "structured"
    assert out.transitions == aut.transitions


def test_polish_inf_a_and_inf_b_not_positional():
    # two residual-equivalent states disagreeing on a 0-letter; the class is
    # neutrally connected, so polishing cannot shrink it and the language is
    # not positional
    aut = build(
        2,
        ("a", "b"),
        0,
        [(0, "b", 0, 1), (0, "a", 1, 0), (1, "a", 0, 0), (1, "b", 1, 1)],
    )
    res = decide_positionality_p1(aut)
    assert isinstance(res, NotPositional)
    assert isinstance(res.witness, PolishLanguageChange)
    assert res.witness.loops is not None
    from posaut.epscomplete import decide_positionality_p2

    assert isinstance(decide_positionality_p2(aut), NotPositional)


def test_polish_shrinks_transient_class_member():
    # two language-equivalent states, one transient; polishing keeps the
    # recurrent part and preserves the language
    aut = build(
        2,
        ("a", "b"),
        0,
        [(0, "a", 1, 1), (0, "b", 1, 1), (1, "a", 0, 1), (1, "b", 1, 1)],
    )
    norm = normalize(aut.trim())
    cong = residual_congruence(norm)
    if cong.n_classes == 1:
        status, out = polish(norm, 0, cong)
        assert status == "shrunk"
        assert out.n_states == 1
        assert lang_equal_det(out, aut) is True


def _polish_inputs():
    """The zoo fixtures, their k = 2-3 blow-ups and 1,000 random DPAs with
    n <= 9."""
    for name in FIXTURES:
        base = FIXTURES[name][0]()
        yield base
        for k in (2, 3):
            yield blowup(base, k, k)
    rng = random.Random(24)
    for _ in range(1000):
        letters = ("a", "b", "c")[: rng.choice((2, 3))]
        yield random_automaton(rng, rng.randint(1, 9), letters, dmax=rng.randint(1, 4))


def test_polish_searches_match_reference(monkeypatch):
    # every class polish meets during p1: its unpolished verdict from one SCC
    # partition, and its auxiliary graph from one search per member, against
    # per-state reach sets and one flagged search per ordered pair
    from posaut import signature
    from posaut.automaton import safe_components

    calls = []
    original = signature.polish

    def spy(aut, x, classes):
        calls.append((aut, x, classes))
        return original(aut, x, classes)

    monkeypatch.setattr(signature, "polish", spy)
    compared = 0
    for aut in _polish_inputs():
        calls.clear()
        decide_positionality_p1(aut)
        for det, x, classes in calls:
            sccs = safe_components(det, x + 1)
            for c in range(classes.n_classes):
                members = classes.members(c)
                if len(members) < 2:
                    continue
                assert signature._class_unpolished(
                    det, x, members, sccs
                ) == reference_class_unpolished(det, x, members)
                assert signature._aux_graph(det, x, members) == reference_aux_graph(
                    det, x, members
                )
                compared += 1
    assert compared > 400


def test_polish_rejects_forking_moves():
    # state 0 has two (>= 0)-moves on a
    aut = build(
        2,
        ("a",),
        0,
        [(0, "a", 0, 0), (0, "a", 0, 1), (1, "a", 1, 0)],
        deterministic=False,
    )
    with pytest.raises(PipelineError, match="polish expects a deterministic automaton"):
        polish(aut, 0, congruence_from_classes(2, [[0, 1]]))


def _chained_polish_inputs():
    """The zoo fixtures with their k = 2-4 blow-ups (seeds 0-2), then 200
    seeded random DPAs with n <= 9, every third blown up."""
    for make, _ in FIXTURES.values():
        base = make()
        yield base
        for k in (2, 3, 4):
            for seed in range(3):
                yield blowup(base, k, seed)
    rng = random.Random(33)
    for i in range(200):
        letters = ("a", "b", "c")[: rng.randint(1, 3)]
        aut = random_automaton(rng, rng.randint(1, 9), letters, dmax=rng.randint(1, 4))
        yield blowup(aut, 2, i) if i % 3 == 2 else aut


def test_chained_polish_matches_one_class_reference(monkeypatch):
    # polishing a whole level before a restart against one class per
    # restart: the same verdicts and negative witnesses, and certificates of
    # the input's language that validate and are no larger, after fewer
    # restarts
    levels = _spy_passes(monkeypatch)
    kinds, restarts = set(), [0, 0]
    for aut in _chained_polish_inputs():
        start = len(levels)
        out = decide_positionality_p1(aut)
        restarts[0] += len(levels) - start
        with monkeypatch.context() as m:
            m.setattr(signature, "polish", reference_polish)
            start = len(levels)
            ref = decide_positionality_p1(aut)
            restarts[1] += len(levels) - start
        assert type(out) is type(ref)
        kinds.add(type(out))
        if isinstance(out, NotPositional):
            assert out.witness == ref.witness
            continue
        cert = out.certificate
        assert validate_signature(cert) is True
        assert lang_equal_det(cert.automaton, aut) is True
        assert cert.automaton.n_states <= ref.certificate.automaton.n_states
    assert kinds == {Positional, NotPositional}
    assert restarts[0] < restarts[1], restarts


# -- two-loop witnesses -------------------------------------------------------------


def _hub_facts(aut, loops):
    u0, l1, l2 = loops.u0, loops.l1, loops.l2
    return (
        not up_membership(aut, upword(u0, l1))
        and not up_membership(aut, upword(u0, l2))
        and up_membership(aut, upword(u0, l1 + l2))
    )


def test_two_loops_stuck_class_word():
    # the stuck class of the inf-a-and-inf-b automaton: its word is u0.l1^omega
    aut = build(
        2,
        ("a", "b"),
        0,
        [(0, "b", 0, 1), (0, "a", 1, 0), (1, "a", 0, 0), (1, "b", 1, 1)],
    )
    w = decide_positionality_p1(aut).witness
    assert isinstance(w, PolishLanguageChange)
    assert w.w == upword(w.loops.u0, w.loops.l1)
    assert _hub_facts(aut, w.loops)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_two_loops_on_seed_58_blowups(k):
    # the bisimulation quotient merges the redundant copies, so every
    # blow-up has the base's hub pairs
    base = parse_dpa(SEED_58_DPA)
    for seed in range(5):
        aut = blowup(base, k, seed)
        assert bisimulation_quotient(aut).n_states == 7
        assert _hub_facts(aut, find_two_loops(aut)), seed


def test_two_loops_without_a_hub_pair():
    # no hub pair carries two loops here, so the monoid search finds them:
    # (ab)^omega and (ba)^omega are rejected, (ab ba)^omega is accepted
    aut = build(
        5,
        ("a", "b"),
        0,
        [
            (0, "a", 0, 4), (0, "b", 1, 3), (1, "a", 0, 2), (1, "b", 1, 2),
            (2, "a", 1, 0), (2, "b", 0, 2), (3, "a", 2, 1), (3, "b", 3, 4),
            (4, "a", 0, 2), (4, "b", 2, 4),
        ],
        deterministic=True,
    )
    assert _hub_loops(bisimulation_quotient(aut)) is None
    res = decide_positionality_p1(aut)
    assert isinstance(res.witness, PolishLanguageChange)
    assert res.witness.loops == find_two_loops(aut)
    assert _hub_facts(aut, res.witness.loops)


def test_witness_words_match_reference():
    # the searches read their words off `explore`'s tree; the references
    # each run their own breadth-first search with a walk back
    base = parse_dpa(SEED_58_DPA)
    rng = random.Random(20)
    auts = [blowup(base, k, seed) for k in (1, 2, 3) for seed in range(5)]
    for _ in range(600):
        n, letters = rng.randint(2, 5), ("a", "b", "c")[: rng.randint(2, 3)]
        auts.append(random_automaton(rng, n, letters, rng.randint(2, 4)))
    hub = monoid = 0
    for i, aut in enumerate(auts):
        quo = bisimulation_quotient(aut)
        for q in quo.states():
            assert access_word(quo, q) == reference_access_word(quo, q), (i, q)
        loops = _hub_loops(quo)
        assert loops == reference_hub_loops(quo), i
        other = _monoid_loops(quo)
        assert other == reference_monoid_loops(quo), i
        hub += loops is not None
        monoid += loops is None and other is not None
    assert hub >= 250 and monoid >= 40, (hub, monoid)


@pytest.mark.parametrize("name", POSITIONAL_FIXTURES)
def test_two_loops_absent_for_positional_languages(name):
    # a two-loop gadget refutes positionality, so none exists here
    with pytest.raises(PipelineError, match="no two-loop witness exists"):
        find_two_loops(FIXTURES[name][0]().trim())


# -- validation -----------------------------------------------------------------------


def test_validate_signature_certificate():
    res = decide_positionality_p1(aut_inf_a_or_fin_bb())
    assert validate_signature(res.certificate) is True


def test_validate_signature_permuted_level_two():
    res = decide_positionality_p1(aut_inf_a_or_fin_bb())
    sig = res.certificate
    lvl2 = dict(sig.preorders.levels[2])
    # swap the two states of the b/c block
    lvl2[1], lvl2[2] = lvl2[2], lvl2[1]
    bad = SignatureAutomaton(
        sig.automaton,
        NestedPreorders(sig.preorders.levels[:2] + (lvl2,), 2),
    )
    problems = validate_signature(bad)
    assert problems is not True
    assert any("monotonicity" in p or "centralised" in p for p in problems)


def test_validate_signature_trivial_levels():
    aut = normalize(aut_buchi_a_or_reach_aa())
    from posaut.lang import residual_preorder

    rp = residual_preorder(aut)
    levels = tuple(dict(rp.rank) for _ in range(aut.d_max + 1))
    sig = SignatureAutomaton(aut, NestedPreorders(levels, aut.d_max))
    # residual classes are singletons here, so residual levels validate
    assert validate_signature(sig) is True


# -- pipeline invariants -----------------------------------------------------------------


def test_stage_language_preservation(rng):
    aut = aut_fin_ac_or_fin_bb()
    cong = congruence_from_classes(4, [[0, 1, 2, 3]])
    sat = saturate(aut, 2, cong)
    cen, cong_c = safe_centralise(sat, 2, cong)
    det = redeterminise(cen, 2, cong_c, check_total_safe_order(cen, 2, cong_c))
    for _ in range(100):
        u, v = random_upword(rng, aut.alphabet)
        w = upword(u, v)
        expect = up_membership(aut, w)
        assert up_membership(sat, w) == expect
        assert up_membership(cen, w) == expect
        assert up_membership(det, w) == expect


def test_restart_bound(rng):
    # the pipeline raises "restart bound exceeded" past (d + 2) * n + 4
    # restarts on the normalised input, so a verdict keeps within the bound
    from conftest import random_automaton

    for _ in range(60):
        aut = random_automaton(rng, rng.randint(1, 5), ("a", "b"), dmax=3)
        assert isinstance(decide_positionality_p1(aut), (Positional, NotPositional))


def _restart_inputs():
    """The zoo fixtures with their k = 2-4 blow-ups (seeds 0-7), then 300
    seeded random DPAs with n <= 9 with their k = 2 and k = 3 blow-ups."""
    for make, _ in FIXTURES.values():
        base = make()
        yield base
        for k in (2, 3, 4):
            for seed in range(8):
                yield blowup(base, k, seed)
    rng = random.Random(30)
    for seed in range(300):
        letters = ("a", "b", "c")[: rng.randint(1, 3)]
        aut = random_automaton(rng, rng.randint(1, 9), letters, dmax=rng.randint(1, 4))
        yield aut
        for k in (2, 3):
            yield blowup(aut, k, seed)


def _spy_passes(monkeypatch, check=None):
    """Wrap p1's passes: `check(aut, memo, x)` runs before each restart's
    pass, for the level x of the shrink behind it; returns the list of
    those levels."""
    one_pass, levels, last = signature._one_pass, [], {}

    def spy(aut, memo, **kwargs):
        if memo:  # every pass but a decision's first gets a filled memo
            levels.append(last[id(memo)])
            if check:
                check(aut, memo, levels[-1])
        out = one_pass(aut, memo, **kwargs)
        if isinstance(out, tuple):
            last[id(memo)] = out[2]
        return out

    monkeypatch.setattr(signature, "_one_pass", spy)
    return levels


def test_restarts_carry_ranks_and_progress_consistency(monkeypatch):
    # a restart takes its residual preorder from the automaton polishing
    # shrank, and after a level-0 shrink the plain progress consistency of
    # the pass automaton: both must be what a fresh computation gives

    def check(aut, memo, x):
        fresh = residual_preorder(aut)
        assert memo[aut] == fresh and list(memo[aut].rank) == list(fresh.rank)
        assert (memo.get("progress") is aut) == (x == 0)
        if x == 0:
            assert check_progress_consistency(aut, fresh) is True

    levels = _spy_passes(monkeypatch, check)
    for aut in _restart_inputs():
        decide_positionality_p1(aut)
    assert levels.count(0) >= 300 and len(levels) - levels.count(0) >= 80


def test_level_0_restarts_build_one_residual_product(monkeypatch):
    # min_letter_even(4) blown up three times restarts twice, each after a
    # level-0 shrink that polishes the whole level: the first pass's
    # residual product and plain progress check serve every restart
    calls = {"residual_preorder": 0, "check_progress_consistency": 0}
    for name in calls:
        monkeypatch.setattr(signature, name, partial(_counted, calls, name, getattr(signature, name)))
    levels = _spy_passes(monkeypatch)
    res = decide_positionality_p1(blowup(FIXTURES["min_letter_even"][0](), 3, 1))
    assert isinstance(res, Positional)
    assert levels == [0, 0]
    assert calls == {"residual_preorder": 1, "check_progress_consistency": 1}


def _counted(calls, name, fn, *args):
    calls[name] += 1
    return fn(*args)


def test_positional_certificates_validate():
    for name in POSITIONAL_FIXTURES:
        res = decide_positionality_p1(FIXTURES[name][0]())
        assert isinstance(res, Positional), name
        sig = res.certificate
        assert validate_signature(sig) is True, name
        assert lang_equal_det(sig.automaton, FIXTURES[name][0]().trim()) is True, name


@pytest.mark.parametrize("k", [2, 3, 4])
def test_blowups_decided_positional(k):
    # passes can leave states unreachable; the restart must drop them
    base = FIXTURES["fin_nested_c_factors"][0]()
    for seed in range(10):
        aut = blowup(base, k, seed)
        res = decide_positionality_p1(aut)
        assert isinstance(res, Positional), (k, seed)
        assert validate_signature(res.certificate) is True, (k, seed)
        assert lang_equal_det(res.certificate.automaton, aut) is True, (k, seed)


def test_blowup_at_scale_decided_positional():
    # n = 30: every pairwise relation is computed for all pairs at once
    aut = blowup(FIXTURES["fin_nested_c_factors"][0](), 8, 0)
    assert aut.n_states == 30
    res = decide_positionality_p1(aut)
    assert isinstance(res, Positional)
    assert validate_signature(res.certificate) is True
    assert lang_equal_det(res.certificate.automaton, aut) is True


def test_sig_roundtrip():
    res = decide_positionality_p1(aut_inf_a_or_fin_bb())
    text = emit_sig(res.certificate)
    back = parse_sig(text)
    assert back.automaton.transitions == res.certificate.automaton.transitions
    assert back.preorders.levels == res.certificate.preorders.levels
    assert emit_sig(back) == text


def _quotient_leq_any(aut, cong, x):
    """(<=x)-quotient transition keys, allowing odd x (large priorities map
    to x when x is odd, x+1 when even)."""
    cap = x + 1 if x % 2 == 0 else x
    keys = set()
    for t in aut.transitions:
        pr = t.priority if t.priority <= x else cap
        keys.add((cong.class_of[t.src], t.letter, pr, cong.class_of[t.dst]))
    return keys


def test_saturation_is_nice_at_level_one():
    # the (<=1)-quotient by the level-0 classes is untouched by saturation
    aut = aut_fin_ac_or_fin_bb()
    cong = congruence_from_classes(4, [[0, 1, 2, 3]])
    sat = saturate(aut, 2, cong)
    assert _quotient_leq_any(aut, cong, 1) == _quotient_leq_any(sat, cong, 1)


def test_certificates_complete_and_recognise(rng):
    from posaut.epscomplete import eps_complete_from_signature
    from posaut.lang import incl_nd_in_det

    for name in POSITIONAL_FIXTURES:
        aut = FIXTURES[name][0]()
        res = decide_positionality_p1(aut)
        eps_aut = eps_complete_from_signature(res.certificate)
        assert incl_nd_in_det(eps_aut.automaton, res.certificate.automaton) is True, name
        for _ in range(40):
            u, v = random_upword(rng, aut.alphabet)
            assert up_membership(eps_aut.automaton, upword(u, v)) == up_membership(
                aut, upword(u, v)
            ), name
