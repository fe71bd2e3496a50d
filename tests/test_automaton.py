import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posaut.automaton import (
    build,
    congruence_from_classes,
    emit_dpa,
    is_faithful,
    parse_dpa,
    parse_upword,
    quotient_leq_x,
    rebuild,
    safe_components,
    tarjan_scc,
    up_membership,
    upword,
)
from posaut.zoo import (
    aut_accept_all,
    aut_buchi_a_or_reach_aa,
    aut_fin_ac_or_fin_bb,
    aut_inf_a_or_fin_bb,
    aut_parity_letters,
)

from conftest import FIXTURES, random_automaton, random_eps_automaton, random_upword


# -- validate ----------------------------------------------------------------


def test_validate_one_state_ok():
    aut = build(1, ("a", "b"), 0, [(0, "a", 0, 0), (0, "b", 0, 0)], deterministic=True)
    assert aut.validate() == []


def test_validate_missing_letter():
    aut = build(1, ("a", "b"), 0, [(0, "a", 0, 0)], deterministic=True)
    assert any("missing b-transition" in m for m in aut.validate())


def test_validate_three_priorities_fixture():
    aut = aut_inf_a_or_fin_bb()
    assert aut.validate() == []
    assert aut.deterministic


def test_validate_flags():
    aut = build(
        2,
        ("a",),
        0,
        [(0, "a", 0, 1), (0, "a", 1, 1), (1, "a", 0, 0)],
        deterministic=True,
    )
    issues = aut.validate()
    assert any("declared deterministic" in m for m in issues)
    # left undeclared, the flag is worked out: a repeated (src, letter) pair
    # or an eps-transition makes the automaton nondeterministic
    assert not build(2, ("a",), 0, [(0, "a", 0, 1), (0, "a", 1, 1), (1, "a", 0, 0)]).deterministic
    assert not build(1, ("a",), 0, [(0, "a", 0, 0), (0, "eps", 0, 0)]).deterministic
    assert build(2, ("a",), 0, [(0, "a", 0, 1), (1, "a", 0, 0)]).deterministic


def test_validate_unreachable_warning():
    aut = build(2, ("a",), 0, [(0, "a", 0, 0), (1, "a", 0, 1)])
    issues = aut.validate()
    assert any(m.startswith("warning:") and "unreachable" in m for m in issues)


# -- letter tables ---------------------------------------------------------------


def _dsucc_table(aut):
    try:
        return {a: tuple(aut.dsucc(q, a) for q in aut.states()) for a in aut.alphabet}
    except ValueError as exc:
        return str(exc)


def test_delta_matches_dsucc(rng):
    # complete deterministic automata give dsucc's table; the others raise
    # dsucc's error for the first bad cell in (letter, state) order
    raised = 0
    for _ in range(200):
        letters = ("a", "b", "c")[: rng.randint(1, 3)]
        if rng.random() < 0.5:
            aut = random_automaton(rng, rng.randint(1, 6), letters)
        else:
            aut = random_eps_automaton(rng, letters)
        want = _dsucc_table(aut)
        try:
            got = aut.delta
        except ValueError as exc:
            got = str(exc)
        assert got == want
        raised += isinstance(want, str)
    assert 0 < raised < 200


# -- safe components ----------------------------------------------------------


def test_safe_components_zero_equals_scc():
    for name, (mk, _) in FIXTURES.items():
        aut = mk()
        cong = safe_components(aut, 0)
        edges = [(t.src, t.dst) for t in aut.transitions]
        sccs = sorted(tuple(c) for c in tarjan_scc(aut.n_states, edges))
        got = sorted(cong.members(c) for c in range(cong.n_classes))
        assert got == sccs, name


def test_safe_components_acbb():
    aut = aut_fin_ac_or_fin_bb()
    cong = safe_components(aut, 2)
    groups = sorted(cong.members(c) for c in range(cong.n_classes))
    assert groups == [(0, 1), (2, 3)]


def test_safe_components_three_priorities_bc_block():
    aut = aut_inf_a_or_fin_bb()
    cong = safe_components(aut, 2)
    assert cong.class_of[1] == cong.class_of[2]
    assert cong.class_of[0] != cong.class_of[1]


def test_safe_components_nest():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        aut = build(
            n,
            ("a", "b"),
            0,
            [
                (q, a, rng.randint(0, 3), rng.randrange(n))
                for q in range(n)
                for a in ("a", "b")
            ],
        )
        coarse = safe_components(aut, 1)
        fine = safe_components(aut, 3)
        for q in range(n):
            for p in range(n):
                if fine.same(q, p):
                    assert coarse.same(q, p)


# -- up words ------------------------------------------------------------------


def test_up_membership_accept_all():
    aut = aut_accept_all()
    assert up_membership(aut, upword((), ("a", "b")))


def test_up_membership_buchi_examples():
    aut = aut_buchi_a_or_reach_aa()
    assert not up_membership(aut, upword((), ("b",)))
    assert up_membership(aut, upword(("a", "a"), ("b",)))


def test_up_membership_matches_oracles(rng):
    for name, (mk, oracle) in FIXTURES.items():
        aut = mk()
        for _ in range(100):
            u, v = random_upword(rng, aut.alphabet)
            assert up_membership(aut, upword(u, v)) == oracle(u, v), (name, u, v)


def test_up_membership_nondeterministic():
    # two branches: one rejects everything, one accepts b^omega
    aut = build(
        3,
        ("b",),
        0,
        [(0, "b", 1, 1), (0, "b", 1, 2), (1, "b", 1, 1), (2, "b", 0, 2)],
        deterministic=False,
    )
    assert up_membership(aut, upword((), ("b",)))


def test_up_membership_eps_interleaved_counts():
    # an eps:0 self-loop interleaved with real letters lowers the run minimum
    aut = build(
        1,
        ("a",),
        0,
        [(0, "a", 1, 0), (0, "eps", 0, 0)],
        deterministic=False,
    )
    assert up_membership(aut, upword((), ("a",)))


def test_up_membership_eps_no_all_eps_suffix():
    # the only even-minimum runs end in an all-eps suffix and are excluded
    aut = build(
        2,
        ("a",),
        0,
        [(0, "a", 1, 0), (0, "eps", 0, 1), (1, "eps", 0, 1)],
        deterministic=False,
    )
    assert not up_membership(aut, upword((), ("a",)))


# -- upword canonicalisation ---------------------------------------------------


def test_upword_canonical_examples():
    # the period is the minimal rotation of the primitive root; the prefix is
    # the shortest one compatible with that period
    assert upword((), ("b", "a")).canonical() == upword(("b",), ("a", "b"))
    assert upword((), ("a", "b", "a", "b")).canonical() == upword((), ("a", "b"))
    assert upword(("a",), ("a",)).canonical() == upword((), ("a",))
    assert upword(("b", "a"), ("b", "a")).canonical() == upword(("b",), ("a", "b"))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from("ab"), max_size=4),
    st.lists(st.sampled_from("ab"), min_size=1, max_size=4),
)
def test_upword_canonical_preserves_word(u, v):
    w = upword(tuple(u), tuple(v))
    c = w.canonical()
    assert w.prefix(24) == c.prefix(24)
    assert c.canonical() == c


def test_upword_serialisation():
    w = upword((), ("b",))
    assert str(w) == "upword: - | b"
    assert parse_upword(str(w)) == w
    w2 = upword(("a", "a"), ("b", "c"))
    assert parse_upword(str(w2)) == w2


# -- faithful congruences and quotients ----------------------------------------


def test_is_faithful_identity():
    aut = aut_inf_a_or_fin_bb()
    ident = congruence_from_classes(3, [[0], [1], [2]])
    assert is_faithful(aut, ident, 2) is True


def test_is_faithful_three_priorities():
    aut = aut_inf_a_or_fin_bb()
    good = congruence_from_classes(3, [[0], [1, 2]])
    assert is_faithful(aut, good, 0) is True
    bad = congruence_from_classes(3, [[0, 1], [2]])
    assert is_faithful(aut, bad, 0) is not True


FAITHFUL_LETTER_CASE = """
from posaut.automaton import EPS, build, congruence_from_classes, is_faithful
cong = congruence_from_classes(2, [[0, 1]])
# states 0 and 1 disagree on b, c, d and eps (priority 0 against 1)
t = [(0, "a", 1, 0), (1, "a", 1, 1)] + [(q, a, q, q) for a in "bcd" for q in (0, 1)]
print(is_faithful(build(2, "abcd", 0, t + [(0, EPS, 0, 1), (1, EPS, 1, 0)]), cong, 0))
# d and eps are enabled in state 0 or 1 only
t = [(q, a, 1, q) for a in "abc" for q in (0, 1)] + [(1, "d", 1, 1), (0, EPS, 1, 1)]
print(is_faithful(build(2, "abcd", 0, t), cong, 0))
"""


def test_is_faithful_names_letters_in_alphabet_order_then_eps():
    expected = (
        "states 0~1: 0-b:0->0 vs 1-b:1->1 disagree on a priority <= 0\n"
        "states 0~1: letter 'd' enabled on one side only\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for seed in ("0", "1", "4"):
        env["PYTHONHASHSEED"] = seed
        out = subprocess.run(
            [sys.executable, "-c", FAITHFUL_LETTER_CASE],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out == expected, seed


def test_rebuild_moves_kept_transitions_through_the_image():
    aut = build(
        4,
        ("a", "b"),
        3,
        [
            (0, "a", 2, 1),
            (1, "a", 3, 3),
            (2, "b", 0, 0),  # source not kept
            (3, "a", 3, 1),  # repeats (1, "a", 3, 3) once moved
            (0, "b", 1, 3),
            (1, "b", 2, 0),
        ],
        deterministic=False,
    )
    image = (0, 1, 0, 1)  # 2 -> 0 and 3 -> 1
    out = rebuild(aut, [0, 1, 3], image, deterministic=True)
    assert (out.n_states, out.initial, out.deterministic) == (2, 1, True)
    assert [repr(t) for t in out.transitions] == ["0-a:2->1", "1-a:3->1", "0-b:1->1", "1-b:2->0"]
    assert out.priority_range == aut.priority_range  # priorities untouched
    # a priority function is applied and the range fitted to its results
    low = rebuild(aut, [0, 1, 3], image, lambda t: min(t.priority, 2))
    assert [t.priority for t in low.transitions] == [2, 2, 1, 2]
    assert low.priority_range == (1, 2)
    # images are renumbered densely in increasing order
    wide = rebuild(aut, [0, 3], (5, 7, 5, 7))
    assert [repr(t) for t in wide.transitions] == ["0-a:2->1", "1-a:3->1", "0-b:1->1"]
    assert (wide.n_states, wide.initial) == (2, 1)


def test_quotient_identity_is_isomorphic():
    aut = aut_inf_a_or_fin_bb()
    ident = congruence_from_classes(3, [[0], [1], [2]])
    q = quotient_leq_x(aut, ident, 2)
    assert q.n_states == aut.n_states
    assert {(t.src, t.letter, t.priority, t.dst) for t in q.transitions} == {
        (t.src, t.letter, t.priority, t.dst) for t in aut.transitions
    }


def test_quotient_three_priorities_level_zero():
    aut = aut_inf_a_or_fin_bb()
    cong = congruence_from_classes(3, [[0], [1, 2]])
    q = quotient_leq_x(aut, cong, 0)
    assert q.n_states == 2
    cls_bc = cong.class_of[1]
    a_trans = [t for t in q.transitions if t.src == cls_bc and t.letter == "a"]
    assert a_trans[0].priority == 0
    internal = [
        t for t in q.transitions if t.src == cls_bc and t.letter in ("b", "c")
    ]
    assert all(t.priority == 1 for t in internal)


def test_quotient_full_congruence_prefix_independent():
    aut = aut_fin_ac_or_fin_bb()
    cong = congruence_from_classes(4, [[0, 1, 2, 3]])
    q = quotient_leq_x(aut, cong, 0)
    assert q.n_states == 1
    assert all(t.priority == 1 for t in q.transitions)


def test_quotient_language_property(rng):
    # quotient accepts w iff w is accepted with some even priority <= x
    for name in ("inf_a_or_fin_bb", "min_letter_even"):
        aut = FIXTURES[name][0]()
        ident = congruence_from_classes(
            aut.n_states, [[q] for q in range(aut.n_states)]
        )
        for x in range(0, aut.d_max + 1, 2):
            q = quotient_leq_x(aut, ident, x)
            for _ in range(50):
                u, v = random_upword(rng, aut.alphabet)
                st0 = aut.run_state(aut.initial, u)
                # direct run-priority analysis on the lasso
                seen = {}
                trace = []
                s, pos = st0, 0
                while (s, pos) not in seen:
                    seen[(s, pos)] = len(trace)
                    t = aut.dsucc(s, v[pos])
                    trace.append(t.priority)
                    s, pos = t.dst, (pos + 1) % len(v)
                m = min(trace[seen[(s, pos)]:])
                expected = m % 2 == 0 and m <= x
                assert up_membership(q, upword(u, v)) == expected, (name, x, u, v)


# -- dpa round trip -------------------------------------------------------------


def test_dpa_roundtrip():
    for name, (mk, _) in FIXTURES.items():
        aut = mk()
        back = parse_dpa(emit_dpa(aut))
        assert back.n_states == aut.n_states
        assert back.alphabet == aut.alphabet
        assert back.initial == aut.initial
        assert back.transitions == aut.transitions
        assert back.priority_range == aut.priority_range
        assert back.deterministic == aut.deterministic


def test_dpa_parse_errors():
    from posaut.automaton import FormatError

    with pytest.raises(FormatError):
        parse_dpa("not a dpa\n")
    with pytest.raises(FormatError) as exc:
        parse_dpa("dpa\nalphabet: a\nstates: 1\ninitial: 0\npriorities: 0 1\n"
                  "deterministic: true\ntrans: 0 a 0\n")
    assert exc.value.line == 7
