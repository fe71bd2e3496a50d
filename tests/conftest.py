"""Shared fixtures: the automaton zoo plus independent semantic membership
oracles for each fixture language, used to validate the automata themselves,
and brute-force oracles for the normal form and the union automata."""

from __future__ import annotations

import itertools
import random

import pytest

from posaut import zoo


def _expand(u, v, n):
    out = list(u)
    while len(out) < n:
        out.extend(v)
    return "".join(out[:n])


def occurs_infinitely(u, v, factor):
    """Does `factor` occur infinitely often in u . v^omega?"""
    reps = (len(factor) // len(v) + 2) * "".join(v)
    return factor in reps


def occurs_at_all(u, v, factor):
    prefix = _expand(u, v, len(u) + len(factor) + 2 * len(v))
    return factor in prefix or occurs_infinitely(u, v, factor)


def oracle_inf_a_or_fin_bb(u, v):
    if "a" in v:
        return True
    if "a" in u:
        return False
    return not occurs_infinitely(u, v, "bb")


def oracle_buchi_a_or_reach_aa(u, v):
    return "a" in v or occurs_at_all(u, v, "aa")


def oracle_reach_aa(u, v):
    return occurs_at_all(u, v, "aa")


def oracle_reach_two_a(u, v):
    text = _expand(u, v, len(u) + 2 * len(v) + 4)
    if "a" in v:
        return True
    return text.count("a") >= 2 or ("".join(u)).count("a") >= 2


def oracle_fin_ac_or_fin_bb(u, v):
    return not occurs_infinitely(u, v, "ac") or not occurs_infinitely(u, v, "bb")


_NCV_NFA = {
    ("f0", "c"): {"f1"},
    ("f1", "a"): {"f1"},
    ("f1", "c"): {"f2"},
    ("f2", "a"): {"f1"},
    ("f2", "b"): {"f2"},
    ("f2", "c"): {"f2", "acc"},
}


def _has_factor_prefix(period):
    """Does period^omega have a prefix in c(a*cb*)+c?"""
    state = frozenset({"f0"})
    seen = set()
    pos = 0
    while (state, pos) not in seen:
        seen.add((state, pos))
        letter = period[pos]
        nxt = set()
        for q in state:
            nxt |= _NCV_NFA.get((q, letter), set())
        if "acc" in nxt:
            return True
        if not nxt:
            return False
        state = frozenset(nxt)
        pos = (pos + 1) % len(period)
    return False


def oracle_fin_nested_c_factors(u, v):
    """Some tail is free of c(a*cb*)+c factors: no rotation of the period
    starts one."""
    v = tuple(v)
    return not any(_has_factor_prefix(v[i:] + v[:i]) for i in range(len(v)))


def oracle_tail_const_or_two_c(u, v):
    if set(v) == {"a"} or set(v) == {"b"}:
        return True
    text = "".join(u) + "".join(v) * 3
    return text.startswith("c") and "c" in text[1:]


def oracle_first_letter_inf(u, v):
    first = (list(u) + list(v))[0]
    return first in v


def oracle_min_letter_even(u, v):
    m = min(int(x) for x in tuple(u) + tuple(v))
    return m % 2 == 0


def oracle_parity_letters(u, v):
    return min(int(x) for x in v) % 2 == 0


FIXTURES = {
    "inf_a_or_fin_bb": (zoo.aut_inf_a_or_fin_bb, oracle_inf_a_or_fin_bb),
    "buchi_a_or_reach_aa": (zoo.aut_buchi_a_or_reach_aa, oracle_buchi_a_or_reach_aa),
    "reach_aa": (zoo.aut_reach_aa, oracle_reach_aa),
    "reach_two_a": (zoo.aut_reach_two_a, oracle_reach_two_a),
    "fin_ac_or_fin_bb": (zoo.aut_fin_ac_or_fin_bb, oracle_fin_ac_or_fin_bb),
    "fin_nested_c_factors": (
        zoo.aut_fin_nested_c_factors,
        oracle_fin_nested_c_factors,
    ),
    "tail_const_or_two_c": (zoo.aut_tail_const_or_two_c, oracle_tail_const_or_two_c),
    "first_letter_inf": (zoo.aut_first_letter_inf, oracle_first_letter_inf),
    "min_letter_even": (zoo.aut_min_letter_even, oracle_min_letter_even),
    "parity_letters": (zoo.aut_parity_letters, oracle_parity_letters),
}

POSITIONAL_FIXTURES = [
    "inf_a_or_fin_bb",
    "buchi_a_or_reach_aa",
    "reach_two_a",
    "fin_ac_or_fin_bb",
    "fin_nested_c_factors",
    "tail_const_or_two_c",
    "min_letter_even",
    "parity_letters",
]

NOT_POSITIONAL_FIXTURES = ["reach_aa", "first_letter_inf"]


def random_upword(rng, alphabet, max_u=4, max_v=4):
    u = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_u)))
    v = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, max_v)))
    return u, v


def random_automaton(rng, n, letters, dmax=3, initial=0):
    from posaut.automaton import build

    trans = [
        (q, a, rng.randint(0, dmax), rng.randrange(n))
        for q in range(n)
        for a in letters
    ]
    return build(n, letters, initial, trans)


def blowup(aut, k, seed):
    """k copies of every state of the deterministic `aut`; each copied
    transition goes to a copy of its target drawn by random.Random(seed).
    The copies are bisimilar to their original, so the trimmed result
    recognises the language of `aut`."""
    from posaut.automaton import build

    rng = random.Random(seed)
    trans = [
        (t.src * k + i, t.letter, t.priority, t.dst * k + rng.randrange(k))
        for t in aut.transitions
        for i in range(k)
    ]
    return build(
        aut.n_states * k, aut.alphabet, aut.initial * k, trans, deterministic=True
    ).trim()


def enumerate_cycles(aut):
    """All transition subsets that form a strongly connected subgraph, i.e.
    support a closed walk using exactly those transitions.  Exponential;
    for small oracle automata only."""
    from posaut.automaton import tarjan_scc

    m = len(aut.transitions)
    cycles = []
    for size in range(1, m + 1):
        for combo in itertools.combinations(range(m), size):
            states = set()
            for i in combo:
                t = aut.transitions[i]
                states.add(t.src)
                states.add(t.dst)
            remap = {q: k for k, q in enumerate(sorted(states))}
            comps = tarjan_scc(
                len(states),
                ((remap[aut.transitions[i].src], remap[aut.transitions[i].dst]) for i in combo),
            )
            if len(comps) == 1 and (len(states) > 1 or combo):
                # single SCC covering all touched states
                cycles.append(frozenset(combo))
    return cycles


def brute_force_minimal_labelling(aut, max_priority):
    """Pointwise-minimal equivalent labelling restricted to cycle transitions.

    Enumerates all labellings with priorities in [0, max_priority] that agree
    with the original on the parity of every cycle's minimum and returns, per
    cycle transition, the least priority any of them assigns.
    """
    cycles = enumerate_cycles(aut)
    cycle_trans = sorted({i for c in cycles for i in c})
    orig = [t.priority for t in aut.transitions]
    want = [min(orig[i] for i in c) % 2 for c in cycles]
    best: dict[int, int] = {}
    for labels in itertools.product(range(max_priority + 1), repeat=len(cycle_trans)):
        assign = dict(zip(cycle_trans, labels))
        ok = True
        for c, parity in zip(cycles, want):
            if min(assign[i] for i in c) % 2 != parity:
                ok = False
                break
        if not ok:
            continue
        for i in cycle_trans:
            if i not in best or assign[i] < best[i]:
                best[i] = assign[i]
    return best


def union_accepts(letters_inf, tuples) -> bool:
    """Direct evaluation: some stream's minimum over the recurring letters is even."""
    k = len(next(iter(tuples.values())))
    for i in range(k):
        m = min(tuples[a][i] for a in letters_inf)
        if m % 2 == 0:
            return True
    return False


def run_lasso(aut, u, v) -> bool:
    """Does the union automaton `aut` accept u . v^omega (min-even over the
    recurring priorities)?"""
    q = aut.initial
    for a in u:
        q, _ = aut.delta[(q, a)]
    seen = {}
    trace = []
    pos = 0
    while (q, pos) not in seen:
        seen[(q, pos)] = len(trace)
        q, pr = aut.delta[(q, v[pos])]
        trace.append(pr)
        pos = (pos + 1) % len(v)
    start = seen[(q, pos)]
    return min(trace[start:]) % 2 == 0


@pytest.fixture(scope="session")
def rng():
    return random.Random(12345)


def reference_disjoint(a, co):
    """`lang.disjoint_from_det` as it was before the integer product: explore
    the reachable product afresh and run one Tarjan pass per even pair."""
    from posaut.lang import _even_pair_sccs, _explore_product

    nodes, edges = _explore_product(a, co, [(a.initial, co.initial)])
    return not any(accepting for _, _, accepting in _even_pair_sccs(len(nodes), edges))


def reference_p2(aut, w_det=None):
    """`decide_positionality_p2` with its greedy loop as it was before the
    integer product: a fresh automaton and a fresh product per candidate."""
    from dataclasses import replace

    from posaut.automaton import EPS, Transition
    from posaut.epscomplete import (
        EpsCompleteAutomaton,
        _close_relations,
        _prune_even_eps,
        even_bound,
        merge_top_equivalent,
        priority_close,
        validate_eps_complete,
    )
    from posaut.lang import complement_det, incl_nd_in_det
    from posaut.witnesses import CompletionFailure, NotPositional, Positional

    if w_det is None:
        assert aut.deterministic and not aut.has_eps
        w_det = aut
    else:
        assert incl_nd_in_det(aut, w_det) is True
    co_w = complement_det(w_det)
    d = even_bound(aut)
    current = replace(aut, priority_range=(0, d + 1), deterministic=False)

    def has(s, y, t):
        return any(
            tr.is_eps and tr.priority == y and tr.dst == t for tr in current.by_src[s]
        )

    for x in range(0, d + 1, 2):
        for q in sorted(current.states()):
            for p in sorted(current.states()):
                if has(q, x, p) or has(p, x + 1, q):
                    continue
                with_even = replace(
                    current,
                    transitions=current.transitions + (Transition(q, EPS, x, p),),
                )
                if reference_disjoint(with_even, co_w):
                    current = with_even
                    continue
                with_odd = replace(
                    current,
                    transitions=current.transitions + (Transition(p, EPS, x + 1, q),),
                )
                if reference_disjoint(with_odd, co_w):
                    current = with_odd
                    continue
                r1 = incl_nd_in_det(with_even, w_det)
                r2 = incl_nd_in_det(with_odd, w_det)
                return NotPositional(CompletionFailure(q, p, x, r1, r2, current))
    current = _close_relations(current, d)
    current = priority_close(current, d)
    current = merge_top_equivalent(current, d)
    current = priority_close(current, d)
    current = _prune_even_eps(current, d)
    assert validate_eps_complete(current, d) is True
    return Positional(EpsCompleteAutomaton(current, d))
