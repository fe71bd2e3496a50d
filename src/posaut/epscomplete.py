"""Procedure 2: decide positionality by greedily adding eps-transitions.

For every ordered state pair and even priority x, at least one of
q -eps:x-> q' or q' -eps:x+1-> q is addable without growing the language
when the language is positional; a pair where both additions leak words is a
counterexample.  The resulting relations, closed under transitivity and the
priority preference order 1 < 3 < ... < d+1 < d < ... < 2 < 0, form an
eps-complete automaton.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace

from .automaton import EPS, ParityAutomaton, Transition, priority_span, rebuild
from .lang import DetProduct, complement_det, incl_nd_in_det
from .witnesses import CompletionFailure, NotPositional, Positional


def preference_rank(y: int, d: int) -> int:
    """Rank in the order 1 < 3 < ... < d+1 < d < ... < 2 < 0 (higher is better)."""
    if y % 2 == 1:
        return (y - 1) // 2
    return (d // 2 + 1) + (d - y) // 2


@dataclass(frozen=True)
class EpsCompleteAutomaton:
    """An automaton with eps-transitions whose odd eps-relations are nested
    total preorders and whose even eps-relations are their strict variants."""

    automaton: ParityAutomaton
    d: int  # even; priorities range in [0, d+1]


def even_bound(aut: ParityAutomaton) -> int:
    """The even d such that the completion uses priorities in [0, d+1]."""
    d = max(aut.d_max, 0)
    return d if d % 2 == 0 else max(d - 1, 0)


def validate_eps_complete(aut: ParityAutomaton, d: int):
    """Check the eps-complete conditions; True or a list of violations."""
    problems = []
    rel = {
        y: {(t.src, t.dst) for t in aut.transitions if t.is_eps and t.priority == y}
        for y in range(0, d + 2)
    }
    states = list(aut.states())
    for y in range(1, d + 2, 2):
        r = rel[y]
        for q in states:
            if (q, q) not in r:
                problems.append(f"eps:{y} not reflexive at {q}")
        for q in states:
            for p in states:
                if (q, p) not in r and (p, q) not in r:
                    problems.append(f"eps:{y} not total on ({q},{p})")
                for s in states:
                    if (q, p) in r and (p, s) in r and (q, s) not in r:
                        problems.append(f"eps:{y} not transitive via ({q},{p},{s})")
        if y >= 3:
            for pair in r:
                if pair not in rel[y - 2]:
                    problems.append(f"eps:{y} does not refine eps:{y-2} at {pair}")
    for x in range(0, d + 1, 2):
        for q in states:
            for p in states:
                strict = (q, p) in rel[x]
                rev = (p, q) in rel[x + 1]
                if strict == rev:
                    problems.append(
                        f"eps:{x} is not the strict variant of eps:{x+1} at ({q},{p})"
                    )
    return True if not problems else problems


def priority_close(aut: ParityAutomaton, d: int) -> ParityAutomaton:
    """Close under the preference order and eps-letter-eps composition.

    Adds q -a:y'-> q' for every y' below y in the preference order, and the
    composite p -a:min(y1,y2,y3)-> p' for every eps - letter - eps sandwich.
    The composite takes the numeric minimum: a run through it and the run
    through the three simulated steps have the same minimal priority, so the
    language is untouched.  Idempotent.  Priorities must lie in [0, d+1]
    with d even, where the preference order is total.

    The fixpoint is computed on a table that keeps, per (src, letter, dst),
    only the most preferred priority present; each entry is expanded
    downward along the preference order when the automaton is emitted.  One
    entry suffices because the numeric min is monotone in the preference
    order 1 < 3 < ... < d+1 < d < ... < 2 < 0: min(y1, y2, y3) is most
    preferred when each argument is the most preferred one available.  So
    the downward closure of the table's fixpoint is closed under both rules,
    and each of its transitions is derived by them: it is the least closed
    set.  The original transitions come first in the result, then the added
    ones in sorted order.
    """
    if d < 0 or d % 2:
        raise ValueError(f"priority_close needs an even d >= 0, got {d}")
    rank = [preference_rank(y, d) for y in range(d + 2)]
    best: dict[tuple[int, str, int], int] = {}
    eps_out: dict[int, dict[int, int]] = defaultdict(dict)
    eps_in: dict[int, dict[int, int]] = defaultdict(dict)

    def offer(key, y) -> bool:
        old = best.get(key)
        if old is not None and rank[old] >= rank[y]:
            return False
        best[key] = y
        s, a, t = key
        if a == EPS:
            eps_out[s][t] = y
            eps_in[t][s] = y
        return True

    for tr in aut.transitions:
        if not 0 <= tr.priority <= d + 1:
            raise ValueError(f"transition {tr} has a priority outside [0, {d + 1}]")
        offer((tr.src, tr.letter, tr.dst), tr.priority)
    changed = True
    while changed:
        found = [
            ((p, a, v), min(y1, y, y3))
            for (s, a, t), y in best.items()
            for p, y1 in eps_in[s].items()
            for v, y3 in eps_out[t].items()
        ]
        changed = False
        for key, y in found:
            changed |= offer(key, y)
    below = [[y2 for y2 in range(d + 2) if rank[y2] <= rank[y]] for y in range(d + 2)]
    closed = {(s, a, y2, t) for (s, a, t), y in best.items() for y2 in below[y]}
    seen = set((t.src, t.letter, t.priority, t.dst) for t in aut.transitions)
    ordered = list(aut.transitions)
    for key in sorted(closed - seen):
        ordered.append(Transition(*key))
    return replace(
        aut,
        transitions=tuple(ordered),
        priority_range=priority_span(ordered),
        deterministic=False,
    )


def merge_top_equivalent(aut: ParityAutomaton, d: int) -> ParityAutomaton:
    """Merge states equivalent for the top eps-relation (lowest id survives).

    After priority closure such states have identical transitions, so the
    merge never alters the language."""
    top = {
        (t.src, t.dst)
        for t in aut.transitions
        if t.is_eps and t.priority == d + 1
    }
    rep = [
        min((p for p in range(q) if (q, p) in top and (p, q) in top), default=q)
        for q in aut.states()
    ]
    if len(set(rep)) == aut.n_states:
        return aut
    return rebuild(aut, aut.states(), rep, deterministic=False)


def decide_positionality_p2(aut: ParityAutomaton, w_det: ParityAutomaton | None = None):
    """Procedure 2.  Returns Positional(EpsCompleteAutomaton) or
    NotPositional(CompletionFailure).

    `w_det` is a deterministic automaton for the language of `aut`, which
    may then be nondeterministic and carry eps-transitions; it defaults to
    `aut` itself, which must then be deterministic.  Only L(aut) ⊆ L(w_det)
    is checked (ValueError otherwise); the reverse inclusion is the
    caller's duty.

    Each candidate eps-edge is kept iff the automaton with it stays
    disjoint from the complement of W.  That is tested on one product with
    the complement, built once: a candidate's copies are pushed for the
    test and popped again when it fails, an accepted edge's copies stay.
    """
    if w_det is None:
        if not aut.deterministic or aut.has_eps:
            raise ValueError(
                "nondeterministic input needs an equivalent deterministic automaton"
            )
        w_det = aut
    else:
        chk = incl_nd_in_det(aut, w_det)
        if chk is not True:
            raise ValueError(
                f"L(A) is not included in L(W_det): extra word {chk} "
                "(the reverse inclusion is not checked)"
            )
    d = even_bound(aut)
    current = replace(aut, priority_range=(0, d + 1), deterministic=False)
    product = DetProduct(current, complement_det(w_det))
    present = {(t.src, t.priority, t.dst) for t in current.transitions if t.is_eps}
    added: list[Transition] = []
    for x in range(0, d + 1, 2):
        for q in current.states():
            for p in current.states():
                if (q, x, p) in present or (p, x + 1, q) in present:
                    continue
                even, odd = Transition(q, EPS, x, p), Transition(p, EPS, x + 1, q)
                for t in (even, odd):
                    product.push(t)
                    if not product.has_common_word():
                        added.append(t)
                        present.add((t.src, t.priority, t.dst))
                        break
                    product.pop()
                else:
                    base = replace(current, transitions=current.transitions + tuple(added))
                    r1, r2 = (
                        incl_nd_in_det(replace(base, transitions=base.transitions + (t,)), w_det)
                        for t in (even, odd)
                    )
                    return NotPositional(CompletionFailure(q, p, x, r1, r2, base))
    current = replace(current, transitions=current.transitions + tuple(added))
    current = _close_relations(current, d)
    current = priority_close(current, d)
    current = merge_top_equivalent(current, d)
    # merged states already had equal rows (eps:d+1 is reflexive), so no reclose
    current = _prune_even_eps(current, d)
    check = validate_eps_complete(current, d)
    if check is not True:
        raise AssertionError("completion failed validation: " + "; ".join(check))
    return Positional(EpsCompleteAutomaton(current, d))


def _prune_even_eps(aut: ParityAutomaton, d: int) -> ParityAutomaton:
    """Keep an even eps-edge only when its reversed odd companion is absent.

    Dropping added eps-transitions never grows the language and the greedy
    phase guarantees the kept edges make each even relation exactly the
    strict variant of the odd one above it."""
    odd = {
        y: {(t.src, t.dst) for t in aut.transitions if t.is_eps and t.priority == y}
        for y in range(1, d + 2, 2)
    }
    trans = tuple(
        t
        for t in aut.transitions
        if not (
            t.is_eps
            and t.priority % 2 == 0
            and (t.dst, t.src) in odd.get(t.priority + 1, set())
        )
    )
    return replace(aut, transitions=trans)


def _close_relations(aut: ParityAutomaton, d: int) -> ParityAutomaton:
    """Transitive closure of each eps-relation, then downward closure along
    the preference order (restricted to eps-transitions)."""
    rel = {y: set() for y in range(0, d + 2)}
    for t in aut.transitions:
        if t.is_eps:
            rel[t.priority].add((t.src, t.dst))
    for y in rel:
        changed = True
        while changed:
            changed = False
            for (q, p) in list(rel[y]):
                for (p2, s) in list(rel[y]):
                    if p2 == p and (q, s) not in rel[y]:
                        rel[y].add((q, s))
                        changed = True
    for y in sorted(range(0, d + 2), key=lambda v: -preference_rank(v, d)):
        for y2 in range(0, d + 2):
            if preference_rank(y2, d) < preference_rank(y, d):
                rel[y2] |= rel[y]
    trans = list(aut.transitions)
    seen = set((t.src, t.letter, t.priority, t.dst) for t in trans)
    for y in range(0, d + 2):
        for (q, p) in sorted(rel[y]):
            key = (q, EPS, y, p)
            if key not in seen:
                seen.add(key)
                trans.append(Transition(*key))
    return replace(aut, transitions=tuple(trans), priority_range=priority_span(trans))


def eps_complete_from_signature(sig) -> EpsCompleteAutomaton:
    """Direct construction from a validated fully progress consistent
    signature automaton: q -eps:x+1-> q' whenever q' <=_x q and
    q -eps:x-> q' whenever q' <_x q, for every even x."""
    aut = sig.automaton
    d = sig.d if sig.d % 2 == 0 else max(sig.d - 1, 0)
    trans = list(aut.transitions)
    for x in range(0, d + 1, 2):
        rank = sig.preorders.levels[x]
        for q in aut.states():
            for p in aut.states():
                if rank[p] <= rank[q]:
                    trans.append(Transition(q, EPS, x + 1, p))
                if rank[p] < rank[q]:
                    trans.append(Transition(q, EPS, x, p))
    out = replace(
        aut,
        transitions=tuple(trans),
        priority_range=priority_span(trans),
        deterministic=False,
    )
    check = validate_eps_complete(out, d)
    if check is not True:
        raise AssertionError(
            "signature completion not eps-complete: " + "; ".join(check)
        )
    leak = incl_nd_in_det(out, aut)
    if leak is not True:
        raise AssertionError(f"signature completion grew the language: {leak}")
    return EpsCompleteAutomaton(out, d)
