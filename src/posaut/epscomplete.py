"""Procedure 2: decide positionality by greedily adding eps-transitions.

For every ordered state pair and even priority x, at least one of
q -eps:x-> q' or q' -eps:x+1-> q is addable without growing the language
when the language is positional; a pair where both additions leak words is a
counterexample.  The resulting relations, closed under transitivity and the
priority preference order 1 < 3 < ... < d+1 < d < ... < 2 < 0, form an
eps-complete automaton.  p2's certificate keeps the input's transitions and
these closed relations, read off the least priorities of the letter-free
walks: a generating set, whose `priority_close` is the closed form with every
eps-letter-eps composite and preference variant.

Most candidates are settled by the letter-free walks over the eps-edges
present, with no language test.  A candidate implied by a walk whose least
priority is at least as preferred adds no word: a run through it maps to a
run through the walk, and the least priority is monotone in the preference
order.  A candidate that would give such a walk to an edge rejected earlier
adds every word that edge added, to a larger automaton, so it is rejected
too.  Both facts are exact, so the greedy order and every decision are those
of testing each candidate.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace

from .automaton import (
    EPS,
    EdgeGraph,
    ParityAutomaton,
    Transition,
    bisimulation_quotient,
    even_cycle_sccs,
    priority_span,
    rebuild,
)
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

    Each round composes every sandwich on the table as it stood at the
    round's start, until a round changes no entry.  The sandwiches are
    composed as (letter, then eps) first, per source and letter, and then
    eps before: the numeric min distributes over the most preferred of a
    set, being monotone in the preference order.
    """
    if d < 0 or d % 2:
        raise ValueError(f"priority_close needs an even d >= 0, got {d}")
    rank = [preference_rank(y, d) for y in range(d + 2)]
    best: dict[tuple[int, str, int], int] = {}

    def offer(key, y) -> bool:
        old = best.get(key)
        if old is not None and rank[old] >= rank[y]:
            return False
        best[key] = y
        return True

    for tr in aut.transitions:
        if not 0 <= tr.priority <= d + 1:
            raise ValueError(f"transition {tr} has a priority outside [0, {d + 1}]")
        offer((tr.src, tr.letter, tr.dst), tr.priority)
    changed = True
    while changed:
        changed = False
        eps_out: dict[int, dict[int, int]] = defaultdict(dict)
        eps_in: dict[int, dict[int, int]] = defaultdict(dict)
        entries: dict[tuple[int, str], list[tuple[int, int]]] = defaultdict(list)
        for (s, a, t), y in best.items():
            entries[(s, a)].append((t, y))
            if a == EPS:
                eps_out[s][t] = y
                eps_in[t][s] = y
        for (s, a), targets in entries.items():
            after: dict[int, int] = {}  # v -> best min(y, y3) over the targets
            for t, y in targets:
                for v, y3 in eps_out[t].items():
                    m = y if y < y3 else y3
                    cur = after.get(v)
                    if cur is None or rank[m] > rank[cur]:
                        after[v] = m
            for p, y1 in eps_in[s].items():
                for v, m in after.items():
                    changed |= offer((p, a, v), y1 if y1 < m else m)
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
    """Merge the states that lie on a common letter-free cycle whose least
    priority is even or d+1; the lowest id of each class survives.

    The quotient keeps the language.  A run of it that moves inside a class
    is a run of `aut` with a letter-free walk between class members put in,
    whose least priority is even or d+1; no priority exceeds d+1, so an
    even least recurring priority stays even.  On an automaton whose
    eps-relations are closed, the classes are those of mutual eps:d+1
    edges."""
    g = EdgeGraph(aut.n_states)
    for t in aut.transitions:
        if t.is_eps:  # d+1 counts as even, and pr2 0 makes each edge read a letter
            g.add(t.src, t.dst, t.priority if t.priority <= d else d + 2, 0)
    rep = list(aut.states())
    for inner in even_cycle_sccs(g, aut.states()):
        members = {g.src[e] for e in inner}
        low = min(members)
        for q in members:
            rep[q] = low
    if rep == list(aut.states()):
        return aut
    return rebuild(aut, aut.states(), rep, deterministic=False)


def compose_minima(a: int, b: int) -> int:
    """The least priorities of a walk followed by a walk, as a bitmask, from
    the bitmasks of the least priorities of each part: min(y1, y2) for y1
    in `a` and y2 in `b` is y1 when y2 >= y1, so keep the bits of each set
    up to the top bit of the other.  A top bit above every priority stands
    for the empty walk, which leaves the other part's minima as they are."""
    return (a & ((1 << b.bit_length()) - 1)) | (b & ((1 << a.bit_length()) - 1))


class WalkMinima:
    """For each state pair (q, p), the least priorities of the letter-free
    walks q ~> p over the eps-edges added so far, as a bitmask: bit y for a
    non-empty walk whose least priority is y, and bit d+2 for the empty walk
    on the diagonal.  It also keeps the eps-edges rejected so far.

    p2's greedy test of a candidate q -eps:x-> p has two answers these sets
    give without a product: `implies` (it passes) and `dooms` (it fails).
    After the greedy phase they give the certificate's eps-relations: every
    edge that `implies` accepts.  Priorities must lie in [0, d+1]."""

    def __init__(self, n: int, d: int):
        self.minima = [[1 << (d + 2) if q == p else 0 for p in range(n)] for q in range(n)]
        rank = [preference_rank(y, d) for y in range(d + 2)]
        # per priority y: the priorities at least as preferred as y
        self.at_least = [
            sum(1 << z for z in range(d + 2) if rank[z] >= rank[y]) for y in range(d + 2)
        ]
        self.rejected: dict[int, dict[int, int]] = defaultdict(dict)

    def add(self, t: Transition) -> None:
        """Add the eps-edge u -eps:y-> v.  A new walk a ~> b uses it k >= 1
        times: a ~> u, then u -y-> v (~> u -y-> v)^(k-1), then v ~> b, each
        ~> an old walk; the minima of the middle part are {y} composed with
        the old minima of v ~> u, empty walk included.  A row a whose minima
        for a ~> v already hold those of the new walks a ~> v gains nothing,
        because the old sets are closed under composition."""
        minima, u, v = self.minima, t.src, t.dst
        mid = 1 << t.priority
        mid |= compose_minima(mid, minima[v][u])
        post = [(b, m) for b, m in enumerate(minima[v]) if m]
        for row in minima:
            if not row[u]:
                continue
            left = compose_minima(row[u], mid)
            if not left & ~row[v]:
                continue
            for b, m in post:
                row[b] |= compose_minima(left, m)

    def implies(self, t: Transition) -> bool:
        """Whether a non-empty letter-free walk t.src ~> t.dst has a least
        priority at least as preferred as t's.  A run through t then maps
        to a run through the walk on the same word, and by monotonicity of
        the least priority in the preference order its least recurring
        priority stays even if it was: t adds no word, and a product
        without t sees the same runs as one with it."""
        return bool(self.minima[t.src][t.dst] & self.at_least[t.priority])

    def reject(self, t: Transition) -> None:
        """Record t as rejected, for `dooms`."""
        wants = self.rejected[t.src]
        wants[t.dst] = wants.get(t.dst, 0) | self.at_least[t.priority]

    def dooms(self, t: Transition) -> bool:
        """Whether t gives a walk r.src ~> t.src -t-> t.dst ~> r.dst, for an
        edge r rejected earlier, whose least priority is at least as
        preferred as r's.  Then t adds every word r added to a smaller
        automaton: its test fails."""
        minima, q = self.minima, t.src
        bit, post = 1 << t.priority, minima[t.dst]
        for rq, wants in self.rejected.items():
            pre = minima[rq][q]
            if not pre:
                continue
            left = compose_minima(pre, bit)
            for rp, want in wants.items():
                if post[rp] and compose_minima(left, post[rp]) & want:
                    return True
        return False


def decide_positionality_p2(aut: ParityAutomaton, w_det: ParityAutomaton | None = None):
    """Procedure 2.  Returns Positional(EpsCompleteAutomaton) or
    NotPositional(CompletionFailure).

    `w_det` is a deterministic automaton for the language of `aut`, which
    may then be nondeterministic and carry eps-transitions; it defaults to
    `aut` itself, which must then be deterministic.  Only L(aut) ⊆ L(w_det)
    is checked (ValueError otherwise); the reverse inclusion is the
    caller's duty.  An invalid automaton raises ValueError (`check_valid`).
    Negative priorities of `aut` are first shifted up by the least even
    amount that makes them nonnegative, which keeps the language.

    For each even x and ordered pair (q, p), in that order, the candidate
    q -eps:x-> p, and failing it p -eps:x+1-> q, is kept iff the automaton
    with it stays disjoint from the complement of W.  Two facts about the
    letter-free walks over the eps-edges present (the input's and those
    kept so far, kept in a `WalkMinima`) settle most candidates exactly:
    a candidate implied by a walk whose least priority is at least as
    preferred passes, and a candidate that gives such a walk to an edge
    rejected earlier fails, because more edges only add runs.  The others
    are tested on one product with the complement of W's quotient by
    priority-preserving bisimulation (`bisimulation_quotient`), built once
    (`DetProduct.try_push`): the quotient gives every word the run
    priorities it has in `w_det`, so every answer is the one `w_det` gives,
    on n·k pairs for W's k classes instead of n·m for its m states.  A
    candidate's copies stay when it passes and are removed again when it
    fails, and an implied one is never added, since every run through it
    has a counterpart without it.  The kept product never has a common
    word (it starts without one, since L(aut) ⊆ L(w_det) is checked or
    w_det is aut, `try_push`'s precondition), so each test asks only about
    the copies that leave pairs the start pair reaches, and a candidate
    with none passes without a kernel run.  A failing pair's words `cex1`
    and `cex2` are the shortest lassos against `w_det` itself.

    The certificate then gains every eps-edge the walks imply, its
    top-equivalent states are merged, and the even eps-edges whose odd
    reverse is present are dropped; `priority_close` of it is the closed
    form.
    """
    aut.check_valid()
    low = priority_span(aut.transitions)[0]
    if low < 0:  # even_bound and the greedy levels start at 0
        trans = tuple(replace(t, priority=t.priority - low + low % 2) for t in aut.transitions)
        aut = replace(aut, transitions=trans, priority_range=priority_span(trans))
    if w_det is None:
        if not aut.deterministic or aut.has_eps:
            raise ValueError(
                "nondeterministic input needs an equivalent deterministic automaton"
            )
        w_det = aut
    else:
        w_det.check_valid()
        chk = incl_nd_in_det(aut, w_det)
        if chk is not True:
            raise ValueError(
                f"L(A) is not included in L(W_det): extra word {chk} "
                "(the reverse inclusion is not checked)"
            )
    d = even_bound(aut)
    current = replace(aut, priority_range=(0, d + 1), deterministic=False)
    product = DetProduct(current, complement_det(bisimulation_quotient(w_det)))
    walks = WalkMinima(current.n_states, d)
    for t in current.transitions:
        if t.is_eps:
            walks.add(t)

    def admits(t: Transition) -> bool:
        if walks.implies(t):
            return True
        if not walks.dooms(t) and product.try_push(t):
            return True
        walks.reject(t)
        return False

    present = {(t.src, t.priority, t.dst) for t in current.transitions if t.is_eps}
    added: list[Transition] = []
    for x in range(0, d + 1, 2):
        for q in current.states():
            for p in current.states():
                if (q, x, p) in present or (p, x + 1, q) in present:
                    continue
                even, odd = Transition(q, EPS, x, p), Transition(p, EPS, x + 1, q)
                for t in (even, odd):
                    if admits(t):
                        added.append(t)
                        present.add((t.src, t.priority, t.dst))
                        walks.add(t)
                        break
                else:
                    base = replace(current, transitions=current.transitions + tuple(added))
                    r1, r2 = (
                        incl_nd_in_det(replace(base, transitions=base.transitions + (t,)), w_det)
                        for t in (even, odd)
                    )
                    return NotPositional(CompletionFailure(q, p, x, r1, r2, base))
    # every eps-edge that a letter-free walk implies, which adds no word
    added += [
        Transition(q, EPS, y, p)
        for y in range(d + 2)
        for q in current.states()
        for p in current.states()
        if walks.minima[q][p] & walks.at_least[y] and (q, y, p) not in present
    ]
    trans = current.transitions + tuple(added)
    current = replace(current, transitions=trans, priority_range=priority_span(trans))
    current = merge_top_equivalent(current, d)
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
