"""Semantic language operations on parity automata.

Complementation of deterministic automata, inclusion with ultimately
periodic counterexamples, the residual preorder and automaton of residuals,
and safe-language inclusion.  Inclusion is emptiness of the product with the
complement, decided by the parity-cycle kernel (`automaton.even_cycle_sccs`):
a common word exists iff a reachable cycle reads a letter and has even least
priorities in both coordinates.  Only then is the witness lasso built, on the
same arrays: for each even pair (x, y), a shortest cycle through a
coordinate-1 priority-x and a coordinate-2 priority-y edge inside one SCC of
the edges >= (x, y), behind a BFS path; the shortest such lasso, made
canonical, is the witness.  The residual relations come from one product over
all pairs of states at once (`noninclusion_pairs`), and the eps-completion
loop extends one `DetProduct` in place.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from .automaton import (
    EPS,
    STUTTER,
    Congruence,
    EdgeGraph,
    ParityAutomaton,
    Transition,
    UPWord,
    congruence_from_classes,
    even_cycle_sccs,
    explore,
    reaches_even_cycle,
    tarjan_edges,
)


def complement_det(aut: ParityAutomaton) -> ParityAutomaton:
    """Complement of a deterministic automaton: shift all priorities by one."""
    if not aut.deterministic or aut.has_eps:
        raise ValueError("complement_det needs a deterministic eps-free automaton")
    trans = tuple(Transition(t.src, t.letter, t.priority + 1, t.dst) for t in aut.transitions)
    return replace(
        aut,
        transitions=trans,
        priority_range=(aut.d_min + 1, aut.d_max + 1),
    )


# ---------------------------------------------------------------------------
# Products, the kernel's verdicts and their lassos
# ---------------------------------------------------------------------------


def _product(a1: ParityAutomaton, a2: ParityAutomaton, starts) -> tuple[EdgeGraph, dict]:
    """Product of a1 (may have eps) with deterministic a2, reachable from the
    (q1, q2) pairs in `starts`, explored breadth first (`explore`).

    Eps moves of a1 stutter a2 (second priority `STUTTER`); each edge is
    labelled with the letter it reads, or EPS."""

    def step(key):
        s, t = key
        for tr in a1.by_src[s]:
            if tr.is_eps:
                yield (tr.dst, t), tr.priority, STUTTER, EPS
            else:
                u = a2.dsucc(t, tr.letter)
                yield (tr.dst, u.dst), tr.priority, u.priority, tr.letter

    return explore(starts, step)


def _included(g: EdgeGraph):
    """True when the product `g` has no common word from node 0 (the
    kernel decides), else its shortest lasso."""
    if next(even_cycle_sccs(g, [0]), None) is None:
        return True
    return _shortest_lasso(g)


def _shortest_lasso(g: EdgeGraph) -> UPWord:
    """The canonical shortest lasso from node 0 of a product with a common
    word.

    For each even pair (x, y), the edges with priorities >= (x, y) are split
    into SCCs.  Each SCC that holds an edge of first priority x and one of
    second priority y (a stutter is never one) gives a candidate: the BFS
    path from node 0 to the shortest cycle through such a pair of anchor
    edges.  The candidate with the fewest letters wins, then the least
    (u, v)."""
    src, dst, pr1, pr2, label = g.src, g.dst, g.pr1, g.pr2, g.label
    n = len(g.out)
    pred: list[int | None] = [None] * n  # BFS tree edge into each node
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    while queue:
        for e in g.out[queue.popleft()]:
            if not seen[dst[e]]:
                seen[dst[e]] = True
                pred[dst[e]] = e
                queue.append(dst[e])
    best: tuple[int, tuple, tuple] | None = None  # (length, u, v)
    for x in sorted({p for p in pr1 if p % 2 == 0}):
        for y in sorted({p for p in pr2 if p % 2 == 0}):  # STUTTER is odd
            adj = [[e for e in es if pr1[e] >= x and pr2[e] >= y] for es in g.out]
            comp_of, _ = tarjan_edges(range(n), adj, dst, n)
            xs: dict[int, list[int]] = {}
            ys: dict[int, list[int]] = {}
            for e in range(len(dst)):
                c = comp_of[src[e]]
                if c == comp_of[dst[e]] and pr1[e] >= x and pr2[e] >= y:
                    if pr1[e] == x:
                        xs.setdefault(c, []).append(e)
                    if pr2[e] == y:
                        ys.setdefault(c, []).append(e)
            for c in xs.keys() & ys.keys():
                cycle = _cycle_through(adj, src, dst, comp_of, c, xs[c], ys[c])
                u, e = [], pred[src[cycle[0]]]
                while e is not None:
                    u.append(label[e])
                    e = pred[src[e]]
                u = tuple(a for a in reversed(u) if a != EPS)
                v = tuple(label[e] for e in cycle if label[e] != EPS)
                cand = (len(u) + len(v), u, v)
                if best is None or cand < best:
                    best = cand
    return UPWord(best[1], best[2]).canonical()


def _cycle_through(adj, src, dst, comp_of, c, xs, ys) -> list[int]:
    """Shortest cycle inside SCC c through one edge of `xs` and one of `ys`:
    the anchor pair that comes first among the shortest, joined by BFS
    paths.  One BFS tree per start node serves every pair."""
    trees: dict[int, tuple[dict, dict]] = {}  # start -> (tree edge, depth)

    def tree(a):
        if a not in trees:
            prev, depth = {a: None}, {a: 0}
            queue = deque([a])
            while queue:
                v = queue.popleft()
                for e in adj[v]:
                    w = dst[e]
                    if w not in prev and comp_of[w] == c:
                        prev[w], depth[w] = e, depth[v] + 1
                        queue.append(w)
            trees[a] = prev, depth
        return trees[a]

    def path(a, b):
        prev, out = tree(a)[0], []
        while b != a:
            out.append(prev[b])
            b = src[prev[b]]
        return out[::-1]

    best = None  # (length, ex, ey)
    for ex in xs:
        for ey in ys:
            if ex == ey:
                length = 1 + tree(dst[ex])[1][src[ex]]
            else:
                length = 2 + tree(dst[ex])[1][src[ey]] + tree(dst[ey])[1][src[ex]]
            if best is None or length < best[0]:
                best = (length, ex, ey)
    _, ex, ey = best
    if ex == ey:
        return [ex] + path(dst[ex], src[ex])
    return [ex] + path(dst[ex], src[ey]) + [ey] + path(dst[ey], src[ex])


def incl_det(a: ParityAutomaton, q: int, b: ParityAutomaton, p: int):
    """L(a from q) included in L(b from p)?  True, or a counterexample UPWord."""
    if not (a.deterministic and b.deterministic):
        raise ValueError("incl_det needs deterministic automata")
    return _included(_product(a, complement_det(b), [(q, p)])[0])


def incl_nd_in_det(a: ParityAutomaton, b: ParityAutomaton, q=None, p=None):
    """L(a) included in L(b) for possibly nondeterministic, eps-carrying `a`
    and deterministic `b`; eps moves of `a` stutter `b`."""
    if not b.deterministic:
        raise ValueError("right-hand side must be deterministic")
    q = a.initial if q is None else q
    p = b.initial if p is None else p
    return _included(_product(a, complement_det(b), [(q, p)])[0])


def disjoint_from_det(a: ParityAutomaton, b: ParityAutomaton) -> bool:
    """Whether L(a) and L(b) share no word, for possibly nondeterministic,
    eps-carrying `a` and deterministic `b`, without building a common word.

    With `b` the complement of a deterministic `c` this is whether
    `incl_nd_in_det(a, c)` is True; a caller that asks this for many `a`
    that differ by added transitions extends one `DetProduct` instead."""
    return not DetProduct(a, b).has_common_word()


class DetProduct:
    """The product of an automaton `a` (may be nondeterministic and carry
    eps) with a deterministic `b`, over all n·m state pairs as the kernel's
    integer arrays (`even_cycle_sccs`); pair (q, w) has id q·m + w.

    Each transition of `a` adds m consecutive edges, one from each pair
    (src, w): to (dst, w) for an eps-transition (coordinate 2 stutters,
    `STUTTER` in `pr2`), else to (dst, w') along b's letter-transition
    w -> w'.  `push` appends the copies of one more transition and `pop`
    removes the last pushed ones again, so a caller that tests many
    extensions of `a` builds the product once.
    """

    def __init__(self, a: ParityAutomaton, b: ParityAutomaton):
        if not b.deterministic:
            raise ValueError("right-hand side must be deterministic")
        self.m = b.n_states
        self.start = a.initial * self.m + b.initial
        self.rows = b.delta
        self.out: list[list[int]] = [[] for _ in range(a.n_states * self.m)]
        self.src: list[int] = []
        self.dst: list[int] = []
        self.pr1: list[int] = []
        self.pr2: list[int] = []
        for t in a.transitions:
            self.push(t)

    def push(self, t: Transition) -> None:
        m, out = self.m, self.out
        first, src = len(self.dst), t.src * m
        if t.is_eps:
            self.dst.extend(range(t.dst * m, t.dst * m + m))
            self.pr2.extend([STUTTER] * m)
        else:
            row = self.rows.get(t.letter)
            if row is None:
                raise ValueError(f"right-hand side has no transitions on {t.letter!r}")
            base = t.dst * m
            self.dst.extend([base + u.dst for u in row])
            self.pr2.extend([u.priority for u in row])
        self.src.extend(range(src, src + m))
        self.pr1.extend([t.priority] * m)
        for w in range(m):
            out[src + w].append(first + w)

    def pop(self) -> None:
        """Remove the copies of the last pushed transition."""
        m = self.m
        for v in self.src[-m:]:
            self.out[v].pop()
        del self.src[-m:], self.dst[-m:], self.pr1[-m:], self.pr2[-m:]

    def has_common_word(self) -> bool:
        """Whether a pair reachable from (a.initial, b.initial) lies on a
        cycle that reads a letter and whose least first and least second
        priorities are both even; pairs the initial pair does not reach
        never count."""
        return next(even_cycle_sccs(self, [self.start]), None) is not None


def noninclusion_pairs(aut: ParityAutomaton, states) -> set[tuple[int, int]]:
    """Every pair (q, p) of `states` with L(aut from q) not included in
    L(aut from p): the pairs where `incl_det(aut, q, aut, p)` is not True.

    One product of `aut` with its complement, explored from all start pairs
    at once; a start pair is not included iff it reaches an accepting SCC of
    the kernel (`reaches_even_cycle`).
    """
    starts = [(q, p) for q in states for p in states]
    g, ids = _product(aut, complement_det(aut), starts)
    bad = reaches_even_cycle(g, [ids[key] for key in starts])
    return {key for key in starts if bad[ids[key]]}


def lang_equal_det(a: ParityAutomaton, b: ParityAutomaton):
    """Language equality of deterministic automata (True or a side+witness)."""
    r = incl_det(a, a.initial, b, b.initial)
    if r is not True:
        return ("left-minus-right", r)
    r = incl_det(b, b.initial, a, a.initial)
    if r is not True:
        return ("right-minus-left", r)
    return True


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualPreorder:
    rank: dict[int, int]
    total: bool
    incomparable_witness: tuple[int, int, UPWord, UPWord] | None = None
    dropped_unreachable: tuple[int, ...] = ()

    def leq(self, q, p):
        return self.rank[q] <= self.rank[p]

    def same(self, q, p):
        return self.rank[q] == self.rank[p]


def residual_preorder(aut: ParityAutomaton) -> ResidualPreorder:
    """Inclusion preorder on state languages of a deterministic automaton.

    Unreachable states are excluded (reported in `dropped_unreachable`).
    When a pair is incomparable, `total` is False and the witness carries a
    word in each difference, for the first such pair q < p.
    """
    states = sorted(aut.reachable())
    dropped = tuple(sorted(set(aut.states()) - set(states)))
    out = noninclusion_pairs(aut, states)
    for q in states:
        for p in states:
            if q < p and (q, p) in out and (p, q) in out:
                return ResidualPreorder(
                    rank={},
                    total=False,
                    incomparable_witness=(
                        q, p, incl_det(aut, q, aut, p), incl_det(aut, p, aut, q)
                    ),
                    dropped_unreachable=dropped,
                )
    # totally preordered: rank = number of strictly smaller classes
    rank = {
        q: sum(1 for p in states if (p, q) not in out and (q, p) in out)
        for q in states
    }
    # normalise ranks to 0..k-1
    values = sorted(set(rank.values()))
    renum = {v: i for i, v in enumerate(values)}
    rank = {q: renum[v] for q, v in rank.items()}
    return ResidualPreorder(rank=rank, total=True, dropped_unreachable=dropped)


def residual_congruence(aut: ParityAutomaton) -> Congruence:
    """Language-equality classes of states (q ~ p iff L(q) = L(p)).

    Requires all states reachable; trim first.  Works for deterministic
    automata.
    """
    out = noninclusion_pairs(aut, aut.states())
    groups: list[list[int]] = []
    for q in aut.states():
        for g in groups:
            if (q, g[0]) not in out and (g[0], q) not in out:
                g.append(q)
                break
        else:
            groups.append([q])
    return congruence_from_classes(aut.n_states, groups)


def residual_automaton(aut: ParityAutomaton):
    """Quotient structure of a deterministic automaton by language equality.

    Returns (structure, congruence): the structure is a ParityAutomaton whose
    priorities are all zero placeholders (it is an automaton structure, the
    transitions [u] -a-> [ua]), over the reachable part of `aut`.
    """
    trimmed = aut.trim()
    cong = residual_congruence(trimmed)
    k = cong.n_classes
    seen = set()
    trans = []
    for t in trimmed.transitions:
        key = (cong.class_of[t.src], t.letter, 0, cong.class_of[t.dst])
        if key not in seen:
            seen.add(key)
            trans.append(Transition(*key))
    origin = tuple(
        "+".join(trimmed.origin_label(q) for q in cong.members(c)) for c in range(k)
    )
    structure = ParityAutomaton(
        n_states=k,
        alphabet=trimmed.alphabet,
        initial=cong.class_of[trimmed.initial],
        transitions=tuple(trans),
        priority_range=(0, 0),
        deterministic=True,
        origin=origin,
    )
    return structure, cong


# ---------------------------------------------------------------------------
# Safe languages
# ---------------------------------------------------------------------------


def check_det_over_geq(aut: ParityAutomaton, x: int):
    for q in aut.states():
        for a in aut.alphabet:
            if sum(1 for t in aut.succ(q, a) if t.priority >= x) > 1:
                return f"state {q} has several >= {x} transitions on {a!r}"
    return True


def safe_incl(aut: ParityAutomaton, x: int, q: int, p: int):
    """Is the (<x)-safe language of q included in that of p?

    Requires determinism over transitions with priority >= x.  Returns True
    or a separating finite word (readable (<x)-safely from q but not p).
    """
    ok = check_det_over_geq(aut, x)
    if ok is not True:
        raise ValueError(f"not deterministic over >= {x} transitions: {ok}")

    def step(s, a):
        for t in aut.succ(s, a):
            if t.priority >= x and not t.is_eps:
                return t.dst
        return None

    start = (q, p)
    prev: dict[tuple[int, int], tuple[tuple[int, int], str]] = {start: None}
    queue = deque([start])
    while queue:
        s, t = queue.popleft()
        for a in aut.alphabet:
            s2 = step(s, a)
            if s2 is None:
                continue
            t2 = step(t, a)
            if t2 is None:
                word = [a]
                node = (s, t)
                while prev[node] is not None:
                    node, letter = prev[node]
                    word.append(letter)
                return tuple(reversed(word))
            if (s2, t2) not in prev:
                prev[(s2, t2)] = ((s, t), a)
                queue.append((s2, t2))
    return True
