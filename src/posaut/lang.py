"""Semantic language operations on parity automata.

Complementation of deterministic automata, inclusion with ultimately
periodic counterexamples, the residual preorder and automaton of residuals,
and safe-language inclusion.  Every product with a deterministic automaton
comes from one of two builders: `product`, the part reachable from given
start pairs, and `DetProduct`, all pairs of states as integer arrays that
grow and shrink by one transition (`push`, `pop`).  Inclusion is emptiness
of the product with the complement, decided by the parity-cycle kernel
(`automaton.even_cycle_sccs`): a common word exists iff a reachable cycle
reads a letter and has even least priorities in both coordinates.  Only then
is the witness lasso built, on the kernel's accepting edges alone: for each
even pair (x, y) with anchors, a shortest cycle through a coordinate-1
priority-x and a coordinate-2 priority-y edge inside one SCC of the
accepting edges >= (x, y), found by one bounded forward and one bounded
backward breadth-first ball per x-anchor, behind its spine, the path to it
in the product's own breadth-first tree (`automaton.tree_word`); the
shortest such lasso, made canonical, is the witness.  The residual
relations come from one `DetProduct` over all pairs of states at once
(`noninclusion_pairs`), and the eps-completion loop extends one
`DetProduct` in place.  Safe-language inclusion at a level x is likewise one
backward search over all pairs of states (`SafeInclusion`), from which each
separating word is rebuilt on demand.
"""

from __future__ import annotations

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
    rebuild,
    tarjan_edges,
    tree_word,
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


def product(out, b: ParityAutomaton, starts) -> tuple[EdgeGraph, dict]:
    """The product of a graph with the deterministic `b`, reachable from the
    (node, state of b) pairs in `starts`, explored breadth first (`explore`).

    out[s] lists the transitions leaving node s, in order.  An
    eps-transition stutters b (second priority `STUTTER`); a letter
    transition moves b along its row of `b.delta`.  Each edge carries the
    transition's priority first and is labelled with the letter it reads,
    or EPS."""
    rows = b.delta

    def step(key):
        s, q = key
        for t in out[s]:
            if t.is_eps:
                yield (t.dst, q), t.priority, STUTTER, EPS
                continue
            row = rows.get(t.letter)
            if row is None:
                raise ValueError(f"right-hand side has no transitions on {t.letter!r}")
            u = row[q]
            yield (t.dst, u.dst), t.priority, u.priority, t.letter

    return explore(starts, step)


def _shortest_lasso(g: EdgeGraph, acc: list[int]) -> UPWord:
    """The canonical shortest lasso from node 0 of a product explored from
    that one start (`product`), given its accepting edges `acc` (those of
    the kernel's accepting SCCs) in id order.

    For each even pair (x, y), the accepting edges >= (x, y) are split into
    SCCs by one Tarjan pass from the x-anchors (first priority x); a pair
    without x-anchors or y-anchors (second priority y, never a stutter) is
    skipped.  Each SCC with both gives a candidate: the shortest cycle
    through such a pair (`_cycle_through`), behind the path from node 0 to
    it in the product's own breadth-first tree (`tree_word`).  The fewest
    letters win, then the least (u, v).  No SCC is lost: an inner edge of an
    SCC of all edges >= (x, y) that holds both anchors lies on a cycle
    through both, with least priorities (x, y), so it is accepting."""
    src, dst, pr1, pr2, label = g.src, g.dst, g.pr1, g.pr2, g.label
    n = len(g.out)
    best: tuple[int, tuple, tuple] | None = None  # (length, u, v)
    for x in sorted({pr1[e] for e in acc if pr1[e] % 2 == 0}):
        for y in sorted({pr2[e] for e in acc if pr2[e] % 2 == 0}):  # STUTTER is odd
            sub = [e for e in acc if pr1[e] >= x and pr2[e] >= y]
            roots = [src[e] for e in sub if pr1[e] == x]
            if not roots or all(pr2[e] != y for e in sub):
                continue
            adj: list[list[int]] = [[] for _ in range(n)]
            for e in sub:
                adj[src[e]].append(e)
            comp_of, _ = tarjan_edges(roots, adj, dst, n)
            xs, ys = {}, {}  # SCC -> its x- and y-anchors, in id order
            ahead, behind = [[] for _ in range(n)], [[] for _ in range(n)]  # inner edges
            for e in sub:
                c = comp_of[src[e]]
                if c == comp_of[dst[e]]:
                    ahead[src[e]].append(e)
                    behind[dst[e]].append(e)
                    if pr1[e] == x:
                        xs.setdefault(c, []).append(e)
                    if pr2[e] == y:
                        ys.setdefault(c, []).append(e)
            for c in xs.keys() & ys.keys():
                cycle = _cycle_through(ahead, behind, src, dst, xs[c], ys[c])
                u = tuple(a for a in tree_word(g, src[cycle[0]]) if a != EPS)
                v = tuple(label[e] for e in cycle if label[e] != EPS)
                cand = (len(u) + len(v), u, v)
                if best is None or cand < best:
                    best = cand
    return UPWord(best[1], best[2]).canonical()


def _ball(adj, ends, a, limit):
    """Breadth-first search from node a along `adj` (edge e leads to
    ends[e]), no deeper than `limit` (None: unbounded): the edge that
    discovered each node reached, and the node's depth."""
    prev, depth = {a: -1}, {a: 0}
    frontier, d = [a], 0
    while frontier and (limit is None or d < limit):
        d += 1
        reached = []
        for v in frontier:
            for e in adj[v]:
                w = ends[e]
                if w not in depth:
                    prev[w], depth[w] = e, d
                    reached.append(w)
        frontier = reached
    return prev, depth


def _cycle_through(ahead, behind, src, dst, xs, ys) -> list[int]:
    """Shortest cycle inside one SCC through an edge of `xs` and one of
    `ys`: the pair (ex, ey) that comes first among the shortest, joined by
    the paths of the breadth-first trees from dst[ex] and dst[ey] along the
    SCC's edges (`ahead`).  Per ex, a forward ball from its head and a
    backward ball (`behind`) to its tail, each no deeper than a cycle
    shorter than the best so far allows, score every ey by lookups."""
    tails: dict[int, list[tuple[int, int]]] = {}  # node -> (index, ey)
    for i, ey in enumerate(ys):
        tails.setdefault(src[ey], []).append((i, ey))
    best = None  # (length, ex, ey, forward tree from dst[ex])
    for ex in xs:
        limit = None if best is None else best[0] - 2
        prev, fwd = _ball(ahead, dst, dst[ex], limit)
        back = _ball(behind, src, src[ex], limit)[1]
        first = min(
            (
                (1 + d if ey == ex else 2 + d + back[dst[ey]], i, ey)
                for w, d in fwd.items()
                for i, ey in tails.get(w, ())
                if ey == ex or dst[ey] in back
            ),
            default=None,
        )
        if first and (best is None or first[0] < best[0]):
            best = (first[0], ex, first[2], prev)
    length, ex, ey, prev = best

    def path(tree, a, b):  # the edges from a to b in `tree`
        out = []
        while b != a:
            out.append(tree[b])
            b = src[tree[b]]
        return out[::-1]

    if ex == ey:
        return [ex] + path(prev, dst[ex], src[ex])
    tree = _ball(ahead, dst, dst[ey], length - 2)[0]
    return [ex] + path(prev, dst[ex], src[ey]) + [ey] + path(tree, dst[ey], src[ex])


def incl_det(a: ParityAutomaton, q: int, b: ParityAutomaton, p: int):
    """L(a from q) included in L(b from p)?  True, or a counterexample UPWord."""
    if not (a.deterministic and b.deterministic):
        raise ValueError("incl_det needs deterministic automata")
    return incl_nd_in_det(a, b, q, p)


def incl_nd_in_det(a: ParityAutomaton, b: ParityAutomaton, q=None, p=None):
    """L(a) included in L(b) for possibly nondeterministic, eps-carrying `a`
    and deterministic `b`; eps moves of `a` stutter `b`.  True when the
    kernel finds no common word of `a` and the complement of `b`, else the
    shortest lasso, searched on the product's accepting edges."""
    if not b.deterministic:
        raise ValueError("right-hand side must be deterministic")
    q = a.initial if q is None else q
    p = b.initial if p is None else p
    g = product(a.by_src, complement_det(b), [(q, p)])[0]
    acc = sorted(e for inner in even_cycle_sccs(g, [0]) for e in inner)
    return _shortest_lasso(g, acc) if acc else True


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

    One `DetProduct` of `aut` with its complement over all pairs of states;
    a start pair is not included iff it reaches an accepting SCC of the
    kernel (`reaches_even_cycle`).
    """
    if not aut.deterministic or aut.has_eps:
        raise ValueError("noninclusion_pairs needs a deterministic eps-free automaton")
    n = aut.n_states
    bad = reaches_even_cycle(
        DetProduct(aut, complement_det(aut)), [q * n + p for q in states for p in states]
    )
    return {(q, p) for q in states for p in states if bad[q * n + p]}


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
    structure = rebuild(
        trimmed, trimmed.states(), cong.class_of, lambda t: 0, deterministic=True
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


class SafeInclusion:
    """Inclusion between the (<x)-safe languages of all pairs of states of
    `aut`: the finite words a state reads with priorities >= x only.

    Built on the first pair asked for, which raises ValueError unless `aut`
    is deterministic over its >= x transitions.  One backward breadth-first
    search over state pairs, O(n²·|Σ|), starts from the pairs (q, p) where q
    has a >= x move on some letter and p has none, and records for every
    pair that is not included the length of its shortest separating word.
    """

    def __init__(self, aut: ParityAutomaton, x: int):
        self.aut = aut
        self.x = x
        self._step: list[list[int | None]] | None = None  # per letter, per state
        self._dist: list[int] = []  # per pair q·n + p; 0 when included

    def _relation(self):
        if self._step is not None:
            return self._step, self._dist
        aut, x, n = self.aut, self.x, self.aut.n_states
        ok = check_det_over_geq(aut, x)
        if ok is not True:
            raise ValueError(f"not deterministic over >= {x} transitions: {ok}")
        step = [
            [next((t.dst for t in aut.succ(q, a) if t.priority >= x), None) for q in aut.states()]
            for a in aut.alphabet
        ]
        back = [[[] for _ in range(n)] for _ in step]
        dist = [0] * (n * n)
        queue = []
        for row, pred in zip(step, back):
            moving = []
            for q, q2 in enumerate(row):
                if q2 is not None:
                    pred[q2].append(q)
                    moving.append(q)
            for q in moving:
                for p, p2 in enumerate(row):
                    if p2 is None and not dist[q * n + p]:
                        dist[q * n + p] = 1
                        queue.append(q * n + p)
        for v in queue:  # grows while it is read: breadth first
            q2, p2 = divmod(v, n)
            d = dist[v] + 1
            for pred in back:
                ps = pred[p2]
                if not ps:
                    continue
                for q in pred[q2]:
                    for p in ps:
                        if not dist[q * n + p]:
                            dist[q * n + p] = d
                            queue.append(q * n + p)
        self._step, self._dist = step, dist
        return step, dist

    def holds(self, q: int, p: int) -> bool:
        """Is the (<x)-safe language of q included in that of p?"""
        return not self._relation()[1][q * self.aut.n_states + p]

    def check(self, q: int, p: int):
        """True, or the separating word `safe_incl` returns: the shortest
        word readable (<x)-safely from q but not from p, least in alphabet
        order.  Rebuilt letter by letter: each step takes the first letter
        whose pair of successors is one letter closer to separation."""
        step, dist = self._relation()
        n, letters = self.aut.n_states, self.aut.alphabet
        d = dist[q * n + p]
        if not d:
            return True
        word = []
        for left in range(d - 1, 0, -1):
            a, q, p = next(
                (a, row[q], row[p])
                for a, row in zip(letters, step)
                if row[q] is not None and row[p] is not None and dist[row[q] * n + row[p]] == left
            )
            word.append(a)
        word.append(next(a for a, row in zip(letters, step) if row[q] is not None and row[p] is None))
        return tuple(word)


def safe_incl(aut: ParityAutomaton, x: int, q: int, p: int):
    """Is the (<x)-safe language of q included in that of p?

    Requires determinism over transitions with priority >= x.  Returns True
    or a separating finite word (readable (<x)-safely from q but not p): the
    shortest, least in alphabet order.  A caller asking about many pairs
    builds one `SafeInclusion` instead.
    """
    return SafeInclusion(aut, x).check(q, p)
