"""Semantic language operations on parity automata.

Complementation of deterministic automata, inclusion with ultimately
periodic counterexamples, the residual preorder and automaton of residuals,
and safe-language inclusion.  Inclusion is decided on the product with the
complement: the product accepts a common word iff for some even pair (x, y)
its restriction to coordinate priorities >= (x, y) has a reachable SCC
containing both a coordinate-1 priority-x and a coordinate-2 priority-y
transition; the witness is a shortest lasso through both.  The residual
relations come from one such product over all pairs of states at once
(`noninclusion_pairs`); counterexamples are built only for the pair a
caller reports.  Emptiness alone is decided on `DetProduct`, integer arrays
over all state pairs that a caller can extend and shrink in place, by one
recursive SCC decomposition instead of a pass per even pair.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, replace

from .automaton import (
    EPS,
    Congruence,
    ParityAutomaton,
    Transition,
    UPWord,
    congruence_from_classes,
    tarjan_edges,
    tarjan_scc,
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
# Product graphs and the even-pair cycle search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PEdge:
    src: int
    dst: int
    letter: str  # EPS when only the first coordinate moved
    pr1: int
    pr2: int | None  # None when the second coordinate stuttered


def _explore_product(a1: ParityAutomaton, a2: ParityAutomaton, starts):
    """Product of a1 (may have eps) with deterministic a2, reachable from the
    (q1, q2) pairs in `starts`, which get the first node ids in that order.

    Eps moves of a1 stutter a2 and carry no second-coordinate priority.
    Returns (node index map, edge list).
    """
    nodes: dict[tuple[int, int], int] = {}

    def nid(key):
        if key not in nodes:
            nodes[key] = len(nodes)
            queue.append(key)
        return nodes[key]

    queue: deque[tuple[int, int]] = deque()
    for key in starts:
        nid(key)
    edges: list[_PEdge] = []
    while queue:
        s, t = queue.popleft()
        sid = nodes[(s, t)]
        for tr in a1.by_src[s]:
            if tr.is_eps:
                edges.append(_PEdge(sid, nid((tr.dst, t)), EPS, tr.priority, None))
            else:
                u = a2.dsucc(t, tr.letter)
                edges.append(
                    _PEdge(sid, nid((tr.dst, u.dst)), tr.letter, tr.priority, u.priority)
                )
    return nodes, edges


def _even_pair_sccs(n, edges):
    """For each even pair (x, y): the edges with coordinate priorities
    >= (x, y), their SCC map, and the accepting SCCs among them.

    An SCC is accepting when it holds a coordinate-1 priority-x edge and a
    coordinate-2 priority-y edge inside it; it maps to those anchor edges.
    Coordinate-2 stutters (pr2 None) may lie on its cycles but never anchor
    them, which excludes cycles that are all-eps in coordinate 1.  The
    product accepts a common word from a node iff the node reaches an
    accepting SCC of some even pair.
    """
    pr1s = sorted({e.pr1 for e in edges if e.pr1 % 2 == 0})
    pr2s = sorted({e.pr2 for e in edges if e.pr2 is not None and e.pr2 % 2 == 0})
    for x in pr1s:
        for y in pr2s:
            sub = [e for e in edges if e.pr1 >= x and (e.pr2 is None or e.pr2 >= y)]
            comp_of = _scc_map(n, sub)
            comps_x: dict[int, list[_PEdge]] = {}
            comps_y: dict[int, list[_PEdge]] = {}
            for e in sub:
                if comp_of[e.src] == comp_of[e.dst]:
                    c = comp_of[e.src]
                    if e.pr1 == x:
                        comps_x.setdefault(c, []).append(e)
                    if e.pr2 == y:
                        comps_y.setdefault(c, []).append(e)
            accepting = {
                c: (comps_x[c], comps_y[c]) for c in sorted(comps_x.keys() & comps_y.keys())
            }
            yield sub, comp_of, accepting


def _even_pair_lasso(nodes, edges, start) -> UPWord | None:
    """Shortest lasso from `start` through an accepting SCC of some even pair,
    or None; every node of the product must be reachable from `start`."""
    n = len(nodes)
    best: tuple[int, tuple, tuple] | None = None  # (length, u, v)
    pred = _bfs_tree(n, edges, start)
    for sub, comp_of, accepting in _even_pair_sccs(n, edges):
        for c, (x_edges, y_edges) in accepting.items():
            entry, cycle_edges = _cycle_through(sub, comp_of, c, x_edges, y_edges)
            u = _path_letters(pred, start, entry)
            v = tuple(e.letter for e in cycle_edges if e.letter != EPS)
            cand = (len(u) + len(v), u, v)
            if best is None or cand < best:
                best = cand
    if best is None:
        return None
    return UPWord(best[1], best[2]).canonical()


def _bfs_tree(n, edges, start):
    adj = [[] for _ in range(n)]
    for e in edges:
        adj[e.src].append(e)
    pred: list[_PEdge | None] = [None] * n
    seen = [False] * n
    seen[start] = True
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for e in adj[v]:
            if not seen[e.dst]:
                seen[e.dst] = True
                pred[e.dst] = e
                queue.append(e.dst)
    return pred


def _path_letters(pred, start, target):
    letters = []
    v = target
    while v != start:
        e = pred[v]
        if e.letter != EPS:
            letters.append(e.letter)
        v = e.src
    return tuple(reversed(letters))


def _scc_map(n, edges):
    comps = tarjan_scc(n, ((e.src, e.dst) for e in edges))
    comp_of = [0] * n
    for i, comp in enumerate(comps):
        for q in comp:
            comp_of[q] = i
    return comp_of


def _cycle_through(sub, comp_of, comp, x_edges, y_edges):
    """Shortest cycle inside one SCC through one x-anchor and one y-anchor."""
    adj: dict[int, list[_PEdge]] = {}
    for e in sub:
        if comp_of[e.src] == comp and comp_of[e.dst] == comp:
            adj.setdefault(e.src, []).append(e)

    def shortest(src, dst):
        if src == dst:
            return []
        dist = {src: None}
        queue = deque([src])
        prev = {}
        while queue:
            v = queue.popleft()
            for e in adj.get(v, ()):
                if e.dst not in dist:
                    dist[e.dst] = True
                    prev[e.dst] = e
                    if e.dst == dst:
                        path = []
                        w = dst
                        while w != src:
                            path.append(prev[w])
                            w = prev[w].src
                        return list(reversed(path))
                    queue.append(e.dst)
        return None

    best = None
    for ex in x_edges:
        for ey in y_edges:
            if ex is ey:
                back = shortest(ex.dst, ex.src)
                if back is None:
                    continue
                cyc = [ex] + back
            else:
                mid = shortest(ex.dst, ey.src)
                if mid is None:
                    continue
                back = shortest(ey.dst, ex.src)
                if back is None:
                    continue
                cyc = [ex] + mid + [ey] + back
            if best is None or len(cyc) < len(best):
                best = cyc
    if best is None:
        return None
    return best[0].src, best


def incl_det(a: ParityAutomaton, q: int, b: ParityAutomaton, p: int):
    """L(a from q) included in L(b from p)?  True, or a counterexample UPWord."""
    if not (a.deterministic and b.deterministic):
        raise ValueError("incl_det needs deterministic automata")
    nodes, edges = _explore_product(a, complement_det(b), [(q, p)])
    witness = _even_pair_lasso(nodes, edges, 0)
    return True if witness is None else witness


def incl_nd_in_det(a: ParityAutomaton, b: ParityAutomaton, q=None, p=None):
    """L(a) included in L(b) for possibly nondeterministic, eps-carrying `a`
    and deterministic `b`; eps moves of `a` stutter `b`."""
    if not b.deterministic:
        raise ValueError("right-hand side must be deterministic")
    q = a.initial if q is None else q
    p = b.initial if p is None else p
    nodes, edges = _explore_product(a, complement_det(b), [(q, p)])
    witness = _even_pair_lasso(nodes, edges, 0)
    return True if witness is None else witness


def disjoint_from_det(a: ParityAutomaton, b: ParityAutomaton) -> bool:
    """Whether L(a) and L(b) share no word, for possibly nondeterministic,
    eps-carrying `a` and deterministic `b`, without building a common word.

    With `b` the complement of a deterministic `c` this is whether
    `incl_nd_in_det(a, c)` is True; a caller that asks this for many `a`
    that differ by added transitions extends one `DetProduct` instead."""
    return not DetProduct(a, b).has_common_word()


STUTTER = sys.maxsize  # second priority of a product edge on which `b` stutters


class DetProduct:
    """The product of an automaton `a` (may be nondeterministic and carry
    eps) with a deterministic `b`, over all n·m state pairs as integer
    arrays; pair (q, w) has id q·m + w.

    Each transition of `a` adds m consecutive edges, one from each pair
    (src, w): to (dst, w) for an eps-transition (coordinate 2 stutters and
    has no priority, `STUTTER` in `pr2`), else to (dst, w') along b's
    letter-transition w -> w'.  `push` appends the copies of one more
    transition and `pop` removes the last pushed ones again, so a caller
    that tests many extensions of `a` builds the product once.
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
        priorities (stutters carry none) are both even.

        Recursive SCC decomposition (Emerson and Lei): an SCC whose internal
        edges have least priorities (x, y) holds such a cycle if x and y are
        both even and none if it reads no letter; otherwise its candidate
        cycles avoid the edges that carry an odd x or an odd y, and what is
        left is decomposed at the next level.  Each level raises an odd
        least priority, so there are at most as many levels as odd
        priorities; one Tarjan pass finds all SCCs of a level.  The first
        pass starts at the initial pair only, so unreachable pairs never
        count."""
        src, dst, pr1, pr2 = self.src, self.dst, self.pr1, self.pr2
        adj = self.out
        roots = [self.start]
        while True:
            comp_of, comps = tarjan_edges(roots, adj, dst, len(self.out))
            keep = []
            for c, members in enumerate(comps):
                inner = [e for v in members for e in adj[v] if comp_of[dst[e]] == c]
                if not inner:
                    continue
                y = min(map(pr2.__getitem__, inner))
                if y == STUTTER:
                    continue
                x = min(map(pr1.__getitem__, inner))
                if x % 2 == 0 and y % 2 == 0:
                    return True
                if x % 2:
                    inner = [e for e in inner if pr1[e] != x]
                if y % 2:
                    inner = [e for e in inner if pr2[e] != y]
                keep.extend(inner)
            if not keep:
                return False
            adj = [[] for _ in range(len(self.out))]
            for e in keep:
                adj[src[e]].append(e)
            roots = [src[e] for e in keep]


def noninclusion_pairs(aut: ParityAutomaton, states) -> set[tuple[int, int]]:
    """Every pair (q, p) of `states` with L(aut from q) not included in
    L(aut from p): the pairs where `incl_det(aut, q, aut, p)` is not True.

    One product of `aut` with its complement is explored from all start
    pairs at once; a start pair is not included iff it reaches an accepting
    SCC of some even pair, found by one backward search.
    """
    starts = [(q, p) for q in states for p in states]
    nodes, edges = _explore_product(aut, complement_det(aut), starts)
    n = len(nodes)
    bad = [False] * n
    for _, comp_of, accepting in _even_pair_sccs(n, edges):
        for v in range(n):
            if comp_of[v] in accepting:
                bad[v] = True
    radj: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        radj[e.dst].append(e.src)
    stack = [v for v in range(n) if bad[v]]
    while stack:
        for u in radj[stack.pop()]:
            if not bad[u]:
                bad[u] = True
                stack.append(u)
    return {key for key in starts if bad[nodes[key]]}


def lang_equal_det(a: ParityAutomaton, b: ParityAutomaton):
    """Language equality of deterministic automata (True or a side+witness)."""
    r = incl_det(a, a.initial, b, b.initial)
    if r is not True:
        return ("left-minus-right", r)
    r = incl_det(b, b.initial, a, a.initial)
    if r is not True:
        return ("right-minus-left", r)
    return True


def lang_empty_from(aut: ParityAutomaton, q: int) -> bool:
    """Is L(aut from q) empty?  Existential over runs (eps allowed)."""
    nodes: dict[int, int] = {}

    def nid(s):
        if s not in nodes:
            nodes[s] = len(nodes)
        return nodes[s]

    nid(q)
    edges = []
    stack, seen = [q], {q}
    while stack:
        s = stack.pop()
        for t in aut.by_src[s]:
            edges.append(
                _PEdge(nodes[s], nid(t.dst), t.letter, t.priority, t.priority)
            )
            if t.dst not in seen:
                seen.add(t.dst)
                stack.append(t.dst)
    n = len(nodes)
    for x in sorted({t.priority for t in aut.transitions}):
        if x % 2 != 0:
            continue
        sub = [e for e in edges if e.pr1 >= x]
        comp_of = _scc_map(n, sub)
        marked = set()
        consuming = set()
        for e in sub:
            if comp_of[e.src] == comp_of[e.dst]:
                if e.pr1 == x:
                    marked.add(comp_of[e.src])
                if e.letter != EPS:
                    consuming.add(comp_of[e.src])
        if marked & consuming:
            return False
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
