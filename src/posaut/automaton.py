"""Core data model for transition-based parity automata over infinite words.

States are dense integers 0..n-1.  Acceptance is min-even parity on the
transitions: a run is accepting iff the minimal priority produced infinitely
often is even.  The reserved letter token ``eps`` marks epsilon transitions;
it never belongs to the declared alphabet.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
import re
import sys

EPS = "eps"

_TOKEN_RE = re.compile(r"^[a-zA-Z0-9_]+$")


class FormatError(ValueError):
    """Raised on malformed text-format input; carries line information."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Transition:
    src: int
    letter: str
    priority: int
    dst: int

    @property
    def is_eps(self):
        return self.letter == EPS

    def __repr__(self):
        return f"{self.src}-{self.letter}:{self.priority}->{self.dst}"


@dataclass(frozen=True)
class ParityAutomaton:
    """A (possibly nondeterministic, possibly epsilon-carrying) parity automaton.

    Immutable.  `deterministic` is a declared flag, checked by `validate`;
    it asserts exactly one a-transition per (state, letter) and no epsilon
    transitions.
    """

    n_states: int
    alphabet: tuple[str, ...]
    initial: int
    transitions: tuple[Transition, ...]
    priority_range: tuple[int, int]
    deterministic: bool = False

    # -- derived lookups ---------------------------------------------------

    @cached_property
    def by_src(self) -> tuple[tuple[Transition, ...], ...]:
        out = [[] for _ in range(self.n_states)]
        for t in self.transitions:
            out[t.src].append(t)
        return tuple(tuple(ts) for ts in out)

    @cached_property
    def by_src_letter(self) -> dict[tuple[int, str], tuple[Transition, ...]]:
        out: dict[tuple[int, str], list[Transition]] = {}
        for t in self.transitions:
            out.setdefault((t.src, t.letter), []).append(t)
        return {k: tuple(v) for k, v in out.items()}

    def succ(self, q: int, letter: str) -> tuple[Transition, ...]:
        return self.by_src_letter.get((q, letter), ())

    def dsucc(self, q: int, letter: str) -> Transition:
        """The unique letter-transition from q (deterministic automata)."""
        ts = self.succ(q, letter)
        if len(ts) != 1:
            raise ValueError(f"state {q} has {len(ts)} transitions on {letter!r}")
        return ts[0]

    @cached_property
    def delta(self) -> dict[str, tuple[Transition, ...]]:
        """Per letter of the alphabet, the unique letter-transition from every
        state, in state order (deterministic automata; `dsucc` as a table,
        raising its ValueError for the first bad cell in letter, state order)."""
        rows = {a: [None] * self.n_states for a in self.alphabet}
        for t in self.transitions:
            row = rows.get(t.letter)
            if row is not None:
                row[t.src] = t if row[t.src] is None else False
        for a, row in rows.items():
            for q, t in enumerate(row):
                if not t:
                    self.dsucc(q, a)
        return {a: tuple(row) for a, row in rows.items()}

    @property
    def d_min(self):
        return self.priority_range[0]

    @property
    def d_max(self):
        return self.priority_range[1]

    @cached_property
    def has_eps(self):
        return any(t.is_eps for t in self.transitions)

    def states(self):
        return range(self.n_states)

    # -- validation --------------------------------------------------------

    def validate(self) -> list[str]:
        """Structural diagnostics; an empty list means the automaton is well formed.

        Unreachable states are reported as warnings (prefix ``warning:``),
        everything else is a violation; reachability is not checked when a
        transition references an unknown state.
        """
        issues = []
        if self.n_states <= 0:
            issues.append("automaton must have at least one state")
            return issues
        if not (0 <= self.initial < self.n_states):
            issues.append(f"initial state {self.initial} out of range")
        seen_alpha = set()
        for a in self.alphabet:
            if not _TOKEN_RE.match(a):
                issues.append(f"bad letter token {a!r}")
            if a == EPS:
                issues.append("reserved token 'eps' occurs in the alphabet")
            if a in seen_alpha:
                issues.append(f"duplicate letter {a!r} in alphabet")
            seen_alpha.add(a)
        dmin, dmax = self.priority_range
        if dmin > dmax:
            issues.append(f"empty priority range [{dmin}, {dmax}]")
        dangling = False
        for t in self.transitions:
            if not (0 <= t.src < self.n_states and 0 <= t.dst < self.n_states):
                issues.append(f"transition {t} references an unknown state")
                dangling = True
            if t.letter != EPS and t.letter not in seen_alpha:
                issues.append(f"transition {t} uses undeclared letter {t.letter!r}")
            if not (dmin <= t.priority <= dmax):
                issues.append(f"transition {t} priority outside [{dmin}, {dmax}]")
        # completeness over the declared alphabet (eps never counts)
        for q in self.states():
            for a in self.alphabet:
                if not self.succ(q, a):
                    issues.append(f"state {q} missing {a}-transition")
        if self.deterministic:
            for q in self.states():
                for a in self.alphabet:
                    if len(self.succ(q, a)) > 1:
                        issues.append(
                            f"declared deterministic but state {q} has "
                            f"{len(self.succ(q, a))} transitions on {a!r}"
                        )
                if self.succ(q, EPS):
                    issues.append(
                        f"declared deterministic but state {q} has eps-transitions"
                    )
        if dangling:  # reachability needs every transition inside the states
            return issues
        unreachable = set(self.states()) - set(self.reachable())
        for q in sorted(unreachable):
            issues.append(f"warning: state {q} unreachable from initial")
        return issues

    def check_valid(self):
        problems = [m for m in self.validate() if not m.startswith("warning:")]
        if problems:
            raise ValueError("invalid automaton: " + "; ".join(problems))

    # -- reachability / trimming -------------------------------------------

    def reachable(self, start: int | None = None) -> list[int]:
        start = self.initial if start is None else start
        if not (0 <= start < self.n_states):
            return []
        seen = [False] * self.n_states
        seen[start] = True
        stack = [start]
        order = [start]
        while stack:
            q = stack.pop()
            for t in self.by_src[q]:
                if not seen[t.dst]:
                    seen[t.dst] = True
                    stack.append(t.dst)
                    order.append(t.dst)
        return order

    def trim(self) -> "ParityAutomaton":
        """Drop unreachable states, keeping ids dense and transition order."""
        keep = sorted(self.reachable())
        if len(keep) == self.n_states:
            return self
        remap = {q: i for i, q in enumerate(keep)}
        trans = tuple(
            Transition(remap[t.src], t.letter, t.priority, remap[t.dst])
            for t in self.transitions
            if t.src in remap and t.dst in remap
        )
        return replace(
            self,
            n_states=len(keep),
            initial=remap[self.initial],
            transitions=trans,
        )

    def with_initial(self, q: int) -> "ParityAutomaton":
        return replace(self, initial=q)

    # -- simulation helpers (deterministic, eps-free) ------------------------

    def run_state(self, q: int, word) -> int:
        for a in word:
            q = self.dsucc(q, a).dst
        return q

    def run_min_priority(self, q: int, word) -> tuple[int, int | None]:
        """Final state and minimal priority along the run (None for empty word)."""
        m = None
        for a in word:
            t = self.dsucc(q, a)
            m = t.priority if m is None else min(m, t.priority)
            q = t.dst
        return q, m


def access_word(aut: ParityAutomaton, target: int) -> tuple[str, ...] | None:
    """Shortest word reaching `target` from the initial state (eps-free BFS)."""

    def step(q):
        for t in aut.by_src[q]:
            if not t.is_eps:
                yield t.dst, 0, 0, t.letter

    g, ids = explore([aut.initial], step)
    v = ids.get(target)
    return None if v is None else tree_word(g, v)


# ---------------------------------------------------------------------------
# SCCs, safe components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Congruence:
    """Total map state-id -> class-id with contiguous class ids from 0."""

    class_of: tuple[int, ...]

    @classmethod
    def by_key(cls, keys) -> "Congruence":
        """States with equal keys (one per state, in state order) share a
        class; classes are numbered in the order of their least state."""
        ids: dict = {}
        return cls(tuple(ids.setdefault(k, len(ids)) for k in keys))

    @property
    def n_classes(self):
        return max(self.class_of) + 1 if self.class_of else 0

    def members(self, c: int) -> tuple[int, ...]:
        return tuple(q for q, cc in enumerate(self.class_of) if cc == c)

    def same(self, q: int, p: int) -> bool:
        return self.class_of[q] == self.class_of[p]


def congruence_from_classes(n_states: int, classes) -> Congruence:
    class_of = [-1] * n_states
    renum = {}
    for group in classes:
        key = min(group)
        renum[key] = None
        for q in group:
            class_of[q] = key
    for i, key in enumerate(sorted(renum)):
        renum[key] = i
    return Congruence(tuple(renum[c] for c in class_of))


def tarjan_scc(n: int, edges) -> list[list[int]]:
    """Iterative Tarjan; returns components in reverse topological order."""
    adj: list[list[int]] = [[] for _ in range(n)]
    dst: list[int] = []
    for u, v in edges:
        adj[u].append(len(dst))
        dst.append(v)
    _, comps = tarjan_edges(range(n), adj, dst, n)
    return [sorted(comp) for comp in comps]


def tarjan_edges(roots, adj, dst, n):
    """Iterative Tarjan over nodes 0..n-1, started from `roots` in order;
    `adj[v]` lists edge ids and `dst[e]` is the target of edge e.  Returns
    the component id of each node (-1 when not reached) and the components
    as member lists, in reverse topological order."""
    index = [-1] * n
    low = [0] * n
    comp_of = [-1] * n
    comps: list[list[int]] = []
    stack: list[int] = []
    counter = 0
    for root in roots:
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        work = [(root, iter(adj[root]), len(stack))]
        stack.append(root)
        while work:
            v, it, pos = work[-1]
            for e in it:
                w = dst[e]
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    work.append((w, iter(adj[w]), len(stack)))
                    stack.append(w)
                    break
                if comp_of[w] == -1 and index[w] < low[v]:  # w is on the stack
                    low[v] = index[w]
            else:
                work.pop()
                lv = low[v]
                if lv == index[v]:
                    c = len(comps)
                    members = stack[pos:]
                    del stack[pos:]
                    for w in members:
                        comp_of[w] = c
                    comps.append(members)
                elif lv < low[work[-1][0]]:
                    low[work[-1][0]] = lv
    return comp_of, comps


# ---------------------------------------------------------------------------
# The parity-cycle kernel
# ---------------------------------------------------------------------------

STUTTER = sys.maxsize  # odd: the priority of a coordinate that reads no letter


class EdgeGraph:
    """A directed multigraph as integer arrays, the input of `even_cycle_sccs`.

    Edge e runs from src[e] to dst[e] with priorities pr1[e] and pr2[e],
    where pr2[e] is `STUTTER` when the edge reads no letter; out[v] lists the
    ids of the edges leaving v in the order they were added, and label[e] is
    any value attached to the edge when it was added.  parent[v] is the edge
    that discovered v, -1 for a start; only `explore` fills it."""

    def __init__(self, n: int = 0):
        self.out: list[list[int]] = [[] for _ in range(n)]
        self.src: list[int] = []
        self.dst: list[int] = []
        self.pr1: list[int] = []
        self.pr2: list[int] = []
        self.label: list = []
        self.parent: list[int] = []

    def add(self, u: int, v: int, p1: int, p2: int, label=None) -> None:
        self.out[u].append(len(self.dst))
        self.src.append(u)
        self.dst.append(v)
        self.pr1.append(p1)
        self.pr2.append(p2)
        self.label.append(label)


def explore(starts, step) -> tuple[EdgeGraph, dict]:
    """The part of a product graph reachable from the node keys `starts`,
    explored breadth first.  Nodes are numbered in discovery order, `starts`
    first; `step(key)` yields one (key', p1, p2, label) per edge leaving
    `key`, and edges are numbered in that order.  The edge that discovers a
    node is its `parent`, so the parents form a breadth-first tree whose
    paths are shortest (`tree_word`).  Returns the graph and the map from
    node keys to ids, in discovery order."""
    g = EdgeGraph()
    ids: dict = {}
    queue = deque()

    def node(key, e):
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(g.out)
            g.out.append([])
            g.parent.append(e)
            queue.append(key)
        return i

    for key in starts:
        node(key, -1)
    while queue:
        key = queue.popleft()
        s = ids[key]
        for key2, p1, p2, label in step(key):  # len(g.dst): the id `add` gives
            g.add(s, node(key2, len(g.dst)), p1, p2, label)
    return g, ids


def tree_word(g: EdgeGraph, v: int) -> tuple:
    """The labels along `explore`'s tree path from a start to node v: a
    shortest word leading there."""
    word = []
    e = g.parent[v]
    while e != -1:
        word.append(g.label[e])
        e = g.parent[g.src[e]]
    return tuple(reversed(word))


def even_cycle_sccs(g, roots, priorities=None):
    """Lazily yield, for each accepting SCC of `g` reachable from `roots`,
    the ids of its inner edges.  `g` is an `EdgeGraph` or has its five
    integer arrays (`out`, `src`, `dst`, `pr1`, `pr2`).  `priorities` lists
    the coordinates, one per-edge priority array each; (pr1, pr2) by
    default.

    An SCC accepts when it holds a cycle that reads a letter and whose least
    priority in every coordinate is even; `STUTTER` never counts as a least
    priority.  Recursive SCC decomposition (Emerson and Lei): an SCC whose
    inner edges have least priorities x1..xk accepts if all of them are
    even; otherwise its candidate cycles avoid the edges that carry an odd
    xi in coordinate i, and what is left is decomposed at the next level.
    `STUTTER` is odd and above every priority, so an SCC whose least is
    `STUTTER` in some coordinate (it reads no letter) keeps no edge.  Each
    level raises
    an odd least priority, so there are at most as many levels as odd
    priorities; one Tarjan pass finds all SCCs of a level.  The edges
    yielded are exactly the edges on such cycles reachable from `roots`,
    each once."""
    src, dst = g.src, g.dst
    if priorities is None:
        priorities = (g.pr1, g.pr2)
    n = len(g.out)
    adj = g.out
    while True:
        comp_of, comps = tarjan_edges(roots, adj, dst, n)
        keep = []
        for c, members in enumerate(comps):
            inner = [e for v in members for e in adj[v] if comp_of[dst[e]] == c]
            if not inner:
                continue
            scc = inner
            for pr in priorities:
                x = min(map(pr.__getitem__, scc))
                if x % 2:
                    inner = [e for e in inner if pr[e] != x]
            if inner is scc:  # every least priority is even
                yield inner
                continue
            keep.extend(inner)
        if not keep:
            return
        adj = [[] for _ in range(n)]
        for e in keep:
            adj[src[e]].append(e)
        roots = [src[e] for e in keep]


def reaches_even_cycle(g, roots) -> list[bool]:
    """Per node of `g`, whether it reaches an accepting SCC of
    `even_cycle_sccs(g, roots)`: one backward search from their members."""
    bad = [False] * len(g.out)
    stack = []
    for inner in even_cycle_sccs(g, roots):
        for e in inner:
            v = g.src[e]
            if not bad[v]:
                bad[v] = True
                stack.append(v)
    pred: list[list[int]] = [[] for _ in g.out]
    for s, d in zip(g.src, g.dst):
        pred[d].append(s)
    while stack:
        for u in pred[stack.pop()]:
            if not bad[u]:
                bad[u] = True
                stack.append(u)
    return bad


def safe_components(aut: ParityAutomaton, x: int) -> Congruence:
    """SCC partition of the subautomaton keeping transitions with priority >= x."""
    edges = [(t.src, t.dst) for t in aut.transitions if t.priority >= x]
    return congruence_from_classes(aut.n_states, tarjan_scc(aut.n_states, edges))


# ---------------------------------------------------------------------------
# Ultimately periodic words
# ---------------------------------------------------------------------------


def _primitive_root(v: tuple[str, ...]) -> tuple[str, ...]:
    n = len(v)
    for p in range(1, n + 1):
        if n % p == 0 and v == v[: p] * (n // p):
            return v[:p]
    return v


def _min_rotation(v: tuple[str, ...]) -> tuple[str, ...]:
    return min(tuple(v[i:] + v[:i]) for i in range(len(v)))


@dataclass(frozen=True)
class UPWord:
    """Ultimately periodic word u . v^omega; v must be nonempty."""

    u: tuple[str, ...]
    v: tuple[str, ...]

    def __post_init__(self):
        if not self.v:
            raise ValueError("periodic part must be nonempty")

    def canonical(self) -> "UPWord":
        """Canonical representative: v is the lexicographically minimal rotation
        of its primitive root, u the shortest prefix compatible with that v."""
        u, v = list(self.u), list(_primitive_root(self.v))
        # absorb the spine into v as far as possible (shortest u overall)
        while u and u[-1] == v[-1]:
            u.pop()
            v = [v[-1]] + v[:-1]
        v = list(_primitive_root(tuple(v)))
        r = list(_min_rotation(tuple(v)))
        if r != v:
            # re-anchor u on the minimal rotation: u grows by the offset
            k = len(v)
            for i in range(k):
                if v[i:] + v[:i] == r:
                    u = u + v[:i]
                    v = r
                    break
        return UPWord(tuple(u), tuple(v))

    def prefix(self, n: int) -> tuple[str, ...]:
        out = list(self.u)
        while len(out) < n:
            out.extend(self.v)
        return tuple(out[:n])

    def __str__(self):
        up = " ".join(self.u) if self.u else "-"
        return f"upword: {up} | {' '.join(self.v)}"


def upword(u, v) -> UPWord:
    return UPWord(tuple(u), tuple(v))


def parse_upword(text: str) -> UPWord:
    body = text.strip()
    if body.startswith("upword:"):
        body = body[len("upword:"):]
    if "|" not in body:
        raise FormatError("upword needs 'u | v' with '|' separator")
    left, right = body.split("|", 1)
    u = tuple(left.split())
    if u == ("-",):
        u = ()
    v = tuple(right.split())
    if not v:
        raise FormatError("upword periodic part is empty")
    return UPWord(u, v)


def up_membership(aut: ParityAutomaton, w: UPWord) -> bool:
    """Does the automaton accept u . v^omega?

    The answer is existential over runs whose eps-erasure equals the word,
    with runs ending in an all-eps suffix excluded: the kernel on the
    product of the automaton with the lasso graph of the word, whose
    position i reads letter i of u.v; an eps move keeps its position and
    reads none.
    """
    for a in w.u + w.v:
        if a not in aut.alphabet:
            raise ValueError(f"letter {a!r} not in the alphabet")
    word, ulen = w.u + w.v, len(w.u)
    last = len(word) - 1

    def step(key):
        q, pos = key
        for t in aut.by_src[q]:
            if t.is_eps:
                yield (t.dst, pos), t.priority, STUTTER, None
            elif t.letter == word[pos]:
                yield (t.dst, ulen if pos == last else pos + 1), t.priority, 0, None

    g, _ = explore([(aut.initial, 0)], step)
    return next(even_cycle_sccs(g, [0]), None) is not None


# ---------------------------------------------------------------------------
# Faithful congruences and quotients
# ---------------------------------------------------------------------------


def is_faithful(aut: ParityAutomaton, cong: Congruence, x: int):
    """Check that `cong` is a [0,x]-faithful congruence.

    For every y <= x, y-transitions must be uniform over classes and the
    relation a congruence for them; for priorities > x only the congruence
    property (targets land in one class) is required.  Returns True or a
    string describing the offending transition pair.
    """
    letters = list(aut.alphabet) + ([EPS] if aut.has_eps else [])
    for q in aut.states():
        for p in aut.states():
            if p <= q or not cong.same(q, p):
                continue
            for a in letters:
                tq, tp = aut.succ(q, a), aut.succ(p, a)
                if bool(tq) != bool(tp):
                    return f"states {q}~{p}: letter {a!r} enabled on one side only"
                for t1 in tq:
                    for t2 in tp:
                        if t1.priority != t2.priority and min(t1.priority, t2.priority) <= x:
                            return (
                                f"states {q}~{p}: {t1} vs {t2} disagree on a "
                                f"priority <= {x}"
                            )
                        if not cong.same(t1.dst, t2.dst):
                            return f"states {q}~{p}: {t1} vs {t2} leave the class"
    return True


def quotient_leq_x(aut: ParityAutomaton, cong: Congruence, x: int) -> ParityAutomaton:
    """(<=x)-quotient by a [0,x]-faithful congruence (x even).

    Transitions with priority <= x keep it; those above become x+1, the
    least important odd priority of the quotient.
    """
    if x % 2 != 0:
        raise ValueError("quotient level must be even")
    ok = is_faithful(aut, cong, x)
    if ok is not True:
        raise ValueError(f"congruence is not [0,{x}]-faithful: {ok}")
    return rebuild(
        aut,
        aut.states(),
        cong.class_of,
        lambda t: min(t.priority, x + 1),
        deterministic=not aut.has_eps,
    )


def rebuild(aut: ParityAutomaton, keep, image, priority=None, **changes) -> ParityAutomaton:
    """`aut` with its states merged or redirected along the per-state `image`:
    the new states are the images of the states in `keep`, in increasing
    order, and the transitions leaving `keep` move through the image at both
    ends, with priority `priority(t)` when that is given; repeats are dropped,
    first occurrence first.  Rewritten priorities may leave the old range,
    so only then is it refitted.  `changes` sets further fields."""
    keep = set(keep)
    new_id = {s: i for i, s in enumerate(sorted({image[q] for q in keep}))}
    trans = dict.fromkeys(
        Transition(
            new_id[image[t.src]],
            t.letter,
            t.priority if priority is None else priority(t),
            new_id[image[t.dst]],
        )
        for t in aut.transitions
        if t.src in keep
    )
    if priority is not None:
        changes["priority_range"] = priority_span(trans)
    return replace(
        aut,
        n_states=len(new_id),
        initial=new_id[image[aut.initial]],
        transitions=tuple(trans),
        **changes,
    )


def priority_span(transitions) -> tuple[int, int]:
    """The least and greatest priority of `transitions`, (0, 0) for none."""
    prs = [t.priority for t in transitions] or [0]
    return min(prs), max(prs)


def one_per_src_letter(transitions) -> bool:
    """Whether no two of `transitions` share their source and letter."""
    pairs = [(t.src, t.letter) for t in transitions]
    return len(set(pairs)) == len(pairs)


# ---------------------------------------------------------------------------
# Text format (.dpa)
# ---------------------------------------------------------------------------


def emit_dpa(aut: ParityAutomaton) -> str:
    lines = ["dpa"]
    lines.append("alphabet: " + " ".join(aut.alphabet))
    lines.append(f"states: {aut.n_states}")
    lines.append(f"initial: {aut.initial}")
    lines.append(f"priorities: {aut.d_min} {aut.d_max}")
    lines.append(f"deterministic: {'true' if aut.deterministic else 'false'}")
    for t in aut.transitions:
        lines.append(f"trans: {t.src} {t.letter} {t.priority} {t.dst}")
    return "\n".join(lines) + "\n"


def parse_dpa(text: str) -> ParityAutomaton:
    header = {}
    trans = []
    saw_magic = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not saw_magic:
            if line != "dpa":
                raise FormatError("expected 'dpa' magic line", ln)
            saw_magic = True
            continue
        if ":" not in line:
            raise FormatError(f"expected 'key: value', got {line!r}", ln)
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "trans":
            parts = value.split()
            if len(parts) != 4:
                raise FormatError("trans needs '<src> <letter|eps> <priority> <dst>'", ln)
            try:
                trans.append(
                    Transition(int(parts[0]), parts[1], int(parts[2]), int(parts[3]))
                )
            except ValueError:
                raise FormatError(f"bad transition fields {value!r}", ln) from None
        elif key in ("alphabet", "states", "initial", "priorities", "deterministic"):
            if key in header:
                raise FormatError(f"duplicate header {key!r}", ln)
            header[key] = (value, ln)
        else:
            raise FormatError(f"unknown key {key!r}", ln)
    if not saw_magic:
        raise FormatError("empty input, expected 'dpa'", 1)
    for need in ("alphabet", "states", "initial", "priorities", "deterministic"):
        if need not in header:
            raise FormatError(f"missing header {need!r}", 1)
    try:
        n = int(header["states"][0])
        initial = int(header["initial"][0])
        pr = tuple(int(x) for x in header["priorities"][0].split())
    except ValueError as e:
        raise FormatError(str(e)) from None
    if len(pr) != 2:
        raise FormatError("priorities header needs two integers", header["priorities"][1])
    det_text = header["deterministic"][0]
    if det_text not in ("true", "false"):
        raise FormatError("deterministic must be true or false", header["deterministic"][1])
    return ParityAutomaton(
        n_states=n,
        alphabet=tuple(header["alphabet"][0].split()),
        initial=initial,
        transitions=tuple(trans),
        priority_range=pr,
        deterministic=det_text == "true",
    )


def build(
    n_states,
    alphabet,
    initial,
    transitions,
    deterministic=None,
    priority_range=None,
) -> ParityAutomaton:
    """Convenience constructor from (src, letter, priority, dst) tuples."""
    trans = tuple(Transition(*t) for t in transitions)
    if priority_range is None:
        priority_range = priority_span(trans)
    if deterministic is None:
        deterministic = not any(t.is_eps for t in trans) and one_per_src_letter(trans)
    return ParityAutomaton(
        n_states=n_states,
        alphabet=tuple(alphabet),
        initial=initial,
        transitions=trans,
        priority_range=priority_range,
        deterministic=deterministic,
    )
