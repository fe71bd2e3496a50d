"""Finite truncations of the universal graphs for parity objectives and for
eps-complete automata.

Ordinal coordinates are truncated to {0..n-1}; this is sound for
bounded-size universality only (a graph of size m needs ranks below m), and
reports state the bound used.  Monotonicity and the all-paths-satisfy
property are checked exhaustively at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .automaton import (
    EdgeGraph,
    FormatError,
    ParityAutomaton,
    build,
    even_cycle_sccs,
    reaches_even_cycle,
)
from .lang import complement_det, product


@dataclass(frozen=True)
class MonotoneGraph:
    """Totally ordered vertex set (order = list position) with letter edges."""

    names: tuple[str, ...]
    edges: tuple[tuple[int, str, int], ...]
    alphabet: tuple[str, ...]

    @property
    def n(self):
        return len(self.names)

    def successors(self, v):
        return [(a, t) for (s, a, t) in self.edges if s == v]

    def edge_set(self):
        return set(self.edges)


def check_monotone(g: MonotoneGraph):
    """Exhaustive triple scan: v >= u -a-> u' >= v' implies v -a-> v'."""
    have = g.edge_set()
    for (u, a, up) in g.edges:
        for v in range(u, g.n):
            for vp in range(up + 1):
                if (v, a, vp) not in have:
                    return f"missing monotone edge {v} -{a}-> {vp} (from {u}-{a}->{up})"
    return True


def check_sinkless(g: MonotoneGraph):
    out = [0] * g.n
    for (s, _, _) in g.edges:
        out[s] += 1
    bad = [v for v in range(g.n) if out[v] == 0]
    return True if not bad else f"sinks: {bad}"


# ---------------------------------------------------------------------------
# U_Par
# ---------------------------------------------------------------------------


def _upar_coords(max_letter: int):
    return [y for y in range(1, max_letter + 1) if y % 2 == 1]


def upar_edge(lam, lamp, x, coords):
    """The parity-graph edge predicate on truncated ordinal tuples."""
    if x % 2 == 0:
        idx = [i for i, c in enumerate(coords) if c < x]
        return tuple(lamp[i] for i in idx) <= tuple(lam[i] for i in idx)
    idx = [i for i, c in enumerate(coords) if c <= x]
    return tuple(lamp[i] for i in idx) < tuple(lam[i] for i in idx)


def build_upar(d: int, n: int, max_letter: int | None = None, limit=200000) -> MonotoneGraph:
    """Universal graph for the parity objective over {0..max_letter}
    (default max_letter = d): vertices are tuples over {0..n-1} for the odd
    coordinates, ordered lexicographically."""
    if n < 1:
        raise ValueError("bound must be at least 1")
    max_letter = d if max_letter is None else max_letter
    coords = _upar_coords(max_letter if max_letter % 2 == 1 else max_letter - 1)
    size = n ** len(coords)
    if size > limit:
        raise ValueError(f"graph would have {size} vertices (limit {limit})")
    vertices = sorted(iproduct(range(n), repeat=len(coords)))
    names = tuple("_".join(str(v) for v in lam) if lam else "o" for lam in vertices)
    index = {lam: i for i, lam in enumerate(vertices)}
    letters = tuple(str(x) for x in range(max_letter + 1))
    edges = []
    for lam in vertices:
        for x in range(max_letter + 1):
            for lamp in vertices:
                if upar_edge(lam, lamp, x, coords):
                    edges.append((index[lam], str(x), index[lamp]))
    return MonotoneGraph(names, tuple(edges), letters)


def with_top(g: MonotoneGraph) -> MonotoneGraph:
    """Add a fresh maximal vertex with edges to every vertex on every letter.

    The top vertex also carries self-loops; without them non-satisfying
    vertices of arbitrary graphs could not be mapped anywhere, contradicting
    universality."""
    top = g.n
    edges = list(g.edges)
    for a in g.alphabet:
        for v in range(g.n + 1):
            edges.append((top, a, v))
    return MonotoneGraph(g.names + ("top",), tuple(edges), g.alphabet)


def all_cycles_even_min(g: MonotoneGraph):
    """Every cycle's minimal letter (read as a priority) must be even.

    The kernel runs on the graph with every letter shifted by one, so that
    its accepting cycles are the odd-dominated ones; the report names the
    least odd minimum y and the first y-edge on such a cycle."""
    kernel = EdgeGraph(g.n)
    for (s, a, t) in g.edges:
        kernel.add(s, t, int(a) + 1, 0)
    bad = [
        (kernel.pr1[e] - 1, e)
        for inner in even_cycle_sccs(kernel, range(g.n))
        for e in inner
        if kernel.pr1[e] % 2 == 0
    ]
    if not bad:
        return True
    y, e = min(bad)
    s, _, t = g.edges[e]
    return f"odd-dominated cycle with priority {y} via {s}->{t}"


# ---------------------------------------------------------------------------
# U_Aut
# ---------------------------------------------------------------------------


def _eps_class_ranks(aut: ParityAutomaton, d: int):
    """Per even x, the ascending rank of each state in the eps:x+1 preorder."""
    ranks = {}
    for x in range(0, d + 1, 2):
        rel = {
            (t.src, t.dst)
            for t in aut.transitions
            if t.is_eps and t.priority == x + 1
        }
        def leq(a, b):
            return (b, a) in rel  # a <=_x b  iff  b -eps:x+1-> a

        rk = {}
        for q in aut.states():
            rk[q] = sum(
                1
                for p in aut.states()
                if leq(p, q) and not leq(q, p)
            )
        ranks[x] = rk
    return ranks


def build_uaut(eps_aut, n: int, limit=200000) -> tuple[MonotoneGraph, dict]:
    """Universal graph from a priority-closed eps-complete automaton.

    Vertices are (state, ordinal tuple) pairs ordered by the extended tuple
    interleaving class ranks with coordinates.  Returns the graph and a map
    name -> (state, tuple)."""
    if n < 1:
        raise ValueError("bound must be at least 1")
    aut = eps_aut.automaton
    d = eps_aut.d
    coords = [y for y in range(1, d + 2) if y % 2 == 1]
    size = aut.n_states * (n ** len(coords))
    if size > limit:
        raise ValueError(f"graph would have {size} vertices (limit {limit})")
    ranks = _eps_class_ranks(aut, d)

    def ext(q, lam):
        out = []
        for i, x in enumerate(range(0, d + 1, 2)):
            out.append(ranks[x][q])
            out.append(lam[i])
        return tuple(out)

    vertices = [
        (q, lam)
        for q in aut.states()
        for lam in iproduct(range(n), repeat=len(coords))
    ]
    vertices.sort(key=lambda v: ext(*v))
    index = {v: i for i, v in enumerate(vertices)}
    names = tuple(
        f"s{q}_" + "_".join(str(c) for c in lam) for (q, lam) in vertices
    )
    edges = []
    for (q, lam) in vertices:
        for a in aut.alphabet:
            for (qp, lamp) in vertices:
                ok = False
                for t in aut.succ(q, a):
                    if t.dst == qp and upar_edge(lam, lamp, t.priority, coords):
                        ok = True
                        break
                if ok:
                    edges.append((index[(q, lam)], a, index[(qp, lamp)]))
    g = MonotoneGraph(names, tuple(edges), aut.alphabet)
    return g, {names[i]: v for i, v in enumerate(vertices)}


def all_paths_satisfy(g: MonotoneGraph, core: ParityAutomaton, start_state):
    """Every infinite path from every vertex (q, ...) must lie in q^-1 W:
    the product of the graph, read as an automaton whose transitions all
    have priority 0, with the complement of the deterministic core has no
    reachable cycle whose minimal complement priority (the second) is even.

    `start_state` maps a graph vertex to the core state it asserts.  The
    report names the least such minimum."""
    starts = [(v, start_state(v)) for v in range(g.n)]
    starts = [key for key in starts if key[1] is not None]
    graph = build(g.n, g.alphabet, 0, [(s, a, 0, t) for (s, a, t) in g.edges])
    prod, _ = product(graph.by_src, complement_det(core), starts)
    bad = [
        prod.pr2[e]
        for inner in even_cycle_sccs(prod, range(len(starts)))
        for e in inner
        if prod.pr2[e] % 2 == 0
    ]
    if bad:
        return f"bad cycle: complement priority {min(bad)} reachable"
    return True


# ---------------------------------------------------------------------------
# Bounded universality
# ---------------------------------------------------------------------------


def _graph_satisfying(n, edges, objective: ParityAutomaton):
    """Vertices of a sinkless letter-graph from which all paths satisfy the
    deterministic objective: one product of the graph (its edges as
    0-priority transitions) with the complement for all vertices, in which a
    vertex fails iff it reaches an accepting cycle."""
    starts = [(v, objective.initial) for v in range(n)]  # node ids 0..n-1
    graph = build(n, objective.alphabet, 0, [(s, a, 0, t) for (s, a, t) in edges])
    prod, _ = product(graph.by_src, complement_det(objective), starts)
    bad = reaches_even_cycle(prod, range(n))
    return [v for v in range(n) if not bad[v]]


def _find_morphism(n, edges, sat, target: MonotoneGraph, target_sat):
    """Backtracking edge-preserving, satisfaction-preserving map into target;
    candidate images tried in descending vertex order."""
    tedges = target.edge_set()
    cands = []
    for v in range(n):
        pool = target_sat if v in sat else list(range(target.n))
        cands.append(sorted(pool, reverse=True))
    assign = [None] * n

    def ok(v, img):
        for (s, a, t) in edges:
            if s == v and assign[t] is not None and (img, a, assign[t]) not in tedges:
                if t != v:
                    return False
            if t == v and assign[s] is not None and (assign[s], a, img) not in tedges:
                if s != v:
                    return False
            if s == v and t == v and (img, a, img) not in tedges:
                return False
        return True

    def rec(v):
        if v == n:
            return True
        for img in cands[v]:
            if ok(v, img):
                assign[v] = img
                if rec(v + 1):
                    return True
                assign[v] = None
        return False

    return list(assign) if rec(0) else None


def check_universality_bounded(
    u: MonotoneGraph, objective: ParityAutomaton, k: int, sample=2000, seed=0, limit=200000
):
    """Try to embed every sinkless graph of size <= k (exhaustive for k <= 2,
    sampled beyond) into with_top(u), mapping satisfying vertices to
    satisfying ones.  Returns a report dict; counterexample graphs are
    listed under 'failures'.  Raises ValueError when the exhaustive part
    would enumerate more than `limit` graphs."""
    import random

    if k < 1:
        raise ValueError("graph size bound must be at least 1")
    # n vertices give each vertex one of 2^(n*|letters|) - 1 nonempty edge sets
    count = sum(
        (2 ** (n * len(objective.alphabet)) - 1) ** n for n in range(1, min(k, 2) + 1)
    )
    if count > limit:
        raise ValueError(f"would enumerate {count} sinkless graphs (limit {limit})")
    target = with_top(u)
    target_sat = [
        v
        for v in _graph_satisfying(
            target.n, target.edges, objective
        )
    ]
    letters = objective.alphabet
    failures = []
    checked = 0

    def consider(n, edges):
        nonlocal checked
        checked += 1
        sat = set(_graph_satisfying(n, edges, objective))
        if _find_morphism(n, edges, sat, target, target_sat) is None:
            failures.append((n, tuple(edges)))

    def sinkless_graphs(n):
        slots = [(s, a, t) for s in range(n) for a in letters for t in range(n)]
        per_src = {}
        for i, (s, a, t) in enumerate(slots):
            per_src.setdefault(s, []).append(i)
        from itertools import combinations

        def subsets_nonempty(idxs):
            for r in range(1, len(idxs) + 1):
                yield from combinations(idxs, r)

        pools = [list(subsets_nonempty(per_src[s])) for s in range(n)]
        for combo in iproduct(*pools):
            chosen = sorted(set(i for grp in combo for i in grp))
            yield [slots[i] for i in chosen]

    for n in range(1, min(k, 2) + 1):
        for edges in sinkless_graphs(n):
            consider(n, edges)
    if k >= 3:
        rng = random.Random(seed)
        slots3 = [(s, a, t) for s in range(3) for a in letters for t in range(3)]
        for _ in range(sample):
            edges = [e for e in slots3 if rng.random() < 0.3]
            deg = {s: 0 for s in range(3)}
            for (s, _, _) in edges:
                deg[s] += 1
            for s in range(3):
                if deg[s] == 0:
                    edges.append((s, rng.choice(letters), rng.randrange(3)))
            consider(3, edges)
    return {
        "checked": checked,
        "failures": failures,
        "bound_note": "ordinal coordinates truncated; sound for bounded size only",
    }


# ---------------------------------------------------------------------------
# .mgraph format
# ---------------------------------------------------------------------------


def emit_mgraph(g: MonotoneGraph) -> str:
    lines = ["mgraph", "alphabet: " + " ".join(g.alphabet)]
    lines.append("order: " + " ".join(g.names))
    for (s, a, t) in g.edges:
        lines.append(f"edge: {g.names[s]} {a} {g.names[t]}")
    return "\n".join(lines) + "\n"


def parse_mgraph(text: str) -> MonotoneGraph:
    alphabet = None
    names = None
    edges = []
    saw = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not saw:
            if line != "mgraph":
                raise FormatError("expected 'mgraph' magic line", ln)
            saw = True
            continue
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key == "alphabet":
            alphabet = tuple(value.split())
        elif key == "order":
            names = tuple(value.split())
        elif key == "edge":
            parts = value.split()
            if len(parts) != 3:
                raise FormatError("edge needs '<src> <letter> <dst>'", ln)
            edges.append((ln, parts))
        else:
            raise FormatError(f"unknown key {key!r}", ln)
    if alphabet is None or names is None:
        raise FormatError("missing alphabet or order header")
    idx = {nm: i for i, nm in enumerate(names)}
    resolved = []
    for ln, (s, a, t) in edges:
        for name in (s, t):
            if name not in idx:
                raise FormatError(f"edge names undeclared vertex {name!r}", ln)
        resolved.append((idx[s], a, idx[t]))
    return MonotoneGraph(names, tuple(resolved), alphabet)
