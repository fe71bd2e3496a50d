"""Finite games with parity-automaton objectives.

An arena is a two-player edge-labelled graph; the objective is a
deterministic automaton over the edge letters (eps-edges stutter it) whose
steps carry one priority per stream, read as (state, letter) -> (stream
priorities, state'): one stream for a `ParityAutomaton`, three for the
completion gadget's `parityunion.StreamObjective`.  Eve wins a play when
some stream's least recurring priority is even.  `solve` computes exact
winning regions of the product game with Zielonka's recursive attractor
solver for such disjunctions, solving only what is read: `eve_wins_from`
the part reachable from the pairs (vertex, initial state), the full regions
and Eve's strategy the whole product.  `brute_force_positional` checks each
positional strategy of Eve on that solved reachable game with one pass of
the parity-cycle kernel: can Adam reach, from her winning region, a cycle
on which every stream's least priority is odd?  The gadget builders turn
positionality witnesses into small Eve-games.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct

from .automaton import (
    EPS,
    EdgeGraph,
    FormatError,
    ParityAutomaton,
    UPWord,
    bisimulation_quotient,
    even_cycle_sccs,
    tarjan_scc,
)
from .parityunion import StreamObjective
from .witnesses import (
    CompletionFailure,
    FullProgressFailure,
    IncomparableResiduals,
    PolishLanguageChange,
    ProgressFailure,
    SafeOrderFailure,
)

EVE = "eve"
ADAM = "adam"


@dataclass(frozen=True)
class GameArena:
    n_vertices: int
    owner: tuple[str, ...]  # "eve" | "adam" per vertex
    edges: tuple[tuple[int, str, int], ...]  # (src, letter-or-eps, dst)
    alphabet: tuple[str, ...]

    @cached_property
    def by_src(self) -> tuple[tuple[tuple[int, tuple[int, str, int]], ...], ...]:
        """Per vertex, its (edge index, edge) pairs in edge order; edges
        whose source is out of range (see `validate`) are left out."""
        out = [[] for _ in range(self.n_vertices)]
        for i, e in enumerate(self.edges):
            if 0 <= e[0] < self.n_vertices:
                out[e[0]].append((i, e))
        return tuple(tuple(es) for es in out)

    def out_edges(self, v):
        return list(self.by_src[v])

    def validate(self) -> list[str]:
        issues = []
        deg = [0] * self.n_vertices
        for (s, a, t) in self.edges:
            if not (0 <= s < self.n_vertices and 0 <= t < self.n_vertices):
                issues.append(f"edge ({s},{a},{t}) out of range")
                continue
            deg[s] += 1
            if a != EPS and a not in self.alphabet:
                issues.append(f"edge letter {a!r} not in alphabet")
        for v, d in enumerate(deg):
            if d == 0:
                issues.append(f"vertex {v} is a sink")
        eps_edges = [(s, t) for (s, a, t) in self.edges if a == EPS]
        comps = tarjan_scc(self.n_vertices, eps_edges)
        eps_set = set(eps_edges)
        for comp in comps:
            if len(comp) > 1 or (comp[0], comp[0]) in eps_set:
                issues.append(f"cycle of eps-edges through {comp[0]}")
        return issues

    def check_valid(self):
        bad = self.validate()
        if bad:
            raise ValueError("invalid arena: " + "; ".join(bad))


# ---------------------------------------------------------------------------
# .arena format
# ---------------------------------------------------------------------------


def emit_arena(arena: GameArena) -> str:
    lines = ["arena", "alphabet: " + " ".join(arena.alphabet)]
    for v in range(arena.n_vertices):
        lines.append(f"vertex: {v} {arena.owner[v]}")
    for (s, a, t) in arena.edges:
        lines.append(f"edge: {s} {a} {t}")
    return "\n".join(lines) + "\n"


def parse_arena(text: str) -> GameArena:
    alphabet = None
    owners = {}
    edges = []
    saw_magic = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not saw_magic:
            if line != "arena":
                raise FormatError("expected 'arena' magic line", ln)
            saw_magic = True
            continue
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key == "alphabet":
            alphabet = tuple(value.split())
        elif key == "vertex":
            parts = value.split()
            if len(parts) != 2 or parts[1] not in (EVE, ADAM):
                raise FormatError("vertex needs '<id> eve|adam'", ln)
            try:
                owners[int(parts[0])] = parts[1]
            except ValueError:
                raise FormatError(f"bad vertex id {parts[0]!r}", ln) from None
        elif key == "edge":
            parts = value.split()
            if len(parts) != 3:
                raise FormatError("edge needs '<src> <letter|eps> <dst>'", ln)
            try:
                edges.append((int(parts[0]), parts[1], int(parts[2])))
            except ValueError:
                raise FormatError(f"bad edge fields {value!r}", ln) from None
        else:
            raise FormatError(f"unknown key {key!r}", ln)
    if alphabet is None:
        raise FormatError("missing alphabet header")
    n = max(owners) + 1 if owners else 0
    owner = tuple(owners.get(v, ADAM) for v in range(n))
    return GameArena(n, owner, tuple(edges), alphabet)


# ---------------------------------------------------------------------------
# Product parity game and the Zielonka solver
# ---------------------------------------------------------------------------


@dataclass
class _Game:
    """Vertex-priority game with one min-parity stream per priority list
    (edge priorities via subdivision), indexed by node id: Eve wins a play
    when some stream's least recurring priority is even.  Only the ids in
    `nodes` were built; the others have no successor list."""

    owner: list[int]  # 0 = Eve, 1 = Adam
    priorities: list[list[int]]  # per stream, per node
    succ: list[list[int] | None]
    nodes: list[int]  # ascending


def _preds(game: _Game):
    """Predecessor lists of the built nodes, each in id order."""
    pred = [None] * len(game.succ)
    for v in game.nodes:
        pred[v] = []
    for v in game.nodes:
        for w in game.succ[v]:
            pred[w].append(v)
    return pred


def _attractor_fast(game: _Game, pred, player: int, target, alive):
    """`player`'s attractor to `target` (a subset of `alive`) within `alive`,
    in time linear in the part of the subgame it touches.  An opponent
    vertex with one successor (every move node) is attracted when that
    successor is; one with more gets its count of live successors when a
    predecessor edge first reaches it.  Returns (attractor, moves): for Eve,
    `moves` maps each vertex she owns that was attracted from outside
    `target` to the successor that drew it in; for Adam, whose moves nothing
    reads, it is None."""
    # inserted one by one, as the queue's order decides Eve's moves:
    # `set(target)` would copy target's table and iterate in another order
    attr = set(list(target))
    moves = {} if player == 0 else None
    count = {}  # opponent vertex -> live successors not yet attracted
    queue = list(attr)
    succ, owner = game.succ, game.owner
    for u in queue:  # breadth first: the list grows while it is read
        for v in pred[u]:
            if v in attr or v not in alive:
                continue
            if owner[v] == player:
                if moves is not None:
                    moves[v] = u
            elif len(succ[v]) > 1:
                left = count.get(v)
                if left is None:
                    left = len(alive.intersection(succ[v]))
                left -= 1
                if left:
                    count[v] = left
                    continue
            attr.add(v)
            queue.append(v)
    return attr, moves


def _zielonka(game: _Game, pred, buckets, lo, alive):
    """Returns (win0, win1, strat0) on the subgame induced by alive: both
    winning regions and Eve's winning moves on hers.  `buckets[s]` holds
    stream s's (priority, nodes of that priority) pairs, least priority
    first; no node of `alive` is in a bucket of stream s below `lo[s]`.
    Zielonka's recursion for a disjunction of parity conditions (Chatterjee,
    Henzinger and Piterman, "Generalized Parity Games", 2007); with one
    stream it is Zielonka's algorithm."""
    if not alive:
        return set(), set(), {}
    lo = list(lo)
    least = []
    for s, bucket in enumerate(buckets):
        while alive.isdisjoint(bucket[lo[s]][1]):
            lo[s] += 1
        least.append(bucket[lo[s]][0])
    even = [s for s, p in enumerate(least) if p % 2 == 0]
    # Eve's branch on the first stream with an even least priority, else
    # Adam's on each stream in turn: the first whose rest holds an Eve
    # region gives Zielonka's Adam branch, and if none does, Adam wins
    for s in even[:1] or range(len(buckets)):
        player, priority = least[s] % 2, game.priorities[s]
        # built by iterating `alive`: the attractor's queue follows this set's
        # order, and with it the moves Eve's strategy records
        target = {v for v in alive if priority[v] == least[s]}
        attr, moves = _attractor_fast(game, pred, player, target, alive)
        rest = lo[:s] + [lo[s] + 1] + lo[s + 1:]
        w0, w1, s0 = _zielonka(game, pred, buckets, rest, alive - attr)
        if player == 1:
            if not w0:
                continue
            battr, bmoves = _attractor_fast(game, pred, 0, w0, alive)
            w0b, w1b, s0b = _zielonka(game, pred, buckets, lo, alive - battr)
            s0.update(bmoves)
            s0.update(s0b)
            return w0 | battr | w0b, w1b, s0
        if w1:
            battr, _ = _attractor_fast(game, pred, 1, w1, alive)
            w0b, w1b, s0b = _zielonka(game, pred, buckets, lo, alive - battr)
            return w0b, w1 | battr | w1b, s0b
        # Eve wins everywhere: attractor moves plus any move staying alive
        s0.update(moves)
        succ, owner = game.succ, game.owner
        for v in alive:
            if owner[v] == 0 and v not in s0:
                for w in succ[v]:
                    if w in alive:
                        s0[v] = w
                        break
        return set(alive), set(), s0
    return set(), set(alive), {}


def _solve_game(game: _Game):
    """Zielonka on the whole built game: (win0, win1, strat0)."""
    buckets = []
    for priority in game.priorities:
        by = {}
        for v in game.nodes:
            by.setdefault(priority[v], []).append(v)
        buckets.append([(p, set(by[p])) for p in sorted(by)])
    return _zielonka(game, _preds(game), buckets, [0] * len(buckets), set(game.nodes))


def _stepper(arena: GameArena, objective):
    """The objective's row function, (state, letter) -> (stream priorities,
    state'), and its number of streams: `StreamObjective.step`, or one
    stream read off `objective.delta` for a `ParityAutomaton`.  The
    objective must be deterministic and eps-free, with a transition on every
    letter of an arena edge."""
    if not objective.deterministic or objective.has_eps:
        raise ValueError("objective must be deterministic and eps-free")
    letters = set(objective.alphabet)
    for (_, a, _) in arena.edges:
        if a != EPS and a not in letters:
            raise ValueError(f"objective has no transitions on {a!r}")
    if isinstance(objective, StreamObjective):
        return objective.step, objective.streams
    rows = {a: [((t.priority,), t.dst) for t in row] for a, row in objective.delta.items()}
    return (lambda q, a: rows[a][q]), 1


def _neutral(objective) -> int:
    """The priority of product nodes and eps-moves in every stream: odd and
    above every transition priority (the least odd number >= d_max + 2)."""
    return (objective.d_max + 2) | 1


def _product_game(arena: GameArena, objective, roots):
    """The subdivided product game, built breadth first from the (vertex,
    state) pairs `roots` and closed under moves.  Node v*m + q is the pair
    (v, q), with m objective states, owned by v's owner and carrying a
    neutral priority; node base + idx*m + q, with base = n_vertices*m, is
    Adam's move along arena edge idx from (v, q) and carries the
    transition's stream priorities (neutral for an eps-edge, which stutters
    the objective).  The objective's transitions are read through its row
    function (`_stepper`).  Returns (game, m)."""
    step, streams = _stepper(arena, objective)
    neutral = _neutral(objective)
    m = objective.n_states
    base = arena.n_vertices * m
    size = base + len(arena.edges) * m
    owner, succ, nodes = [1] * size, [None] * size, []
    priorities = [[neutral] * size for _ in range(streams)]
    queue = deque(v * m + q for v, q in roots)
    while queue:
        i = queue.popleft()
        if succ[i] is not None:
            continue
        v, q = divmod(i, m)
        owner[i] = 0 if arena.owner[v] == EVE else 1
        outs = succ[i] = []
        nodes.append(i)
        for idx, (_, a, t) in arena.by_src[v]:
            k = base + idx * m + q
            if a == EPS:
                dst = t * m + q
            else:
                ps, r = step(q, a)
                for priority, p in zip(priorities, ps):
                    priority[k] = p
                dst = t * m + r
            outs.append(k)
            succ[k] = [dst]
            nodes.append(k)
            if succ[dst] is None:
                queue.append(dst)
    nodes.sort()
    return _Game(owner, priorities, succ, nodes), m


class SolveResult:
    """The answer of `solve` for one arena and objective.

    `eve_wins_from(v)` reads the region of the pairs (v, initial state),
    computed on first use by `_initial_solve` on the part of the product
    game reachable from them and kept on the result.  The full regions and
    Eve's strategy come from one Zielonka run on the whole product game,
    made when one of them is first read."""

    def __init__(self, arena: GameArena, objective):
        self.arena = arena
        self.objective = objective

    @cached_property
    def _initial_region(self) -> frozenset:
        return _initial_solve(self.arena, self.objective)[2]

    def eve_wins_from(self, vertex: int) -> bool:
        return vertex in self._initial_region

    @cached_property
    def _full(self):
        arena, objective = self.arena, self.objective
        m = objective.n_states
        pairs = [divmod(i, m) for i in range(arena.n_vertices * m)]
        game, _ = _product_game(arena, objective, pairs)
        w0, w1, s0 = _solve_game(game)
        base = len(pairs)
        eve = frozenset(pairs[i] for i in range(base) if i in w0)
        adam = frozenset(pairs[i] for i in range(base) if i in w1)
        # Eve's move at pair node i is the subdivision node base + idx*m + q
        strategy = {pairs[i]: (s0[i] - base) // m for i in range(base) if i in s0 and i in w0}
        return eve, adam, strategy

    @property
    def eve_region(self) -> frozenset:
        """(vertex, automaton state) pairs from which Eve wins."""
        return self._full[0]

    @property
    def adam_region(self) -> frozenset:
        return self._full[1]

    @property
    def strategy(self) -> dict:
        """Eve's winning moves: (vertex, state) -> arena edge index."""
        return self._full[2]


def solve(arena: GameArena, objective) -> SolveResult:
    """Exact winning regions per (vertex, automaton-state) pair, with Eve's
    winning strategy (memory = automaton state).  The arena and the
    objective's letters are checked here; each region is solved when it is
    first read (see `SolveResult`).  The objective is a deterministic
    `ParityAutomaton` (one stream) or a `parityunion.StreamObjective` (one
    priority per stream on each transition, solved without building its
    union automaton); the pairs are over its states."""
    arena.check_valid()
    _stepper(arena, objective)
    return SolveResult(arena, objective)


# the last (arena, objective, answer) of `_initial_solve`, matched by identity
_last_solve: list = []


def _initial_solve(arena: GameArena, objective):
    """The part of the product game reachable from the pairs (v,
    objective.initial), solved: (game, m, region), where `region` holds the
    vertices v from which Eve wins (v, objective.initial).

    That part is closed under moves, so its winning regions are the whole
    game's restricted to it.  The last answer is kept, for the same arena
    and objective objects: a gadget check asks `solve(...).eve_wins_from`
    and `brute_force_positional` about one gadget."""
    if _last_solve and _last_solve[0] is arena and _last_solve[1] is objective:
        return _last_solve[2]
    init = objective.initial
    game, m = _product_game(arena, objective, [(v, init) for v in range(arena.n_vertices)])
    w0 = _solve_game(game)[0]
    region = frozenset(v for v in range(arena.n_vertices) if v * m + init in w0)
    _last_solve[:] = [arena, objective, (game, m, region)]
    return game, m, region


# ---------------------------------------------------------------------------
# Brute-force uniform positional check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PositionalStrategy:
    choice: dict  # Eve vertex -> arena edge index


@dataclass(frozen=True)
class UniformlyPositional:
    strategy: PositionalStrategy

    uniform = True


@dataclass(frozen=True)
class NoUniformStrategy:
    region: frozenset  # the vertices a single strategy must win from

    uniform = False


def _pair_graph(game: _Game, n_pairs: int):
    """The built pair nodes of the game (ids below `n_pairs`) as an
    `EdgeGraph` for the parity-cycle kernel, numbered 0..k-1 in id order:
    each move node becomes an edge between the pairs it joins, carrying each
    stream's priority + 1, so that an accepting cycle is a cycle of the game
    on which every stream's least priority is odd (the pair nodes carry the
    neutral priority, above all others).  A pair's edges are in the order of
    its moves.  Returns the graph, its per-stream priority arrays and the
    list of pair ids."""
    pairs = [i for i in game.nodes if i < n_pairs]
    dense = {i: j for j, i in enumerate(pairs)}
    succ = game.succ
    g = EdgeGraph(len(pairs))
    moves = []
    for j, i in enumerate(pairs):
        g.out[j] = range(len(moves), len(moves) + len(succ[i]))
        moves += succ[i]
        g.src += [j] * len(succ[i])
    g.dst = [dense[succ[k][0]] for k in moves]
    streams = [[priority[k] + 1 for k in moves] for priority in game.priorities]
    return g, streams, pairs


def env_limit() -> int:
    """The search bound that the POSAUT_LIMIT environment variable sets,
    1,000,000 when it is unset."""
    raw = os.environ.get("POSAUT_LIMIT", "1000000")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"POSAUT_LIMIT must be an integer, got {raw!r}") from None


def brute_force_positional(arena: GameArena, objective, bound=None):
    """Enumerate Eve's positional strategies; succeed iff one wins from her
    entire winning region (evaluated from the objective's initial state).

    Each strategy is checked on the reachable game that `_initial_solve`
    solved: Eve's pairs keep only the chosen move, and one pass of the
    parity-cycle kernel from all pairs (v, initial) of the region asks
    whether Adam can reach a cycle on which every stream's least priority
    is odd.  Every cycle reads a letter, as `GameArena.validate` rejects
    eps-cycles."""
    if bound is None:
        bound = env_limit()
    arena.check_valid()
    game, m, region0 = _initial_solve(arena, objective)
    eve_vertices = [v for v in range(arena.n_vertices) if arena.owner[v] == EVE]
    per_vertex = [arena.by_src[v] for v in eve_vertices]
    total = 1
    for outs in per_vertex:
        total *= max(len(outs), 1)
        if total > bound:
            raise ValueError(f"strategy space exceeds bound {bound}")
    g, streams, pairs = _pair_graph(game, arena.n_vertices * m)
    full_out = g.out
    # the graph's nodes of each Eve vertex's built pairs
    position = {v: k for k, v in enumerate(eve_vertices)}
    eve_nodes = [[] for _ in eve_vertices]
    for j, i in enumerate(pairs):
        k = position.get(i // m)
        if k is not None:
            eve_nodes[k].append(j)
    roots = [j for j, i in enumerate(pairs) if i % m == objective.initial and i // m in region0]
    for combo in iproduct(*(range(len(outs)) for outs in per_vertex)):
        g.out = list(full_out)
        for nodes, c in zip(eve_nodes, combo):
            for j in nodes:
                g.out[j] = (full_out[j][c],)
        if next(even_cycle_sccs(g, roots, streams), None) is None:
            choice = {v: outs[c][0] for v, outs, c in zip(eve_vertices, per_vertex, combo)}
            return UniformlyPositional(PositionalStrategy(choice))
    return NoUniformStrategy(region0)


# ---------------------------------------------------------------------------
# Gadget games
# ---------------------------------------------------------------------------


class _ArenaBuilder:
    def __init__(self, alphabet):
        self.alphabet = tuple(alphabet)
        self.owner = []
        self.edges = []

    def vertex(self, owner=EVE):
        self.owner.append(owner)
        return len(self.owner) - 1

    def edge(self, s, letter, t):
        self.edges.append((s, letter, t))

    def chain(self, start, word, end):
        """Edges labelled by `word` from start to end via fresh vertices."""
        cur = start
        for i, a in enumerate(word):
            nxt = end if i == len(word) - 1 else self.vertex()
            self.edge(cur, a, nxt)
            cur = nxt
        if not word and start != end:
            raise ValueError("empty word needs identical endpoints")

    def entry(self, word, hub):
        """A fresh vertex whose path labelled `word` leads into `hub`, or `hub`
        itself for the empty word."""
        if not word:
            return hub
        v = self.vertex()
        self.chain(v, word, hub)
        return v

    def lasso(self, start, w: UPWord):
        """Path for w.u then a cycle for w.v, hanging off `start`."""
        if w.u:
            head = self.vertex()
            self.chain(start, w.u, head)
        else:
            head = start
        self.chain(head, w.v, head)

    def build(self):
        return GameArena(
            len(self.owner),
            tuple(self.owner),
            tuple(self.edges),
            self.alphabet,
        )


@dataclass(frozen=True)
class Gadget:
    """A game that checks a positionality witness.  The objective is the
    analysed `ParityAutomaton`, or for the completion gadget a three-stream
    `StreamObjective` on the states of the `w_det` it was given
    (`gadget_for_witness` gives it W's bisimulation quotient)."""

    arena: GameArena
    designated: tuple[int, ...]  # vertices Eve must win from
    objective: ParityAutomaton | StreamObjective  # the objective to solve against


def gadget_residual(u1, u2, w1: UPWord, w2: UPWord, objective) -> Gadget:
    """Two entry paths into a choice vertex with two lasso exits; Eve wins
    from both entries but no positional choice serves both."""
    b = _ArenaBuilder(objective.alphabet)
    choice = b.vertex()
    designated = [b.entry(u, choice) for u in (u1, u2)]
    b.lasso(choice, w1)
    b.lasso(choice, w2)
    return Gadget(b.build(), tuple(dict.fromkeys(designated)), objective)


def gadget_progress(u, w, wprime: UPWord, objective) -> Gadget:
    """Entry u to a choice vertex carrying a w-loop and a w'-lasso exit."""
    b = _ArenaBuilder(objective.alphabet)
    choice = b.vertex()
    designated = (b.entry(u, choice),)
    b.chain(choice, w, choice)
    b.lasso(choice, wprime)
    return Gadget(b.build(), designated, objective)


def gadget_two_loops(u0, l1, l2, objective) -> Gadget:
    """Entry path to a single Eve vertex with two word self-loops."""
    if not l1 or not l2:
        raise ValueError("loop words must be nonempty")
    b = _ArenaBuilder(objective.alphabet)
    hub = b.vertex()
    designated = (b.entry(u0, hub),)
    b.chain(hub, l1, hub)
    b.chain(hub, l2, hub)
    return Gadget(b.build(), designated, objective)


# ---------------------------------------------------------------------------
# Completion gadget (two redirected copies + choice vertex)
# ---------------------------------------------------------------------------


def _ctoken(letter, priority, typ):
    return f"{letter}_{priority}_{typ}"


def completion_gadget(
    aut: ParityAutomaton, w_det: ParityAutomaton, q: int, qp: int, x: int
) -> Gadget:
    """The two-copy game validating a non-addable eps-pair: all of `aut` twice,
    with the transitions into the other distinguished state duplicated
    towards the choice vertex, plus Eve's choice between eps:x+1 into copy-q
    and eps:x into copy-q'.  The original edges are kept next to the
    duplicates so that the opponent can simulate any run of the augmented
    automaton, jumping exactly where the run uses the added eps-transition.
    The composite objective (language, or odd parity, or
    infinitely-enter-with-finitely-small) is a three-stream
    `StreamObjective` on the states of `w_det` over letter_priority_type
    tokens, which must be deterministic with a transition on every letter
    of `aut`."""
    if x % 2 != 0:
        raise ValueError("the completion gadget needs an even priority")
    n = aut.n_states
    for state in (q, qp):
        if not 0 <= state < n:
            raise ValueError(f"state {state} out of range for {n} states")
    # arena -----------------------------------------------------------------
    tokens = {}

    def tok(letter, pr, typ):
        t = _ctoken(letter, pr, typ)
        tokens[t] = (letter, pr, typ)
        return t

    edges = []
    qmark = 2 * n

    def vid(state, copy):
        return state + (0 if copy == 0 else n)

    for copy, other in ((0, qp), (1, q)):
        for t in aut.transitions:
            typ = "s" if copy == 0 and t.priority <= x else "n"
            token = tok(t.letter, t.priority, typ)
            edges.append((vid(t.src, copy), token, vid(t.dst, copy)))
            if t.dst == other:
                edges.append((vid(t.src, copy), token, qmark))
    edges.append((qmark, tok(EPS, x + 1, "e"), vid(q, 0)))
    edges.append((qmark, tok(EPS, x, "n"), vid(qp, 1)))
    owner = tuple([ADAM] * (2 * n) + [EVE])
    alphabet = tuple(sorted(tokens))
    arena = GameArena(2 * n + 1, owner, tuple(edges), alphabet)
    objective = _composite_objective(w_det, alphabet, tokens)
    designated = [vid(aut.initial, 0), vid(aut.initial, 1)]
    if aut.initial in (q, qp):
        # runs of the augmented automaton may jump before reading anything
        designated.append(qmark)
    return Gadget(arena, tuple(designated), objective)


def _composite_objective(w_det, alphabet, tokens) -> StreamObjective:
    """W_Sigma u OddParity u GType over the token alphabet as three streams
    on the states of w_det: the priority of w_det's step, and two fixed per
    token."""
    if not w_det.deterministic or w_det.has_eps:
        raise ValueError("w_det must be deterministic and eps-free")
    rows = w_det.delta
    dw = w_det.d_max
    # eps-steps stutter the language stream at an even value above all real
    # priorities: plays with finitely many letters correspond to no run of
    # the automaton and must count for Eve, or an eps-cycle of the partially
    # completed automaton would let the opponent win vacuously
    stutter1 = dw + 1 if (dw + 1) % 2 == 0 else dw + 2
    type_map = {"s": 1, "e": 2, "n": 3}
    # per token: w_det's row of its letter (None for eps) and its fixed
    # second and third streams
    streams = {}
    for t, (letter, pr, typ) in tokens.items():
        if letter != EPS and letter not in rows:
            raise ValueError(f"w_det has no transitions on {letter!r}")
        streams[t] = (rows.get(letter), pr + 1, type_map[typ])

    def step(q, token):
        row, s2, s3 = streams[token]
        if row is None:
            return (stutter1, s2, s3), q
        t = row[q]
        return (t.priority, s2, s3), t.dst

    d_max = max(stutter1, 3, *(s2 for _, s2, _ in streams.values()))
    return StreamObjective(w_det.n_states, w_det.initial, alphabet, step, 3, d_max)


# ---------------------------------------------------------------------------
# Witness -> gadget dispatch
# ---------------------------------------------------------------------------


def gadget_for_witness(witness, objective: ParityAutomaton, aut=None, w_det=None):
    """Build the validating gadget game for a positionality witness.

    `objective` is a deterministic automaton for the analysed language; for
    completion witnesses `aut`/`w_det` give the automaton pair of the run.
    The completion gadget's objective reads only L(w_det), so it runs on
    `w_det`'s bisimulation quotient (`bisimulation_quotient`), which gives
    every play the same winner on a smaller product game; the other
    gadgets keep `objective`, whose arenas are a few lasso paths.
    Returns a Gadget or None when the witness carries no game data.
    """
    if isinstance(witness, IncomparableResiduals):
        return gadget_residual(witness.u1, witness.u2, witness.w1, witness.w2, objective)
    if isinstance(witness, ProgressFailure):
        pw = witness.witness
        u = tuple(pw.context_u or ())
        wprime = _progress_exit(objective, u, tuple(pw.w))
        return gadget_progress(u, tuple(pw.w), wprime, objective)
    if isinstance(witness, (SafeOrderFailure, FullProgressFailure, PolishLanguageChange)):
        if witness.loops is None:
            return None
        L = witness.loops
        return gadget_two_loops(L.u0, L.l1, L.l2, objective)
    if isinstance(witness, CompletionFailure):
        base = witness.automaton if witness.automaton is not None else aut
        if base is None or w_det is None:
            raise ValueError("completion gadget needs the automaton pair")
        if w_det.deterministic and not w_det.has_eps:
            w_det = bisimulation_quotient(w_det)
        return completion_gadget(base, w_det, witness.q, witness.p, witness.x)
    raise ValueError(f"no gadget known for {type(witness).__name__}")


def _progress_exit(objective: ParityAutomaton, u, w) -> UPWord:
    """A lasso in (uw)^-1 W \\ u^-1 W for the progress gadget exit."""
    from .lang import incl_det

    q = objective.run_state(objective.initial, u)
    p = objective.run_state(q, w)
    r = incl_det(objective, p, objective, q)
    if r is True:
        raise ValueError("progress witness did not increase the residual")
    return r
