"""Finite games with parity-automaton objectives.

An arena is a two-player edge-labelled graph; the objective is a
deterministic parity automaton over the edge letters (eps-edges stutter it).
`solve` computes exact winning regions of the product parity game with a
recursive attractor (Zielonka) solver.  It solves only what is read:
`eve_wins_from` solves the part of the product reachable from the pairs
(vertex, initial state), and the full regions and Eve's strategy are solved
on the whole product when first read.  `brute_force_positional` enumerates
all positional strategies of Eve and checks whether one wins from her whole
winning region.  The gadget builders turn positionality witnesses into small
Eve-games, and `completion_gadget` builds the two-copy redirection game with
its composite objective.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product as iproduct

from .automaton import (
    EPS,
    FormatError,
    ParityAutomaton,
    Transition,
    UPWord,
    even_cycle_sccs,
    priority_span,
    tarjan_scc,
)
from .lang import complement_det, product
from .parityunion import union_parity_automaton

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
            owners[int(parts[0])] = parts[1]
        elif key == "edge":
            parts = value.split()
            if len(parts) != 3:
                raise FormatError("edge needs '<src> <letter|eps> <dst>'", ln)
            edges.append((int(parts[0]), parts[1], int(parts[2])))
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
    """Vertex-priority min-parity game (edge priorities via subdivision),
    indexed by node id.  Only the ids in `nodes` were built; the others
    have no successor list."""

    owner: list[int]  # 0 = Eve, 1 = Adam
    priority: list[int]
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
    """`player`'s attractor to `target` within `alive`, in time linear in the
    part of the subgame it touches: an opponent vertex gets its count of live
    successors when a predecessor edge first reaches it."""
    attr = set(v for v in target if v in alive)
    strategy = {}
    count = {}  # opponent vertex -> live successors not yet attracted
    queue = deque(attr)
    succ, owner = game.succ, game.owner
    while queue:
        u = queue.popleft()
        for v in pred[u]:
            if v not in alive or v in attr:
                continue
            if owner[v] == player:
                attr.add(v)
                strategy[v] = u
                queue.append(v)
                continue
            left = count.get(v)
            if left is None:
                left = sum(1 for w in succ[v] if w in alive)
            left -= 1
            if left == 0:
                attr.add(v)
                queue.append(v)
            else:
                count[v] = left
    return attr, strategy


def _zielonka(game: _Game, pred, alive):
    """Returns (win0, win1, strat0, strat1) on the subgame induced by alive."""
    if not alive:
        return set(), set(), {}, {}
    p = min(game.priority[v] for v in alive)
    player = p % 2
    target = {v for v in alive if game.priority[v] == p}
    attr, astrat = _attractor_fast(game, pred, player, target, alive)
    rest = alive - attr
    w0, w1, s0, s1 = _zielonka(game, pred, rest)
    wins = (w0, w1)
    strats = (s0, s1)
    if not wins[1 - player]:
        # `player` wins everywhere: attractor moves plus any move staying alive
        strat = dict(strats[player])
        strat.update(astrat)
        for v in alive:
            if game.owner[v] == player and v not in strat:
                for w in game.succ[v]:
                    if w in alive:
                        strat[v] = w
                        break
        full = set(alive)
        if player == 0:
            return full, set(), strat, {}
        return set(), full, {}, strat
    opp = 1 - player
    battr, bstrat = _attractor_fast(game, pred, opp, wins[opp], alive)
    w0b, w1b, s0b, s1b = _zielonka(game, pred, alive - battr)
    if opp == 0:
        strat0 = dict(s0)
        strat0.update(bstrat)
        strat0.update(s0b)
        return w0 | battr | w0b, w1b, strat0, s1b
    strat1 = dict(s1)
    strat1.update(bstrat)
    strat1.update(s1b)
    return w0b, w1 | battr | w1b, s0b, strat1


def _letter_rows(arena: GameArena, objective: ParityAutomaton):
    """Per letter, the objective's transition from every state, in state
    order (`objective.delta`); every letter of an arena edge must have one."""
    if not objective.deterministic or objective.has_eps:
        raise ValueError("objective must be deterministic and eps-free")
    rows = objective.delta
    for (_, a, _) in arena.edges:
        if a != EPS and a not in rows:
            raise ValueError(f"objective has no transitions on {a!r}")
    return rows


def _neutral(objective: ParityAutomaton) -> int:
    """The priority of product nodes and eps-moves: odd and above every
    transition priority (the least odd number >= d_max + 2)."""
    return (objective.d_max + 2) | 1


def _product_game(arena: GameArena, objective: ParityAutomaton, roots):
    """The subdivided product game, built breadth first from the (vertex,
    state) pairs `roots` and closed under moves.  Node v*m + q is the pair
    (v, q), with m objective states, owned by v's owner and carrying a
    neutral priority; node base + idx*m + q, with base = n_vertices*m, is
    Adam's move along arena edge idx from (v, q) and carries the transition
    priority (neutral for an eps-edge, which stutters the objective).
    Returns (game, m)."""
    rows = _letter_rows(arena, objective)
    neutral = _neutral(objective)
    m = objective.n_states
    base = arena.n_vertices * m
    size = base + len(arena.edges) * m
    owner, priority, succ, nodes = [1] * size, [neutral] * size, [None] * size, []
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
            row = rows.get(a)
            if row is None:
                dst = t * m + q
            else:
                tr = row[q]
                priority[k] = tr.priority
                dst = t * m + tr.dst
            outs.append(k)
            succ[k] = [dst]
            nodes.append(k)
            if succ[dst] is None:
                queue.append(dst)
    nodes.sort()
    return _Game(owner, priority, succ, nodes), m


class SolveResult:
    """The answer of `solve` for one arena and objective.

    `eve_wins_from(v)` reads the region of the pairs (v, initial state),
    computed on first use by `_eve_wins_initial` on the part of the product
    game reachable from them.  The full regions and Eve's strategy come from
    one Zielonka run on the whole product game, made when one of them is
    first read."""

    def __init__(self, arena: GameArena, objective: ParityAutomaton):
        self.arena = arena
        self.objective = objective
        self.initial_state = objective.initial

    def eve_wins_from(self, vertex: int) -> bool:
        return vertex in _eve_wins_initial(self.arena, self.objective)

    @cached_property
    def _full(self):
        arena, objective = self.arena, self.objective
        m = objective.n_states
        pairs = [divmod(i, m) for i in range(arena.n_vertices * m)]
        game, _ = _product_game(arena, objective, pairs)
        w0, w1, s0, _ = _zielonka(game, _preds(game), set(game.nodes))
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


def solve(arena: GameArena, objective: ParityAutomaton) -> SolveResult:
    """Exact winning regions per (vertex, automaton-state) pair, with Eve's
    winning strategy (memory = automaton state).  The arena and the
    objective's letters are checked here; each region is solved when it is
    first read (see `SolveResult`)."""
    arena.check_valid()
    _letter_rows(arena, objective)
    return SolveResult(arena, objective)


@lru_cache(maxsize=1)
def _eve_wins_initial(arena: GameArena, objective: ParityAutomaton) -> frozenset:
    """The vertices v from which Eve wins (v, objective.initial).

    Solves only the part of the product game reachable from those pairs.
    That part is closed under moves, so its winning regions are the whole
    game's restricted to it.  The last answer is kept: a gadget check asks
    `solve(...).eve_wins_from` and `brute_force_positional` for the same
    arena and objective."""
    init = objective.initial
    game, m = _product_game(arena, objective, [(v, init) for v in range(arena.n_vertices)])
    w0 = _zielonka(game, _preds(game), set(game.nodes))[0]
    return frozenset(v for v in range(arena.n_vertices) if v * m + init in w0)


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


def _strategy_wins(comp, restricted, vertex) -> bool:
    """All infinite plays from `vertex` under the restriction satisfy the
    objective: the `lang.product` of the restricted moves (per vertex, as
    0-priority transitions) with the complement `comp`, reachable from
    (vertex, comp.initial), has no accepting cycle of the kernel.
    Eps-moves stutter the complement; the check relies on
    `GameArena.validate` rejecting eps-cycles, so that every cycle consumes
    a letter."""
    g, _ = product(restricted, comp, [(vertex, comp.initial)])
    return next(even_cycle_sccs(g, [0]), None) is None


def brute_force_positional(arena: GameArena, objective: ParityAutomaton, bound=None):
    """Enumerate Eve's positional strategies; succeed iff one wins from her
    entire winning region (evaluated from the objective's initial state)."""
    if bound is None:
        bound = int(os.environ.get("POSAUT_LIMIT", "1000000"))
    arena.check_valid()
    region0 = _eve_wins_initial(arena, objective)
    eve_vertices = [v for v in range(arena.n_vertices) if arena.owner[v] == EVE]
    per_vertex = [arena.by_src[v] for v in eve_vertices]
    total = 1
    for outs in per_vertex:
        total *= max(len(outs), 1)
        if total > bound:
            raise ValueError(f"strategy space exceeds bound {bound}")
    comp = complement_det(objective)
    moves = [Transition(s, a, 0, t) for (s, a, t) in arena.edges]
    # Adam's moves are fixed; each strategy overwrites Eve's rows
    restricted = [[moves[i] for i, _ in outs] for outs in arena.by_src]
    index_lists = [[i for (i, _) in outs] for outs in per_vertex]
    for combo in iproduct(*index_lists):
        choice = dict(zip(eve_vertices, combo))
        for v, idx in choice.items():
            restricted[v] = [moves[idx]]
        if all(_strategy_wins(comp, restricted, v) for v in region0):
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
    arena: GameArena
    designated: tuple[int, ...]  # vertices Eve must win from
    objective: ParityAutomaton  # the objective to solve against


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
    infinitely-enter-with-finitely-small) is materialised as one
    deterministic parity automaton over letter_priority_type tokens."""
    if x % 2 != 0:
        raise ValueError("the completion gadget needs an even priority")
    n = aut.n_states
    for state in (q, qp):
        if not 0 <= state < n:
            raise ValueError(f"state {state} out of range for {n} states")
    d = max(aut.d_max, x + 1)
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
    objective = _composite_objective(w_det, alphabet, tokens, d)
    designated = [vid(aut.initial, 0), vid(aut.initial, 1)]
    if aut.initial in (q, qp):
        # runs of the augmented automaton may jump before reading anything
        designated.append(qmark)
    return Gadget(arena, tuple(designated), objective)


def _composite_objective(w_det, alphabet, tokens, d):
    """Deterministic parity automaton for W_Sigma u OddParity u GType over the
    token alphabet: product of w_det with the Zielonka-tree automaton of the
    three-stream union condition."""
    dw = w_det.d_max
    # eps-steps stutter the language stream at an even value above all real
    # priorities: plays with finitely many letters correspond to no run of
    # the automaton and must count for Eve, or an eps-cycle of the partially
    # completed automaton would let the opponent win vacuously
    stutter1 = dw + 1 if (dw + 1) % 2 == 0 else dw + 2
    type_map = {"s": 1, "e": 2, "n": 3}

    # stream tuples depend on the w_det transition taken, so build the union
    # automaton over abstract triples and product with w_det's state
    letter_streams = {}
    for t, (letter, pr, typ) in tokens.items():
        letter_streams[t] = (pr + 1, type_map[typ])
    # collect all possible (s1, s2, s3) combos as abstract letters
    combos = set()
    for t, (letter, pr, typ) in tokens.items():
        s2, s3 = letter_streams[t]
        if letter == EPS:
            combos.add((stutter1, s2, s3))
        else:
            for tr in w_det.transitions:
                if tr.letter == letter:
                    combos.add((tr.priority, s2, s3))
    combo_letters = sorted(combos)
    names = {c: f"c{i}" for i, c in enumerate(combo_letters)}
    union = union_parity_automaton(
        [names[c] for c in combo_letters], {names[c]: c for c in combo_letters}
    )
    # product states: (w_det state, union state)
    n_states = w_det.n_states * union.n_states

    def sid(wq, uq):
        return wq * union.n_states + uq

    rows = w_det.delta
    ordered = sorted(tokens.items())
    trans = []
    for wq in w_det.states():
        # per token: its union letter and w_det's successor from wq
        steps = []
        for t, (letter, pr, typ) in ordered:
            s2, s3 = letter_streams[t]
            if letter == EPS:
                steps.append((t, names[(stutter1, s2, s3)], wq))
            else:
                tr = rows[letter][wq]
                steps.append((t, names[(tr.priority, s2, s3)], tr.dst))
        for uq in union.states():
            for t, name, wq2 in steps:
                ut = union.delta[name][uq]
                trans.append(Transition(sid(wq, uq), t, ut.priority, sid(wq2, ut.dst)))
    return ParityAutomaton(
        n_states=n_states,
        alphabet=alphabet,
        initial=sid(w_det.initial, union.initial),
        transitions=tuple(trans),
        priority_range=priority_span(trans),
        deterministic=True,
    )


# ---------------------------------------------------------------------------
# Witness -> gadget dispatch
# ---------------------------------------------------------------------------


def gadget_for_witness(witness, objective: ParityAutomaton, aut=None, w_det=None):
    """Build the validating gadget game for a positionality witness.

    `objective` is a deterministic automaton for the analysed language; for
    completion witnesses `aut`/`w_det` give the automaton pair of the run.
    Returns a Gadget or None when the witness carries no game data.
    """
    from .witnesses import (
        CompletionFailure,
        FullProgressFailure,
        IncomparableResiduals,
        PolishLanguageChange,
        ProgressFailure,
        SafeOrderFailure,
    )

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
