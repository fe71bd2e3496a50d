"""Deterministic parity automata for unions of min-parity conditions.

A colour carries a tuple of priorities, one per stream; a word is good when
some stream's minimal recurring priority is even.  The acceptance depends
only on the set of colours seen infinitely often, so it is a Muller
condition.  `cascade`, the one walk from its Zielonka tree to transitions,
builds the product of a deterministic automaton whose steps emit colours
with the tree's parity automaton (Casares, Colcombet and Fijalkow, ICALP
2021).  `union_parity_automaton` cascades a one-state automaton whose
colours are its letters; `StreamObjective.materialise` cascades an
automaton whose steps carry priority tuples, which the game solver reads
as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct

from .automaton import ParityAutomaton, build


@dataclass
class ZNode:
    letters: int  # bitmask: bit j is the condition's j-th colour
    accept: bool
    children: list = field(default_factory=list)
    first_leaf: int | None = None  # leftmost leaf at or below, once numbered


class _Condition:
    """The union condition over `colours`, with colour sets as bitmasks: bit
    j is `colours[j]`, in the order given, whose stream priorities are
    `tuples[colours[j]]`.  `exactly[i]` lists, by increasing priority t, the
    pairs (t, colours whose stream-i priority is t)."""

    def __init__(self, colours, tuples):
        self.names = list(colours)
        self.full = (1 << len(self.names)) - 1
        k = len(tuples[self.names[0]])
        self.exactly = []
        for i in range(k):
            eq = {}
            for j, a in enumerate(self.names):
                t = tuples[a][i]
                eq[t] = eq.get(t, 0) | 1 << j
            self.exactly.append(sorted(eq.items()))

    def accepts(self, mask) -> bool:
        """Some stream's least priority over the colours of `mask` is even."""
        for eq in self.exactly:
            for t, m in eq:
                if mask & m:
                    if t % 2 == 0:
                        return True
                    break
        return False

    def bits(self, mask) -> list[int]:
        return [j for j in range(len(self.names)) if mask >> j & 1]

    def children(self, mask, accept):
        """The maximal subsets of `mask` whose acceptance differs from
        `accept`, sorted by their colours, as candidates cut by per-stream
        thresholds: a candidate is the AND of `mask` with per-stream masks
        "priority >= t", for the priorities t present in `mask`."""
        at_least = []  # per stream, (t, colours of `mask` with priority >= t)
        for eq in self.exactly:
            ge, acc = [], 0
            for t, m in reversed(eq):
                if mask & m:
                    acc |= m & mask
                    ge.append((t, acc))
            at_least.append(ge)
        candidates = []
        if accept:
            # maximal subsets where every stream's minimum is odd: raise each
            # stream above an odd threshold (or leave it unconstrained)
            options = [[mask] + [m for t, m in ge if t % 2 == 1] for ge in at_least]
            tried = set()
            for masks in iproduct(*options):
                sub = mask
                for m in masks:
                    sub &= m
                if sub and sub not in tried:
                    tried.add(sub)
                    if not self.accepts(sub):
                        candidates.append(sub)
        else:
            # maximal subsets where some stream's minimum is even: cut one
            # stream at an even value
            for ge in at_least:
                for t, sub in ge:
                    if t % 2 == 0 and self.accepts(sub):
                        candidates.append(sub)
        maximal = []
        for s in candidates:
            if s in maximal or any(s & t == s and s != t for t in candidates):
                continue
            maximal.append(s)
        return sorted(maximal, key=self.bits)


def zielonka_tree(cond: _Condition) -> ZNode:
    """The Zielonka tree of `cond`, children in the order of their sorted
    colours.  Children are computed once per distinct colour set."""
    known = {}  # colour set -> (accept, children)

    def subtree(mask):
        if mask not in known:
            accept = cond.accepts(mask)
            known[mask] = accept, cond.children(mask, accept)
        accept, children = known[mask]
        return ZNode(mask, accept, [subtree(c) for c in children])

    return subtree(cond.full)


def cascade(n_states, initial, alphabet, step, condition) -> ParityAutomaton:
    """The product of a deterministic automaton with the Zielonka-tree
    automaton of `condition`: `step(q, a)` gives the colour and the
    successor of state q on letter a.  State q1 * m + q2 is the pair (q1,
    leaf q2) of the tree's m leaves, the initial state is (`initial`, leaf
    0), and transitions are in (state, leaf, letter) order.  From a leaf, a
    colour goes up to the deepest node of the leaf's branch that holds it.
    That node's depth (plus one if the root rejects) is the priority, and
    the successor leaf is the leftmost leaf of its next child round-robin,
    or the leaf itself."""
    root = zielonka_tree(condition)
    branches = []  # per leaf, its (node, position among its siblings) from the root

    def collect(node, path):
        node.first_leaf = len(branches)
        if not node.children:
            branches.append(path)
        for pos, ch in enumerate(node.children):
            collect(ch, path + [(ch, pos)])

    collect(root, [(root, 0)])
    base = 0 if root.accept else 1
    moves = []  # per leaf, colour bit -> (priority, successor leaf)
    for idx, branch in enumerate(branches):
        move = {}
        below, nxt = 0, idx
        for depth in range(len(branch) - 1, -1, -1):
            node = branch[depth][0]
            if depth < len(branch) - 1:
                # the leftmost leaf of the child after the branch's, round-robin
                kids = node.children
                nxt = kids[(branch[depth + 1][1] + 1) % len(kids)].first_leaf
            # the colours whose deepest node on the branch is this one
            fresh = node.letters & ~below
            below = node.letters
            while fresh:
                low = fresh & -fresh
                move[low.bit_length() - 1] = (depth + base, nxt)
                fresh ^= low
        moves.append(move)
    bit = {c: j for j, c in enumerate(condition.names)}
    rows = [[step(q, a) for a in alphabet] for q in range(n_states)]
    m = len(branches)
    trans = []
    for q1, row in enumerate(rows):
        for q2, move in enumerate(moves):
            for a, (c, r1) in zip(alphabet, row):
                p, t = move[bit[c]]
                trans.append((q1 * m + q2, a, p, r1 * m + t))
    return build(n_states * m, alphabet, initial * m, trans, deterministic=True)


def union_parity_automaton(letters, tuples) -> ParityAutomaton:
    """The Zielonka-tree automaton for the union condition over `letters`:
    the cascade of a one-state automaton whose colours are its letters in
    sorted order, so its states are the tree's leaves."""
    cond = _Condition(sorted(set(letters)), tuples)
    return cascade(1, 0, letters, lambda q, a: (a, 0), cond)


class StreamObjective:
    """A deterministic automaton whose transitions carry one priority per
    stream; a word is accepted when some stream's least recurring priority
    is even.  The game solver reads it as it is (`games.solve`): `step(q,
    a)` gives the tuple of stream priorities and the successor of state q
    on letter a, and `d_max` bounds every stream's priorities.

    `materialise` builds the equal `ParityAutomaton`: the `cascade` of this
    automaton whose colours are its stream tuples."""

    deterministic = True
    has_eps = False

    def __init__(self, n_states: int, initial: int, alphabet, step, streams: int, d_max: int):
        self.n_states = n_states
        self.initial = initial
        self.alphabet = tuple(alphabet)
        self.step = step
        self.streams = streams
        self.d_max = d_max

    def materialise(self) -> ParityAutomaton:
        # the colours in the text order of the names c0, c1, ... of the sorted
        # tuples (c10 before c2): leaves are numbered in colour order, and
        # `posaut gadget --obj-out` has always written the automaton it gives
        tuples = sorted({self.step(q, a)[0] for q in range(self.n_states) for a in self.alphabet})
        colours = [tuples[i] for i in sorted(range(len(tuples)), key=str)]
        cond = _Condition(colours, dict(zip(colours, colours)))
        return cascade(self.n_states, self.initial, self.alphabet, self.step, cond)
