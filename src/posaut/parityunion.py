"""Deterministic parity automata for unions of min-parity conditions.

A letter carries a tuple of priorities, one per stream; a word is good when
some stream's minimal recurring priority is even.  The acceptance depends
only on the set of letters seen infinitely often, so it is a Muller
condition; the Zielonka tree of that condition yields a small deterministic
`ParityAutomaton` (states are the tree's leaves, transitions walk the tree
with round-robin child switching).  A `StreamObjective` is a deterministic
automaton whose steps carry such priority tuples; the game solver reads
its streams directly, and the union automaton is built only to
materialise it as one `ParityAutomaton`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct

from .automaton import ParityAutomaton, Transition, build


@dataclass
class ZNode:
    letters: int  # bitmask: bit j is the j-th letter in sorted order
    accept: bool
    depth: int
    children: list = field(default_factory=list)
    first_leaf: int | None = None  # leftmost leaf at or below, once numbered


class _Condition:
    """The union condition over `letters`, with letter sets as bitmasks:
    bit j is the j-th letter in sorted order.  `exactly[i]` lists, by
    increasing priority t, the pairs (t, letters whose stream-i priority is
    t)."""

    def __init__(self, letters, tuples):
        self.names = sorted(set(letters))
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
        """Some stream's least priority over the letters of `mask` is even."""
        for eq in self.exactly:
            for t, m in eq:
                if mask & m:
                    if t % 2 == 0:
                        return True
                    break
        return False

    def bits(self, mask) -> list[int]:
        return [j for j in range(len(self.names)) if mask >> j & 1]


def _children_sets(cond: _Condition, mask, accept):
    """The maximal subsets of `mask` whose acceptance differs from `accept`,
    sorted by their letters, as candidates cut by per-stream thresholds: a
    candidate is the AND of `mask` with per-stream masks "priority >= t", for
    the priorities t present in `mask`."""
    at_least = []  # per stream, (t, letters of `mask` with priority >= t)
    for eq in cond.exactly:
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
                if not cond.accepts(sub):
                    candidates.append(sub)
    else:
        # maximal subsets where some stream's minimum is even: cut one stream
        # at an even value
        for ge in at_least:
            for t, sub in ge:
                if t % 2 == 0 and cond.accepts(sub):
                    candidates.append(sub)
    maximal = []
    for s in candidates:
        if s in maximal or any(s & t == s and s != t for t in candidates):
            continue
        maximal.append(s)
    return sorted(maximal, key=cond.bits)


def zielonka_tree(letters, tuples) -> ZNode:
    """The Zielonka tree of the union condition over `letters`, children in
    the order of their sorted letters.  Children are computed once per
    distinct letter set."""
    cond = _Condition(letters, tuples)
    known = {}  # letter set -> (accept, children)

    def subtree(mask, depth):
        if mask not in known:
            accept = cond.accepts(mask)
            known[mask] = accept, _children_sets(cond, mask, accept)
        accept, children = known[mask]
        node = ZNode(mask, accept, depth)
        node.children = [subtree(c, depth + 1) for c in children]
        return node

    return subtree(cond.full, 0)


def union_parity_automaton(letters, tuples) -> ParityAutomaton:
    """The Zielonka-tree automaton for the union condition over `letters`:
    deterministic and complete, with the tree's leaves as states, leaf 0
    initial, and transitions in (leaf, letter) order.  From a leaf, a letter
    goes up to the deepest node of the leaf's branch that holds it.  That
    node's depth (plus one if the root rejects) is the priority, and the
    successor is the leftmost leaf of its next child round-robin, or the
    leaf itself."""
    root = zielonka_tree(letters, tuples)
    branches = []  # per leaf, its (node, position among its siblings) from the root

    def collect(node, path):
        node.first_leaf = len(branches)
        if not node.children:
            branches.append(path)
        for pos, ch in enumerate(node.children):
            collect(ch, path + [(ch, pos)])

    collect(root, [(root, 0)])
    base = 0 if root.accept else 1
    bit = {a: j for j, a in enumerate(sorted(set(letters)))}
    trans = []
    for idx, branch in enumerate(branches):
        move = {}  # letter bit -> (priority, successor)
        below, nxt = 0, idx
        for depth in range(len(branch) - 1, -1, -1):
            node = branch[depth][0]
            if depth < len(branch) - 1:
                # the leftmost leaf of the child after the branch's, round-robin
                kids = node.children
                nxt = kids[(branch[depth + 1][1] + 1) % len(kids)].first_leaf
            # the letters whose deepest node on the branch is this one
            fresh = node.letters & ~below
            below = node.letters
            while fresh:
                low = fresh & -fresh
                move[low.bit_length() - 1] = (depth + base, nxt)
                fresh ^= low
        for a in letters:
            p, t = move[bit[a]]
            trans.append((idx, a, p, t))
    return build(len(branches), letters, 0, trans, deterministic=True)


class StreamObjective:
    """A deterministic automaton whose transitions carry one priority per
    stream; a word is accepted when some stream's least recurring priority
    is even.  The game solver reads it as it is (`games.solve`): `step(q,
    a)` gives the tuple of stream priorities and the successor of state q
    on letter a, and `d_max` bounds every stream's priorities.

    `materialise` builds the equal `ParityAutomaton`: the cascade of this
    automaton with the union automaton of its stream tuples, whose letter
    each step chooses.  State q1 * m + q2 is the pair (q1, union state q2),
    transitions are in (state, letter) order, and the priorities are the
    union automaton's."""

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
        rows = [[self.step(q, a) for a in self.alphabet] for q in range(self.n_states)]
        tuples = sorted({s for row in rows for s, _ in row})
        names = {s: f"c{i}" for i, s in enumerate(tuples)}
        union = union_parity_automaton(list(names.values()), {names[s]: s for s in tuples})
        m = union.n_states
        trans = []
        for q1, row in enumerate(rows):
            for q2 in range(m):
                for a, (s, r1) in zip(self.alphabet, row):
                    t = union.delta[names[s]][q2]
                    trans.append(Transition(q1 * m + q2, a, t.priority, r1 * m + t.dst))
        return ParityAutomaton(
            n_states=self.n_states * m,
            alphabet=self.alphabet,
            initial=self.initial * m + union.initial,
            transitions=tuple(trans),
            priority_range=union.priority_range,
            deterministic=True,
        )
