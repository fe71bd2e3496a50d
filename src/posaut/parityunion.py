"""Deterministic parity automata for unions of min-parity conditions.

A letter carries a tuple of priorities, one per stream; a word is good when
some stream's minimal recurring priority is even.  The acceptance depends
only on the set of letters seen infinitely often, so it is a Muller
condition; the Zielonka tree of that condition yields a small deterministic
`ParityAutomaton` (states are the tree's leaves, transitions walk the tree
with round-robin child switching).  `Cascade` runs a deterministic
automaton and such a union automaton side by side, the first choosing the
second's letter, and works out each transition when it is first read.
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


class Cascade:
    """A deterministic parity automaton whose transitions are worked out
    when they are read: the cascade of a deterministic `first` automaton with
    the deterministic `second`, whose letter each step of `first` chooses.

    State q1 * second.n_states + q2 is the pair (q1, q2).  `link(q1, a)`
    gives the letter of `second` and first's next state for letter `a` in
    first-state q1; the cascade then moves `second` along that letter and
    takes its priority.  `link` is asked once per (q1, a), the first time a
    state with first-state q1 reads `a`.  The priority range is second's, so
    every pair of a second state and a letter `link` can give must be a
    transition of the cascade.

    `step` is the row function the game solver reads.  `materialise` builds
    the equal `ParityAutomaton`, with transitions in (state, letter) order;
    any other public attribute of a `ParityAutomaton` (`transitions`,
    `delta`, `dsucc`, ...) is read from it."""

    deterministic = True
    has_eps = False

    def __init__(self, first_states: int, first_initial: int, second: ParityAutomaton, alphabet, link):
        self.alphabet = tuple(alphabet)
        self.n_states = first_states * second.n_states
        self.initial = first_initial * second.n_states + second.initial
        self.priority_range = second.priority_range
        self._second = second
        self._m2 = second.n_states
        self._link = link
        # per first-state, letter -> (second's row, first-state offset)
        self._links = [{} for _ in range(first_states)]
        self._automaton = None

    @property
    def d_max(self):
        return self.priority_range[1]

    def step(self, q: int, a: str) -> tuple[int, int]:
        """The (priority, successor) of state q on letter a."""
        m2 = self._m2
        q1, q2 = divmod(q, m2)
        links = self._links[q1]
        hit = links.get(a)
        if hit is None:
            b, r1 = self._link(q1, a)
            hit = links[a] = (self._second.delta[b], r1 * m2)
        row, offset = hit
        t = row[q2]
        return t.priority, offset + t.dst

    def materialise(self) -> ParityAutomaton:
        if self._automaton is None:
            trans = []
            for q in range(self.n_states):
                for a in self.alphabet:
                    p, r = self.step(q, a)
                    trans.append(Transition(q, a, p, r))
            self._automaton = ParityAutomaton(
                n_states=self.n_states,
                alphabet=self.alphabet,
                initial=self.initial,
                transitions=tuple(trans),
                priority_range=self.priority_range,
                deterministic=True,
            )
        return self._automaton

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.materialise(), name)
