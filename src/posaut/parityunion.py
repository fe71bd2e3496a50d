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
    letters: frozenset
    accept: bool
    depth: int
    children: list = field(default_factory=list)
    leaf_index: int | None = None


def _f_union(letters, tuples):
    if not letters:
        return False
    k = len(next(iter(tuples.values())))
    return any(
        min(tuples[a][i] for a in letters) % 2 == 0 for i in range(k)
    )


def _children_sets(letters, tuples, accept):
    """The maximal subsets of `letters` whose acceptance differs from
    `accept`, as candidates cut by per-stream thresholds.  Letter sets are
    bitmasks over `letters` in iteration order: a candidate is the AND of
    per-stream masks "priority >= threshold"."""
    order = list(letters)
    k = len(next(iter(tuples.values())))
    columns = [[tuples[a][i] for a in order] for i in range(k)]
    values = [sorted(set(col)) for col in columns]
    # at_least[i][t] and exactly[i][t]: letters whose stream-i priority is
    # >= t and == t, for the priorities t present
    at_least, exactly = [], []
    for i in range(k):
        eq = {t: 0 for t in values[i]}
        for j, t in enumerate(columns[i]):
            eq[t] |= 1 << j
        ge, acc = {}, 0
        for t in reversed(values[i]):
            acc |= eq[t]
            ge[t] = acc
        at_least.append(ge)
        exactly.append(eq)

    def accepts(mask):
        # some stream's least priority over the letters of `mask` is even
        for i in range(k):
            least = next(t for t in values[i] if mask & exactly[i][t])
            if least % 2 == 0:
                return True
        return False

    full = (1 << len(order)) - 1
    candidates = []
    if accept:
        # maximal subsets where every stream's minimum is odd: raise each
        # stream above an odd threshold (or leave it unconstrained)
        options = [[full] + [at_least[i][t] for t in values[i] if t % 2 == 1] for i in range(k)]
        for masks in iproduct(*options):
            sub = full
            for m in masks:
                sub &= m
            if sub and not accepts(sub):
                candidates.append(sub)
    else:
        # maximal subsets where some stream's minimum is even: cut one stream
        # at an even value
        for i in range(k):
            for e in values[i]:
                if e % 2 != 0:
                    continue
                sub = at_least[i][e]
                if sub and accepts(sub):
                    candidates.append(sub)
    maximal = []
    for s in candidates:
        if any(s & t == s and s != t for t in candidates):
            continue
        if s not in maximal:
            maximal.append(s)
    return [frozenset(a for j, a in enumerate(order) if s >> j & 1) for s in maximal]


def zielonka_tree(letters, tuples) -> ZNode:
    def subtree(subset, depth):
        node = ZNode(frozenset(subset), _f_union(subset, tuples), depth)
        for child in sorted(_children_sets(subset, tuples, node.accept), key=sorted):
            node.children.append(subtree(child, depth + 1))
        return node

    return subtree(frozenset(letters), 0)


def union_parity_automaton(letters, tuples) -> ParityAutomaton:
    """The Zielonka-tree automaton for the union condition over `letters`:
    deterministic and complete, with the tree's leaves as states, leaf 0
    initial, and transitions in (leaf, letter) order."""
    root = zielonka_tree(letters, tuples)
    leaves: list[list[ZNode]] = []  # branches, root first

    def collect(node, path):
        path = path + [node]
        if not node.children:
            node.leaf_index = len(leaves)
            leaves.append(path)
        for ch in node.children:
            collect(ch, path)

    collect(root, [])
    base = 0 if root.accept else 1
    trans = []
    for idx, branch in enumerate(leaves):
        for a in letters:
            support = None
            for node in branch:
                if a in node.letters:
                    support = node
                else:
                    break
            if support is None:
                raise ValueError(f"letter {a!r} missing from the root alphabet")
            if not support.children:
                nxt = support.leaf_index
            else:
                on_branch = branch[support.depth + 1]
                pos = support.children.index(on_branch)
                node = support.children[(pos + 1) % len(support.children)]
                while node.children:
                    node = node.children[0]
                nxt = node.leaf_index
            trans.append((idx, a, support.depth + base, nxt))
    return build(len(leaves), letters, 0, trans, deterministic=True)


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
