"""Deterministic parity automata for unions of min-parity conditions.

A letter carries a tuple of priorities, one per stream; a word is good when
some stream's minimal recurring priority is even.  The acceptance depends
only on the set of letters seen infinitely often, so it is a Muller
condition; the Zielonka tree of that condition yields a small deterministic
parity automaton (states are the tree's leaves, transitions walk the tree
with round-robin child switching).
"""

from __future__ import annotations

from dataclasses import dataclass, field


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


def _maximal(sets):
    out = []
    for s in sets:
        if any(s < t for t in sets):
            continue
        if s not in out:
            out.append(s)
    return out


def _children_sets(letters, tuples, accept):
    from itertools import product as iproduct

    k = len(next(iter(tuples.values())))
    values = [
        sorted({tuples[a][i] for a in letters}) for i in range(k)
    ]
    candidates = []
    if accept:
        # maximal subsets where every stream's minimum is odd: raise each
        # stream above an odd threshold (or leave it unconstrained)
        options = [[None] + [v for v in values[i] if v % 2 == 1] for i in range(k)]
        for thresholds in iproduct(*options):
            sub = frozenset(
                a
                for a in letters
                if all(
                    t is None or tuples[a][i] >= t for i, t in enumerate(thresholds)
                )
            )
            if sub and not _f_union(sub, tuples):
                candidates.append(sub)
    else:
        # maximal subsets where some stream's minimum is even: cut one stream
        # at an even value
        for i in range(k):
            for e in values[i]:
                if e % 2 != 0:
                    continue
                sub = frozenset(a for a in letters if tuples[a][i] >= e)
                if sub and _f_union(sub, tuples):
                    candidates.append(sub)
    return _maximal(candidates)


def zielonka_tree(letters, tuples) -> ZNode:
    def build(subset, depth):
        node = ZNode(frozenset(subset), _f_union(subset, tuples), depth)
        for child in sorted(_children_sets(subset, tuples, node.accept), key=sorted):
            node.children.append(build(child, depth + 1))
        return node

    return build(frozenset(letters), 0)


@dataclass(frozen=True)
class UnionParityAutomaton:
    """Deterministic transition-based parity automaton over tuple letters."""

    n_states: int
    initial: int
    delta: dict  # (state, letter) -> (state, priority)
    priority_range: tuple[int, int]


def union_parity_automaton(letters, tuples) -> UnionParityAutomaton:
    """The Zielonka-tree automaton for the union condition over `letters`."""
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

    def node_priority(node):
        return node.depth + base

    delta = {}
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
            pr = node_priority(support)
            if not support.children:
                nxt = support.leaf_index
            else:
                on_branch = branch[support.depth + 1]
                pos = support.children.index(on_branch)
                nxt_child = support.children[(pos + 1) % len(support.children)]
                node = nxt_child
                while node.children:
                    node = node.children[0]
                nxt = node.leaf_index
            delta[(idx, a)] = (nxt, pr)
    prs = [p for (_, p) in delta.values()] or [0]
    return UnionParityAutomaton(len(leaves), 0, delta, (min(prs), max(prs)))
