"""Canonical normal form for parity automata.

Every parity automaton admits an equivalent relabelling (same min-priority
parity on every cycle) in which each transition carries the smallest
consistent priority.  On transitions that lie on at least one cycle this
labelling is unique; it is computed here by iterative peeling: within each
SCC, the transitions all of whose cycles match the component's strongest
parity take the current level, and the remainder is re-decomposed one level
up.  Transitions whose endpoints lie in different SCCs are on no cycle and
acceptance never depends on them; they are assigned the maximum priority of
the normalized automaton, which keeps `normalize` idempotent.
"""

from __future__ import annotations

from dataclasses import replace

from .automaton import EdgeGraph, ParityAutomaton, Transition, even_cycle_sccs, priority_span


def _accepting_sccs(trans, idxs, priority):
    """The kernel's accepting SCCs among the transitions `idxs`, each as the
    list of its transition indices, with `priority(t)` on each transition."""
    n = max((max(trans[i].src, trans[i].dst) for i in idxs), default=-1) + 1
    g = EdgeGraph(n)
    for i in idxs:
        g.add(trans[i].src, trans[i].dst, priority(trans[i]), 0)
    return [[idxs[e] for e in inner] for inner in even_cycle_sccs(g, range(n))]


def _assign_component(trans, idxs, level, out):
    """Peel one strongly connected bundle of transitions starting at `level`.

    The transitions on a cycle of the opposite parity are those of the
    kernel's accepting SCCs with priorities shifted by 1 - parity.  Each
    level of the kernel holds every cycle of the levels below it, so two of
    these SCCs are never on a common cycle: each is peeled one level up."""
    min_col = min(trans[i].priority for i in idxs)
    if level % 2 != min_col % 2:
        level += 1
    shift = 1 - level % 2
    rest = _accepting_sccs(trans, idxs, lambda t: t.priority + shift)
    left = set(idxs).difference(*rest)
    if not left:
        raise AssertionError("normal-form peeling made no progress")
    for i in left:
        out[i] = level
    for comp in rest:
        _assign_component(trans, comp, level + 1, out)


def normalize(aut: ParityAutomaton) -> ParityAutomaton:
    """Equivalent automaton in normal form (same states, letters, transitions)."""
    trans = aut.transitions
    out: dict[int, int] = {}
    # with every priority 0, every cycle counts: the SCCs of all transitions
    for comp in _accepting_sccs(trans, range(len(trans)), lambda t: 0):
        _assign_component(trans, comp, 0, out)
    d_max = max(out.values(), default=1)
    new_trans = tuple(
        Transition(t.src, t.letter, out.get(i, d_max), t.dst) for i, t in enumerate(trans)
    )
    return replace(aut, transitions=new_trans, priority_range=priority_span(new_trans))


def is_normal(aut: ParityAutomaton) -> bool:
    norm = normalize(aut)
    return all(
        a.priority == b.priority for a, b in zip(aut.transitions, norm.transitions)
    )
