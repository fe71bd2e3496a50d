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

from .automaton import EdgeGraph, ParityAutomaton, even_cycle_sccs, tarjan_scc


def _scc_of_states(n, trans_idx, transitions):
    comps = tarjan_scc(n, ((transitions[i].src, transitions[i].dst) for i in trans_idx))
    comp_of = {}
    for i, comp in enumerate(comps):
        for q in comp:
            comp_of[q] = i
    return comp_of


def _opposite_cycle_exists(trans, idxs, parity):
    """For each transition index in `idxs`, does some cycle (closed walk) through
    it within `idxs` have minimal priority of parity != `parity`?  These are
    the kernel's accepting cycles once priorities are shifted by 1 - parity."""
    idxs = list(idxs)
    n = max(max(trans[i].src, trans[i].dst) for i in idxs) + 1
    g = EdgeGraph(n)
    for i in idxs:
        g.add(trans[i].src, trans[i].dst, trans[i].priority + 1 - parity, 0)
    result = dict.fromkeys(idxs, False)
    for inner in even_cycle_sccs(g, range(n)):
        for e in inner:
            result[idxs[e]] = True
    return result


def _assign_component(trans, idxs, level, out):
    """Peel one strongly connected bundle of transitions starting at `level`."""
    idxs = list(idxs)
    min_col = min(trans[i].priority for i in idxs)
    if level % 2 != min_col % 2:
        level += 1
    parity = level % 2
    opposite = _opposite_cycle_exists(trans, idxs, parity)
    taken = [i for i in idxs if not opposite[i]]
    if not taken:
        raise AssertionError("normal-form peeling made no progress")
    for i in taken:
        out[i] = level
    rest = [i for i in idxs if opposite[i]]
    if not rest:
        return
    n = max(max(trans[i].src, trans[i].dst) for i in rest) + 1
    comp_of = _scc_of_states(n, rest, trans)
    buckets = {}
    for i in rest:
        t = trans[i]
        if comp_of[t.src] != comp_of[t.dst]:
            raise AssertionError("stranded transition during peeling")
        buckets.setdefault(comp_of[t.src], []).append(i)
    for key in sorted(buckets):
        _assign_component(trans, buckets[key], level + 1, out)


def normalize(aut: ParityAutomaton) -> ParityAutomaton:
    """Equivalent automaton in normal form (same states, letters, transitions)."""
    trans = aut.transitions
    comp_of = _scc_of_states(aut.n_states, range(len(trans)), trans)
    cycle_idx = {}
    for i, t in enumerate(trans):
        if comp_of[t.src] == comp_of[t.dst]:
            cycle_idx.setdefault(comp_of[t.src], []).append(i)
    out: dict[int, int] = {}
    for key in sorted(cycle_idx):
        idxs = cycle_idx[key]
        min_col = min(trans[i].priority for i in idxs)
        _assign_component(trans, idxs, min_col % 2, out)
    d_max = max(out.values(), default=1)
    new_trans = tuple(
        replace(t, priority=out.get(i, d_max)) for i, t in enumerate(trans)
    )
    prs = [t.priority for t in new_trans]
    return replace(
        aut,
        transitions=new_trans,
        priority_range=(min(prs, default=0), max(prs, default=0)),
    )


def is_normal(aut: ParityAutomaton) -> bool:
    norm = normalize(aut)
    return all(
        a.priority == b.priority for a, b in zip(aut.transitions, norm.transitions)
    )
