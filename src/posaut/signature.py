"""Procedure 1: turn a deterministic parity automaton into a fully progress
consistent structured signature automaton, or report a positionality failure.

The pipeline loops over even priorities x: saturate the (x-1)-transitions
over the level-(x-2) classes, centralise (<x)-safe components, check that
safe-language inclusion totally orders each class, re-determinise with the
round-robin component rule, and polish x-transitions.  Polishing cuts the
level's unpolished classes one after another, trimming between cuts, and
a chain of cuts triggers one language check and one restart on the
smaller automaton; `_run_pipeline` allows at most (d + 2) * |Q| + 4
restarts, for the top priority d and the |Q| states of the trimmed,
normalised input.  One decision computes the residual preorder of each
automaton it meets once, and its safe-language inclusion once per level,
each for all pairs of states at once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import cache, partial
from itertools import permutations

from .automaton import (
    Congruence,
    FormatError,
    ParityAutomaton,
    Transition,
    access_word,
    bisimulation_quotient,
    emit_dpa,
    explore,
    is_faithful,
    one_per_src_letter,
    parse_dpa,
    rebuild,
    safe_components,
    tarjan_scc,
    tree_word,
    up_membership,
    upword,
)
from .lang import ResidualPreorder, SafeInclusion, lang_equal_det, residual_preorder
# unused here, but bench/tracing.py rebinds it in this module
from .lang import safe_incl  # noqa: F401
from .normalform import normalize
from .progress import check_full_progress_consistency, check_progress_consistency
from .witnesses import (
    FullProgressFailure,
    IncomparableResiduals,
    NotPositional,
    PolishLanguageChange,
    Positional,
    ProgressFailure,
    SafeOrderFailure,
    TwoLoopData,
)


class PipelineError(AssertionError):
    """An internal invariant broke outside a restart point; a bug, never a verdict."""


# ---------------------------------------------------------------------------
# Nested preorders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NestedPreorders:
    """Per-priority total preorders, level k+1 refining level k, as rank maps."""

    levels: tuple[dict[int, int], ...]
    d: int

    def rank(self, x: int) -> dict[int, int]:
        return self.levels[x]

    def classes_at(self, x: int, n_states: int) -> Congruence:
        return Congruence.by_key(self.levels[x][q] for q in range(n_states))

    def leq(self, x, q, p):
        return self.levels[x][q] <= self.levels[x][p]

    def lt(self, x, q, p):
        return self.levels[x][q] < self.levels[x][p]

    def same(self, x, q, p):
        return self.levels[x][q] == self.levels[x][p]


@dataclass(frozen=True)
class SignatureAutomaton:
    automaton: ParityAutomaton
    preorders: NestedPreorders
    validated: bool = False

    @property
    def d(self):
        return self.preorders.d


def _dense(keys: dict[int, tuple]) -> dict[int, int]:
    order = sorted(set(keys.values()))
    renum = {k: i for i, k in enumerate(order)}
    return {q: renum[k] for q, k in keys.items()}


def _component_refinement(aut: ParityAutomaton, x: int, prev: dict[int, int]):
    """Refine the level-(x-2) ranks by the order of (<x)-safe components
    (within a class: components sorted by their least member)."""
    comps = safe_components(aut, x)
    keys = {}
    for q in aut.states():
        cls = prev[q]
        members = [p for p in comps.members(comps.class_of[q]) if prev[p] == cls]
        keys[q] = (prev[q], min(members + [q]))
    return _dense(keys)


def _safe_refinement(safe: SafeInclusion, prev: dict[int, int]):
    """Refine the level-(x-1) ranks by the (<x)-safe-language inclusion
    `safe`.

    Returns the rank map, or the first incomparable pair as a tuple
    (q, p, sep_qp, sep_pq).
    """
    groups: dict[int, list[int]] = {}
    for q in safe.aut.states():
        groups.setdefault(prev[q], []).append(q)
    keys = {}
    for cls, members in groups.items():
        for q in members:
            for p in members:
                if q < p and not safe.holds(q, p) and not safe.holds(p, q):
                    return q, p, safe.check(q, p), safe.check(p, q)
        for q in members:
            below = sum(1 for p in members if safe.holds(p, q) and not safe.holds(q, p))
            keys[q] = (prev[q], below)
    return _dense(keys)


def _residuals(aut: ParityAutomaton, memo) -> ResidualPreorder:
    """`residual_preorder(aut)`, computed once per automaton in `memo`.

    `memo` is None or a dict that one decision passes to every stage, so
    that each relation is built once per automaton (and level); it maps
    each automaton to its residual preorder, (automaton, x) to its
    `SafeInclusion`, and "progress" to the restart automaton on which plain
    progress consistency is known to hold (`_run_pipeline`)."""
    if memo is None:
        return residual_preorder(aut)
    rp = memo.get(aut)  # hashing an automaton hashes all its transitions
    if rp is None:
        rp = memo[aut] = residual_preorder(aut)
    return rp


def _incomparable(aut: ParityAutomaton, rp: ResidualPreorder) -> NotPositional:
    """The verdict for a residual preorder that is not total."""
    q, p, w1, w2 = rp.incomparable_witness
    return NotPositional(
        IncomparableResiduals(q, p, w1, w2, access_word(aut, q), access_word(aut, p))
    )


def _safe(aut: ParityAutomaton, x: int, memo) -> SafeInclusion:
    """The `SafeInclusion` of (aut, x), built once per `memo` (see
    `_residuals`)."""
    if memo is None:
        return SafeInclusion(aut, x)
    return memo.setdefault((aut, x), SafeInclusion(aut, x))


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


def saturate(aut: ParityAutomaton, x: int, classes: Congruence) -> ParityAutomaton:
    """(x-1)-saturation: fan every (x-1)-transition out to the whole level-(x-2)
    class of its target.  Requires homogeneity and determinism away from x-1."""
    _require_homogeneous(aut)
    _require_det_except(aut, x - 1)
    existing = set(
        (t.src, t.letter, t.priority, t.dst) for t in aut.transitions
    )
    trans = list(aut.transitions)
    for t in aut.transitions:
        if t.priority != x - 1 or t.is_eps:
            continue
        for p2 in classes.members(classes.class_of[t.dst]):
            key = (t.src, t.letter, x - 1, p2)
            if key not in existing:
                existing.add(key)
                trans.append(Transition(*key))
    return replace(aut, transitions=tuple(trans), deterministic=one_per_src_letter(trans))


def _require_homogeneous(aut):
    for q in aut.states():
        for a in aut.alphabet:
            prios = {t.priority for t in aut.succ(q, a)}
            if len(prios) > 1:
                raise ValueError(f"not homogeneous at state {q}, letter {a!r}")


def _require_det_except(aut, y):
    for q in aut.states():
        for a in aut.alphabet:
            ts = [t for t in aut.succ(q, a) if t.priority != y]
            if len(ts) > 1:
                raise ValueError(
                    f"state {q} nondeterministic on {a!r} away from priority {y}"
                )


def safe_centralise(aut: ParityAutomaton, x: int, classes: Congruence, memo=None):
    """Delete redundant (<x)-safe components until none remains.

    A component S is redundant if some q in S has a level-(x-2)-equivalent
    q' outside S with Safe(q) included in Safe(q').  Incoming transitions are
    redirected along the image of the first discovered safe run.  Returns
    (automaton, classes restricted to the survivors).  `memo` as in
    `_residuals`.
    """
    while True:
        comps = safe_components(aut, x)
        target = _find_redundant(_safe(aut, x, memo), comps, classes)
        if target is None:
            return aut, classes
        s_class, q0, q0p = target
        s_members = set(comps.members(s_class))
        pick = _pick_map(aut, x, q0, q0p, s_members)
        keep = [q for q in aut.states() if q not in s_members]
        image = [pick.get(q, q) for q in aut.states()]
        aut = rebuild(aut, keep, image, deterministic=False)
        classes = Congruence.by_key(classes.class_of[q] for q in keep)


def _find_redundant(safe: SafeInclusion, comps, classes):
    for s_class in range(comps.n_classes):
        members = comps.members(s_class)
        for q in members:
            for qp in safe.aut.states():
                if comps.class_of[qp] == s_class:
                    continue
                if not classes.same(q, qp):
                    continue
                if safe.holds(q, qp):
                    return s_class, q, qp
    return None


def _pick_map(aut, x, q0, q0p, s_members):
    """For each state of the doomed component, its image in the witnessing one:
    follow the (deterministic over >=x) safe run of q0' along the access of q0."""
    pick = {q0: q0p}
    prev = {q0: None}
    queue = deque([q0])

    def safe_step(s, a):
        for t in aut.succ(s, a):
            if t.priority >= x:
                return t.dst
        return None

    while queue:
        s = queue.popleft()
        for t in aut.by_src[s]:
            if t.priority < x or t.dst not in s_members or t.dst in pick:
                continue
            img = safe_step(pick[s], t.letter)
            if img is None:
                raise PipelineError("safe run vanished during centralisation")
            pick[t.dst] = img
            queue.append(t.dst)
    for s in s_members:
        if s not in pick:
            # unreachable inside the component via safe steps from q0; map it
            # through any member already picked (component states are safely
            # interconnected, so this only happens for stale states)
            pick[s] = q0p
    return pick


def check_total_safe_order(
    aut: ParityAutomaton, x: int, classes_xm2: Congruence, memo=None
):
    """The level-x ranks, when safe-language inclusion totally orders every
    level-(x-1) class (a level-(x-2) class cut by the (<x)-safe components);
    else the first incomparable pair (q, p, sep_qp, sep_pq).  `memo` as in
    `_residuals`."""
    comps = safe_components(aut, x)
    classes_xm1 = Congruence.by_key(zip(classes_xm2.class_of, comps.class_of))
    return _safe_refinement(_safe(aut, x, memo), dict(enumerate(classes_xm1.class_of)))


def redeterminise(
    aut: ParityAutomaton,
    x: int,
    classes_xm2: Congruence,
    rank_x: dict[int, int],
) -> ParityAutomaton:
    """Resolve the (x-1)-nondeterminism: route each (x-1)-transition to the
    safe-maximal state of the target class in the next component, round-robin
    over the ordered (<x)-safe components."""
    comps = safe_components(aut, x)
    comp_order = sorted(
        range(comps.n_classes), key=lambda c: min(comps.members(c))
    )
    comp_index = {c: i for i, c in enumerate(comp_order)}

    def pick_max(states):
        best = max(rank_x[s] for s in states)
        return min(s for s in states if rank_x[s] == best)

    new_trans = []
    handled = set()
    for t in aut.transitions:
        if t.priority != x - 1 or t.is_eps:
            new_trans.append(t)
            continue
        key = (t.src, t.letter)
        if key in handled:
            continue
        handled.add(key)
        target_class = classes_xm2.class_of[t.dst]
        i_here = comp_index[comps.class_of[t.src]]
        candidates = sorted(
            {
                comp_index[comps.class_of[p]]
                for p in classes_xm2.members(target_class)
            }
        )
        below = [j for j in candidates if j < i_here]
        i_next = max(below) if below else max(candidates)
        chosen_comp = comp_order[i_next]
        cell = [
            p
            for p in classes_xm2.members(target_class)
            if comps.class_of[p] == chosen_comp
        ]
        new_trans.append(Transition(t.src, t.letter, x - 1, pick_max(cell)))
    out = replace(aut, transitions=tuple(new_trans), deterministic=True)
    bad = out.violations()
    if bad:
        raise PipelineError("re-determinisation broke the automaton: " + bad[0])
    return out


# ---------------------------------------------------------------------------
# Polishing
# ---------------------------------------------------------------------------


def _reach(aut: ParityAutomaton, x: int, reflexive: bool):
    """Per state, the states reached by a nonempty path of (>=x)-transitions,
    plus the state itself when `reflexive`."""
    adj = [[] for _ in range(aut.n_states)]
    for t in aut.transitions:
        if t.priority >= x:
            adj[t.src].append(t.dst)
    reach = []
    for q in aut.states():
        seen = {q} if reflexive else set()
        stack = [q]
        while stack:
            s = stack.pop()
            for u in adj[s]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        reach.append(seen)
    return reach


def _class_unpolished(aut, x, members, sccs) -> bool:
    """Is the class not x-polished: do its members lie in more than one SCC
    `sccs` of the (>x)-subautomaton, or does some letter have an x-transition
    from some members but not from all?"""
    if len({sccs.class_of[q] for q in members}) > 1:
        return True
    return any(
        len({row[q].priority == x for q in members}) > 1 for row in aut.delta.values()
    )


def _aux_graph(aut, x, members):
    """Neutral-letter edges of the class: q1 -> q2 when some class-avoiding
    (>=x)-path from q1 to q2 is labelled by a word that fails to produce
    priority x uniformly over the class, witnessed by a member whose parallel
    run stays strictly above x.

    One search per member q1, over the pairs (path state, witness state)
    reached from every (q1, s) with s in the class: a step takes the path's
    (>=x)-move and the witness's (>x)-move on the same letter.  A witness
    run that once drops to x or below can never witness an edge, so it is
    not followed, and the search needs no flag for it."""
    mem = set(members)
    rows = tuple(aut.delta.values())
    edges = set()
    for q1 in members:
        stack = [(q1, s) for s in members]
        seen = set(stack)
        while stack:
            m, r = stack.pop()
            for row in rows:
                mt, rt = row[m], row[r]
                if mt.priority < x or rt.priority <= x:
                    continue
                node = (mt.dst, rt.dst)
                if mt.dst in mem:
                    edges.add((q1, mt.dst))
                elif node not in seen:
                    seen.add(node)
                    stack.append(node)
    return edges


def _first_unpolished(aut, x, classes):
    """The members of the first class of `classes` with at least two states
    that is not x-polished (`_class_unpolished`), or None."""
    sccs = safe_components(aut, x + 1)
    for c in range(classes.n_classes):
        members = classes.members(c)
        if len(members) > 1 and _class_unpolished(aut, x, members, sccs):
            return members
    return None


def _least_final_scc(aut, x, members) -> set[int]:
    """The final SCC of the class's auxiliary graph (`_aux_graph`) with the
    least member."""
    edges = _aux_graph(aut, x, members)
    remap = {q: i for i, q in enumerate(members)}
    comps = tarjan_scc(len(members), ((remap[u], remap[v]) for (u, v) in edges))
    comp_of = {}
    for i, comp in enumerate(comps):
        for q in comp:
            comp_of[q] = i
    outgoing = set()
    for (u, v) in edges:
        if comp_of[remap[u]] != comp_of[remap[v]]:
            outgoing.add(comp_of[remap[u]])
    finals = [i for i in range(len(comps)) if i not in outgoing]
    return min(({members[j] for j in comps[i]} for i in finals), key=min)


def polish(aut: ParityAutomaton, x: int, classes: Congruence):
    """Per-class x-polishing of the deterministic `aut`.

    Returns ("structured", A') with canonical x-transition targets when every
    class is already polished, and ("stuck", None) when the first
    unpolished class is stuck: the final SCC with the least member of its
    auxiliary graph (`_aux_graph`) is the whole class, which cannot happen
    for positional languages.  Otherwise it cuts that class to that SCC,
    trims the result, restricts `classes` to the states left (numbered
    again by least state) and cuts the next unpolished class of the trimmed
    automaton in the same way, until the level is polished or the next
    class is stuck; it returns ("shrunk", A') with the last automaton, so
    one language check and one restart serve the whole chain of cuts.
    Raises `PipelineError` when some letter has no move or more than one
    from a state.
    """
    try:
        aut.delta  # the per-letter tables both searches read
    except ValueError:
        raise PipelineError("polish expects a deterministic automaton") from None
    shrunk = False
    while (members := _first_unpolished(aut, x, classes)) is not None:
        s_states = _least_final_scc(aut, x, members)
        if s_states == set(members):
            break
        q0 = min(s_states)
        doomed = set(members) - s_states
        keep = [q for q in aut.states() if q not in doomed]
        image = [q0 if q in doomed else q for q in aut.states()]
        cut = rebuild(
            aut, keep, image, lambda t: min(t.priority, x) if t.dst in doomed else t.priority
        )
        left = sorted(cut.reachable())
        aut, classes = cut.trim(), Congruence.by_key(classes.class_of[keep[q]] for q in left)
        shrunk = True
    if shrunk:
        return "shrunk", aut
    if members is None:
        return "structured", _canonicalise_x_targets(aut, x, classes)
    return "stuck", None


def _canonicalise_x_targets(aut: ParityAutomaton, x: int, classes: Congruence):
    """Route every x-transition to the least state of its target class."""
    pick = {}
    for c in range(classes.n_classes):
        members = classes.members(c)
        for q in members:
            pick[q] = min(members)
    trans = tuple(
        Transition(t.src, t.letter, t.priority, pick[t.dst])
        if t.priority == x and not t.is_eps
        else t
        for t in aut.transitions
    )
    return replace(aut, transitions=tuple(dict.fromkeys(trans)))


# ---------------------------------------------------------------------------
# Two-loop witnesses
# ---------------------------------------------------------------------------


def _loops_back(aut: ParityAutomaton, r: int, s: int) -> dict[int, tuple[str, ...]]:
    """Per priority m, a shortest word w with r -w-> r at an odd least
    priority and s -w-> r at least priority m: one breadth-first search over
    the two runs with their running minima, from (r, s) with r != s."""
    top = aut.d_max + 1
    rows = aut.delta.items()

    def step(node):
        s1, s2, m1, m2 = node
        for a, ts in rows:
            t1, t2 = ts[s1], ts[s2]
            yield (t1.dst, t2.dst, min(m1, t1.priority), min(m2, t2.priority)), 0, 0, a

    g, ids = explore([(r, s, top, top)], step)
    found = {}
    for (s1, s2, m1, m2), v in ids.items():
        if s1 == s2 == r and m1 % 2 and m2 not in found:
            found[m2] = tree_word(g, v)
    return found


def _hub_loops(aut: ParityAutomaton) -> TwoLoopData | None:
    """Two loops around an ordered hub pair (r1, r2): l1 takes r1 back to r1
    at an odd least priority and r2 to r1, l2 takes r2 back to r2 at an odd
    least priority and r1 to r2, and the cycle r2 -l1-> r1 -l2-> r2 has an
    even least priority; u0 is the access word of r1.  Exact for this shape,
    and polynomial: one search per ordered state pair."""
    loops_back = cache(partial(_loops_back, aut))
    for r1, r2 in permutations(aut.states(), 2):
        if not loops_back(r1, r2):
            continue
        pairs = [
            (len(w1) + len(w2), w1, w2)
            for m1, w1 in loops_back(r1, r2).items()
            for m2, w2 in loops_back(r2, r1).items()
            if min(m1, m2) % 2 == 0
        ]
        if pairs:
            _, l1, l2 = min(pairs)
            return TwoLoopData(access_word(aut, r1), l1, l2)
    return None


def _accepts_rounds(q: int, elements) -> bool:
    """Is the run from q accepting that applies the monoid `elements` in
    turn, forever?"""
    seen, mins = {}, []
    while q not in seen:
        seen[q] = len(mins)
        low = []
        for e in elements:
            q, m = e[q]
            low.append(m)
        mins.append(min(low))
    return min(mins[seen[q]:]) % 2 == 0


def _monoid_loops(aut: ParityAutomaton) -> TwoLoopData | None:
    """Any two-loop witness, by the transition monoid of `aut`: each element
    maps every state to (target, least priority) and comes with a shortest
    word.  Exact for every two-loop witness, since the three facts depend
    only on the state u0 reaches and the elements of l1 and l2; the monoid
    can be exponential in the number of states.  The search starts from the
    empty word's element, whose least priority d_max + 1 no letter reaches,
    and leaves it out."""
    rows = aut.delta.items()

    def step(e):
        for a, ts in rows:
            yield tuple((ts[d].dst, min(m, ts[d].priority)) for d, m in e), 0, 0, a

    g, ids = explore([tuple((q, aut.d_max + 1) for q in aut.states())], step)
    elements = list(ids)[1:]
    for q in aut.states():
        rejected = [e for e in elements if not _accepts_rounds(q, (e,))]
        for e in rejected:
            for f in rejected:
                if _accepts_rounds(q, (e, f)):
                    return TwoLoopData(
                        access_word(aut, q), tree_word(g, ids[e]), tree_word(g, ids[f])
                    )
    return None


def find_two_loops(aut: ParityAutomaton) -> TwoLoopData:
    """An entry word u0 and loops l1, l2 for the deterministic `aut` with
    u0.l1^omega and u0.l2^omega rejected and u0.(l1 l2)^omega accepted.

    The search runs on the quotient of `aut` by priority-preserving
    bisimulation: first over hub pairs, and only when no hub pair carries
    two loops, over the transition monoid.  Raises PipelineError when no
    two-loop witness exists: every stage failure refutes positionality, so
    that is a bug, never a verdict.
    """
    quo = bisimulation_quotient(aut)
    loops = _hub_loops(quo) or _monoid_loops(quo)
    if loops is None:
        raise PipelineError("no two-loop witness exists")
    u0, l1, l2 = loops.u0, loops.l1, loops.l2
    if (
        up_membership(aut, upword(u0, l1))
        or up_membership(aut, upword(u0, l2))
        or not up_membership(aut, upword(u0, l1 + l2))
    ):
        raise PipelineError(f"{loops} is no two-loop witness")
    return loops


# ---------------------------------------------------------------------------
# Signature validation
# ---------------------------------------------------------------------------


def validate_signature(sig: SignatureAutomaton, memo=None):
    """Exhaustively check the signature conditions; True or a violation list.
    `memo` as in `_residuals`."""
    aut = sig.automaton
    pre = sig.preorders
    d = sig.d
    problems = []
    # nesting
    for x in range(1, d + 1):
        for q in aut.states():
            for p in aut.states():
                if pre.leq(x, q, p) and not pre.leq(x - 1, q, p):
                    problems.append(f"level {x} does not refine level {x-1} at ({q},{p})")
    # level 0 refines residual inclusion
    rp = _residuals(aut, memo)
    if not rp.total:
        problems.append("residual preorder not total")
    else:
        for q in aut.states():
            for p in aut.states():
                if pre.leq(0, q, p) and rp.rank[q] > rp.rank[p]:
                    problems.append(f"level 0 contradicts residual inclusion at ({q},{p})")
    # faithfulness of even levels
    for x in range(0, d + 1, 2):
        cong = pre.classes_at(x, aut.n_states)
        ok = is_faithful(aut, cong, x)
        if ok is not True:
            problems.append(f"level {x} not [0,{x}]-faithful: {ok}")
    # (<x)-safe separation at odd layers
    for x in range(2, d + 1, 2):
        reach = _reach(aut, x, reflexive=False)
        for q in aut.states():
            for p in aut.states():
                if (
                    pre.same(x - 2, q, p)
                    and pre.lt(x - 1, q, p)
                    and p in reach[q]
                ):
                    problems.append(
                        f"safe separation broken at level {x-1}: path {q} ->(>={x}) {p}"
                    )
    # local monotonicity of (>=x)-transitions
    for x in range(0, d + 1, 2):
        for q in aut.states():
            for p in aut.states():
                if x > 0 and not pre.same(x - 1, q, p):
                    continue
                if not pre.leq(x, q, p):
                    continue
                for a in aut.alphabet:
                    tq = [t for t in aut.succ(q, a) if t.priority >= x]
                    tp = [t for t in aut.succ(p, a) if t.priority >= x]
                    for t1 in tq:
                        if not tp:
                            problems.append(
                                f"monotonicity: {q}<= {p} at level {x} but only {q} "
                                f"has a >= {x} move on {a!r}"
                            )
                            continue
                        for t2 in tp:
                            if x >= 2 and not pre.same(x - 1, t1.dst, t2.dst):
                                problems.append(
                                    f"monotonicity at level {x}: targets of {t1}, {t2} "
                                    f"not level-{x-1} equivalent"
                                )
                            if not pre.leq(x, t1.dst, t2.dst):
                                problems.append(
                                    f"monotonicity at level {x}: {t1} vs {t2}"
                                )
    # strong congruence of (<=x)-transitions on even classes
    for x in range(0, d + 1, 2):
        for q in aut.states():
            for p in aut.states():
                if q >= p or not pre.same(x, q, p):
                    continue
                for a in aut.alphabet:
                    for t1 in aut.succ(q, a):
                        if t1.priority > x:
                            continue
                        for t2 in aut.succ(p, a):
                            if t2.priority != t1.priority or t2.dst != t1.dst:
                                problems.append(
                                    f"strong congruence at level {x}: {t1} vs {t2}"
                                )
    # classes (>x)-connected
    for x in range(0, d + 1):
        reach = _reach(aut, x + 1, reflexive=True)
        for q in aut.states():
            for p in aut.states():
                if q != p and pre.same(x, q, p) and p not in reach[q]:
                    problems.append(
                        f"class at level {x} not (>{x})-connected: {q} vs {p}"
                    )
    # safe centralisation
    for x in range(2, d + 1, 2):
        safe = _safe(aut, x, memo)
        for q in aut.states():
            for p in aut.states():
                if q == p or not pre.same(x - 2, q, p) or pre.same(x - 1, q, p):
                    continue
                if safe.holds(q, p):
                    problems.append(
                        f"not safe centralised at level {x}: Safe({q}) <= Safe({p})"
                    )
    return True if not problems else problems


# ---------------------------------------------------------------------------
# The decision procedure
# ---------------------------------------------------------------------------


def decide_positionality_p1(aut: ParityAutomaton):
    """Procedure 1.  Returns Positional(SignatureAutomaton) or
    NotPositional(witness); raises PipelineError on internal breakage.

    A safe-order, polish or full-progress failure gets its two loops from
    `find_two_loops` on the trimmed input; a stuck polish class also takes
    u0.l1^omega as its word."""
    out = _run_pipeline(aut, full_pc=True)
    wit = getattr(out, "witness", None)
    if not isinstance(wit, (SafeOrderFailure, PolishLanguageChange, FullProgressFailure)):
        return out
    loops = find_two_loops(aut.trim())
    if isinstance(wit, PolishLanguageChange) and wit.w is None:
        wit = replace(wit, w=upword(loops.u0, loops.l1))
    return NotPositional(replace(wit, loops=loops))


def build_structured_signature(aut: ParityAutomaton):
    """The structured signature automaton the pipeline certifies, without the
    final full-progress-consistency check; None when an earlier stage
    already refutes positionality."""
    out = _run_pipeline(aut, full_pc=False)
    return out.certificate if isinstance(out, Positional) else None


def _run_pipeline(aut, full_pc):
    """Passes (`_one_pass`) over normalised automata until one gives a
    verdict.  A pass whose polishing at level x shrinks an automaton
    `before` to `after` with L(after) = L(before) restarts on
    `normalize(after.trim())`, A' below, which keeps two facts of that
    language in `memo`:

    - Ranks (`_carried_ranks`).  On complete deterministic automata the
      state that a word u reaches has the residual u⁻¹L, in `before` as in
      A', so it has the same rank in both.
    - Plain progress consistency, after a level-0 shrink, where `before` is
      the pass automaton A on which `check_progress_consistency` held.
      Suppose A' has q' < p', q' -w-> p', and p' -w-> p' at an odd least
      priority, and u reaches q'.  Then [uw^i] = [uw] for every i >= 1, and
      uw^ω is rejected.  In A, the run on uw^i is eventually periodic; take
      m, a multiple of its period past its start.  Then q = δ(u) and
      p = δ(uw^m) give q < p, q -w^m-> p and p -w^m-> p at an odd least
      priority.  So the check fails on A' only if it fails on A, and by
      the same argument the other way round.
    """
    aut.check_valid()
    if not aut.deterministic or aut.has_eps:
        raise ValueError("procedure 1 needs a deterministic eps-free automaton")
    current = normalize(aut.trim())
    max_restarts = (current.d_max + 2) * current.n_states + 4
    restarts = 0
    memo: dict = {}  # the relations of this decision, see `_residuals`
    while True:
        if restarts > max_restarts:
            raise PipelineError("restart bound exceeded")
        outcome = _one_pass(current, memo, full_pc=full_pc)
        if isinstance(outcome, (Positional, NotPositional)):
            return outcome
        before, after, x = outcome
        current = normalize(after.trim())
        memo[current] = _carried_ranks(before, current, memo[before])
        if x == 0:
            memo["progress"] = current
        restarts += 1


def _carried_ranks(before, after, rp: ResidualPreorder) -> ResidualPreorder:
    """The residual preorder of `after`, read off `rp`, that of `before`,
    for complete deterministic automata with one language and every state
    of `after` reachable: one breadth-first walk from the two initial
    states gives each state of `after` the rank of the state of `before`
    that the same word reaches."""
    partner = {after.initial: before.initial}
    queue = [after.initial]
    for q in queue:  # grows while it is read: breadth first
        for a, row in after.delta.items():
            q2 = row[q].dst
            if q2 not in partner:
                partner[q2] = before.delta[a][partner[q]].dst
                queue.append(q2)
    return ResidualPreorder(_dense({q: rp.rank[partner[q]] for q in after.states()}), True)


def _one_pass(aut: ParityAutomaton, memo, full_pc=True):
    """One pipeline pass; returns a verdict, or (before, after, x) when
    polishing `before` at level x shrank it to `after` with the same
    language.  `memo` as in `_residuals`."""
    rp = _residuals(aut, memo)
    if not rp.total:
        return _incomparable(aut, rp)
    if memo.get("progress") is not aut:
        pc = check_progress_consistency(aut, rp)
        if pc is not True:
            return NotPositional(ProgressFailure(pc))

    # level 0: polish with the residual congruence
    res_classes = Congruence.by_key(rp.rank[q] for q in aut.states())
    status, data = polish(aut, 0, res_classes)
    if status == "shrunk":
        return _check_polish_language(aut, data, 0)
    if status == "stuck":
        return _stuck_verdict(0)
    aut = data

    d = aut.d_max
    for x in range(2, d + 1, 2):
        pre = _preorders_up_to(aut, x - 2, memo)
        if isinstance(pre, NotPositional):
            return pre
        classes_xm2 = pre.classes_at(x - 2, aut.n_states)
        sat = saturate(aut, x, classes_xm2)
        cen, classes_c = safe_centralise(sat, x, classes_xm2, memo)
        rank_x = check_total_safe_order(cen, x, classes_c, memo)
        if isinstance(rank_x, tuple):
            return NotPositional(SafeOrderFailure(x, *rank_x))
        det = redeterminise(cen, x, classes_c, rank_x)
        prex = _preorders_up_to(det, x, memo)
        if isinstance(prex, NotPositional):
            return prex
        classes_x = prex.classes_at(x, det.n_states)
        status, data = polish(det, x, classes_x)
        if status == "shrunk":
            return _check_polish_language(det, data, x)
        if status == "stuck":
            return _stuck_verdict(x)
        aut = data

    pre = _preorders_up_to(aut, aut.d_max, memo)
    if isinstance(pre, NotPositional):
        return pre
    sig = SignatureAutomaton(aut, pre)
    problems = validate_signature(sig, memo)
    if problems is not True:
        raise PipelineError("certificate failed validation: " + "; ".join(problems))
    if not full_pc:
        return Positional(SignatureAutomaton(aut, pre, validated=True))
    fp = check_full_progress_consistency(sig)
    if fp is not True:
        return NotPositional(FullProgressFailure(fp))
    return Positional(SignatureAutomaton(aut, pre, validated=True))


def _preorders_up_to(aut, level, memo=None):
    """Nested preorders up to `level`, or a NotPositional verdict when an even
    level fails to be safe-totally-ordered (possible on automata that were
    never safe-centralised at that level in this pass).  `memo` as in
    `_residuals`."""
    rp = _residuals(aut, memo)
    if not rp.total:
        return _incomparable(aut, rp)
    levels = [dict(rp.rank)]
    for x in range(2, level + 1, 2):
        levels.append(_component_refinement(aut, x, levels[x - 2]))
        ranks = _safe_refinement(_safe(aut, x, memo), levels[x - 1])
        if isinstance(ranks, tuple):
            return NotPositional(SafeOrderFailure(x, *ranks))
        levels.append(ranks)
    if len(levels) == level:  # trailing odd level
        levels.append(_component_refinement(aut, level + 1, levels[level - 1]))
    return NestedPreorders(tuple(levels[: level + 1]), level)


def _check_polish_language(before, after, x):
    """(before, after, x) when `after` recognises the language of `before`,
    else the verdict with a word in the difference."""
    eq = lang_equal_det(after, before)
    if eq is True:
        return before, after, x
    return NotPositional(PolishLanguageChange(eq[1], x))


def _stuck_verdict(x):
    # a stuck class has no word of its own: decide_positionality_p1 sets w
    # to u0.l1^omega of the two loops
    return NotPositional(PolishLanguageChange(None, x))


# ---------------------------------------------------------------------------
# Certificate serialisation (.sig)
# ---------------------------------------------------------------------------


def emit_sig(sig: SignatureAutomaton) -> str:
    body = emit_dpa(sig.automaton)
    lines = [body.rstrip("\n")]
    for x in range(sig.d + 1):
        ranks = " ".join(str(sig.preorders.levels[x][q]) for q in sig.automaton.states())
        lines.append(f"preorder: {x} {ranks}")
    return "\n".join(lines) + "\n"


def parse_sig(text: str) -> SignatureAutomaton:
    dpa_lines = []
    pre_lines = []  # (line number, fields after 'preorder:')
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped.startswith("preorder:"):
            pre_lines.append((ln, stripped[len("preorder:"):].split()))
            raw = ""  # so that parse_dpa reports the file's line numbers
        dpa_lines.append(raw)
    aut = parse_dpa("\n".join(dpa_lines))
    levels = {}
    for ln, fields in pre_lines:
        try:
            x, *ranks = (int(f) for f in fields)
        except ValueError:
            raise FormatError("preorder needs '<level> <rank per state>'", ln) from None
        if x < 0 or x in levels:
            raise FormatError(f"negative or repeated preorder level {x}", ln)
        if len(ranks) != aut.n_states:
            raise FormatError(f"preorder line for level {x} has {len(ranks)} ranks", ln)
        levels[x] = ln, ranks
    if not levels:
        raise FormatError("missing preorder lines")
    d = max(levels)
    for x in range(d):
        if x not in levels:
            raise FormatError(f"missing preorder level {x} below level {d}", levels[d][0])
    ordered = tuple(dict(enumerate(levels[x][1])) for x in range(d + 1))
    return SignatureAutomaton(aut, NestedPreorders(ordered, d))
