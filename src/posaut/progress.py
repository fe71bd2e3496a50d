"""Progress consistency, its full variant, and bipositionality.

Both consistency checks ask for pairs q < p and a word w that routes q to p
without small priorities while p's run on w loops back to p with an odd
minimal priority.  One backward search per target p finds every failing q
at once; only the first failing pair searches the automaton for its
shortest w.  No parity-cycle search happens here: the residual preorder
comes from `lang`, whose inclusions run on the kernel
(`automaton.even_cycle_sccs`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import ParityAutomaton, access_word, explore, tree_word
from .lang import complement_det, residual_preorder
# unused here, but bench/tracing.py rebinds both names in this module
from .lang import safe_incl  # noqa: F401
from .normalform import normalize  # noqa: F401
from .witnesses import ProgressWitness


# ---------------------------------------------------------------------------
# Progress consistency
# ---------------------------------------------------------------------------


def check_progress_consistency(aut: ParityAutomaton, rp=None):
    """True, or a plain ProgressWitness (u, w) with [u] < [uw] and u.w^omega
    rejected.  The automaton must be deterministic with totally ordered
    residuals (compute `residual_preorder` first)."""
    if rp is None:
        rp = residual_preorder(aut)
    if not rp.total:
        raise ValueError("residual preorder is not total; use its witness instead")
    found = _first_inconsistent_pair(aut, rp.rank, 0)
    if found is None:
        return True
    q, p, w = found
    return ProgressWitness(kind="plain", q=q, p=p, w=w, context_u=access_word(aut, q))


def check_full_progress_consistency(sig):
    """True, or a full ProgressWitness for a structured signature automaton.

    For each even level x and pair q <_x p: the words routing q to p with
    priorities >= x must never loop at p with an odd minimal priority.
    """
    aut = sig.automaton
    for x in range(0, sig.d + 1, 2):
        found = _first_inconsistent_pair(aut, sig.preorders.levels[x], x)
        if found is not None:
            q, p, w = found
            return ProgressWitness(kind="full", q=q, p=p, w=w, level_x=x)
    return True


def _first_inconsistent_pair(aut: ParityAutomaton, rank: dict[int, int], x: int):
    """The first pair (q, p) of `sorted(rank)` squared, q outer, with
    rank[q] < rank[p] and a nonempty word w routing q to p with priorities
    >= x on which p's run returns to p at an odd least priority, with the
    shortest such w (`_shortest_odd_loop`); None when there is none.

    One backward search per target p finds every failing q at once
    (`_odd_loop_sources`), and only the pair returned searches for its word.
    Raises ValueError when the (>= x) routes fork, if any pair is ordered,
    and when p's run forks, at the first pair with target p."""
    states = sorted(rank)
    pairs = [(q, p) for q in states for p in states if rank[q] < rank[p]]
    if not pairs:
        return None
    route = {}
    for t in aut.transitions:
        if t.is_eps or t.priority < x:
            continue
        key = (t.src, t.letter)
        if route.setdefault(key, t.dst) != t.dst:
            raise ValueError(f"not deterministic over >= {x} transitions at {key}")
    sources = _odd_loop_sources(aut, route)
    failing: dict[int, set[int]] = {}
    for q, p in pairs:
        if p not in failing:
            failing[p] = sources(p)
        if q in failing[p]:
            return q, p, _shortest_odd_loop(aut, route, q, p)
    return None


def _shortest_odd_loop(aut: ParityAutomaton, route, q: int, p: int):
    """The shortest word w, least in alphabet order among those, that leads
    q to p along `route` while p's run on w returns to p at an odd least
    priority: one breadth-first search over (route state, run state,
    running minimum or None) from (q, p, None), whose run must not fork."""

    def step(node):
        r, s, m = node
        for a in aut.alphabet:
            r2 = route.get((r, a))
            ts = aut.succ(s, a)
            if r2 is None or not ts:
                continue
            t = ts[0]
            yield (r2, t.dst, t.priority if m is None else min(m, t.priority)), 0, 0, a

    g, ids = explore([(q, p, None)], step)
    for (r, s, m), v in ids.items():
        if r == s == p and m is not None and m % 2:
            return tree_word(g, v)
    return None


def _odd_loop_sources(aut: ParityAutomaton, route: dict[tuple[int, str], int]):
    """A function mapping a target p to the states q for which a nonempty
    word w leads q to p along `route` ((state, letter) -> state) while the
    run of p on w returns to p at an odd least priority: the q for which
    `_shortest_odd_loop(aut, route, q, p)` finds a word.  Raises ValueError
    when a state that p reaches has several transitions on one letter,
    naming the first such state breadth first and its first such letter.

    Each call is one backward search over the pairs (route state r, run
    state s), O(n²·|Σ|·d).  The pair carries the bit mask of the running
    minima m (bit m - lo, and a top bit for the empty run) from which
    (r, s, m) reaches (p, p, odd): an s -a:y-> s2 step keeps the m < y that
    are good at the successor pair, and adds every m >= y when y is."""
    n = aut.n_states
    prios = [t.priority for t in aut.transitions] or [0]
    lo, hi = min(prios), max(prios)
    top = 1 << (hi - lo + 1)
    below = [(1 << b) - 1 for b in range(hi - lo + 1)]
    above = [(top << 1) - 1 - m for m in below]
    odd = sum(1 << (y - lo) for y in range(lo, hi + 1) if y % 2)
    letter = {a: i for i, a in enumerate(aut.alphabet)}
    route_back = [[[] for _ in range(n)] for _ in aut.alphabet]
    for (r, a), r2 in route.items():
        if a in letter:
            route_back[letter[a]][r2].append(r)
    run_back = [[[] for _ in range(n)] for _ in aut.alphabet]
    for t in aut.transitions:
        if t.letter in letter:
            run_back[letter[t.letter]][t.dst].append((t.src, t.priority - lo))
    # the states reached by the runs searched so far; a fork ends the search,
    # so the runs from those that an earlier call reached never fork
    passed, by_letter = set(), aut.by_src_letter

    def sources(p: int) -> set[int]:
        run = [] if p in passed else [p]
        passed.add(p)
        for s in run:  # grows while it is read: p's run, breadth first
            for a in aut.alphabet:
                ts = by_letter.get((s, a), ())
                if len(ts) > 1:
                    raise ValueError(f"the run of state {p} forks at state {s} on {a!r}")
                if ts and ts[0].dst not in passed:
                    passed.add(ts[0].dst)
                    run.append(ts[0].dst)
        good = [0] * (n * n)
        good[p * n + p] = odd
        stack = [p * n + p]
        while stack:
            v = stack.pop()
            r2, s2 = divmod(v, n)
            g = good[v]
            for rs, runs in zip(route_back, run_back):
                rs = rs[r2]
                if not rs:
                    continue
                for s, b in runs[s2]:
                    new = g & below[b] | above[b] if g >> b & 1 else g & below[b]
                    if not new:
                        continue
                    for r in rs:
                        u = r * n + s
                        if new & ~good[u]:
                            good[u] |= new
                            stack.append(u)
        return {q for q in aut.states() if good[q * n + p] & top}

    return sources


# ---------------------------------------------------------------------------
# Bipositionality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bipositional:
    bipositional = True


@dataclass(frozen=True)
class NotBipositional:
    side: str  # "W" | "complement"
    witness: object

    bipositional = False


class CharacterisationMismatch(AssertionError):
    """The two-run decision and the structural necessary condition disagree."""


def decide_bipositionality(aut: ParityAutomaton):
    """Both the language and its complement positional?

    Decided by two runs of procedure 1; the necessary bi-progress-consistency
    condition is recomputed as a cross-check and any disagreement raised as
    a bug, never returned as a verdict.
    """
    from .signature import decide_positionality_p1

    comp = complement_det(aut.trim())
    r1 = decide_positionality_p1(aut)
    if not r1.positional:
        return NotBipositional("W", r1.witness)
    r2 = decide_positionality_p1(comp)
    if not r2.positional:
        return NotBipositional("complement", r2.witness)
    if not _bi_progress_consistent(aut, comp):
        raise CharacterisationMismatch(
            "decided bipositional but bi-progress consistency fails"
        )
    return Bipositional()


def _bi_progress_consistent(aut, comp) -> bool:
    rp = residual_preorder(aut)
    if not rp.total:
        return False
    if check_progress_consistency(aut, rp) is not True:
        return False
    rp2 = residual_preorder(comp)
    if not rp2.total:
        return False
    return check_progress_consistency(comp, rp2) is True

