"""Progress consistency, its full variant, and bipositionality.

Both consistency checks reduce to emptiness of intersections of finite-word
languages: words routing q to p without small priorities, against words
looping at p with an odd minimal priority.  One backward search per target p
finds every failing q at once; only the first failing pair builds the two
DFAs, whose intersection gives the shortest witness.  No parity-cycle search
happens here: the residual preorder comes from `lang`, whose inclusions run
on the kernel (`automaton.even_cycle_sccs`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automaton import ParityAutomaton, access_word
from .lang import complement_det, residual_preorder
# unused here, but bench/tracing.py rebinds both names in this module
from .lang import safe_incl  # noqa: F401
from .normalform import normalize  # noqa: F401
from .witnesses import ProgressWitness


# ---------------------------------------------------------------------------
# Finite-word path languages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WordDfa:
    """Partial DFA over finite words (missing transitions reject)."""

    n: int
    alphabet: tuple[str, ...]
    initial: int
    accepting: frozenset[int]
    delta: dict[tuple[int, str], int]

    def accepts(self, word) -> bool:
        q = self.initial
        for a in word:
            if (q, a) not in self.delta:
                return False
            q = self.delta[(q, a)]
        return q in self.accepting


def intersect_shortest(d1: WordDfa, d2: WordDfa):
    """Shortest word accepted by both, or None."""
    start = (d1.initial, d2.initial)
    acc = lambda s: s[0] in d1.accepting and s[1] in d2.accepting
    if acc(start):
        return ()
    prev = {start: None}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for a in d1.alphabet:
            if (s[0], a) not in d1.delta or (s[1], a) not in d2.delta:
                continue
            nxt = (d1.delta[(s[0], a)], d2.delta[(s[1], a)])
            if nxt not in prev:
                prev[nxt] = (s, a)
                if acc(nxt):
                    word = []
                    t = nxt
                    while prev[t] is not None:
                        t, letter = prev[t]
                        word.append(letter)
                    return tuple(reversed(word))
                queue.append(nxt)
    return None


def finite_path_language(aut: ParityAutomaton, q: int, p: int, mode) -> WordDfa:
    """DFA for the finite words labelling q-to-p paths.

    mode ("at-least", x): paths producing no priority < x (the empty path
    included when q == p); mode ("exactly", x): paths whose minimal priority
    is exactly x, via a product with a min-priority tracker.
    """
    kind, x = mode
    if kind == "at-least":
        delta = {}
        for t in aut.transitions:
            if t.is_eps or t.priority < x:
                continue
            key = (t.src, t.letter)
            if key in delta and delta[key] != t.dst:
                raise ValueError(f"not deterministic over >= {x} transitions at {key}")
            delta[key] = t.dst
        return WordDfa(aut.n_states, aut.alphabet, q, frozenset([p]), delta)
    if kind != "exactly":
        raise ValueError(f"unknown mode {kind!r}")
    return _tracker_dfa(aut, q, frozenset([(p, x)]))


def _tracker_dfa(aut: ParityAutomaton, q: int, accepting_pairs) -> WordDfa:
    """Product with a running-minimum tracker; state None means 'no step yet'."""
    states = {(q, None): 0}
    delta = {}
    queue = deque([(q, None)])
    while queue:
        s, m = queue.popleft()
        sid = states[(s, m)]
        for a in aut.alphabet:
            ts = aut.succ(s, a)
            if not ts:
                continue
            if len(ts) != 1:
                raise ValueError("tracker DFA needs a deterministic automaton")
            t = ts[0]
            m2 = t.priority if m is None else min(m, t.priority)
            key = (t.dst, m2)
            if key not in states:
                states[key] = len(states)
                queue.append(key)
            delta[(sid, a)] = states[key]
    accepting = frozenset(
        states[(s, m)] for (s, m) in states if (s, m) in accepting_pairs
    )
    return WordDfa(len(states), aut.alphabet, 0, accepting, delta)


def odd_cycle_dfa(aut: ParityAutomaton, p: int) -> WordDfa:
    """Nonempty words looping p back to p with odd minimal priority."""
    prios = {t.priority for t in aut.transitions}
    accepting = frozenset((p, y) for y in prios if y % 2 == 1)
    return _tracker_dfa(aut, p, accepting)


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
    rank[q] < rank[p] and a word w routing q to p with priorities >= x that
    loops p back to p at an odd least priority, with the shortest such w
    (`intersect_shortest`); None when there is none.

    One backward search per target p finds every failing q at once
    (`_odd_loop_sources`), and only the pair returned builds its two DFAs.
    The determinism ValueErrors come where the pair-by-pair loop raised
    them: the route DFA's at the first pair, p's run's at the first pair
    with target p."""
    states = sorted(rank)
    pairs = [(q, p) for q in states for p in states if rank[q] < rank[p]]
    if not pairs:
        return None
    route = finite_path_language(aut, *pairs[0], ("at-least", x))
    sources = _odd_loop_sources(aut, route.delta)
    failing: dict[int, set[int]] = {}
    for q, p in pairs:
        if p not in failing:
            failing[p] = sources(p)
        if q in failing[p]:
            route = finite_path_language(aut, q, p, ("at-least", x))
            return q, p, intersect_shortest(route, odd_cycle_dfa(aut, p))
    return None


def _odd_loop_sources(aut: ParityAutomaton, route: dict[tuple[int, str], int]):
    """A function mapping a target p to the states q for which a nonempty
    word w leads q to p along `route` ((state, letter) -> state) while the
    run of p on w returns to p at an odd least priority: the q for which
    `intersect_shortest` of the route DFA and `odd_cycle_dfa(aut, p)` is
    not None.  Raises the ValueError of `odd_cycle_dfa(aut, p)` when p's run
    meets a state with several transitions on one letter.

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
    forked = {q for (q, a), ts in aut.by_src_letter.items() if a in letter and len(ts) > 1}

    def sources(p: int) -> set[int]:
        if forked:
            odd_cycle_dfa(aut, p)  # raises where p's run forks
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


def decide_bipositionality(aut: ParityAutomaton, method="signature"):
    """Both the language and its complement positional?

    Decided by two positionality runs; the necessary bi-progress-consistency
    condition is recomputed as a cross-check and any disagreement raised as
    a bug, never returned as a verdict.
    """
    from .signature import decide_positionality_p1
    from .epscomplete import decide_positionality_p2

    decide = (
        decide_positionality_p1 if method == "signature" else decide_positionality_p2
    )
    comp = complement_det(aut.trim())
    r1 = decide(aut)
    if not r1.positional:
        return NotBipositional("W", r1.witness)
    r2 = decide(comp)
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

