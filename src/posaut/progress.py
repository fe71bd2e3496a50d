"""Progress consistency, its full variant, and bipositionality.

Both consistency checks reduce to emptiness of intersections of finite-word
languages: words routing q to p without small priorities, against words
looping at p with an odd minimal priority.  Witnesses are found shortest
first per ordered pair.  No parity-cycle search happens here: the residual
preorder comes from `lang`, whose inclusions run on the kernel
(`automaton.even_cycle_sccs`).
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

    def shortest_accepted(self):
        if self.initial in self.accepting:
            return ()
        prev = {self.initial: None}
        queue = deque([self.initial])
        while queue:
            q = queue.popleft()
            for a in self.alphabet:
                if (q, a) not in self.delta:
                    continue
                nxt = self.delta[(q, a)]
                if nxt not in prev:
                    prev[nxt] = (q, a)
                    if nxt in self.accepting:
                        word = []
                        s = nxt
                        while prev[s] is not None:
                            s, letter = prev[s]
                            word.append(letter)
                        return tuple(reversed(word))
                    queue.append(nxt)
        return None


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
    prios = sorted({t.priority for t in aut.transitions})
    states = {(q, None): 0}
    order = [(q, None)]
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
                order.append(key)
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
    states = sorted(rp.rank)
    for q in states:
        for p in states:
            if rp.rank[q] >= rp.rank[p]:
                continue
            route = finite_path_language(aut, q, p, ("at-least", 0))
            w = intersect_shortest(route, odd_cycle_dfa(aut, p))
            if w is not None:
                u = access_word(aut, q)
                return ProgressWitness(kind="plain", q=q, p=p, w=w, context_u=u)
    return True


def check_full_progress_consistency(sig):
    """True, or a full ProgressWitness for a structured signature automaton.

    For each even level x and pair q <_x p: the words routing q to p with
    priorities >= x must never loop at p with an odd minimal priority.
    """
    aut = sig.automaton
    for x in range(0, sig.d + 1, 2):
        rank = sig.preorders.levels[x]
        for q in sorted(rank):
            for p in sorted(rank):
                if rank[q] >= rank[p]:
                    continue
                route = finite_path_language(aut, q, p, ("at-least", x))
                w = intersect_shortest(route, odd_cycle_dfa(aut, p))
                if w is not None:
                    return ProgressWitness(kind="full", q=q, p=p, w=w, level_x=x)
    return True


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

