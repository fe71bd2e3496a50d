"""Witness and verdict types shared by the two decision procedures."""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import UPWord


def _tok(word) -> str:
    return " ".join(word) if word else "-"


@dataclass(frozen=True)
class ProgressWitness:
    """A violation of (full) progress consistency.

    kind 'plain': reading w from the state reached by context_u strictly
    increases the residual rank, yet context_u . w^omega is rejected.
    kind 'full': q <_x p, q -w:>=x-> p, and w^omega is rejected from q.
    """

    kind: str  # "plain" | "full"
    q: int
    p: int
    w: tuple[str, ...]
    context_u: tuple[str, ...] | None = None
    level_x: int | None = None

    def __str__(self):
        if self.kind == "plain":
            return f"witness: progress u={_tok(self.context_u)} w={_tok(self.w)}"
        return (
            f"witness: full-progress x={self.level_x} q={self.q} p={self.p} "
            f"w={_tok(self.w)}"
        )

    def to_json(self):
        d = {"kind": self.kind, "q": self.q, "p": self.p, "w": list(self.w)}
        if self.kind == "plain":
            d["u"] = list(self.context_u or ())
        else:
            d["x"] = self.level_x
        return d


@dataclass(frozen=True)
class IncomparableResiduals:
    q: int
    p: int
    w1: UPWord  # in L(q) \ L(p)
    w2: UPWord  # in L(p) \ L(q)
    u1: tuple[str, ...] = ()  # access word to q
    u2: tuple[str, ...] = ()  # access word to p

    def __str__(self):
        return (
            f"witness: incomparable-residuals q={self.q} p={self.p} "
            f"u1={_tok(self.u1)} u2={_tok(self.u2)} w1=[{self.w1}] w2=[{self.w2}]"
        )

    def to_json(self):
        return {
            "kind": "incomparable-residuals",
            "q": self.q,
            "p": self.p,
            "u1": list(self.u1),
            "u2": list(self.u2),
            "w1": {"u": list(self.w1.u), "v": list(self.w1.v)},
            "w2": {"u": list(self.w2.u), "v": list(self.w2.v)},
        }


@dataclass(frozen=True)
class ProgressFailure:
    witness: ProgressWitness

    def __str__(self):
        return str(self.witness)

    def to_json(self):
        return self.witness.to_json()


@dataclass(frozen=True)
class TwoLoopData:
    """An entry word and two loops: both loops repeat to rejected words but
    some alternation wins; the raw material of a two-loop gadget game."""

    u0: tuple[str, ...]
    l1: tuple[str, ...]
    l2: tuple[str, ...]

    def __str__(self):
        return f"two-loops u0={_tok(self.u0)} l1={_tok(self.l1)} l2={_tok(self.l2)}"

    def to_json(self):
        return {"u0": list(self.u0), "l1": list(self.l1), "l2": list(self.l2)}


@dataclass(frozen=True)
class SafeOrderFailure:
    x: int
    q: int
    p: int
    sep_qp: tuple[str, ...]  # (<x)-safe from q, not from p
    sep_pq: tuple[str, ...]
    loops: TwoLoopData | None = None

    def __str__(self):
        return (
            f"witness: safe-order x={self.x} q={self.q} p={self.p} "
            f"sep_qp={_tok(self.sep_qp)} sep_pq={_tok(self.sep_pq)}"
        )

    def to_json(self):
        d = {
            "kind": "safe-order",
            "x": self.x,
            "q": self.q,
            "p": self.p,
            "sep_qp": list(self.sep_qp),
            "sep_pq": list(self.sep_pq),
        }
        if self.loops:
            d["loops"] = self.loops.to_json()
        return d


@dataclass(frozen=True)
class PolishLanguageChange:
    # in the symmetric difference of the languages before and after
    # polishing; for a stuck class, u0.l1^omega of the loops (rejected)
    w: UPWord
    x: int
    loops: TwoLoopData | None = None

    def __str__(self):
        return f"witness: polish-language-change x={self.x} w=[{self.w}]"

    def to_json(self):
        d = {
            "kind": "polish-language-change",
            "x": self.x,
            "w": {"u": list(self.w.u), "v": list(self.w.v)},
        }
        if self.loops:
            d["loops"] = self.loops.to_json()
        return d


@dataclass(frozen=True)
class FullProgressFailure:
    witness: ProgressWitness
    loops: TwoLoopData | None = None

    def __str__(self):
        return str(self.witness)

    def to_json(self):
        d = self.witness.to_json()
        if self.loops:
            d["loops"] = self.loops.to_json()
        return d


@dataclass(frozen=True)
class CompletionFailure:
    """Procedure-2 witness: neither eps:x (q -> p) nor eps:x+1 (p -> q) can be
    added without augmenting the language.

    The counterexamples refer to `automaton`, the partially completed
    automaton at the moment of failure: the input plus the eps-transitions
    that earlier greedy steps kept after a product test (it recognises the
    same language).  Each is the shortest lasso that its candidate adds
    against the quotient of W by priority-preserving bisimulation."""

    q: int
    p: int
    x: int
    cex1: UPWord  # accepted once q -eps:x-> p is added, outside the language
    cex2: UPWord  # accepted once p -eps:x+1-> q is added, outside the language
    automaton: object | None = None

    def __str__(self):
        return (
            f"witness: completion q={self.q} p={self.p} x={self.x} "
            f"cex1=[{self.cex1}] cex2=[{self.cex2}]"
        )

    def to_json(self):
        return {
            "kind": "completion",
            "q": self.q,
            "p": self.p,
            "x": self.x,
            "cex1": {"u": list(self.cex1.u), "v": list(self.cex1.v)},
            "cex2": {"u": list(self.cex2.u), "v": list(self.cex2.v)},
        }


@dataclass(frozen=True)
class Positional:
    certificate: object  # SignatureAutomaton or EpsCompleteAutomaton

    positional = True


@dataclass(frozen=True)
class NotPositional:
    witness: object

    positional = False
