"""Spans around the calls into posaut's layers, recorded from outside.

`Tracer.installed()` rebinds each traced function, in every module that
calls it through a module-level name, to a wrapper that records one span per
call: name, start, end, parent span, input id and a few attributes.  Spans
stay in memory; `write` saves them when the run ends.  Leaving the context
restores the original functions, so untraced rounds run the program as is.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

from posaut import automaton, epscomplete, games, lang, normalform, progress, signature

# (span name, defining module, function name, modules calling it by that
# name).  `incl_det` is rebound in `lang` only: its other caller,
# `games._progress_exit`, imports it from `lang` at call time.
_PROGRAM_FUNCTIONS = (
    ("lang.residual_preorder", lang, "residual_preorder", (signature, progress)),
    ("lang.incl", lang, "incl_det", (lang,)),
    ("lang.incl", lang, "incl_nd_in_det", (epscomplete,)),
    ("lang.safe_incl", lang, "safe_incl", (signature, progress)),
    ("progress.pc", progress, "check_progress_consistency", (signature, progress)),
    ("progress.full_pc", progress, "check_full_progress_consistency", (signature,)),
    ("normalform.normalize", normalform, "normalize", (signature, progress)),
    ("signature.saturate", signature, "saturate", (signature,)),
    ("signature.centralise", signature, "safe_centralise", (signature,)),
    ("signature.safe_order", signature, "check_total_safe_order", (signature,)),
    ("signature.redeterminise", signature, "redeterminise", (signature,)),
    ("signature.polish", signature, "polish", (signature,)),
    ("signature.validate", signature, "validate_signature", (signature,)),
    ("signature.two_loops", signature, "find_two_loops", (signature,)),
    ("automaton.up_membership", automaton, "up_membership", (signature,)),
    ("epscomplete.close", epscomplete, "priority_close", (epscomplete,)),
    ("epscomplete.merge", epscomplete, "merge_top_equivalent", (epscomplete,)),
    ("epscomplete.validate", epscomplete, "validate_eps_complete", (epscomplete,)),
    ("games.solve", games, "solve", (games,)),
)


def _incl_attrs(args, out):
    return {"cex": out is not True}


def _solve_attrs(args, out):
    arena, objective = args[0], args[1]
    return {"vertices": (arena.n_vertices + len(arena.edges)) * objective.n_states}


def _brute_force_attrs(args, out):
    arena = args[0]
    space = 1
    for v in range(arena.n_vertices):
        if arena.owner[v] == games.EVE:
            space *= max(1, sum(1 for e in arena.edges if e[0] == v))
    return {"space": space}


_ATTRS = {"lang.incl": _incl_attrs, "games.solve": _solve_attrs}


class Tracer:
    """Span recorder; one instance per benchmark process."""

    def __init__(self):
        # span: [name, start, end, parent index, input id, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.input_id: str | None = None

    def open(self, name: str, attrs=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.input_id, attrs])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, attrs=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if attrs:
            span[5] = {**(span[5] or {}), **attrs}
        self._stack.pop()

    def wrap(self, fn, name: str, site: str | None = None, annotate=None):
        base = {"site": site} if site else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, base)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.close(idx, annotate(args, out) if annotate and out is not None else None)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced program function for the duration."""
        saved = []

        def rebind(module, attr, wrapper):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

        for name, home, attr, callers in _PROGRAM_FUNCTIONS:
            fn = getattr(home, attr)
            for module in callers:
                site = module.__name__.rsplit(".", 1)[-1]
                rebind(module, attr, self.wrap(fn, name, site, _ATTRS.get(name)))
        try:
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def checkers(self):
        """The program's checkers as the harness calls them, traced."""
        return {
            "validate_signature": self.wrap(signature.validate_signature, "signature.validate", "bench"),
            "validate_eps_complete": self.wrap(epscomplete.validate_eps_complete, "epscomplete.validate", "bench"),
            "gadget_for_witness": self.wrap(games.gadget_for_witness, "games.gadget", "bench"),
            "solve": self.wrap(games.solve, "games.solve", "bench", _solve_attrs),
            "brute_force_positional": self.wrap(games.brute_force_positional, "games.brute_force", "bench", _brute_force_attrs),
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, input_id, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "input": input_id, "attrs": attrs,
                }) + "\n")


def self_times(spans, first: int = 0) -> list[float]:
    """Duration minus the duration of direct children, for spans[first:]."""
    out = [s[2] - s[1] for s in spans[first:]]
    for i, s in enumerate(spans[first:]):
        parent = s[3]
        if parent >= first:
            out[parent - first] -= s[2] - s[1]
    return out


PER_LAYER = (
    ("lang.residual_preorder_s", "s"), ("lang.residual_preorder_calls", "count"),
    ("lang.incl_s", "s"), ("lang.incl_calls", "count"),
    ("lang.incl_cex_s", "s"), ("lang.incl_cex_calls", "count"),
    ("lang.safe_incl_s", "s"), ("lang.safe_incl_calls", "count"),
    ("progress.pc_s", "s"), ("progress.pc_calls", "count"),
    ("signature.passes", "count"),
    ("signature.saturate_s", "s"), ("signature.centralise_s", "s"),
    ("signature.safe_order_s", "s"), ("signature.redeterminise_s", "s"),
    ("signature.polish_s", "s"), ("signature.validate_s", "s"),
    ("signature.two_loops_s", "s"),
    ("automaton.up_membership_s", "s"), ("automaton.up_membership_calls", "count"),
    ("signature.cert_states", "count"),
    ("normalform.normalize_s", "s"),
    ("epscomplete.candidates", "count"), ("epscomplete.rejected", "count"),
    ("epscomplete.close_s", "s"), ("epscomplete.validate_s", "s"),
    ("games.gadget_s", "s"), ("games.solve_s", "s"), ("games.solve_calls", "count"),
    ("games.game_vertices", "count"), ("games.brute_force_s", "s"),
    ("games.strategy_space", "count"),
    ("witnesses.letters", "count"),
    ("trace.batch_s", "s"), ("trace.unattributed_s", "s"), ("trace.overhead_s", "s"),
)


def layer_metrics(spans, first: int) -> dict[str, float]:
    """Per-layer figures of the spans recorded since index `first`.

    `_s` figures are self times, so that they add up with the harness's own
    spans to the traced batch and check times.
    """
    selfs = self_times(spans, first)
    m = {name: 0 for name, _ in PER_LAYER if not name.startswith(("trace.", "signature.cert", "witnesses."))}

    for s, self_s in zip(spans[first:], selfs):
        name, attrs = s[0], s[5] or {}
        if name == "lang.residual_preorder":
            m["lang.residual_preorder_s"] += self_s
            m["lang.residual_preorder_calls"] += 1
        elif name == "lang.incl":
            m["lang.incl_s"] += self_s
            m["lang.incl_calls"] += 1
            if attrs.get("cex"):
                m["lang.incl_cex_s"] += self_s
                m["lang.incl_cex_calls"] += 1
            if attrs.get("site") == "epscomplete":
                m["epscomplete.candidates"] += 1
                m["epscomplete.rejected"] += bool(attrs.get("cex"))
        elif name == "lang.safe_incl":
            m["lang.safe_incl_s"] += self_s
            m["lang.safe_incl_calls"] += 1
        elif name in ("progress.pc", "progress.full_pc"):
            m["progress.pc_s"] += self_s
            m["progress.pc_calls"] += 1
        elif name == "normalform.normalize":
            m["normalform.normalize_s"] += self_s
            if attrs.get("site") == "signature":
                m["signature.passes"] += 1
        elif name in ("signature.saturate", "signature.centralise", "signature.safe_order",
                      "signature.redeterminise", "signature.polish", "signature.validate",
                      "signature.two_loops"):
            m[name + "_s"] += self_s
        elif name == "automaton.up_membership":
            m["automaton.up_membership_s"] += self_s
            m["automaton.up_membership_calls"] += 1
        elif name in ("epscomplete.close", "epscomplete.merge"):
            m["epscomplete.close_s"] += self_s
        elif name == "epscomplete.validate":
            m["epscomplete.validate_s"] += self_s
        elif name == "games.gadget":
            m["games.gadget_s"] += self_s
        elif name == "games.solve":
            m["games.solve_s"] += self_s
            m["games.solve_calls"] += 1
            m["games.game_vertices"] += attrs.get("vertices", 0)
        elif name == "games.brute_force":
            m["games.brute_force_s"] += self_s
            m["games.strategy_space"] += attrs.get("space", 0)
    return m
