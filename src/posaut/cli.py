"""Command-line surface.

Exit codes: 0 for success / Positional / Bipositional, 1 for NotPositional
or NotBipositional, 2 for parse errors and precondition failures.  All
randomized behaviour is fixed by --seed; POSAUT_LIMIT (or --limit) bounds
the brute-force searches.
"""

from __future__ import annotations

import argparse
import json
import sys

from .automaton import (
    FormatError,
    emit_dpa,
    parse_dpa,
    parse_upword,
    up_membership,
    upword,
)
from .epscomplete import (
    EpsCompleteAutomaton,
    decide_positionality_p2,
    eps_complete_from_signature,
    priority_close,
)
from .games import (
    brute_force_positional,
    completion_gadget,
    emit_arena,
    env_limit,
    gadget_progress,
    gadget_residual,
    gadget_two_loops,
    parse_arena,
    solve,
)
from .lang import residual_preorder
from .normalform import normalize
from .progress import decide_bipositionality
from .signature import decide_positionality_p1, emit_sig, parse_sig, validate_signature
from .ugraph import (
    all_paths_satisfy,
    build_uaut,
    check_monotone,
    check_universality_bounded,
    emit_mgraph,
)
from .witnesses import Positional
from . import zoo


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _tokens(text):
    if text is None or text.strip() in ("-", ""):
        return ()
    return tuple(text.split())


class _Out:
    def __init__(self, fmt):
        self.fmt = fmt
        self.payload = {}

    def emit(self, key, value, text=None):
        self.payload[key] = value
        if self.fmt == "text":
            print(text if text is not None else f"{key}: {value}")

    def flush(self):
        if self.fmt == "json":
            print(json.dumps(self.payload, indent=2, sort_keys=True))


def _witness_json(witness):
    return witness.to_json() if hasattr(witness, "to_json") else str(witness)


def cmd_validate(args, out):
    aut = parse_dpa(_read(args.file))
    issues = aut.validate()
    out.emit("issues", issues, "\n".join(issues) if issues else "ok")
    hard = [m for m in issues if not m.startswith("warning:")]
    return 2 if hard else 0


def cmd_normalize(args, out):
    aut = parse_dpa(_read(args.file))
    aut.check_valid()
    _write(args.output, emit_dpa(normalize(aut)))
    out.emit("written", args.output)
    return 0


def cmd_residuals(args, out):
    aut = parse_dpa(_read(args.file))
    aut.check_valid()
    rp = residual_preorder(aut.trim())
    if rp.total:
        out.emit("total", True, "total")
        ranks = " ".join(str(rp.rank[q]) for q in sorted(rp.rank))
        out.emit("ranks", [rp.rank[q] for q in sorted(rp.rank)], f"ranks: {ranks}")
    else:
        q, p, w1, w2 = rp.incomparable_witness
        out.emit("total", False, "not total")
        out.emit(
            "witness",
            {"q": q, "p": p, "w1": str(w1), "w2": str(w2)},
            f"incomparable: q={q} p={p}\n  {w1}\n  {w2}",
        )
    return 0


def cmd_positional(args, out):
    aut = parse_dpa(_read(args.file))
    aut.check_valid()
    results = {}
    if args.method in ("signature", "both"):
        results["signature"] = decide_positionality_p1(aut)
    if args.method in ("completion", "both"):
        results["completion"] = decide_positionality_p2(aut)
    verdicts = {k: isinstance(r, Positional) for k, r in results.items()}
    if args.method == "both" and len(set(verdicts.values())) > 1:
        out.emit("error", "procedures disagree", "error: procedures disagree")
        return 2
    positional = next(iter(verdicts.values()))
    out.emit(
        "verdict",
        "positional" if positional else "not-positional",
        "positional" if positional else "not-positional",
    )
    primary = results.get("signature") or results.get("completion")
    if positional:
        if args.cert_out:
            cert = primary.certificate
            if hasattr(cert, "preorders"):
                _write(args.cert_out, emit_sig(cert))
            else:
                _write(args.cert_out, emit_dpa(cert.automaton))
            out.emit("certificate", args.cert_out)
        return 0
    witness = primary.witness
    out.emit("witness", _witness_json(witness), str(witness))
    return 1


def cmd_bipositional(args, out):
    aut = parse_dpa(_read(args.file))
    aut.check_valid()
    r = decide_bipositionality(aut)
    if r.bipositional:
        out.emit("verdict", "bipositional", "bipositional")
        return 0
    out.emit("verdict", "not-bipositional", "not-bipositional")
    out.emit("side", r.side)
    out.emit("witness", _witness_json(r.witness), str(r.witness))
    return 1


def cmd_complete(args, out):
    aut = parse_dpa(_read(args.file))
    aut.check_valid()
    r = decide_positionality_p2(aut)
    if not isinstance(r, Positional):
        out.emit("verdict", "not-positional", "not-positional")
        out.emit("witness", _witness_json(r.witness), str(r.witness))
        return 1
    _write(args.output, emit_dpa(r.certificate.automaton))
    out.emit("written", args.output)
    return 0


def cmd_signature(args, out):
    aut = parse_dpa(_read(args.file))
    aut.check_valid()
    r = decide_positionality_p1(aut)
    if not isinstance(r, Positional):
        out.emit("verdict", "not-positional", "not-positional")
        out.emit("witness", _witness_json(r.witness), str(r.witness))
        return 1
    _write(args.output, emit_sig(r.certificate))
    out.emit("written", args.output)
    return 0


def cmd_ugraph(args, out):
    # checked before any output, as check_universality_bounded would only
    # reject it after the graph's lines are printed
    if args.check_universality is not None and args.check_universality < 1:
        raise ValueError("graph size bound must be at least 1")
    text = _read(args.file)
    if args.file.endswith(".sig"):
        sig = parse_sig(text)
        core = sig.automaton
        core.check_valid()
        problems = validate_signature(sig)
        if problems is not True:
            raise ValueError(f"invalid signature certificate: {problems[0]}")
    else:
        aut = parse_dpa(text)
        aut.check_valid()
        r = decide_positionality_p1(aut)
        if not isinstance(r, Positional):
            out.emit("verdict", "not-positional", "not-positional")
            return 1
        sig = r.certificate
        core = sig.automaton
    eps = eps_complete_from_signature(sig)
    closed = EpsCompleteAutomaton(priority_close(eps.automaton, eps.d), eps.d)
    graph, vmap = build_uaut(closed, args.bound, limit=args.limit)
    mono = check_monotone(graph)
    sat = all_paths_satisfy(graph, core, lambda v: vmap[graph.names[v]][0])
    out.emit("vertices", graph.n)
    out.emit("monotone", mono is True, f"monotone: {mono is True}")
    out.emit("all-paths-satisfy", sat is True, f"all-paths-satisfy: {sat is True}")
    if args.output:
        _write(args.output, emit_mgraph(graph))
        out.emit("written", args.output)
    if args.check_universality is not None:
        rep = check_universality_bounded(
            graph, core, args.check_universality, seed=args.seed, limit=args.limit
        )
        out.emit(
            "universality",
            {"checked": rep["checked"], "failures": len(rep["failures"])},
            f"universality: checked {rep['checked']}, failures {len(rep['failures'])}",
        )
        if rep["failures"]:
            return 1
    return 0 if (mono is True and sat is True) else 1


def cmd_solve(args, out):
    arena = parse_arena(_read(args.arena))
    objective = parse_dpa(_read(args.objective))
    objective.check_valid()
    res = solve(arena, objective)
    wins = sorted(res.eve_region)
    out.payload["wins"] = [[v, q] for (v, q) in wins]
    out.payload["moves"] = [
        [v, q, e] for ((v, q), e) in sorted(res.strategy.items())
    ]
    if out.fmt == "text":
        for (v, q) in wins:
            print(f"win: {v} {q}")
        for ((v, q), e) in sorted(res.strategy.items()):
            print(f"move-mem: {v} {q} {e}")
    return 0


def cmd_oracle(args, out):
    arena = parse_arena(_read(args.arena))
    objective = parse_dpa(_read(args.objective))
    objective.check_valid()
    res = brute_force_positional(arena, objective, bound=args.limit)
    if res.uniform:
        out.emit("uniform", True, "uniformly-positional")
        out.payload["moves"] = sorted(res.strategy.choice.items())
        if out.fmt == "text":
            for v, e in sorted(res.strategy.choice.items()):
                print(f"move: {v} {e}")
        return 0
    out.emit("uniform", False, "no")
    return 1


def cmd_member(args, out):
    aut = parse_dpa(_read(args.file))
    aut.check_valid()
    w = upword(_tokens(args.u), _tokens(args.v))
    verdict = up_membership(aut, w)
    out.emit("accepted", verdict, "accepted" if verdict else "rejected")
    return 0


# the options each gadget kind cannot do without; entry words default to empty
_GADGET_NEEDS = {
    "residual": ("w1", "w2"),
    "progress": ("w", "wprime"),
    "two-loops": ("l1", "l2"),
    "completion": ("q", "p", "x"),
}


def cmd_gadget(args, out):
    missing = [f"--{k}" for k in _GADGET_NEEDS[args.kind] if getattr(args, k) is None]
    if missing:
        raise ValueError(f"gadget {args.kind} needs {' '.join(missing)}")
    objective = parse_dpa(_read(args.objective))
    objective.check_valid()
    if args.kind == "residual":
        g = gadget_residual(
            _tokens(args.u1),
            _tokens(args.u2),
            parse_upword(args.w1),
            parse_upword(args.w2),
            objective,
        )
    elif args.kind == "progress":
        g = gadget_progress(
            _tokens(args.u), _tokens(args.w), parse_upword(args.wprime), objective
        )
    elif args.kind == "two-loops":
        g = gadget_two_loops(
            _tokens(args.u0), _tokens(args.l1), _tokens(args.l2), objective
        )
    elif args.kind == "completion":
        wdet = parse_dpa(_read(args.wdet)) if args.wdet else objective
        wdet.check_valid()
        g = completion_gadget(objective, wdet, args.q, args.p, args.x)
    g.arena.check_valid()
    if args.kind == "completion" and args.obj_out:
        _write(args.obj_out, emit_dpa(g.objective.materialise()))
        out.emit("objective", args.obj_out)
    _write(args.output, emit_arena(g.arena))
    out.emit("written", args.output)
    out.emit("designated", list(g.designated), f"designated: {list(g.designated)}")
    return 0


def cmd_zoo(args, out):
    maker = zoo.ZOO[args.name]
    _write(args.output, emit_dpa(maker()))
    out.emit("written", args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="posaut",
        description="Positionality analysis for transition-based parity automata",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    parser.add_argument(
        "--limit",
        type=int,
        help="search bound (strategy enumeration, graph sizes); "
        "default: POSAUT_LIMIT, or 1000000",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="structural diagnostics for a .dpa file")
    s.add_argument("file")
    s.set_defaults(func=cmd_validate)

    s = sub.add_parser("normalize", help="rewrite with canonical priorities")
    s.add_argument("file")
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(func=cmd_normalize)

    s = sub.add_parser("residuals", help="residual preorder of the states")
    s.add_argument("file")
    s.set_defaults(func=cmd_residuals)

    s = sub.add_parser("positional", help="decide positionality")
    s.add_argument("file")
    s.add_argument("--method", choices=("signature", "completion", "both"), default="both")
    s.add_argument("--cert-out")
    s.set_defaults(func=cmd_positional)

    s = sub.add_parser("bipositional", help="decide bipositionality")
    s.add_argument("file")
    s.set_defaults(func=cmd_bipositional)

    s = sub.add_parser("complete", help="emit an eps-completion")
    s.add_argument("file")
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(func=cmd_complete)

    s = sub.add_parser("signature", help="emit a signature certificate")
    s.add_argument("file")
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(func=cmd_signature)

    s = sub.add_parser("ugraph", help="build the universal graph of a certificate")
    s.add_argument("file", help=".dpa (pipeline is run) or .sig certificate")
    s.add_argument("-n", "--bound", type=int, required=True)
    s.add_argument("-o", "--output")
    s.add_argument("--check-universality", type=int, metavar="K")
    s.set_defaults(func=cmd_ugraph)

    s = sub.add_parser("solve", help="winning regions of an arena")
    s.add_argument("arena")
    s.add_argument("objective")
    s.set_defaults(func=cmd_solve)

    s = sub.add_parser("oracle", help="brute-force uniform positional check")
    s.add_argument("arena")
    s.add_argument("objective")
    s.set_defaults(func=cmd_oracle)

    s = sub.add_parser("member", help="ultimately periodic word membership")
    s.add_argument("file")
    s.add_argument("--u", required=True, help="prefix tokens or '-'")
    s.add_argument("--v", required=True, help="period tokens")
    s.set_defaults(func=cmd_member)

    s = sub.add_parser("gadget", help="emit a witness gadget arena")
    s.add_argument("kind", choices=("residual", "progress", "two-loops", "completion"))
    s.add_argument("objective", help="objective .dpa")
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--u1")
    s.add_argument("--u2")
    s.add_argument("--w1")
    s.add_argument("--w2")
    s.add_argument("--u")
    s.add_argument("--w")
    s.add_argument("--wprime")
    s.add_argument("--u0")
    s.add_argument("--l1")
    s.add_argument("--l2")
    s.add_argument("--q", type=int)
    s.add_argument("--p", type=int)
    s.add_argument("--x", type=int)
    s.add_argument("--wdet")
    s.add_argument("--obj-out")
    s.set_defaults(func=cmd_gadget)

    s = sub.add_parser("zoo", help="emit a named example automaton")
    s.add_argument("name", choices=sorted(zoo.ZOO))
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(func=cmd_zoo)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Out(args.format)
    try:
        if args.limit is None:
            args.limit = env_limit()
        code = args.func(args, out)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
