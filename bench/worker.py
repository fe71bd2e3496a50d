"""One benchmark process: set up one workload, then run whole rounds of it.

Started by run.py.  It prints `ready` once set-up is done, then (unless
--setup-only) runs as many whole rounds as fit into --seconds (at least two,
three when traced; the first is a warm-up and not timed) and prints one JSON
object with the raw figures as its last line.

A round takes one input after another: it parses a fresh automaton from
the input's .dpa text (untimed), runs the workload's procedures on it (the
decision), then runs the program's own checkers on every certificate and
witness the decision produced (the check).  Cheap decisions and checks are
timed several times in a round, at points spread over it (`spread_extras`).  The first round's results also
go through the checks made apart from the program; later rounds must
reproduce them exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from posaut import (  # noqa: E402
    brute_force_positional,
    decide_bipositionality,
    decide_positionality_p1,
    decide_positionality_p2,
    gadget_for_witness,
    solve,
    up_membership,
    upword,
    validate_eps_complete,
    validate_signature,
)
from posaut.automaton import UPWord, emit_dpa, parse_dpa  # noqa: E402
from posaut.lang import complement_det  # noqa: E402
from posaut.witnesses import (  # noqa: E402
    CompletionFailure,
    IncomparableResiduals,
    ProgressFailure,
)

import inputs  # noqa: E402
import languages  # noqa: E402
import tracing  # noqa: E402
import yardstick  # noqa: E402

WORDS_PER_AUTOMATON = 24
# an input's decision and check are timed again within a round until the
# timed calls add up to MIN_SAMPLE_S, at most MAX_REPEATS times in all:
# cheap operations get more samples than one per round
MIN_SAMPLE_S = 0.05
MAX_REPEATS = 5
TRACE_DIR = HERE.parent / ".bench_out"

_PROCEDURES = {
    "p1": decide_positionality_p1,
    "p2": decide_positionality_p2,
    "bipos": decide_bipositionality,
}


def _verdict(proc, res):
    return res.bipositional if proc == "bipos" else res.positional


def _witness(res):
    return getattr(res, "witness", None)


def fingerprint(results):
    """What a later round must reproduce: verdicts, witnesses, certificate sizes."""
    out = []
    for proc, res in results.items():
        cert = getattr(res, "certificate", None)
        out.append((proc, _verdict(proc, res), str(_witness(res)),
                    cert.automaton.n_states if cert is not None else None))
    return out


def witness_letters(obj) -> int:
    """Letters in every word a witness carries (its automaton excluded)."""
    if isinstance(obj, UPWord):
        return len(obj.u) + len(obj.v)
    if isinstance(obj, tuple) and all(isinstance(x, str) for x in obj):
        return len(obj)
    if dataclasses.is_dataclass(obj):
        return sum(witness_letters(getattr(obj, f.name)) for f in dataclasses.fields(obj)
                   if f.name != "automaton")
    return 0


# -- the program's own checkers (timed as check_s) ---------------------------


def program_checks(aut, results, chk) -> list[str]:
    problems = []
    for proc, res in results.items():
        if _verdict(proc, res):
            cert = getattr(res, "certificate", None)
            if proc == "p1" and chk["validate_signature"](cert) is not True:
                problems.append("p1 certificate fails validate_signature")
            if proc == "p2" and chk["validate_eps_complete"](cert.automaton, cert.d) is not True:
                problems.append("p2 completion fails validate_eps_complete")
            continue
        wit = _witness(res)
        objective = aut
        if proc == "bipos" and res.side == "complement":
            objective = complement_det(aut.trim())
        if proc == "p2":
            g = chk["gadget_for_witness"](wit, aut, aut=aut, w_det=aut)
        else:
            g = chk["gadget_for_witness"](wit, objective)
        if g is None:
            problems.append(f"{proc} witness has no gadget: {wit}")
            continue
        sv = chk["solve"](g.arena, g.objective)
        bf = chk["brute_force_positional"](g.arena, g.objective)
        if not all(sv.eve_wins_from(v) for v in g.designated):
            problems.append(f"{proc} gadget not won by Eve from its designated vertices")
        if bf.uniform:
            problems.append(f"{proc} gadget has a uniform positional strategy")
    return problems


# -- checks made apart from the program (first round, untimed) --------------


def independent_checks(case, aut, results, seed) -> list[str]:
    problems = []
    verdicts = {proc: _verdict(proc, res) for proc, res in results.items()}
    if case.expected is not None:
        for proc, v in verdicts.items():
            if v != case.expected:
                problems.append(f"{proc} verdict {v}, known verdict {case.expected}")
    if "p1" in verdicts and "p2" in verdicts and verdicts["p1"] != verdicts["p2"]:
        problems.append(f"p1 says {verdicts['p1']}, p2 says {verdicts['p2']}")

    rng = random.Random(f"words/{seed}/{case.id}")
    words = languages.sample_words(rng, aut.alphabet, WORDS_PER_AUTOMATON)
    if case.language is not None:
        pred = languages.PREDICATES[case.language]
        reference = [pred(u, v) for u, v in words]
        if reference != [languages.det_accepts(aut, u, v) for u, v in words]:
            problems.append("input disagrees with its fixture language")
    else:
        reference = [languages.det_accepts(aut, u, v) for u, v in words]
    automata = [("input", aut)]
    for proc, res in results.items():
        cert = getattr(res, "certificate", None) if verdicts[proc] else None
        if cert is not None:
            automata.append((f"{proc} certificate", cert.automaton))
    for label, a in automata:
        got = [up_membership(a, upword(u, v)) for u, v in words]
        if got != reference:
            bad = next(w for w, g, r in zip(words, got, reference) if g != r)
            problems.append(f"{label} accepts {bad} wrongly per up_membership")

    def member(u, w):
        return languages.det_accepts(aut, tuple(u) + w.u, w.v)

    for proc, res in results.items():
        wit = _witness(res)
        if isinstance(wit, IncomparableResiduals):
            if not (member(wit.u1, wit.w1) and not member(wit.u2, wit.w1)
                    and member(wit.u2, wit.w2) and not member(wit.u1, wit.w2)):
                problems.append(f"{proc} incomparable-residuals words do not separate")
        elif isinstance(wit, ProgressFailure):
            pw = wit.witness
            if languages.det_accepts(aut, tuple(pw.context_u or ()), tuple(pw.w)):
                problems.append(f"{proc} progress witness word is accepted")
        elif isinstance(wit, CompletionFailure):
            if member((), wit.cex1) or member((), wit.cex2):
                problems.append(f"{proc} completion counterexample is in the language")
    return problems


# -- rounds -------------------------------------------------------------------


def _decide(case, text, tracer, yard):
    """Parse a fresh automaton (untimed) and time the input's procedures on
    it; the time comes with its place in the SpeedLog `yard`, if given."""
    aut = parse_dpa(text)
    # start every timed call with the same collector state, so that
    # collections fall at the same points in every round
    gc.collect()
    mark = yard.mark() if yard is not None else None
    span = tracer.open("op") if tracer else None
    results, error = {}, None
    t0 = time.perf_counter()
    try:
        for proc in case.procs:
            results[proc] = _PROCEDURES[proc](aut)
    except Exception as exc:  # a raising input is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    t = time.perf_counter() - t0
    if tracer:
        tracer.close(span)
    return aut, results, error, (t, mark)


def _check(aut, results, checkers, tracer, yard):
    gc.collect()
    mark = yard.mark() if yard is not None else None
    span = tracer.open("check") if tracer else None
    t0 = time.perf_counter()
    problems = program_checks(aut, results, checkers)
    t = time.perf_counter() - t0
    if tracer:
        tracer.close(span)
    return problems, (t, mark)


def run_round(cases, texts, tracer, checkers, yard, latest, extras=None):
    """One round: each input decided, then checked, one after another.

    `extras[k]` lists the extra timing samples (input, decide?, check?) to
    take after input k; an extra check runs on the latest decision of its
    input, kept in `latest`.  Returns per input its decision times, its
    check times (each with its place in `yard`), and its round's
    automaton, (results, error) and check problems.
    """
    n = len(cases)
    decide_times, check_times = [[] for _ in cases], [[] for _ in cases]
    auts, outcomes, problems = [None] * n, [None] * n, [[] for _ in cases]
    round_span = tracer.open("round") if tracer else None
    for k, (case, text) in enumerate(zip(cases, texts)):
        if tracer:
            tracer.input_id = case.id
        aut, results, error, t = _decide(case, text, tracer, yard)
        decide_times[k].append(t)
        if error is None:
            problems[k], t = _check(aut, results, checkers, tracer, yard)
            check_times[k].append(t)
        auts[k], outcomes[k] = aut, (results, error)
        latest[k] = aut, results, error
        for j, decide, check in extras[k] if extras else ():
            if decide:
                decide_times[j].append(_decide(cases[j], texts[j], None, yard)[3])
            aut_j, results_j, error_j = latest[j]
            if check and error_j is None:
                check_times[j].append(_check(aut_j, results_j, checkers, None, yard)[1])
    if tracer:
        tracer.close(round_span)
        tracer.input_id = None
    return decide_times, check_times, auts, outcomes, problems


def repeats(seconds: float) -> int:
    """How often to time an operation that took `seconds` in the first round."""
    return max(1, min(MAX_REPEATS, math.ceil(MIN_SAMPLE_S / max(seconds, 1e-9))))


def spread_extras(decide_times, check_times):
    """Where in a round to take the extra samples of cheap operations.

    From the first round's times: an input's extra samples are placed at
    even steps of the round's time, each after the input whose decision
    and check end there, so that they meet different spells of the
    machine's speed rather than one.
    """
    ends, t = [], 0.0
    for ts, cs in zip(decide_times, check_times):
        t += ts[0][0] + (cs[0][0] if cs else 0.0)
        ends.append(t)
    n = len(ends)
    extras = [[] for _ in range(n)]
    for j, (ts, cs) in enumerate(zip(decide_times, check_times)):
        n_decide = repeats(ts[0][0]) - 1
        n_check = repeats(cs[0][0]) - 1 if cs else 0
        count = max(n_decide, n_check)
        for m in range(count):
            at = (m + (j + 0.5) / n) / count * t
            k = next(i for i, e in enumerate(ends) if e >= at or i == n - 1)
            extras[k].append((j, m < n_decide, m < n_check))
    return extras


def harness_figures(outcomes):
    cert_states = letters = 0
    for results, _ in outcomes:
        for proc, res in results.items():
            if proc == "p1" and res.positional:
                cert_states += res.certificate.automaton.n_states
            letters += witness_letters(_witness(res))
    return {"signature.cert_states": cert_states, "witnesses.letters": letters}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cases = inputs.make_cases(args.workload, args.seed, tiny=args.tiny)
    inputs.round_trip(cases)
    texts = [emit_dpa(c.aut) for c in cases]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer() if args.trace else None
    traced_checkers = tracer.checkers() if tracer else None
    plain_checkers = {
        "validate_signature": validate_signature,
        "validate_eps_complete": validate_eps_complete,
        "gadget_for_witness": gadget_for_witness,
        "solve": solve,
        "brute_force_positional": brute_force_positional,
    }

    failed_ids: set[str] = set()
    failed = 0
    wrong = False
    first_prints = None
    traced_batches, layer_rounds = [], []
    decide_times = [[] for _ in cases]
    check_times = [[] for _ in cases]
    yard = yardstick.SpeedLog()
    latest = [None] * len(cases)
    extras = None
    rounds = 0
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and rounds % 2 == 1
        first_span = len(tracer.spans) if tracer else 0
        t_round = time.perf_counter()
        if traced:
            # no extra samples, so that layer figures are per round
            with tracer.installed():
                out = run_round(cases, texts, tracer, traced_checkers, None, latest)
        else:
            out = run_round(cases, texts, None, plain_checkers, yard, latest, extras)
        round_s = time.perf_counter() - t_round
        times, checks, auts, outcomes, problems = out
        prints = []
        for i, (case, aut, (results, error), probs) in enumerate(zip(cases, auts, outcomes, problems)):
            prints.append((error, fingerprint(results)))
            if rounds == 0 and error is None:
                probs = probs + independent_checks(case, aut, results, args.seed)
            elif rounds > 0 and prints[i] != first_prints[i]:
                probs = probs + ["result differs from the first round"]
            if error is not None or probs:
                failed += 1
                if case.id not in failed_ids:
                    failed_ids.add(case.id)
                    print(f"FAILED {case.id}: {error or '; '.join(probs)}", flush=True)
                wrong = wrong or bool(probs)
        if rounds == 0:
            first_prints = prints
            extras = spread_extras(times, checks)
        if traced:
            figures = tracing.layer_metrics(tracer.spans, first_span)
            figures.update(harness_figures(outcomes))
            selfs = tracing.self_times(tracer.spans, first_span)
            figures["trace.unattributed_s"] = sum(
                st for s, st in zip(tracer.spans[first_span:], selfs) if s[0] == "op")
            figures["trace.batch_s"] = sum(t[0][0] for t in times)
            layer_rounds.append(figures)
            traced_batches.append(figures["trace.batch_s"])
        elif rounds > 0:
            # the first round warms up: it alone grows the heap, and its
            # large inputs ran 10-40 % slower than in later rounds
            for i, (t, c) in enumerate(zip(times, checks)):
                decide_times[i].extend(t)
                check_times[i].extend(c)
        rounds += 1
        elapsed = time.perf_counter() - start
        # stop before a round that would end past --seconds, judged by the
        # last round, once a round after the warm-up is timed; a traced run
        # (rounds 1, 3, ... traced) ends on an untraced round
        if tracer:
            timed = rounds >= 3 and rounds % 2 == 1
        else:
            timed = rounds >= 2
        if timed and elapsed + round_s > args.seconds:
            break

    # per-input medians over every timed call in the untraced rounds, each
    # call's time taken at the reference speed: a slow spell of the machine,
    # or a run that is slow throughout, then moves no input's time
    yard.finish()

    def at_reference(calls):
        return statistics.median(t / yard.factor(mark) for t, mark in calls)

    decide = [at_reference(ts) for ts in decide_times]
    result = {
        "correct": not wrong,
        "attempted": len(cases) * rounds,
        "failed": failed,
        "rounds": rounds,
        "speed": yard.speed(),
        "batch_s": sum(decide),
        "check_s": sum(at_reference(cs) for cs in check_times if cs),
        "decide_s_p50": statistics.median(decide),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        layers = {k: statistics.median(r[k] for r in layer_rounds) for k in layer_rounds[0]}
        untraced = sum(statistics.median(t for t, _ in ts) for ts in decide_times)
        layers["trace.overhead_s"] = statistics.median(traced_batches) - untraced
        result["layers"] = layers
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"trace-{args.workload}-{args.seed}.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
