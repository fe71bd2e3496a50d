"""Smoke test of the benchmark itself.

Each workload runs to its end on a tiny input set with every check passing
(inputs may fail only by the known KeyError of p1, see README.md) and prints
every metric BENCHMARK.json names; in a traced run the self times
of the spans under each round add up to the round.  Not part of the test
suite under tests/; run it with

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    # the only failures allowed are p1 raising the known KeyError (README.md)
    failures = [ln for ln in lines if ln.startswith("FAILED ")]
    assert all(ln.startswith("FAILED p1/") and ": KeyError" in ln for ln in failures), failures
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert (result["failed"] > 0) == bool(failures)
    return result


def _names(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[section]}


def _spans(workload):
    path = ROOT / ".bench_out" / f"trace-{workload}-{SEED}.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("workload", ["p1-blowup", "p2-blowup", "random-corpus"])
def test_untraced_run_is_clean(workload):
    result = _run(workload, 0)
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["p1-blowup", "p2-blowup", "random-corpus"])
def test_traced_self_times_add_up(workload):
    result = _run(workload, 1)
    assert set(result["metrics"]) == _names("per_layer")

    spans = _spans(workload)
    self_s = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] >= 0:
            self_s[s["parent"]] -= s["end"] - s["start"]
    root = {}
    for s in spans:  # parents are recorded before their children
        root[s["id"]] = s["id"] if s["parent"] < 0 else root[s["parent"]]
    rounds = [s for s in spans if s["name"] == "round"]
    assert rounds
    for r in rounds:
        inside = sum(v for i, v in self_s.items() if root[i] == r["id"])
        assert inside == pytest.approx(r["end"] - r["start"], rel=1e-9, abs=1e-9)
    # the traced batch is the decisions' time, the `op` spans of a round
    traced = statistics.median(
        sum(s["end"] - s["start"] for s in spans if s["name"] == "op" and root[s["id"]] == r["id"])
        for r in rounds)
    assert result["metrics"]["trace.batch_s"]["value"] == pytest.approx(traced, rel=0.05)
