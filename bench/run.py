"""Benchmark command: decide positionality on one workload and report metrics.

    python3 bench/run.py --workload p1-blowup --seed 1 --seconds 42 --trace 0
    python3 bench/run.py --workload all

Each workload runs in its own single-threaded worker process (worker.py),
one after another.  The last line printed is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("p1-blowup", "p2-blowup", "random-corpus")
DEFAULT_SEEDS = {"p1-blowup": 1, "p2-blowup": 2, "random-corpus": 3}
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s", "batch_s": "s", "decide_s_p50": "s", "check_s": "s", "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def _worker_env():
    env = dict(os.environ)
    # string hashing decides set iteration order inside the program; fixing
    # it makes a seed reproduce the same run
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


@contextlib.contextmanager
def _worker(args):
    """A running worker process; killed if it outlives WORKER_TIMEOUT_S or
    the caller raises, and always waited for."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        yield proc
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.wait()
        watchdog.cancel()


def _await_ready(proc, t0):
    """Seconds from process start to the worker's `ready` line."""
    line = proc.stdout.readline()
    if line.strip() != "ready":
        raise WorkerError(f"worker did not get ready: {line.strip()!r}")
    return time.perf_counter() - t0


def run_workload(workload, seed, seconds, trace, tiny=False):
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if tiny:
        base.append("--tiny")
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        t0 = time.perf_counter()
        with _worker(base + ["--setup-only"]) as proc:
            setups.append(_await_ready(proc, t0))
            proc.stdout.read()
        if proc.returncode != 0:
            raise WorkerError(f"set-up worker exited with {proc.returncode}")
    t0 = time.perf_counter()
    with _worker(base) as proc:
        setups.append(_await_ready(proc, t0))
        lines = []
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if not line.startswith("{"):
                print(line, end="", flush=True)
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise WorkerError(f"worker exited with {proc.returncode}")
    raw = json.loads(lines[-1])
    raw["setup_s"] = statistics.median(setups)
    return raw


def report(raw, trace):
    if trace:
        metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
                   for k, v in raw["layers"].items()}
    else:
        metrics = {k: {"value": raw[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return {"correct": raw["correct"], "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the workload's own, see README.md)")
    ap.add_argument("--seconds", type=float, default=42)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true", help="a few small inputs (smoke test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "posaut").is_dir():
        print(f"posaut sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        seed = DEFAULT_SEEDS[workload] if args.seed is None else args.seed
        try:
            raw = run_workload(workload, seed, args.seconds, args.trace, args.tiny)
        except WorkerError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        out = report(raw, args.trace)
        print(f"== {workload} seed={seed} rounds={raw['rounds']} speed={raw['speed']:.4f} "
              f"attempted={raw['attempted']} failed={raw['failed']} correct={raw['correct']}")
        for name, m in out["metrics"].items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
