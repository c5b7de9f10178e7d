"""stable-info benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fisher-table --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operation list, each round in a
fresh single-threaded process with cold caches, one after another,
until the next round would end after --seconds (at least one round).
Set-up time is measured on separate processes, taken around the rounds,
that only import the program and build the inputs.  Every time is
reported at the machine's reference speed: scaled by a fixed probe that
the worker times after each operation (see REFERENCE_PROBE_S).  Every round's
outputs are checked (see checks.py); a failed operation is a known
fault only if all its problems are the one its tag names.  The last
stdout line is one JSON object with "correct", "attempted", "failed"
and "metrics": the end-to-end metrics with --trace 0, the per-layer
metrics of spans.py with --trace 1.  Details (failed operations,
measured accuracy of each check, per-round figures) go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402

SETUP_SAMPLES = 3
ROUND_TIMEOUT_S = 170
# About the mean seconds of worker.probe() on the reference machine
# (35 ms).  The speed of this machine drifts over minutes, by up to 1.9
# times between two 10-s stretches (see README.md, Steadiness), so a
# timing is multiplied by (REFERENCE_PROBE_S / the probe's mean next to
# it) ** SPEED_EXPONENT, to read as at the reference speed.
# The program's times move less than the probe's, and by how much less
# depends on the work: over two sets of ten runs, the wall_s spread was
# least with the full ratio on estimator-mc (Python per trial) and with
# its square root on fisher-table (FFTs of up to 2^21 points); three
# quarters lies between the two (see README.md, Steadiness).
REFERENCE_PROBE_S = 0.035
SPEED_EXPONENT = 0.75


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # a fixed hash seed keeps set and dict order, and with it the
    # allocation pattern and peak RSS, the same from run to run
    env["PYTHONHASHSEED"] = "0"
    env.pop("STABLE_INFO_CONFIG", None)
    return env


def spawn(workload: str, seed: int, trace: int, setup_only: bool) -> dict:
    """Run one worker process; returns its JSON report with "setup_s"."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    # wall-clock time, since the start and the ready mark are taken in
    # two different processes
    t_spawn = time.time()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=ROUND_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    probes = doc["probe"] if setup_only else [p for op in doc["ops"] for p in op["probe"]]
    doc["speed"] = speed(probes)
    doc["setup_s"] = doc["ready"] - t_spawn
    return doc


def speed(probes: list) -> float:
    """Factor that brings a time taken next to these probes to the
    reference speed."""
    return (REFERENCE_PROBE_S / statistics.fmean(probes)) ** SPEED_EXPONENT


def scaled_op_seconds(rnd: dict) -> list:
    """Each operation's time at reference speed, scaled by the probes
    taken just before and just after it: the speed moves within a
    round too, and a median of operations follows it (op_p50_ms spread
    7 % over six estimator-mc runs, against 13 % when scaled by the
    round's mean)."""
    out, before = [], []
    for op in rnd["ops"]:
        out.append(op["seconds"] * speed(op["probe"] + before))
        before = op["probe"]
    return out


def run_rounds(workload: str, seed: int, seconds: float, trace: int) -> tuple[list, list]:
    """(set-up times, round reports).  Untraced, a set-up sample is taken
    before each round and the rest after the last one, so that the
    samples span the run rather than one moment of it."""
    setups, rounds = [], []
    t0 = time.monotonic()
    while True:
        if not trace:
            setups.append(spawn(workload, seed, 0, setup_only=True))
        rounds.append(spawn(workload, seed, trace, setup_only=False))
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / len(rounds) > seconds:
            break
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, 0, setup_only=True))
    return setups, rounds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "stable_info" / "__init__.py").is_file():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2

    try:
        setups, rounds = run_rounds(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    ops = spec.workload(args.workload, args.seed)
    attempted = failed = 0
    correct = True
    accuracy = checks.Verdict()
    for i, rnd in enumerate(rounds):
        verdict = checks.check(args.workload, ops, {r["name"]: r for r in rnd["ops"]})
        attempted += len(ops)
        for op in ops:
            problems = verdict.problems.get(op["name"])
            if not problems:
                continue
            failed += 1
            known = checks.is_known_fault(op, problems)
            correct = correct and known
            tag = f"known fault {op['fault']}" if known else "UNEXPECTED"
            print(f"round {i} FAILED [{tag}] {op['name']}: {'; '.join(problems)}", file=sys.stderr)
        for key, (value, limit, worst) in verdict.accuracy.items():
            accuracy.measure(key, value, limit, worst)
    for key, (value, limit, worst) in accuracy.accuracy.items():
        side = "at least" if worst is min else "at most"
        print(f"accuracy {key}: {value:.4g} ({side} {limit:g})", file=sys.stderr)
    for i, rnd in enumerate(rounds):
        print(
            f"round {i}: wall {rnd['wall_s']:.3f} s at speed {rnd['speed']:.3f}, "
            f"{sum(scaled_op_seconds(rnd)):.3f} s at reference speed, peak RSS {rnd['peak_rss_mb']:.1f} MB",
            file=sys.stderr,
        )
    for s in setups:
        print(f"setup: {s['setup_s']:.3f} s at speed {s['speed']:.3f}", file=sys.stderr)

    if args.trace:
        metrics = {
            name: {
                "value": statistics.median(
                    r["trace"][name] * (r["speed"] if unit == "s" else 1.0) for r in rounds
                ),
                "unit": unit,
            }
            for name, unit in spans.metric_names()
        }
    else:
        op_times = [scaled_op_seconds(r) for r in rounds]
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] * s["speed"] for s in setups), "unit": "s"},
            "wall_s": {"value": statistics.median(sum(t) for t in op_times), "unit": "s"},
            "op_p50_ms": {"value": 1000.0 * statistics.median(x for t in op_times for x in t), "unit": "ms"},
            "peak_rss_mb": {
                "value": statistics.median(r["peak_rss_mb"] for r in rounds),
                "unit": "MB",
            },
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
