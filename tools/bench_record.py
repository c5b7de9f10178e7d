"""Record the benchmark of one checkout in BENCH_<label>.json.

Usage (from the root of a checkout):

    python3 tools/bench_record.py --label 14
    python3 tools/bench_record.py --label 13 --repo ../parent --runs 3 --seconds 20

For every workload of BENCHMARK.json, runs the checkout's
perfbench/run.py --runs times untraced, keeping the median and
quartiles of each end-to-end metric over the runs, and --runs times
traced, keeping the median of each per-layer metric.  It also times
the default CLI commands (and a bare import of the CLI) as
subprocesses, start-up included, --cli-repeats times each, counts
each one's minor page faults and records the sha256 of its stdout, so
two files show whether the commands print the same bytes.  The CLI and
the benchmark workers both run single-threaded (OMP, OpenBLAS and MKL
threads set to 1).  The file also holds nproc, the python, numpy
and scipy versions, and src_lines, the line count of
src/stable_info/*.py as `wc -l` gives it (the ROADMAP tracks it).

Before the first run it byte-compiles the checkout's src/ tree, so no
run compiles a module anew: where PYTHONDONTWRITEBYTECODE is set, a
stale cache would be recompiled in every run and counted in setup_s.

The output is written to --out (default: the checkout).  Exits 1 if
src/ does not compile, a benchmark run fails, reports "correct": false
or a failed operation, or a CLI command exits non-zero or prints
different stdout on its repeats; the file is written either way.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

TOOLS = Path(__file__).resolve().parent
# the workload seed of every recorded run, as in the CI benchmark rounds
SEED = 1

# each entry: the name recorded, then the command line after the interpreter
CLI_COMMANDS = {
    "import": ["-c", "import stable_info.cli"],
    "power-table": ["-m", "stable_info.cli", "power-table"],
    "jalpha-table": ["-m", "stable_info.cli", "jalpha-table"],
    "giie-table": ["-m", "stable_info.cli", "giie-table"],
    "giie-mix": ["-m", "stable_info.cli", "giie-mix"],
    "sum-bound": ["-m", "stable_info.cli", "sum-bound"],
    "debruijn-check": ["-m", "stable_info.cli", "debruijn-check"],
    "capacity": ["-m", "stable_info.cli", "capacity", "--alpha", "1.8", "--gamma-n", "1", "--A", "3"],
    "crb-bench": ["-m", "stable_info.cli", "crb-bench"],
    "crb-bench-myriad": [
        "-m", "stable_info.cli", "crb-bench", "--estimator", "myriad", "--K", "1", "--n", "10", "--trials", "2000",
    ],
    "crb-bench-median": ["-m", "stable_info.cli", "crb-bench", "--estimator", "sample_median", "--n", "10"],
    "suite": ["-m", "stable_info.cli", "suite"],
}


def spread(values: list) -> dict:
    """Median and quartiles of values, with the values themselves."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def single_thread_env(repo: Path) -> dict:
    env = dict(os.environ)
    src = str(repo / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def bench_run(repo: Path, workload: str, seconds: float, trace: int) -> dict:
    """One perfbench/run.py invocation: its last stdout line as JSON,
    or {"error": ...} when it exits non-zero."""
    cmd = [
        sys.executable, str(repo / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=repo, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record_workload(repo: Path, workload: str, args) -> tuple[dict, bool]:
    """(the workload's record, whether every run was clean)."""
    ok = True
    out = {"end_to_end": {}, "per_layer": {}, "runs": {"untraced": [], "traced": []}}
    for trace, kind in ((0, "untraced"), (1, "traced")):
        metrics = {}
        for _ in range(args.runs):
            rep = bench_run(repo, workload, args.seconds, trace)
            clean = "error" not in rep and rep["correct"] is True and rep["failed"] == 0
            ok = ok and clean
            out["runs"][kind].append(
                {k: rep[k] for k in ("correct", "attempted", "failed", "error") if k in rep}
            )
            status = rep.get("error") or f"{rep['failed']} of {rep['attempted']} failed, correct {rep['correct']}"
            print(f"{workload} {kind}: {status}", file=sys.stderr)
            for name, m in rep.get("metrics", {}).items():
                metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        for name, m in metrics.items():
            s = spread(m["values"])
            if trace:
                out["per_layer"][name] = {"unit": m["unit"], "median": s["median"]}
            else:
                out["end_to_end"][name] = {"unit": m["unit"], **s}
    return out, ok


def time_cli(repo: Path, repeats: int) -> tuple[dict, bool]:
    """Wall seconds of each CLI command as a subprocess, start-up included,
    its minor page faults (the growth of RUSAGE_CHILDREN's ru_minflt
    over the run), which stay steady where wall time drifts, and the
    sha256 of its stdout (None when the repeats print different bytes,
    which fails the recording)."""
    env, ok, out = single_thread_env(repo), True, {}
    for name, argv in CLI_COMMANDS.items():
        times, faults, codes, digests = [], [], [], set()
        for _ in range(repeats):
            f0 = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, *argv], cwd=repo, env=env, capture_output=True)
            times.append(time.perf_counter() - t0)
            faults.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - f0)
            codes.append(proc.returncode)
            digests.add(hashlib.sha256(proc.stdout).hexdigest())
        digest = digests.pop() if len(digests) == 1 else None
        ok = ok and not any(codes) and digest is not None
        out[name] = {
            "unit": "s", **spread(times), "minflt": spread(faults), "exit_codes": codes,
            "stdout_sha256": digest,
        }
        print(
            f"cli {name}: {statistics.median(times):.3f} s, "
            f"{statistics.median(faults):.0f} minor faults, exit {codes}, "
            f"stdout {digest or 'differs between repeats'}",
            file=sys.stderr,
        )
    return out, ok


def src_lines(repo: Path) -> int:
    """Newlines in src/stable_info/*.py: the total `wc -l` prints."""
    return sum(p.read_bytes().count(b"\n") for p in (repo / "src" / "stable_info").glob("*.py"))


def git_commit(repo: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="the file is named BENCH_<label>.json")
    p.add_argument("--repo", type=Path, default=TOOLS.parent, help="the checkout to measure")
    p.add_argument("--out", type=Path, default=None, help="directory of the file (default: --repo)")
    p.add_argument("--runs", type=int, default=3, help="benchmark runs per workload, each way")
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--cli-repeats", type=int, default=3)
    args = p.parse_args(argv)
    repo = args.repo.resolve()
    if args.runs < 1 or args.cli_repeats < 1:
        p.error("--runs and --cli-repeats must be at least 1")

    spec = json.loads((repo / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    doc = {
        "label": args.label,
        "commit": git_commit(repo),
        "src_lines": src_lines(repo),
        "machine": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "settings": {"runs": args.runs, "seconds": args.seconds, "seed": SEED, "cli_repeats": args.cli_repeats},
        "workloads": {},
    }
    ok = bool(compileall.compile_dir(repo / "src", quiet=1))
    for w in spec["workloads"]:
        doc["workloads"][w["name"]], clean = record_workload(repo, w["name"], args)
        ok = ok and clean
    doc["cli"], clean = time_cli(repo, args.cli_repeats)
    ok = ok and clean
    doc["clean"] = ok

    out_dir = (args.out or repo).resolve()
    path = out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
