"""Regenerate the reference figures in perfbench/README.md.

Usage (from the root of a checkout):

    python3 perfbench/reference.py

Runs every workload once untraced and then once traced for each of the
seeds 1, 2 and 3, each run as long as run_seconds in BENCHMARK.json,
keeps the raw output of each run under perfbench/results/, and rewrites
the part of the README between the reference markers: the machine, the
end-to-end medians, the trace overhead (median over the seeds of the
traced wall time over the untraced one run just before it), the largest
per-layer self times and counters of the first traced run, and the
worst measured accuracy of every check.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import spec  # noqa: E402

README = HERE / "README.md"
SEEDS = (1, 2, 3)
RESULTS = HERE / "results"
BEGIN, END = "<!-- reference:begin -->", "<!-- reference:end -->"
ACCURACY = re.compile(r"^accuracy (.+): (\S+) \((at least|at most) (\S+)\)$")
ROUND = re.compile(r"^round \d+: wall (\S+) s at speed (\S+),")
COUNTERS = spans.EXTRA_COUNTS + ("untraced_s",)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.txt").write_text(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr.splitlines()


def traced_wall(m: dict) -> float:
    return m["untraced_s"] + sum(m[f"{f}.self_s"] for f in spans.TRACED)


def figures(seeds, seconds: int) -> str:
    lines = [
        f"Measured on {platform.machine()} Linux, nproc {os.cpu_count()}, "
        f"Python {platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}; "
        f"seeds {', '.join(map(str, seeds))}, --seconds {seconds}. Medians over the seeds.",
        "",
        "| workload | setup_s | wall_s | op_p50_ms | peak_rss_mb | raw wall, s | speed | ops per round | failed per round |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    overhead, layers, accuracy = [], [], {}
    for w in spec.WORKLOADS:
        untraced, traced, ratios, raw = [], [], [], []
        for s in seeds:
            doc, err = run(w, s, seconds, 0)
            untraced.append(doc)
            for line in err:
                m = ACCURACY.match(line)
                if m:
                    accuracy.setdefault((w, m[1], m[3], m[4]), []).append(float(m[2]))
                m = ROUND.match(line)
                if m:
                    raw.append((float(m[1]), float(m[2])))
            traced.append({k: v["value"] for k, v in run(w, s, seconds, 1)[0]["metrics"].items()})
            ratios.append(traced_wall(traced[-1]) / doc["metrics"]["wall_s"]["value"])

        def med(metric):
            return statistics.median(d["metrics"][metric]["value"] for d in untraced)

        n_ops = len(spec.workload(w, seeds[0]))
        rounds = untraced[0]["attempted"] // n_ops
        lines.append(
            f"| {w} | {med('setup_s'):.3f} | {med('wall_s'):.2f} | {med('op_p50_ms'):.1f} | "
            f"{med('peak_rss_mb'):.1f} | {statistics.median(r[0] for r in raw):.2f} | "
            f"{statistics.median(r[1] for r in raw):.3f} | {n_ops} | {untraced[0]['failed'] // rounds} |"
        )
        m = traced[0]
        overhead.append(
            f"| {w} | {med('wall_s'):.2f} | {statistics.median(map(traced_wall, traced)):.2f} | "
            f"{statistics.median(ratios) - 1:+.1%} | {min(ratios) - 1:+.1%} to {max(ratios) - 1:+.1%} |"
        )
        top = sorted(spans.TRACED, key=lambda f: -m[f"{f}.self_s"])[:5]
        layers.append(
            f"- **{w}**: "
            + ", ".join(f"`{f}` {m[f + '.self_s']:.2f} s / {m[f + '.calls']:.0f} calls" for f in top)
            + "; "
            + ", ".join(f"`{c}` {m[c]:.4g}" for c in COUNTERS)
        )
    lines += [
        "",
        "Trace overhead. A traced run's wall time is the sum of its self times and",
        "untraced_s; each is compared with the untraced run of the same seed just before it:",
        "",
        "| workload | untraced wall_s | traced wall_s | overhead, median | range |",
        "|---|---|---|---|---|",
        *overhead,
        "",
        f"Largest self times per layer in the traced run of seed {seeds[0]}, then its counters:",
        "",
        *layers,
        "",
        "Worst measured value of each check over the untraced runs, with its limit:",
        "",
    ]
    for (w, key, side, limit), values in accuracy.items():
        worst = min(values) if side == "at least" else max(values)
        lines.append(f"- {w}: {key}: {worst:.3g} ({side} {limit})")
    return "\n".join(lines)


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    block = figures(SEEDS, seconds)
    text = README.read_text()
    head, rest = text.split(BEGIN)
    _, tail = rest.split(END)
    README.write_text(f"{head}{BEGIN}\n{block}\n{END}{tail}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
