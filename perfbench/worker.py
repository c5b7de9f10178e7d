"""One round of a workload in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE [--setup-only]

Imports the program, builds the inputs of every operation (the set-up),
then runs the operation list once with every cache cold, timing each
operation.  Work that only serves the output checks runs after the
operation, outside its timed region and outside the trace.  Prints one
JSON object on its last stdout line; run.py reads it.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402
import spans  # noqa: E402
from stable_info import alphapower, bounds, cli, density, estimate, jalpha, stable  # noqa: E402


def make_law(law):
    kind, *args = law
    if kind == "shifted":
        return density.Shifted(make_law(args[0]), args[1])
    return {
        "sas": density.SaS,
        "gaussian": density.Gaussian,
        "uniform": density.Uniform,
        "laplace": density.Laplace,
        "cauchy": density.Cauchy,
    }[kind](*args)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def _estimator_call(op):
    run = estimate.EstimatorRun(
        estimator=op["estimator"],
        theta_true=0.0,
        noise=stable.StableParams.symmetric(op["alpha"], op["gamma"]),
        trials=op["trials"],
        samples_per_trial=op["n"],
        seed=op["seed"],
        K=op["K"],
    )
    return lambda: estimate.run_estimator(run)


def _estimator_output(op, run):
    out = {"error_alpha_power": run.error_alpha_power, "crb": run.crb}
    if "check_samples" in op:
        if op["estimator"] == "myriad":
            est = lambda s: estimate.myriad_estimate(s, op["K"])  # noqa: E731
        else:
            est = lambda s: estimate.ml_location_estimate(s, op["alpha"], op["gamma"])  # noqa: E731
        xs = [np.asarray(x) for x in op["check_samples"]]
        out["estimates"] = [est(x) for x in xs]
        out["estimates_shifted"] = [est(x + op["shift"]) for x in xs[: spec.MC_EQUIVARIANCE_SETS]]
    return out


def build(op):
    """(call, output) for an operation: call() is the timed library call,
    output(result) turns its result into JSON for the checks."""
    kind = op["kind"]
    if kind == "jalpha":
        law = make_law(op["law"])
        return (
            lambda: jalpha.jalpha_of_law(law, op["alpha"]),
            lambda r: {"value": r.value},
        )
    if kind == "alpha_power":
        law = make_law(op["law"])
        return (
            lambda: alphapower.alpha_power(law, op["alpha"]),
            lambda r: {"value": r.value, "method": r.method},
        )
    if kind == "estimator":
        return _estimator_call(op), lambda r: _estimator_output(op, r)
    if kind == "cli":
        return lambda: run_cli(op["argv"]), lambda r: r
    if kind == "giie_mix":
        return (
            lambda: bounds.giie_mix_products([op["sigma"]], alpha=op["alpha"]),
            lambda r: {"product": r[0][1]},
        )
    if kind == "gfii":
        law1, law2 = make_law(op["law1"]), make_law(op["law2"])
        return (
            lambda: bounds.gfii_check(law1, law2, op["alpha"]),
            lambda r: {"lhs": r.lhs, "rhs": r.rhs, "slack": r.slack, **r.method},
        )
    if kind == "debruijn":
        law = make_law(op["law"])
        return (
            lambda: jalpha.debruijn_check(law, op["alpha"], op["gamma"], op["eta"]),
            lambda r: {"lhs": r.lhs, "rhs": r.rhs, "relative_error": float(r.method["relative_error"])},
        )
    raise ValueError(f"unknown operation kind {kind!r}")


# The speed probe: a fixed task on buffers of its own, half Python
# arithmetic and half FFTs of 2^14 points written in place, so that it
# neither allocates nor depends on what the program left in the heap.
# It runs after every operation (untimed, untraced); run.py scales every
# timing by its mean to the machine's reference speed.
_PROBE_X = np.random.default_rng(0).standard_normal(1 << 14)
_PROBE_C = np.empty((1 << 13) + 1, dtype=complex)
_PROBE_R = np.empty(1 << 14)
PROBE_EVERY_S = 0.5


def probe() -> float:
    """Seconds taken by the speed probe now."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(60):
        np.fft.rfft(_PROBE_X, out=_PROBE_C)
        np.fft.irfft(_PROBE_C, n=_PROBE_X.size, out=_PROBE_R)
        acc += float(_PROBE_R[1])
    for j in range(240_000):
        acc += j * 0.5
    return time.perf_counter() - t0


def main(argv) -> int:
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    setup_only = "--setup-only" in argv[3:]
    ops = spec.workload(workload, seed)
    tracer = spans.Tracer() if traced and not setup_only else None
    if tracer is not None:
        tracer.install()
    calls = [build(op) for op in ops]
    ready = time.time()
    if setup_only:
        # the first probe also plans the FFT, so it is left out
        print(json.dumps({"ready": ready, "probe": [probe() for _ in range(6)][1:]}))
        return 0

    results = []
    wall = 0.0
    for op, (call, output) in zip(ops, calls):
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            res = call()
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed operation is a result
            res, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        wall += dt
        if tracer is not None:
            tracer.enabled = False
        record = {"name": op["name"], "seconds": dt, "error": error, "output": None}
        if error is None:
            try:
                record["output"] = output(res)
            except Exception as exc:  # noqa: BLE001
                record["error"] = f"output check raised {type(exc).__name__}: {exc}"
        # one probe per started PROBE_EVERY_S of the operation, so that
        # the probes sample the round in proportion to its time
        record["probe"] = [probe() for _ in range(1 + int(dt / PROBE_EVERY_S))]
        results.append(record)

    doc = {
        "ready": ready,
        "ops": results,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.metrics(wall) if tracer is not None else None,
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
