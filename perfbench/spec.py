"""Operation lists of the four benchmark workloads.

This module does not import the program: the harness (run.py) and the
checkers (checks.py) read the same specs the worker executes.  An
operation is a plain dict with a unique "name", a "kind" that the worker
maps to one public library call or one in-process ``cli.main([...])``
call, and the parameters of that call.  Laws are written as lists:
["sas", alpha, gamma], ["gaussian", sigma], ["uniform", a],
["laplace", b], ["cauchy", gamma] and ["shifted", law, delta].
"""

from __future__ import annotations

import math
import random

import numpy as np

WORKLOADS = ("fisher-table", "power-table", "estimator-mc", "inequality-checks")

# An operation with a "fault" tag fails on every run because of a fault
# in the program (README.md lists them).  It stays in the workload and
# is counted as failed, not as wrong, as long as each of its problems
# holds the fault's text below; any other problem makes the run wrong.
FAULTS = {
    "shifted-sas": "!= closed form",
    "crb-n-sample": "exit 1:",
    "sum-bound-smoothing": "spectral integrand has not decayed",
    "gauss-2f1": "2F1 series did not converge",
    "myriad-basin": "is not a local minimizer",
}

FISHER_RS = (0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8)
FISHER_ALPHAS = (1.2, 1.4, 1.6, 1.8)
FISHER_SHIFTS = (0.5, 3.0)

POWER_ALPHAS = (0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8)
POWER_LAWS = (
    ("gaussian:1", ["gaussian", 1.0]),
    ("uniform:1", ["uniform", 1.0]),
    ("laplace:1", ["laplace", 1.0]),
    ("cauchy:1", ["cauchy", 1.0]),
    ("sas:1.5:1", ["sas", 1.5, 1.0]),
)

MC_ALPHAS = (1.2, 1.5, 1.8)
# One-sample ML runs of 20 000 trials each, as many per alpha as keep
# the Monte Carlo spread of their mean error alpha-power near 0.45 %
# (measured over eight seeds with six, four and two runs: 0.62 %,
# 0.50 % and 0.48 %), which keeps the 2 % pin on that mean above four
# standard deviations for every seed.  Each run takes about as long as
# an n > 1 run, so that op_p50_ms is the middle of like operations; as
# three runs of 120 000, 80 000 and 40 000 trials its spread over ten
# runs reached 29 %.
MC_PIN_TRIALS = 20_000
MC_PIN_RUNS = {1.2: 10, 1.5: 5, 1.8: 3}
MC_SAMPLES = (5, 10)
# 1 000 myriad trials make a myriad run about as long as an ML run, so
# that op_p50_ms is the middle of like operations rather than of a gap
# between two groups (its spread was 34 % with 200 trials)
MC_MYRIAD_TRIALS = 1000
MC_ML_TRIALS = 100
# The n > 1 runs draw from fixed streams, not from the seed: their cost
# moved by up to 25 % from seed to seed (the per-trial optimizer's work
# depends on the samples) and widened every timing spread.  They are also
# checked on sample sets of their own, drawn here from fixed streams:
# the optimizer misses the minimum on about 1 % of myriad sample sets,
# so the outcome must not depend on the seed.  200 myriad sets are
# checked (a numpy objective); the ML objective goes through
# levy_stable, so three sets are checked.
MC_CHECK_SETS = {"myriad": 200, "ml_identity": 3}
MC_EQUIVARIANCE_SETS = 3
MC_SHIFT = 2.75
# the myriad runs (n, alpha) whose fixed check sets hold a sample set on
# which the optimizer misses the minimum (fault myriad-basin)
MYRIAD_BASIN = {(10, 1.2), (5, 1.5), (10, 1.8)}

GIIE_ALPHA = 1.8
SUM_BOUND_ALPHAS = ("1.2", "1.5", "1.8")
SUM_BOUND_LAWS = ("gaussian:1", "laplace:1")
SUM_BOUND_FAULTS = {
    ("gaussian:1", "1.2"): "gauss-2f1",
    ("laplace:1", "1.2"): "sum-bound-smoothing",
    ("laplace:1", "1.5"): "sum-bound-smoothing",
}


def workload(name: str, seed: int) -> list[dict]:
    """The operation list of a workload; the same seed gives the same list."""
    if name == "fisher-table":
        return _fisher_table()
    if name == "power-table":
        return _power_table()
    if name == "estimator-mc":
        return _estimator_mc(seed)
    if name == "inequality-checks":
        return _inequality_checks(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _fisher_table() -> list[dict]:
    ops = [
        {
            "name": f"jalpha r={r} alpha={a}",
            "kind": "jalpha",
            "law": ["sas", r, r ** (-1.0 / r)],
            "alpha": a,
        }
        for a in FISHER_ALPHAS
        for r in FISHER_RS
    ]
    ops += [
        {
            "name": f"jalpha shifted d={d} alpha=1.5",
            "kind": "jalpha",
            "law": ["shifted", ["sas", 1.5, 1.0], d],
            "alpha": 1.5,
            "fault": "shifted-sas",
        }
        for d in FISHER_SHIFTS
    ]
    return ops


def _power_table() -> list[dict]:
    return [
        {
            "name": f"alpha_power {label} alpha={a}",
            "kind": "alpha_power",
            "law": law,
            "alpha": a,
        }
        for a in POWER_ALPHAS
        for label, law in POWER_LAWS
    ]


def _estimator_mc(seed: int) -> list[dict]:
    rng = random.Random(seed)

    def mc_seed() -> int:
        return rng.randrange(2**31)

    ops = []
    check_stream = 0
    for a in MC_ALPHAS:
        ops += [
            {
                "name": f"ml_identity n=1 alpha={a} run={k}",
                "kind": "estimator",
                "estimator": "ml_identity",
                "alpha": a,
                "gamma": 1.0,
                "n": 1,
                "trials": MC_PIN_TRIALS,
                "K": None,
                "seed": mc_seed(),
            }
            for k in range(MC_PIN_RUNS[a])
        ]
        for n in MC_SAMPLES:
            for est, trials, K in (
                ("myriad", MC_MYRIAD_TRIALS, 1.0),
                ("ml_identity", MC_ML_TRIALS, None),
            ):
                check_stream += 1
                op = {
                    "name": f"{est} n={n} alpha={a}",
                    "kind": "estimator",
                    "estimator": est,
                    "alpha": a,
                    "gamma": 1.0,
                    "n": n,
                    "trials": trials,
                    "K": K,
                    "seed": 2016_000 + check_stream,
                    "check_samples": stable_samples(
                        a, 1.0, (MC_CHECK_SETS[est], n), seed=[2016, check_stream]
                    ).tolist(),
                    "shift": MC_SHIFT,
                }
                if est == "myriad" and (n, a) in MYRIAD_BASIN:
                    op["fault"] = "myriad-basin"
                ops.append(op)
    ops.append(
        {
            "name": "cli crb-bench sample_median n=10",
            "kind": "cli",
            "argv": [
                "crb-bench",
                "--estimator",
                "sample_median",
                "--n",
                "10",
                "--seed",
                str(mc_seed()),
            ],
            "fault": "crb-n-sample",
        }
    )
    return ops


def _inequality_checks(seed: int) -> list[dict]:
    rng = random.Random(seed)
    # sigma = 0 is the closed-form anchor; the other four are drawn so
    # that no two runs realize the same mixtures
    sigmas = [0.0] + sorted(round(rng.uniform(0.5, 4.5), 6) for _ in range(4))
    ops = [
        {"name": f"giie_mix sigma={s}", "kind": "giie_mix", "sigma": s, "alpha": GIIE_ALPHA}
        for s in sigmas
    ]
    ops += [
        {
            "name": "gfii sas:1.5:1 + sas:1.5:0.5",
            "kind": "gfii",
            "law1": ["sas", 1.5, 1.0],
            "law2": ["sas", 1.5, 0.5],
            "alpha": 1.5,
        },
        {
            "name": "gfii laplace:1 + sas:1.8:1",
            "kind": "gfii",
            "law1": ["laplace", 1.0],
            "law2": ["sas", 1.8, 1.0],
            "alpha": 1.8,
        },
    ]
    eta = round(rng.uniform(0.3, 0.7), 6)
    ops += [
        {
            "name": f"debruijn {label} eta={eta}",
            "kind": "debruijn",
            "law": law,
            "alpha": 1.5,
            "gamma": 1.0,
            "eta": eta,
        }
        for label, law in (("laplace:1", ["laplace", 1.0]), ("sas:1.5:1", ["sas", 1.5, 1.0]))
    ]
    for a in SUM_BOUND_ALPHAS:
        for law in SUM_BOUND_LAWS:
            op = {
                "name": f"cli sum-bound {law} alpha={a}",
                "kind": "cli",
                "argv": ["sum-bound", "--laws", law, "--alpha", a],
            }
            fault = SUM_BOUND_FAULTS.get((law, a))
            if fault:
                op["fault"] = fault
            ops.append(op)
    return ops


def stable_samples(alpha: float, gamma: float, shape, seed) -> np.ndarray:
    """S(alpha, gamma) draws by the Chambers-Mallows-Stuck method."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=shape)
    w = rng.standard_exponential(size=shape)
    s = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
    return gamma * s * (np.cos(u - alpha * u) / w) ** ((1.0 - alpha) / alpha)
