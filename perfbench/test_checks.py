"""Each checker of the benchmark accepts consistent outputs and rejects a
perturbed one.

Run with:  python3 -m pytest perfbench/test_checks.py
"""

import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import spec  # noqa: E402


def ok(out):
    return {"error": None, "output": out}


def problems(workload, ops, outs):
    return dict(checks.check(workload, ops, outs).problems)


# -- fisher-table ---------------------------------------------------------


@pytest.fixture
def fisher():
    ops = spec.workload("fisher-table", 0)
    outs = {}
    for op in ops:
        law, a = op["law"], op["alpha"]
        if law[0] == "shifted":
            j = checks.jalpha_closed(a, law[1][2])
        else:
            # r / alpha: increasing in r, decreasing in alpha, 1 at r = alpha,
            # which is the closed form there since gamma = r^(-1/r)
            j = law[1] / a
        outs[op["name"]] = ok({"value": j})
    return ops, outs


def test_fisher_accepts_consistent_table(fisher):
    assert problems("fisher-table", *fisher) == {}


def test_fisher_rejects_closed_form_error(fisher):
    ops, outs = fisher
    outs["jalpha r=1.4 alpha=1.4"]["output"]["value"] *= 1.02
    assert list(problems("fisher-table", ops, outs)) == ["jalpha r=1.4 alpha=1.4"]


def test_fisher_rejects_non_monotone_table(fisher):
    ops, outs = fisher
    outs["jalpha r=0.8 alpha=1.6"]["output"]["value"] = outs["jalpha r=0.6 alpha=1.6"]["output"]["value"]
    found = problems("fisher-table", ops, outs)
    assert "jalpha r=0.8 alpha=1.6" in found


def test_fisher_rejects_wrong_shifted_law(fisher):
    ops, outs = fisher
    outs["jalpha shifted d=0.5 alpha=1.5"]["output"]["value"] = 0.6187
    assert list(problems("fisher-table", ops, outs)) == ["jalpha shifted d=0.5 alpha=1.5"]


# -- power-table ----------------------------------------------------------

# values the program prints for the oracle rows, accurate to ~1e-6
POWER_ROWS = {
    "alpha_power gaussian:1 alpha=1.2": 0.5532051737,
    "alpha_power laplace:1 alpha=1.2": 0.6653120501,
    "alpha_power uniform:1 alpha=0.8": 0.1737008262,
    "alpha_power cauchy:1 alpha=1.0": 1.0,
}


@pytest.fixture
def power():
    ops = spec.workload("power-table", 0)
    outs = {op["name"]: ok({"value": POWER_ROWS.get(op["name"], 1.0), "method": "numeric_root"}) for op in ops}
    return ops, outs


def test_power_accepts_consistent_table(power):
    assert problems("power-table", *power) == {}


@pytest.mark.parametrize("name", sorted(POWER_ROWS))
def test_power_rejects_2pct_error(power, name):
    ops, outs = power
    outs[name]["output"]["value"] *= 1.02
    assert list(problems("power-table", ops, outs)) == [name]


def test_power_rejects_nonpositive_value(power):
    ops, outs = power
    outs["alpha_power sas:1.5:1 alpha=0.4"]["output"]["value"] = float("nan")
    assert list(problems("power-table", ops, outs)) == ["alpha_power sas:1.5:1 alpha=0.4"]


# -- estimator-mc ---------------------------------------------------------


def _argmin(objective, x, scale):
    # a grid point lower than both neighbours brackets a local minimum
    grid = np.linspace(x.min() - scale, x.max() + scale, 41)
    t0 = grid[int(np.argmin([objective(t) for t in grid]))]
    h = grid[1] - grid[0]
    res = minimize_scalar(objective, bounds=(t0 - h, t0 + h), method="bounded", options={"xatol": 1e-10})
    return float(res.x)


@pytest.fixture(scope="module")
def estimator_base():
    ops = [op for op in spec.workload("estimator-mc", 0) if op.get("alpha") == 1.5 or op["kind"] == "cli"]
    outs = {}
    for op in ops:
        if op["kind"] == "cli":
            outs[op["name"]] = ok({"code": 0, "stdout": '{"crb": null, "error_alpha_power": 0.47}', "stderr": ""})
            continue
        a, g = op["alpha"], op["gamma"]
        out = {"error_alpha_power": checks.stable_power(a, g) * 1.005, "crb": checks.crb_stable(a, g)}
        if "check_samples" in op:
            estimates = []
            for x in map(np.asarray, op["check_samples"]):
                if op["estimator"] == "myriad":
                    obj = lambda t: checks._myriad_objective(x, t, op["K"])  # noqa: E731
                else:
                    obj = lambda t: checks._ml_objective(x, t, a, g)  # noqa: E731
                estimates.append(_argmin(obj, x, g))
            out["estimates"] = estimates
            out["estimates_shifted"] = [e + op["shift"] for e in estimates[: spec.MC_EQUIVARIANCE_SETS]]
        outs[op["name"]] = ok(out)
    return ops, outs


@pytest.fixture
def estimator(estimator_base):
    return copy.deepcopy(estimator_base)


def test_estimator_accepts_consistent_runs(estimator):
    assert problems("estimator-mc", *estimator) == {}


PIN_RUNS = [f"ml_identity n=1 alpha=1.5 run={k}" for k in range(spec.MC_PIN_RUNS[1.5])]


def test_estimator_rejects_pin_off_by_3pct(estimator):
    ops, outs = estimator
    for name in PIN_RUNS:
        outs[name]["output"]["error_alpha_power"] *= 1.03
    assert sorted(problems("estimator-mc", ops, outs)) == PIN_RUNS


def test_estimator_rejects_one_pin_run_far_off(estimator):
    ops, outs = estimator
    outs[PIN_RUNS[0]]["output"]["error_alpha_power"] *= 1.0 + 0.03 * len(PIN_RUNS)
    assert sorted(problems("estimator-mc", ops, outs)) == PIN_RUNS


def test_estimator_rejects_power_below_crb(estimator):
    ops, outs = estimator
    out = outs[PIN_RUNS[0]]["output"]
    out["error_alpha_power"] = 0.97 * out["crb"]
    found = problems("estimator-mc", ops, outs)[PIN_RUNS[0]]
    assert any("CRB" in p for p in found)


def test_estimator_rejects_wrong_crb(estimator):
    ops, outs = estimator
    outs[PIN_RUNS[1]]["output"]["crb"] *= 1.001
    assert list(problems("estimator-mc", ops, outs)) == [PIN_RUNS[1]]


def test_estimator_leaves_n_sample_crb_unchecked(estimator):
    # the single-observation bound attached with n > 1 is fault
    # crb-n-sample; an n-sample bound must not be rejected either
    ops, outs = estimator
    outs["myriad n=5 alpha=1.5"]["output"]["crb"] /= 5.0
    outs["ml_identity n=10 alpha=1.5"]["output"]["crb"] /= 10.0
    assert problems("estimator-mc", ops, outs) == {}


@pytest.mark.parametrize("name", ["myriad n=5 alpha=1.5", "ml_identity n=10 alpha=1.5"])
def test_estimator_rejects_non_minimizer(estimator, name):
    ops, outs = estimator
    out = outs[name]["output"]
    out["estimates"][0] += 0.05
    out["estimates_shifted"][0] += 0.05
    found = problems("estimator-mc", ops, outs)
    assert list(found) == [name] and "local minimizer" in found[name][0]


def test_estimator_rejects_broken_equivariance(estimator):
    ops, outs = estimator
    outs["myriad n=10 alpha=1.5"]["output"]["estimates_shifted"][1] += 1e-3
    assert list(problems("estimator-mc", ops, outs)) == ["myriad n=10 alpha=1.5"]


def test_crb_bench_rejects_violation_and_exit_code(estimator):
    ops, outs = estimator
    name = "cli crb-bench sample_median n=10"
    outs[name]["output"]["stdout"] = '{"crb": 1.17, "error_alpha_power": 0.47}'
    assert list(problems("estimator-mc", ops, outs)) == [name]
    outs[name]["output"].update(code=1, stdout='{"crb": null, "error_alpha_power": 0.47}')
    assert list(problems("estimator-mc", ops, outs)) == [name]


# -- inequality-checks ----------------------------------------------------


def _gfii(op, j1, j2, j_sum):
    e = 1.0 / (1.0 - op["alpha"])
    lhs, rhs = j_sum**e, j1**e + j2**e
    return {"lhs": lhs, "rhs": rhs, "slack": lhs - rhs, "j1": j1, "j2": j2, "j_sum": j_sum}


def _sum_bound(law, alpha, h_num, h_bound):
    header = "law,alpha,gamma,h_sum_numeric,h_sum_bound,slack\n"
    row = f"{law},{alpha},1,{h_num},{h_bound},{h_bound - h_num}\n"
    return {"code": 0, "stdout": header + row, "stderr": ""}


@pytest.fixture
def inequality():
    ops = spec.workload("inequality-checks", 0)
    outs = {}
    for op in ops:
        kind = op["kind"]
        if kind == "giie_mix":
            out = {"product": 1.0 if op["sigma"] == 0 else 0.95}
        elif kind == "gfii":
            a = op["alpha"]
            if op["law1"][0] == "sas":
                g1, g2 = op["law1"][2], op["law2"][2]
                gs = (g1**a + g2**a) ** (1.0 / a)
                out = _gfii(op, checks.jalpha_closed(a, g1), checks.jalpha_closed(a, g2), checks.jalpha_closed(a, gs))
            else:
                out = _gfii(op, 1.0, checks.jalpha_closed(a, op["law2"][2]), 0.3158)
        elif kind == "debruijn":
            a, g, eta, law = op["alpha"], op["gamma"], op["eta"], op["law"]
            v = g**a / (a * (law[2] ** a + eta * g**a)) if law[0] == "sas" else 0.3
            out = {"lhs": v, "rhs": v, "relative_error": 0.0}
        elif op.get("fault"):
            out = {"code": 3, "stdout": "", "stderr": "numeric failure: " + spec.FAULTS[op["fault"]]}
        else:
            law, a = op["argv"][2], op["argv"][4]
            out = _sum_bound(law, a, 2.2, 2.4)
        outs[op["name"]] = ok(out)
    return ops, outs


def test_inequality_accepts_consistent_outputs(inequality):
    ops, _ = inequality
    found = problems("inequality-checks", *inequality)
    assert sorted(found) == sorted(op["name"] for op in ops if op.get("fault"))
    assert all(checks.is_known_fault(op, found[op["name"]]) for op in ops if op.get("fault"))


def _new_problems(inequality):
    """Operations with problems, apart from the known-fault ones."""
    ops, outs = inequality
    faults = {op["name"] for op in ops if op.get("fault")}
    return sorted(set(problems("inequality-checks", ops, outs)) - faults)


def test_giie_rejects_product_below_kappa(inequality):
    ops, outs = inequality
    name = next(op["name"] for op in ops if op["kind"] == "giie_mix" and op["sigma"] > 0)
    outs[name]["output"]["product"] = 0.99 * checks.kappa(1.8)
    assert _new_problems(inequality) == [name]


def test_giie_rejects_anchor_error(inequality):
    _, outs = inequality
    outs["giie_mix sigma=0.0"]["output"]["product"] = 0.998
    assert _new_problems(inequality) == ["giie_mix sigma=0.0"]


def test_gfii_rejects_negative_slack(inequality):
    ops, outs = inequality
    op = next(op for op in ops if op["name"] == "gfii laplace:1 + sas:1.8:1")
    out = outs[op["name"]]["output"]
    outs[op["name"]]["output"] = _gfii(op, out["j1"], out["j2"], 0.5)
    assert outs[op["name"]]["output"]["slack"] < -1e-3
    assert _new_problems(inequality) == [op["name"]]


def test_gfii_rejects_j_off_closed_form(inequality):
    ops, outs = inequality
    op = next(op for op in ops if op["name"] == "gfii sas:1.5:1 + sas:1.5:0.5")
    out = outs[op["name"]]["output"]
    outs[op["name"]]["output"] = _gfii(op, out["j1"] * 1.02, out["j2"], out["j_sum"])
    assert _new_problems(inequality) == [op["name"]]


@pytest.mark.parametrize("law", ["laplace:1", "sas:1.5:1"])
def test_debruijn_rejects_relative_error(inequality, law):
    ops, outs = inequality
    name = next(op["name"] for op in ops if op["name"].startswith(f"debruijn {law} "))
    outs[name]["output"]["relative_error"] = 0.03
    assert _new_problems(inequality) == [name]


def test_debruijn_rejects_stable_chain_off_closed_form(inequality):
    ops, outs = inequality
    name = next(op["name"] for op in ops if op["name"].startswith("debruijn sas:1.5:1 "))
    out = outs[name]["output"]
    out["lhs"] *= 1.03
    out["rhs"] *= 1.03
    assert _new_problems(inequality) == [name]


def test_sum_bound_rejects_bound_below_entropy(inequality):
    _, outs = inequality
    name = "cli sum-bound gaussian:1 alpha=1.8"
    outs[name]["output"] = _sum_bound("gaussian:1", "1.8", 2.3, 2.29)
    assert _new_problems(inequality) == [name]


def test_sum_bound_rejects_entropy_below_its_terms(inequality):
    _, outs = inequality
    name = "cli sum-bound laplace:1 alpha=1.8"
    h_z = checks.stable_entropy(1.8, 1.0)
    assert math.isfinite(h_z)
    low = min(h_z, 1.0 + math.log(2.0)) - 0.01
    outs[name]["output"] = _sum_bound("laplace:1", "1.8", low, low + 0.5)
    assert _new_problems(inequality) == [name]


# -- known faults ---------------------------------------------------------


def test_only_failing_myriad_runs_carry_the_basin_fault():
    ops = spec.workload("estimator-mc", 0)
    tagged = sorted(op["name"] for op in ops if op.get("fault") == "myriad-basin")
    assert tagged == ["myriad n=10 alpha=1.2", "myriad n=10 alpha=1.8", "myriad n=5 alpha=1.5"]


def test_known_fault_needs_the_fault_problem_only():
    op = {"name": "myriad n=5 alpha=1.5", "fault": "myriad-basin"}
    miss = "estimate 0.43 of samples [1.0] is not a local minimizer"
    assert checks.is_known_fault(op, [miss, miss])
    assert not checks.is_known_fault(op, [miss, "not shift-equivariant: 0.1"])
    assert not checks.is_known_fault({"name": "myriad n=5 alpha=1.2"}, [miss])
    shifted = {"name": "jalpha shifted d=0.5 alpha=1.5", "fault": "shifted-sas"}
    assert checks.is_known_fault(shifted, ["J_alpha 0.618681 != closed form 0.666667"])
    assert not checks.is_known_fault(shifted, ["J_alpha = nan"])
