"""Row-wise (batched) estimators and the one-draw Monte Carlo stream."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stable_info import estimate
from stable_info.estimate import (
    EstimatorRun,
    ml_location_estimate,
    myriad_estimate,
    run_estimator,
)
from stable_info.stable import StableParams, logpdf_sas, sample_sas


def test_myriad_global_basin():
    # the minimum lies in the wide gap between -0.597 and 0.461, beyond
    # the basin half-way around the best sample
    x = np.array([-1.47, -1.165, -0.858, -0.634, -0.597, 0.461, 0.641, 0.801, 1.432, 1.629])
    K = 1.0
    grid = np.arange(-2.0, 2.0, 1e-5)
    obj = np.zeros_like(grid)
    for xi in x:
        obj += np.log(K**2 + (xi - grid) ** 2)
    brute = grid[int(np.argmin(obj))]
    assert brute == pytest.approx(-0.0830, abs=1e-4)
    assert myriad_estimate(x, K) == pytest.approx(brute, abs=2e-5)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("n", [2, 5, 10])
def test_myriad_rows_equal_single_sets(alpha, n):
    x = 0.3 + sample_sas(alpha, 1.0, (40, n), seed=[21, n])
    batch = myriad_estimate(x, 0.8)
    assert batch.shape == (40,)
    single = np.array([myriad_estimate(row, 0.8) for row in x])
    np.testing.assert_allclose(batch, single, rtol=0, atol=1e-9)


@pytest.mark.parametrize("alpha", [1.2, 1.8])
@pytest.mark.parametrize("n", [2, 5])
def test_ml_rows_equal_single_sets(alpha, n):
    x = -1.1 + sample_sas(alpha, 1.0, (12, n), seed=[22, n])
    batch = ml_location_estimate(x, alpha, 1.0)
    assert batch.shape == (12,)
    single = np.array([ml_location_estimate(row, alpha, 1.0) for row in x])
    np.testing.assert_allclose(batch, single, rtol=0, atol=1e-9)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("n", [5, 10])
def test_ml_estimates_are_slope_roots(alpha, n):
    # the slope sum_i (ln p)'(x_i - theta) of the negative
    # log-likelihood changes sign within delta of every estimate
    x = sample_sas(alpha, 1.0, (100, n), seed=[25, n])
    theta = ml_location_estimate(x, alpha, 1.0)

    def slope(t):
        # (ln p)' is odd: taken at |u| in ascending order, signed by u
        u = x - t[:, None]
        order = np.argsort(np.abs(u), axis=None)
        dlp = np.empty(u.size)
        dlp[order] = logpdf_sas(alpha, 1.0, np.abs(u).ravel()[order], slope=True)[1]
        return (np.sign(u) * dlp.reshape(u.shape)).sum(axis=1)

    delta = 1e-9 * (1.0 + np.abs(theta))
    assert np.all(slope(theta - delta) <= 0.0)
    assert np.all(slope(theta + delta) >= 0.0)


def test_single_column_rows_are_the_samples():
    x = sample_sas(1.5, 1.0, (30, 1), seed=23)
    np.testing.assert_array_equal(myriad_estimate(x, 1.0), x[:, 0])
    np.testing.assert_array_equal(ml_location_estimate(x, 1.5, 1.0), x[:, 0])


@pytest.mark.parametrize(
    "estimator, n, row_estimate",
    [
        ("ml_identity", 1, lambda x: x[0]),
        ("ml_identity", 4, lambda x: ml_location_estimate(x, 1.5, 1.0)),
        ("sample_mean", 6, np.mean),
        ("sample_median", 7, np.median),
        ("myriad", 5, lambda x: myriad_estimate(x, 1.0)),
    ],
)
def test_run_errors_are_row_estimates(estimator, n, row_estimate):
    noise = StableParams.symmetric(1.5, 1.0)
    run = run_estimator(EstimatorRun(estimator, 0.0, noise, 25, n, seed=24, K=1.0))
    x = sample_sas(1.5, 1.0, (25, n), seed=24)
    expected = np.array([row_estimate(row) for row in x])
    np.testing.assert_allclose(run.errors, expected, rtol=0, atol=1e-9)


def test_crb_only_for_one_sample():
    noise = StableParams.symmetric(1.5, 1.0)
    one = run_estimator(EstimatorRun("sample_median", 0.0, noise, 20, 1, seed=25))
    many = run_estimator(EstimatorRun("sample_median", 0.0, noise, 20, 10, seed=25))
    assert one.crb is not None
    assert many.crb is None


def test_rejects_bad_sample_arrays():
    for bad in ([], np.zeros((2, 0)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError):
            myriad_estimate(bad, 1.0)
        with pytest.raises(ValueError):
            ml_location_estimate(bad, 1.5, 1.0)


@pytest.mark.parametrize("alpha", [1.2, 1.8])
def test_block_size_leaves_estimates_bit_for_bit(monkeypatch, alpha):
    x = sample_sas(alpha, 1.0, (200, 10), seed=26)
    myriad, ml = myriad_estimate(x, 1.0), ml_location_estimate(x, alpha, 1.0)
    # one row per scan block
    monkeypatch.setattr(estimate, "_BLOCK_POINTS", 1)
    np.testing.assert_array_equal(myriad_estimate(x, 1.0), myriad)
    np.testing.assert_array_equal(ml_location_estimate(x, alpha, 1.0), ml)


def test_run_errors_stay_writeable():
    noise = StableParams.symmetric(1.5, 1.0)
    run = run_estimator(EstimatorRun("sample_median", 0.0, noise, 20, 3, seed=27))
    assert run.errors.flags.writeable
    run.errors[0] = 0.0


def test_median_is_np_median_bit_for_bit():
    noise = StableParams.symmetric(1.5, 1.0)
    for n in (1, 2, 3, 4, 9, 10):
        run = run_estimator(EstimatorRun("sample_median", 0.0, noise, 500, n, seed=[28, n]))
        x = sample_sas(1.5, 1.0, (500, n), seed=[28, n])
        np.testing.assert_array_equal(run.errors, np.median(x, axis=1))


# References in plain numpy: the sum-of-logs grid scan and the bisection
# that the myriad's product scan and the Illinois refinement replaced.


def reference_bracket(x, K):
    """(a, b) of the sum-of-logs scan, with its grid, its objective and
    the sum of |ln(K^2 + u^2)| that bounds the objective's roundoff."""
    s = np.sort(x, axis=1)
    B = len(s)
    knots = np.concatenate([s[:, :1] - K, s, s[:, -1:] + K], axis=1)
    t = np.arange(32) / 32
    grid = (knots[:, :-1, None] + np.diff(knots, axis=1)[:, :, None] * t).reshape(B, -1)
    grid = np.concatenate([grid, knots[:, -1:]], axis=1)
    vals = np.log(K * K + (x[:, :1] - grid) ** 2)
    absvals = np.abs(vals)
    for i in range(1, x.shape[1]):
        term = np.log(K * K + (x[:, i : i + 1] - grid) ** 2)
        vals += term
        absvals += np.abs(term)
    best = grid[np.arange(B), np.argmin(vals, axis=1)][:, None]
    a = np.max(np.where(grid < best, grid, grid[:, :1]), axis=1)
    b = np.min(np.where(grid > best, grid, grid[:, -1:]), axis=1)
    return a, b, grid, vals, absvals


def reference_bisection(x, a, b, dloss):
    """Bisection on the sign of the slope from the brackets (a, b) to
    b - a < 1e-10 (1 + |a|): the estimates and each row's steps."""
    a, b, steps = a.copy(), b.copy(), np.zeros(len(x), dtype=int)
    while True:
        r = np.flatnonzero(b - a >= 1e-10 * (1.0 + np.abs(a)))
        if r.size == 0:
            return (a + b) / 2.0, steps
        steps[r] += 1
        mid = (a[r] + b[r]) / 2.0
        up = dloss(x[r] - mid[:, None]).sum(axis=1) > 0
        b[r] = np.where(up, mid, b[r])
        a[r] = np.where(up, a[r], mid)


def estimator_parts(estimator, *args):
    """(pad, scan, dloss) that an estimator hands to _refine_minimum."""
    parts = []
    refine = estimate._refine_minimum

    def spy(x, pad, scan, dloss):
        parts.append((pad, scan, dloss))
        return refine(x, pad, scan, dloss)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimate, "_refine_minimum", spy)
        estimator(np.array([0.0, 1.0]), *args)
    return parts[0]


def refine_counted(x, pad, scan, dloss):
    """_refine_minimum row by row: the final brackets and the number of
    slope evaluations each row took."""
    a, b, evals = np.empty(len(x)), np.empty(len(x)), np.zeros(len(x), dtype=int)
    for i in range(len(x)):

        def counted(u):
            evals[i] += u.size // x.shape[1]
            return dloss(u)

        (a[i],), (b[i],) = estimate._refine_minimum(x[i : i + 1], pad, scan, counted)
    return a, b, evals


def check_refinement(x, pad, scan, dloss, max_evals):
    """The final bracket of every row is below 1e-10 (1 + |theta|) and the
    slope goes from <= 0 to >= 0 across it.  Where the grid bracket holds
    a sign change, theta is within 1e-9 (1 + |theta|) of the bisection's
    (or the slope is roundoff between them) and the row takes at most
    max_evals(bisection steps) slope evaluations."""
    a, b, evals = refine_counted(x, pad, scan, dloss)
    theta = (a + b) / 2.0
    assert np.all(b - a <= 1e-10 * (1.0 + np.abs(theta)) * (1.0 + 1e-9))
    # a grid bracket already that narrow is kept as it is (by bisection too)
    ran = evals > 0
    assert np.all(dloss(x - a[:, None]).sum(axis=1)[ran] <= 0.0)
    assert np.all(dloss(x - b[:, None]).sum(axis=1)[ran] >= 0.0)
    a0, b0 = estimate._bracket(x, pad, scan)
    bisected, steps = reference_bisection(x, a0, b0, dloss)
    held = (dloss(x - a0[:, None]).sum(axis=1) <= 0) & (dloss(x - b0[:, None]).sum(axis=1) >= 0)
    apart = held & (np.abs(theta - bisected) > 1e-9 * (1.0 + np.abs(theta)))
    # only a root of higher order, where the slope is flat to roundoff
    # over a band (x = [0, 2] at K = 1: S ~ (theta - 1)^3), puts the two
    # further apart; then the slope is roundoff all the way between them
    for i in np.flatnonzero(apart):
        terms = dloss(x[i] - np.linspace(theta[i], bisected[i], 9)[:, None])
        roundoff = 4 * x.shape[1] * np.finfo(float).eps * np.abs(terms).sum(axis=1).max()
        assert np.all(np.abs(terms.sum(axis=1)) <= roundoff)
    # a row whose grid bracket holds no sign change searches a wider one
    assert np.all(evals[held] <= max_evals(steps[held]))
    return evals, steps


def perfbench_spec():
    """The operation lists of perfbench, the repository's benchmark."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"
    loader = importlib.util.spec_from_file_location("perfbench_spec", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


@pytest.mark.parametrize("rows", ["sas", "duplicates", "outliers"])
@pytest.mark.parametrize("K", [1e-12, 1.0, 1e4])
@pytest.mark.parametrize("n", [2, 5, 10, 50, 200])
def test_myriad_scan_brackets_match_sum_of_logs(n, K, rows):
    x = sample_sas(1.5, 1.0, (100 if n <= 10 else 20, n), seed=[31, n])
    if rows == "duplicates":
        x[:, 1] = x[:, 0]
        x[::2] = np.round(x[::2], 1)
    elif rows == "outliers":
        rng = np.random.default_rng([32, n])
        x[:, -1] = rng.choice([-1.0, 1.0], len(x)) * 10.0 ** rng.uniform(0.0, 150.0, len(x))
    pad, scan, _ = estimator_parts(myriad_estimate, K)
    ra, rb, grid, vals, absvals = reference_bracket(x, K)
    # the products of a block are sized by its widest row: in blocks and
    # one row at a time
    by_row = np.concatenate([estimate._bracket(row[None], pad, scan) for row in x], axis=1)
    for a, b in [estimate._bracket(x, pad, scan), by_row]:
        # The scans round differently, so they can pick different grid
        # points only where the reference's values of both tie to within
        # that roundoff: symmetric pairs of minima (n = 2), and objectives
        # flat across grid points (K = 1e4).
        for i in np.flatnonzero((a != ra) | (b != rb)):
            g = grid[i]
            inside = g[(g > a[i]) & (g < b[i])]
            best = inside[0] if inside.size else (a[i] if a[i] == g[0] else b[i])
            pick = np.flatnonzero(g == best)[0]
            tie = 4 * n * np.finfo(float).eps * absvals[i, pick]
            assert vals[i, pick] - vals[i].min() <= tie, (n, K, x[i])


def test_workload_brackets_and_refinement():
    # the n > 1 runs of perfbench's estimator-mc workload and their fixed
    # check sets: every myriad bracket is the sum-of-logs scan's, bit for
    # bit, and no row takes more than half the slope evaluations that
    # bisection did
    spec = perfbench_spec()
    for op in spec.workload("estimator-mc", 1):
        if op["kind"] != "estimator" or op["n"] == 1:
            continue
        run = sample_sas(op["alpha"], op["gamma"], (op["trials"], op["n"]), seed=op["seed"])
        check = np.asarray(op["check_samples"])
        if op["estimator"] == "myriad":
            pad, scan, dloss = estimator_parts(myriad_estimate, op["K"])
            for x in (run, check):
                a, b = estimate._bracket(x, pad, scan)
                ra, rb = reference_bracket(x, op["K"])[:2]
                np.testing.assert_array_equal(a, ra)
                np.testing.assert_array_equal(b, rb)
        else:
            pad, scan, dloss = estimator_parts(ml_location_estimate, op["alpha"], op["gamma"])
            run = run[:20]
        for x in (run[:200], check):
            evals, steps = check_refinement(x, pad, scan, dloss, lambda steps: steps // 2)
            assert evals.mean() < steps.mean() / 3


@given(
    x=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=30),
    log_k=st.floats(-12.0, 4.0),
)
@settings(max_examples=60, deadline=None)
def test_refinement_on_drawn_rows(x, log_k):
    # at least every other step halves the bracket: at most twice the
    # bisection's steps and 4 more (regula falsi crawls where K is far
    # below the sample spacing and the slope jumps by about 1/K across a
    # sample)
    pad, scan, dloss = estimator_parts(myriad_estimate, 10.0**log_k)
    check_refinement(np.array([x]), pad, scan, dloss, lambda steps: 2 * steps + 4)


def test_pole_like_slopes_take_at_most_twice_the_bisection():
    # with K far below the sample spacing the slope jumps by about 1/K
    # across each sample, where regula falsi crawls; the width budget
    # still halves the bracket at least every other step
    x = sample_sas(1.5, 1.0, (100, 5), seed=35)
    pad, scan, dloss = estimator_parts(myriad_estimate, 1e-12)
    check_refinement(x, pad, scan, dloss, lambda steps: 2 * steps + 4)


@pytest.mark.parametrize("alpha", [1.2, 1.8])
def test_ml_refinement_against_bisection(alpha):
    x = sample_sas(alpha, 1.0, (30, 7), seed=33)
    pad, scan, dloss = estimator_parts(ml_location_estimate, alpha, 1.0)
    check_refinement(x, pad, scan, dloss, lambda steps: steps)


def test_flat_objective_searches_past_the_grid_pick():
    # K far above the sample spread flattens the objective below the
    # roundoff of the grid scan, whose argmin then can miss the basin:
    # the refinement still ends on a sign change of the slope, the
    # minimizer of a convex objective
    x = sample_sas(1.5, 1.0, (40, 200), seed=34)
    pad, scan, dloss = estimator_parts(myriad_estimate, 1e4)
    a0, b0 = estimate._bracket(x, pad, scan)
    missed = (dloss(x - a0[:, None]).sum(axis=1) > 0) | (dloss(x - b0[:, None]).sum(axis=1) < 0)
    assert missed.any()
    check_refinement(x, pad, scan, dloss, lambda steps: 2 * steps + 4)


def test_outlier_gap_bracket_converges():
    # two samples 1e150 apart: the grid bracket is 3e148 wide and takes
    # 500 halvings, where 60 steps left an estimate of 1e130
    theta = myriad_estimate(np.array([0.0, 1e150]), 1.0)
    assert abs(theta) < 1e-10 or abs(theta - 1e150) < 1e140
