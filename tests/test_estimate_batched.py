"""Row-wise (batched) estimators and the one-draw Monte Carlo stream."""

import numpy as np
import pytest

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
