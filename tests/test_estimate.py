import math

import numpy as np
import pytest

from stable_info.estimate import (
    ESTIMATORS,
    EstimatorRun,
    crb_general,
    crb_stable,
    ml_location_estimate,
    myriad_estimate,
    run_estimator,
)
from stable_info.jalpha import jalpha_closed_stable
from stable_info.specfun import kappa_alpha
from stable_info.stable import StableParams


class TestCRB:
    def test_classical_alpha2(self):
        # J = 1/sigma^2 gives the RMS bound sigma
        assert crb_general(1.0 / 1.7**2, 2.0) == pytest.approx(1.7, rel=1e-13)

    def test_stable_corollary_identity(self):
        for a, g in ((1.2, 0.5), (1.5, 1.0), (1.8, 2.0)):
            direct = crb_stable(a, g)
            via_j = crb_general(jalpha_closed_stable(a, g), a)
            assert direct == pytest.approx(via_j, rel=1e-13)

    def test_alpha2_gamma_consistency(self):
        sigma = 1.4
        assert crb_stable(2.0, sigma / math.sqrt(2.0)) == pytest.approx(sigma, rel=1e-13)

    def test_value_at_1_8(self):
        assert crb_stable(1.8, 1.0) == pytest.approx(
            (1.8 * kappa_alpha(1.8)) ** (1.0 / 1.8), rel=1e-13
        )
        # (1.8 * kappa_alpha(1.8))^(1/1.8) with kappa_1.8 = 0.73328
        assert crb_stable(1.8, 1.0) == pytest.approx(1.1667, abs=2e-3)

    def test_homogeneity_in_information(self):
        a = 1.6
        b1 = crb_general(1.0, a)
        b2 = crb_general(2.0, a)
        assert b2 == pytest.approx(2.0 ** (-1.0 / a) * b1, rel=1e-13)

    def test_bound_below_ml_error_power(self):
        # kappa_alpha <= 1 makes the bound no larger than alpha^(1/a) g
        for a in (1.1, 1.4, 1.7, 2.0):
            assert crb_stable(a, 1.0) <= a ** (1.0 / a) + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            crb_general(1.0, 1.0)
        with pytest.raises(ValueError):
            crb_general(0.0, 1.5)


class TestMyriad:
    def test_single_sample(self):
        assert myriad_estimate([4.2], K=1.0) == 4.2

    def test_symmetric_pair_large_k(self):
        # with K >= a the objective for {-a, a} is unimodal with minimum at 0
        assert myriad_estimate([-2.0, 2.0], K=2.5) == pytest.approx(0.0, abs=1e-8)

    def test_symmetric_pair_small_k_is_bimodal(self):
        # with K < a the minima sit at +/- sqrt(a^2 - K^2), not at 0
        a, K = 2.0, 1.0
        est = myriad_estimate([-a, a], K=K)
        assert abs(est) == pytest.approx(math.sqrt(a**2 - K**2), abs=1e-6)

    def test_outlier_rejection(self):
        # brute-force oracle: minimize on a fine grid over [-5, 105]
        samples = np.array([0.0, 0.0, 0.0, 100.0])
        K = 1.0
        grid = np.arange(-5.0, 105.0, 1e-3)
        obj = np.array(
            [np.sum(np.log(K**2 + (samples - t) ** 2)) for t in grid]
        )
        brute = grid[int(np.argmin(obj))]
        est = myriad_estimate(samples, K)
        assert abs(brute) < 0.1  # the oracle itself rejects the outlier
        assert est == pytest.approx(brute, abs=2e-3)

    def test_mean_pulled_by_outlier(self):
        samples = [0.0, 0.0, 0.0, 100.0]
        assert abs(myriad_estimate(samples, 1.0)) < 1.0 < np.mean(samples)

    def test_validation(self):
        with pytest.raises(ValueError):
            myriad_estimate([], 1.0)
        with pytest.raises(ValueError):
            myriad_estimate([1.0], 0.0)


class TestML:
    def test_recovers_location_on_clean_cauchy(self):
        rng = np.random.default_rng(0)
        x = rng.standard_cauchy(501) * 0.5 + 3.0
        est = ml_location_estimate(x, 1.0, 0.5)
        assert est == pytest.approx(3.0, abs=0.1)

    def test_matches_myriad_for_cauchy_model(self):
        # ML under Cauchy(gamma) noise is the myriad with K = gamma
        rng = np.random.default_rng(1)
        x = rng.standard_cauchy(201) + 1.0
        assert ml_location_estimate(x, 1.0, 1.0) == pytest.approx(
            myriad_estimate(x, 1.0), abs=1e-6
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ml_location_estimate([], 1.5, 1.0)
        # the noise law is checked before the one-sample shortcut
        with pytest.raises(ValueError):
            ml_location_estimate([1.0], 3.0, 1.0)
        with pytest.raises(ValueError):
            ml_location_estimate([[1.0], [2.0]], 1.5, -2.0)

    def test_outlier_past_the_tail_underflow(self):
        # the slope of ln p at 1e130 was 0/0, which steered the bisection
        far = ml_location_estimate([0.0, 0.3, 1e130], 1.5, 1.0)
        near = ml_location_estimate([0.0, 0.3, 1e100], 1.5, 1.0)
        assert far == pytest.approx(near, abs=1e-9)
        assert far == pytest.approx(0.15, abs=1e-9)


class TestRunEstimator:
    def test_seed_determinism(self):
        noise = StableParams.symmetric(1.5, 1.0)
        r1 = run_estimator(EstimatorRun("sample_median", 0.0, noise, 50, 11, seed=3))
        r2 = run_estimator(EstimatorRun("sample_median", 0.0, noise, 50, 11, seed=3))
        assert np.array_equal(r1.errors, r2.errors)

    @pytest.mark.parametrize("a", [1.2, 1.5, 1.8])
    def test_ml_identity_error_is_noise(self, a):
        # the 2% window is about 1.3 sigma of Monte Carlo noise at 1e4
        # trials, so the seed is fixed to keep the check deterministic
        noise = StableParams.symmetric(a, 1.0)
        r = run_estimator(EstimatorRun("ml_identity", 2.0, noise, 10_000, 1, seed=0))
        assert r.error_alpha_power == pytest.approx(a ** (1.0 / a), rel=0.02)
        assert r.error_alpha_power >= r.crb * 0.98

    def test_sample_mean_stable_averaging(self):
        # mean of n iid S(a, g) is S(a, g n^(1/a - 1))
        a, n = 1.5, 16
        noise = StableParams.symmetric(a, 1.0)
        r = run_estimator(EstimatorRun("sample_mean", 0.0, noise, 4000, n, seed=6))
        closed = a ** (1.0 / a) * n ** (1.0 / a - 1.0)
        assert r.error_alpha_power == pytest.approx(closed, rel=0.03)

    def test_median_beats_mean_under_heavy_noise(self):
        noise = StableParams.symmetric(1.2, 1.0)
        med = run_estimator(EstimatorRun("sample_median", 0.0, noise, 1000, 101, seed=7))
        mean = run_estimator(EstimatorRun("sample_mean", 0.0, noise, 1000, 101, seed=7))
        assert med.error_alpha_power < mean.error_alpha_power

    def test_unknown_estimator(self):
        noise = StableParams.symmetric(1.5, 1.0)
        with pytest.raises(ValueError):
            run_estimator(EstimatorRun("mode", 0.0, noise, 10, 1, seed=0))

    def test_estimator_names_exported(self):
        assert set(ESTIMATORS) == {"ml_identity", "sample_mean", "sample_median", "myriad"}
