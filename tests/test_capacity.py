import math

import pytest

from stable_info import stable
from stable_info.alphapower import alpha_power
from stable_info.capacity import (
    ChannelSpec,
    capacity_stable,
    cost_function,
    noise_alpha_power,
    optimal_input_scale,
)
from stable_info.density import Empirical
from stable_info.stable import reference_entropy, sample_sas


class TestChannelSpec:
    def test_amplitude_below_noise_power_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec(1.8, 1.0, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelSpec(2.5, 1.0, 3.0)
        with pytest.raises(ValueError):
            ChannelSpec(1.8, -1.0, 3.0)
        with pytest.raises(ValueError):
            ChannelSpec(1.8, 1.0, 3.0, d=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        for args in ((bad, 1.0, 3.0), (1.8, bad, 3.0), (1.8, 1.0, bad)):
            with pytest.raises(ValueError):
                ChannelSpec(*args)


class TestCapacity:
    def test_awgn_reduction(self):
        # noise N(0, sigma^2) = S(2, sigma/sqrt(2)); signal power P with
        # output cap A = sqrt(P + sigma^2) gives (1/2) ln(1 + P/sigma^2)
        sigma, P = 1.3, 3.7
        spec = ChannelSpec(2.0, sigma / math.sqrt(2.0), math.sqrt(P + sigma**2))
        assert capacity_stable(spec) == pytest.approx(
            0.5 * math.log(1.0 + P / sigma**2), rel=1e-12
        )

    def test_zero_capacity_at_cap(self):
        spec = ChannelSpec(1.8, 1.0, noise_alpha_power(1.8, 1.0))
        assert capacity_stable(spec) == pytest.approx(0.0, abs=1e-12)
        assert optimal_input_scale(spec) == 0.0

    def test_dimension_scales_linearly(self):
        s1 = ChannelSpec(1.8, 1.0, 3.0, d=1)
        s3 = ChannelSpec(1.8, 1.0, 3.0, d=3)
        assert capacity_stable(s3) == pytest.approx(3.0 * capacity_stable(s1), rel=1e-12)


class TestOptimalInput:
    def test_power_combination(self):
        spec = ChannelSpec(1.8, 1.0, 3.0)
        gx = optimal_input_scale(spec)
        p_x = noise_alpha_power(spec.alpha, gx)
        p_n = noise_alpha_power(spec.alpha, spec.gamma_N)
        combined = (p_x**spec.alpha + p_n**spec.alpha) ** (1.0 / spec.alpha)
        assert combined == pytest.approx(spec.A, rel=1e-12)

    def test_end_to_end_output_power(self):
        # sample the optimal input plus noise; the alpha-power of the
        # output must sit at the cap
        spec = ChannelSpec(1.8, 1.0, 3.0)
        gx = optimal_input_scale(spec)
        x = sample_sas(spec.alpha, gx, 100_000, seed=[11, 0])
        n = sample_sas(spec.alpha, spec.gamma_N, 100_000, seed=[11, 1])
        p = alpha_power(Empirical(tuple(x + n)), spec.alpha)
        assert p.value == pytest.approx(spec.A, rel=0.01)


class TestCostFunction:
    def test_centered_value_is_reference_entropy(self):
        # C(0, P_alpha(N)) = -E[ln p_ref(N / P_alpha(N))] = g(P) at the
        # root, which is h(ref), on the alpha-power's own rule
        for alpha in (1.2, 1.5, 1.8):
            p_n = noise_alpha_power(alpha, 1.0)
            assert abs(cost_function(0.0, p_n, alpha, 1.0) - reference_entropy(alpha)) <= 1e-9

    @pytest.mark.parametrize("x", [300.0, 1e3, 1e4])
    def test_shifted_noise_matches_quadrature(self, x, log_loss_quad):
        # the inward tail of the noise shifted past its accurate radius
        # runs through the reference's peak; a global rule such as
        # Gauss-Laguerre in ln n does not resolve it
        alpha = 1.2
        p = noise_alpha_power(alpha, 1.0)

        def pdf(y):
            return math.exp(float(stable.logpdf_sas(alpha, 1.0, y - x)))

        want = log_loss_quad(pdf, alpha, p, [-1.0, 0.0, 1.0, x - 1.0, x, x + 1.0])
        assert cost_function(x, p, alpha, 1.0) == pytest.approx(want, abs=2e-5)

    def test_symmetric_in_x(self):
        alpha = 1.5
        p = noise_alpha_power(alpha, 1.0)
        assert cost_function(2.0, p, alpha, 1.0) == pytest.approx(
            cost_function(-2.0, p, alpha, 1.0), rel=1e-9
        )

    def test_logarithmic_growth_below_alpha2(self):
        # C(x) ~ (1 + alpha) ln|x| for large x when alpha < 2
        alpha = 1.8
        p = noise_alpha_power(alpha, 1.0)
        c1 = cost_function(1e3, p, alpha, 1.0)
        c2 = cost_function(1e4, p, alpha, 1.0)
        assert c2 - c1 == pytest.approx((1.0 + alpha) * math.log(10.0), rel=0.05)

    def test_quadratic_growth_at_alpha2(self):
        p = noise_alpha_power(2.0, 1.0)
        c1 = cost_function(10.0, p, 2.0, 1.0)
        c2 = cost_function(20.0, p, 2.0, 1.0)
        # -ln p_ref(x/P) ~ x^2/(2 var P^2): quadrupling
        assert (c2 / c1) == pytest.approx(4.0, rel=0.1)

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            cost_function(0.0, 0.0, 1.8, 1.0)
