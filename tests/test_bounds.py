import math

import mpmath
import pytest

from stable_info.bounds import (
    entropy_power_alpha,
    entropy_sum_upper,
    gfii_check,
    giie_mix_products,
    giie_product,
)
from stable_info.density import Gaussian, Laplace, SaS, Scaled, Sum, Uniform, realize
from stable_info.jalpha import jalpha_of_law
from stable_info.specfun import kappa_alpha
from stable_info.stable import reference_entropy

SLACK_TOL = 1e-3


class TestEntropyPower:
    def test_reference_is_one(self):
        for a in (1.2, 1.6, 2.0):
            n = entropy_power_alpha(reference_entropy(a), a)
            assert n == pytest.approx(1.0, rel=1e-12)

    def test_alpha2_classical(self):
        # h of N(0, sigma^2) gives sigma^2 with the unit-power reference
        s2 = 2.7
        h = 0.5 * math.log(2 * math.pi * math.e * s2)
        n = entropy_power_alpha(h, 2.0)
        assert n == pytest.approx(s2, rel=1e-12)

    def test_shift_scales_exponentially(self):
        a = 1.8
        n = entropy_power_alpha(reference_entropy(a) + math.log(2.0), a)
        assert n == pytest.approx(2.0**a, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            entropy_power_alpha(1.0, 1.0)


class TestGFII:
    def test_gaussian_alpha2_equality(self):
        rep = gfii_check(Gaussian(1.0), Gaussian(2.0), 2.0)
        # classical FII equality case: 1/J(X+Y) = 1/J(X) + 1/J(Y)
        assert rep.lhs == pytest.approx(rep.rhs, rel=0.01)

    @pytest.mark.parametrize("s1, s2", [(1.0, 1.0), (1.0, 2.0), (0.3, 5.0)])
    def test_gaussian_alpha2_equality_tight(self, s1, s2):
        # the same identity, held to what the grid actually delivers
        rep = gfii_check(Gaussian(s1), Gaussian(s2), 2.0)
        assert abs(rep.slack) <= 1e-7 * rep.rhs

    def test_stable_pair_matches_closed_form_slack(self):
        a, g1, g2 = 1.5, 1.0, 1.5
        rep = gfii_check(SaS(a, g1), SaS(a, g2), a)
        e = 1.0 / (1.0 - a)
        closed_lhs = (a * (g1**a + g2**a)) ** (-e)
        closed_rhs = (a * g1**a) ** (-e) + (a * g2**a) ** (-e)
        closed_slack = closed_lhs - closed_rhs
        assert closed_slack > 0.0
        assert rep.slack == pytest.approx(closed_slack, rel=0.02)

    def test_gaussian_plus_stable(self):
        rep = gfii_check(Gaussian(1.0), SaS(1.8, 1.0), 1.8)
        assert rep.slack >= -SLACK_TOL

    def test_domain(self):
        with pytest.raises(ValueError):
            gfii_check(Gaussian(1.0), Gaussian(1.0), 1.0)


class TestEntropySumUpper:
    def test_alpha2_reduction(self):
        # ln(1+t) = t 2F1(1,1;2;-t) turns the bound into
        # h + (1/2) ln(1 + 2 gamma^2 J)
        h, J, g = 1.41, 0.7, 0.9
        val = entropy_sum_upper(h, J, 2.0, g)
        assert val == pytest.approx(h + 0.5 * math.log(1.0 + 2.0 * g**2 * J), rel=1e-12)

    def test_zero_information_collapses(self):
        assert entropy_sum_upper(1.0, 0.0, 1.8, 1.0) == 1.0

    def test_large_argument_is_finite(self):
        # -t is about -1.6e6 in 2F1 here
        assert math.isfinite(entropy_sum_upper(1.0, 5.0, 1.2, 2.0))

    def test_near_cauchy_argument_is_finite(self):
        # -t is about -2.5e15 in 2F1 here, where scipy's hyp2f1 overflows
        a, g, J = 1.05, 10.0, 0.5
        t = (a * g**a * J) ** (1.0 / (a - 1.0))
        expect = 1.0 + g**a * J * float(mpmath.hyp2f1(a - 1.0, a - 1.0, a, -t))
        assert entropy_sum_upper(1.0, J, a, g) == pytest.approx(expect, rel=1e-14)

    def test_monotone_in_information(self):
        vals = [entropy_sum_upper(0.0, j, 1.8, 1.0) for j in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))

    def test_bounds_actual_sum_entropy(self):
        alpha, gz = 1.8, 0.8
        base = Laplace(1.0)
        jx = jalpha_of_law(base, alpha).value
        hx = realize(base).entropy()
        bound = entropy_sum_upper(hx, jx, alpha, gz)
        h_sum = realize(Sum(base, SaS(alpha, gz))).entropy()
        assert bound - h_sum >= -SLACK_TOL

    def test_gaussian_alpha2_near_tight(self):
        # for Gaussian X the alpha=2 bound is the exact sum entropy
        sx, gz = 1.0, 0.7
        hx = 0.5 * math.log(2 * math.pi * math.e * sx**2)
        bound = entropy_sum_upper(hx, 1.0 / sx**2, 2.0, gz)
        exact = 0.5 * math.log(2 * math.pi * math.e * (sx**2 + 2 * gz**2))
        assert bound == pytest.approx(exact, rel=1e-10)


class TestGIIE:
    @pytest.mark.parametrize("alpha", [1.2, 1.4, 1.6, 1.8, 2.0])
    def test_matrix_holds(self, alpha):
        laws = [Gaussian(1.0), Laplace(1.0), Uniform(1.0), SaS(0.8, 1.0), SaS(1.5, 1.0)]
        for law in laws:
            rep = giie_product(law, alpha)
            assert rep.slack >= -SLACK_TOL, f"{law} at alpha={alpha}"

    def test_gaussian_alpha2_equality(self):
        rep = giie_product(Gaussian(1.0), 2.0)
        assert rep.lhs == pytest.approx(1.0, rel=0.01)
        assert rep.rhs == 1.0

    def test_gaussian_alpha2_equality_tight(self):
        # N_2 J_2 = 1 for a Gaussian, held to roundoff
        assert giie_product(Gaussian(1.0), 2.0).lhs == pytest.approx(1.0, rel=1e-11)

    @pytest.mark.parametrize("c", [0.5, 4.0])
    def test_scale_invariance(self, c):
        a = 1.6
        base = giie_product(Laplace(1.0), a).lhs
        scaled = giie_product(Scaled(Laplace(1.0), c), a).lhs
        assert scaled == pytest.approx(base, rel=0.01)

    def test_consequence_power_information_bound(self):
        # J_alpha(X) >= kappa_alpha d / P_alpha(X)^alpha
        from stable_info.alphapower import alpha_power

        a = 1.8
        for law in (Laplace(1.0), SaS(1.5, 1.0)):
            j = jalpha_of_law(law, a).value
            p = alpha_power(law, a).value
            assert j >= kappa_alpha(a) / p**a - SLACK_TOL


class TestMixSweep:
    def test_products_and_shape(self):
        pairs = giie_mix_products([0.0, 2.0, 4.0])
        assert [s for s, _ in pairs] == [0.0, 2.0, 4.0]
        k18 = kappa_alpha(1.8)
        assert all(p >= k18 - SLACK_TOL for _, p in pairs)
        # sigma = 0 is the pure reference stable law: product is the
        # stable value, strictly above the mixed minimum
        assert pairs[0][1] > pairs[1][1]
