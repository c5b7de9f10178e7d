import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stable_info.specfun import EULER_GAMMA, digamma, gamma_fn, gauss_2f1, kappa_alpha


class TestGamma:
    def test_known_values(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)

    @given(st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=200)
    def test_recurrence(self, x):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gamma_fn(0.0)
        with pytest.raises(ValueError):
            gamma_fn(-1.5)


class TestDigamma:
    def test_at_one(self):
        # psi(1) = -gamma_e
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-13)

    @given(st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=200)
    def test_recurrence(self, x):
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, abs=1e-10)

    def test_euler_gamma_constant(self):
        assert EULER_GAMMA == pytest.approx(float(mpmath.euler), abs=1e-16)


class TestGauss2F1:
    def test_trivial_cases(self):
        assert gauss_2f1(1.0, 2.0, 3.0, 0.0) == 1.0
        # 2F1(1, 1; 2; z) = -ln(1-z)/z
        z = 0.37
        assert gauss_2f1(1.0, 1.0, 2.0, z) == pytest.approx(
            -math.log(1.0 - z) / z, rel=1e-12
        )

    @pytest.mark.parametrize(
        "a,b,c,z",
        [
            (0.8, 0.8, 1.8, -2.0),
            (0.5, 0.5, 1.5, -10.0),
            (0.2, 0.2, 1.2, -0.9),
            (1.0, 1.0, 2.0, -50.0),
            (0.6, 0.9, 1.7, 0.4),
        ],
    )
    def test_against_mpmath(self, a, b, c, z):
        expect = float(mpmath.hyp2f1(a, b, c, z))
        assert gauss_2f1(a, b, c, z) == pytest.approx(expect, rel=1e-10)

    @pytest.mark.parametrize(
        "a,b,c,z",
        [
            (0.2, 0.2, 1.2, -1e4),
            (0.8, 0.8, 1.8, -1e4),
            (0.2, 0.2, 1.2, -1e6),
            (0.5, 0.5, 1.5, -1e6),
            (0.8, 0.8, 1.8, -1e6),
            (0.2, 0.2, 1.2, -1e10),
            (0.5, 0.5, 1.5, -1e12),
            (0.05, 0.05, 1.05, -1e14),
        ],
    )
    def test_large_negative_argument(self, a, b, c, z):
        # z/(z-1) lies within 1e-4 of 1 here, beyond a plain power series;
        # from |z| = 1e8 on, the 1/z expansion takes over from scipy
        expect = float(mpmath.hyp2f1(a, b, c, z))
        assert gauss_2f1(a, b, c, z) == pytest.approx(expect, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 1.0, -2.0, 0.5)
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 1.0, 2.0, 1.0)

    @given(
        st.floats(min_value=0.1, max_value=1.0),
        st.floats(min_value=-30.0, max_value=-0.01),
    )
    @settings(max_examples=100)
    def test_negative_argument_branch(self, am1, z):
        # the shape that the entropy-of-sum bound uses
        a = am1
        val = gauss_2f1(a, a, a + 1.0, z)
        expect = float(mpmath.hyp2f1(a, a, a + 1.0, z))
        assert val == pytest.approx(expect, rel=1e-8)


class TestKappa:
    def test_alpha2_is_one(self):
        assert abs(kappa_alpha(2.0) - 1.0) <= 1e-10

    def test_value_at_1_8(self):
        # e^{(alpha-1)(psi(alpha)+gamma_e)-1} at alpha = 1.8
        expect = math.exp(0.8 * (digamma(1.8) + EULER_GAMMA) - 1.0)
        assert kappa_alpha(1.8) == pytest.approx(expect, rel=1e-13)
        assert kappa_alpha(1.8) == pytest.approx(0.7333, abs=5e-4)

    def test_below_one(self):
        for a in (1.1, 1.3, 1.5, 1.7, 1.9):
            assert 0.0 < kappa_alpha(a) < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            kappa_alpha(1.0)
        with pytest.raises(ValueError):
            kappa_alpha(2.1)
