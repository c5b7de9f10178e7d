import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stable_info.specfun import (
    EULER_GAMMA,
    _exact_product,
    digamma,
    gamma_fn,
    gauss_2f1,
    hurwitz_zeta,
    kappa_alpha,
)


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

    def test_exact_at_small_integers(self):
        # psi(n) = -gamma_e + sum_{k<n} 1/k, so kappa_2 is exactly 1
        assert digamma(1.0) == -EULER_GAMMA
        assert digamma(2.0) + EULER_GAMMA == 1.0
        for n in range(3, 10):
            assert digamma(float(n)) == math.fsum(1.0 / k for k in range(1, n)) - EULER_GAMMA

    def test_against_mpmath(self):
        # absolute error near the zero at 1.4616, relative beyond 1; the
        # worst measured over this sweep is 3.3e-16
        x = np.concatenate([np.geomspace(1e-3, 1e3, 400), np.linspace(0.05, 2.0, 400)])
        for xi in x:
            expect = float(mpmath.digamma(mpmath.mpf(xi)))
            assert abs(digamma(float(xi)) - expect) <= 1e-15 * max(1.0, abs(expect))

    def test_exact_product(self):
        # the four partial products of Dekker's split sum to a * b exactly
        rng = np.random.default_rng(36)
        for a, b in rng.uniform(-3.0, 3.0, (300, 2)) * 10.0 ** rng.integers(-20, 20, (300, 2)):
            assert sum(map(Fraction, _exact_product(a, b))) == Fraction(a) * Fraction(b)

    def test_within_two_ulp_below_two(self):
        # the Taylor series about the root x0 keeps psi's relative accuracy
        # where psi is small: densely around x0, and in the last ulps
        # about it
        x = np.concatenate(
            [
                np.linspace(0.05, 2.0, 1951),
                np.linspace(1.40, 1.52, 1201),
                1.4616321449683622 + np.arange(-40, 41) * 2.0**-52,
            ]
        )
        with mpmath.workdps(30):
            for xi in map(float, x):
                expect = mpmath.digamma(mpmath.mpf(xi))
                assert abs(mpmath.mpf(digamma(xi)) - expect) <= 2 * math.ulp(float(expect)), xi


class TestGauss2F1:
    def test_trivial_cases(self):
        assert gauss_2f1(0.5, 0.5, 1.5, 0.0) == pytest.approx(1.0, rel=1e-15)
        # 2F1(1, 1; 2; z) = -ln(1-z)/z
        for z in (-0.37, -50.0):
            assert gauss_2f1(1.0, 1.0, 2.0, z) == pytest.approx(-math.log(1.0 - z) / z, rel=1e-15)

    @pytest.mark.parametrize(
        "a,b,c,z",
        [
            (0.8, 0.8, 1.8, -2.0),
            (0.5, 0.5, 1.5, -10.0),
            (0.2, 0.2, 1.2, -0.9),
            (1.0, 1.0, 2.0, -50.0),
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
        # z/(z-1) lies within 1e-4 of 1 here, where the series in
        # 1/(1 - z) takes over
        expect = float(mpmath.hyp2f1(a, b, c, z))
        assert gauss_2f1(a, b, c, z) == pytest.approx(expect, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 1.0, -2.0, 0.5)
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 1.0, 2.0, 1.0)

    def test_other_shapes_refused(self):
        # only 2F1(b, b; b + 1; z) with b in (0, 1] and z <= 0 is taken
        for a, b, c, z in [
            (0.6, 0.9, 1.7, -0.4),
            (0.5, 0.5, 2.0, -1.0),
            (1.5, 1.5, 2.5, -1.0),
            (0.0, 0.0, 1.0, -1.0),
            (0.6, 0.6, 1.6, 0.4),
            (0.6, 0.6, 1.6, math.nan),
        ]:
            with pytest.raises(ValueError):
                gauss_2f1(a, b, c, z)

    @pytest.mark.parametrize("b", [0.05, 0.2, 0.5, 0.8, 1.0])
    def test_oracle_sweep(self, b):
        # t from 1e-10 to 1e15, densely across the switch of series at
        # t = 1; the worst measured is 7.1e-16
        ts = np.concatenate([np.geomspace(1e-10, 1e15, 200), np.linspace(0.9, 1.1, 41)])
        for t in ts:
            expect = float(mpmath.hyp2f1(b, b, b + 1.0, -mpmath.mpf(t)))
            assert gauss_2f1(b, b, b + 1.0, -float(t)) == pytest.approx(expect, rel=1e-14, abs=0)

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


class TestHurwitzZeta:
    def test_against_mpmath(self):
        # the range the alias images read: s = 1 + k alpha and q = 1 -+ u,
        # u in [0, 1/2]; the worst measured is 6.2e-16, scipy's 7.0e-16
        s = np.linspace(1.4, 41.0, 25)
        q = np.linspace(0.5, 1.5, 21)
        z = hurwitz_zeta(s, q)
        assert z.shape == (q.size, s.size)
        for i, qi in enumerate(q):
            for j, sj in enumerate(s):
                expect = mpmath.zeta(mpmath.mpf(sj), mpmath.mpf(qi))
                assert abs(float((z[i, j] - expect) / expect)) <= 2e-15


class TestKappa:
    def test_alpha2_is_one(self):
        assert kappa_alpha(2.0) == 1.0

    def test_value_at_1_8(self):
        # e^{(alpha-1)(psi(alpha)+gamma_e)-1} at alpha = 1.8
        expect = math.exp(0.8 * (digamma(1.8) + EULER_GAMMA) - 1.0)
        assert kappa_alpha(1.8) == pytest.approx(expect, rel=1e-13)
        assert kappa_alpha(1.8) == pytest.approx(0.7333, abs=5e-4)

    def test_correctly_rounded(self):
        # psi(1.5) = 2 - gamma_e - 2 ln 2, so kappa_1.5 = exp(-ln 2) = 1/2
        assert kappa_alpha(1.5) == 0.5
        with mpmath.workdps(30):
            for a in (1.2, 1.6, 1.8):
                expect = mpmath.exp((a - 1) * (mpmath.digamma(a) + mpmath.euler) - 1)
                assert kappa_alpha(a) == float(expect)

    def test_below_one(self):
        for a in (1.1, 1.3, 1.5, 1.7, 1.9):
            assert 0.0 < kappa_alpha(a) < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            kappa_alpha(1.0)
        with pytest.raises(ValueError):
            kappa_alpha(2.1)
