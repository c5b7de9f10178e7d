"""Oracles that share nothing with stable_info: scipy and mpmath only.

The symmetric stable law S(alpha, gamma) has the characteristic
function exp(-|gamma w|^alpha), scipy's levy_stable with beta = 0 and
scale gamma.  Its density is read from levy_stable out to SERIES_FROM
gamma, and from Bergstrom's series beyond (Feller, vol. II, XVII.6),
where the series is exact to roundoff and levy_stable's integral loses
accuracy.  The entropy is the quad of -p ln p of that density: on
[0, SERIES_FROM gamma], then in t = ln x, where the series' decay like
|x|^(-1-alpha) ln x is exponential.  It agrees with the benchmark's
entropy oracle (levy_stable out to 200 gamma) to 1.3e-12 at alpha 0.4
and to 1e-14 from alpha 0.6 on.  Each entropy is cached for the
process.
"""

from __future__ import annotations

import functools
import math
import warnings

import mpmath
from scipy import integrate, stats

SERIES_FROM = 20.0
SERIES_TERMS = 10


def _series_pdf(x: float, alpha: float, gamma: float) -> float:
    """sum_k (-1)^(k+1) Gamma(k alpha + 1) / k! sin(k pi alpha / 2)
    (gamma / x)^(k alpha) / (pi x), for x > 0."""
    return sum(
        (-1) ** (k + 1)
        * math.gamma(k * alpha + 1.0)
        / math.factorial(k)
        * math.sin(k * math.pi * alpha / 2.0)
        * (gamma / x) ** (k * alpha)
        for k in range(1, SERIES_TERMS + 1)
    ) / (math.pi * x)


def stable_pdf(x: float, alpha: float, gamma: float) -> float:
    """Density of S(alpha, gamma) at x."""
    x = abs(x)
    if x > SERIES_FROM * gamma:
        return _series_pdf(x, alpha, gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return float(stats.levy_stable.pdf(x, alpha, 0.0, scale=gamma))


def pdf_at_zero(alpha: float, gamma: float) -> float:
    """Gamma(1 + 1/alpha) / (pi gamma), to 30 digits by mpmath."""
    return float(mpmath.gamma(1 + mpmath.mpf(1) / alpha) / (mpmath.pi * gamma))


def _quad(fn, lo: float, hi: float) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(fn, lo, hi, limit=200, epsabs=1e-10, epsrel=1e-10)[0]


def _plogp(p: float) -> float:
    return -p * math.log(p) if p > 0 else 0.0


@functools.lru_cache(maxsize=None)
def stable_entropy(alpha: float, gamma: float) -> float:
    """Differential entropy of S(alpha, gamma) in nats."""
    cut = SERIES_FROM * gamma
    core = _quad(lambda x: _plogp(stable_pdf(x, alpha, gamma)), 0.0, cut)
    tail = _quad(
        lambda t: _plogp(_series_pdf(math.exp(t), alpha, gamma)) * math.exp(t),
        math.log(cut),
        math.log(cut) + 100.0 / alpha,
    )
    return 2.0 * (core + tail)


def reference_entropy(alpha: float) -> float:
    """Entropy of the unit-power reference law S(alpha, (1/alpha)^(1/alpha))."""
    return stable_entropy(alpha, (1.0 / alpha) ** (1.0 / alpha))
