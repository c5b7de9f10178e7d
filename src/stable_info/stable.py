"""Univariate symmetric alpha-stable engine.

Densities come from Fourier inversion of the characteristic function on
a uniform grid.  The characteristic function is real and even, so one
real inverse FFT (irfft) of its values at the non-negative frequencies
does the inversion.  The FFT returns the periodized density: on [-L, L)
it holds p(x) plus every wrap-around image p(x + 2Lm), m != 0.  For
alpha < 2 the images are described by the asymptotic tail series
sum_k c_k |x|^(-s_k), and the sum of each term over all images has a
closed form in the Hurwitz zeta function,

    sum_{m>=1} |x +- 2Lm|^(-s) = (2L)^(-s) zeta(s, 1 +- x/2L),

which is subtracted exactly.  The image sum is even in x, so it is
evaluated on one half of the grid and mirrored.  After that the grid is
accurate to roughly 1e-8 pointwise and the same series describes the
law beyond the grid.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Chebyshev
from scipy.special import zeta

from .gridded import GriddedDensity, GridSpec, TailLaw
from .specfun import gamma_fn

__all__ = [
    "StableParams",
    "tail_constant_k1",
    "reference_gamma",
    "pdf_grid_sas",
    "sas_density",
    "logpdf_sas",
    "sample_sas",
    "reference_entropy",
]

# number of series terms used for tails and alias removal; the series
# converges for alpha < 1 and is asymptotic above, but at the tail
# handoff radius (tens of gamma and beyond) ten terms are still well
# inside the decreasing regime for every alpha in (0, 2)
_TAIL_TERMS = 10
# degree of the Chebyshev interpolant of the image sum on [-L, L]; the
# sum is analytic there with its nearest singularities at +-2L, so 32
# carries it to roundoff, about 1e-14 of its size
_ALIAS_DEGREE = 32


@dataclass(frozen=True)
class StableParams:
    """Parameters (alpha, gamma) of a symmetric alpha-stable law."""

    alpha: float
    gamma: float = 1.0

    def __post_init__(self):
        if not 0 < self.alpha <= 2:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")

    @classmethod
    def symmetric(cls, alpha: float, gamma: float) -> "StableParams":
        return cls(alpha=alpha, gamma=gamma)


def reference_gamma(alpha: float) -> float:
    """Scale (1/alpha)^(1/alpha) of the unit-power reference law."""
    return (1.0 / alpha) ** (1.0 / alpha)


def tail_constant_k1(alpha: float, d: int) -> float:
    """Isotropic stable tail constant

    k1 = 2^alpha (sin(pi alpha/2)/(pi alpha/2))
         Gamma((2+alpha)/2) Gamma((d+alpha)/2) / Gamma(d/2)
    """
    if not 0 < alpha < 2:
        raise ValueError(f"tail constant defined for alpha in (0, 2), got {alpha}")
    if d < 1:
        raise ValueError("d must be a positive integer")
    half = math.pi * alpha / 2.0
    return (
        2.0**alpha
        * (math.sin(half) / half)
        * gamma_fn((2.0 + alpha) / 2.0)
        * gamma_fn((d + alpha) / 2.0)
        / gamma_fn(d / 2.0)
    )


def _series_coeffs(alpha: float, gamma: float, k: int = _TAIL_TERMS) -> np.ndarray:
    """Coefficients c_k of the asymptotic expansion
    p(x) ~ sum_k c_k |x|^(-(k alpha + 1)) for a symmetric stable density."""
    ks = np.arange(1, k + 1)
    return (
        (1.0 / math.pi)
        * (-1.0) ** (ks + 1)
        * np.array([gamma_fn(j * alpha + 1.0) / gamma_fn(j + 1.0) for j in ks])
        * np.sin(ks * math.pi * alpha / 2.0)
        * gamma ** (ks * alpha)
    )


def _alias_images(x, alpha: float, gamma: float, L: float) -> np.ndarray:
    """Tail series summed over every wrap-around image x +- 2Lm, m >= 1,
    at points x in [-L, L]: sum_k c_k (2L)^(-s_k) [zeta(s_k, 1 + u) +
    zeta(s_k, 1 - u)] with s_k = k alpha + 1 and u = x/2L, evaluated at
    the Chebyshev nodes only and interpolated from there.

    The sum is even, so only the even coefficients of its interpolant
    are kept, and T_2k(t) = T_k(2t^2 - 1) turns them into a series of
    half the degree in 2(x/L)^2 - 1."""
    c = _series_coeffs(alpha, gamma)
    s = np.arange(1, _TAIL_TERMS + 1) * alpha + 1.0
    weights = c * (2.0 * L) ** (-s)

    def image_sum(t):
        u = t[:, None] / 2.0
        return (zeta(s, 1.0 + u) + zeta(s, 1.0 - u)) @ weights

    even = Chebyshev(Chebyshev.interpolate(image_sum, _ALIAS_DEGREE).coef[::2])
    return even(2.0 * (x / L) ** 2 - 1.0)


def _tail_law(alpha: float, gamma: float) -> TailLaw:
    c = _series_coeffs(alpha, gamma)
    extra = tuple((i * alpha, float(ci)) for i, ci in enumerate(c[1:], start=2))
    return TailLaw(exponent=alpha, coefficient=float(c[0]), extra=extra)


def pdf_grid_sas(alpha: float, gamma: float, grid: GridSpec) -> GriddedDensity:
    """Symmetric stable density on a grid by FFT inversion of the
    characteristic function.

    The characteristic function is sampled at the non-negative
    frequencies and inverted by one size-n irfft.  When the grid spacing
    leaves characteristic-function mass beyond the Nyquist frequency,
    the spectrum is sampled on a grid `stride` times finer and folded
    onto the n requested frequencies (the fine spectrum summed over
    frequencies that differ by multiples of n/h); this is exact, since
    keeping every stride-th point of the fine inversion is the same
    aliasing.

    For alpha < 2 the wrap-around images the FFT folds onto the grid are
    removed exactly: each term of the tail series, summed over all
    images, is a pair of Hurwitz zeta values (see the module docstring),
    interpolated from 33 Chebyshev nodes and evaluated on the half grid
    x <= 0, which the evenness of the sum mirrors onto x > 0."""
    if not 0 < alpha <= 2:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if alpha < 0.3:
        warnings.warn(
            f"alpha={alpha} < 0.3: grid densities become unreliable this far "
            "into the heavy-tail regime",
            stacklevel=2,
        )
    h = grid.h
    x = grid.points()
    if alpha == 2:
        # closed form N(0, 2 gamma^2); the FFT route matches it to
        # machine precision but leaves roundoff noise in the far tail
        var = 2.0 * gamma**2
        p = np.exp(-(x**2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
        return GriddedDensity(float(x[0]), h, p, None).normalize()
    # refine the spectrum (same extent, more points) until the
    # characteristic function has decayed below ~2e-12 at the Nyquist
    # edge of the fine grid
    stride = 1
    while (gamma * math.pi / (h / stride)) ** alpha < 27.0:
        stride *= 2
        if grid.n * stride > 2**22:
            raise ArithmeticError(
                f"S(alpha={alpha}, gamma={gamma:g}) cannot be realized at grid "
                f"spacing {h:g}: its characteristic function keeps mass beyond "
                "the Nyquist frequency even at the refinement cap of 2^22 points"
            )
    n = grid.n
    w = 2.0 * math.pi * np.fft.rfftfreq(n * stride, d=h / stride)
    phi = np.exp(-(gamma**alpha) * w**alpha)
    if stride > 1:
        # the full spectrum in fftfreq order (phi is even), folded
        full = np.concatenate([phi, phi[-2:0:-1]])
        phi = full.reshape(stride, n).sum(axis=0)[: n // 2 + 1]
    p = np.fft.fftshift(np.fft.irfft(phi, n)) / h
    # x[: n//2 + 1] runs from -L to 0 and holds every |x| of the grid
    images = _alias_images(x[: n // 2 + 1], alpha, gamma, grid.half_extent)
    p -= np.concatenate([images, images[-2:0:-1]])
    out = GriddedDensity(float(x[0]), h, np.clip(p, 0.0, None), _tail_law(alpha, gamma))
    return out.normalize()


def sas_density(alpha: float, gamma: float) -> GriddedDensity:
    """Density of S(alpha, gamma) on its default grid, shared through
    the realization memo of density.realize (read-only values)."""
    # density builds its laws on this module, so it is imported here
    from .density import SaS, realize

    return realize(SaS(alpha, gamma))


def logpdf_sas(alpha: float, gamma: float, x):
    """Log-density at arbitrary points: cubic interpolation on the
    cached grid inside its accurate region, tail series outside."""
    if alpha == 2:
        # N(0, 2 gamma^2)
        var = 2.0 * gamma**2
        xa = np.asarray(x, dtype=float)
        out = -0.5 * np.log(2.0 * math.pi * var) - xa**2 / (2.0 * var)
        return float(out) if out.ndim == 0 else out
    return sas_density(alpha, gamma).logpdf(x)


def sample_sas(alpha: float, gamma: float, n, seed) -> np.ndarray:
    """I.i.d. draws from S(alpha, gamma), Chambers-Mallows-Stuck.

    n is a count or an array shape.  One default_rng(seed) draws every
    uniform first, then every exponential, both in C order, so a shape
    (T, m) gives the draws of T*m reshaped, bit for bit."""
    if np.any(np.asarray(n) < 1):
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=n)
    w = rng.standard_exponential(size=n)
    if alpha == 1:
        return gamma * np.tan(u)
    s = (
        np.sin(alpha * u)
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos(u - alpha * u) / w) ** ((1.0 - alpha) / alpha)
    )
    return gamma * s


@functools.lru_cache(maxsize=32)
def reference_entropy(alpha: float) -> float:
    """Entropy h of the reference law S(alpha, (1/alpha)^(1/alpha))."""
    if alpha == 2:
        return 0.5 * math.log(2.0 * math.pi * math.e)
    if alpha == 1:
        return math.log(4.0 * math.pi)
    return sas_density(alpha, reference_gamma(alpha)).entropy()
