"""Univariate symmetric alpha-stable engine, with the FFT inverter of
characteristic functions that sums of laws share.

Densities come from Fourier inversion of the characteristic function on
a uniform grid.  The characteristic function is real and even, so one
real inverse FFT (irfft) of its values at the non-negative frequencies
does the inversion.  The FFT returns the periodized density: on [-L, L)
it holds p(x) plus every wrap-around image p(x + 2Lm), m != 0.  For a
law with a power tail the images follow its asymptotic tail series
sum_k c_k |x|^(-s_k) (tail_law), and the sum of each term over all
images has a closed form in the Hurwitz zeta function,

    sum_{m>=1} |x +- 2Lm|^(-s) = (2L)^(-s) zeta(s, 1 +- x/2L),

which is subtracted exactly.  The sum is even in x: zeta is taken at the
non-negative interpolation nodes, and the sum read on x <= 0 is taken off
both halves of the one density buffer.  The grid is then accurate to about
1e-8 pointwise and the same series describes the law beyond the grid.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebpts1, chebvander

from .gridded import GriddedDensity, GridSpec, TailLaw
from .specfun import gamma_fn, hurwitz_zeta

__all__ = [
    "StableParams",
    "tail_constant_k1",
    "reference_gamma",
    "cf_sas",
    "sas_series",
    "tail_law",
    "pdf_grid_cf",
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
# its nodes (chebpts1) and the transposed Vandermonde matrix of chebinterpolate
_ALIAS_NODES = chebpts1(_ALIAS_DEGREE + 1)
_ALIAS_VT = chebvander(_ALIAS_NODES, _ALIAS_DEGREE).T


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


def _exp(x) -> np.ndarray:
    """np.exp(x) bit for bit, over x if an array; no exp where x <= -746 (see cf_sas)."""
    x = np.asarray(x)
    live = ~np.less_equal(x, -746.0)
    np.exp(x, out=x, where=live)
    np.copyto(x, 0.0, where=~live)
    return x[()]


def cf_sas(alpha: float, gamma: float, w) -> np.ndarray:
    """Characteristic function exp(-(gamma |w|)^alpha) of S(alpha, gamma).
    numpy 2.4's exp leaves its fast path where results underflow (32,769 lanes:
    27-38 us at ordinary arguments, 0.21-0.67 ms if all are 0.0, ~4 ms if
    subnormal), so exp is taken only above -746 (_exp): 7.7 % of S(1.8, 1)'s
    default rfft bins."""
    return _exp(-(gamma**alpha) * np.abs(w) ** alpha)


@functools.lru_cache(maxsize=256)
def sas_series(alpha: float, gamma: float) -> tuple[tuple, float]:
    """Series (terms, order) of cf_sas: (k alpha, (-gamma^alpha)^k / k!)
    for k = 1 .. _TAIL_TERMS, exact below the order (_TAIL_TERMS + 1) alpha."""
    ga = gamma**alpha
    terms = tuple((k * alpha, (-ga) ** k / math.factorial(k)) for k in range(1, _TAIL_TERMS + 1))
    return terms, (_TAIL_TERMS + 1) * alpha


def tail_law(series: tuple[tuple, float]) -> TailLaw | None:
    """The power tail of a symmetric law from the series (terms, order)
    of its characteristic function, phi(w) = 1 + sum of A |w|^s + O(|w|^order).
    A term with s not an even integer gives the tail term
    -A Gamma(s + 1) sin(pi s / 2) / pi |x|^(-1 - s) (Nolan 1997); even
    powers of w add none.  None when no term is left."""
    tail = [
        (s, 1.0 / math.pi * gamma_fn(s + 1.0) * math.sin(math.pi * s / 2.0) * -a)
        for s, a in series[0]
        if abs(s / 2.0 - round(s / 2.0)) > 1e-9
    ]
    return TailLaw(*tail[0], tuple(tail[1:])) if tail else None


def _alias_images(x, tail: TailLaw, L: float) -> np.ndarray:
    """The tail series sum_k c_k |x|^(-s_k) summed over every wrap-around
    image x +- 2Lm, m >= 1, at points x in [-L, L]: sum_k c_k (2L)^(-s_k)
    [zeta(s_k, 1 + u) + zeta(s_k, 1 - u)] with u = x/2L, evaluated at the
    Chebyshev nodes only and interpolated as chebinterpolate does.

    The sum is even and the nodes are exact negatives of each other, so
    zeta is taken at the 17 nodes t >= 0 and mirrored, at q = 1 + u and
    1 - u in one call.  Only the even coefficients are kept:
    T_2k(t) = T_k(2t^2 - 1) makes them a series of half the degree in
    2(x/L)^2 - 1, summed in chebval's order in place."""
    e, c = np.array(((tail.exponent, tail.coefficient),) + tail.extra).T
    s = e + 1.0
    weights = c * (2.0 * L) ** (-s)
    u = _ALIAS_NODES[_ALIAS_DEGREE // 2 :] / 2.0
    z = hurwitz_zeta(s, np.concatenate((1.0 + u, 1.0 - u)))
    rows = z[: u.size] + z[u.size :]
    even = np.dot(_ALIAS_VT, np.concatenate((rows[:0:-1], rows)) @ weights)[::2]
    even[0] /= _ALIAS_DEGREE + 1
    even[1:] /= 0.5 * (_ALIAS_DEGREE + 1)
    # t2 = 2t, t = 2(x/L)^2 - 1, in one buffer; halving gives t back exactly
    t2 = np.divide(x, L)
    np.subtract(np.multiply(np.square(t2, out=t2), 2.0, out=t2), 1.0, out=t2)
    t2 *= 2.0
    # the first step c0, c1 = ck - c1, c0 + c1 * t2 from the two scalar ends
    c0, c1 = even[-3] - even[-1], np.multiply(t2, even[-1])
    c1 += even[-2]
    tmp, c0_rows = np.empty_like(t2), np.empty_like(t2)
    for ck in even[-4::-1]:
        np.add(c0, np.multiply(c1, t2, out=tmp), out=tmp)
        c0 = np.subtract(ck, c1, out=c0_rows)
        c1, tmp = tmp, c1
    t2 *= 0.5
    return np.add(c0, np.multiply(c1, t2, out=c1), out=c1)


def pdf_grid_cf(cf, tail: TailLaw | None, grid: GridSpec, label: str) -> GriddedDensity:
    """Density on grid, centered at 0, by FFT inversion of a real, even
    characteristic function cf (Mittnik, Doganoglu & Chenyao 1999): one
    size-n irfft of cf at the non-negative frequencies.  Most are dead: cf_sas
    and Gaussian.cf skip exp below -746, exactly 0.0 and numpy's slow path there.

    While |cf| is above e^-27 (~2e-12) at the fine Nyquist frequency W
    or at sqrt(2) W (an irrational multiple, so that a zero of an
    oscillating cf such as a sinc at W does not pass for decay), the
    spectrum is sampled `stride` = 2, 4, ... times finer and folded onto
    the n frequencies: exactly the aliasing of keeping every stride-th
    point of the fine inversion.  At the 2^22-point cap a law with a
    power tail raises ArithmeticError; a light law, whose cf may decay
    only like a power of w (Uniform's), is inverted there and keeps the
    truncation error.  The irfft goes into one buffer, halves swapped
    (fftshift) and divided by h; the wrap-around images of a tail law,
    _alias_images on the n/2 + 1 points x <= 0, are subtracted from both
    halves, and the buffer is clipped at 0 and normalized in place."""
    h, n = grid.h, grid.n
    half = n // 2
    probe = math.pi / h * np.array([1.0, math.sqrt(2.0)])
    stride = 1
    while np.max(np.abs(cf(stride * probe))) > math.exp(-27.0):
        if n * stride * 2 > 2**22:
            if tail is None:
                break
            raise ArithmeticError(
                f"{label} cannot be realized at grid spacing {h:g}: its characteristic "
                "function keeps mass beyond the Nyquist frequency even at the refinement "
                "cap of 2^22 points"
            )
        stride *= 2
    w = 2.0 * math.pi * np.fft.rfftfreq(n * stride, d=h / stride)
    phi = cf(w)
    if stride > 1:
        # the full spectrum in fftfreq order (phi is even), folded
        full = np.concatenate([phi, phi[-2:0:-1]])
        phi = full.reshape(stride, n).sum(axis=0)[: half + 1]
    p = np.divide(np.fft.irfft(phi, n).reshape(2, half)[::-1], h).reshape(n)
    if tail is not None:
        images = _alias_images(np.arange(-half, 1.0) * h, tail, grid.half_extent)
        p[: half + 1] -= images
        p[half + 1 :] -= images[-2:0:-1]
    return GriddedDensity(-half * h, h, np.clip(p, 0.0, None, out=p), tail).normalize(out=p)


def pdf_grid_sas(alpha: float, gamma: float, grid: GridSpec) -> GriddedDensity:
    """Symmetric stable density on a grid: pdf_grid_cf of cf_sas with
    the tail of sas_series, or the closed form at alpha = 2."""
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
    if alpha == 2:
        # closed form N(0, 2 gamma^2); the FFT route matches it to
        # machine precision but leaves roundoff noise in the far tail
        x = grid.points()
        var = 2.0 * gamma**2
        p = _exp(-(x**2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
        return GriddedDensity(float(x[0]), grid.h, p, None).normalize()
    label = f"S(alpha={alpha}, gamma={gamma:g})"
    tail = tail_law(sas_series(alpha, gamma))
    return pdf_grid_cf(functools.partial(cf_sas, alpha, gamma), tail, grid, label)


def sas_density(alpha: float, gamma: float) -> GriddedDensity:
    """Density of S(alpha, gamma) on its default grid, shared through
    the realization memo of density.realize (read-only values)."""
    # density builds its laws on this module, so it is imported here
    from .density import SaS, realize

    return realize(SaS(alpha, gamma))


def logpdf_sas(alpha: float, gamma: float, x, slope=False):
    """Log-density at arbitrary points: cubic interpolation on the
    cached grid inside its accurate region, tail series outside.  With
    slope=True the pair (ln p, d ln p/dx) (GriddedDensity.logpdf)."""
    if alpha == 2:
        # N(0, 2 gamma^2)
        var = 2.0 * gamma**2
        xa = np.asarray(x, dtype=float)
        out = -0.5 * np.log(2.0 * math.pi * var) - xa**2 / (2.0 * var)
        if slope:
            return out, -xa / var
        return float(out) if out.ndim == 0 else out
    return sas_density(alpha, gamma).logpdf(x, slope)


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
