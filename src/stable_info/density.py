"""Analytic and empirical random laws on a shared gridded substrate.

A RandomLaw is a small description object (Gaussian, Uniform, Laplace,
Cauchy, SaS, shift/scale/sum compositions, or an empirical sample set);
realize() turns any but a sample set into a GriddedDensity, whose
entropy runs through the tail-corrected quadrature of the grid
container.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import stable
from .gridded import GriddedDensity, GridSpec, TailLaw

__all__ = [
    "RandomLaw",
    "Gaussian",
    "Uniform",
    "Laplace",
    "Cauchy",
    "SaS",
    "Shifted",
    "Scaled",
    "Sum",
    "Empirical",
    "plan_grid",
    "realize",
    "convolve",
]

# grid points, and half-extent in units of scale_hint(), of the default
# grid; the spectral route needs a wider one because the integrand
# ln p * r has slowly decaying tails the core integral must mostly
# capture, and raises n for heavy stable factors up to MAX_GRID_N
GRID_N = 2**16
GRID_EXTENT = 200.0
SPECTRAL_EXTENT = 400.0
MAX_GRID_N = 2**22
# grid points (8 bytes each) realize() keeps across its cached densities;
# the newest one is kept even when it alone is larger
MEMO_POINTS = 2**20


@dataclass(frozen=True)
class RandomLaw:
    def scale_hint(self) -> float:
        """Robust scale proxy used for grid sizing and root brackets."""
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def second_moment(self) -> float:
        """E[X^2]; inf for laws with tail exponent < 2."""
        raise NotImplementedError

    def _pdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _tail_law(self) -> TailLaw | None:
        return None

    def _realize_on(self, grid: GridSpec) -> GriddedDensity:
        x = grid.points()
        return GriddedDensity(
            float(x[0]), grid.h, np.clip(self._pdf(x), 0.0, None), self._tail_law()
        ).normalize()


@dataclass(frozen=True)
class Gaussian(RandomLaw):
    sigma: float

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")

    def scale_hint(self):
        return self.sigma

    def mean(self):
        return 0.0

    def second_moment(self):
        return self.sigma**2

    def _pdf(self, x):
        s2 = self.sigma**2
        return np.exp(-(x**2) / (2 * s2)) / math.sqrt(2 * math.pi * s2)


@dataclass(frozen=True)
class Uniform(RandomLaw):
    """Uniform on [-a, a]."""

    a: float

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise ValueError("a must be positive and finite")

    def scale_hint(self):
        return self.a

    def mean(self):
        return 0.0

    def second_moment(self):
        return self.a**2 / 3.0

    def _pdf(self, x):
        return np.where(np.abs(x) <= self.a, 1.0 / (2 * self.a), 0.0)

    def _realize_on(self, grid):
        # cell-averaged box: exact CDF differences keep the edge cells
        # honest at any resolution
        x = grid.points()
        h = grid.h
        hi = np.clip(x + h / 2.0, -self.a, self.a)
        lo = np.clip(x - h / 2.0, -self.a, self.a)
        p = (hi - lo) / (2.0 * self.a * h)
        return GriddedDensity(float(x[0]), h, p).normalize()


@dataclass(frozen=True)
class Laplace(RandomLaw):
    b: float

    def __post_init__(self):
        if not 0 < self.b < math.inf:
            raise ValueError("b must be positive and finite")

    def scale_hint(self):
        return self.b

    def mean(self):
        return 0.0

    def second_moment(self):
        return 2.0 * self.b**2

    def _pdf(self, x):
        return np.exp(-np.abs(x) / self.b) / (2 * self.b)


@dataclass(frozen=True)
class Cauchy(RandomLaw):
    gamma: float

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")

    def scale_hint(self):
        return self.gamma

    def mean(self):
        return 0.0

    def second_moment(self):
        return math.inf

    def _pdf(self, x):
        return self.gamma / (math.pi * (self.gamma**2 + x**2))

    def _tail_law(self):
        return TailLaw(exponent=1.0, coefficient=self.gamma / math.pi)


@dataclass(frozen=True)
class SaS(RandomLaw):
    alpha: float
    gamma: float

    def __post_init__(self):
        if not 0 < self.alpha <= 2:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")

    def scale_hint(self):
        return self.gamma

    def mean(self):
        return 0.0

    def second_moment(self):
        return 2.0 * self.gamma**2 if self.alpha == 2 else math.inf

    def _realize_on(self, grid):
        return stable.pdf_grid_sas(self.alpha, self.gamma, grid)


@dataclass(frozen=True)
class Shifted(RandomLaw):
    law: RandomLaw
    delta: float

    def __post_init__(self):
        if not math.isfinite(self.delta):
            raise ValueError("shift must be finite")

    def scale_hint(self):
        return self.law.scale_hint()

    def mean(self):
        return self.law.mean() + self.delta

    def second_moment(self):
        m2 = self.law.second_moment()
        m = self.law.mean()
        return m2 + 2 * m * self.delta + self.delta**2

    def _realize_on(self, grid):
        # the inner law's density with its grid moved by delta
        base = realize(self.law, grid)
        return GriddedDensity(base.x0 + self.delta, base.h, base.values, base.tail)


@dataclass(frozen=True)
class Scaled(RandomLaw):
    law: RandomLaw
    c: float

    def __post_init__(self):
        if self.c == 0 or not math.isfinite(self.c):
            raise ValueError("scale factor must be nonzero and finite")

    def scale_hint(self):
        return abs(self.c) * self.law.scale_hint()

    def mean(self):
        return self.c * self.law.mean()

    def second_moment(self):
        return self.c**2 * self.law.second_moment()

    def _realize_on(self, grid):
        # p(x/c)/|c| on grid is the inner law on grid/|c|, relabelled
        # about c times its center; for c < 0 the value at index k is the
        # inner one at the mirror index n - k, index 0 standing in for n
        c = abs(self.c)
        base = realize(self.law, GridSpec(grid.n, grid.half_extent / c))
        values = base.values / c
        if self.c < 0:
            values = np.roll(values[::-1], 1)
        tail = None
        if base.tail is not None:
            tail = TailLaw(
                base.tail.exponent,
                base.tail.coefficient * c**base.tail.exponent,
                tuple((ek, ck * c**ek) for ek, ck in base.tail.extra),
            )
        return GriddedDensity(self.c * base.center - grid.half_extent, grid.h, values, tail)


@dataclass(frozen=True)
class Sum(RandomLaw):
    """Sum of two independent laws."""

    law1: RandomLaw
    law2: RandomLaw

    def scale_hint(self):
        return max(self.law1.scale_hint(), self.law2.scale_hint())

    def mean(self):
        return self.law1.mean() + self.law2.mean()

    def second_moment(self):
        return (
            self.law1.second_moment()
            + self.law2.second_moment()
            + 2 * self.law1.mean() * self.law2.mean()
        )

    def _realize_on(self, grid):
        f = realize(self.law1, grid)
        g = realize(self.law2, grid)
        return convolve(f, g)


@dataclass(frozen=True)
class Empirical(RandomLaw):
    """A sample set, which alpha_power reads directly: it has no density."""

    samples: tuple

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ValueError("empirical law needs at least one sample")
        object.__setattr__(
            self, "samples", tuple(np.asarray(self.samples, dtype=float).tolist())
        )

    def as_array(self):
        return np.asarray(self.samples, dtype=float)

    def scale_hint(self):
        s = self.as_array()
        iqr = float(np.subtract(*np.percentile(s, [75, 25])))
        if iqr > 0:
            return iqr / 2.0
        return max(float(np.std(s)), 1e-12)

    def mean(self):
        return float(np.mean(self.as_array()))

    def second_moment(self):
        return float(np.mean(self.as_array() ** 2))


def _spectral_reach(law: RandomLaw) -> float:
    """Frequency by which |w|^alpha phi(w) of the law's heavy stable
    factors has died out: 36^(1/r)/gamma for S(r, gamma), whose
    characteristic function is exp(-(gamma w)^r); 0 when no factor needs
    one.  Scaling by c divides it by |c|, and the characteristic
    functions of a sum multiply, so the smaller reach of two factors
    suffices."""
    if isinstance(law, SaS):
        return 36.0 ** (1.0 / law.alpha) / law.gamma
    if isinstance(law, Shifted):
        return _spectral_reach(law.law)
    if isinstance(law, Scaled):
        return _spectral_reach(law.law) / abs(law.c)
    if isinstance(law, Sum):
        return min(_spectral_reach(law.law1), _spectral_reach(law.law2))
    return 0.0


def plan_grid(law: RandomLaw, alpha: float | None = None) -> GridSpec:
    """The grid a law is realized on.

    Without alpha: GRID_N points over GRID_EXTENT scales.  With alpha,
    the spectral grid for J_alpha: SPECTRAL_EXTENT scales, with n
    raised, up to MAX_GRID_N, until the Nyquist frequency pi/h reaches
    the law's spectral reach."""
    s = max(law.scale_hint(), 1e-12)
    if alpha is not None:
        L = SPECTRAL_EXTENT * s
        n_req = 2 ** math.ceil(math.log2(max(2.0 * L * _spectral_reach(law) / math.pi, 2.0)))
        return GridSpec(max(GRID_N, min(n_req, MAX_GRID_N)), L)
    return GridSpec(GRID_N, GRID_EXTENT * s)


_memo: OrderedDict[tuple[RandomLaw, GridSpec], GriddedDensity] = OrderedDict()


def realize(law: RandomLaw, grid: GridSpec | None = None) -> GriddedDensity:
    """The law's density on grid (plan_grid(law) when None).

    Realizations are memoized on (law, grid), least recently used
    evicted first once their grid points exceed MEMO_POINTS; the
    returned density is shared, so its values are read-only."""
    if grid is None:
        grid = plan_grid(law)
    key = (law, grid)
    if key in _memo:
        _memo.move_to_end(key)
        return _memo[key]
    f = _memo[key] = law._realize_on(grid)
    f.values.flags.writeable = False
    points = sum(d.n for d in _memo.values())
    while points > MEMO_POINTS and len(_memo) > 1:
        points -= _memo.popitem(last=False)[1].n
    return f


def _combine_tails(t1: TailLaw | None, t2: TailLaw | None) -> TailLaw | None:
    # power tails dominate light tails; among two power tails the
    # heavier (smaller exponent) wins, equal exponents add coefficients
    if t1 is None:
        return t2
    if t2 is None:
        return t1
    if t1.exponent < t2.exponent:
        return t1
    if t2.exponent < t1.exponent:
        return t2
    return TailLaw(t1.exponent, t1.coefficient + t2.coefficient)


def convolve(f: GriddedDensity, g: GriddedDensity) -> GriddedDensity:
    """Linear convolution of two densities on grids of one spacing via
    FFT with zero padding, centered at the sum of their centers.

    Both inputs are padded to the power of two at or above
    f.n + g.n - 1, the length of their linear convolution, so nothing
    wraps around.  Beyond the input extents the result is dominated by
    what the truncated inputs are missing, so the output is cropped
    back to the larger of the two input extents; the combined tail law
    stands in outside."""
    if not math.isclose(f.h, g.h, rel_tol=1e-12):
        raise ValueError(f"grid spacings differ: {f.h:g} and {g.h:g}")
    h = f.h
    n_out = 1 << math.ceil(math.log2(f.n + g.n - 1))

    def embed(d: GriddedDensity) -> np.ndarray:
        buf = np.zeros(n_out)
        i0 = n_out // 2 - d.n // 2
        buf[i0 : i0 + d.n] = d.values
        return buf

    pf = np.fft.rfft(np.fft.ifftshift(embed(f)))
    pg = np.fft.rfft(np.fft.ifftshift(embed(g)))
    conv = np.fft.fftshift(np.fft.irfft(pf * pg, n=n_out)) * h
    n_keep = max(f.n, g.n)
    i0 = n_out // 2 - n_keep // 2
    vals = conv[i0 : i0 + n_keep]
    x0 = f.center + g.center - (n_keep // 2) * h
    out = GriddedDensity(
        x0, h, np.clip(vals, 0.0, None), _combine_tails(f.tail, g.tail)
    )
    return out.normalize()

