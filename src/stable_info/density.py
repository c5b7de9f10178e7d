"""Analytic and empirical random laws on a shared gridded substrate.

A RandomLaw is a small description object (Gaussian, Uniform, Laplace,
Cauchy, SaS, shift/scale/sum compositions, or an empirical sample set);
realize() turns any but a sample set into a GriddedDensity, whose
entropy runs through the tail-corrected quadrature of the grid
container.  Every law but a sample set has a closed-form characteristic
function cf and its small-w series, which give a sum its density and
every law its power tail (stable.pdf_grid_cf and stable.tail_law).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, fields

import numpy as np

from . import stable
from .gridded import GriddedDensity, GridSpec

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
# grid points (8 bytes each) realize() keeps across its cached densities
# of at most this size; beside them it keeps the most recently used larger one
MEMO_POINTS = 2**20


@dataclass(frozen=True)
class RandomLaw:
    def scale_hint(self) -> float:
        """The scale that sizes grids, the alpha-power's 40-scale handoff
        bound, the spectral smoothing scale and the finite-difference
        steps: for a base law its scale parameter, the last field."""
        return getattr(self, fields(self)[-1].name)

    def mean(self) -> float:
        """The center: 0 for the symmetric base laws."""
        return 0.0

    def second_moment(self) -> float:
        """E[X^2]; inf for laws with tail exponent < 2."""
        raise NotImplementedError

    def cf(self, w) -> np.ndarray:
        """Characteristic function about the center mean(), real and even."""
        raise NotImplementedError

    def _taylor(self, j: int) -> float:
        """Coefficient of u^j in the cf of a light base law as a function
        of u = (scale w)^2."""
        raise NotImplementedError

    def series(self) -> tuple[tuple, float]:
        """(terms, order): cf(w) = 1 + sum of A |w|^s over the (s, A) terms,
        sorted by s, + O(|w|^order); ten powers of u for a light law."""
        s2 = self.scale_hint() ** 2
        return tuple((2.0 * j, self._taylor(j) * s2**j) for j in range(1, 11)), 22.0

    def _pdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _realize_on(self, grid: GridSpec) -> GriddedDensity:
        x = grid.points()
        return GriddedDensity(
            float(x[0]), grid.h, np.clip(self._pdf(x), 0.0, None), stable.tail_law(self.series())
        ).normalize()


@dataclass(frozen=True)
class Gaussian(RandomLaw):
    sigma: float
    _taylor = staticmethod(lambda j: (-0.5) ** j / math.factorial(j))

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")

    def second_moment(self):
        return self.sigma**2

    def cf(self, w):
        return np.exp(-0.5 * (self.sigma * w) ** 2)

    def _pdf(self, x):
        s2 = self.sigma**2
        return np.exp(-(x**2) / (2 * s2)) / math.sqrt(2 * math.pi * s2)


@dataclass(frozen=True)
class Uniform(RandomLaw):
    """Uniform on [-a, a]."""

    a: float
    _taylor = staticmethod(lambda j: (-1.0) ** j / math.factorial(2 * j + 1))

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise ValueError("a must be positive and finite")

    def second_moment(self):
        return self.a**2 / 3.0

    def cf(self, w):
        return np.sinc(self.a * w / math.pi)

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
    _taylor = staticmethod(lambda j: (-1.0) ** j)

    def __post_init__(self):
        if not 0 < self.b < math.inf:
            raise ValueError("b must be positive and finite")

    def second_moment(self):
        return 2.0 * self.b**2

    def cf(self, w):
        return 1.0 / (1.0 + (self.b * w) ** 2)

    def _pdf(self, x):
        return np.exp(-np.abs(x) / self.b) / (2 * self.b)


@dataclass(frozen=True)
class Cauchy(RandomLaw):
    gamma: float

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")

    def second_moment(self):
        return math.inf

    def cf(self, w):
        return stable.cf_sas(1.0, self.gamma, w)

    def series(self):
        return stable.sas_series(1.0, self.gamma)

    def _pdf(self, x):
        return self.gamma / (math.pi * (self.gamma**2 + x**2))


@dataclass(frozen=True)
class SaS(RandomLaw):
    alpha: float
    gamma: float

    def __post_init__(self):
        if not 0 < self.alpha <= 2:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")

    def second_moment(self):
        return 2.0 * self.gamma**2 if self.alpha == 2 else math.inf

    def cf(self, w):
        return stable.cf_sas(self.alpha, self.gamma, w)

    def series(self):
        return stable.sas_series(self.alpha, self.gamma)

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

    def cf(self, w):
        return self.law.cf(w)

    def series(self):
        return self.law.series()

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

    def cf(self, w):
        return self.law.cf(self.c * w)

    def series(self):
        terms, order = self.law.series()
        c = abs(self.c)
        return tuple((s, a * c**s) for s, a in terms), order

    def _realize_on(self, grid):
        # p(x/c)/|c| on grid is the inner law on grid/|c|, relabelled
        # about c times its center; for c < 0 the value at index k is the
        # inner one at the mirror index n - k, index 0 standing in for n
        c = abs(self.c)
        base = realize(self.law, GridSpec(grid.n, grid.half_extent / c))
        values = base.values / c
        if self.c < 0:
            values = np.roll(values[::-1], 1)
        tail = stable.tail_law(self.series())
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

    def cf(self, w):
        return self.law1.cf(w) * self.law2.cf(w)

    def series(self):
        """The product of the two series, equal powers merged: exact below
        the smaller order, so stables of one alpha give their sum's series."""
        (t1, o1), (t2, o2) = self.law1.series(), self.law2.series()
        order = min(o1, o2)
        out = {}
        for s1, a1 in ((0.0, 1.0),) + t1:
            for s2, a2 in ((0.0, 1.0),) + t2:
                s, key = s1 + s2, round(s1 + s2, 9)
                if 0 < s < order - 1e-9:
                    s0, a = out.get(key, (s, 0.0))
                    out[key] = (s0, a + a1 * a2)
        return tuple(sorted(out.values())), order

    def _realize_on(self, grid):
        return convolve(self, grid)


@dataclass(frozen=True, eq=False)
class Empirical(RandomLaw):
    """A sample set, which alpha_power reads directly: it has no density."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.array(self.samples, dtype=float)
        if s.ndim != 1 or s.size == 0 or not np.all(np.isfinite(s)):
            raise ValueError("empirical law needs a nonempty 1-D set of finite samples")
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)

    def __eq__(self, other):
        return type(other) is type(self) and np.array_equal(self.samples, other.samples)

    def __hash__(self):
        return hash(self.samples.tobytes())

    def __repr__(self):
        # one line of bounded length, however many samples
        n = self.samples.size
        head = ", ".join(map(repr, self.samples[:3].tolist())) + ", ..." * (n > 3)
        return f"Empirical(samples=({head}), n={n})"

    def _no_density(self, *_):
        raise ValueError("an Empirical law has no density; alpha_power reads its samples directly")

    # every route to a density, bare or inside Shifted, Scaled or Sum, calls one of these
    cf = series = scale_hint = _realize_on = _no_density

    def mean(self):
        return float(np.mean(self.samples))

    def second_moment(self):
        return float(np.mean(self.samples ** 2))


def _spectral_reach(law: RandomLaw) -> float:
    """Frequency by which |w|^alpha phi(w) of the law's heavy stable part
    has died out: (36/|A|)^(1/r) from the leading term A |w|^r of its
    series, as phi ~ exp(A |w|^r) (36^(1/r)/gamma for S(r, gamma)); 0
    when r >= 2."""
    (r, a), *_ = law.series()[0]
    return (36.0 / -a) ** (1.0 / r) if r < 2 else 0.0


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
    evicted first once their grid points exceed MEMO_POINTS.  A density
    larger than MEMO_POINTS alone is held outside that count, the most
    recently used one only, so smaller first-time densities do not
    evict it.  The returned density is shared, so its values are
    read-only."""
    if grid is None:
        grid = plan_grid(law)
    key = (law, grid)
    if key in _memo:
        _memo.move_to_end(key)
        return _memo[key]
    f = _memo[key] = law._realize_on(grid)
    f.values.flags.writeable = False
    big = [k for k, d in _memo.items() if d.n > MEMO_POINTS]
    for k in big[:-1]:
        del _memo[k]
    small = [k for k, d in _memo.items() if d.n <= MEMO_POINTS]
    points = sum(_memo[k].n for k in small)
    for k in small:
        if points <= MEMO_POINTS:
            break
        points -= _memo.pop(k).n
    return f


def convolve(law: Sum, grid: GridSpec) -> GriddedDensity:
    """The density of a sum of independent laws on grid, moved to its
    center law.mean(): stable.pdf_grid_cf of the product of the parts'
    characteristic functions, with the tail of the product of their series."""
    f = stable.pdf_grid_cf(law.cf, stable.tail_law(law.series()), grid, repr(law))
    return GriddedDensity(law.mean() + f.x0, f.h, f.values, f.tail)
