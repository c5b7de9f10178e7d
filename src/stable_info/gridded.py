"""Uniform-grid density containers shared by all numeric modules.

A GriddedDensity is a uniform grid of density values, symmetric about
its center, plus an optional power-law tail descriptor.  Heavy-tailed
laws cannot put all their mass on any finite grid, so the normalization
convention is: grid trapezoid mass plus analytic tail mass equals 1.
Laws without a tail descriptor carry all their mass on the grid.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import solve, solve_banded

__all__ = ["GridSpec", "TailLaw", "GriddedDensity", "power_tail_integrals"]

# fraction of the half-extent, about the center, treated as
# grid-accurate; beyond it the tail descriptor takes over
ACCURATE_FRACTION = 0.9

_FLOOR = 1e-300


@dataclass(frozen=True)
class GridSpec:
    """Symmetric uniform grid: n points (power of two) spanning [-L, L)."""

    n: int
    half_extent: float

    def __post_init__(self):
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError(f"grid size must be a power of two, got {self.n}")
        if not self.half_extent > 0:
            raise ValueError("half_extent must be positive")

    @property
    def h(self) -> float:
        return 2.0 * self.half_extent / self.n

    def points(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.h


@dataclass(frozen=True)
class TailLaw:
    """Power-law tail p(x) ~ coefficient * |x|^(-(1+exponent)).

    exponent is the characteristic exponent alpha of the decay; the
    coefficient is per side (the density is symmetric).  extra holds
    optional higher-order (exponent_k, coeff_k) correction terms of an
    asymptotic series; those coefficients may be negative.
    """

    exponent: float
    coefficient: float
    extra: tuple = ()

    def __post_init__(self):
        if not 0 < self.exponent:
            raise ValueError("tail exponent must be positive")
        if not self.coefficient > 0:
            raise ValueError("tail coefficient must be positive")

    def pdf(self, x):
        # one log per point; each term is exp(-(1 + e_k) ln|x|)
        lx = np.log(np.abs(x))
        out = self.coefficient * np.exp(-(1.0 + self.exponent) * lx)
        for ek, ck in self.extra:
            out = out + ck * np.exp(-(1.0 + ek) * lx)
        return out

    def mass_beyond(self, r: float) -> float:
        """Two-sided tail mass outside [-r, r]."""
        m = self.coefficient * r ** (-self.exponent) / self.exponent
        for ek, ck in self.extra:
            m += ck * r ** (-ek) / ek
        return 2.0 * m


# knots x and coefficient rows c[0..3] (cubic first) of a spline
_Cubic = namedtuple("_Cubic", "x c")


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (4, m - 1) coefficients of scipy's not-a-knot CubicSpline
    through the m knots x and values y, bit for bit.

    The knot slopes s come from the same linear system, built the same
    way and handed to the same scipy.linalg solver (the (3, m) band for
    m > 3, the 3 x 3 parabola for m = 3; m = 2 is the line), and the
    rows are formed as CubicHermiteSpline forms them."""
    m = x.size
    if m < 2:
        raise ValueError(f"a spline needs at least 2 knots, got {m}")
    dx = np.diff(x)
    slope = np.diff(y) / dx
    if m == 2:
        s = np.array([slope[0], slope[0]])
    elif m == 3:
        a = np.array([[1.0, 1.0, 0.0], [dx[1], 2 * (dx[0] + dx[1]), dx[0]], [0.0, 1.0, 1.0]])
        b = np.array([2 * slope[0], 3 * (dx[0] * slope[1] + dx[1] * slope[0]), 2 * slope[1]])
        s = solve(a, b, check_finite=False)
    else:
        # rows: upper diagonal, diagonal, lower diagonal; the first and
        # last equations are the not-a-knot conditions
        ab = np.zeros((3, m))
        b = np.empty(m)
        ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        ab[0, 2:] = dx[:-1]
        ab[-1, :-2] = dx[1:]
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d = x[2] - x[0]
        ab[1, 0], ab[0, 1] = dx[1], d
        b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        ab[1, -1], ab[-1, -2] = dx[-2], d
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        s = solve_banded((1, 1), ab, b, overwrite_ab=True, overwrite_b=True, check_finite=False)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])


@dataclass
class GriddedDensity:
    x0: float
    h: float
    values: np.ndarray
    tail: TailLaw | None = None
    _spline: _Cubic | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if np.any(self.values < 0):
            raise ValueError("density values must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.h * np.arange(self.n)

    @property
    def half_extent(self) -> float:
        return self.n * self.h / 2.0

    @property
    def center(self) -> float:
        """The point the grid is symmetric about: x[n // 2]."""
        return self.x0 + self.half_extent

    @property
    def accurate_radius(self) -> float:
        if self.tail is None:
            return self.half_extent - self.h
        return ACCURATE_FRACTION * self.half_extent

    @cached_property
    def core(self) -> slice:
        """Grid points within accurate_radius of the center, by index."""
        off = np.abs(np.arange(self.n) - self.n // 2) * self.h
        k = np.flatnonzero(off <= self.accurate_radius)
        return slice(int(k[0]), int(k[-1]) + 1)

    def grid_mass(self) -> float:
        return float(np.trapezoid(self.values, dx=self.h))

    def core_mass(self) -> float:
        return float(np.trapezoid(self.values[self.core], dx=self.h))

    def total_mass(self) -> float:
        if self.tail is None:
            return self.grid_mass()
        return self.core_mass() + self.tail.mass_beyond(self.accurate_radius)

    def normalize(self) -> "GriddedDensity":
        """Rescale grid values so total mass (grid + tail) is 1."""
        if self.tail is None:
            return GriddedDensity(self.x0, self.h, self.values / self.grid_mass())
        target = 1.0 - self.tail.mass_beyond(self.accurate_radius)
        if target <= 0:
            raise ValueError("tail mass exceeds 1; grid too narrow")
        return GriddedDensity(
            self.x0, self.h, self.values * (target / self.core_mass()), self.tail
        )

    def logpdf(self, xq) -> np.ndarray:
        """Log-density: cubic interpolation inside the accurate region,
        tail formula at the distance from the center outside
        (floor-clamped when no tail law).

        The spline only covers the contiguous central region where the
        values sit clearly above the FFT/underflow noise floor; a cubic
        fit through noise-level samples oscillates without bound in log
        space.  It is scipy's not-a-knot CubicSpline, built here by
        _not_a_knot; the knots are uniform, so it is evaluated by direct
        indexing, interval k = (x - x_lo) // h, summed in PPoly's order
        c3 + c2 s + c1 s^2 + c0 s^3."""
        if self._spline is None:
            thresh = float(np.max(self.values)) * 1e-14
            i = int(np.argmax(self.values))
            # the run of values above thresh that contains the peak
            stop = np.flatnonzero(~(self.values > thresh))
            left, right = stop[stop < i], stop[stop > i]
            lo = int(left[-1]) + 1 if left.size else 0
            hi = int(right[0]) - 1 if right.size else self.n - 1
            sl = slice(lo, hi + 1)
            logp = np.log(np.clip(self.values[sl], _FLOOR, None))
            knots = self.x[sl]
            self._spline = _Cubic(knots, _not_a_knot(knots, logp))
        xq = np.asarray(xq, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        out = np.empty_like(xq)
        knots, c = self._spline
        d = xq - self.center
        r = min(self.accurate_radius, knots[-1] - self.center)
        r_lo = max(-r, knots[0] - self.center)
        inside = (d >= r_lo) & (d <= r)
        xi = xq[inside]
        k = np.minimum(((xi - knots[0]) / self.h).astype(np.intp), knots.size - 2)
        s = xi - knots.take(k)
        out[inside] = (
            c[3].take(k) + c[2].take(k) * s + c[1].take(k) * (s * s)
            + c[0].take(k) * (s * s * s)
        )
        if self.tail is not None:
            t = np.abs(d[~inside])
            out[~inside] = np.log(np.clip(self.tail.pdf(t), _FLOOR, None))
        else:
            out[~inside] = np.log(_FLOOR)
        np.nan_to_num(out, copy=False, nan=np.log(_FLOOR))
        return out[0] if scalar else out

    def pdf(self, xq) -> np.ndarray:
        return np.exp(self.logpdf(xq))

    def tail_rule(self) -> tuple[float, float, float] | None:
        """(r, a, c_eff) of the mass-consistent tail beyond r, the
        accurate radius: c_eff x^(-1-a) on each side carries exactly the
        mass missing from the core, which keeps tail corrections
        consistent when the grid normalization and the asymptotic
        constant disagree slightly.  None without a tail law or when no
        mass is missing."""
        if self.tail is None:
            return None
        r = self.accurate_radius
        m_side = (1.0 - self.core_mass()) / 2.0
        if m_side <= 0:
            return None
        a = self.tail.exponent
        return r, a, m_side * a * r**a

    def entropy(self) -> float:
        """Differential entropy in nats.

        Trapezoid quadrature of -p ln p over the accurate region, plus
        the closed-form entropy of the mass-consistent tail."""
        p = np.clip(self.values[self.core], _FLOOR, None)
        core = -float(np.trapezoid(p * np.log(p), dx=self.h))
        rule = self.tail_rule()
        if rule is None:
            return core
        r, a, c_tail = rule
        # -2 * int_r^inf c x^(-1-a) ln(c x^(-1-a)) dx
        i0, i1 = power_tail_integrals(r, a)
        tail_ent = (1.0 + a) * c_tail * i1 - np.log(c_tail) * c_tail * i0
        return core + 2.0 * tail_ent


def power_tail_integrals(r: float, a: float) -> tuple[float, float]:
    """int_r^inf x^(-1-a) dx and int_r^inf x^(-1-a) ln x dx in closed form."""
    ra = r ** (-a)
    return ra / a, ra * np.log(r) / a + ra / a**2
