"""Uniform-grid density containers shared by all numeric modules.

A GriddedDensity is a uniform grid of density values, symmetric about
its center, plus an optional power-law tail descriptor.  Heavy-tailed
laws cannot put all their mass on any finite grid.  Every quadrature
over such a density is the trapezoid rule over its core, up to the last
core point x_last, plus one node rule (tail_nodes) that integrates the
full tail series on each side beyond x_last (or beyond any radius: the
alpha-power's starts where the grid matches the series); the masses
sum to 1.  Laws without a tail descriptor carry all their mass on the
grid.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import solve, solve_banded

__all__ = ["GridSpec", "TailLaw", "GriddedDensity"]

# fraction of the half-extent, about the center, treated as
# grid-accurate; beyond it the tail descriptor takes over
ACCURATE_FRACTION = 0.9

_FLOOR = 1e-300

# the tail beyond x_last: with n = x_last e^(s/a), each side's
# int p(n) G(n) dn is int_0^inf p(n) (n/a) G(n) ds, whose leading term
# decays like e^-s; the trapezoid rule takes it on [0, 40] with the end
# weights of the alternative extended Simpson rule (Numerical Recipes
# 4.1.14).  These are its nodes s and weights ds
_TAIL_S = np.linspace(0.0, 40.0, 1001)
_TAIL_W = np.full(_TAIL_S.size, _TAIL_S[1])
_TAIL_W[:4] *= np.array([17.0, 59.0, 43.0, 49.0]) / 48.0
_TAIL_W[-4:] *= np.array([49.0, 43.0, 59.0, 17.0]) / 48.0

_NO_TAIL = (np.empty(0), np.empty(0), np.empty(0))


@lru_cache(maxsize=64)
def _tail_nodes(tail: TailLaw, x_last: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, w, ln p_tail(n)) of a tail law beyond x_last: with
    n = x_last e^(s/a) on the _TAIL_S grid, w = p_tail(n) (n/a) times the
    _TAIL_W weights, so sum w G(n) integrates the full TailLaw series
    against G beyond x_last.  Cached by (tail, x_last), so a density,
    its normalized copy and its shifts share one evaluation of the
    series; read-only."""
    a, c = tail.exponent, tail.coefficient
    n = x_last * np.exp(_TAIL_S / a)
    # a term below 1e-17 of the leading one at x_last, and falling faster,
    # stays below it at every node: a sum's series loses half its terms
    kept = [(ek, ck) for ek, ck in tail.extra if ek < a or abs(ck) > 1e-17 * c * x_last ** (ek - a)]
    p = TailLaw(a, c, tuple(kept)).pdf(n)
    rule = (n, p * n / a * _TAIL_W, np.log(p))
    for v in rule:
        v.flags.writeable = False
    return rule


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

    @cached_property
    def _horner(self) -> np.ndarray | None:
        """Rows (a_k, (k - 1) e a_k), k = 0 .. K, when every exponent is a
        whole multiple k e of the leading one e (a stable tail), else None."""
        e = self.exponent
        terms = ((e, self.coefficient),) + self.extra
        k = [round(ek / e) for ek, _ in terms]
        if any(abs(ek / e - kk) > 1e-9 for (ek, _), kk in zip(terms, k)):
            return None
        rows = np.zeros((2, max(k) + 1))
        for kk, (_, ck) in zip(k, terms):
            rows[:, kk] += ck, (kk - 1) * e * ck
        return rows

    def pdf(self, x, slope=False):
        """p(x) = sum_k c_k |x|^(-1-e_k), and with slope the pair
        (p, d ln p/dx).

        With t = |x|, p = A/t and d ln p/dx = -(1 + e + D/A)/x for
        A = sum_k c_k t^-e_k and D = sum_k (e_k - e) c_k t^-e_k, e the
        leading exponent.  For a stable tail, A = v A' and D = v D' with
        A' and D' polynomials in v = t^-e, which Horner's rule gives from
        one power, and D/A is D'/A'; any other series takes one exp per
        term.  Where the higher terms vanish, or A underflows to 0, the
        slope is the leading term's -(1 + e)/x exactly."""
        t = np.abs(x)
        e = self.exponent
        a, d = np.zeros_like(t), np.zeros_like(t)
        if self._horner is None:
            lx = np.log(t)
            for ek, ck in ((e, self.coefficient),) + self.extra:
                term = ck * np.exp(-ek * lx)
                a, d = a + term, d + (ek - e) * term
            p = a / t
        else:
            v = t**-e
            for ak, dk in self._horner[:, :0:-1].T:
                a *= v
                a += ak
                if slope:
                    d *= v
                    d += dk
            p = a * v / t
        if not slope:
            return p
        return p, -(1.0 + e + np.divide(d, a, out=np.zeros_like(t), where=a != 0)) / x


# knots x and coefficient rows c[0..3] (cubic first) of a spline
_Cubic = namedtuple("_Cubic", "x c")


def _not_a_knot(x: np.ndarray, y: np.ndarray, start: int) -> np.ndarray:
    """The (4, m - 1 - start) coefficients of scipy's not-a-knot
    CubicSpline through the m knots x and values y, bit for bit, for the
    intervals from knot start on: CubicSpline(x, y).c[:, start:].

    The knot slopes s come from the same linear system over all m knots,
    built the same way and handed to the same scipy.linalg solver (the
    (3, m) band for m > 3, the 3 x 3 parabola for m = 3; m = 2 is the
    line), and the rows are formed as CubicHermiteSpline forms them."""
    m = x.size
    if m < 2:
        raise ValueError(f"a spline needs at least 2 knots, got {m}")
    if not 0 <= start <= m - 2:
        raise ValueError(f"no spline interval starts at knot {start} of {m}")
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
    dx, slope, s0 = dx[start:], slope[start:], s[start:-1]
    t = (s0 + s[start + 1 :] - 2 * slope) / dx
    c = np.empty((4, m - 1 - start))
    c[0], c[1], c[2], c[3] = t / dx, (slope - s0) / dx - t, s0, y[start:-1]
    return c


@dataclass
class GriddedDensity:
    x0: float
    h: float
    values: np.ndarray
    tail: TailLaw | None = None
    _spline: _Cubic | None = field(default=None, repr=False, compare=False)
    # (q, |phi|, tail mass) of the spectral J_alpha, kept by
    # jalpha._parseval_weights
    _spectral: tuple | None = field(default=None, repr=False, compare=False)
    # (y, w) of the alpha-power's g(P), kept by alphapower._g_rule
    _folded: tuple | None = field(default=None, repr=False, compare=False)

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
        """Indices n // 2 -+ k of the points with float(k) h <= accurate_radius."""
        c, h, r = self.n // 2, self.h, self.accurate_radius
        k = int(r / h) + 1
        while float(k) * h > r:
            k -= 1
        return slice(c - k, min(self.n, c + k + 1))

    def grid_mass(self) -> float:
        return float(np.trapezoid(self.values, dx=self.h))

    def core_mass(self) -> float:
        return float(np.trapezoid(self.values[self.core], dx=self.h))

    def tail_nodes(self, radius: float | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n, w, ln p_tail(n)): the node rule of each side's tail beyond
        radius, by default the last core point x_last, at distances n
        from the center (_tail_nodes).  Empty without a tail law."""
        if self.tail is None:
            return _NO_TAIL
        x_last = (self.core.stop - 1 - self.n // 2) * self.h
        return _tail_nodes(self.tail, x_last if radius is None else radius)

    def tail_mass(self) -> float:
        """Two-sided mass of the tail series beyond the last core point."""
        return 2.0 * float(np.add.reduce(self.tail_nodes()[1]))

    def total_mass(self) -> float:
        if self.tail is None:
            return self.grid_mass()
        return self.core_mass() + self.tail_mass()

    def normalize(self) -> "GriddedDensity":
        """Rescale grid values so total mass (core + tail) is 1."""
        if self.tail is None:
            return GriddedDensity(self.x0, self.h, self.values / self.grid_mass())
        target = 1.0 - self.tail_mass()
        if target <= 0:
            raise ValueError("tail mass exceeds 1; grid too narrow")
        return GriddedDensity(
            self.x0, self.h, self.values * (target / self.core_mass()), self.tail
        )

    def logpdf(self, xq, slope=False):
        """Log-density at the distance d = |x - center| (the density is
        symmetric): cubic interpolation inside the accurate region, tail
        formula outside (floor-clamped when no tail law).

        The spline is scipy's not-a-knot CubicSpline (_not_a_knot)
        through the contiguous central run of values clearly above the
        FFT/underflow noise floor (a cubic through noise-level samples
        oscillates without bound in log space); only its intervals from
        the center out are kept, so it reads d up to r, the accurate
        radius or the last knot.  The knots are uniform: interval
        k = d // h by direct indexing, summed in PPoly's order
        c3 + c2 s + c1 s^2 + c0 s^3.  Every point reads the spline, at d
        clipped to r, and only the points beyond r (NaN among them) are
        then overwritten by flat index: no boolean mask gathers the
        inside set, which is most of the time on unsorted input.

        With slope=True it returns the pair (ln p, d ln p/dx) at points
        of any shape and order: the spline's derivative inside, the tail
        law's outside (0 without one), negated left of the center."""
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
            # x[n // 2] is the center itself: the kept knots are d = 0, h, ...
            knots = self.x[self.n // 2 : hi + 1] - self.center
            self._spline = _Cubic(knots, _not_a_knot(self.x[sl], logp, self.n // 2 - lo))
        xq = np.asarray(xq, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        knots, c = self._spline
        r = min(self.accurate_radius, knots[-1])
        signed = xq - self.center
        d = np.abs(signed)
        # the spline at every point, read at d clipped to r (fmin sends
        # NaN there too); the points beyond r are overwritten below
        dc = np.fmin(d, r)
        k = np.minimum(dc / self.h, knots.size - 2).astype(np.intp)
        s = dc - knots.take(k)
        c0, c1, c2 = c[0].take(k), c[1].take(k), c[2].take(k)
        s2 = s * s
        out = c[3].take(k) + c2 * s + c1 * s2 + c0 * (s2 * s)
        outside = np.flatnonzero(~(d <= r))
        tail_slope = 0.0
        if self.tail is None:
            out.put(outside, np.log(_FLOOR))
        else:
            p = self.tail.pdf(d.take(outside), slope)
            if slope:
                p, tail_slope = p
            out.put(outside, np.log(np.maximum(p, _FLOOR)))
        # NaN input gets the floor (fmax drops a NaN operand)
        np.fmax(out, np.log(_FLOOR), out=out)
        if not slope:
            return out[0] if scalar else out
        dout = (3.0 * c0 * s + 2.0 * c1) * s + c2
        dout.put(outside, tail_slope)
        # left of the center, flip the sign bit: it is the sign bit of x - center
        dout.view(np.int64)[...] ^= signed.view(np.int64) & np.int64(-(2**63))
        return out, dout

    def pdf(self, xq) -> np.ndarray:
        return np.exp(self.logpdf(xq))

    def entropy(self) -> float:
        """Differential entropy in nats: the trapezoid rule of -p ln p
        over the core, plus -2 sum w ln p_tail(n) over the tail nodes
        (none without a tail law)."""
        p = np.clip(self.values[self.core], _FLOOR, None)
        core = -float(np.trapezoid(p * np.log(p), dx=self.h))
        _, w, log_p = self.tail_nodes()
        return core - 2.0 * float(np.add.reduce(w * log_p))

