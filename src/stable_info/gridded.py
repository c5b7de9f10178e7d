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
from threading import local

import numpy as np

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

# the pole 2 - sqrt(3) of the uniform cubic spline's [1, 4, 1] rows
_SPLINE_POLE = 2.0 - 3.0**0.5

# logpdf's work rows, one set per thread (_work_rows)
_WORK = local()


def _trapezoid(y: np.ndarray, h: float) -> float:
    """np.trapezoid(y, dx=h) of a 1-D y, bit for bit, with one temporary."""
    t = y[1:] + y[:-1]
    t *= h
    return float(np.add.reduce(np.divide(t, 2.0, out=t)))


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
        term.  Horner's rule runs A' (and with slope D') as the rows of
        one stacked array, one multiply and one add per coefficient.
        Where the higher terms vanish, or A underflows to 0, the slope is
        the leading term's -(1 + e)/x exactly."""
        t = np.abs(x)
        e = self.exponent
        if self._horner is None:
            a, d = np.zeros_like(t), np.zeros_like(t)
            lx = np.log(t)
            for ek, ck in ((e, self.coefficient),) + self.extra:
                term = ck * np.exp(-ek * lx)
                a, d = a + term, d + (ek - e) * term
            p = a / t
        else:
            v = t**-e
            rows = self._horner[: 1 + slope, :0:-1]
            ad = np.zeros(rows.shape[:1] + t.shape)
            # one column of coefficients per step, broadcast along t
            for col in rows.T.reshape(rows.shape[::-1] + (1,) * t.ndim):
                ad *= v
                ad += col
            a, d = ad[0], ad[-1]
            p = a * v / t
        if not slope:
            return p
        return p, -(1.0 + e + np.divide(d, a, out=np.zeros_like(t), where=a != 0)) / x


# knots x and coefficient rows c[0..3] (cubic first) of a spline
_Cubic = namedtuple("_Cubic", "x c")


def _work_rows(xq: np.ndarray) -> tuple[np.ndarray, ...]:
    """Seven float rows (signed, d, s, s^2, c0, c1, c2) and one intp row
    (k) shaped as xq, views of this thread's work block: grown to the
    largest query and never shrunk, so a logpdf call allocates only the
    arrays it returns, which are never views of the block."""
    n = xq.size
    if getattr(_WORK, "size", -1) < n:
        _WORK.size, _WORK.rows, _WORK.k = n, np.empty((7, n)), np.empty(n, np.intp)
    return (*_WORK.rows[:, :n].reshape((7, *xq.shape)), _WORK.k[:n].reshape(xq.shape))


def _not_a_knot(x: np.ndarray, y: np.ndarray, start: int) -> np.ndarray:
    """The (4, m - 1 - start) coefficients of the not-a-knot cubic spline
    through the m uniform knots x and values y, for the intervals from
    knot start on: CubicSpline(x, y).c[:, start:] to roundoff.

    The knot slopes s solve the spline's linear system over all m knots
    (m = 2 is the line, m = 3 the one parabola).  With uniform knots its
    interior rows are s[i-1] + 4 s[i] + s[i+1] = 3 (slope[i-1] + slope[i]),
    and 1 + 4z + z^2 factors as (1 + rz)(z + r)/r with the pole
    r = 2 - sqrt(3) (Unser, Aldroubi & Eden 1993): a causal and an
    anticausal recursive filter of pole -r, each run as 5 in-place
    doubling steps (32 taps; r^32 ~ 5e-19), give one solution of those
    rows.  The two not-a-knot end rows, s[0] + 2 s[1] and
    2 s[m-2] + s[m-1], are then met by adding the rows' homogeneous
    solutions (-r)^i and (-r)^(m-1-i), a 2 x 2 solve.  The spline rows
    are formed as CubicHermiteSpline forms them."""
    m = x.size
    if m < 2:
        raise ValueError(f"a spline needs at least 2 knots, got {m}")
    if not 0 <= start <= m - 2:
        raise ValueError(f"no spline interval starts at knot {start} of {m}")
    dx = np.diff(x)
    # slope, the knot slopes s and the doubling steps' products share one
    # (3, m) work buffer
    work = np.empty((3, m))
    slope, s, tmp = work[0, 1:], work[1], work[2]
    np.divide(np.diff(y), dx, out=slope)
    if m == 2:
        s[:] = slope[0]
    elif m == 3:
        a = np.array([[1.0, 1.0, 0.0], [dx[1], 2 * (dx[0] + dx[1]), dx[0]], [0.0, 1.0, 1.0]])
        b = np.array([2 * slope[0], 3 * (dx[0] * slope[1] + dx[1] * slope[0]), 2 * slope[1]])
        s[:] = np.linalg.solve(a, b)
    else:
        s[0] = s[-1] = 0.0
        np.add(slope[:-1], slope[1:], out=s[1:-1])
        s *= 3.0 * _SPLINE_POLE
        # causal, then anticausal: the same pass on the reversed view
        for v in (s, s[::-1]):
            p = -_SPLINE_POLE
            for k in (1, 2, 4, 8, 16):
                v[k:] += np.multiply(v[:-k], p, out=tmp[k:])
                p *= p
        # the end rows' residuals d0, d1 and the symmetric 2 x 2 matrix
        # [[a, b], [b, a]] of the homogeneous solutions in them
        d0 = 0.5 * (5.0 * slope[0] + slope[1]) - (s[0] + 2.0 * s[1])
        d1 = 0.5 * (slope[-2] + 5.0 * slope[-1]) - (2.0 * s[-2] + s[-1])
        p = -_SPLINE_POLE
        a, b = 1.0 + 2.0 * p, p ** (m - 2) * (2.0 + p)
        det = a * a - b * b
        g = p ** np.arange(min(m, 40))
        s[: g.size] += (a * d0 - b * d1) / det * g
        s[m - g.size :] += (a * d1 - b * d0) / det * g[::-1]
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
    # what derive() has built on the density, by key
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if np.any(self.values < 0):
            raise ValueError("density values must be nonnegative")

    def derive(self, key: str, build):
        """build(), kept on the density under key from the first call on."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

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
        return _trapezoid(self.values, self.h)

    def core_mass(self) -> float:
        return _trapezoid(self.values[self.core], self.h)

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

    def normalize(self, out=None) -> "GriddedDensity":
        """Rescale grid values so total mass (core + tail) is 1, into out if given."""
        if self.tail is None:
            return GriddedDensity(self.x0, self.h, np.divide(self.values, self.grid_mass(), out=out))
        target = 1.0 - self.tail_mass()
        if target <= 0:
            raise ValueError("tail mass exceeds 1; grid too narrow")
        scaled = np.multiply(self.values, target / self.core_mass(), out=out)
        return GriddedDensity(self.x0, self.h, scaled, self.tail)

    def logpdf(self, xq, slope=False):
        """Log-density at the distance d = |x - center| (the density is
        symmetric): cubic interpolation inside the accurate region, tail
        formula outside (floor-clamped when no tail law).

        The spline is the not-a-knot cubic spline (_not_a_knot, scipy's
        CubicSpline to roundoff) through the contiguous central run of
        values clearly above the FFT/underflow noise floor (a cubic through noise-level samples
        oscillates without bound in log space); only its intervals from
        the center out are kept, so it reads d up to r, the accurate
        radius or the last knot.  The build starts at knot n // 2 - 64
        (at the run's own start if that is nearer the center), and the
        kept rows are the full run's bit for bit: each recursive filter
        of _not_a_knot has 32 taps, so no slope from the center out sees
        where the build starts; the left end row's correction reaches 40
        knots; and the right end row sees the left one only through
        (2 - r)(-r)^(m - 2), at most 4.3e-37 from this start and exactly
        0 from m = 568.  The knots are uniform: interval
        k = d // h by direct indexing, summed in PPoly's order
        c3 + c2 s + c1 s^2 + c0 s^3.  Every point reads the spline, at d
        clipped to r, and only the points beyond r (NaN among them) are
        then overwritten by flat index: no boolean mask gathers the
        inside set, which is most of the time on unsorted input.

        With slope=True it returns the pair (ln p, d ln p/dx) at points
        of any shape and order: the spline's derivative inside, the tail
        law's outside (0 without one), negated left of the center."""
        def build():
            thresh = float(np.max(self.values)) * 1e-14
            i = int(np.argmax(self.values))
            # the run of values above thresh that contains the peak
            stop = np.flatnonzero(~(self.values > thresh))
            left, right = stop[stop < i], stop[stop > i]
            lo = int(left[-1]) + 1 if left.size else 0
            hi = int(right[0]) - 1 if right.size else self.n - 1
            lo = max(lo, self.n // 2 - 64)
            logp = np.log(np.clip(self.values[lo : hi + 1], _FLOOR, None))
            x = self.x0 + self.h * np.arange(lo, hi + 1)
            # x[n // 2] is the center itself: the kept knots are d = 0, h, ...
            knots = x[self.n // 2 - lo :] - self.center
            return _Cubic(knots, _not_a_knot(x, logp, self.n // 2 - lo))

        xq = np.asarray(xq, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        knots, c = self.derive("spline", build)
        r = min(self.accurate_radius, knots[-1])
        signed, d, s, s2, c0, c1, c2, k = _work_rows(xq)
        np.subtract(xq, self.center, out=signed)
        np.abs(signed, out=d)
        outside = np.flatnonzero(~(d <= r))
        d_out = d.take(outside)
        # the spline at every point, read at d clipped to r (fmin sends
        # NaN there too); the points beyond r are overwritten below.  d
        # is free from here on, the products' row
        np.fmin(d, r, out=s)
        np.minimum(np.divide(s, self.h, out=s2), knots.size - 2, out=s2)
        np.copyto(k, s2, casting="unsafe")
        # k is in range: mode="clip" takes straight into out, unbuffered
        s -= knots.take(k, out=c0, mode="clip")
        for row, ck in zip(c, (c0, c1, c2)):
            row.take(k, out=ck, mode="clip")
        np.multiply(s, s, out=s2)
        # c3 + c2 s + c1 s^2 + c0 s^3, summed left to right
        out = c[3].take(k)
        out += np.multiply(c2, s, out=d)
        out += np.multiply(c1, s2, out=d)
        out += np.multiply(c0, np.multiply(s2, s, out=d), out=d)
        tail_slope = 0.0
        if self.tail is None:
            out.put(outside, np.log(_FLOOR))
        elif outside.size:
            p = self.tail.pdf(d_out, slope)
            if slope:
                p, tail_slope = p
            out.put(outside, np.log(np.maximum(p, _FLOOR)))
        # NaN input gets the floor (fmax drops a NaN operand)
        np.fmax(out, np.log(_FLOOR), out=out)
        if not slope:
            return out[0] if scalar else out
        # (3 c0 s + 2 c1) s + c2
        dout = np.multiply(c0, 3.0, out=c0) * s
        dout += np.multiply(c1, 2.0, out=c1)
        dout *= s
        dout += c2
        dout.put(outside, tail_slope)
        # left of the center, flip the sign bit: it is the sign bit of x - center
        dout.view(np.int64)[...] ^= np.bitwise_and(signed.view(np.int64), np.int64(-(2**63)), out=k)
        return out, dout

    def pdf(self, xq) -> np.ndarray:
        return np.exp(self.logpdf(xq))

    def entropy(self) -> float:
        """Differential entropy in nats: the trapezoid rule of -p ln p
        over the core, plus -2 sum w ln p_tail(n) over the tail nodes
        (none without a tail law).  Computed on the first call and kept
        on the density."""
        def build():
            p = np.clip(self.values[self.core], _FLOOR, None)
            core = -_trapezoid(np.multiply(p, np.log(p), out=p), self.h)
            _, w, log_p = self.tail_nodes()
            return core - 2.0 * float(np.add.reduce(w * log_p))

        return self.derive("entropy", build)
