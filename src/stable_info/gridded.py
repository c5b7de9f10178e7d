"""Uniform-grid density containers shared by all numeric modules.

A GriddedDensity is a symmetric uniform grid of density values plus an
optional power-law tail descriptor.  Heavy-tailed laws cannot put all
their mass on any finite grid, so the normalization convention is:
grid trapezoid mass plus analytic tail mass equals 1.  Laws without a
tail descriptor carry all their mass on the grid.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

__all__ = ["GridSpec", "TailLaw", "GriddedDensity"]

# fraction of the half-extent treated as grid-accurate; beyond it the
# tail descriptor takes over in entropy/log-density queries
ACCURATE_FRACTION = 0.9

_FLOOR = 1e-300


@dataclass(frozen=True)
class GridSpec:
    """Symmetric uniform grid: n points (power of two) spanning [-L, L)."""

    n: int = 2**16
    half_extent: float = 200.0

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


@dataclass
class GriddedDensity:
    x0: float
    h: float
    values: np.ndarray
    tail: TailLaw | None = None
    _spline: CubicSpline | None = field(default=None, repr=False, compare=False)

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
        return -self.x0

    @property
    def accurate_radius(self) -> float:
        if self.tail is None:
            return self.x[-1]
        return ACCURATE_FRACTION * self.half_extent

    def grid_mass(self) -> float:
        return float(np.trapezoid(self.values, dx=self.h))

    def mass_within(self, r: float) -> float:
        sel = np.abs(self.x) <= r
        return float(np.trapezoid(self.values[sel], dx=self.h))

    def total_mass(self) -> float:
        if self.tail is None:
            return self.grid_mass()
        r = self.accurate_radius
        return self.mass_within(r) + self.tail.mass_beyond(r)

    def normalize(self) -> "GriddedDensity":
        """Rescale grid values so total mass (grid + tail) is 1."""
        if self.tail is None:
            return GriddedDensity(self.x0, self.h, self.values / self.grid_mass())
        r = self.accurate_radius
        target = 1.0 - self.tail.mass_beyond(r)
        if target <= 0:
            raise ValueError("tail mass exceeds 1; grid too narrow")
        return GriddedDensity(
            self.x0, self.h, self.values * (target / self.mass_within(r)), self.tail
        )

    def logpdf(self, xq) -> np.ndarray:
        """Log-density: cubic interpolation inside the accurate region,
        tail formula outside (floor-clamped when no tail law).

        The spline only covers the contiguous central region where the
        values sit clearly above the FFT/underflow noise floor; a cubic
        fit through noise-level samples oscillates without bound in log
        space."""
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
            self._spline = CubicSpline(self.x[sl], logp, extrapolate=False)
        xq = np.asarray(xq, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        out = np.empty_like(xq)
        r = min(self.accurate_radius, self._spline.x[-1])
        r_lo = max(-r, self._spline.x[0])
        inside = (xq >= r_lo) & (xq <= r)
        out[inside] = self._spline(xq[inside])
        if self.tail is not None:
            t = np.abs(xq[~inside])
            out[~inside] = np.log(np.clip(self.tail.pdf(t), _FLOOR, None))
        else:
            out[~inside] = np.log(_FLOOR)
        np.nan_to_num(out, copy=False, nan=np.log(_FLOOR))
        return out[0] if scalar else out

    def pdf(self, xq) -> np.ndarray:
        return np.exp(self.logpdf(xq))

    def entropy(self) -> float:
        """Differential entropy in nats.

        Trapezoid quadrature of -p ln p over the accurate region, plus a
        closed-form correction for the tail mass when a tail law is
        attached.  The correction uses an effective tail coefficient
        chosen so the analytic tail carries exactly the mass missing
        from the core; this keeps the estimate consistent when the grid
        normalization and the asymptotic constant disagree slightly.
        """
        r = self.accurate_radius
        sel = np.abs(self.x) <= r
        p = np.clip(self.values[sel], _FLOOR, None)
        core = -float(np.trapezoid(p * np.log(p), dx=self.h))
        if self.tail is None:
            return core
        m_side = (1.0 - self.mass_within(r)) / 2.0
        if m_side <= 0:
            return core
        a = self.tail.exponent
        c_eff = m_side * a * r**a
        # -2 * int_r^inf c x^(-1-a) ln(c x^(-1-a)) dx in closed form
        ra = r ** (-a)
        tail_ent = (1.0 + a) * c_eff * (ra * np.log(r) / a + ra / a**2)
        tail_ent -= np.log(c_eff) * c_eff * ra / a
        return core + 2.0 * tail_ent

    def expect(self, fn, tail_fn=None) -> float:
        """E[fn(X)] by trapezoid quadrature over the accurate region.

        tail_fn, if given, maps (c_eff, exponent, r) to the analytic
        value of the two-sided tail integral of fn against the
        mass-consistent tail density c_eff |x|^(-1-a).
        """
        r = self.accurate_radius
        sel = np.abs(self.x) <= r
        core = float(np.trapezoid(self.values[sel] * fn(self.x[sel]), dx=self.h))
        if self.tail is None or tail_fn is None:
            return core
        m_side = (1.0 - self.mass_within(r)) / 2.0
        if m_side <= 0:
            return core
        a = self.tail.exponent
        c_eff = m_side * a * r**a
        return core + tail_fn(c_eff, a, r)

    def resample(self, grid: GridSpec) -> "GriddedDensity":
        """Cubic re-interpolation onto a new grid, renormalized."""
        xq = grid.points()
        p = np.exp(self.logpdf(xq))
        if self.tail is None:
            p[np.abs(xq) > self.half_extent] = 0.0
        out = GriddedDensity(xq[0], grid.h, np.clip(p, 0.0, None), self.tail)
        return out.normalize()

    # -- CSV round trip (columns: x, p) --------------------------------

    def to_csv(self, path_or_buf) -> None:
        close = False
        if isinstance(path_or_buf, (str, bytes)):
            f = open(path_or_buf, "w", newline="")
            close = True
        else:
            f = path_or_buf
        try:
            w = csv.writer(f)
            w.writerow(["x", "p"])
            for xi, pi in zip(self.x, self.values):
                w.writerow([repr(float(xi)), repr(float(pi))])
        finally:
            if close:
                f.close()

    @classmethod
    def from_csv(cls, path_or_buf) -> "GriddedDensity":
        if isinstance(path_or_buf, (str, bytes)):
            with open(path_or_buf, newline="") as f:
                return cls.from_csv(f)
        if isinstance(path_or_buf, str):
            path_or_buf = io.StringIO(path_or_buf)
        rows = list(csv.reader(path_or_buf))
        if rows and rows[0] and rows[0][0].strip().lower() == "x":
            rows = rows[1:]
        x = np.array([float(r[0]) for r in rows])
        p = np.array([float(r[1]) for r in rows])
        h = float(np.median(np.diff(x)))
        return cls(float(x[0]), h, p)
