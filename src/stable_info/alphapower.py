"""The alpha-power solver.

The power of order alpha of a law X is the unique P > 0 with

    g(P) = -E[ln p_ref(X / P)] = h(ref)

where ref is the unit-power reference stable law.  g is continuous and
strictly decreasing, and smooth in t = ln P, where one pass over the
quadrature nodes gives both g and dg/dt.  The root is found in t from
the log-moment start: X = P ref gives E ln|X| = t + E ln|ref|, with
E ln|S(alpha, gamma)| = ln gamma + EULER_GAMMA (1/alpha - 1)
(Zolotarev 1986), so t0 is the mean of ln|X| over the nodes less that
of the reference, exact but for the rule's error when X is stable.
Steps are Newton's, capped at ln 8 until the root is bracketed; then
each takes the cubic Hermite t(g) through the last two points (g is
monotone, so t is a function of g, and the cubic's value at g = h(ref)
is the next t), and a step that leaves the bracket is replaced by
bisection, as in rtsafe (Numerical Recipes).  Closed-form fast paths
cover alpha = 2 (root mean square) and stable inputs at matching alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import density as dens
from . import stable
from .density import Cauchy, Empirical, RandomLaw, SaS, Scaled, Sum
from .specfun import EULER_GAMMA

__all__ = ["AlphaPowerResult", "g_of_P", "alpha_power"]

# the root is returned once the Newton step in ln P falls below ROOT_TOL
ROOT_TOL = 1e-12
# g evaluations allowed per root; each unbracketed step moves ln P by at
# most ln 8, so the start may be off by a factor of 8^MAX_STEPS
MAX_STEPS = 100


@dataclass
class AlphaPowerResult:
    value: float
    alpha: float
    method: str  # closed_form_alpha2 | closed_form_stable | numeric_root
    residual: float = 0.0

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


@dataclass(frozen=True)
class _GRule:
    """g(P) = -sum_i w_i ln p_ref(y_i / P) for one (law, alpha), over
    nodes y >= 0, so each evaluation is one reference log-density call.
    A realized law shares one y and w across alphas; the nodes beyond its
    last core point carry the tail mass, so the reference log-density is
    read there as everywhere else."""

    alpha: float
    y: np.ndarray
    w: np.ndarray
    # sum w ln y / sum w over the nodes y > 0: E ln|X|, the root's start
    log_moment: float

    def __call__(self, P: float) -> tuple[float, float]:
        """g(P) and dg/dt at t = ln P: with u = y / P, dg/dt is
        sum_i w_i u_i (ln p_ref)'(u_i).  Both sums are numpy's pairwise
        sums, so the digits do not depend on the thread count; the
        products w lp and (w u) dlp are formed in place."""
        u = self.y / P
        lp, dlp = stable.logpdf_sas(self.alpha, stable.reference_gamma(self.alpha), u, slope=True)
        dlp *= np.multiply(self.w, u, out=u)
        return float(-np.add.reduce(np.multiply(self.w, lp, out=lp))), float(np.add.reduce(dlp))


def _log_moment(y: np.ndarray, w: np.ndarray) -> float:
    pos = y > 0
    w = w[pos]
    return float(np.add.reduce(w * np.log(y[pos])) / np.add.reduce(w))


def _handoff(f, law: RandomLaw) -> int:
    """k of the handoff radius R = k h of a realized density: the least
    grid radius with every core value from R out within 1e-10 (relative)
    of the tail series, and R >= |center| + 40 scales, so the origin,
    where every reference peaks, stays on the trapezoid; the last core
    point's k when no radius inside it does."""
    c, h, k_last = f.n // 2, f.h, f.core.stop - 1 - f.n // 2
    bound = abs(f.center) + 40.0 * law.scale_hint()
    k = np.arange(int(bound / h), k_last + 1)
    k = k[k * h >= bound]
    if f.tail is None or k.size == 0:
        return k_last
    misfit = np.abs(f.values[[c - k, c + k]] / f.tail.pdf(k * h) - 1.0)
    bad = k[~np.all(misfit <= 1e-10, axis=0)]
    return min(int(bad[-1]) + 1, k_last) if bad.size else int(k[0])


def _g_rule(law: RandomLaw, alpha: float) -> _GRule:
    """The quadrature rule of g for a law.

    p_ref is even, so x and -x share the node |x| (for any law, even or
    not): for samples every weight is 1/N and the nodes |x| are sorted,
    so g does not depend on their order.  On a realized density the
    weights are the trapezoid weights out to the handoff radius R
    (_handoff), folded onto |x| when the grid is centered at 0, and
    beyond R each side's tail takes the 1,001 nodes n of tail_nodes(R),
    doubled at n when the density is centered at 0, else at |center + n|
    and |center - n|; the first, n = R, is the trapezoid's end node when
    R is inside the last core point, and takes both weights.
    Of the N nodes, those with weight below 1e-17 / (700 N) are dropped:
    logpdf is floor-clamped, so |ln p_ref| <= |ln 1e-300| < 700 and the
    dropped terms together move g by less than 1e-17, five orders below
    ROOT_TOL.  Laplace(1) keeps 8,355 nodes, Cauchy(1) 7,555, S(0.4, 1)
    (no handoff) 30,493.  Nodes, weights and their log-moment, free of
    alpha, are kept on the density (GriddedDensity.derive)."""
    if isinstance(law, Empirical):
        s = law.samples
        y, w = np.sort(np.abs(s)), np.full(s.size, 1.0 / s.size)
        return _GRule(alpha, y, w, _log_moment(y, w))
    f = dens.realize(law)

    def build():
        c, k = f.n // 2, _handoff(f, law)
        core = slice(c - k, c + k + 1)
        w = f.values[core] * f.h
        w[[0, -1]] /= 2.0
        n, w_tail, _ = f.tail_nodes(k * f.h)
        if k < f.core.stop - 1 - c:
            w[[0, -1]] += w_tail[0]
            n, w_tail = n[1:], w_tail[1:]
        if f.center == 0:
            # x[n // 2 + j] = j h
            w = np.bincount(np.abs(np.arange(-k, k + 1)), weights=w)
            y = np.concatenate([f.h * np.arange(w.size), n])
            w = np.concatenate([w, 2.0 * w_tail])
        else:
            y = np.concatenate([np.abs(f.x[core]), np.abs(f.center + n), np.abs(f.center - n)])
            w = np.concatenate([w, w_tail, w_tail])
        keep = np.flatnonzero(w >= 1e-17 / (700.0 * w.size))
        y, w = y[keep], w[keep]
        y.flags.writeable = w.flags.writeable = False
        return y, w, _log_moment(y, w)

    return _GRule(alpha, *f.derive("folded", build))


def g_of_P(law: RandomLaw, alpha: float, P: float) -> float:
    """-E[ln p_ref(X/P)] for the reference law of the given alpha: inf
    at alpha = 2 for a law whose second moment is infinite."""
    if not P > 0:
        raise ValueError("P must be positive")
    if alpha == 2 and not math.isfinite(law.second_moment()):
        return math.inf
    return _g_rule(law, alpha)(P)[0]


def _matching_stable_scale(law: RandomLaw, alpha: float) -> float | None:
    """Effective stable scale if the law is S(alpha, .) in disguise."""
    if isinstance(law, SaS) and law.alpha == alpha:
        return law.gamma
    if isinstance(law, Cauchy) and alpha == 1:
        return law.gamma
    if isinstance(law, Scaled):
        inner = _matching_stable_scale(law.law, alpha)
        return None if inner is None else abs(law.c) * inner
    if isinstance(law, Sum):
        g1 = _matching_stable_scale(law.law1, alpha)
        g2 = _matching_stable_scale(law.law2, alpha)
        if g1 is not None and g2 is not None:
            return (g1**alpha + g2**alpha) ** (1.0 / alpha)
    return None


def _hill_exponent(s: np.ndarray) -> float:
    """Hill estimate of the tail exponent from the largest |samples|."""
    a = np.sort(np.abs(s))
    k = max(10, int(math.sqrt(len(a))))
    top = a[-k:]
    if top[0] <= 0:
        return math.inf
    xi = float(np.mean(np.log(top / top[0])))
    return math.inf if xi == 0 else 1.0 / xi


def _is_point_mass_at_zero(law: RandomLaw) -> bool:
    return isinstance(law, Empirical) and not np.any(law.samples)


def alpha_power(law: RandomLaw, alpha: float) -> AlphaPowerResult:
    """Solve g(P) = h(ref) for the alpha-power of a law.

    Returns an infinite-valued result when alpha = 2 and the second
    moment diverges, as it does for any power tail with exponent below 2.
    """
    if not 0 < alpha <= 2:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    if _is_point_mass_at_zero(law):
        return AlphaPowerResult(0.0, alpha, "closed_form_alpha2")

    if alpha == 2:
        if isinstance(law, Empirical) and _hill_exponent(law.samples) < 2:
            return AlphaPowerResult(math.inf, alpha, "closed_form_alpha2", math.nan)
        m2 = law.second_moment()
        if not math.isfinite(m2):
            return AlphaPowerResult(math.inf, alpha, "closed_form_alpha2", math.nan)
        return AlphaPowerResult(math.sqrt(m2), alpha, "closed_form_alpha2")

    g_match = _matching_stable_scale(law, alpha)
    if g_match is not None:
        return AlphaPowerResult(
            alpha ** (1.0 / alpha) * g_match, alpha, "closed_form_stable"
        )

    h_ref = stable.reference_entropy(alpha)
    g = _g_rule(law, alpha)
    # start at the log-moment (module docstring)
    t = g.log_moment
    t -= math.log(stable.reference_gamma(alpha)) + EULER_GAMMA * (1.0 / alpha - 1.0)
    # g decreases in t = ln P: the root lies above t while g > h_ref
    lo, hi, last = -math.inf, math.inf, None
    for _ in range(MAX_STEPS):
        P = math.exp(t)
        value, slope = g(P)
        excess = value - h_ref
        if math.isnan(excess) or math.isnan(slope):
            raise ArithmeticError(f"g(P) is NaN at P = {P} ({alpha=}, {law=})")
        if excess > 0:
            lo = t
        elif excess < 0:
            hi = t
        # where the slope is not negative, the sign of the excess gives the way
        step = -excess / slope if slope < 0 else math.copysign(math.inf, excess)
        if math.isinf(hi - lo):
            step = max(-math.log(8.0), min(math.log(8.0), step))
        else:
            if last is not None and slope < 0 and last[2] < 0 and last[1] != excess:
                # the cubic Hermite t(excess) through the last two points,
                # with dt/d(excess) = 1/slope at each, read at excess 0:
                # Newton's step plus its divided-difference terms
                t0, e0, s0 = last
                de = excess - e0
                q = (t - t0) / de
                a = (1.0 / slope - q) / de
                step += excess * excess * (a - e0 * (a - (q - 1.0 / s0) / de) / de)
            if not lo <= t + step <= hi:
                step = (lo + hi) / 2.0 - t
        if excess == 0 or abs(step) < ROOT_TOL:
            return AlphaPowerResult(P, alpha, "numeric_root", abs(excess))
        last = (t, excess, slope)
        t += step
    raise ArithmeticError(f"alpha-power root did not converge in {MAX_STEPS} steps ({alpha=})")
