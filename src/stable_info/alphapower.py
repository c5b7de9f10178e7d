"""The alpha-power solver.

The power of order alpha of a law X is the unique P > 0 with

    g(P) = -E[ln p_ref(X / P)] = h(ref)

where ref is the unit-power reference stable law.  g is continuous and
strictly decreasing with the right limit behavior, so a bracketed root
finder is sound.  Closed-form fast paths cover alpha = 2 (root mean
square) and stable inputs at matching alpha.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import density as dens
from . import stable
from .density import Cauchy, Empirical, RandomLaw, SaS, Scaled, Sum
from .gridded import power_tail_integrals

__all__ = ["AlphaPowerResult", "g_of_P", "alpha_power"]

# relative tolerance on P, solved as an absolute one on ln P
ROOT_RTOL = 1e-9
BRACKET_SPAN = 50.0


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
    """g(P) = -sum_i w_i ln p_ref(y_i / P) + c0 - c1 ln P for one (law,
    alpha), so each evaluation is one reference log-density call.

    c0 - c1 ln P is the analytic correction for the mass beyond the grid
    (the reference log-density is asymptotically -ln c1_ref +
    (1 + alpha) ln|x| there)."""

    alpha: float
    y: np.ndarray
    w: np.ndarray
    c0: float = 0.0
    c1: float = 0.0

    def __call__(self, P: float) -> float:
        gam_ref = stable.reference_gamma(self.alpha)
        core = -float(self.w @ stable.logpdf_sas(self.alpha, gam_ref, self.y / P))
        return core + self.c0 - self.c1 * math.log(P)


def _g_rule(law: RandomLaw, alpha: float) -> _GRule:
    """The quadrature rule of g for a law.

    p_ref is even, so x and -x share the node |x| (for any law, even or
    not): on a realized density the weights are the trapezoid weights
    over the accurate region, folded onto |x| when x and -x are both
    nodes (the grid is centered at 0), for samples every weight is 1/N.
    Of the N nodes, those with weight below
    1e-17 / (700 N) are dropped: logpdf is floor-clamped, so
    |ln p_ref| <= |ln 1e-300| < 700 and the dropped terms together move
    g by less than 1e-17, eight orders below ROOT_RTOL.  Light tails
    lose most of their nodes (Laplace(1) keeps 8,355 of 32,768),
    heavy tails keep all of theirs."""
    if isinstance(law, Empirical):
        s = law.as_array()
        return _GRule(alpha, np.sort(np.abs(s)), np.full(s.size, 1.0 / s.size))
    f = dens.realize(law)
    w = f.values[f.core] * f.h
    w[0] /= 2.0
    w[-1] /= 2.0
    if f.center == 0:
        # x[n // 2 + k] = k h
        w = np.bincount(np.abs(np.arange(f.core.start, f.core.stop) - f.n // 2), weights=w)
        y = f.h * np.arange(w.size)
    else:
        y = np.abs(f.x[f.core])
    keep = np.flatnonzero(w >= 1e-17 / (700.0 * w.size))
    y, w = y[keep], w[keep]
    rule = None if alpha == 2 else f.tail_rule()
    if rule is None:
        return _GRule(alpha, y, w)
    r, a, c_tail = rule
    i0, i1 = power_tail_integrals(r, a)
    c1_ref = stable._series_coeffs(alpha, stable.reference_gamma(alpha), 1)[0]
    c0 = -math.log(c1_ref) * i0 + (1.0 + alpha) * i1
    c1 = (1.0 + alpha) * i0
    return _GRule(alpha, y, w, 2.0 * c_tail * c0, 2.0 * c_tail * c1)


def _brentq(f, xa: float, xb: float, xtol: float, maxiter: int = 100) -> float:
    """A root of f in [xa, xb], where f changes sign.

    A line-for-line port of the C brentq that scipy.optimize.brentq
    calls, with its default rtol (4 eps) and maxiter: it evaluates f at
    the same points in the same order and returns the same float.
    Running out of iterations raises ArithmeticError, as does a NaN
    value of f."""
    rtol = 4 * sys.float_info.epsilon

    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ArithmeticError(f"root function is NaN at {x}")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise ArithmeticError(f"brentq did not converge in {maxiter} iterations")


def g_of_P(law: RandomLaw, alpha: float, P: float) -> float:
    """-E[ln p_ref(X/P)] for the reference law of the given alpha."""
    if not P > 0:
        raise ValueError("P must be positive")
    return _g_rule(law, alpha)(P)


def _matching_stable_scale(law: RandomLaw, alpha: float) -> float | None:
    """Effective stable scale if the law is S(alpha, .) in disguise."""
    if isinstance(law, SaS) and law.alpha == alpha:
        return law.gamma
    if isinstance(law, Cauchy) and alpha == 1:
        return law.gamma
    if isinstance(law, dens.Gaussian) and alpha == 2:
        return law.sigma / math.sqrt(2.0)
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
    return isinstance(law, Empirical) and not np.any(law.as_array())


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
        if isinstance(law, Empirical) and _hill_exponent(law.as_array()) < 2:
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
    seen = {}

    def excess(t):
        # g(e^t) - h(ref), each point evaluated once
        if t not in seen:
            seen[t] = g(math.exp(t)) - h_ref
        return seen[t]

    # solve in t = ln P: an absolute xtol on t is a relative one on P
    scale = law.scale_hint()
    lo, hi = math.log(scale / BRACKET_SPAN), math.log(scale * BRACKET_SPAN)
    step = math.log(8.0)
    # g decreases in P, so widen downward while g(lo) < h and upward
    # while g(hi) > h
    for _ in range(60):
        if excess(lo) > 0:
            break
        hi = lo
        lo -= step
    for _ in range(60):
        if excess(hi) < 0:
            break
        lo = hi
        hi += step
    if not (excess(lo) > 0 > excess(hi)):
        raise ArithmeticError(
            f"could not bracket the alpha-power root (alpha={alpha}, law={law})"
        )
    t = _brentq(excess, lo, hi, ROOT_RTOL)
    return AlphaPowerResult(math.exp(t), alpha, "numeric_root", abs(excess(t)))
