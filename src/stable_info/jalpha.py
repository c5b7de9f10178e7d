"""Fisher information of order alpha.

Three evaluation routes:
  closed form   d/(alpha gamma^alpha) for symmetric stable laws,
  spectral      integrate ln p against the inverse Fourier transform of
                |w|^alpha phi(-w),
  finite diff   difference quotients of h(X + t^(1/alpha) N), N ~ S(alpha, 1),
                Richardson-extrapolated to t -> 0.

The spectral route needs |w|^alpha phi integrable; laws whose
characteristic function decays too slowly (uniform, Laplace, empirical
kernels with sharp features) are pre-smoothed by a tiny stable
perturbation first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import density as dens
from .density import Cauchy, Gaussian, RandomLaw, SaS, Scaled, Shifted, Sum
from .gridded import _FLOOR, GriddedDensity, power_tail_integrals
from .report import BoundReport

__all__ = [
    "JAlphaEstimate",
    "jalpha_closed_stable",
    "jalpha_spectral",
    "jalpha_finite_diff",
    "jalpha_of_law",
    "spectral_realization",
    "debruijn_check",
]

DEFAULT_T_FACTORS = (0.2, 0.1, 0.05, 0.025)
SMOOTHING_ETA = 1e-3


@dataclass
class JAlphaEstimate:
    value: float
    alpha: float
    method: str  # closed_form_stable | spectral | finite_difference
    diagnostics: dict = field(default_factory=dict)


def jalpha_closed_stable(alpha: float, gamma: float, d: int = 1) -> float:
    """d / (alpha gamma^alpha) for S(alpha, gamma) in dimension d."""
    if not 0 < alpha <= 2:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    return d / (alpha * gamma**alpha)


def jalpha_spectral(f: GriddedDensity, alpha: float) -> JAlphaEstimate:
    """Spectral route: J_alpha = int ln p(x) F^-1[|w|^alpha phi(-w)](x) dx.

    phi is recovered from the grid by a real FFT (rfft), complex for
    laws not symmetric about the grid center, and |w|^alpha phi is
    inverted on the half spectrum by irfft; the product is the fractional
    Laplacian of p for any law.  The ln p factor uses the clamped grid
    log-density.  Integration runs over the grid-accurate region; the
    truncated tail contribution is small when the grid extent is
    generous.
    """
    if not 0 < alpha <= 2:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    n = f.n
    h = f.h
    w = 2.0 * math.pi * np.fft.rfftfreq(n, d=h)
    phi = np.fft.rfft(np.fft.ifftshift(f.values)) * h
    m = w**alpha * phi
    # integrability guard: |w|^alpha phi must have died out by the edge
    edge = w >= 0.98 * w[-1]
    edge_mag = float(np.max(np.abs(m[edge])))
    peak = float(np.max(np.abs(m)))
    if peak > 0 and edge_mag > 1e-6 * peak:
        raise ArithmeticError(
            "spectral integrand has not decayed at the frequency cutoff; "
            "the law is too rough for the spectral route -- smooth it first "
            "or use the finite-difference evaluator"
        )
    r_fun = np.fft.fftshift(np.fft.irfft(m, n)) / h
    lp = np.log(np.clip(f.values[f.core], _FLOOR, None))
    val = float(np.trapezoid(lp * r_fun[f.core], dx=h))
    # two-sided mass of the mass-consistent tail beyond the core
    rule = f.tail_rule()
    tail_mass = 0.0 if rule is None else 2.0 * rule[2] * power_tail_integrals(*rule[:2])[0]
    if val < -1e-4:
        raise ArithmeticError(
            f"spectral alpha-Fisher information came out negative ({val:.3e})"
        )
    return JAlphaEstimate(
        max(val, 0.0),
        alpha,
        "spectral",
        diagnostics={
            "grid_size": n,
            "spectral_cutoff": float(w[-1]),
            "tail_mass": tail_mass,
            "edge_magnitude": edge_mag,
        },
    )


def spectral_realization(law: RandomLaw, alpha: float) -> tuple[RandomLaw, GriddedDensity]:
    """Pre-smooth a law just enough for the spectral route and realize
    it on its spectral grid (density.plan_grid).  A law none of whose
    summands (through shifts and scalings) is Gaussian, stable or
    Cauchy gets a small S(alpha, gam) added.  gam is chosen so the
    smoothed characteristic function has decayed below ~1e-13 at the
    grid's Nyquist frequency pi/h; weaker smoothing leaves ringing in
    the inverted integrand.  Returns the (possibly smoothed) law and
    its density."""

    def smooth(x):
        if isinstance(x, (Shifted, Scaled)):
            return smooth(x.law)
        if isinstance(x, Sum):
            return smooth(x.law1) or smooth(x.law2)
        return isinstance(x, (Gaussian, SaS, Cauchy))

    grid = dens.plan_grid(law, alpha)
    if not smooth(law):
        gam = max(
            (SMOOTHING_ETA * law.scale_hint() ** alpha) ** (1.0 / alpha),
            30.0 ** (1.0 / alpha) * grid.h / math.pi,
        )
        law = Sum(law, Scaled(SaS(alpha, 1.0), gam))
    return law, dens.realize(law, grid)


def jalpha_of_law(law: RandomLaw, alpha: float) -> JAlphaEstimate:
    """Spectral J_alpha of a law, pre-smoothing it when necessary."""
    _, f = spectral_realization(law, alpha)
    return jalpha_spectral(f, alpha)


def jalpha_finite_diff(
    law: RandomLaw, alpha: float, t_sequence=None
) -> JAlphaEstimate:
    """Definition route: Richardson-extrapolated difference quotients of
    t -> (h(X + t^(1/alpha) N) - h(X)) / t with N ~ S(alpha, 1)."""
    if not 0 < alpha <= 2:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    scale = law.scale_hint()
    if t_sequence is None:
        t_sequence = [c * scale**alpha for c in DEFAULT_T_FACTORS]
    t_sequence = sorted(float(t) for t in t_sequence)
    if len(t_sequence) < 2:
        raise ValueError("need at least two step sizes to extrapolate")
    h0 = dens.realize(law).entropy()
    quotients = []
    for t in t_sequence:
        law_t = Sum(law, Scaled(SaS(alpha, 1.0), t ** (1.0 / alpha)))
        ht = dens.realize(law_t).entropy()
        quotients.append((ht - h0) / t)
    diag = {"quotients": dict(zip(t_sequence, quotients))}
    # concavity of h in t makes the quotient non-increasing in t
    qs = quotients
    if any(qs[i] < qs[i + 1] - 1e-6 * abs(qs[i + 1]) for i in range(len(qs) - 1)):
        diag["warning"] = "difference quotients are not monotone in t"
    t1, t2 = t_sequence[1], t_sequence[0]
    q1, q2 = quotients[1], quotients[0]
    value = (t1 * q2 - t2 * q1) / (t1 - t2)
    return JAlphaEstimate(value, alpha, "finite_difference", diagnostics=diag)


def debruijn_check(
    law: RandomLaw, alpha: float, gamma: float, eta: float
) -> BoundReport:
    """Generalized de Bruijn identity: the eta-derivative of the entropy
    of X_eta = X + eta^(1/alpha) S(alpha, gamma) equals
    gamma^alpha J_alpha(X_eta).  Both sides are computed independently;
    slack is minus the absolute relative error."""
    if not eta > 0:
        raise ValueError("eta must be positive")

    def smoothed(e):
        return Sum(law, Scaled(SaS(alpha, gamma), e ** (1.0 / alpha)))

    d_eta = 0.1 * eta
    h_plus = dens.realize(smoothed(eta + d_eta)).entropy()
    h_minus = dens.realize(smoothed(eta - d_eta)).entropy()
    lhs = (h_plus - h_minus) / (2.0 * d_eta)
    # X_eta is smooth already, so no smoothing is added
    j = jalpha_of_law(smoothed(eta), alpha)
    rhs = gamma**alpha * j.value
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return BoundReport(
        name="debruijn",
        lhs=lhs,
        rhs=rhs,
        slack=-rel,
        inputs={"law": repr(law), "alpha": alpha, "gamma": gamma, "eta": eta},
        method={"relative_error": rel, "eta_step": d_eta, "j_method": j.method},
    )
