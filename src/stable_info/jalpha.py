"""Fisher information of order alpha.

Three evaluation routes:
  closed form   d/(alpha gamma^alpha) for symmetric stable laws,
  spectral      integrate ln p against the inverse Fourier transform of
                |w|^alpha phi(-w), taken on the half spectrum by the
                discrete Parseval identity as sum_k |w_k|^alpha q_k,
  finite diff   difference quotients of h(X + t^(1/alpha) N), N ~ S(alpha, 1),
                Richardson-extrapolated to t -> 0.

The Parseval weights q, the magnitude |phi| of the grid spectrum, the
tail mass, the frequencies |w| and the start of the decay guard's band
do not depend on alpha: they are built, with two FFTs, on the first J
of a density and kept on it, so J at a further alpha costs one power
and one weighted sum, with no FFT.  J is shift-invariant, so a shifted
law reuses its inner law's density and weights.

The spectral route needs |w|^alpha phi integrable; laws whose
characteristic function decays too slowly (Uniform, Laplace and sums
of them) are pre-smoothed by a tiny stable perturbation first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import density as dens
from .density import Cauchy, Gaussian, RandomLaw, SaS, Scaled, Shifted, Sum
from .gridded import _FLOOR, GriddedDensity
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


def _parseval_weights(
    f: GriddedDensity,
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray, int, int]:
    """(q, |phi|, tail mass, w, edge, top) of f, built on the first J of f
    and kept on it.  On the rfft half spectrum, q_k = c_k Re(conj(L_k) phi_k) / n,
    where phi is rfft(ifftshift(values)) h, L the rfft of the
    trapezoid-weighted core log-density (zero off the core, same layout)
    and c_k = 2, except c_0 = 1 and, for even n, c_(n/2) = 1 (the
    Nyquist bin, which has no mirror).  The tail mass is
    GriddedDensity.tail_mass(), that of the tail series beyond the core.
    w = 2 pi rfftfreq(n, h) are the bins' frequencies, sorted, so the
    decay guard's band w >= 0.98 w[-1] is the suffix w[edge:]; top is
    the bin where w |phi| peaks, the first bin the guard reads."""
    def build():
        n, c, core = f.n, f.n // 2, f.core
        # ifftshift layout, grid index j at (j - c) mod n: the core wraps round 0
        ell = np.concatenate((f.values[c:], f.values[:c]))
        phi = np.fft.rfft(ell)
        phi *= f.h
        np.log(np.clip(ell, _FLOOR, None, out=ell), out=ell)
        ell[core.stop - c : n - c + core.start] = 0.0
        ell[(core.start - c) % n] *= 0.5
        ell[core.stop - 1 - c] *= 0.5
        lhat = np.fft.rfft(ell)
        # formed from the real and imaginary parts, so q is contiguous for
        # the weighted sum in jalpha_spectral
        q = lhat.real * phi.real
        q += np.multiply(lhat.imag, phi.imag, out=lhat.imag)
        q /= n
        q[1:(n + 1) // 2] *= 2.0
        w = 2.0 * math.pi * np.fft.rfftfreq(n, d=f.h)
        edge = int(np.searchsorted(w, 0.98 * w[-1]))
        phi_abs = np.abs(phi)
        top = int(np.argmax(w * phi_abs))
        return q, phi_abs, f.tail_mass(), w, edge, top

    return f.derive("spectral", build)


def jalpha_spectral(f: GriddedDensity, alpha: float) -> JAlphaEstimate:
    """Spectral route: J_alpha = int ln p(x) F^-1[|w|^alpha phi(-w)](x) dx
    over the grid-accurate region, the fractional Laplacian of p
    integrated against the clamped grid log-density.

    The integral is taken on the half spectrum by the discrete Parseval
    identity, sum_k |w_k|^alpha q_k (see _parseval_weights), which
    equals the trapezoid rule of ln p times the irfft of |w|^alpha phi
    over the core for any law, symmetric or not.  q, |phi|, the tail
    mass and the frequencies do not depend on alpha and are kept on f,
    so each further alpha on the same density costs one power
    |w|^alpha, the decay guard on the top 2 % of the band and one
    weighted sum, with no FFT; the guard scans the whole half spectrum
    for its peak only when the band's maximum is not already small
    against the bin where w |phi| peaks.  The truncated tail
    contribution is small when the grid extent is generous.
    """
    if not 0 < alpha <= 2:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    q, phi_abs, tail_mass, w, edge, top = _parseval_weights(f)
    w_alpha = w**alpha
    # integrability guard: |w|^alpha phi must have died out by the edge,
    # edge_mag <= 1e-6 times its peak.  The peak is at least its value
    # at top, so the whole half spectrum is scanned only when edge_mag
    # passes that first test; a NaN fails a test and raises nothing.
    edge_mag = float(np.max(w_alpha[edge:] * phi_abs[edge:]))
    if edge_mag > 1e-6 * (w_alpha[top] * phi_abs[top]) and edge_mag > 1e-6 * float(
        np.max(w_alpha * phi_abs)
    ):
        raise ArithmeticError(
            "spectral integrand has not decayed at the frequency cutoff; "
            "the law is too rough for the spectral route -- smooth it first "
            "or use the finite-difference evaluator"
        )
    # numpy's pairwise sum, not BLAS: the digits do not depend on the
    # thread count
    val = float(np.add.reduce(np.multiply(w_alpha, q, out=w_alpha)))
    if val < -1e-4:
        raise ArithmeticError(
            f"spectral alpha-Fisher information came out negative ({val:.3e})"
        )
    return JAlphaEstimate(
        max(val, 0.0),
        alpha,
        "spectral",
        diagnostics={
            "grid_size": f.n,
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
    its density.

    J and the entropy are shift-invariant and a shifted law's density is
    its inner law's values on a moved grid, so Shifted wrappers are
    dropped first: a shifted copy reuses the inner law's density and
    kept weights, with no FFT once those are built."""

    def smooth(x):
        if isinstance(x, (Shifted, Scaled)):
            return smooth(x.law)
        if isinstance(x, Sum):
            return smooth(x.law1) or smooth(x.law2)
        return isinstance(x, (Gaussian, SaS, Cauchy))

    while isinstance(law, Shifted):
        law = law.law
    grid = dens.plan_grid(law, alpha)
    if not smooth(law):
        gam = max(
            (SMOOTHING_ETA * law.scale_hint() ** alpha) ** (1.0 / alpha),
            30.0 ** (1.0 / alpha) * grid.h / math.pi,
        )
        law = Sum(law, Scaled(SaS(alpha, 1.0), gam))
    return law, dens.realize(law, grid)


def jalpha_of_law(law: RandomLaw, alpha: float) -> JAlphaEstimate:
    """Spectral J_alpha of a law, pre-smoothing it when necessary
    (spectral_realization, which drops Shifted wrappers)."""
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
