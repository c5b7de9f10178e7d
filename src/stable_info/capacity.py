"""Additive stable channel under an output alpha-power constraint.

With noise N ~ S(alpha, gamma_N) and the output power capped at A, the
capacity is d ln(A / P_alpha(N)) and the optimal input is stable with
the complementary scale.  The cost function is the expected reference
log-loss of a shifted noise observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stable

__all__ = [
    "ChannelSpec",
    "noise_alpha_power",
    "capacity_stable",
    "optimal_input_scale",
    "cost_function",
]


@dataclass(frozen=True)
class ChannelSpec:
    alpha: float
    gamma_N: float
    A: float
    d: int = 1

    def __post_init__(self):
        if not 0 < self.alpha <= 2:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not 0 < self.gamma_N < math.inf:
            raise ValueError("gamma_N must be positive and finite")
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if not noise_alpha_power(self.alpha, self.gamma_N) * (1 - 1e-12) <= self.A < math.inf:
            raise ValueError(
                "output power cap A must be finite and at least the noise alpha-power "
                f"{noise_alpha_power(self.alpha, self.gamma_N):.6g}"
            )


def noise_alpha_power(alpha: float, gamma_N: float) -> float:
    """P_alpha of S(alpha, gamma_N): alpha^(1/alpha) gamma_N."""
    return alpha ** (1.0 / alpha) * gamma_N


def capacity_stable(spec: ChannelSpec) -> float:
    """Capacity d ln(A / P_alpha(N)) in nats."""
    return spec.d * math.log(spec.A / noise_alpha_power(spec.alpha, spec.gamma_N))


def optimal_input_scale(spec: ChannelSpec) -> float:
    """Scale of the capacity-achieving stable input:
    (1/alpha)^(1/alpha) (A^alpha - P_alpha(N)^alpha)^(1/alpha).

    The alpha-powers then satisfy P(X*)^alpha + P(N)^alpha = A^alpha."""
    a = spec.alpha
    p_n = noise_alpha_power(a, spec.gamma_N)
    gap = spec.A**a - p_n**a
    if gap <= 0:
        return 0.0
    return (1.0 / a) ** (1.0 / a) * gap ** (1.0 / a)


def cost_function(x: float, P: float, alpha: float, gamma_N: float) -> float:
    """Input cost C(x, P) = -E_N[ln p_ref((x + N) / P)].

    Quadrature over the cached noise density plus analytic handling of
    the noise tail mass (where the reference log-density is its
    asymptote).  Theta(x^2) at alpha = 2, Theta(ln|x|) below."""
    if not P > 0:
        raise ValueError("P must be positive")
    gam_ref = stable.reference_gamma(alpha)
    f = stable.sas_density(alpha, gamma_N)
    core = float(
        np.trapezoid(
            f.values[f.core] * (-stable.logpdf_sas(alpha, gam_ref, (x + f.x[f.core]) / P)),
            dx=f.h,
        )
    )
    rule = f.tail_rule()
    if rule is None:
        return core
    r, a, c_tail = rule

    def side(sign: float) -> float:
        # int_r^inf c n^(-1-a) (-ln p_ref((x + sign n)/P)) dn on
        # log-spaced nodes; logpdf_sas is valid at any argument
        n = np.geomspace(r, 1e7 * (r + abs(x)), 600)
        neg_lp = -stable.logpdf_sas(alpha, gam_ref, (x + sign * n) / P)
        return float(np.trapezoid(c_tail * n ** (-1.0 - a) * neg_lp, n))

    return core + side(1.0) + side(-1.0)
