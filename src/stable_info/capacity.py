"""Additive stable channel under an output alpha-power constraint.

With noise N ~ S(alpha, gamma_N) and the output power capped at A, the
capacity is d ln(A / P_alpha(N)) and the optimal input is stable with
the complementary scale.  The cost function is the expected reference
log-loss of a shifted noise observation, which is the alpha-power's
g(P) of the shifted noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .alphapower import g_of_P
from .density import SaS, Shifted

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
    """Input cost C(x, P) = -E_N[ln p_ref((x + N) / P)]: the alpha-power's
    g(P) (alphapower.g_of_P) of the shifted noise x + N, on the same
    quadrature rule.  Theta(x^2) at alpha = 2, Theta(ln|x|) below."""
    return g_of_P(Shifted(SaS(alpha, gamma_N), x), alpha, P)
