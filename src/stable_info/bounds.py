"""Inequalities on entropy and alpha-Fisher information.

Covers the generalized Fisher information inequality for sums, the
hypergeometric upper bound on the entropy of a sum with a stable
component, and the isoperimetric lower bound N_alpha J_alpha >= kappa.
"""

from __future__ import annotations

import math

from . import jalpha as jmod
from . import stable
from .density import Gaussian, RandomLaw, SaS, Sum
from .report import BoundReport
from .specfun import gauss_2f1, kappa_alpha

__all__ = [
    "entropy_power_alpha",
    "gfii_check",
    "entropy_sum_upper",
    "giie_product",
    "giie_mix_products",
]


def entropy_power_alpha(h: float, alpha: float) -> float:
    """Entropy power of order alpha of a univariate law with entropy h:
    exp(alpha (h - h_ref))."""
    if not 1 < alpha <= 2:
        raise ValueError(f"alpha must be in (1, 2], got {alpha}")
    return math.exp(alpha * (h - stable.reference_entropy(alpha)))


def gfii_check(law1: RandomLaw, law2: RandomLaw, alpha: float) -> BoundReport:
    """Superadditivity of J_alpha^(1/(1-alpha)) over independent sums:

        J^(1/(1-a))(Y1+Y2) >= J^(1/(1-a))(Y1) + J^(1/(1-a))(Y2)

    The exponent 1/(1-alpha) is negative, so smaller information means a
    larger transformed term.  slack = lhs - rhs."""
    if not 1 < alpha <= 2:
        raise ValueError(f"alpha must be in (1, 2], got {alpha}")
    e = 1.0 / (1.0 - alpha)
    j_sum = jmod.jalpha_of_law(Sum(law1, law2), alpha).value
    j1 = jmod.jalpha_of_law(law1, alpha).value
    j2 = jmod.jalpha_of_law(law2, alpha).value
    lhs = j_sum**e
    rhs = j1**e + j2**e
    return BoundReport(
        name="gfii",
        lhs=lhs,
        rhs=rhs,
        slack=lhs - rhs,
        inputs={"law1": repr(law1), "law2": repr(law2), "alpha": alpha},
        method={"j_sum": j_sum, "j1": j1, "j2": j2},
    )


def entropy_sum_upper(
    h_X: float, J_alpha_X: float, alpha: float, gamma: float, d: int = 1
) -> float:
    """Upper bound on h(X + Z) for Z ~ S(alpha, gamma) independent of X:

        h(X) + gamma^a J_a(X) 2F1(a-1, a-1; a; -((a gamma^a / d) J_a(X))^(1/(a-1)))

    At alpha = 2 this reduces to h(X) + (d/2) ln(1 + (sigma^2/d) J(X))
    through the identity ln(1+t) = t 2F1(1,1;2;-t)."""
    if not 1 < alpha <= 2:
        raise ValueError(f"alpha must be in (1, 2], got {alpha}")
    if J_alpha_X < 0:
        raise ValueError("J_alpha_X must be nonnegative")
    if J_alpha_X == 0:
        return h_X
    t = (alpha * gamma**alpha / d * J_alpha_X) ** (1.0 / (alpha - 1.0))
    return h_X + gamma**alpha * J_alpha_X * gauss_2f1(
        alpha - 1.0, alpha - 1.0, alpha, -t
    )


def giie_product(law: RandomLaw, alpha: float) -> BoundReport:
    """Isoperimetric product of a univariate law:
    N_alpha(X) J_alpha(X) >= kappa_alpha."""
    if not 1 < alpha <= 2:
        raise ValueError(f"alpha must be in (1, 2], got {alpha}")
    _, f = jmod.spectral_realization(law, alpha)
    h = f.entropy()
    j = jmod.jalpha_spectral(f, alpha)
    n_a = entropy_power_alpha(h, alpha)
    lhs = n_a * j.value
    rhs = kappa_alpha(alpha)
    return BoundReport(
        name="giie",
        lhs=lhs,
        rhs=rhs,
        slack=lhs - rhs,
        inputs={"law": repr(law), "alpha": alpha},
        method={"entropy": h, "j_alpha": j.value, "n_alpha": n_a},
    )


def giie_mix_products(sigmas, alpha: float = 1.8) -> list:
    """Isoperimetric products for X = S(alpha, alpha^(-1/alpha)) + N(0, sigma^2)
    over a sigma sweep.  Returns (sigma, product) pairs."""
    base = SaS(alpha, (1.0 / alpha) ** (1.0 / alpha))
    out = []
    for s in sigmas:
        law = base if s == 0 else Sum(base, Gaussian(float(s)))
        out.append((float(s), giie_product(law, alpha).lhs))
    return out
