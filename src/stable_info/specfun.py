"""Special functions used by the closed-form expressions.

Gamma, digamma and the Gauss hypergeometric function are delegated to
scipy, with argument checking added on top: downstream formulas are
only valid for positive arguments, and 2F1 only for real z < 1.
"""

from __future__ import annotations

import math

import scipy.special as _sc

__all__ = [
    "EULER_GAMMA",
    "gamma_fn",
    "digamma",
    "gauss_2f1",
    "kappa_alpha",
]

EULER_GAMMA = 0.57721566490153286061


def gamma_fn(x: float) -> float:
    """Gamma function for positive real arguments."""
    if not x > 0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    return float(_sc.gamma(x))


def digamma(x: float) -> float:
    """Digamma (psi) function for positive real arguments."""
    if not x > 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    return float(_sc.psi(x))


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) for real z < 1.

    The shape 2F1(a, a; a + 1; z) of the entropy-of-sum bound takes the
    leading terms of its 1/z expansion below z = -1e8, the degenerate
    case of DLMF 15.8.8:

        a Z^(-a) [ln(1 + Z) - psi(a) - gamma_e - (1 - a)/Z],  Z = -z,

    which is good to roundoff there; scipy's hyp2f1 drifts from the
    true value beyond |z| ~ 1e8 and overflows from |z| ~ 1e14."""
    if c <= 0 and c == int(c):
        raise ValueError(f"gauss_2f1 undefined for non-positive integer c={c}")
    if z >= 1:
        raise ValueError(f"gauss_2f1 requires z < 1, got {z}")
    if b == a > 0 and c == a + 1.0 and z < -1e8:
        Z = -z
        return a * Z ** (-a) * (math.log1p(Z) - digamma(a) - EULER_GAMMA - (1.0 - a) / Z)
    return float(_sc.hyp2f1(a, b, c, z))


def kappa_alpha(alpha: float) -> float:
    """Isoperimetric constant exp((alpha-1)(psi(alpha)+gamma_e) - 1).

    Defined on (1, 2]; equals 1 at alpha = 2 and is < 1 below.
    """
    if not 1 < alpha <= 2:
        raise ValueError(f"kappa_alpha requires alpha in (1, 2], got {alpha}")
    return math.exp((alpha - 1.0) * (digamma(alpha) + EULER_GAMMA) - 1.0)
