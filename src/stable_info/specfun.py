"""Special functions used by the closed-form expressions, in numpy and
the standard library.

Gamma is math.gamma.  Digamma takes the recurrence up to x >= 10, then
the asymptotic series, and is exact at the small integers where its
value is the harmonic sum.  The Hurwitz zeta function is Euler-Maclaurin
summation (Johansson 2015).  Of the Gauss hypergeometric function only
the shape 2F1(b, b; b + 1; -t) of the entropy-of-sum bound is taken,
by a series in t/(1 + t) or one in 1/(1 + t).  Downstream formulas are
only valid for positive arguments, so the argument checks stay.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "gamma_fn",
    "digamma",
    "hurwitz_zeta",
    "gauss_2f1",
    "kappa_alpha",
]

EULER_GAMMA = 0.57721566490153286061

# Bernoulli numbers B_2 .. B_20
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
_BERNOULLI += (-3617 / 510, 43867 / 798, -174611 / 330)
# Euler-Maclaurin for zeta(s, q): 12 direct terms, then 9 Bernoulli
# terms at a = q + 12 >= 12.5; the first term left out is below 1e-20
# of the sum for s > 1 and q in [0.5, 1.5]
_ZETA_DIRECT = 12
_ZETA_B = np.array([b / math.factorial(2 * j) for j, b in enumerate(_BERNOULLI[:9], 1)])


def gamma_fn(x: float) -> float:
    """Gamma function for positive real arguments."""
    if not x > 0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


def digamma(x: float) -> float:
    """Digamma (psi) function for positive real arguments: -gamma_e plus
    the harmonic sum at the integers below 10, else
    psi(x) = psi(x + m) - sum_{k<m} 1/(x + k) with x + m >= 10 and the
    asymptotic series ln y - 1/(2y) - sum_k B_2k/(2k y^2k) at y = x + m,
    summed by fsum."""
    if not x > 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    if x < 10 and x == int(x):
        return math.fsum(1.0 / k for k in range(1, int(x))) - EULER_GAMMA
    terms = []
    while x < 10:
        terms.append(-1.0 / x)
        x += 1.0
    v = 1.0 / (x * x)
    series = 0.0
    for k in range(len(_BERNOULLI), 0, -1):
        series = series * v + _BERNOULLI[k - 1] / (2 * k)
    return math.fsum(terms + [math.log(x), -0.5 / x, -series * v])


def hurwitz_zeta(s, q) -> np.ndarray:
    """zeta(s, q) = sum_{k>=0} (q + k)^-s at every pair of the 1-D
    arrays s (each > 1) and q (each in [0.5, 1.5], where it is good to
    roundoff), shape (q.size, s.size): the first 12 terms directly, then
    the Euler-Maclaurin remainder at a = q + 12,

        a^-s [a/(s - 1) + 1/2 + sum_j B_2j/(2j)! s(s+1)...(s+2j-2) a^(1-2j)],

    the sum in j by Horner's rule in 1/a^2.  Every element takes the same
    operations in the same order whatever the sizes of s and q."""
    s, q = np.asarray(s, dtype=float), np.asarray(q, dtype=float)
    direct = np.add.reduce((q + np.arange(_ZETA_DIRECT)[:, None])[:, :, None] ** -s, axis=0)
    a = (q + _ZETA_DIRECT)[:, None]
    # rows s, s(s+1)(s+2), ...: every other row of the running product
    coef = _ZETA_B[:, None] * np.cumprod(s + np.arange(2 * _ZETA_B.size - 1)[:, None], axis=0)[::2]
    v = 1.0 / (a * a)
    series = coef[-1] * v
    for c in coef[-2:0:-1]:
        series += c
        series *= v
    series += coef[0]
    return direct + a**-s * (a / (s - 1.0) + 0.5 + series / a)


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(b, b; b + 1; z) for b in (0, 1]
    and z = -t <= 0, the shape of the entropy-of-sum bound; any other
    shape raises ValueError.

    By Pfaff's transformation it is b t^-b int_0^x u^(b-1)/(1 - u) du with
    x = t/(1 + t).  For x <= 1/2 the integral is the series
    sum_n x^(n+b)/(n + b); above, with y = 1/(1 + t), it is
    -ln y - psi(b) - gamma_e - sum_k c_k y^k/k, where c_0 = 1 and
    c_k = c_(k-1) (k - b)/k.  Either series gains a bit a term."""
    if not (a == b and c == b + 1.0 and 0 < b <= 1):
        raise ValueError(f"gauss_2f1 takes only 2F1(b, b; b + 1; z), 0 < b <= 1; got {(a, b, c)}")
    if not z <= 0:
        raise ValueError(f"gauss_2f1 requires z <= 0, got {z}")
    t = -z
    x = t / (1.0 + t)
    total, k = 0.0, 0
    if x <= 0.5:
        xk = 1.0
        while xk > 1e-17:
            total += xk / (k + b)
            k += 1
            xk *= x
        return b * math.exp(-b * math.log1p(t)) * total
    y = 1.0 / (1.0 + t)
    ck, yk = 1.0, 1.0
    while yk > 1e-17:
        k += 1
        ck *= (k - b) / k
        yk *= y
        total += ck * yk / k
    return b * t**-b * (math.log1p(t) - digamma(b) - EULER_GAMMA - total)


def kappa_alpha(alpha: float) -> float:
    """Isoperimetric constant exp((alpha-1)(psi(alpha)+gamma_e) - 1).

    Defined on (1, 2]; equals 1 at alpha = 2 and is < 1 below.
    """
    if not 1 < alpha <= 2:
        raise ValueError(f"kappa_alpha requires alpha in (1, 2], got {alpha}")
    return math.exp((alpha - 1.0) * (digamma(alpha) + EULER_GAMMA) - 1.0)
