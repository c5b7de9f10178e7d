"""Special functions used by the closed-form expressions, in numpy and
the standard library.

Gamma is math.gamma.  Digamma is exact at the small integers, where its
value is the harmonic sum; below 2 it is its Taylor series about its
root, good to about an ulp there, and from 2 up the recurrence to
x >= 10, then the asymptotic series.  The Hurwitz zeta function is
Euler-Maclaurin summation (Johansson 2015).  Of the Gauss hypergeometric function only
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


def _exact_product(a: float, b: float) -> list[float]:
    """Four floats summing to a * b exactly: each factor split into two
    halves of at most 26 bits (Dekker 1971), whose products are exact."""
    halves = []
    for v in (a, b):
        c = 134217729.0 * v
        hi = c - (c - v)
        halves.append((hi, v - hi))
    (ah, al), (bh, bl) = halves
    return [ah * bh, ah * bl, al * bh, al * bl]


def digamma(x: float) -> float:
    """Digamma (psi) function for positive real arguments: -gamma_e plus
    the harmonic sum at the integers below 10.  Below 2 it is psi's
    Taylor series about its root x0, at d = x - x0 taken from x itself
    and x0's two parts, less 1/x when x < 1 (psi(x) = psi(x + 1) - 1/x),
    which keeps its relative accuracy at the root.  From 2 up it is
    psi(x) = psi(x + m) - sum_{k<m} 1/(x + k) with x + m >= 10 and the
    asymptotic series ln y - 1/(2y) - sum_k B_2k/(2k y^2k) at y = x + m,
    summed by fsum."""
    if not x > 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    if x < 10 and x == int(x):
        return math.fsum(1.0 / k for k in range(1, int(x))) - EULER_GAMMA
    if x < 2:
        # d = x + shift - x0, its first part exact where x and the
        # shifted root lie within a factor 2 of each other
        shift = 1.0 if x < 1 else 0.0
        d = x - (_PSI_ROOT - shift)
        dd = d - _PSI_ROOT_LO
        q = 0.0
        for c in reversed(_PSI_TAYLOR):
            q = q * dd + c
        # psi(x + shift) = (d - lo)(c_1 + dd q), the leading product exact
        t = dd * q
        terms = _exact_product(d, _PSI_SLOPE) + [d * t, -_PSI_ROOT_LO * (_PSI_SLOPE + t)]
        if shift:
            # 1/x as r plus the residual (1 - r x)/x, r x taken exactly
            r = 1.0 / x
            terms += [-r, -math.fsum([1.0] + [-p for p in _exact_product(r, x)]) / x]
        return math.fsum(terms)
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


# psi's positive root x0 = _PSI_ROOT + _PSI_ROOT_LO (the second part the
# remainder of the first) and its slope there, psi'(x0) = zeta(2, x0)
# rounded (both from mpmath at 50 digits), then psi's further Taylor
# coefficients about x0, psi^(k)(x0)/k! = (-1)^(k+1) zeta(k + 1, x0)
# for k = 2 .. 41: on |x - x0| <= 0.54 the first term left out is below
# 1e-18 of psi
_PSI_ROOT, _PSI_ROOT_LO = 1.4616321449683622, 9.549995429965697e-17
_PSI_SLOPE = 0.9676722454476212
_PSI_TAYLOR = (
    hurwitz_zeta(np.arange(3.0, 43.0), [_PSI_ROOT])[0] * (-1.0) ** np.arange(3, 43)
).tolist()


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
