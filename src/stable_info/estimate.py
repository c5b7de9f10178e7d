"""Location estimation under symmetric stable noise.

Monte Carlo harness scoring estimator errors by their alpha-power,
against the generalized Cramer-Rao lower bound
P_alpha(error) >= (d kappa_alpha / J_alpha(N))^(1/alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import stable
from .alphapower import alpha_power
from .density import Empirical
from .jalpha import jalpha_closed_stable
from .specfun import kappa_alpha

__all__ = [
    "EstimatorRun",
    "crb_general",
    "crb_stable",
    "myriad_estimate",
    "ml_location_estimate",
    "run_estimator",
]

ESTIMATORS = ("ml_identity", "sample_mean", "sample_median", "myriad")


def crb_general(J_alpha_N: float, alpha: float, d: int = 1) -> float:
    """(d kappa_alpha / J_alpha(N))^(1/alpha)."""
    if not 1 < alpha <= 2:
        raise ValueError(f"alpha must be in (1, 2], got {alpha}")
    if not J_alpha_N > 0:
        raise ValueError("J_alpha_N must be positive")
    return (d * kappa_alpha(alpha) / J_alpha_N) ** (1.0 / alpha)


def crb_stable(alpha: float, gamma_N: float, d: int = 1) -> float:
    """(alpha kappa_alpha)^(1/alpha) gamma_N; the stable-noise corollary.

    Identical to crb_general at J = d/(alpha gamma_N^alpha)."""
    return crb_general(jalpha_closed_stable(alpha, gamma_N, d), alpha, d)


# grid points laid over each gap between sorted samples
_GAP_POINTS = 32
# rows x grid points scanned at once: keeps the scan's temporaries
# cache-sized whatever the number of trials
_BLOCK_POINTS = 1 << 15
_MAX_ITER = 60
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _refine_minimum(x: np.ndarray, pad: float, loss, dloss=None) -> np.ndarray:
    """Row-wise local minimizer of sum_i loss(x_i - theta) over theta.

    A grid of _GAP_POINTS per gap between each row's sorted samples,
    padded by `pad` at both ends, spans the whole sample hull; its
    argmin, found in blocks of at most _BLOCK_POINTS grid points, is
    bracketed by the nearest distinct grid values (duplicate samples
    leave zero-width gaps).  All rows are then refined together, with
    temporaries the size of x: by bisection on the sign of the slope,
    sum_i dloss(x_i - theta), when dloss is given, else by golden
    section.  Rows are independent, so the blocks change no estimate."""
    step = max(1, _BLOCK_POINTS // ((x.shape[1] + 1) * _GAP_POINTS + 1))
    blocks = [_bracket(x[i : i + step], pad, loss) for i in range(0, len(x), step)]
    a, b = np.concatenate(blocks, axis=1)

    def at(fn, r, theta):
        return fn(x[r] - theta[:, None]).sum(axis=1)

    def unconverged():
        return np.flatnonzero(b - a >= 1e-10 * (1.0 + np.abs(a)))

    if dloss is not None:
        for _ in range(_MAX_ITER):
            r = unconverged()
            if r.size == 0:
                break
            mid = (a[r] + b[r]) / 2.0
            up = at(dloss, r, mid) > 0
            b[r] = np.where(up, mid, b[r])
            a[r] = np.where(up, a[r], mid)
        return (a + b) / 2.0

    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    rows = np.arange(len(x))
    fc, fd = at(loss, rows, c), at(loss, rows, d)
    for _ in range(_MAX_ITER):
        r = unconverged()
        if r.size == 0:
            break
        # left: the minimum is in [a, d], d takes c's place and c is new;
        # else it is in [c, b], c takes d's place and d is new
        left = fc[r] < fd[r]
        a[r] = np.where(left, a[r], c[r])
        b[r] = np.where(left, d[r], b[r])
        kept, fkept = np.where(left, c[r], d[r]), np.where(left, fc[r], fd[r])
        new = np.where(left, b[r] - _INVPHI * (b[r] - a[r]), a[r] + _INVPHI * (b[r] - a[r]))
        fnew = at(loss, r, new)
        c[r], d[r] = np.where(left, new, kept), np.where(left, kept, new)
        fc[r], fd[r] = np.where(left, fnew, fkept), np.where(left, fkept, fnew)
    return (a + b) / 2.0


def _bracket(x: np.ndarray, pad: float, loss) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the grid neighbours (a, b) of the grid argmin."""
    s = np.sort(x, axis=1)
    B, n = s.shape
    knots = np.concatenate([s[:, :1] - pad, s, s[:, -1:] + pad], axis=1)
    t = np.arange(_GAP_POINTS) / _GAP_POINTS
    grid = (knots[:, :-1, None] + np.diff(knots, axis=1)[:, :, None] * t).reshape(B, -1)
    grid = np.concatenate([grid, knots[:, -1:]], axis=1)
    # one sample column at a time, so temporaries stay (rows, grid)
    vals = loss(x[:, :1] - grid)
    for i in range(1, n):
        vals += loss(x[:, i : i + 1] - grid)
    best = grid[np.arange(B), np.argmin(vals, axis=1)][:, None]
    a = np.max(np.where(grid < best, grid, grid[:, :1]), axis=1)
    b = np.min(np.where(grid > best, grid, grid[:, -1:]), axis=1)
    return a, b


def _sample_rows(samples) -> tuple[np.ndarray, bool]:
    """Samples as a (B, n) float array, and whether they came as one set."""
    x = np.asarray(samples, dtype=float)
    if x.ndim not in (1, 2) or x.size == 0:
        raise ValueError("samples must be a nonempty 1-D set or a (B, n) array")
    return np.atleast_2d(x), x.ndim == 1


def _per_set(est: np.ndarray, single: bool):
    return float(est[0]) if single else est


def myriad_estimate(samples, K: float):
    """Sample myriad: argmin over theta of sum ln(K^2 + (x_i - theta)^2).

    samples is one set (returns a float) or a (B, n) array of B sets
    (returns B estimates).  The grid over the whole sample hull finds
    the best basin; bisection on the closed-form slope
    sum (theta - x_i) / (K^2 + (x_i - theta)^2) refines it, which stays
    accurate where the objective itself is flat to roundoff;
    deterministic."""
    x, single = _sample_rows(samples)
    if not K > 0:
        raise ValueError("K must be positive")
    if x.shape[1] == 1:
        return _per_set(x[:, 0].copy(), single)
    k2 = K * K
    est = _refine_minimum(
        x, K, lambda u: np.log(k2 + u * u), lambda u: -u / (k2 + u * u)
    )
    return _per_set(est, single)


def ml_location_estimate(samples, alpha: float, gamma: float):
    """Maximum-likelihood location under S(alpha, gamma) noise: argmax of
    the product likelihood, by the same hull-wide grid and golden-section
    refinement; one set or a (B, n) array, as for myriad_estimate."""
    x, single = _sample_rows(samples)
    if x.shape[1] == 1:
        return _per_set(x[:, 0].copy(), single)
    est = _refine_minimum(x, gamma, lambda u: -stable.logpdf_sas(alpha, gamma, u))
    return _per_set(est, single)


@dataclass
class EstimatorRun:
    estimator: str
    theta_true: float
    noise: stable.StableParams
    trials: int
    samples_per_trial: int
    seed: int
    K: float | None = None
    errors: np.ndarray | None = None
    error_alpha_power: float | None = None
    crb: float | None = None
    diagnostics: dict = field(default_factory=dict)


def _estimate(run: EstimatorRun, x: np.ndarray) -> np.ndarray:
    """The estimates of every row of x, one sample set per row."""
    if run.estimator == "ml_identity":
        return ml_location_estimate(x, run.noise.alpha, run.noise.gamma)
    if run.estimator == "sample_mean":
        return np.mean(x, axis=1)
    if run.estimator == "sample_median":
        return np.median(x, axis=1)
    if run.estimator == "myriad":
        return myriad_estimate(x, run.K if run.K is not None else run.noise.gamma)
    raise ValueError(f"unknown estimator {run.estimator!r}")


def run_estimator(run: EstimatorRun) -> EstimatorRun:
    """Monte Carlo benchmark: per trial, observe theta + noise samples,
    estimate, record the error; then score the error law by its
    alpha-power.  The stable-noise CRB is attached for one sample per
    trial; with more it is None, as that bound is for one observation.

    The noise of the whole run is one draw,
    stable.sample_sas(alpha, gamma, (trials, samples_per_trial), seed),
    trial t being row t, and every estimator works on all rows at once."""
    if run.trials < 1:
        raise ValueError("trials must be >= 1")
    if run.samples_per_trial < 1:
        raise ValueError("samples_per_trial must be >= 1")
    alpha, gamma = run.noise.alpha, run.noise.gamma
    x = run.theta_true + stable.sample_sas(
        alpha, gamma, (run.trials, run.samples_per_trial), seed=run.seed
    )
    errors = _estimate(run, x) - run.theta_true
    run.errors = errors
    run.error_alpha_power = alpha_power(Empirical(errors), alpha).value
    run.crb = crb_stable(alpha, gamma) if run.samples_per_trial == 1 else None
    run.diagnostics["trials"] = run.trials
    return run
