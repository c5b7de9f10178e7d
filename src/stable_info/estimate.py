"""Location estimation under symmetric stable noise.

Monte Carlo harness scoring estimator errors by their alpha-power,
against the generalized Cramer-Rao lower bound
P_alpha(error) >= (d kappa_alpha / J_alpha(N))^(1/alpha).
"""

from __future__ import annotations

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


def _refine_minimum(x: np.ndarray, pad: float, loss, dloss) -> np.ndarray:
    """Row-wise local minimizer of sum_i loss(x_i - theta) over theta.

    A grid of _GAP_POINTS per gap between each row's sorted samples,
    padded by `pad` at both ends, spans the whole sample hull; its
    argmin, found in blocks of at most _BLOCK_POINTS grid points, is
    bracketed by the nearest distinct grid values (duplicate samples
    leave zero-width gaps).  All rows are then refined together, with
    temporaries the size of x, by bisection on the sign of the slope
    sum_i dloss(x_i - theta), where dloss(u) is the theta-derivative
    -loss'(u) up to a positive factor.  Rows are independent, so the
    blocks change no estimate."""
    step = max(1, _BLOCK_POINTS // ((x.shape[1] + 1) * _GAP_POINTS + 1))
    blocks = [_bracket(x[i : i + step], pad, loss) for i in range(0, len(x), step)]
    a, b = np.concatenate(blocks, axis=1)
    for _ in range(_MAX_ITER):
        r = np.flatnonzero(b - a >= 1e-10 * (1.0 + np.abs(a)))
        if r.size == 0:
            break
        mid = (a[r] + b[r]) / 2.0
        up = dloss(x[r] - mid[:, None]).sum(axis=1) > 0
        b[r] = np.where(up, mid, b[r])
        a[r] = np.where(up, a[r], mid)
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


def _location_estimate(samples, pad: float, loss, dloss):
    """_refine_minimum of one sample set (a float) or of each row of a
    (B, n) array (B estimates); one sample is its own estimate."""
    x = np.asarray(samples, dtype=float)
    if x.ndim not in (1, 2) or x.size == 0:
        raise ValueError("samples must be a nonempty 1-D set or a (B, n) array")
    rows = np.atleast_2d(x)
    if rows.shape[1] == 1:
        est = rows[:, 0].copy()
    else:
        est = _refine_minimum(rows, pad, loss, dloss)
    return float(est[0]) if x.ndim == 1 else est


def myriad_estimate(samples, K: float):
    """Sample myriad: argmin over theta of sum ln(K^2 + (x_i - theta)^2).

    samples is one set (returns a float) or a (B, n) array of B sets
    (returns B estimates).  The grid over the whole sample hull finds
    the best basin; bisection on the closed-form slope
    sum (theta - x_i) / (K^2 + (x_i - theta)^2) refines it, which stays
    accurate where the objective itself is flat to roundoff;
    deterministic."""
    if not K > 0:
        raise ValueError("K must be positive")
    k2 = K * K
    return _location_estimate(
        samples, K, lambda u: np.log(k2 + u * u), lambda u: -u / (k2 + u * u)
    )


def ml_location_estimate(samples, alpha: float, gamma: float):
    """Maximum-likelihood location under S(alpha, gamma) noise: argmax of
    the product likelihood, by the same hull-wide grid, then bisection
    on the slope sum_i (ln p)'(x_i - theta) of the negative
    log-likelihood, from the spline or closed form of stable.logpdf_sas;
    one set or a (B, n) array, as for myriad_estimate."""
    # refuses a bad noise law also where one sample needs no density
    stable.StableParams(alpha, gamma)
    return _location_estimate(
        samples,
        gamma,
        lambda u: -stable.logpdf_sas(alpha, gamma, u),
        lambda u: stable.logpdf_sas(alpha, gamma, u, slope=True)[1],
    )


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
