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
# refinement steps: after step k a bracket is below 2^((3 - k)/2) of the
# one it started from (see _refine_minimum), so this many take any finite
# bracket, below 2^1024, under 1e-10 > 2^-34
_MAX_ITER = 2 * (1024 + 34) + 3
# |ln| of a product of the myriad's factors stays below this, inside
# the normal doubles (ln 2^-1022 = -708.4, ln of the largest 709.8)
_LN_RANGE = 700.0


def _refine_minimum(x: np.ndarray, pad: float, scan, dloss) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise brackets (a, b) of a local minimizer of
    sum_i loss(x_i - theta) over theta.

    A grid of _GAP_POINTS per gap between each row's sorted samples,
    padded by `pad` at both ends, spans the whole sample hull; its
    argmin, found in blocks of at most _BLOCK_POINTS grid points, where
    scan(x, grid) gives the objective of the rows x at their grid
    points, is bracketed by the nearest distinct grid values (duplicate
    samples leave zero-width gaps).  All rows are then refined together,
    with temporaries the size of x, on the slope
    S(theta) = sum_i dloss(x_i - theta), where dloss(u) is the
    theta-derivative -loss'(u) up to a positive factor, keeping
    S(a) <= 0 <= S(b).  Each step is the Illinois rule (Dowell & Jarratt,
    BIT 1971): regula falsi between the bracket ends, the kept end's
    slope halved when the same end moves twice, and the point moved at
    least tol/2 inside.  It is the midpoint instead where regula falsi
    leaves the bracket, and where the bracket is wider than twice the
    first one times 2^(-k/2) before step k; so at least every other step
    halves the bracket.  Each row stops once b - a < tol = 1e-10 (1 + |a|).

    Rows are independent but for one thing: the myriad's products are
    sized by the block's widest row, so a row whose grid values tie to
    roundoff (mirror-image minima) can pick the other one in a block
    with a row wide enough to shorten them (over 1e15 at n = 10, K = 1)."""
    step = max(1, _BLOCK_POINTS // ((x.shape[1] + 1) * _GAP_POINTS + 1))
    blocks = [_bracket(x[i : i + step], pad, scan) for i in range(0, len(x), step)]
    a, b = np.concatenate(blocks, axis=1)

    def slope(rows, theta):
        """S of row rows[i] at each theta[i, j], theta (len(rows), k)."""
        return dloss(x[rows][:, None, :] - theta[:, :, None]).sum(axis=2)

    r = np.flatnonzero(b - a >= 1e-10 * (1.0 + np.abs(a)))
    fa, fb = np.zeros(len(x)), np.zeros(len(x))
    fa[r], fb[r] = slope(r, np.stack([a[r], b[r]], axis=1)).T
    # Where the objective is flat to roundoff across grid points, the grid
    # argmin can fall off the basin and the slope changes sign nowhere in
    # (a, b).  Such a row searches the padded hull instead, whose ends
    # every loss slopes down to (left) and up from (right).
    miss = r[(fa[r] > 0) | (fb[r] < 0)]
    if miss.size:
        a[miss], b[miss] = x[miss].min(axis=1) - pad, x[miss].max(axis=1) + pad
        fa[miss], fb[miss] = slope(miss, np.stack([a[miss], b[miss]], axis=1)).T
    moved = np.zeros(len(x))  # +1 when the last step moved b, -1 when a
    # a falsi step needs a bracket no wider than this, twice the first
    # bracket at the start and 2^-(1/2) of it a step later: at least every
    # other step halves, and an Illinois cycle fits in the slack
    limit = 2.0 * (b - a)
    for _ in range(_MAX_ITER):
        tol = 1e-10 * (1.0 + np.abs(a[r]))
        open_ = b[r] - a[r] >= tol
        r, tol = r[open_], tol[open_]
        if r.size == 0:
            break
        ar, br, far, fbr = a[r], b[r], fa[r], fb[r]
        with np.errstate(divide="ignore", invalid="ignore"):
            c = br - fbr * ((br - ar) / (fbr - far))
        falsi = (ar <= c) & (c <= br) & (br - ar <= limit[r])
        # a falsi step lands at least tol/2 inside, so that a root found
        # next to one end is closed from the other side
        c = np.where(falsi, np.clip(c, ar + tol / 2.0, br - tol / 2.0), (ar + br) / 2.0)
        fc = slope(r, c[:, None])[:, 0]
        up = fc > 0
        side = np.where(up, 1.0, -1.0)
        again = moved[r] == side
        a[r] = np.where(up, ar, c)
        b[r] = np.where(up, c, br)
        fa[r] = np.where(up, np.where(again, far / 2.0, far), fc)
        fb[r] = np.where(up, fc, np.where(again, fbr / 2.0, fbr))
        moved[r] = side
        limit[r] *= 0.5**0.5
    return a, b


def _bracket(x: np.ndarray, pad: float, scan) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the grid neighbours (a, b) of the grid argmin."""
    s = np.sort(x, axis=1)
    B = len(s)
    knots = np.concatenate([s[:, :1] - pad, s, s[:, -1:] + pad], axis=1)
    t = np.arange(_GAP_POINTS) / _GAP_POINTS
    grid = (knots[:, :-1, None] + np.diff(knots, axis=1)[:, :, None] * t).reshape(B, -1)
    grid = np.concatenate([grid, knots[:, -1:]], axis=1)
    best = grid[np.arange(B), np.argmin(scan(x, grid), axis=1)][:, None]
    a = np.max(np.where(grid < best, grid, grid[:, :1]), axis=1)
    b = np.min(np.where(grid > best, grid, grid[:, -1:]), axis=1)
    return a, b


def _location_estimate(samples, pad: float, scan, dloss):
    """The midpoint of _refine_minimum's bracket for one sample set (a
    float) or for each row of a (B, n) array (B estimates); one sample
    is its own estimate."""
    x = np.asarray(samples, dtype=float)
    if x.ndim not in (1, 2) or x.size == 0:
        raise ValueError("samples must be a nonempty 1-D set or a (B, n) array")
    rows = np.atleast_2d(x)
    if rows.shape[1] == 1:
        est = rows[:, 0].copy()
    else:
        a, b = _refine_minimum(rows, pad, scan, dloss)
        est = (a + b) / 2.0
    return float(est[0]) if x.ndim == 1 else est


def myriad_estimate(samples, K: float):
    """Sample myriad (Gonzalez & Arce, IEEE TSP 2001): argmin over theta
    of sum ln(K^2 + (x_i - theta)^2).

    samples is one set (returns a float) or a (B, n) array of B sets
    (returns B estimates).  The grid over the whole sample hull finds
    the best basin; there the objective is the ln of products of m
    factors K^2 + (x_i - theta)^2, one ln per m samples, m the most that
    keeps every product a normal double for the block's widest grid.
    The Illinois rule on the closed-form slope
    sum (theta - x_i) / (K^2 + (x_i - theta)^2) refines it, which stays
    accurate where the objective itself is flat to roundoff;
    deterministic."""
    if not K > 0:
        raise ValueError("K must be positive")
    k2 = K * K

    def scan(x, grid):
        # every factor lies in [K^2, K^2 + span^2], so a product of m
        # lies in [e^-_LN_RANGE, e^_LN_RANGE]
        n, span = x.shape[1], np.max(grid[:, -1] - grid[:, 0])
        ln_range = max(-np.log(k2), np.log(k2 + span * span), 1.0)
        m = max(1, int(min(n, _LN_RANGE / ln_range)))
        prod, u = np.empty_like(grid), np.empty_like(grid)
        vals = None
        for j in range(0, n, m):
            np.subtract(x[:, j : j + 1], grid, out=prod)
            prod *= prod
            prod += k2
            for i in range(j + 1, min(j + m, n)):
                np.subtract(x[:, i : i + 1], grid, out=u)
                u *= u
                u += k2
                prod *= u
            if vals is None:
                vals = np.log(prod)
            else:
                vals += np.log(prod, out=prod)
        return vals

    return _location_estimate(samples, K, scan, lambda u: -u / (k2 + u * u))


def ml_location_estimate(samples, alpha: float, gamma: float):
    """Maximum-likelihood location under S(alpha, gamma) noise: argmax of
    the product likelihood, by the same hull-wide grid, summing -ln p
    one sample column at a time, then the Illinois rule on the slope
    sum_i (ln p)'(x_i - theta) of the negative log-likelihood, from the
    spline or closed form of stable.logpdf_sas; one set or a (B, n)
    array, as for myriad_estimate."""
    # refuses a bad noise law also where one sample needs no density
    stable.StableParams(alpha, gamma)

    def scan(x, grid):
        # one sample column at a time, so temporaries stay (rows, grid)
        vals = -stable.logpdf_sas(alpha, gamma, x[:, :1] - grid)
        for i in range(1, x.shape[1]):
            vals -= stable.logpdf_sas(alpha, gamma, x[:, i : i + 1] - grid)
        return vals

    return _location_estimate(
        samples, gamma, scan, lambda u: stable.logpdf_sas(alpha, gamma, u, slope=True)[1]
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


def _row_median(x: np.ndarray) -> np.ndarray:
    """np.median(x, axis=1) of finite rows, bit for bit, by the same
    partition and the same (lo + hi) / 2 of an even row's middle pair;
    np.median also checks for NaN through numpy.ma, an import of about
    10 ms on its first call."""
    h = x.shape[1] // 2
    if x.shape[1] % 2:
        return np.partition(x, h, axis=1)[:, h]
    part = np.partition(x, [h - 1, h], axis=1)
    return (part[:, h - 1] + part[:, h]) / 2.0


def _estimate(run: EstimatorRun, x: np.ndarray) -> np.ndarray:
    """The estimates of every row of x, one sample set per row."""
    if run.estimator == "ml_identity":
        return ml_location_estimate(x, run.noise.alpha, run.noise.gamma)
    if run.estimator == "sample_mean":
        return np.mean(x, axis=1)
    if run.estimator == "sample_median":
        return _row_median(x)
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
