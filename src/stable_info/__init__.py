"""Numerics for the alpha-power and alpha-Fisher information of
heavy-tailed (symmetric alpha-stable) environments, with the associated
entropy inequalities, channel capacity, and estimation bounds."""

from .alphapower import AlphaPowerResult, alpha_power, g_of_P
from .bounds import (
    EntropyPowerAlpha,
    entropy_power_alpha,
    entropy_sum_upper,
    gfii_check,
    giie_product,
)
from .capacity import ChannelSpec, capacity_stable, cost_function, optimal_input_scale
from .density import (
    Cauchy,
    Empirical,
    Gaussian,
    Laplace,
    RandomLaw,
    SaS,
    Scaled,
    Shifted,
    Sum,
    Uniform,
    convolve,
    realize,
)
from .estimate import (
    EstimatorRun,
    crb_general,
    crb_stable,
    myriad_estimate,
    run_estimator,
)
from .gridded import GriddedDensity, GridSpec, TailLaw
from .jalpha import (
    JAlphaEstimate,
    debruijn_check,
    jalpha_closed_stable,
    jalpha_finite_diff,
    jalpha_of_law,
    jalpha_spectral,
)
from .report import BoundReport
from .specfun import EULER_GAMMA, digamma, gamma_fn, gauss_2f1, kappa_alpha
from .stable import (
    StableParams,
    logpdf_sas,
    pdf_grid_sas,
    reference_entropy,
    sample_sas,
    tail_constant_k1,
)

__version__ = "0.1.0"
