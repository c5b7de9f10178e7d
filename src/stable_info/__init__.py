"""Numerics for the alpha-power and alpha-Fisher information of
heavy-tailed (symmetric alpha-stable) environments, with the associated
entropy inequalities, channel capacity, and estimation bounds.

The names live in the submodules: alphapower, bounds, capacity,
density, estimate, gridded, jalpha, report, specfun and stable."""

__version__ = "0.1.0"
