"""Per-layer spans for the traced benchmark run.

The layers are the modules of stable_info.  install() wraps each traced
function once and puts the wrapper in place of every binding of the
original in the package: module attributes such as ``stable.pdf_grid_sas``,
copies made by ``from .x import f`` (``bounds.gauss_2f1``,
``estimate.alpha_power``, the names imported by ``cli``) and class
attributes for methods.  A span's self time is its duration minus the
time covered by traced calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "stable_info"

TRACED = (
    "stable.pdf_grid_sas",
    "stable.sample_sas",
    "stable.logpdf_sas",
    "gridded.GriddedDensity.logpdf",
    "gridded.GriddedDensity.entropy",
    "gridded.GriddedDensity.normalize",
    "density.realize",
    "density.convolve",
    "jalpha.jalpha_spectral",
    "jalpha.jalpha_of_law",
    "alphapower.alpha_power",
    "bounds.giie_product",
    "bounds.entropy_sum_upper",
    "specfun.gauss_2f1",
    "estimate.run_estimator",
    "estimate.myriad_estimate",
    "estimate.ml_location_estimate",
    "cli.main",
)

# counters beyond calls and self time, with their units
EXTRA_COUNTS = (
    "stable.pdf_grid_sas.points",
    "stable.pdf_grid_sas.distinct",
    "jalpha.jalpha_spectral.rejected",
    "alphapower.g_evals",
)


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for f in TRACED:
        out += [(f"{f}.calls", "count"), (f"{f}.self_s", "s")]
    out += [(c, "count") for c in EXTRA_COUNTS]
    out.append(("untraced_s", "s"))
    return out


class Tracer:
    """Spans kept in memory for one worker process."""

    def __init__(self):
        self.enabled = True
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.covered_s = 0.0  # time inside outermost spans
        self._stack = []  # [name, child seconds] per open span
        self._grid_inputs = set()
        self._points = 0
        self._rejected = 0
        self._g_evals = 0
        self._alpha_power_depth = 0

    def wrap(self, name, fn):
        signature = inspect.signature(fn) if name == "stable.pdf_grid_sas" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                grid = bound["grid"]
                self._grid_inputs.add((bound["alpha"], bound["gamma"], grid.n, grid.half_extent))
                self._points += grid.n
            elif name == "stable.logpdf_sas" and self._alpha_power_depth:
                self._g_evals += 1
            elif name == "alphapower.alpha_power":
                self._alpha_power_depth += 1
            self.calls[name] += 1
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                if name == "jalpha.jalpha_spectral":
                    self._rejected += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.self_s[name] += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
                else:
                    self.covered_s += dt
                if name == "alphapower.alpha_power":
                    self._alpha_power_depth -= 1

        return traced

    def install(self) -> None:
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for name in TRACED:
            modname, _, qual = name.partition(".")
            owner = importlib.import_module(f"{PACKAGE}.{modname}")
            *classes, attr = qual.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            if classes:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)

    def metrics(self, wall_s: float) -> dict:
        out = {}
        for f in TRACED:
            out[f"{f}.calls"] = self.calls[f]
            out[f"{f}.self_s"] = self.self_s[f]
        out["stable.pdf_grid_sas.points"] = self._points
        out["stable.pdf_grid_sas.distinct"] = len(self._grid_inputs)
        out["jalpha.jalpha_spectral.rejected"] = self._rejected
        out["alphapower.g_evals"] = self._g_evals
        out["untraced_s"] = max(wall_s - self.covered_s, 0.0)
        return out
