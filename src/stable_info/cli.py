"""Command-line front end.

Emits the figure tables as CSV and runs bound checks and estimator
benchmarks; the command line is its only input.  Exit codes:
0 success, 1 bound violation, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys

from . import bounds, capacity, estimate, jalpha, stable
from .alphapower import alpha_power
from .density import Cauchy, Gaussian, Laplace, RandomLaw, SaS, Sum, Uniform, realize
from .gridded import GridSpec
from .report import SLACK_TOL
from .specfun import kappa_alpha

__all__ = ["main"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# the seed of crb-bench when --seed is not given, and of the suite
DEFAULT_SEED = 12345


def finite(text: str) -> float:
    """argparse type: a finite number."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {text!r}")
    return x


# law spec names: the lower-cased class names
_LAWS = {cls.__name__.lower(): cls for cls in (Gaussian, Uniform, Laplace, Cauchy, SaS)}


def parse_law(spec: str) -> RandomLaw:
    """Law spec strings: gaussian:SIGMA, uniform:A, laplace:B,
    cauchy:GAMMA, sas:ALPHA:GAMMA; a one-parameter law defaults to 1."""
    name, *parts = spec.lower().split(":")
    if name not in _LAWS:
        raise ValueError(f"unknown law {name!r}")
    cls = _LAWS[name]
    fields = [f.name.upper() for f in dataclasses.fields(cls)]
    args = [finite(p) for p in parts]
    if not args and len(fields) == 1:
        args = [1.0]
    if len(args) != len(fields):
        raise ValueError(f"bad law spec {spec!r}, expected {name}:{':'.join(fields)}")
    return cls(*args)


def _law_label(law: RandomLaw) -> str:
    """The spec string parse_law reads back into the law."""
    return ":".join([type(law).__name__.lower(), *(f"{v:g}" for v in dataclasses.astuple(law))])


def _emit(args, doc, header: list | None = None) -> None:
    """Write to --output or stdout: a table of rows under header as CSV
    (as a list of records with --format json), or, without a header,
    the JSON document doc."""
    if header is None or args.format == "json":
        if header is not None:
            doc = [dict(zip(header, r)) for r in doc]
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(doc)
        text = buf.getvalue()
    if args.path:
        with open(args.path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _comma_list(parse):
    """argparse type: comma-separated items, each read by parse."""

    def parse_list(text: str) -> list:
        try:
            return [parse(s) for s in text.split(",")]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse_list


_floats = _comma_list(finite)
_laws = _comma_list(parse_law)


DEFAULT_POWER_ALPHAS = [round(0.4 + 0.2 * i, 1) for i in range(8)]  # 0.4 .. 1.8
DEFAULT_POWER_LAWS = [
    Gaussian(1.0),
    Uniform(1.0),
    Laplace(1.0),
    Cauchy(1.0),
    SaS(1.5, 1.0),
]


def cmd_power_table(args) -> int:
    rows = []
    status = EXIT_OK
    for a in args.alphas:
        for law in args.laws:
            try:
                res = alpha_power(law, a)
                value = "infinite" if not res.finite else f"{res.value:.10g}"
                residual = "" if not res.finite else f"{res.residual:.3g}"
                rows.append([a, _law_label(law), value, res.method, residual, ""])
            except ArithmeticError as exc:
                rows.append([a, _law_label(law), "", "", "", str(exc)])
                status = EXIT_NUMERIC
    _emit(args, rows, ["alpha", "law", "alpha_power", "method", "residual", "error"])
    return status


def _alpha_major(args, row) -> list:
    """row(a, r) over the alphas x rs table, computed r outer so each
    law's realizations are reused across the alphas, listed alpha
    major."""
    cols = [[row(a, r) for a in args.alphas] for r in args.rs]
    return [col[i] for i in range(len(args.alphas)) for col in cols]


def cmd_jalpha_table(args) -> int:
    def row(a, r):
        gam = r ** (-1.0 / r)
        j = jalpha.jalpha_of_law(SaS(r, gam), a)
        rel = ""
        if math.isclose(r, a):
            closed = jalpha.jalpha_closed_stable(a, gam)
            rel = f"{(j.value - closed) / closed:.3g}"
        return [a, r, f"{j.value:.10g}", j.method, rel]

    header = ["alpha", "r", "J_alpha", "method", "relerr_vs_closed_form_if_stable"]
    _emit(args, _alpha_major(args, row), header)
    return EXIT_OK


def cmd_giie_table(args) -> int:
    def row(a, r):
        rep = bounds.giie_product(SaS(r, r ** (-1.0 / r)), a)
        return [a, r, f"{rep.lhs:.10g}", f"{rep.rhs:.10g}"], rep.holds()

    rows, holds = zip(*_alpha_major(args, row))
    _emit(args, list(rows), ["alpha", "r", "product", "kappa_alpha"])
    return EXIT_OK if all(holds) else EXIT_VIOLATION


def cmd_giie_mix(args) -> int:
    pairs = bounds.giie_mix_products(args.sigmas, alpha=1.8)
    k18 = kappa_alpha(1.8)
    rows = [[s, f"{p:.10g}", f"{k18:.10g}"] for s, p in pairs]
    status = EXIT_OK if all(p >= k18 - SLACK_TOL for _, p in pairs) else EXIT_VIOLATION
    _emit(args, rows, ["sigma", "product", "kappa_18"])
    return status


def cmd_sum_bound(args) -> int:
    alpha = args.alpha
    gamma = args.gamma
    noise = SaS(alpha, gamma)
    rows = []
    status = EXIT_OK
    for law in args.laws:
        law_s, f = jalpha.spectral_realization(law, alpha)
        h_x = f.entropy()
        j_x = jalpha.jalpha_spectral(f, alpha).value
        h_bound = bounds.entropy_sum_upper(h_x, j_x, alpha, gamma)
        h_num = realize(Sum(law_s, noise), GridSpec(f.n, f.half_extent)).entropy()
        slack = h_bound - h_num
        rows.append(
            [_law_label(law), alpha, gamma, f"{h_num:.10g}", f"{h_bound:.10g}", f"{slack:.6g}"]
        )
        if slack < -SLACK_TOL:
            status = EXIT_VIOLATION
    _emit(args, rows, ["law", "alpha", "gamma", "h_sum_numeric", "h_sum_bound", "slack"])
    return status


def cmd_debruijn_check(args) -> int:
    law = parse_law(args.law)
    rep = jalpha.debruijn_check(law, args.alpha, args.gamma, args.eta)
    _emit(
        args,
        {
            "name": rep.name,
            "lhs": rep.lhs,
            "rhs": rep.rhs,
            "relative_error": rep.method["relative_error"],
            "inputs": rep.inputs,
        },
    )
    return EXIT_OK if rep.method["relative_error"] <= args.tol else EXIT_VIOLATION


def cmd_capacity(args) -> int:
    spec = capacity.ChannelSpec(args.alpha, args.gamma_n, args.A, args.d)
    gamma_x = capacity.optimal_input_scale(spec)
    p_n = capacity.noise_alpha_power(spec.alpha, spec.gamma_N)
    payload = {
        "C_nats": capacity.capacity_stable(spec),
        "gamma_x_star": gamma_x,
        "p_alpha_N": p_n,
        "checks": {
            "power_combination": (
                capacity.noise_alpha_power(spec.alpha, gamma_x) ** spec.alpha
                + p_n**spec.alpha
            )
            ** (1.0 / spec.alpha)
            if gamma_x > 0
            else p_n,
        },
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_crb_bench(args) -> int:
    run = estimate.EstimatorRun(
        estimator=args.estimator,
        theta_true=args.theta,
        noise=stable.StableParams.symmetric(args.alpha, args.gamma_n),
        trials=args.trials,
        samples_per_trial=args.n,
        seed=args.seed,
        K=args.K,
    )
    run = estimate.run_estimator(run)
    payload = {
        "estimator": run.estimator,
        "error_alpha_power": run.error_alpha_power,
        "crb": run.crb,
        "ratio": None if run.crb is None else run.error_alpha_power / run.crb,
        "diagnostics": run.diagnostics,
    }
    if args.errors_csv:
        with open(args.errors_csv, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["error"])
            for e in run.errors:
                w.writerow([repr(float(e))])
    _emit(args, payload)
    if run.crb is not None and run.error_alpha_power < run.crb * (1.0 - 0.02):
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_suite(args) -> int:
    """Aggregated bound checks at a reduced matrix size."""
    results = {}
    violations = []

    def record(key, ok, detail):
        results[key] = {"pass": bool(ok), **detail}
        if not ok:
            violations.append(key)

    rep = jalpha.debruijn_check(Gaussian(1.0), 1.5, 1.0, 0.5)
    record(
        "debruijn_gaussian",
        rep.method["relative_error"] <= 0.02,
        {"relative_error": rep.method["relative_error"]},
    )
    rep = bounds.gfii_check(SaS(1.5, 1.0), SaS(1.5, 1.0), 1.5)
    record("gfii_stable", rep.holds(), {"slack": rep.slack})
    for a in (1.2, 1.6, 2.0):
        rep = bounds.giie_product(SaS(1.8, 1.0), a) if a < 2 else bounds.giie_product(
            Gaussian(1.0), a
        )
        record(f"giie_alpha_{a}", rep.holds(), {"slack": rep.slack})
    pairs = bounds.giie_mix_products([0.5 * i for i in range(17)])
    argmin_sigma = min(pairs, key=lambda sp: sp[1])[0]
    k18 = kappa_alpha(1.8)
    worst = min(p for _, p in pairs)
    record(
        "giie_mix_bound",
        worst >= k18 - SLACK_TOL,
        {"worst_product": worst, "kappa_18": k18, "argmin_sigma": argmin_sigma},
    )
    record(
        "kappa_2_unity",
        abs(kappa_alpha(2.0) - 1.0) <= 1e-10,
        {"kappa_2": kappa_alpha(2.0)},
    )
    run = estimate.run_estimator(
        estimate.EstimatorRun(
            estimator="ml_identity",
            theta_true=0.0,
            noise=stable.StableParams.symmetric(1.8, 1.0),
            trials=2000,
            samples_per_trial=1,
            seed=DEFAULT_SEED,
        )
    )
    record(
        "crb_ml_identity",
        run.error_alpha_power >= run.crb * 0.98,
        {"error_alpha_power": run.error_alpha_power, "crb": run.crb},
    )
    _emit(args, {"results": results, "violations": violations})
    return EXIT_OK if not violations else EXIT_VIOLATION


class _Parser(argparse.ArgumentParser):
    """Hands a bad command line to main as a configuration error instead
    of exiting from inside argparse."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by
    every main call.  Its list defaults are tuples, so parsing leaves
    no state on it."""
    p = _Parser(
        prog="stable-info",
        description="Alpha-power / alpha-Fisher information numerics for "
        "symmetric alpha-stable laws",
    )
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", dest="path", help="output file (default stdout)")
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("power-table", help="alpha-power sweep over laws")
    sp.add_argument(
        "--alphas",
        type=_floats,
        default=tuple(DEFAULT_POWER_ALPHAS),
        help="comma-separated alpha values",
    )
    sp.add_argument(
        "--laws", type=_laws, default=tuple(DEFAULT_POWER_LAWS), help="comma-separated law specs"
    )
    sp.set_defaults(fn=cmd_power_table)

    # the r sweep of both tables is the power-table alpha sweep, 0.4 .. 1.8
    sp = sub.add_parser("jalpha-table", help="alpha-Fisher information of S(r, r^(-1/r))")
    sp.add_argument("--alphas", type=_floats, default=(1.2, 1.4, 1.6, 1.8))
    sp.add_argument("--rs", type=_floats, default=tuple(DEFAULT_POWER_ALPHAS))
    sp.set_defaults(fn=cmd_jalpha_table)

    sp = sub.add_parser("giie-table", help="isoperimetric products over stable laws")
    sp.add_argument("--alphas", type=_floats, default=(1.2, 1.4, 1.6, 1.8, 2.0))
    sp.add_argument("--rs", type=_floats, default=tuple(DEFAULT_POWER_ALPHAS))
    sp.set_defaults(fn=cmd_giie_table)

    sp = sub.add_parser("giie-mix", help="isoperimetric product, stable + Gaussian mix")
    sp.add_argument("--sigmas", type=_floats, default=tuple(0.5 * i for i in range(17)))
    sp.set_defaults(fn=cmd_giie_mix)

    sp = sub.add_parser("sum-bound", help="entropy-of-sum upper bound check")
    sp.add_argument("--laws", type=_laws, default=(Gaussian(1.0), Laplace(1.0)))
    sp.add_argument("--alpha", type=finite, default=1.5)
    sp.add_argument("--gamma", type=finite, default=1.0)
    sp.set_defaults(fn=cmd_sum_bound)

    sp = sub.add_parser("debruijn-check", help="generalized de Bruijn identity check")
    sp.add_argument("--law", default="gaussian:1")
    sp.add_argument("--alpha", type=finite, default=1.5)
    sp.add_argument("--gamma", type=finite, default=1.0)
    sp.add_argument("--eta", type=finite, default=0.5)
    sp.add_argument("--tol", type=finite, default=0.02)
    sp.set_defaults(fn=cmd_debruijn_check)

    sp = sub.add_parser("capacity", help="stable channel capacity")
    sp.add_argument("--alpha", type=finite, required=True)
    sp.add_argument("--gamma-n", type=finite, required=True)
    sp.add_argument("--A", type=finite, required=True)
    sp.add_argument("--d", type=int, default=1)
    sp.set_defaults(fn=cmd_capacity)

    sp = sub.add_parser("crb-bench", help="estimator benchmark vs generalized CRB")
    sp.add_argument("--alpha", type=finite, default=1.8)
    sp.add_argument("--gamma-n", type=finite, default=1.0)
    sp.add_argument("--estimator", choices=estimate.ESTIMATORS, default="ml_identity")
    sp.add_argument("--trials", type=int, default=10000)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--theta", type=finite, default=0.0)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--K", type=finite)
    sp.add_argument("--errors-csv", help="optional CSV path for the raw errors")
    sp.set_defaults(fn=cmd_crb_bench)

    sp = sub.add_parser("suite", help="run every bound family and summarize")
    sp.set_defaults(fn=cmd_suite)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "fn", None):
            parser.print_help()
            return EXIT_CONFIG
        return args.fn(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
