"""Output checks of the benchmark, against oracles computed apart from
the program.

Nothing here imports stable_info.  The oracles are closed forms
(kappa_alpha from scipy's digamma, J_alpha = 1/(alpha gamma^alpha), the
stable alpha-power alpha^(1/alpha) gamma) and Nolan's integral form of
the stable density (scipy.stats.levy_stable) integrated with
scipy.integrate.quad.  Everything else is a property the method must
have: monotonicity of the J table, local minimality and shift
equivariance of the location estimates, and the inequalities themselves.

check(workload, ops, outputs) returns a Verdict: the problems found per
operation and the measured accuracy of each check.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import warnings
from collections import defaultdict

import numpy as np
from scipy import integrate, special, stats

from spec import FAULTS

ANCHOR_GAUSSIAN_12 = (0.7869 / math.sqrt(2.0), 0.005 / math.sqrt(2.0))
ANCHOR_UNIFORM_08 = (0.1753, 0.002)
# rows of the power table whose g(P) = h(ref) is re-evaluated by quadrature
ORACLE_ROWS = (("gaussian:1", 1.2), ("laplace:1", 1.2), ("uniform:1", 0.8))
ORACLE_TOL = 1e-4
J_CLOSED_TOL = 1e-2
SHIFT_J_TOL = 1e-3
ML_PIN_TOL = 0.02
CRB_RATIO_MIN = 0.98
MIN_STEP = 1e-2  # local-minimum probe, in units of the noise scale
EQUIVARIANCE_TOL = 1e-6
SLACK_TOL = 1e-3
GIIE_ANCHOR_TOL = 1e-3
DEBRUIJN_TOL = 0.02
TAIL_START = 200.0  # in units of gamma


class Verdict:
    """Problems per operation name, and the worst measured value of each
    accuracy figure with the limit it is checked against."""

    def __init__(self):
        self.problems = defaultdict(list)
        self.accuracy = {}

    def require(self, op_name: str, ok: bool, message: str) -> bool:
        if not ok:
            self.problems[op_name].append(message)
        return ok

    def measure(self, key: str, value: float, limit: float, worst=max) -> None:
        old = self.accuracy.get(key)
        self.accuracy[key] = (value if old is None else worst(old[0], value), limit, worst)


# -- oracles ------------------------------------------------------------


def kappa(alpha: float) -> float:
    return math.exp((alpha - 1.0) * (special.digamma(alpha) + np.euler_gamma) - 1.0)


def crb_stable(alpha: float, gamma: float) -> float:
    return (alpha * kappa(alpha)) ** (1.0 / alpha) * gamma


def jalpha_closed(alpha: float, gamma: float) -> float:
    return 1.0 / (alpha * gamma**alpha)


def stable_power(alpha: float, gamma: float) -> float:
    return alpha ** (1.0 / alpha) * gamma


def stable_pdf(x, alpha: float, gamma: float):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return stats.levy_stable.pdf(x, alpha, 0.0, scale=gamma)


def stable_tail_pdf(x: float, alpha: float, gamma: float, terms: int = 10) -> float:
    """Asymptotic series of the symmetric stable density (Feller, vol. II,
    XVII.6), used where levy_stable's integral loses accuracy (beyond
    about 1e5 gamma at alpha = 0.8)."""
    return sum(
        (-1) ** (k + 1)
        * special.gamma(k * alpha + 1.0)
        / special.gamma(k + 1.0)
        * math.sin(k * math.pi * alpha / 2.0)
        * (gamma / x) ** (k * alpha)
        for k in range(1, terms + 1)
    ) / (math.pi * x)


def _quad(fn, lo, hi) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(fn, lo, hi, limit=200, epsabs=1e-10, epsrel=1e-10)[0]


@functools.lru_cache(maxsize=None)
def stable_entropy(alpha: float, gamma: float) -> float:
    """Differential entropy of S(alpha, gamma): quadrature of levy_stable
    up to TAIL_START gamma, then of the tail series in t = ln x, where
    the |x|^(-1-alpha) ln x decay becomes exponential."""

    def plogp(p):
        return -p * math.log(p) if p > 0 else 0.0

    cut, start = 20.0 * gamma, TAIL_START * gamma
    core = _quad(lambda x: plogp(float(stable_pdf(x, alpha, gamma))), 0.0, cut)
    core += _quad(lambda x: plogp(float(stable_pdf(x, alpha, gamma))), cut, start)
    tail = _quad(
        lambda t: plogp(stable_tail_pdf(math.exp(t), alpha, gamma)) * math.exp(t),
        math.log(start),
        math.log(start) + 100.0 / alpha,
    )
    return 2.0 * (core + tail)


def reference_entropy(alpha: float) -> float:
    return stable_entropy(alpha, (1.0 / alpha) ** (1.0 / alpha))


def law_pdf(law, x: float) -> float:
    kind, *args = law
    if kind == "gaussian":
        (s,) = args
        return math.exp(-0.5 * (x / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
    if kind == "laplace":
        (b,) = args
        return math.exp(-abs(x) / b) / (2.0 * b)
    if kind == "uniform":
        (a,) = args
        return 1.0 / (2.0 * a) if abs(x) <= a else 0.0
    raise ValueError(f"no oracle density for {law!r}")


def law_entropy(law) -> float:
    kind, *args = law
    if kind == "gaussian":
        return 0.5 * math.log(2.0 * math.pi * math.e * args[0] ** 2)
    if kind == "laplace":
        return 1.0 + math.log(2.0 * args[0])
    raise ValueError(f"no oracle entropy for {law!r}")


@functools.lru_cache(maxsize=None)
def g_of_power(law: tuple, alpha: float, P: float) -> float:
    """g(P) = -E[ln p_ref(X / P)] for a symmetric light-tailed law."""
    law = list(law)
    gref = (1.0 / alpha) ** (1.0 / alpha)

    def integrand(x):
        p = law_pdf(law, x)
        return -p * math.log(float(stable_pdf(x / P, alpha, gref))) if p > 0 else 0.0

    # the laws are light-tailed: nothing is left beyond 40 scales
    return 2.0 * _quad(integrand, 0.0, law[1] if law[0] == "uniform" else 40.0 * law[1])


def _relerr(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


def _finite_positive(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v) and v > 0


# -- per workload -------------------------------------------------------


def is_known_fault(op: dict, problems: list[str]) -> bool:
    """True if every problem of the operation is the one its fault tag
    names (spec.FAULTS); any other problem is a wrong output."""
    sign = FAULTS.get(op.get("fault"))
    return sign is not None and all(sign in p for p in problems)


def check(workload: str, ops: list[dict], outputs: dict) -> Verdict:
    """Check one round: outputs maps operation name to the worker's record
    ({"error": str | None, "output": dict | None})."""
    v = Verdict()
    ok_ops = []
    for op in ops:
        rec = outputs.get(op["name"])
        if rec is None:
            v.require(op["name"], False, "no result")
        elif rec["error"] is not None:
            v.require(op["name"], False, rec["error"])
        else:
            ok_ops.append((op, rec["output"]))
    {
        "fisher-table": _fisher,
        "power-table": _power,
        "estimator-mc": _estimator,
        "inequality-checks": _inequality,
    }[workload](v, ok_ops)
    return v


def _fisher(v: Verdict, ok_ops) -> None:
    table = {}
    for op, out in ok_ops:
        name, a, law, j = op["name"], op["alpha"], op["law"], out["value"]
        if not v.require(name, _finite_positive(j), f"J_alpha = {j!r}"):
            continue
        if law[0] == "shifted":
            inner = law[1]
            exact = jalpha_closed(a, inner[2]) if inner[1] == a else None
            if exact is not None:
                err = abs(j - exact)
                v.measure("shifted J_alpha abs error", err, SHIFT_J_TOL)
                v.require(name, err <= SHIFT_J_TOL, f"J_alpha {j:.6g} != closed form {exact:.6g}")
            continue
        r, gam = law[1], law[2]
        table[(r, a)] = (name, j)
        if math.isclose(r, a):
            err = _relerr(j, jalpha_closed(a, gam))
            v.measure("J_alpha rel error at r = alpha", err, J_CLOSED_TOL)
            v.require(name, err <= J_CLOSED_TOL, f"J_alpha rel error {err:.3g} vs closed form")
    rs = sorted({r for r, _ in table})
    alphas = sorted({a for _, a in table})
    for a in alphas:
        for r0, r1 in zip(rs, rs[1:]):
            if (r0, a) in table and (r1, a) in table:
                (_, j0), (n1, j1) = table[(r0, a)], table[(r1, a)]
                v.require(n1, j1 > j0, f"J_alpha not increasing in r ({j0:.6g} -> {j1:.6g})")
    for r in rs:
        for a0, a1 in zip(alphas, alphas[1:]):
            if (r, a0) in table and (r, a1) in table:
                (_, j0), (n1, j1) = table[(r, a0)], table[(r, a1)]
                v.require(n1, j1 < j0, f"J_alpha not decreasing in alpha ({j0:.6g} -> {j1:.6g})")


def _power(v: Verdict, ok_ops) -> None:
    for op, out in ok_ops:
        name, a, law, p = op["name"], op["alpha"], op["law"], out["value"]
        if not v.require(name, _finite_positive(p), f"alpha-power = {p!r}"):
            continue
        label = name.split()[1]
        if (label, a) == ("gaussian:1", 1.2):
            target, tol = ANCHOR_GAUSSIAN_12
            v.measure("P_1.2(Gaussian(1)) abs error", abs(p - target), tol)
            v.require(name, abs(p - target) <= tol, f"P = {p:.6g}, want {target:.5g} +/- {tol:.2g}")
        if (label, a) == ("uniform:1", 0.8):
            target, tol = ANCHOR_UNIFORM_08
            v.measure("P_0.8(Uniform(1)) abs error", abs(p - target), tol)
            v.require(name, abs(p - target) <= tol, f"P = {p:.6g}, want {target} +/- {tol}")
        stable_gamma = None
        if law[0] == "sas" and law[1] == a:
            stable_gamma = law[2]
        elif law[0] == "cauchy" and a == 1.0:
            stable_gamma = law[1]
        if stable_gamma is not None:
            err = _relerr(p, stable_power(a, stable_gamma))
            v.measure("closed-form row rel error", err, 1e-9)
            v.require(name, err <= 1e-9, f"P = {p!r} != alpha^(1/alpha) gamma")
        if (label, a) in ORACLE_ROWS:
            resid = abs(g_of_power(tuple(law), a, p) - reference_entropy(a))
            v.measure("|g(P) - h(ref)| by levy_stable quadrature", resid, ORACLE_TOL)
            v.require(name, resid <= ORACLE_TOL, f"|g(P) - h(ref)| = {resid:.3g} at P = {p:.8g}")


def _myriad_objective(x, theta, K):
    return float(np.sum(np.log(K**2 + (x - theta) ** 2)))


def _ml_objective(x, theta, alpha, gamma):
    return -float(np.sum(np.log(stable_pdf(x - theta, alpha, gamma))))


def _check_estimates(v: Verdict, op, out) -> None:
    name, c = op["name"], op["shift"]
    for x, est in zip(op["check_samples"], out["estimates"]):
        x = np.asarray(x)
        if op["estimator"] == "myriad":
            obj = lambda t: _myriad_objective(x, t, op["K"])  # noqa: E731
            step = MIN_STEP * op["K"]
        else:
            obj = lambda t: _ml_objective(x, t, op["alpha"], op["gamma"])  # noqa: E731
            step = MIN_STEP * op["gamma"]
        f0 = obj(est)
        v.require(
            name,
            f0 <= obj(est - step) and f0 <= obj(est + step),
            f"estimate {est:.8g} of samples {np.round(x, 4).tolist()} is not a local minimizer",
        )
    for est, est_c in zip(out["estimates"], out["estimates_shifted"]):
        dev = abs(est_c - est - c)
        v.measure("shift equivariance abs error", dev, EQUIVARIANCE_TOL * (1.0 + abs(c)))
        v.require(name, dev <= EQUIVARIANCE_TOL * (1.0 + abs(c)), f"not shift-equivariant: {dev:.3g}")


def _estimator(v: Verdict, ok_ops) -> None:
    pins = defaultdict(list)  # (alpha, gamma) -> [(name, error power)] of one-sample runs
    for op, out in ok_ops:
        name = op["name"]
        if op["kind"] == "cli":
            _check_crb_bench(v, name, out)
            continue
        a, g = op["alpha"], op["gamma"]
        ep, crb = out["error_alpha_power"], out["crb"]
        if not v.require(name, _finite_positive(ep), f"error alpha-power = {ep!r}"):
            continue
        oracle_crb = crb_stable(a, g)
        if op["n"] == 1:
            # with n > 1 the attached bound is the single-observation one
            # (fault crb-n-sample, shown by crb-bench): it is not checked
            v.require(name, _relerr(crb, oracle_crb) <= 1e-9, f"crb {crb!r} != oracle {oracle_crb!r}")
            pins[(a, g)].append((name, ep))
            ratio = ep / oracle_crb
            v.measure("error power / CRB (n = 1)", ratio, CRB_RATIO_MIN, worst=min)
            v.require(name, ratio >= CRB_RATIO_MIN, f"error power / CRB = {ratio:.4g}")
        else:
            _check_estimates(v, op, out)
    # the pin is on the mean over the runs of an alpha: one run alone has
    # a Monte Carlo spread of up to 1.1 %
    for (a, g), runs in pins.items():
        mean = sum(ep for _, ep in runs) / len(runs)
        err = _relerr(mean, stable_power(a, g))
        v.measure("one-sample ML error power rel error", err, ML_PIN_TOL)
        for name, _ in runs:
            v.require(name, err <= ML_PIN_TOL, f"mean error power {mean:.6g} vs {stable_power(a, g):.6g}")


def _check_crb_bench(v: Verdict, name: str, out) -> None:
    if not v.require(name, out["code"] == 0, f"exit {out['code']}: {out['stderr'].strip()[-200:]}"):
        return
    doc = json.loads(out["stdout"])
    ep = doc["error_alpha_power"]
    v.require(name, _finite_positive(ep), f"error alpha-power = {ep!r}")
    if doc.get("crb") is not None:
        v.require(name, ep >= CRB_RATIO_MIN * doc["crb"], f"bound {doc['crb']!r} violated by {ep!r}")


def _sum_bound_row(out) -> dict:
    rows = list(csv.DictReader(io.StringIO(out["stdout"])))
    if len(rows) != 1:
        raise ValueError(f"expected one sum-bound row, got {len(rows)}")
    return {k: float(rows[0][k]) for k in ("alpha", "gamma", "h_sum_numeric", "h_sum_bound")}


def _inequality(v: Verdict, ok_ops) -> None:
    for op, out in ok_ops:
        name, kind = op["name"], op["kind"]
        if kind == "giie_mix":
            p, k = out["product"], kappa(op["alpha"])
            v.measure("GIIE product - kappa_1.8", p - k, 0.0, worst=min)
            v.require(name, p >= k, f"product {p:.6g} < kappa {k:.6g}")
            if op["sigma"] == 0:
                v.measure("GIIE product at sigma = 0, abs error", abs(p - 1.0), GIIE_ANCHOR_TOL)
                v.require(name, abs(p - 1.0) <= GIIE_ANCHOR_TOL, f"product {p:.6g} != 1")
        elif kind == "gfii":
            _check_gfii(v, op, out)
        elif kind == "debruijn":
            rel = out["relative_error"]
            v.measure("de Bruijn relative error", rel, DEBRUIJN_TOL)
            v.require(name, rel < DEBRUIJN_TOL, f"relative error {rel:.3g}")
            law, a, g, eta = op["law"], op["alpha"], op["gamma"], op["eta"]
            if law[0] == "sas" and law[1] == a:
                # X_eta is S(a, (g_law^a + eta g^a)^(1/a)): both sides are
                # g^a / (a g_eta^a)
                exact = g**a / (a * (law[2] ** a + eta * g**a))
                for side in ("lhs", "rhs"):
                    err = _relerr(out[side], exact)
                    v.measure("de Bruijn stable chain vs closed form", err, DEBRUIJN_TOL)
                    v.require(name, err < DEBRUIJN_TOL, f"{side} {out[side]:.6g} vs closed form {exact:.6g}")
        elif kind == "cli":
            _check_sum_bound(v, op, out)


def _check_gfii(v: Verdict, op, out) -> None:
    name, a = op["name"], op["alpha"]
    v.measure("GFII slack", out["slack"], -SLACK_TOL, worst=min)
    v.require(name, out["slack"] >= -SLACK_TOL, f"slack {out['slack']:.3g}")
    e = 1.0 / (1.0 - a)
    lhs, rhs = out["j_sum"] ** e, out["j1"] ** e + out["j2"] ** e
    v.require(
        name,
        _relerr(out["lhs"], lhs) <= 1e-9 and _relerr(out["rhs"], rhs) <= 1e-9,
        "lhs/rhs do not follow from the reported J values",
    )
    gammas = []
    for key, law in (("j1", op["law1"]), ("j2", op["law2"])):
        if law[0] == "sas" and law[1] == a:
            gammas.append(law[2])
            err = _relerr(out[key], jalpha_closed(a, law[2]))
            v.measure("GFII J vs closed form rel error", err, J_CLOSED_TOL)
            v.require(name, err <= J_CLOSED_TOL, f"{key} rel error {err:.3g} vs closed form")
    if len(gammas) == 2:
        g_sum = (gammas[0] ** a + gammas[1] ** a) ** (1.0 / a)
        err = _relerr(out["j_sum"], jalpha_closed(a, g_sum))
        v.measure("GFII J vs closed form rel error", err, J_CLOSED_TOL)
        v.require(name, err <= J_CLOSED_TOL, f"j_sum rel error {err:.3g} vs closed form")


def _check_sum_bound(v: Verdict, op, out) -> None:
    name = op["name"]
    if not v.require(name, out["code"] == 0, f"exit {out['code']}: {out['stderr'].strip()[-200:]}"):
        return
    row = _sum_bound_row(out)
    h_num, h_bound = row["h_sum_numeric"], row["h_sum_bound"]
    v.measure("sum bound - numeric entropy of the sum", h_bound - h_num, 0.0, worst=min)
    v.require(name, h_bound >= h_num, f"bound {h_bound:.8g} < numeric entropy {h_num:.8g}")
    # adding independent noise cannot lower the entropy of either term
    law = spec_law(op["argv"][op["argv"].index("--laws") + 1])
    floor = max(law_entropy(law), stable_entropy(row["alpha"], row["gamma"]))
    v.measure("numeric entropy of the sum - max(h(X), h(Z))", h_num - floor, 0.0, worst=min)
    v.require(name, h_num >= floor, f"h(X+Z) = {h_num:.8g} below max(h(X), h(Z)) = {floor:.8g}")


def spec_law(label: str) -> list:
    """CLI law label (gaussian:1) to the spec's list form."""
    kind, *args = label.split(":")
    return [kind, *(float(x) for x in args)]

