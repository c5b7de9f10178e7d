import functools
import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from stable_info import alphapower, cli, stable
from stable_info.alphapower import _brentq, _g_rule, alpha_power, g_of_P
from stable_info.cli import DEFAULT_POWER_ALPHAS, DEFAULT_POWER_LAWS
from stable_info.density import (
    Cauchy,
    Empirical,
    Gaussian,
    Laplace,
    SaS,
    Scaled,
    Shifted,
    Sum,
    Uniform,
    realize,
)
from stable_info.gridded import GridSpec
from stable_info.stable import reference_entropy, sample_sas


class TestClosedFormPaths:
    def test_alpha2_is_rms(self):
        r = alpha_power(Gaussian(1.7), 2.0)
        assert r.method == "closed_form_alpha2"
        assert r.value == pytest.approx(1.7, rel=1e-14)

    def test_alpha2_uniform(self):
        r = alpha_power(Uniform(3.0), 2.0)
        assert r.value == pytest.approx(3.0 / math.sqrt(3.0), rel=1e-14)

    @pytest.mark.parametrize(
        "law,expected",
        [
            (Cauchy(1.0), math.inf),
            (SaS(1.5, 1.0), math.inf),
            (Shifted(Cauchy(1.0), 3.0), math.inf),
            (Scaled(SaS(1.2, 1.0), -2.0), math.inf),
            (Sum(Cauchy(1.0), Gaussian(1.0)), math.inf),
            (Sum(Gaussian(1.0), Uniform(2.0)), math.sqrt(1.0 + 4.0 / 3.0)),
        ],
        ids=["cauchy", "sas", "shifted", "scaled", "sum_heavy", "sum_light"],
    )
    def test_alpha2_heavy_tail_infinite(self, law, expected):
        # the second moment alone decides: it is inf for any power tail
        # with exponent below 2, through every combinator
        r = alpha_power(law, 2.0)
        assert r.method == "closed_form_alpha2"
        assert r.value == pytest.approx(expected, rel=1e-14)

    def test_matching_stable(self):
        r = alpha_power(SaS(1.5, 2.0), 1.5)
        assert r.method == "closed_form_stable"
        assert r.value == pytest.approx(1.5 ** (1 / 1.5) * 2.0, rel=1e-14)

    def test_cauchy_at_alpha1(self):
        r = alpha_power(Cauchy(0.5), 1.0)
        assert r.value == pytest.approx(0.5, rel=1e-14)

    def test_sum_of_matching_stables(self):
        a = 1.3
        r = alpha_power(Sum(SaS(a, 1.0), SaS(a, 2.0)), a)
        g = (1.0 + 2.0**a) ** (1 / a)
        assert r.value == pytest.approx(a ** (1 / a) * g, rel=1e-12)

    def test_point_mass_is_zero(self):
        r = alpha_power(Empirical((0.0, 0.0, 0.0)), 1.5)
        assert r.value == 0.0


class TestNumericRoot:
    def test_gaussian_anchor(self):
        # P_1.2 of N(0, 2)
        r = alpha_power(Gaussian(math.sqrt(2.0)), 1.2)
        assert r.method == "numeric_root"
        assert r.value == pytest.approx(0.7869, abs=0.005)

    def test_uniform_anchor(self):
        for a in (1.0, math.sqrt(3.0)):
            r = alpha_power(Uniform(a), 0.8)
            assert r.value == pytest.approx(0.1753 * a, abs=0.002 * a)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    def test_stable_numeric_matches_closed_form(self, alpha, gamma):
        # force the numeric route by scaling a non-matching base
        law = Scaled(SaS(alpha, 1.0), gamma)
        closed = alpha ** (1 / alpha) * gamma
        assert alpha_power(law, alpha).value == pytest.approx(closed, rel=1e-3)

    def test_residual_small(self):
        r = alpha_power(Laplace(1.0), 1.4)
        assert r.residual < 1e-6

    def test_scaling_covariance(self):
        # P_alpha(cX) = c P_alpha(X)
        c = 3.0
        base = alpha_power(Laplace(1.0), 1.4).value
        scaled = alpha_power(Scaled(Laplace(1.0), c), 1.4).value
        assert scaled == pytest.approx(c * base, rel=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            alpha_power(Gaussian(1.0), 0.0)
        with pytest.raises(ValueError):
            alpha_power(Gaussian(1.0), 2.3)


def recorded(f):
    """f, and the list of points it is called at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def lines_run(fn, call) -> set:
    """Line numbers of fn's own body executed while call() runs."""
    lines = set()

    def tracer(frame, event, arg):
        if frame.f_code is not fn.__code__:
            return None
        if event == "line":
            lines.add(frame.f_lineno)
        return tracer

    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(None)
    return lines


class TestBrentPort:
    """_brentq retraces scipy.optimize.brentq call for call."""

    CASES = {
        "cubic": (lambda x: x**3 - 2 * x - 5, 2.0, 3.0),
        "exp": (lambda x: math.exp(x) - 10, -5.0, 10.0),
        "cos": (lambda x: math.cos(x) - x, 0.0, 1.0),
        "atan": (lambda x: math.atan(x - 0.3), -20.0, 50.0),
        "root-at-end": (lambda x: x, -1.0, 0.0),
    }

    @staticmethod
    def same_as_scipy(f, a, b, xtol):
        ours, our_calls = recorded(f)
        theirs, their_calls = recorded(f)
        root = _brentq(ours, a, b, xtol)
        assert root == brentq(theirs, a, b, xtol=xtol)
        assert our_calls == their_calls
        return root

    @pytest.mark.parametrize("case", CASES)
    def test_same_calls_and_root_as_scipy(self, case):
        self.same_as_scipy(*self.CASES[case], 1e-9)

    def test_extrapolation_branch_fires(self):
        src, first = inspect.getsourcelines(_brentq)
        line = first + next(i for i, s in enumerate(src) if "dpre = (fpre" in s)
        f, a, b = self.CASES["cubic"]
        assert line in lines_run(_brentq, lambda: _brentq(f, a, b, 1e-9))

    def test_alpha_power_root_unchanged(self, monkeypatch):
        roots = []

        def both(f, a, b, xtol):
            roots.append(self.same_as_scipy(f, a, b, xtol))
            return roots[-1]

        monkeypatch.setattr(alphapower, "_brentq", both)
        alpha_power(Laplace(1.0), 1.5)
        alpha_power(Uniform(1.0), 0.6)
        assert len(roots) == 2

    def test_sign_error(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1, -1.0, 1.0, 1e-9)

    def test_no_convergence_is_arithmetic_error(self):
        f, a, b = self.CASES["cubic"]
        with pytest.raises(ArithmeticError, match="did not converge in 2 iterations"):
            _brentq(f, a, b, 1e-9, maxiter=2)

    def test_cli_exits_3_when_the_root_does_not_converge(self, monkeypatch, capsys):
        monkeypatch.setattr(alphapower, "_brentq", functools.partial(_brentq, maxiter=2))
        assert cli.main(["power-table", "--alphas", "1.5", "--laws", "laplace:1"]) == 3
        assert "did not converge" in capsys.readouterr().out

    def test_nan_is_arithmetic_error(self):
        with pytest.raises(ArithmeticError, match="NaN"):
            values = iter([-1.0, 1.0, math.nan])
            _brentq(lambda x: next(values), 0.0, 1.0, 1e-9)


class TestGOfP:
    def test_monotone_decreasing(self):
        law = Gaussian(1.0)
        ps = [0.3, 0.6, 1.2, 2.4]
        vals = [g_of_P(law, 1.5, p) for p in ps]
        assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))

    def test_root_value_is_reference_entropy(self):
        alpha = 1.5
        r = alpha_power(Laplace(1.0), alpha)
        assert g_of_P(Laplace(1.0), alpha, r.value) == pytest.approx(
            reference_entropy(alpha), abs=1e-6
        )

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            g_of_P(Gaussian(1.0), 1.5, 0.0)

    def test_sweep_realizes_the_law_once(self, sas_calls, monkeypatch):
        sums = []
        realize_sum = Sum._realize_on

        def counted(law, grid):
            sums.append(law)
            return realize_sum(law, grid)

        monkeypatch.setattr(Sum, "_realize_on", counted)
        law = Sum(Laplace(1.0), SaS(1.2, 0.5))
        for p in (0.5, 1.0, 2.0, 4.0):
            g_of_P(law, 1.2, p)
        assert sums == [law]
        assert [c[:2] for c in sas_calls].count((1.2, 0.5)) == 1

    def test_power_table_realizes_each_law_once(self, sas_calls):
        law = SaS(1.5, 1.0)
        for alpha in DEFAULT_POWER_ALPHAS:
            alpha_power(law, alpha)
        # the other calls realize each alpha's reference law
        assert [c[:2] for c in sas_calls].count((1.5, 1.0)) == 1


def unfolded_g(f, alpha, P):
    """g(P) by the trapezoid rule over the whole accurate region of a
    realized density, every node in place, plus the tail correction."""
    gam_ref = stable.reference_gamma(alpha)
    r = f.accurate_radius
    sel = np.abs(f.x) <= r
    core = float(
        np.trapezoid(
            f.values[sel] * (-stable.logpdf_sas(alpha, gam_ref, f.x[sel] / P)),
            dx=f.h,
        )
    )
    m_side = (1.0 - f.core_mass()) / 2.0
    if f.tail is None or m_side <= 0:
        return core
    a = f.tail.exponent
    c_eff = m_side * a * r**a
    c1_ref = stable._series_coeffs(alpha, gam_ref, 1)[0]
    ra = r ** (-a)
    t1 = (-math.log(c1_ref) - (1.0 + alpha) * math.log(P)) * ra / a
    t2 = (1.0 + alpha) * (ra * math.log(r) / a + ra / a**2)
    return core + 2.0 * c_eff * (t1 + t2)


class TestFoldedRule:
    @pytest.mark.parametrize(
        "law",
        [Shifted(Laplace(1.0), 0.7), Sum(Laplace(1.0), SaS(1.2, 0.5))],
        ids=["shifted-laplace", "laplace+sas"],
    )
    def test_matches_unfolded_trapezoid(self, law):
        f = realize(law)
        for alpha in (0.6, 1.2, 1.7):
            for P in (0.1, 1.0, 7.0):
                assert g_of_P(law, alpha, P) == pytest.approx(
                    unfolded_g(f, alpha, P), rel=1e-12
                )

    @pytest.mark.parametrize(
        "law",
        [
            Laplace(1.0),
            Sum(Laplace(1.0), SaS(1.2, 0.5)),
            Empirical(tuple(sample_sas(1.4, 1.0, 2000, seed=4))),
        ],
        ids=["laplace", "laplace+sas", "empirical"],
    )
    def test_residual_is_g_at_the_root(self, law):
        alpha = 1.4
        r = alpha_power(law, alpha)
        assert r.method == "numeric_root"
        assert r.residual == abs(g_of_P(law, alpha, r.value) - reference_entropy(alpha))

    def test_power_table_g_evaluations(self, monkeypatch):
        calls = []
        logpdf = stable.logpdf_sas

        def counted(*args):
            calls.append(1)
            return logpdf(*args)

        monkeypatch.setattr(stable, "logpdf_sas", counted)
        for alpha in DEFAULT_POWER_ALPHAS:
            for law in DEFAULT_POWER_LAWS:
                alpha_power(law, alpha)
        assert len(DEFAULT_POWER_ALPHAS) * len(DEFAULT_POWER_LAWS) == 40
        assert len(calls) <= 520


class TestNodeRule:
    LAWS = [
        Gaussian(1.0),
        Laplace(1.0),
        Uniform(1.0),
        Cauchy(1.0),
        SaS(1.5, 1.0),
        Sum(Laplace(1.0), SaS(1.2, 0.5)),
    ]

    @pytest.mark.parametrize("law", LAWS, ids=str)
    @pytest.mark.parametrize("alpha", [0.4, 1.2, 1.8])
    def test_trimmed_rule_matches_every_node(self, law, alpha):
        # the folded trapezoid rule over the accurate region, no node
        # dropped, and the rule's own tail correction
        f = realize(law)
        idx = np.flatnonzero(np.abs(f.x) <= f.accurate_radius)
        w = f.values[idx] * f.h
        w[0] /= 2.0
        w[-1] /= 2.0
        w = np.bincount(np.abs(idx - f.n // 2), weights=w)
        y = f.h * np.arange(w.size)
        rule = _g_rule(law, alpha)
        gam_ref = stable.reference_gamma(alpha)
        scale = law.scale_hint()
        for P in (scale / 50.0, scale, 50.0 * scale):
            full = -float(w @ stable.logpdf_sas(alpha, gam_ref, y / P))
            full += rule.c0 - rule.c1 * math.log(P)
            assert rule(P) == pytest.approx(full, rel=1e-15, abs=0)

    @pytest.mark.parametrize(
        "law,nodes", [(Laplace(1.0), 8355), (Gaussian(1.0), 1651), (Cauchy(1.0), 29492)]
    )
    def test_node_counts(self, law, nodes):
        assert _g_rule(law, 1.2).y.size == nodes


class TestEmpiricalRoute:
    def test_sampled_stable_recovers_power(self):
        alpha = 1.6
        s = sample_sas(alpha, 1.0, 100_000, seed=9)
        r = alpha_power(Empirical(tuple(s)), alpha)
        assert r.value == pytest.approx(alpha ** (1 / alpha), rel=0.02)

    def test_alpha2_heavy_samples_infinite(self):
        s = sample_sas(1.2, 1.0, 50_000, seed=10)
        r = alpha_power(Empirical(tuple(s)), 2.0)
        assert not r.finite


class TestProperties:
    @given(st.floats(min_value=1.1, max_value=1.9), st.floats(min_value=0.3, max_value=3.0))
    @settings(max_examples=10, deadline=None)
    def test_stable_closed_form_property(self, alpha, gamma):
        r = alpha_power(SaS(alpha, gamma), alpha)
        assert r.value == pytest.approx(alpha ** (1 / alpha) * gamma, rel=1e-12)


# laws whose realization carries scale exactly: Scaled rescales the tail
# coefficient, so these also guard the mass-consistent tail rule
SCALE_LAWS = [
    SaS(1.5, 1.0),
    Laplace(1.0),
    Cauchy(1.0),
    Uniform(1.0),
    Sum(Laplace(1.0), SaS(1.2, 0.5)),
]


class TestScaleCovariance:
    @pytest.mark.parametrize("law", SCALE_LAWS, ids=repr)
    @given(s=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=10, deadline=None)
    def test_entropy_shifts_by_log_scale(self, law, s):
        h = realize(law).entropy()
        assert realize(Scaled(law, s)).entropy() == pytest.approx(h + math.log(s), abs=1e-10)

    @pytest.mark.parametrize("law", SCALE_LAWS, ids=repr)
    @given(s=st.floats(min_value=1e-3, max_value=1e3), alpha=st.floats(min_value=1.1, max_value=1.9))
    @settings(max_examples=10, deadline=None)
    def test_power_scales(self, law, s, alpha):
        p = alpha_power(law, alpha).value
        assert alpha_power(Scaled(law, s), alpha).value == pytest.approx(s * p, rel=1e-10)

    def test_scaled_stable_is_the_stable_law(self):
        # Scaled realizes SaS(1.2, 1) on the grid divided by c, which is
        # the same FFT as SaS(1.2, c) on the grid itself
        grid = GridSpec(2**16, 400.0)
        h = realize(Scaled(SaS(1.2, 1.0), 0.066), grid).entropy()
        assert h == pytest.approx(stable.pdf_grid_sas(1.2, 0.066, grid).entropy(), abs=1e-13)
