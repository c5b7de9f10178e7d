import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from stable_info import alphapower, cli, stable
from stable_info.alphapower import _g_rule, _handoff, alpha_power, g_of_P
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
from stable_info.specfun import EULER_GAMMA
from stable_info.stable import reference_entropy, sample_sas


class TestCauchyIsStable:
    @pytest.mark.parametrize("alpha", [0.4, 1.2, 1.8])
    def test_same_power_as_sas_1(self, alpha):
        # Cauchy(1) and S(1, 1) are one law with one tail series; the
        # first is realized from its closed form, the second by FFT
        assert realize(Cauchy(1.0)).tail == realize(SaS(1.0, 1.0)).tail
        a = alpha_power(Cauchy(1.0), alpha).value
        assert a == pytest.approx(alpha_power(SaS(1.0, 1.0), alpha).value, rel=1e-12)


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


def counted_logpdf(monkeypatch) -> list:
    """Patch stable.logpdf_sas to count its calls: one per g(P)."""
    calls = []
    logpdf = stable.logpdf_sas

    def counted(*args, **kwargs):
        calls.append(1)
        return logpdf(*args, **kwargs)

    monkeypatch.setattr(stable, "logpdf_sas", counted)
    return calls


class InjectedRule:
    """A stand-in for a g rule: g(P) gives (g, dg/dt) at P, and
    log_moment, E ln|X| over the nodes, sets the start."""

    def __init__(self, g, log_moment=0.0):
        self.g, self.log_moment = g, log_moment

    def __call__(self, P):
        return self.g(P)


POWER_TABLE = [(a, law) for a in DEFAULT_POWER_ALPHAS for law in DEFAULT_POWER_LAWS]
SAMPLED = Empirical(tuple(sample_sas(1.5, 1.0, 20_000, seed=1)))


def brentq_root(law, alpha, t0) -> float:
    """ln P of the root of the same rule by scipy's brentq, from a bracket
    of +-1 about t0."""
    g, h = _g_rule(law, alpha), reference_entropy(alpha)
    return brentq(lambda t: g(math.exp(t))[0] - h, t0 - 1.0, t0 + 1.0, xtol=1e-14)


class TestNewtonRoot:
    """The safeguarded Newton iteration in t = ln P against scipy's
    brentq on the same quadrature rule."""

    @pytest.mark.parametrize(
        "alpha,law", POWER_TABLE + [(1.2, SAMPLED), (1.5, SAMPLED)], ids=str
    )
    def test_root_matches_brentq(self, alpha, law):
        r = alpha_power(law, alpha)
        if r.method == "closed_form_stable":
            return
        t = math.log(r.value)
        assert abs(t - brentq_root(law, alpha, t)) <= 1e-12

    def test_power_table_has_39_numeric_roots(self):
        methods = [alpha_power(law, a).method for a, law in POWER_TABLE]
        assert methods.count("numeric_root") == 39

    @pytest.mark.parametrize(
        "law", [Laplace(1.0), Cauchy(1.0), Sum(Laplace(1.0), SaS(1.2, 0.5)), SAMPLED], ids=str
    )
    @pytest.mark.parametrize("alpha", [0.4, 1.2, 1.8, 2.0])
    def test_slope_is_the_derivative_in_ln_p(self, law, alpha):
        g = _g_rule(law, alpha)
        e = 1e-4
        for P in (0.05, 1.0, 20.0):
            central = (g(P * math.exp(e))[0] - g(P * math.exp(-e))[0]) / (2.0 * e)
            assert g(P)[1] == pytest.approx(central, rel=1e-6)

    @pytest.mark.parametrize("s", [1e-6, 1e6])
    def test_far_start_finds_the_same_root(self, monkeypatch, s):
        # g(P / s) has its root s times farther out than the start at the
        # log-moment of the nodes; from s = 1e-6 the start is where g is
        # nearly flat, so the Newton steps are huge until the ln 8 cap
        # stops them
        want = alpha_power(Laplace(1.0), 1.5).value
        rule = _g_rule(Laplace(1.0), 1.5)
        far = InjectedRule(lambda P: rule(P / s), rule.log_moment)
        monkeypatch.setattr(alphapower, "_g_rule", lambda law, alpha: far)
        calls = counted_logpdf(monkeypatch)
        got = alpha_power(Laplace(1.0), 1.5).value / s
        assert got == pytest.approx(want, rel=1e-11)
        # 7 capped steps cover ln 1e6; then 5 or 6 more
        assert len(calls) <= 16

    def test_overshoot_is_bisected(self, monkeypatch):
        # excess -atan(10 (t - t_root)), started 0.2 above the root: the
        # capped first step brackets the root, and the cubic step from
        # the third point lands beyond the bracket; unguarded it diverges
        h = reference_entropy(1.5)
        # a log-moment of 0 puts the start at -E ln|ref|
        t_root = -math.log(stable.reference_gamma(1.5)) + EULER_GAMMA / 3.0 - 0.2
        ts = []

        def rule(P):
            ts.append(math.log(P))
            x = 10.0 * (ts[-1] - t_root)
            return h - math.atan(x), -10.0 / (1.0 + x * x)

        monkeypatch.setattr(alphapower, "_g_rule", lambda law, alpha: InjectedRule(rule))
        assert math.log(alpha_power(Laplace(1.0), 1.5).value) == pytest.approx(t_root, abs=1e-12)
        # some point is the middle of the bracket the points before it set
        lo = [max([u for u in ts[:i] if u < t_root], default=-math.inf) for i in range(len(ts))]
        hi = [min([u for u in ts[:i] if u > t_root], default=math.inf) for i in range(len(ts))]
        assert any(abs(t - (a + b) / 2.0) <= 1e-14 for t, a, b in zip(ts, lo, hi))

    @pytest.mark.parametrize("bad", ["value", "slope"])
    def test_nan_is_arithmetic_error(self, monkeypatch, bad):
        out = (math.nan, -1.0) if bad == "value" else (1.0, math.nan)
        nan = InjectedRule(lambda P: out)
        monkeypatch.setattr(alphapower, "_g_rule", lambda law, alpha: nan)
        with pytest.raises(ArithmeticError, match="NaN"):
            alpha_power(Laplace(1.0), 1.5)

    def test_log_moment_start_of_a_stable_law(self, monkeypatch):
        # a shifted stable escapes the closed form, but E ln|X| over its
        # nodes is the stable log-moment, so the start is the root up to
        # the rule's own error: two steps, and the evaluation that stops
        # (5 evaluations from the scale hint)
        calls = counted_logpdf(monkeypatch)
        r = alpha_power(Shifted(SaS(1.5, 2.0), 0.0), 1.5)
        assert r.method == "numeric_root"
        assert r.value == pytest.approx(1.5 ** (1 / 1.5) * 2.0, rel=1e-7)
        assert len(calls) <= 3

    def test_no_convergence_is_arithmetic_error(self, monkeypatch):
        monkeypatch.setattr(alphapower, "MAX_STEPS", 2)
        with pytest.raises(ArithmeticError, match="did not converge in 2 steps"):
            alpha_power(Laplace(1.0), 1.5)

    def test_cli_exits_3_when_the_root_does_not_converge(self, monkeypatch, capsys):
        monkeypatch.setattr(alphapower, "MAX_STEPS", 2)
        assert cli.main(["power-table", "--alphas", "1.5", "--laws", "laplace:1"]) == 3
        assert "did not converge" in capsys.readouterr().out


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

    @pytest.mark.parametrize("law", [Cauchy(1.0), Sum(Laplace(1.0), SaS(1.2, 0.5))], ids=str)
    def test_alpha2_without_second_moment_is_infinite(self, law):
        # E[X^2] is infinite, and so is g = E[X^2 / (2 var P^2)] + const
        assert g_of_P(law, 2.0, 1.0) == math.inf
        assert g_of_P(Gaussian(1.0), 2.0, 1.0) < math.inf

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
        # the sum is inverted from the product of its characteristic
        # functions: its stable part is never realized on its own
        assert [c[:2] for c in sas_calls].count((1.2, 0.5)) == 0

    def test_power_table_realizes_each_law_once(self, sas_calls):
        law = SaS(1.5, 1.0)
        for alpha in DEFAULT_POWER_ALPHAS:
            alpha_power(law, alpha)
        # the other calls realize each alpha's reference law
        assert [c[:2] for c in sas_calls].count((1.5, 1.0)) == 1


def last_core_point(f):
    """The largest distance from the center of a grid point within the
    accurate radius, by a search over the grid."""
    d = np.abs(f.x - f.center)
    return float(np.max(d[d <= f.accurate_radius]))


def handoff(f, law):
    """The handoff radius of a realized density, by a search over its
    grid: the least distance d from the center of a core point with
    d >= |center| + 40 scales and every core value from d out within
    1e-10 (relative) of the tail series; the last core point when no
    such point is inside it."""
    d = np.abs(f.x - f.center)
    core = d <= f.accurate_radius
    if f.tail is None:
        return last_core_point(f)
    far = core & (d >= abs(f.center) + 40.0 * law.scale_hint())
    misfit = np.abs(f.values / f.tail.pdf(np.where(far, d, 1.0)) - 1.0)
    bad = far & ~(misfit <= 1e-10)
    ok = far & (d > np.max(d[bad], initial=-1.0))
    return float(np.min(d[ok])) if ok.any() else last_core_point(f)


def tail_nodes(f, r):
    """The signed tail nodes x and weights w of a realized density
    beyond the distance r from its center, both sides, unfolded, from its
    TailLaw series sum_k c_k n^(-1-e_k): with s = a ln(n/r), each side
    is int_0^inf p(n) (n/a) ds, taken by the trapezoid rule on [0, 40]
    with end weights 17/48, 59/48, 43/48 and 49/48."""
    if f.tail is None:
        return np.empty(0), np.empty(0)
    a = f.tail.exponent
    s = np.linspace(0.0, 40.0, 1001)
    ends = np.array([17.0, 59.0, 43.0, 49.0]) / 48.0
    end_w = np.concatenate([ends, np.ones(s.size - 8), ends[::-1]])
    n = r * np.exp(s / a)
    p = sum(c * n ** (-1.0 - e) for e, c in ((a, f.tail.coefficient),) + f.tail.extra)
    w = p * n / a * (s[1] - s[0]) * end_w
    return np.concatenate([f.center + n, f.center - n]), np.concatenate([w, w])


def unfolded_g(f, alpha, P, r):
    """g(P) by the trapezoid rule over the grid points within r of the
    center of a realized density, every node in place, plus every tail
    node beyond r."""
    gam_ref = stable.reference_gamma(alpha)
    sel = np.abs(f.x - f.center) <= r
    core = float(
        np.trapezoid(
            f.values[sel] * (-stable.logpdf_sas(alpha, gam_ref, f.x[sel] / P)),
            dx=f.h,
        )
    )
    x, w = tail_nodes(f, r)
    return core - float(np.sum(w * stable.logpdf_sas(alpha, gam_ref, x / P)))


# g(P) and dg/dt at P = s/50, s, 50 s (s the law's scale), recorded
# before each law's fold was kept on its density and the spline was
# kept from the center out; the Cauchy and SaS keys re-recorded when the
# mass beyond the accurate radius became nodes of the rule, and every key
# when the tail rule began at the last core point with the full tail
# series (the reference densities moved too), and the Cauchy and SaS
# keys when the core trapezoid began to hand off to the tail rule at 40
# scales
G_PINNED = {
    (Gaussian(1.0), 0.4): (
        (6.12141344749131, -1.1412506251141357),
        (2.8129264097040827, -0.45609850104054517),
        (2.2372460716719025, -0.00521399681726575),
    ),
    (Gaussian(1.0), 1.2): (
        (8.508872406244429, -2.175531210668873),
        (1.5767975562273329, -0.746106118305899),
        (1.0542922625460787, -0.0006379863119964212),
    ),
    (Gaussian(1.0), 1.8): (
        (11.513080793845768, -2.8488858779600217),
        (1.4364803037458456, -0.9111102847490719),
        (0.935734024003385, -0.00043343616894948503),
    ),
    (Uniform(1.0), 0.4): (
        (5.698144342010705, -1.1072669851598775),
        (2.6363011776888228, -0.3699641255229952),
        (2.2354593480947718, -0.0019031379199601723),
    ),
    (Uniform(1.0), 1.2): (
        (7.711374791182491, -2.1690884880146544),
        (1.288408005876799, -0.41505593681284064),
        (1.054079566642701, -0.00021276010009252527),
    ),
    (Uniform(1.0), 1.8): (
        (10.47774380244923, -2.8624038917423045),
        (1.1137823808867218, -0.35169481596714086),
        (0.935589544237222, -0.00014448682500337373),
    ),
    (Laplace(1.0), 0.4): (
        (6.209694276467535, -1.139536587695247),
        (2.884128962832143, -0.47360168387996154),
        (2.239487620400021, -0.008950379737196517),
    ),
    (Laplace(1.0), 1.2): (
        (8.64519748060506, -2.165689570501942),
        (1.7585768260123464, -0.8429807106613513),
        (1.0546108115869233, -0.0012738491774941286),
    ),
    (Laplace(1.0), 1.8): (
        (11.670080412142768, -2.8485719837181596),
        (1.733836538119545, -1.1856458187917132),
        (0.9359507134365009, -0.0008667385483960167),
    ),
    (Cauchy(1.0), 0.4): (
        (6.9067323301669, -1.1821649747236131),
        (3.2731864867503284, -0.5861606465051483),
        (2.2824612752828184, -0.04562665261890231),
    ),
    (Cauchy(1.0), 1.2): (
        (9.902683586295984, -2.180087600643047),
        (2.559035776190536, -1.1281314198204948),
        (1.0946817351994431, -0.04039530169389155),
    ),
    (Cauchy(1.0), 1.8): (
        (13.302728952164728, -2.8379481789681624),
        (2.9351345808587728, -1.6248875440500994),
        (0.9843481994742266, -0.048615772417983816),
    ),
    (SaS(1.5, 1.0), 0.4): (
        (6.647839377267458, -1.1775376057436135),
        (3.0715363115333805, -0.5536872948953316),
        (2.247633950359888, -0.018580167457728867),
    ),
    (SaS(1.5, 1.0), 1.2): (
        (9.476705302357091, -2.1833299589556203),
        (2.092251064326726, -1.067651751867693),
        (1.0585679865365776, -0.006878773660078195),
    ),
    (SaS(1.5, 1.0), 1.8): (
        (12.767023066212904, -2.836018305973287),
        (2.199595509580034, -1.5432277844052407),
        (0.9398586231087541, -0.006508367221150552),
    ),
}


class TestFoldedRule:
    @pytest.mark.parametrize(
        "law",
        [Shifted(Laplace(1.0), 0.7), Sum(Laplace(1.0), SaS(1.2, 0.5)), Shifted(Cauchy(1.0), 0.7)],
        ids=["shifted-laplace", "laplace+sas", "shifted-cauchy"],
    )
    def test_matches_unfolded_trapezoid(self, law):
        f = realize(law)
        r = handoff(f, law)
        for alpha in (0.6, 1.2, 1.7):
            for P in (0.1, 1.0, 7.0):
                assert g_of_P(law, alpha, P) == pytest.approx(
                    unfolded_g(f, alpha, P, r), rel=1e-12
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

    @pytest.mark.parametrize("key", list(G_PINNED), ids=str)
    def test_power_table_g_pinned(self, key):
        law, alpha = key
        s = law.scale_hint()
        rule = _g_rule(law, alpha)
        for P, want in zip((s / 50.0, s, 50.0 * s), G_PINNED[key]):
            assert rule(P) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("law", DEFAULT_POWER_LAWS, ids=str)
    def test_one_fold_per_law(self, law):
        # the nodes and weights do not depend on alpha: one fold serves all
        a, b = _g_rule(law, 0.4), _g_rule(law, 1.8)
        assert a.y is b.y and a.w is b.w
        assert not a.y.flags.writeable and not a.w.flags.writeable

    @pytest.mark.parametrize("law", DEFAULT_POWER_LAWS + [SAMPLED], ids=str)
    def test_log_moment_is_the_nodes_mean_of_ln(self, law):
        # the start alpha_power took from the nodes on every call, bit for
        # bit; a realized law keeps it with its fold
        rule = _g_rule(law, 1.2)
        pos = rule.y > 0
        w = rule.w[pos]
        assert rule.log_moment == float(np.add.reduce(w * np.log(rule.y[pos])) / np.add.reduce(w))
        if not isinstance(law, Empirical):
            assert realize(law)._derived["folded"][2] == rule.log_moment

    @pytest.mark.parametrize("law", [SAMPLED, Laplace(1.0)], ids=["sampled", "laplace"])
    def test_g_call_allocates_three_node_arrays(self, law):
        # once warm, a g(P) call allocates u = y / P and the two arrays
        # logpdf returns (3 N doubles), so its temporaries do not depend
        # on the allocator's trim threshold to stay mapped
        g = _g_rule(law, 1.5)
        g(1.0), g(0.7)
        tracemalloc.start()
        try:
            g(1.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 8 * g.y.size

    def test_power_table_g_evaluations(self, monkeypatch):
        calls = counted_logpdf(monkeypatch)
        for alpha, law in POWER_TABLE:
            alpha_power(law, alpha)
        assert len(POWER_TABLE) == 40
        # 167 calls; Newton from the scale hint took 222, brentq from a
        # widened bracket 390
        assert len(calls) <= 175

    def test_sampled_g_evaluations(self, monkeypatch):
        calls = counted_logpdf(monkeypatch)
        for alpha in DEFAULT_POWER_ALPHAS:
            alpha_power(SAMPLED, alpha)
        # 33 calls; Newton from the scale hint took 44, brentq from a
        # widened bracket 86
        assert len(calls) <= 34

    def test_sampled_stable_g_evaluations(self, monkeypatch):
        # the Monte Carlo scores: each sample set at its own alpha
        laws = {a: Empirical(sample_sas(a, 1.0, 20_000, seed=2)) for a in (1.2, 1.5, 1.8)}
        calls = counted_logpdf(monkeypatch)
        for alpha, law in laws.items():
            alpha_power(law, alpha)
        # 10 calls; Newton from half the interquartile range took 16
        assert len(calls) <= 10


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
        # the folded trapezoid rule out to the handoff radius and the
        # tail nodes beyond it unfolded, no node dropped or merged
        f = realize(law)
        r = handoff(f, law)
        idx = np.flatnonzero(np.abs(f.x) <= r)
        w = f.values[idx] * f.h
        w[0] /= 2.0
        w[-1] /= 2.0
        w = np.bincount(np.abs(idx - f.n // 2), weights=w)
        y = f.h * np.arange(w.size)
        rule = _g_rule(law, alpha)
        gam_ref = stable.reference_gamma(alpha)
        scale = law.scale_hint()
        x_tail, w_tail = tail_nodes(f, r)
        for P in (scale / 50.0, scale, 50.0 * scale):
            full = -float(np.add.reduce(w * stable.logpdf_sas(alpha, gam_ref, y / P)))
            full -= float(np.add.reduce(w_tail * stable.logpdf_sas(alpha, gam_ref, x_tail / P)))
            assert rule(P)[0] == pytest.approx(full, rel=1e-15, abs=0)

    @pytest.mark.parametrize(
        "law,nodes",
        [
            (Laplace(1.0), 8355),
            (Gaussian(1.0), 1651),
            (Cauchy(1.0), 7555),
            (SaS(1.5, 1.0), 7555),
            # no handoff: the grid never matches the series to 1e-10, or
            # 40 scales beyond the origin is past the last core point
            (SaS(0.4, 1.0), 30493),
            (Shifted(Cauchy(1.0), 300.0), 60985),
        ],
    )
    def test_node_counts(self, law, nodes):
        assert _g_rule(law, 1.2).y.size == nodes


SUM = Sum(Laplace(1.0), SaS(1.2, 0.5))


class TestHandoff:
    @pytest.mark.parametrize(
        "law",
        TestNodeRule.LAWS + [SaS(0.4, 1.0), Shifted(Cauchy(1.0), 0.7), Shifted(Cauchy(1.0), 300.0)],
        ids=str,
    )
    def test_kept_radius_is_the_search(self, law):
        f = realize(law)
        assert _handoff(f, law) * f.h == handoff(f, law)

    def test_sum_hands_off_past_46_scales(self):
        # its grid matches the series to 1e-10 only from 46 scales, which
        # is beyond the 40 scales kept for the origin
        f = realize(SUM)
        assert _handoff(f, SUM) * f.h >= 46.0 * SUM.scale_hint()

    @pytest.mark.parametrize("law", DEFAULT_POWER_LAWS + [SUM], ids=str)
    @pytest.mark.parametrize("alpha", [0.4, 1.2, 1.8])
    def test_root_matches_the_full_grid_rule(self, law, alpha):
        # the root of the trapezoid over the whole core plus the tail
        # rule from the last core point, solved by brentq
        f = realize(law)
        P = alpha_power(law, alpha).value
        t, h_ref, r = math.log(P), reference_entropy(alpha), last_core_point(f)
        full = brentq(
            lambda u: unfolded_g(f, alpha, math.exp(u), r) - h_ref, t - 1e-3, t + 1e-3, xtol=1e-14
        )
        assert P == pytest.approx(math.exp(full), rel=2e-9)


def cauchy_pdf(delta):
    return lambda y: 1.0 / (math.pi * (1.0 + (y - delta) ** 2))


class TestQuadOracle:
    """The alpha-power of Cauchy laws against scipy.integrate.quad of
    their exact density: at the program's root P the error in ln P is
    (g_quad(P) - h_ref) / (dg/dt), with no oracle root solve."""

    @staticmethod
    def ln_p_error(law, delta, alpha, log_loss_quad):
        P = alpha_power(law, alpha).value
        points = [delta - 1.0, delta, delta + 1.0, -P, 0.0, P]
        g = log_loss_quad(cauchy_pdf(delta), alpha, P, points)
        return (g - reference_entropy(alpha)) / _g_rule(law, alpha)(P)[1]

    @pytest.mark.parametrize("alpha, tol", [(0.4, 2e-5), (1.2, 1e-6), (1.8, 1e-6)])
    def test_cauchy(self, alpha, tol, log_loss_quad):
        assert abs(self.ln_p_error(Cauchy(1.0), 0.0, alpha, log_loss_quad)) <= tol

    @pytest.mark.parametrize("delta", [0.7, 300.0, 1e3])
    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    def test_shifted_cauchy(self, delta, alpha, log_loss_quad):
        # each tail about its own center: the inward one of a law shifted
        # past the accurate radius runs through the reference's peak
        law = Shifted(Cauchy(1.0), delta)
        assert abs(self.ln_p_error(law, delta, alpha, log_loss_quad)) <= 1e-6


class TestEmpiricalRoute:
    @pytest.mark.parametrize(
        "alpha, value",
        [(1.2, 0.9446902916703224), (1.5, 1.3150398896073643), (2.0, math.inf)],
    )
    def test_sampled_power_pinned(self, alpha, value):
        # recorded before samples were held as an array, so the route is bit
        # for bit; re-recorded when h(ref) and the reference density took
        # the tail series from the last core point, and again when the
        # root started at the log-moment and stepped on the cubic: a
        # different last step lands elsewhere within ROOT_TOL
        # (3e-16 and 4.9e-14 relative); and at alpha 1.2 when Gamma, zeta
        # and the spline slopes left scipy, each moving at roundoff
        # (-3.5e-16 relative)
        assert alpha_power(SAMPLED, alpha).value == value

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_nan_sample_refused(self, alpha):
        # not an inf at alpha 2, nor a NaN root whose message reprs every sample
        s = sample_sas(1.5, 1.0, 2000, seed=11)
        s[7] = math.nan
        with pytest.raises(ValueError, match="finite") as err:
            alpha_power(Empirical(s), alpha)
        assert len(str(err.value)) < 100

    def test_outlier_past_the_tail_underflow(self):
        # p_ref underflows to 0 near 1e129 at alpha 1.5, where its slope
        # was 0/0 and g(P) NaN
        base = sample_sas(1.5, 1.0, 999, 3)
        near = alpha_power(Empirical(np.append(base, 1e100)), 1.5).value
        far = alpha_power(Empirical(np.append(base, 1e130)), 1.5)
        assert far.finite and far.value > near

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
