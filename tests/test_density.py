import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from stable_info import cli, density
from stable_info.density import (
    MEMO_POINTS,
    Cauchy,
    Empirical,
    Gaussian,
    Laplace,
    SaS,
    Scaled,
    Shifted,
    Sum,
    Uniform,
    convolve,
    plan_grid,
    realize,
)
from stable_info.gridded import GriddedDensity, GridSpec
from stable_info.jalpha import jalpha_spectral


class TestClosedFormRealizations:
    def test_laplace(self):
        f = realize(Laplace(1.0))
        assert f.pdf(0.0) == pytest.approx(0.5, rel=1e-5)
        assert f.pdf(2.0) == pytest.approx(0.5 * math.exp(-2.0), rel=1e-5)
        assert f.entropy() == pytest.approx(1.0 + math.log(2.0), abs=1e-5)

    def test_uniform_cell_average(self):
        f = realize(Uniform(1.0))
        assert f.total_mass() == pytest.approx(1.0, abs=1e-12)
        # the box edges cost a few 1e-3 of entropy at grid resolution
        assert f.entropy() == pytest.approx(math.log(2.0), abs=5e-3)

    def test_gaussian(self):
        f = realize(Gaussian(2.0))
        assert f.entropy() == pytest.approx(
            0.5 * math.log(2 * math.pi * math.e * 4.0), abs=1e-6
        )

    def test_cauchy_tail_attached(self):
        f = realize(Cauchy(1.0))
        assert f.tail is not None
        assert f.tail.exponent == 1.0
        assert f.entropy() == pytest.approx(math.log(4 * math.pi), abs=1e-4)

    def test_shifted_entropy_invariant(self):
        h0 = realize(Laplace(1.0)).entropy()
        h1 = realize(Shifted(Laplace(1.0), 3.0)).entropy()
        assert h1 == h0

    @pytest.mark.parametrize("law", [SaS(1.5, 1.0), Cauchy(1.0), Laplace(1.0), Uniform(1.0)])
    def test_far_shift_keeps_entropy(self, law):
        # the grid moves with the law, so no mass leaves it
        assert realize(Shifted(law, 1000.0)).entropy() == realize(law).entropy()

    def test_shift_moves_the_grid(self, monkeypatch):
        def resample(self, xq):
            raise AssertionError("a shift resampled its inner density")

        def mean(f):
            return float(np.trapezoid(f.x * f.values, dx=f.h))

        monkeypatch.setattr(GriddedDensity, "logpdf", resample)
        base = realize(Laplace(0.37))
        f = realize(Shifted(Laplace(0.37), 2.5))
        assert f.values is base.values and f.tail is base.tail
        np.testing.assert_allclose(f.x, base.x + 2.5, rtol=0, atol=1e-12)
        # the combinators place a shifted density by its center
        m = realize(Scaled(Shifted(Laplace(0.37), 2.5), -2.0))
        assert mean(m) == pytest.approx(-5.0, abs=1e-8)
        g = realize(Sum(Shifted(Laplace(0.37), 2.5), Shifted(Gaussian(0.37), -1.0)))
        assert mean(g) == pytest.approx(1.5, abs=1e-8)

    def test_scaled_entropy_shift(self):
        c = 2.5
        h0 = realize(Gaussian(1.0)).entropy()
        h1 = realize(Scaled(Gaussian(1.0), c)).entropy()
        assert h1 == pytest.approx(h0 + math.log(c), abs=1e-5)

    def test_scaled_negative_factor_mirrors(self):
        f = realize(Scaled(Shifted(Laplace(1.0), 2.0), -1.0))
        assert float(np.trapezoid(f.x * f.values, dx=f.h)) == pytest.approx(-2.0, abs=1e-8)

    def test_scaled_heavy_tail(self):
        f = realize(Scaled(Cauchy(1.0), 3.0))
        # Scaled Cauchy is Cauchy(3)
        assert f.pdf(1.0) == pytest.approx(3.0 / (math.pi * 10.0), rel=1e-5)


class TestSum:
    def test_gaussian_convolution(self):
        f = realize(Sum(Gaussian(1.0), Gaussian(2.0)))
        s = math.sqrt(5.0)
        assert f.entropy() == pytest.approx(
            0.5 * math.log(2 * math.pi * math.e * s**2), abs=1e-4
        )
        assert f.pdf(0.0) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi * s**2), rel=1e-5
        )

    def test_stable_plus_stable(self):
        # S(a, g1) + S(a, g2) = S(a, (g1^a + g2^a)^(1/a))
        a = 1.5
        g = (1.0 + 1.0) ** (1 / a)
        f = realize(Sum(SaS(a, 1.0), SaS(a, 1.0)))
        ref = realize(SaS(a, g))
        for x in (0.0, 1.0, 5.0):
            assert f.pdf(x) == pytest.approx(float(ref.pdf(x)), rel=1e-4)

    def test_second_moment_additive(self):
        law = Sum(Gaussian(1.0), Uniform(2.0))
        assert law.second_moment() == pytest.approx(1.0 + 4.0 / 3.0, rel=1e-12)

    def test_tail_inherited_from_heavy_component(self):
        f = realize(Sum(Cauchy(1.0), Gaussian(1.0)))
        assert f.tail is not None and f.tail.exponent == 1.0

    def test_tail_keeps_the_variance_term(self):
        # cf = (1 - b^2 w^2 + ...)(1 - g^a |w|^a + ...): the cross term
        # b^2 g^a |w|^(a+2) gives the tail term
        # -b^2 g^a Gamma(a + 3) sin(pi (a + 2) / 2) / pi |x|^(-3-a)
        a, b, g = 1.5, 0.8, 1.3
        tail = realize(Sum(Laplace(b), SaS(a, g))).tail
        cross = dict(tail.extra)[a + 2.0]
        want = -(b**2) * g**a * math.gamma(a + 3.0) * math.sin(math.pi * (a + 2.0) / 2.0) / math.pi
        assert cross == pytest.approx(want, rel=1e-14)
        assert tail.exponent == a

    @pytest.mark.parametrize("x", [0.0, 1.0, 5.0, 20.0])
    def test_density_matches_cf_quadrature(self, x):
        # an oracle apart from the FFT: p(x) = (1/pi) int_0^inf phi(w) cos(wx) dw,
        # with phi below 1e-200 beyond w = 60
        def phi(w):
            return math.exp(-(w**1.5)) / (1.0 + w * w)

        cos = {} if x == 0 else {"weight": "cos", "wvar": x}
        want = quad(phi, 0.0, 60.0, epsabs=1e-14, epsrel=1e-11, limit=2000, **cos)[0]
        f = realize(Sum(Laplace(1.0), SaS(1.5, 1.0)))
        assert float(f.pdf(x)) == pytest.approx(want / math.pi, rel=1e-8)

    def test_laplace_pair_entropy(self):
        # Laplace(1) + Laplace(1) has the density (1 + |x|) e^(-|x|) / 4
        def plogp(x):
            p = (1.0 + x) * math.exp(-x) / 4.0
            return -p * math.log(p)

        want = 2.0 * quad(plogp, 0.0, 300.0, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        assert want == pytest.approx(2.0881206800, abs=1e-10)
        h = realize(Sum(Laplace(1.0), Laplace(1.0))).entropy()
        assert h == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize(
        "grid", [None, GridSpec(2**16, 256.0)], ids=["planned", "sinc-zero-at-nyquist"]
    )
    def test_uniform_pair_entropy(self, grid):
        # the triangle (2 - |x|)/4 on [-2, 2], h = 1/2 + ln 2.  Its cf
        # sinc(w)^2 decays like w^-2, so it is inverted at the 2^22-point
        # cap; on the second grid every refined Nyquist frequency, 128 pi
        # times the stride, is a zero of it (stopping there at stride 1
        # leaves 4e-4 pointwise)
        f = realize(Sum(Uniform(1.0), Uniform(1.0)), grid)
        assert f.tail is None
        assert np.max(np.abs(f.values - np.clip(2.0 - np.abs(f.x), 0.0, None) / 4.0)) <= 2e-5
        assert f.entropy() == pytest.approx(0.5 + math.log(2.0), abs=3e-5)

    @given(st.floats(0.6, 1.9), st.floats(0.5, 2.0), st.floats(0.5, 2.0))
    @settings(max_examples=15, deadline=None)
    def test_stable_pair_is_its_equal_law(self, alpha, g1, g2):
        # S(a, g1) + S(a, g2) = S(a, (g1^a + g2^a)^(1/a)), on one shared grid
        law = SaS(alpha, (g1**alpha + g2**alpha) ** (1.0 / alpha))
        grid = plan_grid(law, 1.5)
        f = realize(Sum(SaS(alpha, g1), SaS(alpha, g2)), grid)
        ref = realize(law, grid)
        assert np.max(np.abs(f.values - ref.values)) <= 1e-12 * np.max(ref.values)
        j = jalpha_spectral(f, 1.5).value
        assert j == pytest.approx(jalpha_spectral(ref, 1.5).value, rel=1e-10)


class TestConvolve:
    def test_commutative(self):
        g = GridSpec(n=2**12, half_extent=30.0)
        a = convolve(Sum(Gaussian(1.0), Laplace(1.0)), g)
        b = convolve(Sum(Laplace(1.0), Gaussian(1.0)), g)
        assert np.allclose(a.values, b.values, rtol=1e-10, atol=1e-14)

    def test_gaussian_closed_form(self):
        # N(0, 1) + N(0, 1) = N(0, 2)
        g = GridSpec(n=2**12, half_extent=40.0)
        out = convolve(Sum(Gaussian(1.0), Gaussian(1.0)), g)
        exact = np.exp(-(out.x**2) / 4.0) / math.sqrt(4.0 * math.pi)
        assert np.max(np.abs(out.values - exact)) <= 1e-15

    def test_mass_preserved(self):
        g = GridSpec(n=2**12, half_extent=40.0)
        out = convolve(Sum(Gaussian(1.0), Gaussian(1.0)), g)
        assert out.total_mass() == pytest.approx(1.0, abs=1e-9)


class TestEmpirical:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            Empirical(())

    def test_has_no_density(self):
        # alpha_power reads the samples themselves; nothing realizes them
        with pytest.raises(NotImplementedError):
            realize(Empirical((0.0, 1.0, 2.5)))

    def test_sum_part_has_no_cf(self):
        # never a silent cf = 1 for the sample set
        with pytest.raises(NotImplementedError):
            realize(Sum(Empirical((0.0, 1.0, 2.5)), Gaussian(1.0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_refused(self, bad):
        with pytest.raises(ValueError):
            Empirical((0.0, bad, 2.5))

    @pytest.mark.parametrize("bad", [1.0, np.zeros((2, 3))], ids=["scalar", "2d"])
    def test_not_1d_refused(self, bad):
        with pytest.raises(ValueError):
            Empirical(bad)

    def test_equal_by_content(self):
        a, b = Empirical((0.0, 1.0, 2.5)), Empirical((0.0, 1.0, 2.5))
        assert a == b and hash(a) == hash(b)
        assert a != Empirical((0.0, 1.0, 2.0))
        assert a != Empirical((0.0, 1.0))
        assert a != Gaussian(1.0)

    def test_input_kinds_give_one_law(self):
        laws = {Empirical(s) for s in ([0.0, 1, 2.5], (0, 1.0, 2.5), np.array([0.0, 1.0, 2.5]))}
        assert len(laws) == 1

    def test_samples_are_a_read_only_copy(self):
        s = np.array([0.0, 1.0, 2.5])
        law = Empirical(s)
        assert law.samples.dtype == np.float64
        assert not law.samples.flags.writeable
        s[0] = 9.0
        np.testing.assert_array_equal(law.samples, [0.0, 1.0, 2.5])
        assert law == Empirical((0.0, 1.0, 2.5))

    def test_repr_is_one_short_line(self):
        r = repr(Empirical(np.linspace(-1.0, 1.0, 20_000)))
        assert r == "Empirical(samples=(-1.0, -0.99989999499975, -0.9997999899994999, ...), n=20000)"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "make",
    [
        Gaussian,
        Uniform,
        Laplace,
        Cauchy,
        lambda v: SaS(1.5, v),
        lambda v: SaS(v, 1.0),
        lambda v: Scaled(Gaussian(1.0), v),
        lambda v: Shifted(Gaussian(1.0), v),
    ],
    ids=[
        "gaussian", "uniform", "laplace", "cauchy", "sas_gamma", "sas_alpha", "scaled", "shifted"
    ],
)
def test_non_finite_parameter_rejected(make, bad):
    with pytest.raises(ValueError):
        make(bad)


class TestScalingProperties:
    @given(st.floats(min_value=0.2, max_value=5.0))
    @settings(max_examples=20, deadline=None)
    def test_scaled_second_moment(self, c):
        law = Scaled(Gaussian(1.0), c)
        assert law.second_moment() == pytest.approx(c**2, rel=1e-12)

    @given(st.floats(min_value=0.5, max_value=3.0))
    @settings(max_examples=10, deadline=None)
    def test_plan_grid_scales_with_law(self, c):
        g1 = plan_grid(Gaussian(1.0))
        g2 = plan_grid(Gaussian(c))
        assert g2.half_extent == pytest.approx(c * g1.half_extent, rel=1e-12)


_BASE_LAWS = st.one_of(
    st.builds(SaS, st.floats(1.0, 2.0), st.floats(0.5, 2.0)),
    st.builds(Laplace, st.floats(0.5, 2.0)),
    st.builds(Cauchy, st.floats(0.5, 2.0)),
    st.builds(Uniform, st.floats(0.5, 2.0)),
)
_MEMO_LAWS = st.one_of(
    _BASE_LAWS,
    st.builds(Shifted, _BASE_LAWS, st.floats(-1.0, 1.0)),
    st.builds(Scaled, _BASE_LAWS, st.floats(0.3, 3.0) | st.floats(-3.0, -0.3)),
    st.builds(Sum, _BASE_LAWS, _BASE_LAWS),
)


class TestRealizationMemo:
    @given(_MEMO_LAWS)
    @settings(max_examples=30, deadline=None)
    def test_memo_is_transparent(self, law):
        grid = GridSpec(2**12, 50.0 * law.scale_hint())
        f = realize(law, grid)
        assert realize(law, grid) is f
        assert np.array_equal(f.values, law._realize_on(grid).values)
        assert not f.values.flags.writeable
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_oldest_evicted_over_budget(self, sas_calls):
        grid = GridSpec(2**18, 200.0)
        laws = [SaS(1.5, 1.0 + 0.1 * k) for k in range(MEMO_POINTS // grid.n + 1)]
        for law in laws:
            realize(law, grid)
        assert len(sas_calls) == len(laws)
        realize(laws[-1], grid)
        assert len(sas_calls) == len(laws)
        realize(laws[0], grid)
        assert len(sas_calls) == len(laws) + 1

    def test_newest_kept_over_budget(self, sas_calls):
        grid = GridSpec(2 * MEMO_POINTS, 400.0)
        f = realize(SaS(1.5, 1.0), grid)
        assert realize(SaS(1.5, 1.0), grid) is f
        assert len(sas_calls) == 1

    def test_larger_density_outlives_smaller_ones(self, sas_calls, monkeypatch):
        # a budget of four small grids: the one larger density is held
        # beside them, so small first-time densities evict only each
        # other, and the next larger one takes its place
        monkeypatch.setattr(density, "MEMO_POINTS", 4 * 2**10)
        small, big = GridSpec(2**10, 200.0), GridSpec(2**13, 400.0)
        f = realize(SaS(1.5, 1.0), big)
        for k in range(6):
            realize(SaS(1.5, 1.0 + 0.1 * k), small)
        assert realize(SaS(1.5, 1.0), big) is f
        assert sum(d.n for d in density._memo.values() if d.n <= 4 * 2**10) <= 4 * 2**10
        realize(SaS(1.2, 1.0), big)
        assert [d.n for d in density._memo.values()].count(big.n) == 1
        realize(SaS(1.5, 1.0), big)
        assert len(sas_calls) == 1 + 6 + 1 + 1

    def test_giie_table_realizes_its_largest_law_once(self, sas_calls, capsys):
        # S(0.4, 9.88) is realized on 2^21 points, over MEMO_POINTS; each
        # alpha's first-time reference density used to evict it
        assert cli.main(["giie-table"]) == 0
        large = [(a, grid.n) for a, _, grid in sas_calls if grid.n > MEMO_POINTS]
        assert large == [(0.4, 2**21)]
