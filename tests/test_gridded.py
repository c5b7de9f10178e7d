import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from stable_info.density import SaS, Uniform, realize
from stable_info.gridded import (
    GriddedDensity,
    GridSpec,
    TailLaw,
    _not_a_knot,
    power_tail_integrals,
)
from stable_info.stable import _tail_law, sas_density


def gaussian_grid(sigma=1.0, n=2**14, L=12.0):
    g = GridSpec(n=n, half_extent=L)
    x = g.points()
    p = np.exp(-(x**2) / (2 * sigma**2)) / math.sqrt(2 * math.pi * sigma**2)
    return GriddedDensity(float(x[0]), g.h, p).normalize()


class TestGridSpec:
    def test_points_symmetric(self):
        g = GridSpec(n=8, half_extent=4.0)
        x = g.points()
        assert x[0] == -4.0
        assert x[len(x) // 2] == 0.0
        assert g.h == 1.0

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            GridSpec(n=100, half_extent=1.0)
        with pytest.raises(ValueError):
            GridSpec(n=2**10, half_extent=-1.0)


class TestTailLaw:
    def test_pdf_and_mass(self):
        t = TailLaw(exponent=1.5, coefficient=0.3)
        r = 5.0
        mass, _ = quad(lambda x: t.pdf(x), r, np.inf)
        assert t.mass_beyond(r) == pytest.approx(2.0 * mass, rel=1e-10)

    def test_extra_terms(self):
        t = TailLaw(exponent=1.0, coefficient=0.5, extra=((2.0, -0.1),))
        x = 10.0
        assert t.pdf(x) == pytest.approx(0.5 * x**-2 - 0.1 * x**-3, rel=1e-13)
        mass, _ = quad(lambda u: t.pdf(u), 7.0, np.inf)
        assert t.mass_beyond(7.0) == pytest.approx(2.0 * mass, rel=1e-9)

    @pytest.mark.parametrize(
        "tail",
        [_tail_law(a, 1.0) for a in (0.4, 1.2, 1.8)]
        + [TailLaw(exponent=1.0, coefficient=0.5, extra=((2.0, -0.1),))],
        ids=["stable-0.4", "stable-1.2", "stable-1.8", "extra"],
    )
    def test_pdf_matches_power_form(self, tail):
        xs = np.geomspace(10.0, 1e8, 500)
        x = np.concatenate([-xs, xs])
        direct = tail.coefficient * np.abs(x) ** (-(1.0 + tail.exponent))
        for ek, ck in tail.extra:
            direct = direct + ck * np.abs(x) ** (-(1.0 + ek))
        np.testing.assert_allclose(tail.pdf(x), direct, rtol=1e-14, atol=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TailLaw(exponent=0.0, coefficient=1.0)
        with pytest.raises(ValueError):
            TailLaw(exponent=1.0, coefficient=-1.0)


class TestGriddedDensity:
    def test_normalize(self):
        f = gaussian_grid()
        assert f.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_entropy_gaussian(self):
        f = gaussian_grid(sigma=1.3)
        expect = 0.5 * math.log(2 * math.pi * math.e * 1.3**2)
        assert f.entropy() == pytest.approx(expect, abs=1e-6)

    def test_entropy_with_tail_matches_quadrature(self):
        # student-t like synthetic: p = c / (1 + x^2)^1.25 has a
        # |x|^(-2.5) tail (exponent 1.5)
        c = 1.0 / quad(lambda x: (1 + x**2) ** -1.25, -np.inf, np.inf)[0]
        g = GridSpec(n=2**16, half_extent=400.0)
        x = g.points()
        p = c * (1 + x**2) ** -1.25
        f = GriddedDensity(float(x[0]), g.h, p, TailLaw(1.5, c)).normalize()
        expect = quad(
            lambda u: -2 * c * (1 + u**2) ** -1.25 * math.log(c * (1 + u**2) ** -1.25),
            0,
            np.inf,
        )[0]
        assert f.entropy() == pytest.approx(expect, abs=1e-4)

    def test_logpdf_interpolation(self):
        f = gaussian_grid(sigma=1.0)
        for x in (0.13, -2.71, 3.5):
            expect = -0.5 * math.log(2 * math.pi) - x**2 / 2
            assert float(f.logpdf(x)) == pytest.approx(expect, abs=1e-6)

    @pytest.mark.parametrize("sigma,L", [(3.0, 12.0), (1.0, 60.0)])
    def test_logpdf_spline_span(self, sigma, L):
        # N(0, 9) on [-12, 12) stays above the cut, so the spline spans
        # the whole grid; N(0, 1) on [-60, 60) underflows to 0 in both
        # wings, so the spline stops short of the grid ends
        def loop_span(v):
            thresh = float(np.max(v)) * 1e-14
            i = int(np.argmax(v))
            lo = i
            while lo > 0 and v[lo - 1] > thresh:
                lo -= 1
            hi = i
            while hi < len(v) - 1 and v[hi + 1] > thresh:
                hi += 1
            return lo, hi

        f = gaussian_grid(sigma=sigma, L=L)
        f.logpdf(0.0)
        lo, hi = loop_span(f.values)
        assert (f._spline.x[0], f._spline.x[-1]) == (f.x[lo], f.x[hi])
        assert ((lo, hi) == (0, f.n - 1)) == (sigma == 3.0)
        assert (np.min(f.values) == 0.0) == (sigma == 1.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: gaussian_grid(sigma=1.0, L=60.0),
            lambda: realize(SaS(1.2, 1.0)),
            lambda: realize(Uniform(1.0)),
        ],
        ids=["gaussian-short-spline", "sas-whole-grid", "uniform"],
    )
    @given(
        u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50),
        v=st.floats(0.0, 1.0),
        far=st.lists(st.floats(1.0, 3.0), min_size=1, max_size=10),
    )
    @settings(max_examples=25, deadline=None)
    def test_logpdf_matches_scipy_spline(self, make, u, v, far):
        f = make()
        f.logpdf(0.0)
        knots = f._spline.x
        lo = int(np.searchsorted(f.x, knots[0]))
        logp = np.log(np.clip(f.values[lo : lo + knots.size], 1e-300, None))
        spline = CubicSpline(knots, logp, extrapolate=False)
        assert np.array_equal(f._spline.c, spline.c)
        r = min(f.accurate_radius, knots[-1])
        r_lo = max(-r, knots[0])
        xs = np.concatenate([r_lo + (r - r_lo) * np.array(u), knots[::7], [r_lo, r]])
        xs = xs[(xs >= r_lo) & (xs <= r)]
        np.testing.assert_allclose(f.logpdf(xs), spline(xs), rtol=0, atol=1e-14)
        x0 = r_lo + (r - r_lo) * v
        assert np.ndim(f.logpdf(x0)) == 0
        assert f.logpdf(x0) == pytest.approx(float(spline(x0)), rel=0, abs=1e-14)
        # outside the region: the tail law, or the floor without one
        t = np.array(far) * f.half_extent + r
        out = np.concatenate([t, -t, [np.nextafter(r, np.inf), np.nextafter(r_lo, -np.inf)]])
        if f.tail is None:
            expect = np.full(out.size, np.log(1e-300))
        else:
            expect = np.log(np.clip(f.tail.pdf(np.abs(out)), 1e-300, None))
        assert np.array_equal(f.logpdf(out), expect)
        assert f.logpdf(np.nan) == np.log(1e-300)

    def test_logpdf_beyond_grid_without_tail_is_floored(self):
        f = gaussian_grid()
        assert float(f.logpdf(100.0)) < -600.0

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            GriddedDensity(-1.0, 0.5, np.array([0.1, -0.2, 0.1]))


class TestNotAKnot:
    """_not_a_knot is scipy's not-a-knot CubicSpline, coefficient for
    coefficient, on knots laid out as logpdf lays them out."""

    @staticmethod
    def knots(m):
        return -7.3 + 0.0123 * np.arange(m)

    @pytest.mark.parametrize("m", [4, 5, 17, 2**16])
    @pytest.mark.parametrize("noisy", [False, True], ids=["smooth", "noisy"])
    def test_bit_identical_to_cubic_spline(self, m, noisy):
        x = self.knots(m)
        y = np.random.default_rng(m).standard_normal(m) if noisy else np.sin(x) - 0.5 * x**2
        assert np.array_equal(_not_a_knot(x, y), CubicSpline(x, y).c)

    @pytest.mark.parametrize("m", [2, 3])
    def test_short_regions(self, m):
        # scipy takes m = 2 as the line and m = 3 as the one parabola
        # through the knots
        x = self.knots(m)
        y = np.array([-1.0, 0.5, 0.2][:m])
        c = _not_a_knot(x, y)
        assert c.shape == (4, m - 1)
        assert np.array_equal(c, CubicSpline(x, y).c)

    def test_one_knot_refused(self):
        with pytest.raises(ValueError, match="at least 2 knots"):
            _not_a_knot(np.array([0.5]), np.array([1.0]))

    @pytest.mark.parametrize("peak", [[1.0], [1.0, 2.0], [1.0, 2.0, 0.5]], ids=["m1", "m2", "m3"])
    def test_logpdf_on_short_regions(self, peak):
        # values that clear the noise cut at only m = 1, 2 or 3 points,
        # from the center x[8] = 0 rightward
        m = len(peak)
        v = np.zeros(16)
        v[8 : 8 + m] = peak
        f = GriddedDensity(-4.0, 0.5, v)
        if m == 1:
            with pytest.raises(ValueError, match="at least 2 knots"):
                f.logpdf(0.0)
            return
        knots = f.x[8 : 8 + m]
        xs = np.linspace(knots[0], knots[-1], 9)
        want = CubicSpline(knots, np.log(peak))(xs)
        np.testing.assert_allclose(f.logpdf(xs), want, rtol=0, atol=1e-15)


class TestTailRule:
    @pytest.mark.parametrize("r,a", [(0.9, 0.4), (180.0, 1.0), (3600.0, 1.7)])
    def test_closed_forms_match_quadrature(self, r, a):
        # x = r u puts the lower limit at 1, where quad resolves the decay
        i0, i1 = power_tail_integrals(r, a)
        mass = quad(lambda u: u ** (-1 - a), 1.0, np.inf)[0]
        log_moment = quad(lambda u: u ** (-1 - a) * math.log(r * u), 1.0, np.inf)[0]
        assert i0 == pytest.approx(r ** (-a) * mass, rel=1e-10)
        assert i1 == pytest.approx(r ** (-a) * log_moment, rel=1e-10)

    def test_tail_carries_the_missing_mass(self):
        f = sas_density(1.5, 1.0)
        r, a, c_eff = f.tail_rule()
        assert (r, a) == (f.accurate_radius, 1.5)
        i0, _ = power_tail_integrals(r, a)
        assert 2.0 * c_eff * i0 == pytest.approx(1.0 - f.core_mass(), rel=1e-12)

    def test_no_rule_without_tail(self):
        assert gaussian_grid().tail_rule() is None
