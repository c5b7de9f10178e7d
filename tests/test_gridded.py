import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from stable_info.cli import DEFAULT_POWER_ALPHAS, DEFAULT_POWER_LAWS
from stable_info.density import Laplace, SaS, Shifted, Sum, Uniform, realize
from stable_info.gridded import (
    GriddedDensity,
    GridSpec,
    TailLaw,
    _not_a_knot,
)
from stable_info.stable import reference_gamma, sas_density, sas_series, tail_law


def masked_logpdf(f, xq, slope=False):
    """GriddedDensity.logpdf as it read the spline before it took no
    boolean masks: the spline at the points within r = min(accurate
    radius, last knot) only, gathered and scattered through a mask; the
    reference the gather-free reading must match bit for bit."""
    f.logpdf(0.0)
    xq = np.asarray(xq, dtype=float)
    scalar = xq.ndim == 0
    xq = np.atleast_1d(xq)
    out = np.empty_like(xq)
    knots, c = f._derived["spline"]
    signed = xq - f.center
    d = np.abs(signed)
    inside = d <= min(f.accurate_radius, knots[-1])
    outside = ~inside
    di = d[inside]
    k = np.minimum((di / f.h).astype(np.intp), knots.size - 2)
    s = di - knots.take(k)
    c0, c1, c2 = c[0].take(k), c[1].take(k), c[2].take(k)
    s2 = s * s
    out[inside] = c[3].take(k) + c2 * s + c1 * s2 + c0 * (s2 * s)
    tail_slope = 0.0
    if f.tail is None:
        out[outside] = np.log(1e-300)
    else:
        p = f.tail.pdf(d[outside], slope)
        if slope:
            p, tail_slope = p
        out[outside] = np.log(np.maximum(p, 1e-300))
    np.fmax(out, np.log(1e-300), out=out)
    if not slope:
        return out[0] if scalar else out
    dout = np.empty_like(xq)
    dout[inside] = (3.0 * c0 * s + 2.0 * c1) * s + c2
    dout[outside] = tail_slope
    dout.view(np.int64)[...] ^= signed.view(np.int64) & np.int64(-(2**63))
    return out, dout


def sliced_spline(f):
    """The knots and coefficients of f's log-density spline as logpdf
    built them before it made the knot abscissae once and started the
    build 64 knots left of the center: slices of f.x, which is read
    twice, over the whole noise run."""
    thresh = float(np.max(f.values)) * 1e-14
    i = int(np.argmax(f.values))
    stop = np.flatnonzero(~(f.values > thresh))
    left, right = stop[stop < i], stop[stop > i]
    lo = int(left[-1]) + 1 if left.size else 0
    hi = int(right[0]) - 1 if right.size else f.n - 1
    logp = np.log(np.clip(f.values[lo : hi + 1], 1e-300, None))
    knots = f.x[f.n // 2 : hi + 1] - f.center
    return knots, _not_a_knot(f.x[lo : hi + 1], logp, f.n // 2 - lo)


def horner_by_row(tail, x, slope=False):
    """TailLaw.pdf as it ran Horner's rule before it stacked A' and D'
    into one array: each row on its own, in place; the reference the
    stacked rule must match bit for bit."""
    t = np.abs(x)
    e = tail.exponent
    a, d = np.zeros_like(t), np.zeros_like(t)
    if tail._horner is None:
        lx = np.log(t)
        for ek, ck in ((e, tail.coefficient),) + tail.extra:
            term = ck * np.exp(-ek * lx)
            a, d = a + term, d + (ek - e) * term
        p = a / t
    else:
        v = t**-e
        for ak, dk in tail._horner[:, :0:-1].T:
            a *= v
            a += ak
            if slope:
                d *= v
                d += dk
        p = a * v / t
    if not slope:
        return p
    return p, -(1.0 + e + np.divide(d, a, out=np.zeros_like(t), where=a != 0)) / x


def gaussian_grid(sigma=1.0, n=2**14, L=12.0):
    g = GridSpec(n=n, half_extent=L)
    x = g.points()
    p = np.exp(-(x**2) / (2 * sigma**2)) / math.sqrt(2 * math.pi * sigma**2)
    return GriddedDensity(float(x[0]), g.h, p).normalize()


def noise_run(v):
    """(lo, hi): the run of values above 1e-14 of the peak that holds
    the peak, by an explicit walk outward from it."""
    thresh = float(np.max(v)) * 1e-14
    i = int(np.argmax(v))
    lo = i
    while lo > 0 and v[lo - 1] > thresh:
        lo -= 1
    hi = i
    while hi < len(v) - 1 and v[hi + 1] > thresh:
        hi += 1
    return lo, hi


def full_run_spline(f):
    """scipy's CubicSpline through the whole noise run of f, and the
    index of the center among its knots."""
    lo, hi = noise_run(f.values)
    logp = np.log(np.clip(f.values[lo : hi + 1], 1e-300, None))
    return CubicSpline(f.x[lo : hi + 1], logp, extrapolate=False), f.n // 2 - lo


def assert_rows_near_cubic_spline(c, ref, x, y):
    """The spline rows c within a roundoff bound of CubicSpline's rows
    ref through the knots x and values y.  Row i is compared times
    h^(3 - i), its share of the spline's change over one interval, with
    the bound (1e-14 + 10 eps) max|y|: eps is the relative spread of the
    spacing of x, which CubicSpline solves with and _not_a_knot takes as
    uniform.  Measured: at most 2.4e-15 max|y| on exactly uniform knots
    and 3 eps max|y| on the rounded knots of TestNotAKnot."""
    h = (x[-1] - x[0]) / (x.size - 1)
    eps = float(np.max(np.abs(np.diff(x) / h - 1.0)))
    bound = (1e-14 + 10.0 * eps) * float(np.max(np.abs(y)))
    assert c.shape == ref.shape
    for i in range(4):
        assert float(np.max(np.abs(c[i] - ref[i]))) * h ** (3 - i) <= bound


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
        assert mass == pytest.approx(0.3 * r**-1.5 / 1.5, rel=1e-10)

    def test_extra_terms(self):
        t = TailLaw(exponent=1.0, coefficient=0.5, extra=((2.0, -0.1),))
        x = 10.0
        assert t.pdf(x) == pytest.approx(0.5 * x**-2 - 0.1 * x**-3, rel=1e-13)
        mass, _ = quad(lambda u: t.pdf(u), 7.0, np.inf)
        assert mass == pytest.approx(0.5 / 7.0 - 0.1 / (2.0 * 7.0**2), rel=1e-9)

    # stable tails and "extra" are polynomials in |x|^-e, evaluated by
    # Horner's rule; the tail of a sum of laws with different exponents
    # is not, and takes one exp per term
    TAILS = [tail_law(sas_series(a, 1.0)) for a in (0.4, 1.2, 1.8)] + [
        TailLaw(exponent=1.0, coefficient=0.5, extra=((2.0, -0.1),)),
        tail_law(Sum(Laplace(1.0), SaS(1.2, 0.5)).series()),
    ]
    TAIL_IDS = ["stable-0.4", "stable-1.2", "stable-1.8", "extra", "sum"]

    @pytest.mark.parametrize("tail", TAILS, ids=TAIL_IDS)
    def test_pdf_matches_power_form(self, tail):
        xs = np.geomspace(10.0, 1e8, 500)
        x = np.concatenate([-xs, xs])
        direct = tail.coefficient * np.abs(x) ** (-(1.0 + tail.exponent))
        for ek, ck in tail.extra:
            direct = direct + ck * np.abs(x) ** (-(1.0 + ek))
        np.testing.assert_allclose(tail.pdf(x), direct, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("tail", TAILS, ids=TAIL_IDS)
    def test_slope_is_the_derivative(self, tail):
        assert (tail._horner is None) == (tail is self.TAILS[-1])
        xs = np.geomspace(10.0, 1e8, 50)
        x = np.concatenate([-xs, xs])
        p, dlp = tail.pdf(x, slope=True)
        assert np.array_equal(p, tail.pdf(x))
        central = (tail.pdf(x * (1 + 1e-6)) - tail.pdf(x * (1 - 1e-6))) / (2e-6 * x)
        np.testing.assert_allclose(dlp, central / p, rtol=1e-7, atol=0)

    @pytest.mark.parametrize("tail", TAILS, ids=TAIL_IDS)
    @pytest.mark.parametrize("slope", [False, True])
    def test_pdf_is_the_row_by_row_horner(self, tail, slope):
        # a scalar, an empty array, a flat array and the ML refinement's
        # (100, 10) shape, signed, from near r out to where p underflows
        d = np.geomspace(10.0, 1e300, 1000) * np.where(np.arange(1000) % 3, 1.0, -1.0)
        for x in (37.5, -2.0e5, np.empty(0), np.append(d, [np.inf, -np.inf]), d.reshape(100, 10)):
            got, want = tail.pdf(x, slope), horner_by_row(tail, x, slope)
            for g, w in zip(got, want) if slope else [(got, want)]:
                assert type(g) is type(w) and np.shape(g) == np.shape(w)
                assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))

    def test_validation(self):
        with pytest.raises(ValueError):
            TailLaw(exponent=0.0, coefficient=1.0)
        with pytest.raises(ValueError):
            TailLaw(exponent=1.0, coefficient=-1.0)


def core_by_search(f):
    """The core slice by a search over the grid: every index whose
    distance from n // 2, times h, is within the accurate radius."""
    off = np.abs(np.arange(f.n) - f.n // 2) * f.h
    k = np.flatnonzero(off <= f.accurate_radius)
    return slice(int(k[0]), int(k[-1]) + 1)


class TestCore:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_search(self, seed):
        # spacings both random and decimal (0.1, 0.03, ...), whose
        # multiples round either side of the radius; without a tail law
        # the radius is half_extent - h
        rng = np.random.default_rng(seed)
        for _ in range(600):
            n = 2 ** int(rng.integers(1, 15))
            h = float(rng.uniform(1e-4, 10.0))
            if rng.random() < 0.5:
                h = round(h, int(rng.integers(1, 4))) or 0.1
            tail = TailLaw(1.5, 1.0) if rng.random() < 0.5 else None
            f = GriddedDensity(float(rng.uniform(-1e3, 1e3)), h, np.ones(n), tail)
            assert f.core == core_by_search(f)

    @pytest.mark.parametrize("tail", [None, TailLaw(1.5, 1.0)])
    @pytest.mark.parametrize("h", [0.1, 0.3, 1.0, 400.0 / 2**16])
    def test_two_points(self, tail, h):
        # the center point alone is within the radius (0 or 0.9 h)
        f = GriddedDensity(-h, h, np.ones(2), tail)
        assert f.core == core_by_search(f) == slice(1, 2)


class TestGriddedDensity:
    def test_normalize(self):
        f = gaussian_grid()
        assert f.grid_mass() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "law", [Shifted(SaS(1.5, 1.0), 0.7), Sum(Laplace(1.0), SaS(1.5, 1.0)), Uniform(1.0)]
    )
    def test_quadratures_are_numpys_trapezoid(self, law):
        # the in-place trapezoids against np.trapezoid itself, bit for bit
        f = realize(law)
        assert f.grid_mass() == float(np.trapezoid(f.values, dx=f.h))
        assert f.core_mass() == float(np.trapezoid(f.values[f.core], dx=f.h))
        p = np.clip(f.values[f.core], 1e-300, None)
        _, w, log_p = f.tail_nodes()
        core = -float(np.trapezoid(p * np.log(p), dx=f.h))
        assert f.entropy() == core - 2.0 * float(np.add.reduce(w * log_p))

    # a shifted law, and every density the benchmark's power-table and
    # estimator-mc read through logpdf: the default power-table laws, the
    # reference laws and the Monte Carlo's noise laws
    SPLINE_LAWS = (
        [Shifted(SaS(1.5, 1.0), 0.7), Uniform(1.0)]
        + [law for law in DEFAULT_POWER_LAWS if law != Uniform(1.0)]
        + [SaS(a, reference_gamma(a)) for a in DEFAULT_POWER_ALPHAS]
        + [SaS(a, 1.0) for a in (1.2, 1.5, 1.8)]
    )

    @pytest.mark.parametrize("law", SPLINE_LAWS)
    def test_spline_is_the_sliced_build(self, law):
        # the build from n // 2 - 64 keeps the full run's rows, bit for bit
        base = realize(law)
        f = GriddedDensity(base.x0, base.h, base.values, base.tail)
        f.logpdf(0.0)
        kept = f._derived["spline"]
        knots, c = sliced_spline(f)
        assert np.array_equal(kept.x, knots) and np.array_equal(kept.c, c)

    @staticmethod
    def narrow_run(lo, hi):
        """A wavy bump on 2^11 points, h = 1/200, centered at x[1024] = 0,
        above the noise cut on exactly [lo, hi] (0 elsewhere)."""
        x = (np.arange(2**11) - 2**10) / 200.0
        v = np.exp(-(x**2) / 2.0) * (1.0 + 0.3 * np.sin(7.0 * x))
        v[:lo], v[hi + 1 :] = 0.0, 0.0
        return GriddedDensity(float(x[0]), 1.0 / 200.0, v)

    @pytest.mark.parametrize("lo_gap", [103, 90, 65, 64, 40], ids=lambda g: f"n//2-{g}")
    @pytest.mark.parametrize("hi_gap", [2047 - 1024, 503, 30], ids=lambda g: f"n//2+{g}")
    def test_narrow_runs_are_the_sliced_build(self, lo_gap, hi_gap):
        # a run that starts within the 40 knots of the full run's left end
        # correction from where the build starts (103 .. 65), at it (64),
        # or right of it (40, short on the left: the build starts at the
        # run's start); long, 568 knots from the build's start, or short
        # on the right
        f = self.narrow_run(1024 - lo_gap, 1024 + hi_gap)
        f.logpdf(0.0)
        kept = f._derived["spline"]
        knots, c = sliced_spline(f)
        assert kept.c.shape == (4, hi_gap)
        assert np.array_equal(kept.x, knots) and np.array_equal(kept.c, c)

    def test_logpdf_results_share_no_memory(self):
        # the work rows are reused from call to call; what logpdf returns
        # is the caller's own
        f = realize(SaS(1.5, 1.0))
        x = np.linspace(-30.0, 30.0, 1001)
        lp, dlp = f.logpdf(x, slope=True)
        keep = lp.copy(), dlp.copy()
        again, dagain = f.logpdf(x[::-1], slope=True)
        plain = f.logpdf(x)
        pairs = [(lp, again), (dlp, dagain), (lp, plain), (again, plain), (lp, dlp)]
        assert not any(np.shares_memory(a, b) for a, b in pairs)
        assert np.array_equal(lp, keep[0]) and np.array_equal(dlp, keep[1])

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
        # wings, so the spline stops short of the grid ends; either way
        # the kept knots run from the center to the run's right end
        f = gaussian_grid(sigma=sigma, L=L)
        f.logpdf(0.0)
        kept = f._derived["spline"]
        lo, hi = noise_run(f.values)
        assert (kept.x[0], kept.x[-1]) == (0.0, f.x[hi] - f.center)
        assert kept.c.shape == (4, hi - f.n // 2)
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
        v=st.floats(-1.0, 1.0),
        far=st.lists(st.floats(1.0, 3.0), min_size=1, max_size=10),
    )
    @settings(max_examples=25, deadline=None)
    def test_logpdf_matches_scipy_spline(self, make, u, v, far):
        # the spline through the whole noise run, read at |x - center|
        # on [-r, r]
        f = make()
        f.logpdf(0.0)
        kept = f._derived["spline"]
        spline, start = full_run_spline(f)
        assert_rows_near_cubic_spline(kept.c, spline.c[:, start:], spline.x, spline.c[3])
        assert np.array_equal(kept.x, spline.x[start:] - f.center)
        r = min(f.accurate_radius, kept.x[-1])
        d = np.concatenate([r * np.array(u), kept.x[::7], [0.0, r]])
        d = d[d <= r]
        want = spline(f.center + d)
        np.testing.assert_allclose(f.logpdf(f.center + d), want, rtol=0, atol=1e-14)
        np.testing.assert_allclose(f.logpdf(f.center - d), want, rtol=0, atol=1e-14)
        x0 = f.center + r * v
        assert np.ndim(f.logpdf(x0)) == 0
        assert f.logpdf(x0) == pytest.approx(float(spline(f.center + r * abs(v))), rel=0, abs=1e-14)
        # outside the region: the tail law, or the floor without one
        t = np.array(far) * f.half_extent + r
        out = np.concatenate([t, -t, [np.nextafter(r, np.inf), np.nextafter(-r, -np.inf)]])
        if f.tail is None:
            expect = np.full(out.size, np.log(1e-300))
        else:
            expect = np.log(np.clip(f.tail.pdf(np.abs(out)), 1e-300, None))
        assert np.array_equal(f.logpdf(f.center + out), expect)
        assert f.logpdf(np.nan) == np.log(1e-300)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: gaussian_grid(sigma=1.0, L=60.0),
            lambda: realize(SaS(1.2, 1.0)),
            lambda: realize(SaS(0.4, 1.0)),
            lambda: realize(Laplace(1.0)),
            lambda: GriddedDensity(0.5 - 12.0, 24.0 / 2**14, gaussian_grid().values),
        ],
        ids=["gaussian-short-spline", "sas", "sas-0.4", "laplace", "off-center"],
    )
    @given(
        d=st.lists(
            st.one_of(
                st.floats(0.0, 1.2),
                st.floats(1.2, 1e300),
                st.sampled_from([0.0, 1.0, math.nan, math.inf]),
            ),
            min_size=1,
            max_size=60,
        ),
        sign=st.lists(st.booleans(), min_size=60, max_size=60),
        shape=st.sampled_from(["scalar", "flat", "rows", "columns"]),
        slope=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_logpdf_is_the_masked_reading(self, make, d, sign, shape, slope):
        # distances in units of r = min(accurate radius, last knot), so
        # they fall inside, on and beyond the spline region, signed, and
        # NaN and +-inf among them
        f = make()
        f.logpdf(0.0)
        r = min(f.accurate_radius, f._derived["spline"].x[-1])
        x = np.array(d) * r * np.where(sign[: len(d)], 1.0, -1.0)
        x = f.center + np.concatenate([x, [r, -r, np.nextafter(r, np.inf)]])
        if shape == "scalar":
            x = x[0]
        elif shape != "flat":
            x = x[: x.size // 2 * 2].reshape(2, -1)
            # columns: the transpose, laid out in Fortran order
            x = x.T if shape == "columns" else x
        got, want = f.logpdf(x, slope), masked_logpdf(f, x, slope)
        for g, w in zip(got, want) if slope else [(got, want)]:
            assert np.shape(g) == np.shape(w)
            assert np.array_equal(g, w, equal_nan=True)
            assert np.array_equal(np.signbit(g), np.signbit(w))

    @pytest.mark.parametrize(
        "make", [gaussian_grid, lambda: realize(SaS(1.2, 1.0))], ids=["gaussian", "sas"]
    )
    def test_logpdf_slope_on_nodes(self, make):
        # nodes from the center out across the spline region into the
        # tail (or the floor), as a folded quadrature rule passes them;
        # the same distances shuffled onto both sides; and those as a
        # 2-D array
        f = make()
        d = np.linspace(0.0, 1.5 * f.half_extent, 3001)
        two_sided = np.random.default_rng(0).permutation(np.concatenate([d, -d[1:]]))
        e = 1e-6 * f.half_extent
        f.logpdf(0.0)
        r = min(f.accurate_radius, f._derived["spline"].x[-1])
        for x in f.center + d, f.center + two_sided, f.center + two_sided[:6000].reshape(60, 100):
            lp, dlp = f.logpdf(x, slope=True)
            assert np.array_equal(lp, f.logpdf(x))
            central = (f.logpdf(x + e) - f.logpdf(x - e)) / (2.0 * e)
            # the handoff from spline to tail is not smooth
            smooth = np.abs(np.abs(x - f.center) - r) > 2.0 * e
            np.testing.assert_allclose(dlp[smooth], central[smooth], rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize(
        "make",
        [
            gaussian_grid,
            lambda: realize(SaS(1.2, 1.0)),
            lambda: realize(Laplace(1.0)),
            # centered at 0.5, where center +- d is exact for d on 2^-10
            lambda: GriddedDensity(0.5 - 12.0, 24.0 / 2**14, gaussian_grid().values),
        ],
        ids=["gaussian", "sas", "laplace", "shifted"],
    )
    def test_logpdf_is_symmetric_about_the_center(self, make):
        # one reading for both sides, spline, tail and floor alike
        f = make()
        d = np.arange(1, 2**14) * 2.0**-10 * (1.5 * f.half_extent // 16 + 1)
        d = np.concatenate([d, [1e10, 1e100, 1e130, 1e200, 1e300]])
        right, dright = f.logpdf(f.center + d, slope=True)
        left, dleft = f.logpdf(f.center - d, slope=True)
        assert np.array_equal(left, right)
        assert np.array_equal(dleft, -dright)
        assert np.all(np.isfinite(dright))

    @pytest.mark.parametrize("alpha", [0.4, 1.5, 1.9])
    def test_tail_slope_where_the_density_underflows(self, alpha):
        # p = 0 from |x| ~ 1e129 at alpha 1.5, and x |x| overflows past
        # 1.3e154: the slope is the leading term's -(1 + alpha)/x there
        f = realize(SaS(alpha, 1.0))
        x = np.array([1e100, 1e130, 1e160, 1e200, 1e300, np.inf])
        x = np.concatenate([x, -x])
        lp, dlp = f.logpdf(x, slope=True)
        p = f.tail.pdf(x)
        zero = p == 0
        assert zero[4] and zero[5]
        assert np.array_equal(dlp[zero], -(1.0 + alpha) / x[zero])
        assert np.array_equal(lp, f.logpdf(x))
        assert np.all(lp[zero] == np.log(1e-300))
        assert dlp[0] == pytest.approx(-(1.0 + alpha) / 1e100, rel=1e-12)

    def test_tail_slope_where_the_slope_underflows(self):
        # at alpha 0.4 p is still positive at 1e140 to 1e200, but p' =
        # p d ln p/dx underflows to 0 there: the slope is not -0.0 but
        # the leading term's -(1 + alpha)/x
        f = realize(SaS(0.4, 1.0))
        x = np.array([1e140, 1e150, 1e200, -1e140, -1e150, -1e200])
        p, dlp = f.tail.pdf(x, slope=True)
        assert np.all(p > 0) and np.all(p * dlp == 0)
        np.testing.assert_allclose(dlp, -1.4 / x, rtol=1e-15)
        np.testing.assert_allclose(f.logpdf(x, slope=True)[1], -1.4 / x, rtol=1e-15)

    def test_tail_slope_where_the_slope_is_subnormal(self):
        # p' is subnormal from about 1e130 at alpha 0.4, and a slope
        # taken as p'/p lost its digits there (1.6 % at 1e134); the
        # higher terms of the series are below 1e-50 of the first
        f = realize(SaS(0.4, 1.0))
        x = np.array([1e130, 1e132, 1e133, 1e134])
        x = np.concatenate([x, -x])
        np.testing.assert_allclose(f.logpdf(x, slope=True)[1], -1.4 / x, rtol=1e-12, atol=0)

    def test_logpdf_beyond_grid_without_tail_is_floored(self):
        f = gaussian_grid()
        assert float(f.logpdf(100.0)) < -600.0

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            GriddedDensity(-1.0, 0.5, np.array([0.1, -0.2, 0.1]))


class TestNotAKnot:
    """_not_a_knot is scipy's not-a-knot CubicSpline, coefficient for
    coefficient to roundoff (assert_rows_near_cubic_spline), on knots
    laid out as logpdf lays them out."""

    @staticmethod
    def knots(m):
        return -7.3 + 0.0123 * np.arange(m)

    @pytest.mark.parametrize("m", [4, 5, 17, 2**16])
    @pytest.mark.parametrize("noisy", [False, True], ids=["smooth", "noisy"])
    def test_bit_identical_to_cubic_spline(self, m, noisy):
        # bit for bit while the slopes came from scipy's banded solver;
        # the recursive filter holds them to the roundoff bound, which
        # here is set by the rounding of the knots (eps 4.8e-14 to 7.8e-12)
        x = self.knots(m)
        y = np.random.default_rng(m).standard_normal(m) if noisy else np.sin(x) - 0.5 * x**2
        c = CubicSpline(x, y).c
        for start in 0, 1, m // 2, m - 2:
            assert_rows_near_cubic_spline(_not_a_knot(x, y, start), c[:, start:], x, y)

    @pytest.mark.parametrize("m", [4, 40, 41, 2**16])
    @pytest.mark.parametrize("noisy", [False, True], ids=["smooth", "noisy"])
    def test_exactly_uniform_knots(self, m, noisy):
        # spacing 1/64, so eps = 0 and the bound is 1e-14 max|y|; m = 40
        # and 41 put the two end corrections on every knot and just past
        x = -7.25 + np.arange(m) / 64.0
        y = np.random.default_rng(m).standard_normal(m) if noisy else np.sin(x) - 0.5 * x**2
        assert_rows_near_cubic_spline(_not_a_knot(x, y, 0), CubicSpline(x, y).c, x, y)

    @pytest.mark.parametrize("m", [2, 3])
    def test_short_regions(self, m):
        # scipy takes m = 2 as the line and m = 3 as the one parabola
        # through the knots
        x = self.knots(m)
        y = np.array([-1.0, 0.5, 0.2][:m])
        c = _not_a_knot(x, y, 0)
        assert c.shape == (4, m - 1)
        assert np.array_equal(c, CubicSpline(x, y).c)
        assert np.array_equal(_not_a_knot(x, y, m - 2), CubicSpline(x, y).c[:, m - 2 :])

    def test_one_knot_refused(self):
        with pytest.raises(ValueError, match="at least 2 knots"):
            _not_a_knot(np.array([0.5]), np.array([1.0]), 0)

    @pytest.mark.parametrize("start", [-1, 4])
    def test_start_without_an_interval_refused(self, start):
        x = self.knots(5)
        with pytest.raises(ValueError, match="no spline interval"):
            _not_a_knot(x, np.sin(x), start)

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


def series_mass_beyond(tail, x):
    """One side's mass of a tail series beyond x, in closed form:
    sum_k c_k x^(-e_k) / e_k."""
    return sum(c * x**-e / e for e, c in ((tail.exponent, tail.coefficient),) + tail.extra)


def last_core_point(f):
    """The largest distance from the center of a grid point within the
    accurate radius, by a search over the grid."""
    d = np.abs(f.x - f.center)
    return float(np.max(d[d <= f.accurate_radius]))


class TestTailRule:
    # the rule is the trapezoid rule with end corrections in s = a ln(n/x_last),
    # O(h^4) at h = 0.04: 1.52e-8 low on the leading term's e^-s
    REL = 2e-8

    @pytest.mark.parametrize("r,a", [(0.9, 0.4), (180.0, 1.0), (3600.0, 1.7)])
    def test_closed_forms_match_quadrature(self, r, a):
        # a stable tail of scale r / 180 on a grid whose last core point
        # is near r: twice the rule's weights are its two-sided mass
        tail = tail_law(sas_series(a, r / 180.0))
        f = GriddedDensity(-r / 0.9, r / 0.9 / 512, np.ones(1024), tail)
        n, w, _ = f.tail_nodes()
        x_last = last_core_point(f)
        assert n[0] == pytest.approx(x_last, rel=1e-15)
        assert 2.0 * float(np.sum(w)) == pytest.approx(
            2.0 * series_mass_beyond(tail, x_last), rel=self.REL, abs=0
        )

    def test_tail_carries_the_missing_mass(self):
        # the mass the core trapezoid misses is the series' beyond the
        # last core point
        f = sas_density(1.5, 1.0)
        sel = np.abs(f.x - f.center) <= f.accurate_radius
        core = float(np.trapezoid(f.values[sel], dx=f.h))
        missing = 2.0 * series_mass_beyond(f.tail, last_core_point(f))
        assert 1.0 - core == pytest.approx(missing, rel=self.REL, abs=0)

    def test_no_rule_without_tail(self):
        n, w, log_p = gaussian_grid().tail_nodes()
        assert n.size == w.size == log_p.size == 0
