import functools
import math

import numpy as np
import pytest
from numpy.polynomial import Chebyshev
from scipy.special import zeta
from scipy.stats import kstest

from stable_info import density
from stable_info.density import (
    MEMO_POINTS,
    Cauchy,
    Gaussian,
    Laplace,
    SaS,
    Scaled,
    Sum,
    Uniform,
    plan_grid,
    realize,
)
from stable_info.gridded import GriddedDensity, GridSpec
from stable_info.specfun import gamma_fn, hurwitz_zeta
from stable_info.stable import (
    _ALIAS_DEGREE,
    StableParams,
    _alias_images,
    cf_sas,
    logpdf_sas,
    pdf_grid_cf,
    pdf_grid_sas,
    reference_entropy,
    reference_gamma,
    sample_sas,
    sas_density,
    sas_series,
    tail_constant_k1,
    tail_law,
)


def cauchy_pdf(x, gamma):
    return gamma / (math.pi * (x**2 + gamma**2))


def sas_tail(alpha, gamma):
    return tail_law(sas_series(alpha, gamma))


def tail_terms(tail):
    """Exponents s_k = 1 + e_k and coefficients c_k of the tail series
    sum_k c_k |x|^(-s_k)."""
    e, c = np.array(((tail.exponent, tail.coefficient),) + tail.extra).T
    return e + 1.0, c


def full_alias_interpolant(x, alpha, gamma, L):
    """The image sum's degree-32 interpolant with every coefficient,
    odd ones included, evaluated at x/L."""
    s, c = tail_terms(sas_tail(alpha, gamma))
    weights = c * (2.0 * L) ** (-s)

    def image_sum(t):
        return (hurwitz_zeta(s, 1.0 + t / 2.0) + hurwitz_zeta(s, 1.0 - t / 2.0)) @ weights

    return Chebyshev.interpolate(image_sum, _ALIAS_DEGREE)(x / L)


def fine_grid_pdf(alpha, gamma, grid):
    """pdf_grid_sas by the unfolded route: a complex inverse FFT on the
    grid refined `stride` times, every stride-th point kept, and the
    full interpolant of the image sum subtracted at every grid point."""
    h = grid.h
    x = grid.points()
    stride = 1
    while (gamma * math.pi / (h / stride)) ** alpha < 27.0:
        stride *= 2
    h_fine = h / stride
    w = 2.0 * math.pi * np.fft.fftfreq(grid.n * stride, d=h_fine)
    phi = np.exp(-(gamma**alpha) * np.abs(w) ** alpha)
    p = np.fft.fftshift(np.fft.ifft(phi).real)[::stride] / h_fine
    p -= full_alias_interpolant(x, alpha, gamma, grid.half_extent)
    out = GriddedDensity(float(x[0]), h, np.clip(p, 0.0, None), sas_tail(alpha, gamma))
    return out.normalize(), stride


def plain_alias_images(x, tail, L):
    """_alias_images as it was before it took zeta at half the nodes and
    summed the even series in place: Chebyshev.interpolate of the image
    sum at all 33 nodes, its even coefficients evaluated by Chebyshev's
    call, with zeta taken at 1 + u and at 1 - u in two calls.  The
    reference the new one must match bit for bit."""
    s, c = tail_terms(tail)
    weights = c * (2.0 * L) ** (-s)

    def image_sum(t):
        return (hurwitz_zeta(s, 1.0 + t / 2.0) + hurwitz_zeta(s, 1.0 - t / 2.0)) @ weights

    even = Chebyshev(Chebyshev.interpolate(image_sum, _ALIAS_DEGREE).coef[::2])
    return even(2.0 * (x / L) ** 2 - 1.0)


def plain_cf_sas(alpha, gamma, w):
    """cf_sas as it was before it skipped the lanes where it is 0.0: the
    power and exp over every lane."""
    return np.exp(-(gamma**alpha) * np.abs(w) ** alpha)


def plain_gaussian_cf(sigma, w):
    """Gaussian.cf as it was before it skipped the lanes where it is 0.0."""
    return np.exp(-0.5 * (sigma * w) ** 2)


def plain_gaussian_pdf(sigma, x):
    """Gaussian._pdf as it was before it skipped the lanes where it is 0.0."""
    s2 = sigma**2
    return np.exp(-(x**2) / (2 * s2)) / math.sqrt(2 * math.pi * s2)


def plain_cf(law):
    """law.cf with plain_cf_sas and plain_gaussian_cf at its stable,
    Cauchy and Gaussian parts, so a test of the inverter also sees a
    change in those characteristic functions."""
    if isinstance(law, (SaS, Cauchy)):
        return functools.partial(plain_cf_sas, getattr(law, "alpha", 1.0), law.gamma)
    if isinstance(law, Gaussian):
        return functools.partial(plain_gaussian_cf, law.sigma)
    if isinstance(law, Sum):
        cf1, cf2 = plain_cf(law.law1), plain_cf(law.law2)
        return lambda w: cf1(w) * cf2(w)
    if isinstance(law, Scaled):
        cf = plain_cf(law.law)
        return lambda w: cf(law.c * w)
    assert isinstance(law, (Laplace, Uniform))
    return law.cf


def plain_pdf_grid_cf(cf, tail, grid):
    """pdf_grid_cf as it was before it built the density in one buffer:
    the full grid.points(), fftshift, a concatenated image array, a
    clipped copy and normalize's np.trapezoid, each a new array."""
    h, n = grid.h, grid.n
    x = grid.points()
    probe = math.pi / h * np.array([1.0, math.sqrt(2.0)])
    stride = 1
    while np.max(np.abs(cf(stride * probe))) > math.exp(-27.0):
        if n * stride * 2 > 2**22:
            break
        stride *= 2
    w = 2.0 * math.pi * np.fft.rfftfreq(n * stride, d=h / stride)
    phi = cf(w)
    if stride > 1:
        full = np.concatenate([phi, phi[-2:0:-1]])
        phi = full.reshape(stride, n).sum(axis=0)[: n // 2 + 1]
    p = np.fft.fftshift(np.fft.irfft(phi, n)) / h
    if tail is not None:
        images = plain_alias_images(x[: n // 2 + 1], tail, grid.half_extent)
        p -= np.concatenate([images, images[-2:0:-1]])
    f = GriddedDensity(float(x[0]), h, np.clip(p, 0.0, None), tail)
    if tail is None:
        return GriddedDensity(f.x0, h, f.values / float(np.trapezoid(f.values, dx=h)))
    core = float(np.trapezoid(f.values[f.core], dx=h))
    return GriddedDensity(f.x0, h, f.values * ((1.0 - f.tail_mass()) / core), tail)


GIIE_MIX = Sum(SaS(1.8, reference_gamma(1.8)), Gaussian(3.889735))
# (law, grid) pairs the one-buffer inverter is held to the plain route on
INVERSIONS = [
    pytest.param(SaS(0.4, 1.0), GridSpec(2**16, 200.0), id="S0.4-folded"),
    pytest.param(SaS(1.2, 1.0), GridSpec(2**16, 200.0), id="S1.2"),
    pytest.param(SaS(1.8, 1.0), GridSpec(2**16, 200.0), id="S1.8"),
    pytest.param(Cauchy(1.0), GridSpec(2**16, 200.0), id="cauchy"),
    pytest.param(Sum(SaS(1.8, 1.0), Gaussian(1.5)), GridSpec(2**16, 300.0), id="sum-53-terms"),
    pytest.param(Scaled(SaS(1.5, 1.0), -2.0), GridSpec(2**16, 400.0), id="scaled-negative"),
    pytest.param(Sum(Gaussian(1.0), Laplace(1.0)), GridSpec(2**16, 200.0), id="no-tail"),
    pytest.param(SaS(0.6, 1.0), plan_grid(SaS(0.6, 1.0), 0.6), id="spectral-2^17"),
    # the giie-mix sum of the inequality-checks benchmark on its spectral
    # grid: its Gaussian factor crosses the subnormal band of exp
    pytest.param(GIIE_MIX, plan_grid(GIIE_MIX, 1.8), id="giie-mix"),
]
TAILED = [case for case in INVERSIONS if tail_law(case.values[0].series()) is not None]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            StableParams(alpha=0.0)
        with pytest.raises(ValueError):
            StableParams(alpha=2.5)
        with pytest.raises(ValueError):
            StableParams(alpha=1.5, gamma=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            StableParams(alpha=bad)
        with pytest.raises(ValueError):
            StableParams(alpha=1.5, gamma=bad)

    def test_symmetric_constructor(self):
        p = StableParams.symmetric(1.3, 0.7)
        assert p.alpha == 1.3 and p.gamma == 0.7


class TestTailConstant:
    def test_printed_formula(self):
        # k1 = 2^a sin(pi a/2)/(pi a/2) G((2+a)/2) G((d+a)/2) / G(d/2)
        a, d = 1.3, 3
        half = math.pi * a / 2.0
        expect = (
            2.0**a
            * math.sin(half)
            / half
            * gamma_fn((2.0 + a) / 2.0)
            * gamma_fn((d + a) / 2.0)
            / gamma_fn(d / 2.0)
        )
        assert tail_constant_k1(a, d) == pytest.approx(expect, rel=1e-14)

    def test_cauchy_d1(self):
        # at alpha=1, d=1 the formula collapses to 2 * (2/pi) * G(1.5) / G(0.5)
        val = tail_constant_k1(1.0, 1)
        expect = 2.0 * (2.0 / math.pi) * gamma_fn(1.5) * gamma_fn(1.0) / gamma_fn(0.5)
        assert val == pytest.approx(expect, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            tail_constant_k1(2.0, 1)
        with pytest.raises(ValueError):
            tail_constant_k1(1.5, 0)


class TestDensity:
    def test_cauchy_pointwise(self):
        f = sas_density(1.0, 1.0)
        xs = np.array([0.0, 0.5, 1.0, 3.0, 10.0, 50.0])
        for x in xs:
            assert f.pdf(x) == pytest.approx(cauchy_pdf(x, 1.0), rel=1e-6, abs=1e-10)

    def test_gaussian_pointwise(self):
        f = sas_density(2.0, 1.0)
        for x in (0.0, 1.0, 2.5):
            expect = math.exp(-(x**2) / 4.0) / math.sqrt(4.0 * math.pi)
            assert f.pdf(x) == pytest.approx(expect, rel=1e-8)

    def test_mass_is_one(self):
        for a in (0.6, 1.0, 1.4, 1.9):
            f = sas_density(a, 1.0)
            assert f.core_mass() + f.tail_mass() == pytest.approx(1.0, abs=1e-9)
        # the Gaussian has no tail law: all its mass is on the grid
        assert sas_density(2.0, 1.0).grid_mass() == pytest.approx(1.0, abs=1e-9)

    def test_symmetry(self):
        f = sas_density(1.4, 1.0)
        v = f.values
        assert np.allclose(v[1:], v[1:][::-1], rtol=1e-9, atol=1e-12)

    def test_tail_handoff_continuity(self):
        # log-density must be continuous across the grid/tail boundary
        for a in (0.8, 1.2, 1.7):
            f = sas_density(a, 1.0)
            r = f.accurate_radius
            eps = 1e-6 * r
            inside = float(f.logpdf(r - eps))
            outside = float(f.logpdf(r + eps))
            assert inside == pytest.approx(outside, abs=1e-4)

    def test_grid_too_coarse_raises(self):
        # refinement is capped; a scale far below the spacing still fails,
        # as a numeric failure, and the message names what failed rather
        # than a grid knob
        with pytest.raises(ArithmeticError) as err:
            pdf_grid_sas(1.5, 1e-4, GridSpec(n=2**12, half_extent=500.0))
        msg = str(err.value)
        assert "alpha=1.5" in msg and "gamma=0.0001" in msg
        assert "spacing 0.244141" in msg and "2^22 points" in msg
        assert "increase n" not in msg

    def test_small_alpha_warns(self):
        with pytest.warns(UserWarning):
            with pytest.raises(ArithmeticError):
                pdf_grid_sas(0.25, 1.0, GridSpec(2**16, 200.0))


class TestAliasCorrection:
    @pytest.mark.parametrize("alpha", [0.4, 0.8, 1.2, 1.5, 1.8])
    def test_interpolant_matches_direct_zeta_sum(self, alpha):
        # the image sum evaluated term by term at every point, against
        # the 33-node Chebyshev interpolant of the same sum
        grid = GridSpec(2**16, 200.0)
        L = grid.half_extent
        x = grid.points()[:: grid.n // 256]
        x = np.append(x, L)
        assert x.size == 257
        s, c = tail_terms(sas_tail(alpha, 1.0))
        u = x[:, None] / (2.0 * L)
        terms = c * (2.0 * L) ** (-s)
        direct = (terms * (zeta(s, 1.0 + u) + zeta(s, 1.0 - u))).sum(axis=1)
        peak = float(np.max(pdf_grid_sas(alpha, 1.0, grid).values))
        assert np.max(np.abs(_alias_images(x, sas_tail(alpha, 1.0), L) - direct)) <= 1e-15 * peak

    @pytest.mark.parametrize("alpha", [0.4, 1.2, 1.8])
    def test_even_series_matches_full_interpolant(self, alpha):
        # the half-degree series in 2(x/L)^2 - 1 against the degree-32
        # interpolant, at every point of the grid
        grid = GridSpec(2**16, 200.0)
        x = grid.points()
        L = grid.half_extent
        full = full_alias_interpolant(x, alpha, 1.0, L)
        peak = float(np.max(pdf_grid_sas(alpha, 1.0, grid).values))
        assert np.max(np.abs(_alias_images(x, sas_tail(alpha, 1.0), L) - full)) <= 1e-15 * peak

    @pytest.mark.parametrize(
        "alpha, gamma, stride", [(0.4, reference_gamma(0.4), 8), (1.5, 1.0, 1)]
    )
    def test_folded_inversion_matches_fine_grid(self, alpha, gamma, stride):
        grid = GridSpec(2**16, 200.0 * gamma)
        old, old_stride = fine_grid_pdf(alpha, gamma, grid)
        assert old_stride == stride
        new = pdf_grid_sas(alpha, gamma, grid)
        peak = float(np.max(old.values))
        assert np.max(np.abs(new.values - old.values)) <= 1e-15 * peak

    def test_cauchy_grid_matches_closed_form(self):
        f = pdf_grid_sas(1.0, 1.0, GridSpec(2**16, 200.0))
        sel = np.abs(f.x) <= f.accurate_radius
        exact = cauchy_pdf(f.x[sel], 1.0)
        assert np.max(np.abs(f.values[sel] / exact - 1.0)) <= 5e-8


class TestOneBufferInversion:
    def test_cases_cover_the_branches(self):
        cases = [case.values for case in INVERSIONS]
        assert len(TAILED) == len(cases) - 1
        assert max(1 + len(tail_law(c.values[0].series()).extra) for c in TAILED) == 53
        # folded: the cf at the Nyquist frequency is above the e^-27 cut
        assert any(np.abs(law.cf(math.pi / g.h)) > math.exp(-27.0) for law, g in cases)
        assert max(g.n for _, g in cases) == 2**17

    @pytest.mark.parametrize("law, grid", INVERSIONS)
    def test_pdf_grid_cf_is_the_plain_route(self, law, grid):
        tail = tail_law(law.series())
        new = pdf_grid_cf(law.cf, tail, grid, repr(law))
        old = plain_pdf_grid_cf(plain_cf(law), tail, grid)
        assert (new.x0, new.h, new.tail) == (old.x0, old.h, old.tail)
        assert np.array_equal(new.values, old.values)

    @pytest.mark.parametrize("law, grid", TAILED)
    def test_alias_images_are_the_plain_route(self, law, grid):
        # on the half grid pdf_grid_cf reads, and on the whole grid and
        # its end point L, as the tests above read it
        tail, L = tail_law(law.series()), grid.half_extent
        for x in (grid.points()[: grid.n // 2 + 1], np.append(grid.points(), L)):
            assert np.array_equal(_alias_images(x, tail, L), plain_alias_images(x, tail, L))


def same(new, old):
    """new is old bit for bit, in type, dtype and shape."""
    a, b = np.asarray(new), np.asarray(old)
    return type(new) is type(old) and (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


# arguments of every kind a characteristic function takes
EDGE_W = [
    0.5, -0.0, math.inf, -math.inf, math.nan, np.float64(-3.0), np.array(2.0), np.array(-0.0),
    np.array([[0.0, -0.0, -1.5, math.inf], [-math.inf, math.nan, 1e300, -1e-300]]),
    np.arange(-40, 41), np.linspace(-60.0, 60.0, 1201, dtype=np.float32),
]


def band_w(scale, power):
    """Signed w across the lanes where scale |w|^power passes 708 (exp
    subnormal) and 746 (exp exactly 0.0), densely, and ten times the
    latter's |w| beyond; a sweep up to 1e300 where that |w| overflows."""
    log_edge = (math.log(746.0) - math.log(scale)) / power if scale > 0 else math.inf
    if log_edge > 690.0:
        w = np.geomspace(1e-300, 1e300, 60_001)
    else:
        edge = math.exp(log_edge)
        w = np.concatenate([np.linspace(0.0, 10.0 * edge, 100_001), edge * (1.0 + np.arange(-2000, 2001) * 1e-12)])
    return np.concatenate([w, -w])


def crosses_both_bands(values):
    return np.any((values > 0) & (values < np.finfo(float).tiny)) and np.any(values == 0.0)


class TestDeadLanes:
    """The characteristic functions and Gaussian densities skip exp where
    the result is exactly 0.0, bit for bit the expressions they had
    before."""

    def test_exp_is_exactly_zero_at_and_below_minus_746(self):
        # the premise of stable._exp; a numpy whose exp changes this fails here
        x = np.concatenate(
            [[np.nextafter(-746.0, 0.0), -746.0, -math.inf], np.linspace(-746.0, -800.0, 100_001),
             -np.geomspace(746.0, 1e308, 100_001)]
        )
        assert not np.any(np.exp(x)) and not np.any(np.signbit(np.exp(x)))
        for v in x[:3]:
            assert np.exp(v) == 0.0 and np.exp(np.float64(v)) == 0.0

    @pytest.mark.parametrize(
        "alpha, gamma",
        [
            (1.8, 1.0), (1.2, 0.3), (0.4, reference_gamma(0.4)), (1.0, 1e-3), (2.0, 1.0),
            (0.5, 1e-150),  # exp's argument passes -746 at |w| = 5.6e155
            (0.4, 1e-300),  # ... at |w| = 1.5e307
            (0.3, 1e-300),  # ... at no finite |w|
            (1.8, 1e-175),  # gamma^alpha subnormal
            (1.8, 1e-200),  # gamma^alpha is 0.0, and 0 * inf is NaN at w = inf
        ],
    )
    def test_cf_sas_is_the_plain_expression(self, alpha, gamma):
        band = band_w(gamma**alpha, alpha)
        # the plain power overflows at 1e300, and 0 * inf is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            for w in EDGE_W + [band]:
                assert same(cf_sas(alpha, gamma, w), plain_cf_sas(alpha, gamma, w)), w
        if gamma >= 1e-3:
            assert crosses_both_bands(plain_cf_sas(alpha, gamma, band))

    @pytest.mark.parametrize("sigma", [1.0, 3.889735, 1e-3, 1e-100, 1e100])
    def test_gaussian_cf_is_the_plain_expression(self, sigma):
        band = band_w(0.5 * sigma**2, 2.0)
        # squares overflow at 1e300, and float32 ones underflow to 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for w in EDGE_W + [band]:
                assert same(Gaussian(sigma).cf(w), plain_gaussian_cf(sigma, w)), w
                assert same(Gaussian(sigma)._pdf(w), plain_gaussian_pdf(sigma, w)), w
        if 1e-3 <= sigma <= 10:
            assert crosses_both_bands(plain_gaussian_cf(sigma, band))

    @pytest.mark.parametrize("sigma", [1.0, 3.889735])
    def test_realized_gaussian_is_the_plain_expression(self, sigma):
        law = Gaussian(sigma)
        grid = plan_grid(law)
        x = grid.points()
        plain = plain_gaussian_pdf(sigma, x)
        assert crosses_both_bands(plain)
        old = GriddedDensity(float(x[0]), grid.h, np.clip(plain, 0.0, None)).normalize()
        new = law._realize_on(grid)
        assert (new.x0, new.h, new.tail) == (old.x0, old.h, None)
        assert same(new.values, old.values)

    @pytest.mark.parametrize("gamma", [1.0, 0.05])
    def test_pdf_grid_sas_at_alpha_2_is_the_plain_expression(self, gamma):
        grid = plan_grid(SaS(2.0, gamma))
        x = grid.points()
        var = 2.0 * gamma**2
        plain = np.exp(-(x**2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
        assert crosses_both_bands(plain)
        old = GriddedDensity(float(x[0]), grid.h, plain, None).normalize()
        new = pdf_grid_sas(2.0, gamma, grid)
        assert (new.x0, new.h, new.tail) == (old.x0, old.h, None)
        assert same(new.values, old.values)


class TestSharedDensity:
    def test_is_the_realization(self):
        assert sas_density(1.5, 1.0) is realize(SaS(1.5, 1.0))

    def test_values_read_only(self):
        f = sas_density(1.5, 1.0)
        assert not f.values.flags.writeable
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_memo_bounds_many_gammas(self, sas_calls):
        gammas = [1.0 + 0.05 * k for k in range(20)]
        for g in gammas:
            logpdf_sas(1.5, g, 0.3)
        assert len(sas_calls) == len(gammas)
        assert sum(f.n for f in density._memo.values()) <= MEMO_POINTS


class TestLogpdf:
    def test_alpha2_closed_form(self):
        # N(0, 2 gamma^2)
        g = 0.8
        var = 2.0 * g**2
        for x in (0.0, 1.0, 30.0, 1e4):
            expect = -0.5 * math.log(2.0 * math.pi * var) - x**2 / (2.0 * var)
            assert logpdf_sas(2.0, g, x) == pytest.approx(expect, rel=1e-12)

    def test_cauchy_far_tail(self):
        # far outside any grid, the asymptotic series must take over
        x = 1e6
        assert logpdf_sas(1.0, 1.0, x) == pytest.approx(
            math.log(cauchy_pdf(x, 1.0)), rel=1e-9
        )

    def test_vector_input(self):
        out = logpdf_sas(1.5, 1.0, np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert out[0] == pytest.approx(out[2], rel=1e-9)


class TestSampling:
    def test_deterministic(self):
        a = sample_sas(1.5, 1.0, 1000, seed=42)
        b = sample_sas(1.5, 1.0, 1000, seed=42)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_shape_is_reshaped_count(self, alpha):
        a = sample_sas(alpha, 0.7, (40, 7), seed=5)
        b = sample_sas(alpha, 0.7, 40 * 7, seed=5)
        assert a.shape == (40, 7)
        assert np.array_equal(a, b.reshape(40, 7))

    def test_gaussian_variance(self):
        s = sample_sas(2.0, 1.0, 200_000, seed=1)
        # S(2, 1) has variance 2
        assert float(np.var(s)) == pytest.approx(2.0, rel=0.02)

    def test_cauchy_ks(self):
        s = sample_sas(1.0, 1.0, 50_000, seed=2)
        stat = kstest(s, "cauchy")
        assert stat.pvalue > 1e-3

    @pytest.mark.parametrize("alpha", [0.8, 1.3, 1.7])
    def test_ks_against_grid_cdf(self, alpha):
        # independent check: CMS samples against the FFT-inverted density
        f = sas_density(alpha, 1.0)
        xs = f.x
        cdf_vals = np.cumsum(f.values) * f.h
        # one side's tail series mass beyond the grid, sum_k c_k L^(-e_k) / e_k
        L, t = f.half_extent, f.tail
        cdf_vals += sum(c * L**-e / e for e, c in ((t.exponent, t.coefficient),) + t.extra)
        cdf_vals = np.clip(cdf_vals, 0.0, 1.0)
        s = sample_sas(alpha, 1.0, 20_000, seed=3)
        s = s[np.abs(s) < f.half_extent * 0.9]
        stat = kstest(s, lambda q: np.interp(q, xs, cdf_vals))
        assert stat.pvalue > 1e-3


class TestReference:
    def test_gamma_ref(self):
        assert reference_gamma(2.0) == pytest.approx(math.sqrt(0.5), rel=1e-14)
        assert reference_gamma(1.0) == 1.0

    def test_entropy_gaussian(self):
        assert reference_entropy(2.0) == pytest.approx(
            0.5 * math.log(2.0 * math.pi * math.e), rel=1e-14
        )

    def test_entropy_cauchy(self):
        assert reference_entropy(1.0) == pytest.approx(math.log(4.0 * math.pi), rel=1e-14)

    def test_entropy_near_closed_forms(self):
        # the numeric route must agree with the closed forms it brackets
        for a, closed in ((2.0, 0.5 * math.log(2.0 * math.pi * math.e)),):
            num = sas_density(a, reference_gamma(a)).entropy()
            assert num == pytest.approx(closed, abs=2e-5)

    def test_cauchy_entropy_numeric(self):
        # h(Cauchy(gamma)) = ln(4 pi gamma); gamma_ref = 1 at alpha = 1
        num = sas_density(1.0, 1.0).entropy()
        assert num == pytest.approx(math.log(4.0 * math.pi), abs=1e-5)

    def test_reference_logpdf(self):
        lp = logpdf_sas(1.0, reference_gamma(1.0), 0.0)
        assert lp == pytest.approx(math.log(1.0 / math.pi), abs=1e-7)
