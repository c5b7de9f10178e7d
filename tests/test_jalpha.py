import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stable_info import density
from stable_info.bounds import giie_product
from stable_info.density import (
    Cauchy,
    Gaussian,
    Laplace,
    SaS,
    Scaled,
    Shifted,
    Sum,
    Uniform,
    realize,
)
from stable_info.gridded import GridSpec, GriddedDensity
from stable_info.jalpha import (
    _parseval_weights,
    debruijn_check,
    jalpha_closed_stable,
    jalpha_finite_diff,
    jalpha_of_law,
    jalpha_spectral,
    spectral_realization,
)


def mixture(base, alpha, gamma_s=0.15):
    """Smooth non-stable law: base law plus a stable perturbation."""
    return Sum(base, SaS(alpha, gamma_s))


def complex_fft_reference(f, alpha):
    """The trapezoid rule over the core (the points within the accurate
    radius of x[n // 2]) of ln p times the full complex-FFT inverse of
    |w|^alpha phi."""
    w = 2.0 * math.pi * np.fft.fftfreq(f.n, d=f.h)
    phi = np.fft.fft(np.fft.ifftshift(f.values)) * f.h
    r_fun = np.fft.fftshift(np.fft.ifft(np.abs(w) ** alpha * phi).real) / f.h
    lp = np.log(np.clip(f.values, 1e-300, None))
    sel = np.abs(np.arange(f.n) - f.n // 2) * f.h <= f.accurate_radius
    return float(np.trapezoid(lp[sel] * r_fun[sel], dx=f.h))


def plain_parseval_weights(f):
    """_parseval_weights as it was before it built ln p in the ifftshift
    layout and q in place; the reference they must match bit for bit."""
    n, core = f.n, f.core
    phi = np.fft.rfft(np.fft.ifftshift(f.values)) * f.h
    ell = np.zeros(n)
    ell[core] = np.log(np.clip(f.values[core], 1e-300, None))
    ell[core.start] *= 0.5
    ell[core.stop - 1] *= 0.5
    lhat = np.fft.rfft(np.fft.ifftshift(ell))
    q = (lhat.real * phi.real + lhat.imag * phi.imag) / n
    q[1:(n + 1) // 2] *= 2.0
    return q, np.abs(phi), f.tail_mass()


def plain_jalpha_spectral(f, alpha, weights=None):
    """jalpha_spectral as it was before it kept w and the guard's band
    start: w rebuilt, the band a boolean mask, the peak over the whole
    band at every alpha.  (value, edge magnitude) or its ArithmeticError;
    weights are (q, |phi|, tail mass), plain_parseval_weights(f) when
    None."""
    q, phi_abs, _ = plain_parseval_weights(f) if weights is None else weights
    w = 2.0 * math.pi * np.fft.rfftfreq(f.n, d=f.h)
    w_alpha = w**alpha
    m = w_alpha * phi_abs
    edge_mag = float(np.max(m[w >= 0.98 * w[-1]]))
    peak = float(np.max(m))
    if peak > 0 and edge_mag > 1e-6 * peak:
        raise ArithmeticError(
            "spectral integrand has not decayed at the frequency cutoff; "
            "the law is too rough for the spectral route -- smooth it first "
            "or use the finite-difference evaluator"
        )
    val = float(np.add.reduce(w_alpha * q))
    if val < -1e-4:
        raise ArithmeticError(f"spectral alpha-Fisher information came out negative ({val:.3e})")
    return max(val, 0.0), edge_mag


def outcome(fn, *args):
    """fn(*args), or the type and message of the ArithmeticError it raised."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)


def kept_route(f, alpha):
    j = jalpha_spectral(f, alpha)
    return j.value, j.diagnostics["edge_magnitude"]


# (law, alpha of its spectral grid)
PARSEVAL_LAWS = [
    (SaS(1.2, 1.0), 1.2),
    (SaS(1.8, 1.0), 1.8),
    (Cauchy(1.0), 1.5),
    (Sum(SaS(1.8, 1.0), Gaussian(1.5)), 1.5),
    (Scaled(SaS(1.5, 1.0), -2.0), 1.5),
    (Shifted(SaS(1.5, 1.0), 3.0), 1.5),
    (Laplace(1.0), 1.5),
    (Gaussian(1.0), 1.0),
    (SaS(0.6, 1.0), 0.6),
]
PARSEVAL_IDS = ["S1.2", "S1.8", "cauchy", "sum-53-terms", "scaled-negative", "shifted", "smoothed", "no-tail", "2^17"]


class TestClosedForm:
    def test_formula(self):
        assert jalpha_closed_stable(1.5, 2.0) == pytest.approx(
            1.0 / (1.5 * 2.0**1.5), rel=1e-14
        )
        assert jalpha_closed_stable(2.0, 1.0, d=3) == pytest.approx(1.5, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            jalpha_closed_stable(0.0, 1.0)
        with pytest.raises(ValueError):
            jalpha_closed_stable(1.5, -1.0)


class TestSpectral:
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 2.0])
    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    def test_stable_within_one_percent(self, alpha, gamma):
        j = jalpha_of_law(SaS(alpha, gamma), alpha)
        closed = jalpha_closed_stable(alpha, gamma)
        assert j.value == pytest.approx(closed, rel=0.01)

    def test_gaussian_alpha2_classical(self):
        # J_2 of N(0, sigma^2) is 2/sigma^2 in this normalization:
        # N(0, s^2) = S(2, s/sqrt(2)), J = 1/(2 gamma^2) = 1/s^2... times
        # the alpha-scaling; check against the stable closed form
        s = 1.3
        j = jalpha_of_law(Gaussian(s), 2.0)
        closed = jalpha_closed_stable(2.0, s / math.sqrt(2.0))
        assert j.value == pytest.approx(closed, rel=1e-3)

    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    def test_gaussian_alpha2_tight(self, s):
        # J_2 of N(0, s^2) is 1/s^2, held to roundoff
        assert jalpha_of_law(Gaussian(s), 2.0).value * s**2 == pytest.approx(1.0, rel=1e-11)

    def test_rough_law_raises_without_smoothing(self):
        f = realize(Uniform(1.0))
        with pytest.raises(ArithmeticError):
            jalpha_spectral(f, 1.5)

    def test_scaling_law(self):
        # J_alpha(cX) = c^(-alpha) J_alpha(X)
        a, c = 1.6, 2.0
        j1 = jalpha_of_law(Laplace(1.0), a).value
        j2 = jalpha_of_law(Scaled(Laplace(1.0), c), a).value
        assert j2 == pytest.approx(j1 / c**a, rel=0.01)

    def test_matches_complex_fft_route(self):
        # a symmetric law, where the real part of the full complex FFT
        # is the whole spectrum
        _, f = spectral_realization(SaS(1.5, 1.0), 1.5)
        w = 2.0 * math.pi * np.fft.fftfreq(f.n, d=f.h)
        phi = np.fft.fft(np.fft.ifftshift(f.values)).real * f.h
        r_fun = np.fft.fftshift(np.fft.ifft(np.abs(w) ** 1.5 * phi).real) / f.h
        lp = np.log(np.clip(f.values, 1e-300, None))
        sel = np.abs(f.x) <= f.accurate_radius
        old = float(np.trapezoid(lp[sel] * r_fun[sel], dx=f.h))
        assert jalpha_spectral(f, 1.5).value == pytest.approx(old, rel=1e-13)

    @pytest.mark.parametrize("asymmetric", [False, True])
    def test_matches_complex_fft_route_off_center(self, asymmetric):
        # a grid centered off the origin, and a two-bump density that is
        # not symmetric about its center, where phi is complex
        _, f = spectral_realization(Sum(Shifted(Laplace(1.0), 0.7), SaS(1.5, 1.0)), 1.5)
        if asymmetric:
            f = GriddedDensity(f.x0, f.h, 0.7 * f.values + 0.3 * np.roll(f.values, 97), f.tail)
            assert np.max(np.abs(f.values - f.values[::-1])) > 1e-2 * np.max(f.values)
        assert jalpha_spectral(f, 1.5).value == pytest.approx(complex_fft_reference(f, 1.5), rel=1e-13)

    def test_matches_complex_fft_route_odd_n(self):
        # an odd n, whose half spectrum has no Nyquist bin: S(1, 1) on a
        # coarse grid, one point short, whose spectrum at the cutoff is
        # still large enough that weighting the last bin as a Nyquist bin
        # moves J by about 1e-12
        f = realize(SaS(1.0, 1.0), GridSpec(1024, 83.0))
        f = GriddedDensity(f.x0, f.h, f.values[:-1].copy(), f.tail)
        assert f.n == 1023
        assert jalpha_spectral(f, 0.8).value == pytest.approx(complex_fft_reference(f, 0.8), rel=1e-13)

    def test_alpha_order_does_not_matter(self):
        # the alpha-free weights kept on a density give, in any order of
        # alphas, the same bits as a fresh density of the same values
        _, f = spectral_realization(SaS(1.5, 1.0), 1.5)
        alphas = [1.2, 1.4, 1.6, 1.8]

        def fresh(alpha):
            return jalpha_spectral(GriddedDensity(f.x0, f.h, f.values.copy(), f.tail), alpha).value

        want = {a: fresh(a) for a in alphas}
        for order in (alphas, alphas[::-1]):
            assert {a: jalpha_spectral(f, a).value for a in order} == want

    def test_rejection_keeps_weights(self):
        # S(1, 1) on a coarse grid: |w|^alpha phi decays by the cutoff at
        # alpha 0.5 but not at 1.5
        f = realize(SaS(1.0, 1.0), GridSpec(1024, 83.0))
        with pytest.raises(ArithmeticError):
            jalpha_spectral(f, 1.5)
        low = jalpha_spectral(f, 0.5).value
        with pytest.raises(ArithmeticError):
            jalpha_spectral(f, 1.5)
        fresh = GriddedDensity(f.x0, f.h, f.values.copy(), f.tail)
        assert jalpha_spectral(f, 0.5).value == low == jalpha_spectral(fresh, 0.5).value

    @given(
        st.sampled_from(
            [
                (SaS(1.5, 1.0), 1.5),
                (Laplace(1.0), 1.8),
                # J_alpha of a Gaussian is finite only at alpha = 2
                (Gaussian(1.0), 2.0),
                (Sum(Laplace(1.0), SaS(1.2, 0.5)), 1.2),
            ]
        ),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_shift_invariance(self, case, delta):
        law, alpha = case
        j0 = jalpha_of_law(law, alpha).value
        assert jalpha_of_law(Shifted(law, delta), alpha).value == j0

    def test_heavy_stable_in_combinator_gets_planned_n(self):
        # Scaled(SaS(0.6, 0.5), 2) is SaS(0.6, 1): both get 2^17 points
        j = jalpha_of_law(Scaled(SaS(0.6, 0.5), 2.0), 1.5).value
        assert j == pytest.approx(jalpha_of_law(SaS(0.6, 1.0), 1.5).value, rel=1e-10)
        assert math.isfinite(jalpha_of_law(Sum(SaS(0.5, 1.0), SaS(0.5, 1.0)), 1.5).value)

    def test_diagnostics_present(self):
        j = jalpha_of_law(SaS(1.5, 1.0), 1.5)
        assert "grid_size" in j.diagnostics
        assert j.diagnostics["edge_magnitude"] >= 0.0


class TestParsevalWeights:
    @pytest.mark.parametrize("law, alpha", PARSEVAL_LAWS, ids=PARSEVAL_IDS)
    def test_weights_are_the_plain_formula(self, law, alpha):
        # on a fresh copy, so neither side reads the other's kept weights
        _, f = spectral_realization(law, alpha)
        new = _parseval_weights(GriddedDensity(f.x0, f.h, f.values, f.tail))
        old = plain_parseval_weights(GriddedDensity(f.x0, f.h, f.values, f.tail))
        assert np.array_equal(new[0], old[0]) and np.array_equal(new[1], old[1])
        assert new[2] == old[2]

    @pytest.mark.parametrize("n", [1001, 1024])
    def test_odd_and_untailed_grids(self, n):
        # a grid of odd length, and one whose core is all but one point
        x = np.linspace(-8.0, 8.0, n, endpoint=False)
        f = GriddedDensity(float(x[0]), float(x[1] - x[0]), np.exp(-(x**2) / 2.0) / math.sqrt(2.0 * math.pi))
        new, old = _parseval_weights(f), plain_parseval_weights(f)
        assert np.array_equal(new[0], old[0]) and np.array_equal(new[1], old[1])


class FFTCounter:
    """Counts the calls of every function of numpy.fft, rfftfreq included."""

    def __init__(self, monkeypatch):
        self.calls = []
        for name in np.fft.__all__:
            fn = getattr(np.fft, name)
            if callable(fn):
                monkeypatch.setattr(np.fft, name, self.counted(name, fn))

    def counted(self, name, fn):
        def call(*args, **kwargs):
            self.calls.append(name)
            return fn(*args, **kwargs)

        return call


class TestFurtherAlpha:
    """After the first J of a density, a further alpha and a shifted copy
    of its law cost no FFT, and give the bits of the plain route."""

    @pytest.mark.parametrize("law, grid_alpha", PARSEVAL_LAWS, ids=PARSEVAL_IDS)
    def test_bits_of_the_plain_route(self, law, grid_alpha):
        _, f = spectral_realization(law, grid_alpha)
        f = GriddedDensity(f.x0, f.h, f.values, f.tail)
        weights = plain_parseval_weights(f)
        for alpha in (0.5, 1.2, 1.5, 1.8, 2.0):
            want = outcome(plain_jalpha_spectral, f, alpha, weights)
            assert outcome(kept_route, f, alpha) == want

    @pytest.mark.parametrize(
        "law, grid",
        [
            # |w|^1.5 phi of S(1, 1) has not decayed by this grid's cutoff
            (SaS(1.0, 1.0), GridSpec(1024, 83.0)),
            # Laplace and Uniform without the smoothing
            (Laplace(1.0), None),
            (Uniform(1.0), None),
        ],
        ids=["coarse-S1", "laplace", "uniform"],
    )
    def test_rough_laws_are_rejected_alike(self, law, grid):
        f = realize(law, grid)
        f = GriddedDensity(f.x0, f.h, f.values, f.tail)
        for alpha in (0.5, 1.5, 2.0):
            want = outcome(plain_jalpha_spectral, f, alpha)
            assert outcome(kept_route, f, alpha) == want
        assert outcome(kept_route, f, 2.0)[0] is ArithmeticError

    @pytest.mark.parametrize("where", ["edge", "middle", "top", "spike", "inf", "band-start"])
    def test_doctored_spectra_are_judged_alike(self, where):
        # a NaN at the edge band, mid-band or at the bin the guard reads
        # first; a spike that makes the peak larger than that bin's value,
        # with the edge between 1e-6 times each; an infinite bin; the
        # band's largest value on its first bin, a larger one just before
        _, f = spectral_realization(SaS(1.5, 1.0), 1.5)
        f = GriddedDensity(f.x0, f.h, f.values, f.tail)
        q, phi_abs, tail_mass, w, edge, top = _parseval_weights(f)
        phi_abs = phi_abs.copy()
        if where == "edge":
            phi_abs[-3] = math.nan
        elif where == "middle":
            phi_abs[w.size // 3] = math.nan
        elif where == "top":
            phi_abs[top] = math.nan
        elif where == "inf":
            phi_abs[w.size // 2] = math.inf
        elif where == "spike":
            phi_abs[w.size // 2] = 1e3 * phi_abs[top]
            phi_abs[edge:] = 1e-5 * phi_abs[top] * (w[top] / w[edge:]) ** 1.5
        else:
            start = int(np.argmax(w >= 0.98 * w[-1]))
            phi_abs[start - 1 :] = 0.0
            phi_abs[start - 1 : start + 1] = 2e-12, 1e-12
        # kept on a fresh copy, in place of the weights built above
        f = GriddedDensity(f.x0, f.h, f.values, f.tail)
        f.derive("spectral", lambda: (q, phi_abs, tail_mass, w, edge, top))
        for alpha in (0.5, 1.5, 2.0):
            want = outcome(plain_jalpha_spectral, f, alpha, (q, phi_abs, tail_mass))
            # by repr, exact for floats, under which NaN equals NaN
            assert repr(outcome(kept_route, f, alpha)) == repr(want)
        if where == "spike":
            # the edge is above 1e-6 times the top bin, below 1e-6 times the peak
            assert outcome(kept_route, f, 1.5)[1] > 1e-6 * w[top] ** 1.5 * phi_abs[top]

    def test_no_fft_after_the_first_j(self, monkeypatch):
        law = SaS(1.3, 0.9)
        j = {a: jalpha_of_law(law, a).value for a in (1.3, 1.1, 1.5, 1.7)}
        density._memo.clear()
        jalpha_of_law(law, 1.3)
        fft = FFTCounter(monkeypatch)
        for a in (1.1, 1.5, 1.7):
            assert jalpha_of_law(law, a).value == j[a]
        for delta in (0.5, -3.0):
            assert jalpha_of_law(Shifted(law, delta), 1.3).value == j[1.3]
        assert fft.calls == []

    def test_the_counter_sees_a_first_j(self, monkeypatch):
        _, f = spectral_realization(SaS(1.5, 1.0), 1.5)
        f = GriddedDensity(f.x0, f.h, f.values, f.tail)
        fft = FFTCounter(monkeypatch)
        jalpha_spectral(f, 1.5)
        assert fft.calls.count("rfft") == 2 and fft.calls.count("rfftfreq") == 1

    @pytest.mark.parametrize(
        "law",
        [
            Shifted(SaS(1.5, 1.0), 0.375),
            Shifted(Shifted(Laplace(1.0), 0.375), -1.25),
            Shifted(Uniform(1.0), 0.375),
        ],
        ids=["stable", "nested", "smoothed"],
    )
    def test_shift_leaves_no_memo_key(self, law):
        density._memo.clear()
        j = jalpha_of_law(law, 1.5).value
        inner = law
        while isinstance(inner, Shifted):
            inner = inner.law
        assert j == jalpha_of_law(inner, 1.5).value

        def has_shift(x):
            if isinstance(x, Shifted):
                return True
            if isinstance(x, Sum):
                return has_shift(x.law1) or has_shift(x.law2)
            return isinstance(x, Scaled) and has_shift(x.law)

        assert not any(has_shift(key[0]) for key in density._memo)


class TestSmoothing:
    def test_smooth_laws_untouched(self):
        law = SaS(1.5, 1.0)
        assert spectral_realization(law, 1.5)[0] is law

    def test_rough_laws_wrapped(self):
        out = spectral_realization(Uniform(1.0), 1.5)[0]
        assert isinstance(out, Sum)

    def test_spectral_realization_passes_guard(self):
        _, f = spectral_realization(Laplace(1.0), 1.2)
        j = jalpha_spectral(f, 1.2)
        assert j.value > 0.0


class TestFiniteDifference:
    @pytest.mark.parametrize("alpha", [1.2, 1.8])
    def test_stable_against_closed_form(self, alpha):
        j = jalpha_finite_diff(SaS(alpha, 1.0), alpha)
        assert j.value == pytest.approx(jalpha_closed_stable(alpha, 1.0), rel=0.005)

    def test_gaussian_alpha2(self):
        j = jalpha_finite_diff(Gaussian(math.sqrt(2.0)), 2.0)
        assert j.value == pytest.approx(0.5, rel=0.005)

    def test_needs_two_steps(self):
        with pytest.raises(ValueError):
            jalpha_finite_diff(Gaussian(1.0), 1.5, [0.1])


class TestCrossValidation:
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    @pytest.mark.parametrize("base", [Laplace(1.0), Uniform(1.0), Gaussian(1.0)])
    def test_spectral_vs_finite_diff(self, alpha, base):
        law = mixture(base, alpha)
        js = jalpha_of_law(law, alpha).value
        jf = jalpha_finite_diff(law, alpha, [0.02, 0.01, 0.005, 0.0025]).value
        assert js == pytest.approx(jf, rel=0.03)


class TestDeBruijn:
    @pytest.mark.parametrize("eta", [0.2, 0.5])
    def test_stable_chain(self, eta):
        rep = debruijn_check(SaS(1.5, 1.0), 1.5, 1.0, eta)
        assert rep.method["relative_error"] < 0.01

    @pytest.mark.parametrize("eta", [0.2, 0.5])
    @pytest.mark.parametrize("base", [Gaussian(1.0), Laplace(1.0), Uniform(1.0)])
    def test_general_laws(self, base, eta):
        rep = debruijn_check(base, 1.6, 1.0, eta)
        assert rep.method["relative_error"] < 0.02

    def test_eta_positive_required(self):
        with pytest.raises(ValueError):
            debruijn_check(Gaussian(1.0), 1.5, 1.0, 0.0)


class TestMonotonicity:
    def test_increasing_in_r_decreasing_in_alpha(self):
        rs = [0.8, 1.2, 1.6]
        alphas = [1.2, 1.5, 1.8]
        table = {
            a: [jalpha_of_law(SaS(r, r ** (-1.0 / r)), a).value for r in rs]
            for a in alphas
        }
        for a in alphas:
            col = table[a]
            assert all(col[i] < col[i + 1] for i in range(len(col) - 1))
        for i in range(len(rs)):
            vals = [table[a][i] for a in alphas]
            assert all(vals[j] > vals[j + 1] for j in range(len(vals) - 1))


# (law, alpha) pairs; J_alpha of a Gaussian is finite only at alpha = 2
SHIFT_LAWS = [
    (SaS(1.5, 1.0), 1.5),
    (Laplace(1.0), 1.5),
    (Cauchy(1.0), 1.5),
    (Uniform(1.0), 1.5),
    (Sum(Laplace(1.0), SaS(1.2, 0.5)), 1.5),
    (Gaussian(1.0), 2.0),
    (SaS(0.6, 1.0), 1.5),
    (Scaled(SaS(1.2, 1.0), -2.0), 1.5),
]


@functools.cache
def unshifted(law, alpha):
    return realize(law).entropy(), jalpha_of_law(law, alpha).value


class TestShiftInvariance:
    """A shifted law is its inner law's realization on a moved grid, so
    h and J_alpha do not change at all."""

    @pytest.mark.parametrize("law,alpha", SHIFT_LAWS, ids=[repr(c[0]) for c in SHIFT_LAWS])
    @given(delta=st.floats(min_value=-1e3, max_value=1e3))
    @settings(max_examples=10, deadline=None)
    def test_entropy_and_jalpha_are_exact(self, law, alpha, delta):
        h, j = unshifted(law, alpha)
        assert realize(Shifted(law, delta)).entropy() == h
        assert jalpha_of_law(Shifted(law, delta), alpha).value == j

    def test_heavy_stable_shift_is_finite(self):
        # resampling the sharp peak of S(0.6, 1) through a spline left
        # |w|^1.5 phi undecayed at the Nyquist edge, and this raised
        law = SaS(0.6, 1.0)
        assert jalpha_of_law(Shifted(law, 0.5), 1.5).value == jalpha_of_law(law, 1.5).value


    def test_spectral_realization_drops_shifts(self):
        density._memo.clear()
        law, f = spectral_realization(Shifted(SaS(1.5, 1.0), 3.0), 1.5)
        assert law == SaS(1.5, 1.0)
        assert f is spectral_realization(SaS(1.5, 1.0), 1.5)[1]
        assert not any(isinstance(key[0], Shifted) for key in density._memo)

    @pytest.mark.parametrize("law", [SaS(1.5, 1.0), Laplace(1.0)], ids=repr)
    def test_giie_product_is_shift_invariant(self, law):
        a = giie_product(Shifted(law, 2.5), 1.5)
        b = giie_product(law, 1.5)
        assert (a.lhs, a.rhs, a.slack, a.method) == (b.lhs, b.rhs, b.slack, b.method)
