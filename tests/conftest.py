import math

import pytest
from scipy.integrate import quad

from stable_info import density, stable


@pytest.fixture
def sas_calls(monkeypatch):
    """The arguments of every stable.pdf_grid_sas call made in the test,
    counted from an empty realization memo so test order does not
    matter."""
    density._memo.clear()
    calls = []
    pdf_grid_sas = stable.pdf_grid_sas

    def counted(*args):
        calls.append(args)
        return pdf_grid_sas(*args)

    monkeypatch.setattr(stable, "pdf_grid_sas", counted)
    return calls


@pytest.fixture
def log_loss_quad():
    """The oracle of alphapower.g_of_P: E[-ln p_ref(Y / P)] =
    -int pdf(y) ln p_ref(y / P) dy by scipy.integrate.quad over the line,
    split at the given points, with the package's own reference
    log-density."""

    def expect(pdf, alpha, P, points):
        gam_ref = stable.reference_gamma(alpha)
        edges = [-math.inf, *sorted(set(points)), math.inf]
        return sum(
            quad(
                lambda y: -pdf(y) * float(stable.logpdf_sas(alpha, gam_ref, y / P)),
                lo,
                hi,
                limit=500,
                epsabs=0.0,
                epsrel=1e-13,
            )[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )

    return expect
