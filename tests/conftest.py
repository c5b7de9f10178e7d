import pytest

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
