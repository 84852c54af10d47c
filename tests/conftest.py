import numpy as np
import pytest
from hypothesis import settings

from pvprof import ArrayTopology, SdmParamsRef, fitting, synthesize_datasheet

# property tests draw the same examples on every run and stay bounded in time
settings.register_profile("pvprof", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("pvprof")

# canonical 72-cell c-Si module used throughout the suite
CSI_PARAMS = SdmParamsRef(i_ph_ref=9.5, i_0_ref=3e-10, r_s=0.35,
                          r_sh_ref=400.0, n_diode=1.1)
CELLS = 72
ALPHA_ISC = 0.004


@pytest.fixture(scope="session")
def csi_params():
    return CSI_PARAMS


@pytest.fixture(scope="session")
def topo():
    return ArrayTopology(cells_in_series=CELLS, modules_per_string=12,
                         strings_in_parallel=8)


@pytest.fixture(scope="session")
def datasheet():
    return synthesize_datasheet(CSI_PARAMS, CELLS, alpha_isc=ALPHA_ISC)


@pytest.fixture(scope="session")
def p_nominal(datasheet, topo):
    return (datasheet.v_mp * topo.modules_per_string
            * datasheet.i_mp * topo.strings_in_parallel)


def draw_csi_like(rng, n):
    """Random parameter sets across the healthy-to-degraded c-Si range."""
    return [SdmParamsRef(rng.uniform(5.0, 12.0),
                         10.0 ** rng.uniform(-11.0, -9.0),
                         rng.uniform(0.1, 0.8),
                         10.0 ** rng.uniform(np.log10(100.0), np.log10(5000.0)),
                         rng.uniform(0.9, 1.4))
            for _ in range(n)]


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` for the test; returns the list its calls append to."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def start_fits_from(monkeypatch, params):
    """Start every window fit of the test from ``params``: a fit takes its
    start from ``fitting.initial_guess``."""
    monkeypatch.setattr(fitting, "initial_guess", lambda datasheet: params)
