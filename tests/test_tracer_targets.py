"""The benchmark tracer's targets must exist in the program.

``perfbench/tracer.py`` wraps named pvprof functions from the outside; a
renamed or deleted target would otherwise surface only in a benchmark run.
"""

import os

from pvprof import fitting, sdm, synth
from conftest import ALPHA_ISC, CSI_PARAMS

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(REPO, "perfbench"))
    import tracer

    tracer.resolve_targets()  # raises TracerError naming any missing target


def test_fit_window_solves_through_the_traced_simulation(monkeypatch, topo,
                                                         datasheet):
    # the tracer counts fit_window's loss evaluations as its child
    # simulate_array_mpp_arrays spans; a fit that bypassed the module
    # attribute would read zero evaluations without failing
    series, _ = synth.generate_dataset(
        CSI_PARAMS, topo, synth.WeatherProfile(days=3, seed=1),
        alpha_isc=ALPHA_ISC)
    daylight = series.select(series.g_poa >= 50.0)
    init = fitting.initial_guess(datasheet)
    opts = fitting.FitOptions.for_system(datasheet, topo)
    calls = []
    original = sdm.simulate_array_mpp_arrays

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(sdm, "simulate_array_mpp_arrays", counting)
    result = fitting.fit_window(daylight, topo, init, opts)
    assert result.iterations > 0
    assert len(calls) >= result.iterations
