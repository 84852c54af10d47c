"""The benchmark tracer's targets must exist in the program.

``perfbench/tracer.py`` wraps named pvprof functions from the outside; a
renamed or deleted target would otherwise surface only in a benchmark run.
"""

import os
from dataclasses import replace

import numpy as np

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


def test_fit_window_solves_each_parameter_row_once(monkeypatch, topo,
                                                   datasheet):
    # the Jacobian reuses the solution TRF has just evaluated, and the
    # initial-guess check is TRF's own first evaluation, so no parameter
    # row reaches the solver twice; a start on a bound is first moved
    # strictly inside the box, and only that point is solved
    series, _ = synth.generate_dataset(
        CSI_PARAMS, topo, synth.WeatherProfile(days=3, seed=1),
        alpha_isc=ALPHA_ISC)
    daylight = series.select(series.g_poa >= 50.0)
    opts = fitting.FitOptions.for_system(datasheet, topo)
    lo, hi = (np.array([opts.bounds[n][k] for n in fitting.PARAM_ORDER])
              for k in (0, 1))
    guess = fitting.initial_guess(datasheet)
    on_bound = replace(guess, r_sh_ref=opts.bounds["r_sh_ref"][1])
    rows = []
    original = sdm.simulate_array_mpp_arrays

    def recording(*args, **kwargs):
        rows.extend(map(tuple, np.column_stack(
            [np.ravel(p) for p in args[:5]])))
        return original(*args, **kwargs)

    monkeypatch.setattr(sdm, "simulate_array_mpp_arrays", recording)
    for init in (guess, on_bound):
        rows.clear()
        result = fitting.fit_window(daylight, topo, init, opts)
        assert result.iterations > 1
        assert len(set(rows)) == len(rows)
        assert np.all((np.array(rows) > lo) & (np.array(rows) < hi))
