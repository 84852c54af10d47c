"""The benchmark tracer's targets must exist in the program.

``perfbench/tracer.py`` wraps named pvprof functions from the outside; a
renamed or deleted target would otherwise surface only in a benchmark run.
"""

import os
from dataclasses import replace

import numpy as np

from pvprof import baselines, fitting, sdm, synth
from pvprof.benchmark import RunConfig, run_benchmark
from conftest import ALPHA_ISC, CELLS, CSI_PARAMS, count_calls

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
    calls = []
    original = sdm.simulate_array_mpp_arrays

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(sdm, "simulate_array_mpp_arrays", counting)
    result = fitting.fit_window(daylight, topo, init, datasheet)
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
    bounds = fitting.default_bounds(datasheet.i_sc)
    lo, hi = (np.array([bounds[n][k] for n in fitting.PARAM_ORDER])
              for k in (0, 1))
    guess = fitting.initial_guess(datasheet)
    on_bound = replace(guess, r_sh_ref=bounds["r_sh_ref"][1])
    rows = []
    original = sdm.simulate_array_mpp_arrays

    def recording(*args, **kwargs):
        rows.extend(map(tuple, np.column_stack(
            [np.ravel(p) for p in args[:5]])))
        return original(*args, **kwargs)

    monkeypatch.setattr(sdm, "simulate_array_mpp_arrays", recording)
    for init in (guess, on_bound):
        rows.clear()
        result = fitting.fit_window(daylight, topo, init, datasheet)
        assert result.iterations > 1
        assert len(set(rows)) == len(rows)
        assert np.all((np.array(rows) > lo) & (np.array(rows) < hi))


def test_one_datasheet_extraction_per_run(monkeypatch, topo, datasheet):
    # the nominal model, every cold-start fit of the studies and the sweep's
    # reference all read the one extraction of the run's datasheet
    profile = synth.WeatherProfile(days=7, seed=11, cloud_days=(1, 3, 5),
                                   cloud_depth=0.55)
    series, _ = synth.generate_dataset(CSI_PARAMS, topo, profile,
                                       alpha_isc=ALPHA_ISC)
    config = RunConfig.from_dict({
        "system": {"topology": {"cells_in_series": CELLS,
                                "modules_per_string": 12,
                                "strings_in_parallel": 8},
                   "datasheet": {k: getattr(datasheet, k) for k in (
                       "v_oc", "i_sc", "v_mp", "i_mp", "alpha_isc",
                       "beta_voc", "cells_in_series")}},
        "models": ["pvpro", "nominal", "lr"],
        "regressors": {"lambda_grid": [1e-3], "gamma_grid": [0.5],
                       "training_lengths_days": [3]},
        "studies": {"weather_cases": True, "sweep": True,
                    "training_length": True},
        "evaluation": {"start": "2024-06-05T00:00:00"}})
    calls = count_calls(monkeypatch, baselines, "fit_desoto_from_datasheet")
    guesses = count_calls(monkeypatch, fitting, "initial_guess")
    report = run_benchmark(config, series)
    assert "error" not in report.studies["weather_cases"]
    assert "error" not in report.studies["training_length"]
    assert "sweep" in report.studies
    assert len(guesses) > 1
    assert len(calls) == 1
