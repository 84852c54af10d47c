"""The benchmark tracer's targets must exist in the program, and its
workload configurations must parse and synthesize.

``perfbench/tracer.py`` wraps named pvprof functions from the outside; a
renamed or deleted target would otherwise surface only in a benchmark run.
"""

import os
from dataclasses import replace

import numpy as np

from pvprof import analysis, baselines, cli, fitting, preprocess, sdm, synth
from pvprof.benchmark import RunConfig, run_benchmark
from pvprof.series import DAY
from conftest import (ALPHA_ISC, CELLS, CSI_PARAMS, count_calls,
                      start_fits_from)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(REPO, "perfbench"))
    import tracer

    tracer.resolve_targets()  # raises TracerError naming any missing target


def test_every_workload_config_parses_and_synthesizes(monkeypatch):
    # each perfbench operation is `pvprof synth` then `pvprof benchmark` on
    # a workload's config; a change to the config or scenario format that
    # refused one would otherwise surface only in a benchmark run
    monkeypatch.syspath_prepend(os.path.join(REPO, "perfbench"))
    import workloads

    for name, make in workloads.WORKLOADS.items():
        config = RunConfig.from_dict(dict(make(), seed=1))
        _, log = cli._synth_from_config(config)
        assert log.days == config.synth["days"], name


def test_fit_window_solves_through_the_traced_simulation(monkeypatch, topo,
                                                         datasheet):
    # the tracer counts fit_window's loss evaluations as its child
    # simulate_array_mpp_arrays spans; a fit that bypassed the module
    # attribute would read zero evaluations without failing
    series, _ = synth.generate_dataset(
        CSI_PARAMS, topo, synth.WeatherProfile(days=3, seed=1),
        alpha_isc=ALPHA_ISC)
    daylight = series.select(series.g_poa >= 50.0)
    calls = []
    original = sdm.simulate_array_mpp_arrays

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(sdm, "simulate_array_mpp_arrays", counting)
    result = fitting.fit_window(daylight, topo, datasheet)
    assert result.iterations > 0
    assert len(calls) >= result.iterations


def test_fit_window_solves_each_parameter_row_once(monkeypatch, topo,
                                                   datasheet):
    # the Jacobian reuses the solution the solver has just evaluated, and
    # the initial-guess check is its own first evaluation, so no parameter
    # row reaches the solver twice; a start on a bound is first moved
    # strictly inside the box, and only that point is solved.  A solve
    # takes one parameter row per record, so a one-window fit passes one
    # distinct row per call
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
        distinct = set(map(tuple, np.column_stack(
            [np.ravel(p) for p in args[:5]])))
        assert len(distinct) == 1
        rows.extend(distinct)
        return original(*args, **kwargs)

    monkeypatch.setattr(sdm, "simulate_array_mpp_arrays", recording)
    for start in (guess, on_bound):
        rows.clear()
        start_fits_from(monkeypatch, start)
        result = fitting.fit_window(daylight, topo, datasheet)
        assert result.iterations > 1
        assert len(set(rows)) == len(rows)
        assert np.all((np.array(rows) > lo) & (np.array(rows) < hi))


def test_fit_translates_once_per_solve(monkeypatch, topo, datasheet):
    # a Jacobian takes the operating coefficients of the solve it
    # differentiates, so a fit translates the reference parameters once per
    # evaluation, in a one-window fit and in a batch whose windows stop at
    # different evaluations
    series, _ = synth.generate_dataset(
        CSI_PARAMS, topo, synth.WeatherProfile(days=6, seed=1,
                                               cloud_days=(4,)),
        alpha_isc=ALPHA_ISC)
    daylight = series.select(series.g_poa >= 50.0)
    days = daylight.days()
    windows = [daylight.select(np.isin(daylight.day_index(), days[k:k + 3]))
               for k in (0, 3)]
    translations = count_calls(monkeypatch, sdm, "translate_arrays")
    solves = count_calls(monkeypatch, sdm, "simulate_array_mpp_arrays")
    result = fitting.fit_window(windows[0], topo, datasheet)
    assert result.iterations > 1
    assert len(translations) == len(solves) > result.iterations
    translations.clear()
    solves.clear()
    results = fitting.fit_windows(windows, topo, datasheet)
    assert results[0].iterations != results[1].iterations
    assert len(translations) == len(solves) > max(r.iterations
                                                  for r in results)


def test_runner_days_fit_through_the_traced_fit_window(monkeypatch, topo,
                                                       datasheet):
    # the runner's days are rolling_fit's windows, each fitted through
    # fit_window: the tracer reads the fit layer from its spans
    series, _ = synth.generate_dataset(
        CSI_PARAMS, topo, synth.WeatherProfile(days=6, seed=3),
        alpha_isc=ALPHA_ISC)
    config = RunConfig.from_dict({
        "system": {"topology": {"cells_in_series": CELLS,
                                "modules_per_string": 12,
                                "strings_in_parallel": 8},
                   "datasheet": {k: getattr(datasheet, k) for k in (
                       "v_oc", "i_sc", "v_mp", "i_mp", "alpha_isc",
                       "beta_voc", "cells_in_series")}},
        "models": ["pvpro"],
        "studies": {"exceedance": False}})
    calls = count_calls(monkeypatch, fitting, "fit_window")
    report = run_benchmark(config, series)
    assert len(calls) == len(report.trajectory) == 3


def _system(datasheet):
    return {"topology": {"cells_in_series": CELLS, "modules_per_string": 12,
                         "strings_in_parallel": 8},
            "datasheet": {k: getattr(datasheet, k) for k in (
                "v_oc", "i_sc", "v_mp", "i_mp", "alpha_isc", "beta_voc",
                "cells_in_series")}}


def _roster_run(topo, datasheet):
    """An 8-day, six-model run with every study, shaped like perfbench's
    roster_studies: its series and configuration."""
    series, _ = synth.generate_dataset(
        CSI_PARAMS, topo, synth.WeatherProfile(days=8, seed=21,
                                               cloud_days=(1, 3, 6),
                                               cloud_depth=0.55),
        synth.DegradationScenario.step("i_ph_ref", 4, -0.12),
        alpha_isc=ALPHA_ISC)
    config = RunConfig.from_dict({
        "system": _system(datasheet),
        "models": ["pvpro", "smart_persistence", "naive_persistence",
                   "nominal", "lr", "kr"],
        "regressors": {"lambda_grid": [1e-3], "gamma_grid": [0.5],
                       "training_lengths_days": [3]},
        "studies": {"seasonal": True, "weather_cases": True, "sweep": True,
                    "training_length": True},
        "evaluation": {"start": "2024-06-05T00:00:00"}})
    return series, config


def _count_masks(monkeypatch):
    """The calls of ``apply_quality_pipeline``, wrapped in every module
    that binds it, as perfbench's tracer wraps it."""
    calls = []
    original = preprocess.apply_quality_pipeline

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (preprocess, analysis):
        monkeypatch.setattr(module, "apply_quality_pipeline", counting)
    return calls


def test_benchmark_runs_both_studies_through_the_traced_names(monkeypatch,
                                                              topo,
                                                              datasheet):
    # perfbench expects spans of both studies on roster_studies; a run that
    # reached them other than through the analysis module would read 0
    series, config = _roster_run(topo, datasheet)
    studies = [count_calls(monkeypatch, analysis, name)
               for name in ("weather_case_study", "training_length_sweep")]
    report = run_benchmark(config, series)
    assert "error" not in report.studies["weather_cases"]
    assert "error" not in report.studies["training_length"]
    assert [len(calls) for calls in studies] == [1, 1]


def test_each_distinct_training_window_is_masked_once(monkeypatch, topo,
                                                      datasheet):
    # pvpro's days, lr's and kr's training slices and the training-length
    # windows read one table: each distinct window is masked once, and
    # weather_pools masks the whole series once more
    series, config = _roster_run(topo, datasheet)
    masks = _count_masks(monkeypatch)
    windows = count_calls(monkeypatch, preprocess, "training_window")
    report = run_benchmark(config, series)
    assert "error" not in report.studies["weather_cases"]
    assert "error" not in report.studies["training_length"]
    spans = [(end - length, end) for _, end, length, _ in windows]
    assert len(set(spans)) == len(spans)
    # 4 forecast days share their 3-day windows with lr and kr, and the
    # training-length study adds one earlier 3-day window
    assert len(spans) == 5
    assert len(masks) == len(spans) + 1
    assert sum(len(args[0]) == len(series) for args in masks) == 1


def test_physical_models_predict_their_days_in_one_solve(monkeypatch, topo,
                                                         datasheet):
    # pvpro and nominal each predict all four forecast days in one
    # simulate_power call, one parameter row per record
    series, config = _roster_run(topo, datasheet)
    calls = count_calls(monkeypatch, fitting, "simulate_power")
    report = run_benchmark(config, series)
    starts = [np.datetime64(row["day"], "s") for row in report.daily["pvpro"]]
    days = [series.slice_time(start, start + DAY) for start in starts]
    g_days = np.concatenate([day.g_poa for day in days])
    runner = [args for args in calls if np.array_equal(args[1], g_days)]
    assert len(runner) == 2
    assert not any(np.array_equal(args[1], day.g_poa)
                   for args in calls for day in days)
    fits = {fit.window_end: fit.params for fit in report.trajectory}
    bounds = np.cumsum([0] + [len(day) for day in days])
    pvpro, nominal = (np.asarray(args[0]) for args in runner)
    for k, start in enumerate(starts):
        rows = slice(bounds[k], bounds[k + 1])
        assert (pvpro[rows] == fits[start].as_array()).all()
        assert (nominal[rows] == datasheet.desoto_params.as_array()).all()


def test_a_pvpro_run_without_studies_calls_the_traced_layers(monkeypatch,
                                                             topo,
                                                             datasheet):
    # dayahead_rolling's shape: perfbench expects spans of the prediction,
    # of the masks and of the fits' start there too; every mask's clipping
    # filter and the fit's start run through their module names, where the
    # tracer wraps them
    series, _ = synth.generate_dataset(
        CSI_PARAMS, topo, synth.WeatherProfile(days=6, seed=3),
        alpha_isc=ALPHA_ISC)
    config = RunConfig.from_dict({
        "system": _system(datasheet), "models": ["pvpro"],
        "fit": {"window_days": 3, "warm_start": True},
        "studies": {name: False for name in (
            "seasonal", "weather_cases", "sweep", "training_length",
            "exceedance")}})
    masks = _count_masks(monkeypatch)
    clipping = count_calls(monkeypatch, preprocess, "filter_clipping")
    solves = count_calls(monkeypatch, fitting, "simulate_power")
    guesses = count_calls(monkeypatch, fitting, "initial_guess")
    report = run_benchmark(config, series)
    assert len(report.trajectory) == 3
    assert len(masks) == 3
    assert len(clipping) == 3
    assert len(solves) == 1
    assert len(guesses) >= 1


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
