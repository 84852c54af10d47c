"""The benchmark's dynamic model: its days are ``rolling_fit``'s windows,
and every window fit of a run is solved once, in one batch."""

import json
import math
import os
import subprocess
import sys
import traceback
from dataclasses import replace

import numpy as np
import pytest

import pvprof
from pvprof import analysis, cli, fitting, iotools, preprocess, synth
from pvprof.benchmark import KNOWN_STUDIES, RunConfig, run_benchmark
from pvprof.exceptions import (DataError, InsufficientDataError,
                               NumericalError, SolverError)
from pvprof.preprocess import PreprocessConfig, training_window
from pvprof.series import DAY, TelemetrySeries
from conftest import ALPHA_ISC, CELLS, CSI_PARAMS, count_calls

WINDOW = np.timedelta64(3, "D")


@pytest.mark.parametrize("warm_start", [True, False])
def test_failed_window_is_recorded_and_its_day_skipped(topo, datasheet,
                                                       warm_start):
    # the evaluation starts on the second day, so the first window holds
    # one day of records; the last three days are dark, so the last
    # window holds one day too
    series, _ = synth.generate_dataset(
        CSI_PARAMS, topo, synth.WeatherProfile(days=7, seed=3),
        alpha_isc=ALPHA_ISC)
    days = series.days()
    dark = series.day_index() >= days[-3]
    series = replace(series, **{name: np.where(dark, 0.0,
                                               getattr(series, name))
                                for name in ("g_poa", "v_dc", "i_dc")})
    config = RunConfig.from_dict({
        "system": {"topology": {"cells_in_series": CELLS,
                                "modules_per_string": 12,
                                "strings_in_parallel": 8},
                   "datasheet": {k: getattr(datasheet, k) for k in (
                       "v_oc", "i_sc", "v_mp", "i_mp", "alpha_isc",
                       "beta_voc", "cells_in_series")}},
        "models": ["pvpro"],
        # fit.warm_start still parses and has no effect: every window
        # starts from the datasheet guess either way
        "fit": {"warm_start": warm_start},
        "studies": {"exceedance": False, "sweep": True},
        "evaluation": {"start": str(days[1])}})
    report = run_benchmark(config, series)
    ds = config.datasheet
    first_day, second_day = (d.astype("datetime64[s]") for d in days[1:3])

    # the day is skipped with the window fit's own error
    with pytest.raises(InsufficientDataError) as failure:
        fitting.fit_window(training_window(series, first_day, WINDOW,
                                           PreprocessConfig()),
                           topo, ds)
    assert report.daily["pvpro"][0] == {"day": str(days[1]),
                                        "skipped": str(failure.value)}

    # the window is in the trajectory as rolling_fit records it
    first = report.trajectory[0]
    assert (first.window_start, first.window_end) == (first_day - WINDOW,
                                                      first_day)
    assert first.error == str(failure.value)
    assert not first.converged
    assert math.isnan(first.final_loss)
    assert first.iterations == 0

    # the failed window leaves the next one's fit as it is alone
    cold = fitting.fit_window(training_window(series, second_day, WINDOW,
                                              PreprocessConfig()),
                              topo, ds)
    second = report.trajectory[1]
    assert second.error is None
    assert second.params == cold.params
    assert (second.final_loss, second.iterations) == (cold.final_loss,
                                                      cold.iterations)

    # the sweep predicts from the last window fit that did not fail
    assert len(report.trajectory) == len(days) - 1
    assert report.trajectory[-1].error is not None
    last_fit = [fit for fit in report.trajectory if fit.error is None][-1]
    expected = analysis.interpretability_sweep(
        last_fit, {"g_poa": (0.0, 1000.0)}, topo=topo, datasheet=ds,
        reference_params=ds.desoto_params)["g_poa"]
    np.testing.assert_array_equal(
        report.studies["sweep"]["g_poa"]["curves"]["model"],
        expected.groups["curves"]["model"])


@pytest.mark.parametrize("models", [["pvpro"], ["pvpro", "nominal"],
                                    ["nominal"]])
def test_sweep_never_stands_the_datasheet_in_for_pvpro(topo, datasheet,
                                                       models):
    # half-day windows hold too few records for any window fit to succeed
    series, _ = _studies_series(topo, seed=5, days=4)
    config = RunConfig.from_dict({
        "system": _system(datasheet), "models": models,
        "fit": {"window_days": 0.5},
        "studies": {"exceedance": False, "sweep": True},
        "evaluation": {"start": "2024-06-03T00:00:00"}})
    report = run_benchmark(config, series)
    sweep = report.studies["sweep"]
    if "pvpro" in models:
        assert report.aggregate["pvpro"] is None
        last = report.trajectory[-1].error
        assert all(fit.error for fit in report.trajectory)
        assert "need >= 50" in last
        assert sweep == {"error": f"every pvpro window fit failed; "
                                  f"last: {last}"}
    else:
        # without pvpro on the roster the sweep is the datasheet's, as
        # before: its model curve is the reference curve
        assert report.trajectory == []
        curves = sweep["g_poa"]["curves"]
        np.testing.assert_array_equal(curves["model"], curves["reference"])


def _cells(report):
    """Each (model, day) cell of a report: its forecast array, or its skip
    reason."""
    cells = {(fc.model, str(fc.timestamp[0].astype("datetime64[D]"))):
             fc.p_pred for fc in report.forecasts}
    for name, rows in report.daily.items():
        cells.update({(name, row["day"]): row["skipped"]
                      for row in rows if "skipped" in row})
    return cells


@pytest.mark.parametrize("failure", ["masking", "solve", "non_finite"])
def test_a_failed_day_between_good_days_skips_only_its_cells(
        monkeypatch, topo, datasheet, failure):
    # the forecast days are 06-05 to 06-08; 06-06 fails, either in its
    # training window's mask (pvpro's and lr's), in the stacked solve of
    # its records (pvpro's and nominal's), or in its metrics, for a NaN
    # predicted at one record (pvpro's and nominal's).  Only those cells
    # are skipped, and every other cell is what an undisturbed run
    # predicts; cold starts make each window's fit independent of the
    # failed one
    series, _ = _studies_series(topo, seed=25)
    middle = np.datetime64("2024-06-06T00:00:00")
    # clear days repeat their temperatures: mark one noon record of the
    # failing day with a temperature of its own
    marker = 41.0123456789
    noon = np.searchsorted(series.timestamp, middle + np.timedelta64(12, "h"))
    series.t_module[noon] = marker
    config = RunConfig.from_dict({
        "system": _system(datasheet),
        "models": ["pvpro", "nominal", "lr", "smart_persistence"],
        "regressors": {"lambda_grid": [1e-3], "gamma_grid": [0.5],
                       "training_lengths_days": [3]},
        "studies": {"exceedance": False},
        "evaluation": {"start": "2024-06-05T00:00:00"}})
    expected = _cells(run_benchmark(config, series))
    if failure == "masking":
        message = "outlier regression needs >= 10 retained records, have 3"
        original = preprocess.training_window

        def failing(series, end, length, config):
            if end == middle:
                raise InsufficientDataError(message)
            return original(series, end, length, config)

        monkeypatch.setattr(preprocess, "training_window", failing)
        failed = {"pvpro", "lr"}
    else:
        original = fitting.simulate_power
        if failure == "solve":
            message = "MPP Newton unconverged after 100 iterations"

            def failing(params, g_poa, t_cell, *args, **kwargs):
                if marker in t_cell:
                    raise SolverError(message)
                return original(params, g_poa, t_cell, *args, **kwargs)
        else:
            day = series.slice_time(middle, middle + DAY)
            message = (f"1 of {np.count_nonzero(day.g_poa >= 50.0)} kept "
                       "samples have a non-finite prediction or measurement")

            def failing(params, g_poa, t_cell, *args, **kwargs):
                return np.where(t_cell == marker, np.nan, original(
                    params, g_poa, t_cell, *args, **kwargs))

        monkeypatch.setattr(fitting, "simulate_power", failing)
        failed = {"pvpro", "nominal"}
    cells = _cells(run_benchmark(config, series))
    assert cells.keys() == expected.keys()
    for (name, label), cell in cells.items():
        if label == "2024-06-06" and name in failed:
            assert cell == message
        else:
            assert isinstance(cell, np.ndarray), (name, label)
            np.testing.assert_array_equal(cell, expected[name, label])


def _system(datasheet):
    return {"topology": {"cells_in_series": CELLS, "modules_per_string": 12,
                         "strings_in_parallel": 8},
            "datasheet": {k: getattr(datasheet, k) for k in (
                "v_oc", "i_sc", "v_mp", "i_mp", "alpha_isc", "beta_voc",
                "cells_in_series")}}


def _studies_config(datasheet):
    # the shape of the benchmark's roster_studies workload, pvpro alone:
    # both studies that train cold fits, a 3-day training-length sweep
    return {"system": _system(datasheet), "models": ["pvpro"],
            "regressors": {"training_lengths_days": [3]},
            "studies": {"weather_cases": True, "training_length": True},
            "evaluation": {"start": "2024-06-05T00:00:00"}}


def _studies_series(topo, seed, days=8):
    cloud_days = tuple(day for day in (1, 3, 6) if day < days)
    return synth.generate_dataset(
        CSI_PARAMS, topo, synth.WeatherProfile(days=days, seed=seed,
                                               cloud_days=cloud_days,
                                               cloud_depth=0.55),
        synth.DegradationScenario.step("i_ph_ref", 4, -0.12),
        alpha_isc=ALPHA_ISC)


def _fit_key(window):
    return tuple(getattr(window, name).tobytes() for name in (
        "timestamp", "g_poa", "t_module", "v_dc", "i_dc"))


def test_every_cold_window_is_solved_once_in_one_batch(monkeypatch, topo,
                                                       datasheet):
    series, _ = _studies_series(topo, seed=21)
    config = RunConfig.from_dict(_studies_config(datasheet))
    batches = []
    original = fitting._solve

    def recording(windows, topo, datasheet):
        batches.append([_fit_key(w) for w in windows])
        return original(windows, topo, datasheet)

    monkeypatch.setattr(fitting, "_solve", recording)
    report = run_benchmark(config, series)
    assert "error" not in report.studies["weather_cases"]
    assert "error" not in report.studies["training_length"]

    days = [training_window(series, fit.window_end, WINDOW,
                            PreprocessConfig()) for fit in report.trajectory]
    pools, _ = analysis.weather_pools(series, analysis.classify_days(series))
    _, lengths, _ = analysis.training_length_windows(series, (3,))
    every = (days + list(pools.values())
             + [w for ws in lengths.values() for w in ws])
    keys = {_fit_key(w) for w in every}
    # the runner's 4 days are also the sweep's last 4 windows: 12 fits,
    # 8 of them distinct
    assert len(days) == 4 and len(every) == 12 and len(keys) == 8
    # one batch of every distinct window, days included, and no other
    assert len(batches) == 1
    assert set(batches[0]) == keys and len(batches[0]) == 8


def test_failed_planned_window_leaves_the_others_and_each_error(topo,
                                                                datasheet):
    series, _ = _studies_series(topo, seed=22)
    ends = [np.datetime64("2024-06-05T00:00:00") + np.timedelta64(k, "D")
            for k in range(2)]
    windows = [training_window(series, end, WINDOW, PreprocessConfig())
               for end in (ends[0], ends[1],
                           np.datetime64("2024-06-08T00:00:00"))]
    w = windows[1]
    broken = TelemetrySeries(w.timestamp, w.g_poa, w.t_module,
                             np.full(len(w), np.inf), w.i_dc)
    short = windows[2].select(slice(0, 30))
    alone = [fitting.fit_window(w, topo, datasheet)
             for w in (windows[0], windows[2])]
    errors = {}
    for bad in (broken, short):
        with pytest.raises((NumericalError, InsufficientDataError)) as exc:
            fitting.fit_window(bad, topo, datasheet)
        errors[id(bad)] = exc.value

    solved = fitting.SolvedWindows(topo, datasheet)
    solved.plan([broken, windows[2], short])
    # the runner's first window is solved with the planned ones and, like
    # every window, exactly as it is alone
    rolled = fitting.rolling_fit(series, topo, WINDOW, ends, datasheet,
                                 solved=solved)
    assert rolled == fitting.rolling_fit(series, topo, WINDOW, ends,
                                         datasheet)
    assert fitting.fit_windows([windows[0], windows[2]], topo, datasheet,
                               solved) == alone
    # each consumer gets the error of its own lowest failing window, the
    # error it gets without the record
    for batch in ([windows[0], broken, short], [short, broken],
                  [windows[2], short]):
        with pytest.raises((NumericalError, InsufficientDataError)) as exc:
            fitting.fit_windows(batch, topo, datasheet, solved)
        first_bad = next(w for w in batch if w is broken or w is short)
        assert type(exc.value) is type(errors[id(first_bad)])
        assert str(exc.value) == str(errors[id(first_bad)])
    with pytest.raises(InsufficientDataError) as exc:
        analysis.train_model("pvpro", [windows[0], short], topo=topo,
                             datasheet=datasheet, solved=solved)
    assert str(exc.value) == str(errors[id(short)])


def test_a_recorded_error_is_raised_with_a_fresh_traceback(topo, datasheet):
    # every consumer of a failed window raises the one error object the
    # record keeps; its traceback must not grow from one raise to the next
    series, _ = _studies_series(topo, seed=22)
    short = training_window(series, np.datetime64("2024-06-05T00:00:00"),
                            WINDOW, PreprocessConfig()).select(slice(0, 30))
    solved = fitting.SolvedWindows(topo, datasheet)
    depths = []
    for _ in range(2):
        with pytest.raises(InsufficientDataError) as exc:
            fitting.fit_windows([short], topo, datasheet, solved)
        depths.append(len(traceback.extract_tb(exc.value.__traceback__)))
    assert depths[0] == depths[1]


def test_a_failed_slicing_runs_once_and_is_its_study_error(monkeypatch, topo,
                                                          datasheet):
    # the roster_studies shape cut to 6 days: the cloudy training pool is
    # one day, too few records for the cloudy/clear case
    series, _ = _studies_series(topo, seed=21, days=6)
    config = RunConfig.from_dict(_studies_config(datasheet))
    slicings = count_calls(monkeypatch, analysis, "weather_pools")
    report = run_benchmark(config, series)
    assert len(slicings) == 1
    with pytest.raises(InsufficientDataError) as failure:
        analysis.weather_pools(*slicings[0])
    assert str(failure.value).startswith("case cloudy/clear unfillable")
    assert report.studies["weather_cases"] == {"error": str(failure.value)}


GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "roster_studies")


def _golden():
    """The golden roster_studies configuration (as JSON) and telemetry."""
    with open(os.path.join(GOLDEN, "config.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    series, _ = iotools.read_telemetry_csv(os.path.join(GOLDEN,
                                                        "telemetry.csv"))
    return raw, series


def test_every_path_of_the_pass_names_its_skip():
    # from the first day: pvpro's first windows are empty or short,
    # persistence has no day before, the regressors no history to search
    raw, series = _golden()
    raw["studies"] = {name: False for name in KNOWN_STUDIES}
    raw["evaluation"] = {"start": "2024-06-01"}
    report = run_benchmark(RunConfig.from_dict(raw), series)
    skips = {name: [row.get("skipped", "scored") for row in rows]
             for name, rows in report.daily.items()}
    persistence = ["no history one horizon back"] + ["scored"] * 7
    assert skips == {
        "pvpro": ["outlier regression needs >= 10 retained records, have 0",
                  "window has 44 retained records, need >= 50"]
        + ["scored"] * 6,
        "smart_persistence": persistence,
        "naive_persistence": persistence,
        "nominal": ["scored"] * 8,
        "lr": ["grid search failed: no history before evaluation"] * 8,
        "kr": ["grid search failed: no history before evaluation"] * 8}
    assert [fit.error is None for fit in report.trajectory] == [
        False, False] + [True] * 6
    assert report.selection == {}
    assert report.studies == {}


def test_a_sweep_without_a_datasheet_is_an_error():
    # the regressors need no datasheet, but the sweep's reference curve does
    raw, series = _golden()
    raw["system"] = {"topology": raw["system"]["topology"],
                     "p_nominal_w": 34000.0}
    raw["models"] = ["lr", "smart_persistence"]
    del raw["synth"]
    raw["studies"] = {name: False for name in KNOWN_STUDIES}
    raw["studies"]["sweep"] = True
    report = run_benchmark(RunConfig.from_dict(raw), series)
    assert report.studies == {"sweep": {"error": "the sweep needs a "
                                                 "datasheet"}}


def test_a_module_temperature_below_absolute_zero_is_rejected(tmp_path):
    # PV exports often write -9999 for a missing value; three sunny records
    # of 2024-06-06 carry it in place of the module temperature
    with open(os.path.join(GOLDEN, "telemetry.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    sunny = [k for k, line in enumerate(lines) if line.startswith(
        "2024-06-06") and float(line.split(",")[1]) > 300][:3]
    for k in sunny:
        fields = lines[k].split(",")
        fields[2] = "-9999"
        lines[k] = ",".join(fields)
    path = tmp_path / "telemetry.csv"
    path.write_text("\n".join(lines) + "\n")
    series, diagnostics = iotools.read_telemetry_csv(path)
    assert diagnostics == [(k + 1, "module temperature at or below absolute "
                                   "zero") for k in sunny]
    assert len(series) == len(lines) - 1 - 3
    assert series.t_module.min() > -273.15

    raw, clean = _golden()
    cold = clean.t_module.copy()
    cold[[k - 1 for k in sunny]] = -9999.0
    for t_module in (cold, np.full(len(clean), -273.15)):
        with pytest.raises(DataError, match="at or below absolute zero"):
            replace(clean, t_module=t_module).validate()
    with pytest.raises(DataError, match="at or below absolute zero"):
        run_benchmark(RunConfig.from_dict(raw), replace(clean, t_module=cold))


def test_an_epoch_evaluation_start_is_kept():
    # numpy's datetime64 of 1970-01-01 is falsy, yet it is a start like any
    # other, not a missing one: the default starts one window after day one
    golden = os.path.join(os.path.dirname(__file__), "golden",
                          "roster_studies")
    with open(os.path.join(golden, "config.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["models"] = ["smart_persistence", "nominal"]
    raw["studies"] = {name: False for name in raw["studies"]}
    series, _ = iotools.read_telemetry_csv(os.path.join(golden,
                                                        "telemetry.csv"))
    days = {}
    for start in ("1970-01-01", str(series.days()[0])):
        raw["evaluation"] = {"start": start}
        report = run_benchmark(RunConfig.from_dict(raw), series)
        days[start] = {model: [row["day"] for row in rows]
                       for model, rows in report.daily.items()}
    assert days["1970-01-01"] == days["2024-06-01"]
    assert days["1970-01-01"]["nominal"] == [
        f"2024-06-0{d}" for d in range(1, 9)]


def test_a_one_record_history_skips_the_regressor_days(tmp_path):
    # the history before the evaluation start is the one record at
    # 23:45: the grid search cannot take a cadence from it, and the run
    # used to exit with an untyped ValueError from int(nan)
    golden = os.path.join(os.path.dirname(__file__), "golden",
                          "roster_studies")
    with open(os.path.join(golden, "config.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    del raw["synth"]
    raw["models"] = ["lr", "kr", "smart_persistence"]
    raw["studies"] = {name: False for name in raw["studies"]}
    raw["evaluation"] = {"start": "2024-06-02"}
    (tmp_path / "config.json").write_text(json.dumps(raw))
    with open(os.path.join(golden, "telemetry.csv"), encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    kept = [row for row in rows if row >= "2024-06-01T23:45:00Z"]
    (tmp_path / "telemetry.csv").write_text("\n".join([header, *kept]) + "\n")
    assert cli.main(["benchmark", "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    for name in ("lr", "kr"):
        assert [row["day"] for row in report["daily"][name]] == [
            f"2024-06-0{d}" for d in range(2, 9)]
        assert {row.get("skipped") for row in report["daily"][name]} == {
            "grid search failed: grid search needs >= 2 history records, "
            "have 1"}


# in a fresh process, run `pvprof synth` on the golden roster_studies config
# (three cloud days) or run_benchmark on its telemetry with the given models,
# then print the scipy subpackages it loaded
_IMPORT_PROBE = """
import json, pkgutil, sys
from pvprof import cli, iotools
from pvprof.benchmark import RunConfig, run_benchmark

golden, command, models, out = sys.argv[1:]
if command == "synth":
    cli.main(["synth", "--config", golden + "/config.json", "--out", out])
else:
    with open(golden + "/config.json", encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["models"] = models.split(",")
    raw["studies"] = {name: False for name in raw["studies"]}
    series, _ = iotools.read_telemetry_csv(golden + "/telemetry.csv")
    run_benchmark(RunConfig.from_dict(raw), series)
import scipy
print(json.dumps(sorted(
    name for name in (f"scipy.{m.name}" for m in
                      pkgutil.iter_modules(scipy.__path__)
                      if m.ispkg and not m.name.startswith("_"))
    if name in sys.modules)))
"""


@pytest.mark.parametrize("command, models, loaded", [
    ("benchmark", "pvpro", []), ("benchmark", "lr,kr", ["scipy.linalg"]),
    ("synth", "", [])], ids=["pvpro", "lr-kr", "synth"])
def test_a_run_loads_only_the_scipy_it_uses(command, models, loaded,
                                            tmp_path):
    # each update is one fresh process, which pays for every import: the
    # physical model and the synthetic clouds load no scipy subpackage, and
    # the kernel ridge only linalg for its Cholesky solve (scipy.spatial
    # alone would also load sparse, special and constants)
    golden = os.path.join(os.path.dirname(__file__), "golden",
                          "roster_studies")
    src = os.path.dirname(os.path.dirname(os.path.abspath(pvprof.__file__)))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, golden,
                          command, models, str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=src), check=True,
                         capture_output=True, text=True)
    assert json.loads(out.stdout) == loaded


def test_runs_in_one_process_match_fresh_processes(tmp_path, topo,
                                                   datasheet):
    # the record of solved windows lives for one run: a second run on
    # other data with the same timestamps reads none of the first's fits
    config = dict(_studies_config(datasheet),
                  data={"telemetry": "telemetry.csv"})
    runs = []
    for seed in (23, 24):
        d = tmp_path / f"seed{seed}"
        d.mkdir()
        series, _ = _studies_series(topo, seed)
        iotools.write_telemetry_csv(str(d / "telemetry.csv"), series)
        (d / "config.json").write_text(json.dumps(config))
        runs.append(d)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pvprof.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def outputs(out):
        files = {}
        for name in sorted(os.listdir(out)):
            text = (out / name).read_text()
            if name == "report.json":
                report = json.loads(text)
                del report["provenance"]["created_utc"]
                text = json.dumps(report, sort_keys=True)
            files[name] = text
        return files

    for d in runs:
        assert cli.main(["benchmark", "--config", str(d / "config.json"),
                         "--out", str(d / "together")]) == 0
    for d in runs:
        subprocess.run([sys.executable, "-m", "pvprof.cli", "benchmark",
                        "--config", str(d / "config.json"),
                        "--out", str(d / "fresh")],
                       env=env, check=True, capture_output=True)
        assert outputs(d / "together") == outputs(d / "fresh")
    assert (outputs(runs[0] / "fresh")["trajectory.csv"]
            != outputs(runs[1] / "fresh")["trajectory.csv"])
