"""Golden outputs: ``pvprof synth`` must write the committed telemetry, and
``pvprof benchmark`` on it the committed outputs.

Two runs are checked: demo 06 (30 days, ``demos/output/benchmark/``) and a
small ``roster_studies``-shaped run (8 days, six models, every study, an
``i_ph_ref`` step; ``tests/golden/roster_studies/``), which tests the
studies path apart from demo 06's size.  Each benchmark starts from the
committed ``telemetry.csv``, so the benchmark is checked apart from
``synth``, and ``synth`` is checked on its own: on each run's config it
writes that ``telemetry.csv`` and, for demo 06, ``ground_truth.json``.
Text fields (timestamps, model names, skip reasons, flags, keys) must
match exactly.  Numbers must match within ``GOLDEN_RTOL`` relative.
Measured spreads set that tolerance: forecasts move by at most 4e-9
relative between equivalent builds, and the BLAS kernels OpenBLAS picks
per CPU move the ``kr`` metrics in the 13th significant digit.  An
``nbe_series`` entry, (pred - meas)/p_nominal, is
held to the forecasts' tolerance carried into bias units,
``GOLDEN_RTOL*|pred|/p_nominal`` absolute, with ``pred`` the committed
forecast of its record: a relative tolerance on the entry itself would
amplify the forecast's move by |pred|/|pred - meas|, up to 4e4.
``provenance.versions`` must name the numpy, scipy and Python that run the
test.  A change that alters outputs on purpose regenerates the files in
the same commit: demo 06's with ``demos/06_full_benchmark.py``, the small
run's with ``pvprof synth`` and then ``pvprof benchmark``, each with
``--config config.json --out .``, in its directory.
"""

import csv
import json
import os
import platform

import numpy as np
import pytest
import scipy

from pvprof.cli import main
from pvprof.iotools import read_telemetry_csv

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO = os.path.join(REPO, "demos", "output")
ROSTER = os.path.join(REPO, "tests", "golden", "roster_studies")
GOLDEN_RTOL = 1e-8


def _assert_numbers_close(actual, expected, where, rtol=GOLDEN_RTOL,
                          atol=0.0):
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    close = np.isclose(actual, expected, rtol=rtol, atol=atol,
                       equal_nan=True)
    assert close.all(), \
        f"{where}: {actual[~close].tolist()} != {expected[~close].tolist()}"


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _assert_same(actual, expected, where):
    if isinstance(expected, dict):
        assert isinstance(actual, dict), where
        assert list(actual) == list(expected), where
        for key in expected:
            _assert_same(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), where
        assert len(actual) == len(expected), where
        if (expected and all(map(_is_number, expected))
                and all(map(_is_number, actual))):
            _assert_numbers_close(actual, expected, where)
            return
        for k, (a, e) in enumerate(zip(actual, expected)):
            _assert_same(a, e, f"{where}[{k}]")
    elif _is_number(expected):
        assert _is_number(actual), where
        _assert_numbers_close(actual, expected, where)
    else:
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


def _assert_same_csv(actual_path, expected_path, where):
    """Column by column: a column of numbers within the tolerance, any other
    column cell for cell, numbers within the tolerance and text exactly."""
    tables = []
    for path in (actual_path, expected_path):
        with open(path, newline="", encoding="utf-8") as fh:
            tables.append(list(csv.reader(fh)))
    actual, expected = tables
    assert actual[0] == expected[0], f"{where} header"
    assert len(actual) == len(expected), f"{where} rows"
    for j, name in enumerate(expected[0]):
        columns = [[row[j] for row in table[1:]] for table in tables]
        try:
            numbers = [np.array(column, dtype=float) for column in columns]
        except ValueError:
            if columns[0] == columns[1]:
                continue
            _assert_same([_cell(v) for v in columns[0]],
                         [_cell(v) for v in columns[1]], f"{where}.{name}")
        else:
            _assert_numbers_close(*numbers, f"{where}.{name}")


def _cell(text):
    """A CSV cell's number, or its text if it is none."""
    try:
        return float(text)
    except ValueError:
        return text


def _nbe_tolerances(config, golden, report):
    """Each model's ``nbe_series`` tolerances: ``GOLDEN_RTOL*|pred|/
    p_nominal`` per entry, ``pred`` the committed forecast of the entry's
    record, a kept record of the model's rows of ``forecasts.csv``."""
    with open(config, encoding="utf-8") as fh:
        daylight_only = json.load(fh).get("metrics_daylight_only", True)
    telemetry = read_telemetry_csv(os.path.join(golden, "telemetry.csv"))[0]
    with open(os.path.join(golden, "forecasts.csv"), newline="",
              encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    tolerances = {}
    for model in report["aggregate"]:
        mine = [row for row in rows if row["model"] == model]
        pred = np.array([row["p_pred_w"] for row in mine], dtype=float)
        if daylight_only:
            stamps = np.array([row["timestamp"].rstrip("Z") for row in mine],
                              dtype="datetime64[s]")
            at = np.searchsorted(telemetry.timestamp, stamps)
            assert (telemetry.timestamp[at] == stamps).all(), model
            pred = pred[telemetry.g_poa[at] >= report["g_min"]]
        tolerances[model] = GOLDEN_RTOL * np.abs(pred) / report["p_nominal_w"]
    return tolerances


def _assert_reproduces(config, golden, out):
    """``pvprof benchmark`` on ``config`` writes, into ``out``, what the
    directory ``golden`` holds."""
    assert main(["benchmark", "--config", config, "--out", str(out)]) == 0
    reports = []
    for directory in (str(out), golden):
        with open(os.path.join(directory, "report.json"),
                  encoding="utf-8") as fh:
            report = json.load(fh)
        del report["provenance"]["created_utc"]
        reports.append(report)
    # the report records the build that ran it, not the one that wrote the
    # golden files
    reports[1]["provenance"]["versions"].update(
        numpy=np.__version__, scipy=scipy.__version__,
        python=platform.python_version())
    tolerances = _nbe_tolerances(config, golden, reports[1])
    for model, atol in tolerances.items():
        aggregates = [report["aggregate"][model] for report in reports]
        if aggregates[1] is None:
            continue
        actual, expected = (agg.pop("nbe_series") for agg in aggregates)
        assert len(actual) == len(expected) == len(atol), model
        _assert_numbers_close(actual, expected,
                              f"report.json.aggregate.{model}.nbe_series",
                              rtol=0.0, atol=atol)
    _assert_same(*reports, "report.json")
    for name in ("forecasts.csv", "trajectory.csv", "daily_metrics.csv",
                 "aggregate_metrics.csv"):
        _assert_same_csv(os.path.join(out, name), os.path.join(golden, name),
                         name)


def test_benchmark_reproduces_committed_demo_outputs(tmp_path):
    _assert_reproduces(os.path.join(DEMO, "benchmark_config.json"),
                       os.path.join(DEMO, "benchmark"), tmp_path)


def test_benchmark_reproduces_committed_roster_studies_outputs(tmp_path):
    # synth seed 5000 of perfbench's roster_studies workload
    _assert_reproduces(os.path.join(ROSTER, "config.json"), ROSTER, tmp_path)


@pytest.mark.parametrize("config, golden, names", [
    (os.path.join(DEMO, "benchmark_config.json"),
     os.path.join(DEMO, "benchmark"), ("telemetry.csv", "ground_truth.json")),
    (os.path.join(ROSTER, "config.json"), ROSTER, ("telemetry.csv",))],
    ids=["demo", "roster_studies"])
def test_synth_reproduces_committed_telemetry(tmp_path, config, golden,
                                              names):
    assert main(["synth", "--config", config, "--out", str(tmp_path)]) == 0
    for name in names:
        actual, expected = (os.path.join(directory, name)
                            for directory in (str(tmp_path), golden))
        if name.endswith(".csv"):
            _assert_same_csv(actual, expected, name)
            continue
        documents = []
        for path in (actual, expected):
            with open(path, encoding="utf-8") as fh:
                documents.append(json.load(fh))
        _assert_same(*documents, name)
