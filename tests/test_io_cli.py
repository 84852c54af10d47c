import csv
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pvprof import charts, iotools, synth
from pvprof.benchmark import RunConfig
from pvprof.cli import main
from pvprof.exceptions import ConfigError, DataError
from pvprof.sdm import PARAM_NAMES, ArrayTopology
from conftest import ALPHA_ISC, CSI_PARAMS

TOPO = ArrayTopology(72, 12, 8)


def _small_series(days=2, seed=0):
    profile = synth.WeatherProfile(days=days, seed=seed)
    series, _ = synth.generate_dataset(CSI_PARAMS, TOPO, profile,
                                       alpha_isc=ALPHA_ISC)
    return series


class TestTelemetryCsv:
    def test_write_read_write_round_trip(self, tmp_path):
        series = _small_series()
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        iotools.write_telemetry_csv(p1, series)
        back, diagnostics = iotools.read_telemetry_csv(p1)
        assert diagnostics == []
        iotools.write_telemetry_csv(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_corrupt_row_in_budget(self, tmp_path):
        path = tmp_path / "t.csv"
        n = 10_000
        ts = np.datetime64("2024-01-01T00:00", "s") \
            + np.arange(n) * np.timedelta64(60, "s")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(iotools.NATIVE_COLUMNS)
            for k in range(n):
                if k == 5000:
                    writer.writerow([iotools.format_timestamp(ts[k]),
                                     "not-a-number", "25", "400", "50"])
                else:
                    writer.writerow([iotools.format_timestamp(ts[k]),
                                     "500", "25", "400", "50"])
        series, diagnostics = iotools.read_telemetry_csv(path)
        assert len(series) == n - 1
        assert len(diagnostics) == 1
        assert diagnostics[0][0] == 5002  # header + 1-based data line

    def test_too_many_bad_rows_fatal(self, tmp_path):
        path = tmp_path / "t.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(iotools.NATIVE_COLUMNS)
            writer.writerow(["2024-01-01T00:00:00Z", "500", "25", "400", "50"])
            writer.writerow(["2024-01-01T00:01:00Z", "bad", "25", "400", "50"])
        with pytest.raises(DataError):
            iotools.read_telemetry_csv(path)

    def test_missing_column_fatal_with_name(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("timestamp,g_poa,t_module,v_dc\n"
                        "2024-01-01T00:00:00Z,500,25,400\n")
        with pytest.raises(DataError, match="i_dc"):
            iotools.read_telemetry_csv(path)

    def test_mapped_headers_match_native_encoding(self, tmp_path):
        series = _small_series()
        native = tmp_path / "native.csv"
        foreign = tmp_path / "pvdaq_style.csv"
        iotools.write_telemetry_csv(native, series)
        with open(native) as fh:
            rows = list(csv.reader(fh))
        rows[0] = ["measured_on", "poa_irradiance", "module_temp_1",
                   "dc_voltage", "dc_current"]
        with open(foreign, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        mpath = tmp_path / "mapping.json"
        mpath.write_text(json.dumps({
            "timestamp": "measured_on", "g_poa": "poa_irradiance",
            "t_module": "module_temp_1", "v_dc": "dc_voltage",
            "i_dc": "dc_current"}))
        a, _ = iotools.read_telemetry_csv(native)
        b, _ = iotools.read_telemetry_csv(foreign,
                                          iotools.read_mapping(mpath))
        for name in ("timestamp", "g_poa", "t_module", "v_dc", "i_dc"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_non_monotonic_row_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        ts = np.datetime64("2024-01-01T00:00", "s") \
            + np.arange(300) * np.timedelta64(60, "s")
        ts[150] = ts[149] - np.timedelta64(30, "s")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(iotools.NATIVE_COLUMNS)
            for t in ts:
                writer.writerow([iotools.format_timestamp(t),
                                 "500", "25", "400", "50"])
        series, diagnostics = iotools.read_telemetry_csv(path)
        assert len(diagnostics) == 1
        assert "not increasing" in diagnostics[0][1]
        series.validate()


# edits of one CSV file, as lists of lines; positions are fractions of the
# current length so that every drawn edit applies to any file
_FRAC = st.floats(0.0, 1.0, exclude_max=True)
_CSV_EDITS = st.lists(st.one_of(
    st.tuples(st.just("offset"), _FRAC,
              st.sampled_from([b"+05:30", b"-08:00", b"+00:00", b"+14:00"])),
    st.tuples(st.just("duplicate"), _FRAC),
    st.tuples(st.just("swap"), _FRAC, _FRAC),
    st.tuples(st.just("value"), _FRAC, st.integers(1, 4),
              st.sampled_from([b"NaN", b"nan", b"inf", b"-inf", b""])),
    st.tuples(st.just("truncate"), _FRAC, _FRAC),
    st.tuples(st.just("bytes"), _FRAC, st.binary(min_size=1, max_size=4))),
    min_size=1, max_size=5)


def _edit_csv(lines, edit):
    kind, pos = edit[0], edit[1]

    def row(frac):  # a data row; the header changes only by byte insertion
        return 1 + int(frac * (len(lines) - 1))

    k = row(pos)
    if kind == "offset":
        lines[k] = lines[k].replace(b"Z,", edit[2] + b",", 1)
    elif kind == "duplicate":
        lines.insert(k, lines[k])
    elif kind == "swap":
        j = row(edit[2])
        lines[k], lines[j] = lines[j], lines[k]
    elif kind == "value":
        fields = lines[k].rstrip(b"\r\n").split(b",")
        fields[min(edit[2], len(fields) - 1)] = edit[3]
        lines[k] = b",".join(fields) + b"\r\n"
    elif kind == "truncate":
        lines[k] = lines[k][:int(edit[2] * len(lines[k]))]
    else:
        data = b"".join(lines)
        at = int(pos * (len(data) + 1))
        lines[:] = (data[:at] + edit[2] + data[at:]).splitlines(keepends=True)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def base_lines(fuzz_dir):
    path = fuzz_dir / "base.csv"
    iotools.write_telemetry_csv(path, _small_series())
    return path.read_bytes().splitlines(keepends=True)


# the same rows under foreign headers, the timestamp no longer first
_MAPPING = {"timestamp": "ts", "g_poa": "g", "t_module": "t", "v_dc": "v",
            "i_dc": "i"}


@pytest.fixture(scope="module")
def mapped_lines(base_lines):
    lines = [b"g,ts,t,v,i\r\n"]
    for line in base_lines[1:]:
        f = line.rstrip(b"\r\n").split(b",")
        lines.append(b",".join([f[1], f[0], *f[2:]]) + b"\r\n")
    return lines


def _read_mutated(lines, edits, path, mapping=None):
    lines = list(lines)
    for edit in edits:
        _edit_csv(lines, edit)
    path.write_bytes(b"".join(lines))
    try:
        series, _ = iotools.read_telemetry_csv(path, mapping)
    except DataError:
        return
    series.validate()


class TestTelemetryCsvFuzz:
    @given(edits=_CSV_EDITS)
    def test_mutated_csv_gives_valid_series_or_data_error(self, base_lines,
                                                          fuzz_dir, edits):
        _read_mutated(base_lines, edits, fuzz_dir / "mutated.csv")

    @given(edits=_CSV_EDITS)
    def test_mutated_mapped_csv_gives_valid_series_or_data_error(
            self, mapped_lines, fuzz_dir, edits):
        _read_mutated(mapped_lines, edits, fuzz_dir / "mutated_mapped.csv",
                      _MAPPING)

    def test_short_mapped_row_rejected_with_line_number(self, mapped_lines,
                                                        tmp_path):
        # a row cut before its timestamp field
        lines = list(mapped_lines)
        lines[5] = lines[5].split(b",")[0] + b"\r\n"
        path = tmp_path / "t.csv"
        path.write_bytes(b"".join(lines))
        series, diagnostics = iotools.read_telemetry_csv(path, _MAPPING)
        assert [line for line, _ in diagnostics] == [6]
        assert diagnostics[0][1].startswith("unparseable row")
        assert len(series) == len(lines) - 2

    def test_non_utf8_byte_names_file_and_line(self, base_lines, tmp_path):
        lines = list(base_lines)
        lines[7] = lines[7].replace(b",", b",\xff", 1)
        path = tmp_path / "t.csv"
        path.write_bytes(b"".join(lines))
        with pytest.raises(DataError, match=r"t\.csv:8: not UTF-8"):
            iotools.read_telemetry_csv(path)

    def test_oversized_field_names_file_and_line(self, base_lines, tmp_path):
        lines = list(base_lines)
        lines[3] = lines[3].replace(b",", b"," + b"9" * 200_000 + b",", 1)
        path = tmp_path / "t.csv"
        path.write_bytes(b"".join(lines))
        with pytest.raises(DataError, match=r"t\.csv:4: field larger"):
            iotools.read_telemetry_csv(path)


# a roster_studies-shaped configuration whose length and filter settings
# the fuzz test overwrites
_FUZZ_BASE = {
    "system": {"topology": {"cells_in_series": 72, "modules_per_string": 12,
                            "strings_in_parallel": 8},
               "datasheet": {"v_oc": 49.17, "i_sc": 9.49, "v_mp": 40.03,
                             "i_mp": 8.91, "alpha_isc": 0.004,
                             "beta_voc": -0.176, "cells_in_series": 72}},
    "models": ["pvpro", "smart_persistence", "naive_persistence", "nominal",
               "lr", "kr"],
    "regressors": {"lambda_grid": [1e-3, 1e-1], "gamma_grid": [0.5, 2.0],
                   "training_lengths_days": [3]},
}
_FUZZ_KEYS = (("fit", "window_days"), ("fit", "update_days"),
              ("fit", "warm_start"), (None, "horizon_hours"),
              ("regressors", "holdout_days"), ("preprocess", "g_min"),
              ("preprocess", "k_sigma"), ("preprocess", "clip_band"),
              ("preprocess", "clip_run"), ("preprocess", "p_ac_limit_w"))
_ANY_SETTING = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e300, -1e300, 1e-300, 0.0, -1.0, 3.0]),
    st.integers(-10 ** 400, 10 ** 400), st.booleans(), st.none(),
    st.text(max_size=6), st.lists(st.integers(0, 9), max_size=2))


class TestRunConfigFuzz:
    @given(settings=st.fixed_dictionaries(
        {}, optional={key: _ANY_SETTING for key in _FUZZ_KEYS}))
    def test_config_parses_or_raises_config_error(self, settings):
        raw = json.loads(json.dumps(_FUZZ_BASE))
        for (section, key), value in settings.items():
            (raw.setdefault(section, {}) if section else raw)[key] = value
        try:
            config = RunConfig.from_dict(raw)
        except ConfigError:
            return
        assert isinstance(config, RunConfig)

    @pytest.mark.parametrize("value", [None, [1], 3, "x"])
    @pytest.mark.parametrize("section", ["data", "system", "preprocess", "fit",
                                         "regressors", "studies",
                                         "evaluation", "synth"])
    def test_section_must_be_object(self, section, value):
        raw = json.loads(json.dumps(_FUZZ_BASE))
        raw[section] = value
        with pytest.raises(ConfigError, match=f"'{section}'"):
            RunConfig.from_dict(raw)


class TestJson:
    def test_seventeen_digit_floats(self):
        text = iotools.dumps_json({"x": 0.1})
        assert "0.10000000000000001" in text

    def test_sorted_keys_and_round_trip(self):
        doc = {"b": [1.5, 2], "a": {"z": True, "y": None}}
        text = iotools.dumps_json(doc)
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == doc

    def test_non_finite_serialized_as_null(self):
        assert json.loads(iotools.dumps_json({"x": float("nan")}))["x"] is None

    def test_exact_float_round_trip(self):
        rng = np.random.default_rng(3)
        vals = (rng.standard_normal(50) * 10.0 ** rng.integers(-20, 20, 50))
        back = json.loads(iotools.dumps_json({"v": vals.tolist()}))["v"]
        assert back == vals.tolist()


class TestCharts:
    def test_line_chart_embeds_data_table(self):
        svg = charts.line_chart({"m1": [0.01, 0.02, 0.015]}, "t", "y",
                                x_labels=["d1", "d2", "d3"])
        assert svg.startswith("<svg")
        assert "<polyline" in svg
        assert "<!--" in svg
        table = svg.split("<!--\n")[1].split("\n-->")[0].splitlines()
        assert table[0] == "data"
        assert table[1] == "x,m1"
        assert table[2].split(",")[0] == "d1"
        assert float(table[3].split(",")[1]) == 0.02

    def test_histogram_renders_all_series(self):
        rng = np.random.default_rng(0)
        svg = charts.histogram({"a": rng.normal(0, 1, 500),
                                "b": rng.normal(1, 2, 500)}, "t", "x")
        assert svg.count("<polyline") >= 2
        assert '"a"' not in svg  # plain labels, not JSON


def _write_config(tmp_path, days=9, models=("pvpro", "nominal",
                                            "smart_persistence"),
                  extra=None):
    from pvprof import synthesize_datasheet
    ds = synthesize_datasheet(CSI_PARAMS, 72, alpha_isc=ALPHA_ISC)
    cfg = {
        "data": {"telemetry": "telemetry.csv"},
        "system": {
            "topology": {"cells_in_series": 72, "modules_per_string": 12,
                         "strings_in_parallel": 8},
            "datasheet": {"v_oc": ds.v_oc, "i_sc": ds.i_sc, "v_mp": ds.v_mp,
                          "i_mp": ds.i_mp, "alpha_isc": ds.alpha_isc,
                          "beta_voc": ds.beta_voc, "cells_in_series": 72},
        },
        "models": list(models),
        "seed": 11,
        "synth": {"days": days, "cloud_days": [2], "cloud_depth": 0.5,
                  "true_params": {"i_ph_ref": CSI_PARAMS.i_ph_ref,
                                  "i_0_ref": CSI_PARAMS.i_0_ref,
                                  "r_s": CSI_PARAMS.r_s,
                                  "r_sh_ref": CSI_PARAMS.r_sh_ref,
                                  "n_diode": CSI_PARAMS.n_diode},
                  "alpha_isc": ALPHA_ISC},
    }
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestCli:
    def test_full_command_chain(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = str(tmp_path)
        assert main(["synth", "--config", str(cfg), "--out", out]) == 0
        assert (tmp_path / "telemetry.csv").exists()
        assert (tmp_path / "ground_truth.json").exists()

        assert main(["fit", "--config", str(cfg), "--out", out]) == 0
        traj = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert traj[0].split(",") == list(iotools.TRAJECTORY_COLUMNS)
        assert len(traj) > 1

        assert main(["benchmark", "--config", str(cfg), "--out", out]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema_version"] == 1
        assert set(report["aggregate"]) == {"pvpro", "nominal",
                                            "smart_persistence"}
        fc = (tmp_path / "forecasts.csv").read_text().splitlines()
        assert fc[0].split(",") == list(iotools.FORECAST_COLUMNS)

        assert main(["report", "--config", str(cfg), "--out", out]) == 0
        assert (tmp_path / "daily_nmae.svg").exists()
        assert (tmp_path / "nbe_histogram.svg").exists()

    def test_predict_writes_forecast(self, tmp_path):
        cfg = _write_config(tmp_path, days=6, models=("pvpro",))
        out = str(tmp_path)
        assert main(["synth", "--config", str(cfg), "--out", out]) == 0
        assert main(["predict", "--config", str(cfg), "--out", out]) == 0
        lines = (tmp_path / "forecast.csv").read_text().splitlines()
        assert len(lines) > 1
        assert all(",pvpro," in line for line in lines[1:])

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"models": ["pvpro"]}))  # no system
        assert main(["benchmark", "--config", str(path)]) == 2

    def test_section_not_object_exit_code(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, extra={"preprocess": None})
        assert main(["benchmark", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert "'preprocess'" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        3, [1], "x", {"dayz": 3}, {"scenario": {"r_s": []}},
        {"scenario": {"r_s": ["linear"]}}, {"days": "2"},
        {"cadence_minutes": 0}, {"cadence_minutes": 7.5},
        {"true_params": {"i_ph_ref": 9.5}},
        {"true_params": {**{n: getattr(CSI_PARAMS, n) for n in PARAM_NAMES},
                         "r_s": -1}},
        {"noise_v": "x"}], ids=lambda change: json.dumps(change))
    def test_malformed_synth_section_exit_code(self, tmp_path, change):
        cfg = _write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        if isinstance(change, dict):
            raw["synth"].update(change)
        else:
            raw["synth"] = change
        cfg.write_text(json.dumps(raw))
        assert main(["synth", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "telemetry.csv").exists()

    def test_unreadable_config_exit_code(self, tmp_path):
        (tmp_path / "truncated.json").write_text('{"system": ')
        (tmp_path / "list.json").write_text("[1, 2]")
        # a missing file, a directory, broken JSON and a non-object; --seed
        # writes into the parsed document, so a non-object is refused first
        for name in ("missing.json", "", "truncated.json", "list.json"):
            assert main(["benchmark", "--config", str(tmp_path / name),
                         "--seed", "1"]) == 2

    @pytest.mark.parametrize("fit", [
        {"max_iterations": 0}, {"max_iterations": -5},
        {"loss_tolerance": -1.0}, {"loss_tolerance": 0.0},
        {"loss_tolerance": float("nan")}, {"loss_tolerance": float("inf")},
        {"window_days": 0}, {"window_days": -1}, {"window_days": float("nan")},
        {"window_days": 1e300}, {"update_days": 0}, {"update_days": -1},
        {"window_dayz": 3}],
        ids=lambda fit: "-".join(f"{k}={v}" for k, v in fit.items()))
    @pytest.mark.parametrize("command", ["fit", "benchmark"])
    def test_invalid_fit_settings_exit_code(self, tmp_path, command, fit):
        cfg = _write_config(tmp_path, extra={"fit": fit})
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key", ["max_iterations", "loss_tolerance",
                                     "window_dayz"])
    def test_unknown_fit_setting_is_named(self, tmp_path, capsys, key):
        # the evaluation cap and tolerance are fixed; a config that still
        # sets one must not run silently under the fixed value
        cfg = _write_config(tmp_path, extra={"fit": {key: 50}})
        assert main(["benchmark", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        {"horizon_hours": 1e300}, {"horizon_hours": float("nan")},
        {"horizon_hours": float("inf")}, {"horizon_hours": 1e16},
        {"horizon_hours": 0}, {"horizon_hours": -5}, {"horizon_hours": 1.5},
        {"regressors": {"holdout_days": 1e300}},
        {"regressors": {"holdout_days": float("nan")}},
        {"regressors": {"holdout_days": 0}}],
        ids=lambda extra: json.dumps(extra))
    def test_invalid_lengths_exit_code(self, tmp_path, extra):
        cfg = _write_config(tmp_path, models=("pvpro", "lr"), extra=extra)
        assert main(["benchmark", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    def test_fit_without_datasheet_exit_code(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, days=3, models=("lr",))
        raw = json.loads(cfg.read_text())
        del raw["system"]["datasheet"]
        raw["system"]["p_nominal_w"] = 7000.0
        cfg.write_text(json.dumps(raw))
        out = str(tmp_path)
        assert main(["synth", "--config", str(cfg), "--out", out]) == 0
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg), "--out", out]) == 2
        assert "datasheet" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        None, "directory", b'{"daily": ', b"[1, 2]",
        b'{"daily": {"m": [1]}}', b'{"aggregate": [1]}',
        b'{"studies": {"sweep": {"g_poa": 1}}}',
        b'{"daily": {"m": [{"day": "d", "nmae": "x"}]}}'],
        ids=["missing", "directory", "truncated_json", "not_object",
             "daily_row_not_object", "aggregate_not_object",
             "sweep_feature_not_object", "nmae_not_number"])
    def test_unreadable_report_exit_code(self, tmp_path, content):
        report = tmp_path / "report.json"
        if content == "directory":
            report.mkdir()
        elif content is not None:
            report.write_bytes(content)
        assert main(["report", "--out", str(tmp_path)]) == 3

    def test_report_charts_around_a_failed_sweep(self, tmp_path):
        # a sweep study whose reference extraction failed holds its error
        (tmp_path / "report.json").write_text(json.dumps({
            "daily": {"m": [{"day": "2024-06-01", "nmae": 0.01},
                            {"day": "2024-06-02", "skipped": "no data"}]},
            "studies": {"sweep": {"error": "extraction failed"}}}))
        assert main(["report", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "daily_nmae.svg").exists()
        assert not list(tmp_path.glob("sweep_*.svg"))

    @pytest.mark.parametrize("content", [b'{"timestamp": "ts",',
                                         b'{"timestamp": "\xe9"}', None],
                             ids=["truncated_json", "not_utf8", "missing"])
    def test_unreadable_mapping_exit_code(self, tmp_path, content):
        cfg = _write_config(tmp_path, extra={"data": {
            "telemetry": "telemetry.csv", "mapping": "mapping.json"}})
        if content is not None:
            (tmp_path / "mapping.json").write_bytes(content)
        assert main(["benchmark", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("regressors", [{"lambda_grid": [1e-3, -1.0]},
                                            {"gamma_grid": [0.5, -50.0]},
                                            {"gamma_grid": []}])
    def test_invalid_ridge_grid_exit_code(self, tmp_path, regressors):
        # an empty gamma grid is rejected even without kernel ridge in the
        # roster, as an empty lambda grid is
        cfg = _write_config(tmp_path, extra={"regressors": regressors})
        assert main(["benchmark", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    def test_infeasible_datasheet_sweep_records_error(self, tmp_path):
        # no diode curve reaches this fill factor: the pvpro fits start from
        # heuristic seeds, and the sweep has no reference curve
        cfg = _write_config(tmp_path, days=6, models=("pvpro",))
        raw = json.loads(cfg.read_text())
        raw["system"]["datasheet"].update(v_oc=49.0, i_sc=9.5, v_mp=48.9,
                                          i_mp=9.45)
        raw["studies"] = {"sweep": True}
        cfg.write_text(json.dumps(raw))
        out = str(tmp_path)
        assert main(["synth", "--config", str(cfg), "--out", out]) == 0
        assert main(["benchmark", "--config", str(cfg), "--out", out]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert "extraction stalled" in report["studies"]["sweep"]["error"]
        assert report["aggregate"]["pvpro"]

    def test_data_error_exit_code(self, tmp_path):
        cfg = _write_config(tmp_path)
        # no telemetry.csv generated
        assert main(["benchmark", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 3

    def test_non_utf8_telemetry_exit_code(self, tmp_path):
        cfg = _write_config(tmp_path, days=3)
        out = str(tmp_path)
        assert main(["synth", "--config", str(cfg), "--out", out]) == 0
        csv_path = tmp_path / "telemetry.csv"
        data = csv_path.read_bytes()
        cut = data.index(b"\n", len(data) // 2) + 1
        csv_path.write_bytes(data[:cut] + b"\xe9" + data[cut:])
        assert main(["benchmark", "--config", str(cfg), "--out", out]) == 3

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg_path = _write_config(tmp_path, days=6, models=("nominal",))
        out = str(tmp_path)
        main(["synth", "--config", str(cfg_path), "--out", out])
        doc = json.loads(cfg_path.read_text())
        # a fill factor no single-diode curve can reach
        doc["system"]["datasheet"].update({"v_mp": 48.9, "i_mp": 9.45})
        cfg_path.write_text(json.dumps(doc))
        assert main(["benchmark", "--config", str(cfg_path),
                     "--out", out]) == 4

    def test_roster_and_seed_overrides(self, tmp_path):
        cfg = _write_config(tmp_path, days=6)
        out = str(tmp_path)
        main(["synth", "--config", str(cfg), "--out", out])
        assert main(["benchmark", "--config", str(cfg), "--out", out,
                     "--models", "pvpro", "--seed", "99"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report["aggregate"]) == {"pvpro"}
        assert report["provenance"]["seed"] == 99

    def test_sweep_study_chart(self, tmp_path):
        cfg = _write_config(tmp_path, days=6, models=("pvpro",),
                            extra={"studies": {"sweep": True}})
        out = str(tmp_path)
        main(["synth", "--config", str(cfg), "--out", out])
        assert main(["benchmark", "--config", str(cfg), "--out", out]) == 0
        assert main(["report", "--config", str(cfg), "--out", out]) == 0
        for feature in ("g_poa", "t_module", "hod"):
            svg = (tmp_path / f"sweep_{feature}.svg").read_text()
            assert "reference" in svg and "<polyline" in svg

    def test_provenance_hash_tracks_config_content(self, tmp_path):
        cfg = _write_config(tmp_path, days=6, models=("nominal",))
        out = str(tmp_path)
        main(["synth", "--config", str(cfg), "--out", out])
        main(["benchmark", "--config", str(cfg), "--out", out])
        h1 = json.loads((tmp_path / "report.json").read_text()
                        )["provenance"]["config_sha256"]
        # reordering keys must not change the hash
        doc = json.loads(cfg.read_text())
        reordered = {k: doc[k] for k in reversed(list(doc))}
        cfg.write_text(json.dumps(reordered))
        main(["benchmark", "--config", str(cfg), "--out", out])
        h2 = json.loads((tmp_path / "report.json").read_text()
                        )["provenance"]["config_sha256"]
        assert h1 == h2
        # a content change must change it
        doc["seed"] = 999
        cfg.write_text(json.dumps(doc))
        main(["benchmark", "--config", str(cfg), "--out", out])
        h3 = json.loads((tmp_path / "report.json").read_text()
                        )["provenance"]["config_sha256"]
        assert h3 != h1
