import math
from dataclasses import replace

import numpy as np
import pytest

from pvprof import analysis, baselines, fitting, preprocess, sdm, synth
from pvprof.benchmark import RunConfig, run_benchmark
from pvprof.exceptions import (ConfigError, DataError, InsufficientDataError,
                               NumericalError)
from pvprof.series import DAY, TelemetrySeries, WeatherSeries
from conftest import ALPHA_ISC, CELLS, CSI_PARAMS, count_calls
from oracles import scan_mpp

# hand values pinned before the build
NMAE_HAND = 0.015
NRMSE_HAND = 0.01870828693386971        # sqrt(14/4) percent
CV_HAND = 0.408248290463863             # {1,2,3,2,1,3}, population std


class TestComputeMetrics:
    def test_perfect_prediction_zero_metrics(self):
        meas = np.array([1.0, 2.0, 3.0]) * 1e4
        r = analysis.compute_metrics(meas, meas, 1e5, daylight_only=False)
        assert r.nmae == 0.0 and r.nrmse == 0.0 and r.nbe_mean == 0.0
        assert all(v == 0.0 for v in r.exceedance.values())

    def test_constant_bias(self):
        meas = np.full(10, 5e4)
        pred = meas + 0.01 * 1e5
        r = analysis.compute_metrics(pred, meas, 1e5, daylight_only=False)
        assert r.nmae == pytest.approx(0.01, abs=1e-15)
        assert r.nrmse == pytest.approx(0.01, abs=1e-15)
        assert np.allclose(r.nbe_series, 0.01)

    def test_hand_computed_four_sample_case(self):
        p_nom = 1e5
        meas = np.zeros(4)
        pred = np.array([0.02, -0.01, 0.0, 0.03]) * p_nom
        r = analysis.compute_metrics(pred, meas, p_nom, daylight_only=False)
        assert abs(r.nmae - NMAE_HAND) < 1e-12
        assert abs(r.nrmse - NRMSE_HAND) < 1e-12

    def test_daylight_exclusion(self):
        meas = np.array([0.0, 1e4, 2e4])
        pred = np.array([5e3, 1e4, 2e4])
        g = np.array([10.0, 500.0, 800.0])
        r = analysis.compute_metrics(pred, meas, 1e5, daylight_only=True,
                                     g_poa=g, g_min=50.0)
        assert r.n_samples == 2
        assert r.nmae == 0.0

    def test_empty_after_filtering(self):
        with pytest.raises(InsufficientDataError):
            analysis.compute_metrics(np.ones(3), np.ones(3), 1e5,
                                     daylight_only=True,
                                     g_poa=np.zeros(3))

    def test_daylight_needs_irradiance(self):
        with pytest.raises(ConfigError):
            analysis.compute_metrics(np.ones(3), np.ones(3), 1e5,
                                     daylight_only=True)

    def test_non_finite_kept_sample_is_refused(self):
        # a NaN would read as NaN errors and as no exceedance at all
        with pytest.raises(NumericalError, match="^1 of 3 kept samples"):
            analysis.compute_metrics([1.0, np.nan, 3.0], [1.0, 2.0, 3.0], 10,
                                     g_poa=[100.0] * 3)
        with pytest.raises(NumericalError, match="^2 of 2 kept samples"):
            analysis.compute_metrics([1.0, 2.0, 3.0], [1.0, np.inf, np.nan],
                                     10, g_poa=[10.0, 100.0, 100.0])
        # a sample the daylight filter drops may be anything
        r = analysis.compute_metrics([np.nan, 2.0, 3.0], [1.0, 2.0, 3.0], 10,
                                     g_poa=[10.0, 100.0, 100.0])
        assert (r.n_samples, r.nmae) == (2, 0.0)

    def test_nrmse_dominates_nmae_and_bias_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(5, 100)
            meas = rng.uniform(0, 1e5, n)
            pred = meas + rng.normal(0, 5e3, n)
            r = analysis.compute_metrics(pred, meas, 1e5, daylight_only=False)
            assert r.nrmse >= r.nmae - 1e-15
            assert r.nbe_mean == pytest.approx(
                (pred.mean() - meas.mean()) / 1e5, abs=1e-12)


class TestExceedance:
    def test_zero_bias(self):
        assert analysis.exceedance_density(np.zeros(10)) \
            == {0.10: 0.0, 0.20: 0.0}

    def test_direct_count(self):
        nbe = np.zeros(100)
        nbe[:4] = 0.15
        nbe[4] = 0.25
        d = analysis.exceedance_density(nbe)
        assert d[0.10] == pytest.approx(0.05)
        assert d[0.20] == pytest.approx(0.01)

    def test_symmetric_residuals_near_half_at_zero(self):
        rng = np.random.default_rng(1)
        nbe = rng.normal(0.0, 0.05, 200_000)
        d = analysis.exceedance_density(nbe, thresholds=(0.0,))
        assert d[0.0] == pytest.approx(0.5, abs=0.01)

    def test_non_finite_entry_is_refused(self):
        with pytest.raises(NumericalError, match="^2 of 4 bias entries"):
            analysis.exceedance_density([0.0, np.nan, 0.3, -np.inf])

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        nbe = rng.normal(0.0, 0.1, 10_000)
        taus = (0.0, 0.05, 0.10, 0.20, 0.30)
        d = analysis.exceedance_density(nbe, thresholds=taus)
        vals = [d[t] for t in taus]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestSeasonal:
    def test_boundary_days(self):
        ts = np.array(["2024-03-01T12:00", "2024-02-29T12:00",
                       "2024-06-01T12:00", "2024-11-30T12:00",
                       "2024-12-01T12:00"], dtype="datetime64[s]")
        labels = analysis.season_of(ts)
        assert labels.tolist() == ["spring", "winter", "summer", "fall",
                                   "winter"]

    def test_every_sample_in_exactly_one_season(self):
        ts = np.datetime64("2024-01-01T00:00", "s") \
            + np.arange(0, 366 * 96, 7) * np.timedelta64(900, "s")
        labels = analysis.season_of(ts)
        assert set(labels.tolist()) <= set(analysis.SEASONS)
        assert labels.size == ts.size

    def test_uniform_residuals_give_equal_seasonal_errors(self):
        ts = np.datetime64("2024-01-01T12:00", "s") \
            + np.arange(365) * np.timedelta64(1, "D")
        meas = np.full(365, 5e4)
        pred = meas + 1e3
        res = analysis.seasonal_partition(ts, pred, meas, 1e5,
                                          daylight_only=False)
        for report in res.groups.values():
            assert report.nmae == pytest.approx(0.01, abs=1e-15)

    def test_empty_season_marked_absent(self):
        ts = np.array(["2024-07-01T12:00"], dtype="datetime64[s]")
        res = analysis.seasonal_partition(ts, np.ones(1), np.ones(1), 1e5,
                                          daylight_only=False)
        assert res.groups["summer"] is not None
        assert res.groups["winter"] is None


class TestClassifyDays:
    def _series(self, cloud_days=(), seed=0, days=3, depth=0.4):
        profile = synth.WeatherProfile(days=days, seed=seed,
                                       cloud_days=cloud_days,
                                       cloud_depth=depth)
        series, log = synth.generate_dataset(
            CSI_PARAMS, sdm.ArrayTopology(72, 12, 8), profile,
            alpha_isc=ALPHA_ISC)
        return series, log

    def test_noiseless_clear_day(self):
        profile = synth.WeatherProfile(days=1)
        series, _ = synth.generate_dataset(
            CSI_PARAMS, sdm.ArrayTopology(72, 12, 8), profile,
            noise_v=0.0, noise_i=0.0)
        labels = analysis.classify_days(series)
        assert list(labels.values()) == ["clear"]

    def test_agreement_with_generator_labels(self):
        agree = total = 0
        for seed in range(10):
            series, log = self._series(cloud_days=(1,), seed=seed, days=2)
            labels = analysis.classify_days(series)
            day0 = np.datetime64(log.start_day, "D")
            for k, truth in enumerate(log.day_labels):
                got = labels.get(day0 + np.timedelta64(k, "D"))
                total += 1
                agree += int(got == truth)
        assert total == 20
        assert agree / total >= 0.95

    def test_infinite_threshold_all_clear(self):
        series, _ = self._series(cloud_days=(0, 1, 2), seed=3)
        labels = analysis.classify_days(series, threshold=math.inf)
        assert set(labels.values()) == {"clear"}


def _twelve_weather_days(topo):
    """The 12-day fixture with four cloudy days, and its day labels."""
    profile = synth.WeatherProfile(days=12, seed=3, cloud_days=(2, 5, 6, 9),
                                   cloud_depth=0.5)
    series, log = synth.generate_dataset(CSI_PARAMS, topo, profile,
                                         alpha_isc=ALPHA_ISC)
    day0 = np.datetime64(log.start_day, "D")
    labels = {day0 + np.timedelta64(k, "D"): lab
              for k, lab in enumerate(log.day_labels)}
    return series, labels


class TestWeatherCases:
    def test_cv_hand_case(self):
        assert analysis.coefficient_of_variation([1, 2, 3, 2, 1, 3]) \
            == pytest.approx(CV_HAND, abs=1e-12)

    def test_identical_cases_zero_cv(self):
        assert analysis.coefficient_of_variation([2.0] * 6) == 0.0

    def test_study_structure_and_sensitivity_flag(self, topo, datasheet,
                                                  p_nominal):
        series, labels = _twelve_weather_days(topo)
        res = analysis.weather_case_study(
            analysis.weather_pools(series, labels), ["pvpro", "kr"],
            topo=topo, datasheet=datasheet, p_nominal=p_nominal)
        assert set(res.groups) == {"pvpro", "kr"}
        for reports in res.groups.values():
            assert len(reports) == 6
        assert res.cv_of_cases["pvpro"]["nmae"] < res.cv_of_cases["kr"]["nmae"]
        if res.cv_of_cases["kr"]["nmae"] > 0.20:
            assert any("kr" in note for note in res.notes)

    def test_regressors_need_no_datasheet(self, topo, p_nominal):
        series, labels = _twelve_weather_days(topo)
        res = analysis.weather_case_study(
            analysis.weather_pools(series, labels), ["lr"], topo=topo,
            datasheet=None, p_nominal=p_nominal)
        assert len(res.groups["lr"]) == 6

    def test_each_pool_trained_once(self, monkeypatch, topo, datasheet,
                                    p_nominal):
        series, labels = _twelve_weather_days(topo)
        calls = count_calls(monkeypatch, analysis, "train_model")
        analysis.weather_case_study(analysis.weather_pools(series, labels),
                                    ["pvpro", "lr"], topo=topo,
                                    datasheet=datasheet, p_nominal=p_nominal)
        for name in ("pvpro", "lr"):
            pools = [tuple(np.unique(train.day_index()))
                     for model, trains in calls if model == name
                     for train in trains]
            # clear, cloudy and mixed training days, each trained on once
            assert len(pools) == 3 and len(set(pools)) == 3
            assert sorted(pools[0] + pools[1]) == list(pools[2])

    def test_cases_match_training_per_case(self, topo, datasheet, p_nominal):
        series, labels = _twelve_weather_days(topo)
        res = analysis.weather_case_study(
            analysis.weather_pools(series, labels), ["lr", "pvpro"],
            topo=topo, datasheet=datasheet, p_nominal=p_nominal)
        retained = preprocess.apply_quality_pipeline(
            series, preprocess.PreprocessConfig()).retained
        split = {}
        for kind in ("clear", "cloudy"):
            days = sorted(d for d, lab in labels.items() if lab == kind)
            split[kind] = (days[0::2], days[1::2])
        train_days = {kind: split[kind][0] for kind in split}
        train_days["mix"] = sorted(train_days["clear"] + train_days["cloudy"])

        def records(days):
            return series.select(retained & np.isin(
                series.day_index(), np.array(days, dtype="datetime64[D]")))

        for name in ("lr", "pvpro"):
            assert list(res.groups[name]) == [
                f"{a}/{b}" for a, b in analysis.WEATHER_CASES]
            for train_kind, test_kind in analysis.WEATHER_CASES:
                fitted, = analysis.train_model(
                    name, [records(train_days[train_kind])], topo=topo,
                    datasheet=datasheet)
                test = records(split[test_kind][1])
                X = baselines.feature_matrix(test.timestamp, test.g_poa,
                                             test.t_module)
                pred = analysis.predict_model(fitted, X, topo=topo,
                                              datasheet=datasheet, g_min=50.0)
                expected = analysis.compute_metrics(
                    pred, test.power, p_nominal, g_poa=test.g_poa)
                got = res.groups[name][f"{train_kind}/{test_kind}"]
                assert got.to_json_dict(with_series=True) \
                    == expected.to_json_dict(with_series=True)

    def test_unfillable_case_aborts(self, topo, datasheet, p_nominal):
        profile = synth.WeatherProfile(days=4, seed=3, cloud_days=(1,))
        series, log = synth.generate_dataset(CSI_PARAMS, topo, profile,
                                             alpha_isc=ALPHA_ISC)
        day0 = np.datetime64(log.start_day, "D")
        labels = {day0 + np.timedelta64(k, "D"): lab
                  for k, lab in enumerate(log.day_labels)}
        with pytest.raises(InsufficientDataError):
            analysis.weather_case_study(
                analysis.weather_pools(series, labels), ["pvpro"], topo=topo,
                datasheet=datasheet, p_nominal=p_nominal)


# a fit that hit the evaluation cap: the runner still predicts from it
_WINDOW = fitting.FitWindowResult(
    np.datetime64("2024-06-01", "s"), np.datetime64("2024-06-04", "s"),
    sdm.SdmParamsRef(9.1, 4e-10, 0.42, 350.0, 1.12), 1e-4, 200, False, 500)


class TestInterpretabilitySweep:
    def test_physical_model_ignores_hour(self, topo, datasheet):
        res = analysis.interpretability_sweep(
            CSI_PARAMS, {"hod": (0.0, 1.0)}, topo=topo,
            datasheet=datasheet)["hod"]
        curve = res.groups["curves"]["model"]
        assert np.allclose(curve, curve[0], rtol=1e-12)

    def test_reference_irradiance_sweep_endpoint(self, topo, datasheet):
        res = analysis.interpretability_sweep(
            CSI_PARAMS, {"g_poa": (0.0, 1000.0)}, topo=topo, datasheet=None,
            reference_params=CSI_PARAMS)["g_poa"]
        curve = res.groups["curves"]["reference"]
        stc = sdm.translate_to_operating(
            CSI_PARAMS, sdm.OperatingConditions(1000.0, 25.0), CELLS)
        p_stc = sdm.find_mpp(stc).p * topo.modules_per_string \
            * topo.strings_in_parallel
        assert curve[-1] == pytest.approx(p_stc, rel=1e-9)
        # near-linear growth with irradiance
        assert np.all(np.diff(curve) > 0)

    def test_temperature_sweep_matches_scan_oracle(self, topo):
        res = analysis.interpretability_sweep(
            CSI_PARAMS, {"t_module": (0.0, 80.0)}, topo=topo,
            n_points=9)["t_module"]
        grid = res.groups["grid"]
        curve = res.groups["curves"]["model"]
        assert np.all(np.diff(curve) < 0)
        for k in (0, 4, 8):
            ops = (float(x) for x in sdm.translate_arrays(
                CSI_PARAMS.i_ph_ref, CSI_PARAMS.i_0_ref, CSI_PARAMS.r_s,
                CSI_PARAMS.r_sh_ref, CSI_PARAMS.n_diode, 1000.0, grid[k],
                CELLS))
            _, _, p = scan_mpp(*ops, n_points=300_000)
            assert curve[k] == pytest.approx(
                p * topo.modules_per_string * topo.strings_in_parallel,
                rel=1e-6)

    def test_regressor_sweep_uses_feature_grid(self):
        rng = np.random.default_rng(4)
        ts = np.datetime64("2024-06-01T06:00", "s") \
            + np.arange(300) * np.timedelta64(180, "s")
        g = rng.uniform(100, 1000, 300)
        t = 20 + g / 800 * 28 + rng.uniform(-5, 5, 300)  # break collinearity
        X = baselines.feature_matrix(ts, g, t)
        model = baselines.train_regressor("linear", X, 30.0 * g, {"lam": 1e-9})
        res = analysis.interpretability_sweep(
            model, {"g_poa": (100.0, 1000.0)}, n_points=11)["g_poa"]
        assert res.groups["curves"]["model"][-1] == pytest.approx(30_000.0,
                                                                  rel=1e-6)

    def test_window_result_sweeps_as_its_params(self, topo, datasheet):
        for feature, rng in (("g_poa", (0.0, 1000.0)),
                             ("t_module", (0.0, 80.0)), ("hod", (0.0, 1.0))):
            got, want = (analysis.interpretability_sweep(
                model, {feature: rng}, topo=topo, datasheet=datasheet,
                reference_params=CSI_PARAMS, n_points=7)[feature].groups
                for model in (_WINDOW, _WINDOW.params))
            np.testing.assert_array_equal(got["grid"], want["grid"])
            assert got["curves"].keys() == want["curves"].keys()
            for key in want["curves"]:
                np.testing.assert_array_equal(got["curves"][key],
                                              want["curves"][key])

    def test_every_curve_comes_from_one_solve(self, monkeypatch, topo,
                                              datasheet):
        ranges = {"g_poa": (0.0, 1000.0), "t_module": (0.0, 80.0),
                  "hod": (0.0, 1.0)}
        alone = {feature: analysis.interpretability_sweep(
                     _WINDOW, {feature: rng}, topo=topo, datasheet=datasheet,
                     reference_params=CSI_PARAMS)[feature]
                 for feature, rng in ranges.items()}
        solves = count_calls(monkeypatch, fitting, "simulate_power")
        together = analysis.interpretability_sweep(
            _WINDOW, ranges, topo=topo, datasheet=datasheet,
            reference_params=CSI_PARAMS)
        assert len(solves) == 1
        assert list(together) == list(ranges)
        for feature, result in together.items():
            assert result.groups["feature"] == feature
            np.testing.assert_array_equal(result.groups["grid"],
                                          alone[feature].groups["grid"])
            assert list(result.groups["curves"]) == ["model", "reference"]
            for key, curve in result.groups["curves"].items():
                # each row of the MPP solve stops on its own: bit-identical
                np.testing.assert_array_equal(
                    curve, alone[feature].groups["curves"][key])

    @pytest.mark.parametrize("model, varied, with_topo", [
        ("lr", "g_poa", True),                  # a roster name, not a model
        (CSI_PARAMS.as_array(), "g_poa", True),
        (CSI_PARAMS, "g_poa", False),
        (_WINDOW, "g_poa", False),
        (CSI_PARAMS, "wind_speed", True)])
    def test_unsweepable_input_rejected(self, topo, model, varied,
                                        with_topo):
        with pytest.raises(ConfigError):
            analysis.interpretability_sweep(
                model, {varied: (0.0, 1.0)},
                topo=topo if with_topo else None, n_points=3)


def _training_slices(calls):
    """Timestamps of each telemetry slice the recorded calls trained on, in
    order: a ``fit_window`` call takes one slice, a ``train_model`` call a
    list of them."""
    slices = []
    for args in calls:
        arg = next(a for a in args if isinstance(a, (TelemetrySeries, list)))
        slices.extend(arg if isinstance(arg, list) else [arg])
    return [train.timestamp for train in slices]


class TestTrainingLengthSweep:
    def test_single_length_single_row(self, topo, datasheet, p_nominal):
        profile = synth.WeatherProfile(days=9, seed=5)
        series, _ = synth.generate_dataset(CSI_PARAMS, topo, profile,
                                           alpha_isc=ALPHA_ISC)
        windows = analysis.training_length_windows(series, (3,),
                                                   n_eval_days=3)
        res = analysis.training_length_sweep(
            "lr", windows, topo=topo, datasheet=datasheet,
            p_nominal=p_nominal)
        assert list(res.groups) == [3.0]
        assert res.groups[3.0].nmae >= 0.0

    def test_infeasible_length_skipped_with_note(self, topo, datasheet,
                                                 p_nominal):
        profile = synth.WeatherProfile(days=9, seed=5)
        series, _ = synth.generate_dataset(CSI_PARAMS, topo, profile,
                                           alpha_isc=ALPHA_ISC)
        windows = analysis.training_length_windows(series, (3, 90),
                                                   n_eval_days=3)
        res = analysis.training_length_sweep(
            "lr", windows, topo=topo, datasheet=datasheet,
            p_nominal=p_nominal)
        assert res.groups[90.0] is None
        assert any("90" in n for n in res.notes)

    def test_fractional_length_trains_on_fractional_days(
            self, monkeypatch, topo, datasheet, p_nominal):
        # 2.5 days back from midnight reaches noon of the third day back;
        # a whole-day length would stop at the second day's first light
        profile = synth.WeatherProfile(days=9, seed=5)
        series, _ = synth.generate_dataset(CSI_PARAMS, topo, profile,
                                           alpha_isc=ALPHA_ISC)
        calls = count_calls(monkeypatch, analysis, "train_model")
        windows = analysis.training_length_windows(series, (2.5,),
                                                   n_eval_days=3)
        res = analysis.training_length_sweep(
            "lr", windows, topo=topo, datasheet=datasheet,
            p_nominal=p_nominal)
        assert list(res.groups) == [2.5]
        first = _training_slices(calls)[0]
        assert first[-1] - first[0] > 2 * DAY

    @pytest.mark.parametrize("caller", ["sweep", "rolling_fit", "runner"])
    def test_later_records_do_not_choose_earlier_training_records(
            self, monkeypatch, topo, datasheet, p_nominal, caller):
        # a voltage fault on the last day must leave the training records
        # of every earlier day as they were: each slice is masked on its own
        profile = synth.WeatherProfile(days=10, seed=3)
        series, _ = synth.generate_dataset(CSI_PARAMS, topo, profile,
                                           alpha_isc=ALPHA_ISC)
        fault_day = series.days()[-1]
        last_day = (series.day_index() == fault_day) & (series.g_poa >= 50.0)
        faulted = replace(series, v_dc=np.where(last_day, 0.6 * series.v_dc,
                                                series.v_dc))
        config = RunConfig.from_dict({
            "system": {"topology": {"cells_in_series": CELLS,
                                    "modules_per_string": 12,
                                    "strings_in_parallel": 8},
                       "p_nominal_w": p_nominal},
            "models": ["lr"],
            "regressors": {"lambda_grid": [1e-3], "gamma_grid": [0.5],
                           "training_lengths_days": [3]},
            "studies": {"exceedance": False}})
        run = {
            "sweep": lambda s: analysis.training_length_sweep(
                "lr", analysis.training_length_windows(s, (3,), n_eval_days=5),
                topo=topo, datasheet=datasheet, p_nominal=p_nominal),
            "rolling_fit": lambda s: fitting.rolling_fit(
                s, topo, np.timedelta64(3, "D"), fitting.update_schedule(
                    s, np.timedelta64(3, "D"), np.timedelta64(1, "D")),
                datasheet),
            "runner": lambda s: run_benchmark(config, s),
        }[caller]
        consumer = ((fitting, "fit_window") if caller == "rolling_fit"
                    else (analysis, "train_model"))
        calls = count_calls(monkeypatch, *consumer)
        runs = []
        for s in (series, faulted):
            run(s)
            # only a slice that holds the faulted day may differ
            runs.append([ts for ts in _training_slices(calls)
                         if ts[-1] < fault_day])
            calls.clear()
        expected = {"sweep": 5, "rolling_fit": 7, "runner": 6}[caller]
        assert len(runs[0]) == len(runs[1]) == expected
        for clean, after_fault in zip(*runs):
            np.testing.assert_array_equal(clean, after_fault)

    @pytest.mark.parametrize("models, swept", [
        (["smart_persistence", "lr"], True),
        (["smart_persistence", "naive_persistence"], False)])
    def test_benchmark_study_sweeps_first_trainable_model(
            self, topo, datasheet, p_nominal, models, swept):
        profile = synth.WeatherProfile(days=10, seed=5)
        series, _ = synth.generate_dataset(CSI_PARAMS, topo, profile,
                                           alpha_isc=ALPHA_ISC)
        config = RunConfig.from_dict({
            "system": {"topology": {"cells_in_series": CELLS,
                                    "modules_per_string": 12,
                                    "strings_in_parallel": 8},
                       "p_nominal_w": p_nominal},
            "models": models,
            "regressors": {"lambda_grid": [1e-3], "gamma_grid": [0.5],
                           "training_lengths_days": [3]},
            "studies": {"exceedance": False, "training_length": True}})
        study = run_benchmark(config, series).studies["training_length"]
        if swept:
            assert study["groups"]["3.0"]["nmae"] >= 0.0
        else:
            assert study == {"error": "no trainable model in the roster"}


class TestTrainPredict:
    @pytest.fixture(scope="class")
    def split(self, topo):
        profile = synth.WeatherProfile(days=3, seed=7, cloud_days=(1,))
        series, _ = synth.generate_dataset(CSI_PARAMS, topo, profile,
                                           noise_v=0.0, noise_i=0.0,
                                           alpha_isc=ALPHA_ISC)
        last = series.days()[-1].astype("datetime64[s]")
        train = preprocess.training_window(series, last, 2 * DAY,
                                           preprocess.PreprocessConfig())
        test = series.slice_time(last, last + DAY)
        return train, WeatherSeries.from_telemetry(test)

    def _pair(self, name, train, weather, topo, datasheet):
        fitted, = analysis.train_model(name, [train], topo=topo,
                                       datasheet=datasheet)
        X = baselines.feature_matrix(weather.timestamp, weather.g_poa,
                                     weather.t_cell)
        return analysis.predict_model(fitted, X, topo=topo,
                                      datasheet=datasheet, g_min=50.0)

    def _simulate(self, params, weather, topo, datasheet):
        return fitting.simulate_power(params, weather.g_poa, weather.t_cell,
                                      topo, g_min=50.0,
                                      alpha_isc=datasheet.alpha_isc)

    def test_physical_models_match_direct_calls(self, split, topo, datasheet):
        train, weather = split
        fit = fitting.fit_window(train, topo, datasheet)
        direct = {"pvpro": fit.params,
                  "nominal": baselines.fit_desoto_from_datasheet(datasheet)}
        for name, params in direct.items():
            np.testing.assert_array_equal(
                self._pair(name, train, weather, topo, datasheet),
                self._simulate(params, weather, topo, datasheet))

    @pytest.mark.parametrize("name, family", [("lr", "linear"),
                                              ("kr", "kernel_ridge")])
    def test_regressors_match_direct_calls(self, split, topo, datasheet, name,
                                           family):
        train, weather = split
        X = baselines.feature_matrix(train.timestamp, train.g_poa,
                                     train.t_module)
        model = baselines.train_regressor(family, X, train.power)
        Xq = baselines.feature_matrix(weather.timestamp, weather.g_poa,
                                      weather.t_cell)
        np.testing.assert_array_equal(
            self._pair(name, train, weather, topo, datasheet),
            baselines.predict_regressor(model, Xq))

    @pytest.mark.parametrize("name", ["smart_persistence", "svr"])
    def test_unknown_model_rejected(self, split, topo, datasheet, name):
        with pytest.raises(ConfigError):
            analysis.train_model(name, [split[0]], topo=topo,
                                 datasheet=datasheet)

    @pytest.mark.parametrize("fitted, with_topo", [
        ("pvpro", True), (None, True), (CSI_PARAMS.as_array(), True),
        (CSI_PARAMS, False), (_WINDOW, False)])
    def test_unpredictable_input_rejected(self, topo, datasheet, fitted,
                                          with_topo):
        with pytest.raises(ConfigError):
            analysis.predict_model(fitted, np.array([[800.0, 40.0, 0.5]]),
                                   topo=topo if with_topo else None,
                                   datasheet=datasheet, g_min=50.0)


@pytest.mark.parametrize("entry", ["rolling_fit", "weather_pools",
                                   "training_length_windows", "classify_days"])
def test_entry_points_reject_non_finite_telemetry(entry, topo, datasheet,
                                                  p_nominal):
    profile = synth.WeatherProfile(days=6, seed=3, cloud_days=(1, 2))
    series, log = synth.generate_dataset(CSI_PARAMS, topo, profile,
                                         alpha_isc=ALPHA_ISC)
    series.g_poa[len(series) // 2] = np.nan
    day0 = np.datetime64(log.start_day, "D")
    labels = {day0 + np.timedelta64(k, "D"): lab
              for k, lab in enumerate(log.day_labels)}
    calls = {
        "rolling_fit": lambda: fitting.rolling_fit(
            series, topo, np.timedelta64(3, "D"), fitting.update_schedule(
                series, np.timedelta64(3, "D"), np.timedelta64(1, "D")),
            datasheet),
        "weather_pools": lambda: analysis.weather_pools(series, labels),
        "training_length_windows": lambda: analysis.training_length_windows(
            series, (3,), n_eval_days=2),
        "classify_days": lambda: analysis.classify_days(series),
    }
    with pytest.raises(DataError, match="non-finite values in column g_poa"):
        calls[entry]()
