import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pvprof import preprocess, synth
from pvprof.exceptions import InsufficientDataError
from pvprof.series import TelemetrySeries
from conftest import CSI_PARAMS
from oracles import clipping_per_record, polyfit_outliers


def make_series(days=2, seed=0, **kw):
    from pvprof.sdm import ArrayTopology
    profile = synth.WeatherProfile(days=days, seed=seed, **kw)
    series, _ = synth.generate_dataset(CSI_PARAMS, ArrayTopology(72, 12, 8),
                                       profile, noise_v=0.0, noise_i=0.0)
    return series


class TestNightFilter:
    def test_zero_irradiance_flagged(self):
        series = make_series()
        mask = preprocess.filter_night(series, g_min=50.0)
        assert np.all(mask.night[series.g_poa == 0.0])

    def test_threshold_is_strict_less_than(self):
        series = TelemetrySeries(
            np.array(["2024-06-01T10:00", "2024-06-01T10:15"],
                     dtype="datetime64[s]"),
            [50.0, 49.999], [25.0, 25.0], [400.0, 400.0], [50.0, 50.0])
        mask = preprocess.filter_night(series, g_min=50.0)
        assert not mask.night[0]
        assert mask.night[1]

    def test_flag_count_matches_direct_scan(self):
        series = make_series(days=1)
        mask = preprocess.filter_night(series, g_min=50.0)
        assert mask.night.sum() == int(np.sum(series.g_poa < 50.0))


class TestClippingFilter:
    def test_smooth_unimodal_day_unflagged(self):
        series = make_series(days=2)
        mask = preprocess.filter_night(series)
        mask = preprocess.filter_clipping(series, mask)
        assert mask.clipped.sum() == 0

    def test_explicit_limit_threshold(self):
        series = TelemetrySeries(
            np.array(["2024-06-01T12:00", "2024-06-01T12:15"],
                     dtype="datetime64[s]"),
            [900.0, 900.0], [40.0, 40.0], [450.0, 450.0], [220.0, 217.0])
        mask = preprocess.filter_night(series)
        mask = preprocess.filter_clipping(series, mask, p_ac_limit=100_000.0)
        assert mask.clipped[0]          # 99 kW >= 0.98 * 100 kW
        assert not mask.clipped[1]      # 97.65 kW below the 98 kW threshold

    def test_injected_plateau_recovered(self):
        series = make_series(days=1)
        p = series.power
        limit = 0.82 * float(p.max())
        over = p > limit
        scale = np.where(over, np.sqrt(limit / np.where(over, p, 1.0)), 1.0)
        clipped_series = TelemetrySeries(series.timestamp, series.g_poa,
                                         series.t_module, series.v_dc * scale,
                                         series.i_dc * scale)
        mask = preprocess.filter_night(clipped_series)
        mask = preprocess.filter_clipping(clipped_series, mask)
        got = np.flatnonzero(mask.clipped)
        want = np.flatnonzero(over)
        assert got.size > 0
        assert abs(got.min() - want.min()) <= 1
        assert abs(got.max() - want.max()) <= 1
        assert np.all(np.diff(got) == 1)


def _with_power(series, power):
    """``series`` with its voltage and current scaled by one factor per
    record so that their product is ``power``."""
    scale = np.sqrt(power / np.where(series.power > 0, series.power, 1.0))
    scale = np.where(series.power > 0, scale, 1.0)
    return TelemetrySeries(series.timestamp, series.g_poa, series.t_module,
                           series.v_dc * scale, series.i_dc * scale)


@functools.lru_cache(maxsize=None)
def _noisy_days(seed, cloudy):
    from pvprof.sdm import ArrayTopology
    profile = synth.WeatherProfile(days=3, seed=seed, cadence_minutes=10,
                                   cloud_days=(1,) if cloudy else ())
    series, _ = synth.generate_dataset(CSI_PARAMS, ArrayTopology(72, 12, 8),
                                       profile)
    return series


@st.composite
def telemetry(draw):
    """Three noisy days, cut to start and end at any record (partial days,
    nights at either end), with an optional inverter plateau: power above
    a level held at that level, jittered by up to ``jitter`` relative.
    The clock may be shifted, so that a calendar day starts in daylight,
    even at noon, as for a plant far from the timestamps' time zone."""
    series = _noisy_days(draw(st.integers(0, 3)), draw(st.booleans()))
    shift = np.timedelta64(draw(st.sampled_from([0, 12, 14])), "h")
    series = TelemetrySeries(series.timestamp + shift, series.g_poa,
                             series.t_module, series.v_dc, series.i_dc)
    n = len(series)
    series = series.select(slice(draw(st.integers(0, n // 3)),
                                 draw(st.integers(2 * n // 3, n))))
    level = draw(st.none() | st.floats(0.6, 0.97))
    if level is not None:
        p = series.power
        limit = level * float(p.max())
        jitter = draw(st.sampled_from([0.0, 0.002, 0.008]))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        held = limit * (1.0 + jitter * rng.uniform(-1.0, 1.0, n)[:p.size])
        series = _with_power(series, np.where(p > limit, held, p))
    return series


class TestAgainstOracles:
    """The filters flag exactly what the per-record references flag."""

    @given(series=telemetry(),
           ac_limit=st.none() | st.floats(0.5, 1.05),
           band=st.sampled_from([0.002, 0.005, 0.02]),
           run_min=st.integers(1, 5))
    def test_clipping_matches_the_per_record_scan(self, series, ac_limit,
                                                  band, run_min):
        mask = preprocess.filter_night(series)
        limit = None if ac_limit is None else ac_limit * float(
            series.power.max())
        got = preprocess.filter_clipping(series, mask, p_ac_limit=limit,
                                         band=band, run_min=run_min)
        want = clipping_per_record(series.timestamp, series.g_poa,
                                   series.power, mask.night, limit, band,
                                   run_min)
        np.testing.assert_array_equal(got.clipped, want)

    @given(series=telemetry(),
           k_sigma=st.sampled_from([2.0, 2.5, 3.0]),
           gross=st.lists(st.tuples(st.floats(0.0, 1.0),
                                    st.sampled_from(["i_dc", "v_dc"]),
                                    st.floats(0.2, 3.0)), max_size=4),
           flat=st.sampled_from([None, "g_poa", "t_module"]))
    def test_outliers_match_the_polyfit_screen(self, series, k_sigma, gross,
                                               flat):
        columns = {name: getattr(series, name).copy()
                   for name in ("g_poa", "t_module", "v_dc", "i_dc")}
        for where, name, factor in gross:
            columns[name][int(where * (len(series) - 1))] *= factor
        if flat is not None:
            columns[flat][:] = 600.0 if flat == "g_poa" else 30.0
        series = TelemetrySeries(series.timestamp, **columns)
        mask = preprocess.filter_night(series)
        mask = preprocess.filter_clipping(series, mask)
        got = preprocess.remove_outliers_regression(series, mask,
                                                    k_sigma=k_sigma)
        keep = mask.retained
        for x, y, flags in ((series.g_poa, series.i_dc, got.outlier_current),
                            (series.t_module, series.v_dc,
                             got.outlier_voltage)):
            want, ambiguous = polyfit_outliers(x[keep], y[keep], k_sigma)
            decided = ~ambiguous
            np.testing.assert_array_equal(flags[keep][decided],
                                          want[decided])
            assert not flags[~keep].any()


def _outlier_series(n=200, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    ts = np.datetime64("2024-06-01T06:00", "s") \
        + np.arange(n) * np.timedelta64(300, "s")
    g = np.linspace(60.0, 950.0, n)
    t = 20.0 + g / 800.0 * 28.0
    i = 0.06 * g + noise * rng.standard_normal(n)
    v = 480.0 - 1.2 * t + noise * 40.0 * rng.standard_normal(n)
    return TelemetrySeries(ts, g, t, v, i)


class TestOutlierRegression:
    def test_collinear_data_unflagged(self):
        series = _outlier_series()
        mask = preprocess.filter_night(series)
        mask = preprocess.remove_outliers_regression(series, mask, k_sigma=3.0)
        assert mask.outlier_current.sum() == 0
        assert mask.outlier_voltage.sum() == 0

    def test_single_gross_outlier_flagged_exactly(self):
        series = _outlier_series(noise=0.02)
        series.i_dc[77] *= 10.0
        mask = preprocess.filter_night(series)
        mask = preprocess.remove_outliers_regression(series, mask, k_sigma=3.0)
        assert np.flatnonzero(mask.outlier_current).tolist() == [77]

    def test_gaussian_flag_fraction(self):
        flagged = total = 0
        for seed in range(10):
            series = _outlier_series(n=500, seed=seed, noise=0.05)
            mask = preprocess.filter_night(series)
            mask = preprocess.remove_outliers_regression(series, mask,
                                                         k_sigma=3.0)
            flagged += int((mask.outlier_current | mask.outlier_voltage).sum())
            total += len(series)
        assert 0.001 <= flagged / total <= 0.015

    def test_flat_regressor_gets_the_mean_line(self):
        # polyfit's minimum-norm line on x = 3, y = 0..19 is
        # 1.583*x + 4.75 = 9.5 = mean(y): slope 0 through the mean
        series = _outlier_series(n=20, noise=0.02)
        series.g_poa[:] = 3.0
        series.i_dc[:] = np.arange(20.0)
        series.i_dc[19] = 200.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = preprocess.remove_outliers_regression(
                series, preprocess.QualityMask.clean(20), k_sigma=3.0)
        want, _ = polyfit_outliers(series.g_poa, series.i_dc, 3.0)
        assert np.flatnonzero(want).tolist() == [19]
        np.testing.assert_array_equal(mask.outlier_current, want)

    def test_stuck_temperature_sensor_masks_without_warning(self):
        series = make_series(days=3, seed=2)
        series = TelemetrySeries(series.timestamp, series.g_poa,
                                 np.full(len(series), 30.0), series.v_dc,
                                 series.i_dc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = preprocess.apply_quality_pipeline(series)
        night = series.g_poa < preprocess.DEFAULT_G_MIN
        np.testing.assert_array_equal(mask.night, night)
        np.testing.assert_array_equal(mask.clipped, clipping_per_record(
            series.timestamp, series.g_poa, series.power, night))
        keep = ~(mask.night | mask.clipped)
        for x, y, flags in ((series.g_poa, series.i_dc, mask.outlier_current),
                            (series.t_module, series.v_dc,
                             mask.outlier_voltage)):
            want, ambiguous = polyfit_outliers(x[keep], y[keep], 3.0)
            assert not ambiguous.any()
            np.testing.assert_array_equal(flags[keep], want)

    def test_insufficient_records(self):
        series = _outlier_series(n=30)
        mask = preprocess.filter_night(series, g_min=2000.0)  # flags all
        with pytest.raises(InsufficientDataError):
            preprocess.remove_outliers_regression(series, mask)


class TestPipeline:
    def test_idempotent(self):
        series = make_series(days=2, seed=5)
        mask1 = preprocess.apply_quality_pipeline(series)
        mask2 = preprocess.filter_night(series)
        mask2 = preprocess.filter_clipping(series, mask2)
        mask2 = preprocess.remove_outliers_regression(series, mask2)
        # re-apply each filter on its own output
        mask3 = preprocess.filter_night(series, mask2)
        mask3 = preprocess.filter_clipping(series, mask3)
        for name in ("night", "clipped"):
            assert np.array_equal(getattr(mask1, name), getattr(mask3, name))
        assert np.array_equal(mask1.retained, mask2.retained)

    def test_deterministic(self):
        series = make_series(days=2, seed=6)
        m1 = preprocess.apply_quality_pipeline(series)
        m2 = preprocess.apply_quality_pipeline(series)
        assert np.array_equal(m1.retained, m2.retained)

    def test_filtering_never_adds_power(self):
        series = make_series(days=2, seed=7)
        mask = preprocess.filter_night(series)
        p_night = series.power[mask.retained].sum()
        mask = preprocess.filter_clipping(series, mask)
        p_clip = series.power[mask.retained].sum()
        mask = preprocess.remove_outliers_regression(series, mask)
        p_out = series.power[mask.retained].sum()
        assert p_night >= p_clip >= p_out

    def test_retained_iff_no_flag(self):
        series = make_series(days=2, seed=8)
        mask = preprocess.apply_quality_pipeline(series)
        expect = ~(mask.night | mask.clipped | mask.outlier_current
                   | mask.outlier_voltage)
        assert np.array_equal(mask.retained, expect)
