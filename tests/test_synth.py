import numpy as np
import pytest
from scipy.integrate import quad

from pvprof import fitting, synth
from pvprof.exceptions import ConfigError
from pvprof.sdm import ArrayTopology
from conftest import CSI_PARAMS

TOPO = ArrayTopology(72, 12, 8)


class TestClearSky:
    def test_solar_noon_hits_peak(self):
        profile = synth.WeatherProfile(days=1, peak_irradiance=930.0)
        ts, g = synth.clear_sky_profile(profile)
        noon = np.flatnonzero(profile.hours_of_day() == 12.0)[0]
        assert g[noon] == 930.0

    def test_midnight_dark(self):
        profile = synth.WeatherProfile(days=1)
        _, g = synth.clear_sky_profile(profile)
        assert g[0] == 0.0

    def test_daily_energy_matches_quadrature(self):
        profile = synth.WeatherProfile(days=1, day_length_hours=12.0,
                                       peak_irradiance=1000.0)
        _, g = synth.clear_sky_profile(profile)
        sampled = g.sum() * profile.cadence_minutes / 60.0  # Wh/m^2
        exact = quad(lambda x: 1000.0 * np.sin(np.pi * x) ** 1.2,
                     0.0, 1.0)[0] * profile.day_length_hours
        assert sampled == pytest.approx(exact, rel=1e-3)


class TestClouds:
    def test_zero_depth_identity(self):
        profile = synth.WeatherProfile(days=3, cloud_days=(1,), cloud_depth=0.0)
        _, g = synth.clear_sky_profile(profile)
        g2, labels = synth.apply_clouds(g, profile)
        assert np.array_equal(g, g2)
        assert labels == ["clear", "clear", "clear"]

    def test_same_seed_reproducible(self):
        profile = synth.WeatherProfile(days=3, cloud_days=(0, 2), seed=42)
        _, g = synth.clear_sky_profile(profile)
        g1, lab1 = synth.apply_clouds(g, profile)
        g2, lab2 = synth.apply_clouds(g, profile)
        assert np.array_equal(g1, g2) and lab1 == lab2

    def test_attenuation_bounds(self):
        n_days = 215  # > 1e4 attenuated daylight samples at 15-min cadence
        profile = synth.WeatherProfile(days=n_days,
                                       cloud_days=tuple(range(n_days)),
                                       cloud_depth=0.6, seed=9)
        _, g = synth.clear_sky_profile(profile)
        g2, labels = synth.apply_clouds(g, profile)
        lit = g > 0
        assert lit.sum() > 10_000
        ratio = g2[lit] / g[lit]
        assert np.all(ratio <= 1.0 + 1e-12)
        assert np.all(ratio >= 0.4 - 1e-12)
        assert all(lab == "cloudy" for lab in labels)


class TestModuleTemperature:
    def test_dark_equals_ambient_sinusoid(self):
        profile = synth.WeatherProfile(days=1, ambient_base=18.0)
        ts = profile.timestamps()
        t = synth.module_temperature(ts, np.zeros(ts.size), profile)
        h = profile.hours_of_day()
        expect = 18.0 + 5.0 * np.cos(2.0 * np.pi * (h - 14.0) / 24.0)
        assert np.allclose(t, expect, atol=1e-12)
        # peak two hours after solar noon
        assert h[np.argmax(t)] == 14.0

    def test_noct_style_rise(self):
        profile = synth.WeatherProfile(days=1, ambient_base=20.0)
        ts = profile.timestamps()
        dark = synth.module_temperature(ts, np.zeros(ts.size), profile)
        bright = synth.module_temperature(ts, np.full(ts.size, 800.0), profile)
        assert np.allclose(bright - dark, 28.0, atol=1e-12)

    def test_full_day_pointwise_formula(self):
        profile = synth.WeatherProfile(days=2, ambient_base=23.0, seed=3)
        ts, g = synth.clear_sky_profile(profile)
        t = synth.module_temperature(ts, g, profile)
        h = profile.hours_of_day()
        expect = 23.0 + 5.0 * np.cos(2.0 * np.pi * (h - 14.0) / 24.0) \
            + g / 800.0 * 28.0
        assert np.allclose(t, expect, atol=1e-12)


class TestScenario:
    def test_constant_by_default(self):
        sc = synth.DegradationScenario.none()
        vals = sc.params_at(CSI_PARAMS, np.array([0.0, 10.0, 29.0]), 30)
        assert np.all(vals["r_s"] == CSI_PARAMS.r_s)

    def test_linear_reaches_total_change(self):
        sc = synth.DegradationScenario.linear(r_s=0.2)
        vals = sc.params_at(CSI_PARAMS, np.array([0.0, 30.0, 60.0]), 60)
        assert vals["r_s"][0] == CSI_PARAMS.r_s
        assert vals["r_s"][2] == pytest.approx(CSI_PARAMS.r_s * 1.2, rel=1e-14)

    def test_step_applies_from_day(self):
        sc = synth.DegradationScenario.step("i_ph_ref", day=15, rel_change=-0.2)
        vals = sc.params_at(CSI_PARAMS, np.array([14.9, 15.0, 20.0]), 30)
        assert vals["i_ph_ref"][0] == CSI_PARAMS.i_ph_ref
        assert vals["i_ph_ref"][1] == pytest.approx(CSI_PARAMS.i_ph_ref * 0.8)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError):
            synth.DegradationScenario({"bogus": ("linear", 0.1)})

    @pytest.mark.parametrize("spec", [
        ("quadratic", 0.1), ("linear",), ("linear", 0.1, 5), ("step", 4),
        ("step", 4, -0.1, 1), (), "linear", None, (["linear"], 0.1),
        ("linear", "x"), ("step", 4, None), ("linear", float("nan")),
        ("step", float("inf"), 0.1), ("linear", 10**400)], ids=repr)
    def test_malformed_spec_rejected_when_built(self, spec):
        # the scenario is the one reader of its specs: a wrong kind, a
        # wrong length or a value that is not a finite number fails on
        # construction
        with pytest.raises(ConfigError):
            synth.DegradationScenario({"r_s": spec})

    def test_spec_numbers_are_kept_as_floats(self):
        sc = synth.DegradationScenario({"r_s": ["linear", 1],
                                        "i_ph_ref": ("step", 20, -0.12)})
        assert sc.describe() == {"r_s": ["linear", 1.0],
                                 "i_ph_ref": ["step", 20.0, -0.12]}
        assert all(type(v) is float for spec in sc.trajectories.values()
                   for v in spec[1:])

    def test_out_of_bounds_trajectory_rejected(self):
        profile = synth.WeatherProfile(days=10)
        sc = synth.DegradationScenario.linear(r_sh_ref=-0.999)  # 400 -> 0.4 ohm
        with pytest.raises(ConfigError):
            synth.generate_dataset(CSI_PARAMS, TOPO, profile, sc)


class TestGenerateDataset:
    def test_same_seed_byte_identical(self):
        profile = synth.WeatherProfile(days=3, cloud_days=(1,), seed=21)
        s1, log1 = synth.generate_dataset(CSI_PARAMS, TOPO, profile)
        s2, log2 = synth.generate_dataset(CSI_PARAMS, TOPO, profile)
        for name in ("timestamp", "g_poa", "t_module", "v_dc", "i_dc"):
            assert np.array_equal(getattr(s1, name), getattr(s2, name))
        assert log1.to_json_dict() == log2.to_json_dict()

    def test_noiseless_data_sits_on_model_manifold(self, datasheet, topo):
        profile = synth.WeatherProfile(days=3, seed=4)
        series, _ = synth.generate_dataset(CSI_PARAMS, topo, profile,
                                           noise_v=0.0, noise_i=0.0,
                                           alpha_isc=datasheet.alpha_isc)
        daylight = series.select(series.g_poa >= 50.0)
        assert fitting.loss(CSI_PARAMS, daylight, topo, datasheet) < 1e-12

    def test_ground_truth_log_round_trips(self):
        profile = synth.WeatherProfile(days=4, cloud_days=(2,), seed=5)
        sc = synth.DegradationScenario.linear(i_ph_ref=-0.1)
        _, log = synth.generate_dataset(CSI_PARAMS, TOPO, profile, sc)
        back = synth.GroundTruthLog.from_json_dict(log.to_json_dict())
        assert back == log
        assert back.day_labels[2] == "cloudy"
        assert back.day_params[3]["i_ph_ref"] == pytest.approx(
            CSI_PARAMS.i_ph_ref * (1.0 - 0.1 * 3.0 / 4.0))

    def test_night_rows_are_zero(self):
        profile = synth.WeatherProfile(days=1, seed=6)
        series, _ = synth.generate_dataset(CSI_PARAMS, TOPO, profile)
        dark = series.g_poa == 0.0
        assert np.all(series.v_dc[dark] == 0.0)
        assert np.all(series.i_dc[dark] == 0.0)
