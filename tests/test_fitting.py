from dataclasses import replace

import numpy as np
import pytest

from pvprof import baselines, fitting, preprocess, sdm, synth
from pvprof.exceptions import (ConfigError, FitDegeneracyError,
                               InsufficientDataError, NumericalError)
from pvprof.series import TelemetrySeries
from conftest import ALPHA_ISC, CELLS, CSI_PARAMS
from oracles import five_point_gradient, scan_mpp


def make_window(days=3, seed=1, noise=0.0, params=CSI_PARAMS, topo=None,
                alpha=ALPHA_ISC, **profile_kw):
    profile = synth.WeatherProfile(days=days, seed=seed, **profile_kw)
    series, _ = synth.generate_dataset(params, topo, profile,
                                       noise_v=noise, noise_i=noise,
                                       alpha_isc=alpha)
    mask = preprocess.apply_quality_pipeline(series)
    return series, series.select(mask.retained)


@pytest.fixture(scope="module")
def noiseless(topo):
    return make_window(topo=topo)


class TestInitialGuess:
    def test_reproduces_nameplate_points(self, datasheet, topo):
        guess = fitting.initial_guess(datasheet)
        stc = sdm.OperatingConditions(1000.0, 25.0)
        op = sdm.translate_to_operating(guess, stc, CELLS, datasheet.alpha_isc)
        assert sdm.short_circuit_current(op) == pytest.approx(datasheet.i_sc,
                                                              rel=0.01)
        assert sdm.open_circuit_voltage(op) == pytest.approx(datasheet.v_oc,
                                                             rel=0.01)
        assert sdm.find_mpp(op).p == pytest.approx(
            datasheet.v_mp * datasheet.i_mp, rel=0.01)

    def test_recovers_generating_params(self, datasheet):
        guess = fitting.initial_guess(datasheet)
        assert np.all(np.abs(guess.as_array() - CSI_PARAMS.as_array())
                      / CSI_PARAMS.as_array() < 0.02)

    def test_missing_field_is_config_error(self):
        with pytest.raises(ConfigError):
            baselines.Datasheet.from_dict(
                {"v_oc": 49.0, "i_sc": 9.5, "i_mp": 8.9,
                 "beta_voc": -0.17, "cells_in_series": 72})


class TestLoss:
    def test_zero_at_generating_truth(self, noiseless, topo, datasheet):
        _, retained = noiseless
        assert fitting.loss(CSI_PARAMS, retained, topo, datasheet) < 1e-12

    def test_truth_beats_perturbation(self, noiseless, topo, datasheet):
        _, retained = noiseless
        bumped = sdm.SdmParamsRef(CSI_PARAMS.i_ph_ref * 1.05,
                                  CSI_PARAMS.i_0_ref, CSI_PARAMS.r_s,
                                  CSI_PARAMS.r_sh_ref, CSI_PARAMS.n_diode)
        assert fitting.loss(bumped, retained, topo, datasheet) \
            > fitting.loss(CSI_PARAMS, retained, topo, datasheet)

    def test_matches_grid_scan_oracle_evaluation(self, noiseless, topo,
                                                 datasheet):
        _, retained = noiseless
        bumped = sdm.SdmParamsRef(CSI_PARAMS.i_ph_ref * 1.05,
                                  CSI_PARAMS.i_0_ref, CSI_PARAMS.r_s,
                                  CSI_PARAMS.r_sh_ref, CSI_PARAMS.n_diode)
        total = 0.0
        for k in range(len(retained)):
            i_ph, i_0, r_s, r_sh, a = sdm.translate_arrays(
                bumped.i_ph_ref, bumped.i_0_ref, bumped.r_s, bumped.r_sh_ref,
                bumped.n_diode, retained.g_poa[k], retained.t_module[k],
                CELLS, ALPHA_ISC)
            v, i, _ = scan_mpp(float(i_ph), float(i_0), float(r_s),
                               float(r_sh), float(a), n_points=200_000)
            rv = (retained.v_dc[k] - v * topo.modules_per_string) \
                / (datasheet.v_mp * topo.modules_per_string)
            ri = (retained.i_dc[k] - i * topo.strings_in_parallel) \
                / (datasheet.i_mp * topo.strings_in_parallel)
            total += rv * rv + ri * ri
        oracle_loss = total / len(retained)
        lib_loss = fitting.loss(bumped, retained, topo, datasheet)
        # the scan pins vmp/imp only to its grid resolution
        assert lib_loss == pytest.approx(oracle_loss, rel=1e-3)

    def test_loss_global_minimum_sample(self, noiseless, topo, datasheet):
        _, retained = noiseless
        rng = np.random.default_rng(3)
        bounds = fitting.default_bounds(datasheet.i_sc)
        lo = np.array([bounds[n][0] for n in fitting.PARAM_ORDER])
        hi = np.array([bounds[n][1] for n in fitting.PARAM_ORDER])
        x_lo = fitting._to_transformed(lo)
        x_hi = fitting._to_transformed(hi)
        xs = rng.uniform(x_lo, x_hi, size=(100, 5))
        nat = fitting._to_natural(xs)
        nat[:, 1] = np.minimum(nat[:, 1], 0.5 * nat[:, 0])  # keep i0 < iph
        r = fitting._residuals(fitting._to_transformed(nat), retained, topo,
                               datasheet)
        values = np.sum(r * r, axis=1) / len(retained)
        truth_loss = fitting.loss(CSI_PARAMS, retained, topo, datasheet)
        assert np.all(values >= truth_loss)

    def test_jacobian_matches_five_point_stencil(self, noiseless, topo,
                                                 datasheet):
        _, retained = noiseless
        rng = np.random.default_rng(5)

        def f(x):
            return fitting._residuals(x, retained, topo, datasheet)

        for _ in range(20):
            x = fitting._to_transformed(np.array([
                rng.uniform(6.0, 12.0), 10 ** rng.uniform(-11, -9),
                rng.uniform(0.1, 0.8), 10 ** rng.uniform(2.0, 3.5),
                rng.uniform(0.9, 1.4)]))
            solved = fitting._simulate(x, retained, topo, datasheet)
            jac = fitting._jacobian(x, solved, retained, topo, datasheet)
            five = five_point_gradient(f, x)
            assert jac.shape == five.shape == (2 * len(retained), 5)
            scale = np.maximum(np.abs(five),
                               1e-3 * np.max(np.abs(five), axis=0))
            assert np.all(np.abs(jac - five) <= 1e-4 * scale)

    def test_unsolvable_record_is_not_dropped(self, noiseless, topo,
                                              datasheet):
        _, retained = noiseless
        v_dc = retained.v_dc.copy()
        v_dc[len(v_dc) // 2] = np.inf
        broken = TelemetrySeries(retained.timestamp, retained.g_poa,
                                 retained.t_module, v_dc, retained.i_dc)
        with pytest.raises(FitDegeneracyError):
            fitting.loss(CSI_PARAMS, broken, topo, datasheet)
        with pytest.raises(NumericalError):
            fitting.fit_window(broken, topo, CSI_PARAMS, datasheet)
        # a record the MPP solve cannot handle leaves no hole in the Jacobian
        g_poa = retained.g_poa.copy()
        g_poa[len(g_poa) // 2] = np.nan
        nan_g = TelemetrySeries(retained.timestamp, g_poa, retained.t_module,
                                retained.v_dc, retained.i_dc)
        x = fitting._to_transformed(CSI_PARAMS.as_array())
        with pytest.raises(NumericalError):
            fitting._jacobian(x, fitting._simulate(x, nan_g, topo, datasheet),
                              nan_g, topo, datasheet)


class TestFitWindow:
    def test_stationary_point_from_truth(self, noiseless, topo, datasheet):
        _, retained = noiseless
        result = fitting.fit_window(retained, topo, CSI_PARAMS, datasheet)
        assert result.converged
        assert result.iterations <= fitting._MAX_EVALUATIONS
        assert result.final_loss < 1e-12
        assert np.all(np.abs(result.params.as_array() - CSI_PARAMS.as_array())
                      / CSI_PARAMS.as_array() < 1e-6)

    def test_recovery_from_datasheet_guess(self, topo, datasheet):
        # degraded truth, pristine-datasheet start
        truth = sdm.SdmParamsRef(CSI_PARAMS.i_ph_ref * 0.9, CSI_PARAMS.i_0_ref,
                                 CSI_PARAMS.r_s * 1.3, CSI_PARAMS.r_sh_ref,
                                 CSI_PARAMS.n_diode)
        _, retained = make_window(params=truth, topo=topo)
        init = fitting.initial_guess(datasheet)
        result = fitting.fit_window(retained, topo, init, datasheet)
        assert result.converged
        rel = np.abs(result.params.as_array() - truth.as_array()) \
            / truth.as_array()
        assert np.all(rel < 0.01)

    def test_final_loss_matches_a_cold_solve(self, topo, datasheet):
        # the fit's solves start from the previous evaluation's; the loss of
        # the fitted parameters, solved cold, must be the loss it reports
        _, retained = make_window(noise=0.005, topo=topo, cloud_days=(1,))
        result = fitting.fit_window(retained, topo,
                                    fitting.initial_guess(datasheet),
                                    datasheet)
        assert result.converged and result.iterations > 5
        cold = fitting.loss(result.params, retained, topo, datasheet)
        assert cold == pytest.approx(result.final_loss, rel=1e-9)

    def test_evaluation_cap_gives_unconverged_fit(self, topo, datasheet,
                                                  monkeypatch):
        truth = sdm.SdmParamsRef(CSI_PARAMS.i_ph_ref * 0.9, CSI_PARAMS.i_0_ref,
                                 CSI_PARAMS.r_s * 1.3, CSI_PARAMS.r_sh_ref,
                                 CSI_PARAMS.n_diode)
        _, retained = make_window(params=truth, topo=topo)
        monkeypatch.setattr(fitting, "_MAX_EVALUATIONS", 3)
        result = fitting.fit_window(retained, topo,
                                    fitting.initial_guess(datasheet),
                                    datasheet)
        assert result.converged is False
        assert result.iterations <= 3
        for name in fitting.PARAM_ORDER:
            lo, hi = fitting.default_bounds(datasheet.i_sc)[name]
            assert lo <= getattr(result.params, name) <= hi

    def test_noisy_recovery_key_params(self, topo, datasheet):
        truth = CSI_PARAMS
        errs = []
        for seed in range(3):
            _, retained = make_window(seed=seed, noise=0.005, topo=topo,
                                      cloud_days=(1,), day_length_hours=13.0)
            result = fitting.fit_window(retained, topo,
                                        fitting.initial_guess(datasheet),
                                        datasheet)
            errs.append(np.abs(result.params.as_array() - truth.as_array())
                        / truth.as_array())
        med = np.median(np.array(errs), axis=0)
        assert med[0] < 0.05 and med[2] < 0.10 and med[4] < 0.05

    def test_too_few_records(self, topo, datasheet, noiseless):
        _, retained = noiseless
        with pytest.raises(InsufficientDataError):
            fitting.fit_window(retained.select(slice(0, 30)), topo,
                               CSI_PARAMS, datasheet)

    def test_non_finite_initial_loss(self, topo, datasheet, noiseless):
        _, retained = noiseless
        broken = TelemetrySeries(retained.timestamp, retained.g_poa,
                                 retained.t_module,
                                 np.full(len(retained), np.inf),
                                 retained.i_dc)
        with pytest.raises(NumericalError):
            fitting.fit_window(broken, topo, CSI_PARAMS, datasheet)

    def test_deterministic(self, noiseless, topo, datasheet):
        _, retained = noiseless
        init = fitting.initial_guess(datasheet)
        r1 = fitting.fit_window(retained, topo, init, datasheet)
        r2 = fitting.fit_window(retained, topo, init, datasheet)
        assert np.array_equal(r1.params.as_array(), r2.params.as_array())
        assert r1.final_loss == r2.final_loss
        assert r1.iterations == r2.iterations

    def test_params_stay_inside_bounds(self, topo, datasheet):
        _, retained = make_window(seed=9, noise=0.02, topo=topo)
        result = fitting.fit_window(retained, topo,
                                    fitting.initial_guess(datasheet),
                                    datasheet)
        for name in fitting.PARAM_ORDER:
            lo, hi = fitting.default_bounds(datasheet.i_sc)[name]
            assert lo <= getattr(result.params, name) <= hi


def spy_least_squares(monkeypatch):
    """Record each ``least_squares`` call of ``fit_window``: its residual
    and Jacobian callables and its result."""
    calls = []
    original = fitting.least_squares

    def spying(fun, x0, jac, **kwargs):
        res = original(fun, x0, jac=jac, **kwargs)
        calls.append((fun, jac, res))
        return res

    monkeypatch.setattr(fitting, "least_squares", spying)
    return calls


class TestShuntPrior:
    def test_wrong_start_is_flagged(self, topo, datasheet):
        # a decade off the 400 ohm truth: three noisy days hardly move it,
        # so the fitted shunt is the prior's and the result says so
        _, retained = make_window(noise=0.005, topo=topo)
        init = replace(CSI_PARAMS, r_sh_ref=4000.0)
        result = fitting.fit_window(retained, topo, init, datasheet)
        assert result.converged
        assert result.shunt_from_prior

    def test_data_wins_where_it_can(self, topo, datasheet):
        # a 50 ohm shunt bends the curve enough for the data to pull the fit
        # a decade off a 400 ohm start; a weight that counted the start's
        # mismatch as noise would hold it near the start
        truth = replace(CSI_PARAMS, r_sh_ref=50.0)
        _, retained = make_window(noise=0.005, params=truth, topo=topo)
        result = fitting.fit_window(retained, topo, CSI_PARAMS, datasheet)
        assert result.converged
        assert not result.shunt_from_prior
        assert result.params.r_sh_ref < 100.0

    def test_noiseless_window_fits_without_prior(self, noiseless, topo,
                                                 datasheet, monkeypatch):
        _, retained = noiseless
        calls = spy_least_squares(monkeypatch)
        result = fitting.fit_window(retained, topo, CSI_PARAMS, datasheet)
        (_, _, res), = calls
        assert res.fun.shape == (2 * len(retained),)
        assert not result.shunt_from_prior

    def test_jacobian_matches_central_differences(self, topo, datasheet,
                                                  monkeypatch):
        _, retained = make_window(noise=0.005, topo=topo)
        calls = spy_least_squares(monkeypatch)
        init = replace(CSI_PARAMS, r_sh_ref=1000.0)
        fitting.fit_window(retained, topo, init, datasheet)
        (fun, jac, res), = calls
        n = 2 * len(retained)
        assert res.fun.shape == (n + 1,)
        shunt = fitting.PARAM_ORDER.index("r_sh_ref")
        rng = np.random.default_rng(7)
        for x in (res.x, res.x + rng.uniform(-0.02, 0.02, 5)):
            analytic = jac(x)
            numeric = five_point_gradient(fun, x)
            assert analytic.shape == numeric.shape == (n + 1, 5)
            scale = np.maximum(np.abs(numeric),
                               1e-3 * np.max(np.abs(numeric), axis=0))
            assert np.all(np.abs(analytic - numeric) <= 1e-4 * scale)
            # the prior row: its weight in the log10 r_sh_ref column only
            weight = analytic[n, shunt]
            assert weight > 0.0
            assert np.array_equal(np.flatnonzero(analytic[n]), [shunt])
            assert fun(x)[n] == pytest.approx(
                weight * (x[shunt] - np.log10(1000.0)), rel=1e-12)


class TestRollingFit:
    def test_constant_truth_daily_updates(self, topo, datasheet):
        profile = synth.WeatherProfile(days=30, seed=2)
        series, _ = synth.generate_dataset(CSI_PARAMS, topo, profile,
                                           noise_v=0.0, noise_i=0.0,
                                           alpha_isc=ALPHA_ISC)
        results = fitting.rolling_fit(series, topo, np.timedelta64(3, "D"),
                                      np.timedelta64(1, "D"),
                                      fitting.initial_guess(datasheet),
                                      datasheet)
        assert len(results) == 28
        for r in results:
            assert r.converged, r.error
            assert np.all(np.abs(r.params.as_array() - CSI_PARAMS.as_array())
                          / CSI_PARAMS.as_array() < 0.01)

    def test_single_window_degenerate_schedule(self, topo, datasheet):
        profile = synth.WeatherProfile(days=4, seed=2)
        series, _ = synth.generate_dataset(CSI_PARAMS, topo, profile,
                                           alpha_isc=ALPHA_ISC)
        span = np.timedelta64(4, "D")
        results = fitting.rolling_fit(series, topo, span, span,
                                      fitting.initial_guess(datasheet),
                                      datasheet)
        assert len(results) == 1

    def test_window_failures_recorded_not_fatal(self, topo, datasheet):
        profile = synth.WeatherProfile(days=3, seed=2)
        series, _ = synth.generate_dataset(CSI_PARAMS, topo, profile,
                                           alpha_isc=ALPHA_ISC)
        # second half dark: windows there fail with a recorded error
        series.g_poa[len(series) // 2:] = 0.0
        series.v_dc[len(series) // 2:] = 0.0
        series.i_dc[len(series) // 2:] = 0.0
        results = fitting.rolling_fit(series, topo, np.timedelta64(1, "D"),
                                      np.timedelta64(1, "D"),
                                      fitting.initial_guess(datasheet),
                                      datasheet)
        assert any(r.error for r in results)

    @pytest.mark.parametrize("window, update", [
        (0, 1), (-1, 1), (1, 0), (1, -1), ("NaT", 1)])
    def test_non_positive_schedule_rejected(self, topo, datasheet,
                                            window, update):
        # a zero update period would repeat the first window forever
        series = make_window(days=2, topo=topo)[0]
        with pytest.raises(ConfigError):
            fitting.rolling_fit(series, topo, np.timedelta64(window, "D"),
                                np.timedelta64(update, "D"),
                                fitting.initial_guess(datasheet), datasheet)

    def test_warm_start_median_loss_not_worse(self, topo, datasheet):
        profile = synth.WeatherProfile(days=8, seed=12)
        series, _ = synth.generate_dataset(CSI_PARAMS, topo, profile,
                                           noise_v=0.005, noise_i=0.005,
                                           alpha_isc=ALPHA_ISC)
        results = fitting.rolling_fit(series, topo, np.timedelta64(3, "D"),
                                      np.timedelta64(1, "D"),
                                      fitting.initial_guess(datasheet),
                                      datasheet)
        losses = [r.final_loss for r in results if r.converged]
        assert np.median(losses[1:]) <= losses[0] * (1.0 + 1e-3)


class TestPredictPower:
    def test_reproduces_fitted_window(self, noiseless, topo, datasheet):
        series, retained = noiseless
        result = fitting.fit_window(retained, topo,
                                    fitting.initial_guess(datasheet),
                                    datasheet)
        p = fitting.simulate_power(result.params, series.g_poa,
                                   series.t_module, topo, alpha_isc=ALPHA_ISC)
        daylight = series.g_poa >= 50.0
        meas = series.power[daylight]
        assert np.allclose(p[daylight], meas, rtol=1e-6)

    def test_dark_weather_gives_zero_series(self, topo, datasheet,
                                            noiseless):
        _, retained = noiseless
        result = fitting.fit_window(retained, topo,
                                    fitting.initial_guess(datasheet),
                                    datasheet)
        p = fitting.simulate_power(result.params, np.zeros(10),
                                   np.full(10, 15.0), topo)
        assert np.all(p == 0.0)

    def test_against_grid_scan_oracle(self, topo):
        drifted = sdm.SdmParamsRef(9.1, 4e-10, 0.42, 350.0, 1.12)
        g = np.array([300.0, 600.0, 900.0, 750.0, 450.0])
        t = 22.0 + g / 800.0 * 28.0
        p_lib = fitting.simulate_power(drifted, g, t, topo)
        for k in range(5):
            i_ph, i_0, r_s, r_sh, a = (float(x) for x in sdm.translate_arrays(
                drifted.i_ph_ref, drifted.i_0_ref, drifted.r_s,
                drifted.r_sh_ref, drifted.n_diode, g[k], t[k], CELLS))
            _, _, p = scan_mpp(i_ph, i_0, r_s, r_sh, a, n_points=400_000)
            scaled = p * topo.modules_per_string * topo.strings_in_parallel
            assert p_lib[k] == pytest.approx(scaled, rel=1e-6)
