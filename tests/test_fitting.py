import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

import pvprof
from pvprof import baselines, fitting, preprocess, sdm, synth
from pvprof.benchmark import RunConfig
from pvprof.exceptions import (ConfigError, FitDegeneracyError,
                               InsufficientDataError, NumericalError,
                               PvprofError)
from pvprof.series import TelemetrySeries
from conftest import (ALPHA_ISC, CELLS, CSI_PARAMS, draw_csi_like,
                      start_fits_from)
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
        topology = {"cells_in_series": 72, "modules_per_string": 1,
                    "strings_in_parallel": 1}
        with pytest.raises(ConfigError, match="'v_mp'"):
            RunConfig.from_dict({"system": {
                "topology": topology,
                "datasheet": {"v_oc": 49.0, "i_sc": 9.5, "i_mp": 8.9,
                              "beta_voc": -0.17, "cells_in_series": 72}}})


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
        # one vector per sample, broadcast against the records
        r = fitting._residuals(fitting._to_transformed(nat)[:, None, :],
                               retained, topo, datasheet)
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
            jac = fitting._jacobian(solved, retained, topo,
                                    datasheet).reshape(-1, 5)
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
            fitting.fit_window(broken, topo, datasheet)
        # a record the MPP solve cannot handle leaves no hole in the
        # Jacobian: its rows stay non-finite, which fails the fit
        # (``TestFitWindows.test_non_finite_sensitivities_fail_the_window``)
        k = len(retained) // 2
        g_poa = retained.g_poa.copy()
        g_poa[k] = np.nan
        nan_g = TelemetrySeries(retained.timestamp, g_poa, retained.t_module,
                                retained.v_dc, retained.i_dc)
        x = fitting._to_transformed(CSI_PARAMS.as_array())
        jac = fitting._jacobian(fitting._simulate(x, nan_g, topo, datasheet),
                                nan_g, topo, datasheet).reshape(-1, 5)
        finite = np.isfinite(jac).all(axis=1)
        assert np.flatnonzero(~finite).tolist() == [k, len(retained) + k]


class TestFitWindow:
    def test_stationary_point_from_truth(self, noiseless, topo, datasheet,
                                         monkeypatch):
        _, retained = noiseless
        start_fits_from(monkeypatch, CSI_PARAMS)
        result = fitting.fit_window(retained, topo, datasheet)
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
        result = fitting.fit_window(retained, topo, datasheet)
        assert result.converged
        rel = np.abs(result.params.as_array() - truth.as_array()) \
            / truth.as_array()
        assert np.all(rel < 0.01)

    def test_final_loss_matches_a_cold_solve(self, topo, datasheet):
        # the fit's solves start from the previous evaluation's; the loss of
        # the fitted parameters, solved cold, must be the loss it reports
        _, retained = make_window(noise=0.005, topo=topo, cloud_days=(1,))
        result = fitting.fit_window(retained, topo, datasheet)
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
        result = fitting.fit_window(retained, topo, datasheet)
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
            result = fitting.fit_window(retained, topo, datasheet)
            errs.append(np.abs(result.params.as_array() - truth.as_array())
                        / truth.as_array())
        med = np.median(np.array(errs), axis=0)
        assert med[0] < 0.05 and med[2] < 0.10 and med[4] < 0.05

    def test_too_few_records(self, topo, datasheet, noiseless):
        _, retained = noiseless
        with pytest.raises(InsufficientDataError):
            fitting.fit_window(retained.select(slice(0, 30)), topo,
                               datasheet)

    def test_non_finite_initial_loss(self, topo, datasheet, noiseless):
        _, retained = noiseless
        broken = TelemetrySeries(retained.timestamp, retained.g_poa,
                                 retained.t_module,
                                 np.full(len(retained), np.inf),
                                 retained.i_dc)
        with pytest.raises(NumericalError):
            fitting.fit_window(broken, topo, datasheet)

    def test_deterministic(self, noiseless, topo, datasheet):
        _, retained = noiseless
        r1 = fitting.fit_window(retained, topo, datasheet)
        r2 = fitting.fit_window(retained, topo, datasheet)
        assert np.array_equal(r1.params.as_array(), r2.params.as_array())
        assert r1.final_loss == r2.final_loss
        assert r1.iterations == r2.iterations

    def test_params_stay_inside_bounds(self, topo, datasheet):
        _, retained = make_window(seed=9, noise=0.02, topo=topo)
        result = fitting.fit_window(retained, topo, datasheet)
        for name in fitting.PARAM_ORDER:
            lo, hi = fitting.default_bounds(datasheet.i_sc)[name]
            assert lo <= getattr(result.params, name) <= hi


def spy_batches(monkeypatch):
    """Record each ``fitting._Batch`` a fit builds; after the fit it holds
    the weight and centre of each window's prior row."""
    batches = []

    class Spying(fitting._Batch):
        def __init__(self, *args):
            super().__init__(*args)
            batches.append(self)

    monkeypatch.setattr(fitting, "_Batch", Spying)
    return batches


def window_problem(batch, x, accepted=None):
    """Each accepted window's problem in a batch at transformed rows ``x``
    (W, 5): its residual vector and analytic Jacobian from the solver's own
    pieces on the window's records alone, the data rows, then the prior row
    when its weight is positive; and the solver's gradient and curvature
    sums from one evaluation of every window, taken for the ``accepted``
    ones (all by default)."""
    every = np.ones(len(x), dtype=bool)
    accepted = every if accepted is None else accepted
    grad, normal = batch.normal_equations(x, batch.evaluate(x, every),
                                          accepted)
    shunt = fitting.PARAM_ORDER.index("r_sh_ref")
    ends = np.cumsum(batch.counts)
    problems = []
    for j, k in enumerate(np.flatnonzero(accepted)):
        window = batch.records.select(slice(ends[k] - batch.counts[k],
                                            ends[k]))
        one = fitting._simulate(x[k], window, batch.topo, batch.datasheet)
        res = fitting._residuals(x[k], window, batch.topo, batch.datasheet,
                                 one)
        jac = fitting._jacobian(one, window, batch.topo,
                                batch.datasheet).reshape(-1, 5)
        if batch.weight[k] > 0.0:
            res = np.append(res, batch.prior(x)[k])
            jac = np.vstack([jac, batch.weight[k] * np.eye(5)[shunt]])
        problems.append((res, jac, grad[j], normal[j]))
    return problems


class TestShuntPrior:
    def test_wrong_start_is_flagged(self, topo, datasheet, monkeypatch):
        # a decade off the 400 ohm truth: three noisy days hardly move it,
        # so the fitted shunt is the prior's and the result says so
        _, retained = make_window(noise=0.005, topo=topo)
        start_fits_from(monkeypatch, replace(CSI_PARAMS, r_sh_ref=4000.0))
        result = fitting.fit_window(retained, topo, datasheet)
        assert result.converged
        assert result.shunt_from_prior

    def test_data_wins_where_it_can(self, topo, datasheet):
        # a 50 ohm shunt bends the curve enough for the data to pull the fit
        # a decade off the datasheet's 400 ohm; a weight that counted the
        # start's mismatch as noise would hold it near the start
        truth = replace(CSI_PARAMS, r_sh_ref=50.0)
        _, retained = make_window(noise=0.005, params=truth, topo=topo)
        result = fitting.fit_window(retained, topo, datasheet)
        assert result.converged
        assert not result.shunt_from_prior
        assert result.params.r_sh_ref < 100.0

    def test_noiseless_window_fits_without_prior(self, noiseless, topo,
                                                 datasheet, monkeypatch):
        _, retained = noiseless
        batches = spy_batches(monkeypatch)
        start_fits_from(monkeypatch, CSI_PARAMS)
        result = fitting.fit_window(retained, topo, datasheet)
        batch, = batches
        x = fitting._to_transformed(result.params.as_array())
        (res, _, _, _), = window_problem(batch, x[None])
        assert batch.weight[0] == 0.0
        assert res.shape == (2 * len(retained),)
        assert not result.shunt_from_prior

    def test_jacobian_matches_central_differences(self, topo, datasheet,
                                                  monkeypatch):
        _, retained = make_window(noise=0.005, topo=topo)
        batches = spy_batches(monkeypatch)
        start_fits_from(monkeypatch, replace(CSI_PARAMS, r_sh_ref=1000.0))
        result = fitting.fit_window(retained, topo, datasheet)
        batch, = batches
        n = 2 * len(retained)
        shunt = fitting.PARAM_ORDER.index("r_sh_ref")
        rng = np.random.default_rng(7)
        x_fit = fitting._to_transformed(result.params.as_array())
        for x in (x_fit, x_fit + rng.uniform(-0.02, 0.02, 5)):
            (res, analytic, grad, normal), = window_problem(batch, x[None])
            numeric = five_point_gradient(
                lambda y: window_problem(batch, y[None])[0][0], x)
            assert res.shape == (n + 1,)
            assert analytic.shape == numeric.shape == (n + 1, 5)
            scale = np.maximum(np.abs(numeric),
                               1e-3 * np.max(np.abs(numeric), axis=0))
            assert np.all(np.abs(analytic - numeric) <= 1e-4 * scale)
            # the prior row: its weight in the log10 r_sh_ref column only,
            # centred on the start
            weight = analytic[n, shunt]
            assert weight > 0.0
            assert np.array_equal(np.flatnonzero(analytic[n]), [shunt])
            assert res[n] == pytest.approx(
                weight * (x[shunt] - np.log10(1000.0)), rel=1e-12)
            # the solver's sums are those of this residual vector, to the
            # rounding of the sums' terms
            assert np.all(np.abs(grad - analytic.T @ res)
                          <= 1e-9 * (np.abs(analytic).T @ np.abs(res)))
            np.testing.assert_allclose(normal, analytic.T @ analytic,
                                       rtol=1e-9)


# fit_windows against fit_window one window at a time: params and
# final_loss agree to this relative tolerance (they are meant to be equal)
BATCH_RTOL = 1e-12
# fit_windows' final data loss against scipy's TRF on the same problem: it
# may be worse by at most this relative amount.  A noiseless window's
# minimum is zero, and either solver may stop anywhere below
# TRF_ZERO_LOSS: at the 1e-8 gradient stop, residuals of order 1e-10 of
# the nameplate, a mean square of 1e-20, are left unresolved
TRF_LOSS_RTOL = 1e-5
TRF_ZERO_LOSS = 1e-18
# TRF's shunt flag is borderline when the data's curvature in log10
# r_sh_ref is within this factor of the flag's threshold, 2*weight²
TRF_FLAG_MARGIN = 1.25


def trf_fit(window, topo, datasheet):
    """The window fit as scipy's trust-region-reflective least squares runs
    it: the library's start (``fitting.initial_guess``), residuals,
    Jacobian, box and prior row, the solver's cost-reduction stop and
    evaluation cap, cold solves.

    Returns the clipped parameters, the final data loss and the data's
    share of the log10 r_sh_ref curvature over the flag's threshold (inf
    without a prior row).
    """
    shunt = fitting.PARAM_ORDER.index("r_sh_ref")
    bounds = fitting.default_bounds(datasheet.i_sc)
    lo = np.array([bounds[k][0] for k in fitting.PARAM_ORDER])
    hi = np.array([bounds[k][1] for k in fitting.PARAM_ORDER])
    x0 = fitting._to_transformed(np.clip(
        fitting.initial_guess(datasheet).as_array(), lo, hi))
    weight = fitting._noise_scale(fitting._residuals(
        x0, window, topo, datasheet)) / fitting._SHUNT_PRIOR_DECADES
    prior_row = weight * np.eye(5)[shunt]

    def fun(x):
        r = fitting._residuals(x, window, topo, datasheet)
        return np.append(r, weight * (x[shunt] - x0[shunt])) if weight else r

    def jac(x):
        j = fitting._jacobian(fitting._simulate(x, window, topo, datasheet),
                              window, topo, datasheet).reshape(-1, 5)
        return np.vstack([j, prior_row]) if weight else j

    res = least_squares(fun, x0, jac=jac, method="trf",
                        bounds=(fitting._to_transformed(lo),
                                fitting._to_transformed(hi)),
                        ftol=fitting._LOSS_TOLERANCE,
                        max_nfev=fitting._MAX_EVALUATIONS)
    data = res.fun[:2 * len(window)]
    variance = np.linalg.inv(res.jac.T @ res.jac)[shunt, shunt]
    margin = 1.0 / variance / (2.0 * weight * weight) if weight else np.inf
    return (np.clip(fitting._to_natural(res.x), lo, hi),
            float(data @ data) / len(window), margin)


def from_start(start, fit, *args):
    """``fit(*args)`` with every window fit in it started from ``start``."""
    with pytest.MonkeyPatch.context() as patch:
        start_fits_from(patch, start)
        return fit(*args)


def fit_from_starts(pairs, topo, datasheet):
    """``fit_windows`` on (window, start) pairs, one result per pair in
    order: the windows of each distinct start are one batch from it."""
    groups = {}
    for k, (_, start) in enumerate(pairs):
        groups.setdefault(start, []).append(k)
    results = [None] * len(pairs)
    for start, ks in groups.items():
        fits = from_start(start, fitting.fit_windows,
                          [pairs[k][0] for k in ks], topo, datasheet)
        for k, fit in zip(ks, fits):
            results[k] = fit
    return results


@pytest.fixture(scope="module")
def fixture_windows(topo, datasheet):
    """(window, start) pairs: noiseless, noisy, cloudy, a start a decade off
    in r_sh_ref, starts on a bound, a degraded truth, heavy noise, a 50 ohm
    shunt, a week, and three cloudy days around a photocurrent step, whose
    best fit lies on the r_sh_ref floor (demo 06's cloudy weather-case
    pool).  Seven windows start from the datasheet's initial guess; a fit
    takes its start from ``fitting.initial_guess``, which ``from_start``
    patches for the other four."""
    guess = fitting.initial_guess(datasheet)
    bounds = fitting.default_bounds(datasheet.i_sc)
    degraded = replace(CSI_PARAMS, i_ph_ref=CSI_PARAMS.i_ph_ref * 0.9,
                       r_s=CSI_PARAMS.r_s * 1.3)
    cases = [
        (dict(), guess),
        (dict(noise=0.005, seed=2), guess),
        (dict(noise=0.005, seed=3, cloud_days=(1,)), guess),
        (dict(noise=0.005, seed=4), replace(CSI_PARAMS, r_sh_ref=4000.0)),
        (dict(noise=0.005, seed=5),
         replace(guess, r_sh_ref=bounds["r_sh_ref"][1])),
        (dict(noise=0.005, seed=6),
         replace(guess, n_diode=bounds["n_diode"][0])),
        (dict(params=degraded, seed=7), guess),
        (dict(noise=0.02, seed=9), guess),
        (dict(noise=0.005, seed=8, params=replace(CSI_PARAMS, r_sh_ref=50.0)),
         CSI_PARAMS),
        (dict(days=7, noise=0.005, seed=10, cloud_days=(2, 4)), guess),
    ]
    windows = [(make_window(topo=topo, **kw)[1], start)
               for kw, start in cases]
    stepped, _ = synth.generate_dataset(
        CSI_PARAMS, topo,
        synth.WeatherProfile(days=30, seed=314,
                             cloud_days=(3, 8, 14, 15, 22, 27),
                             cloud_depth=0.55),
        synth.DegradationScenario.step("i_ph_ref", 20, -0.12),
        alpha_isc=ALPHA_ISC)
    pool = stepped.days()[[3, 14, 22]]
    retained = preprocess.apply_quality_pipeline(stepped).retained
    return windows + [(stepped.select(
        retained & np.isin(stepped.day_index(), pool)), guess)]


@pytest.fixture(scope="module")
def batch_results(fixture_windows, topo, datasheet):
    return fit_from_starts(fixture_windows, topo, datasheet)


def assert_same_fit(got, want):
    assert got.converged == want.converged
    assert got.iterations == want.iterations
    assert got.shunt_from_prior == want.shunt_from_prior
    np.testing.assert_allclose(got.params.as_array(), want.params.as_array(),
                               rtol=BATCH_RTOL, atol=0.0)
    assert got.final_loss == pytest.approx(want.final_loss, rel=BATCH_RTOL,
                                           abs=0.0)


class TestFitWindows:
    def test_batch_equals_one_window_at_a_time(self, fixture_windows,
                                               batch_results, topo,
                                               datasheet):
        reverse = fit_from_starts(fixture_windows[::-1], topo,
                                  datasheet)[::-1]
        for (window, start), batched, reversed_ in zip(
                fixture_windows, batch_results, reverse):
            alone = from_start(start, fitting.fit_window, window, topo,
                               datasheet)
            assert_same_fit(batched, alone)
            assert_same_fit(reversed_, alone)

    def test_lowest_failing_window_raises(self, fixture_windows, topo,
                                          datasheet):
        windows = [w for w, _ in fixture_windows[:5]]
        w = windows[2]
        windows[2] = TelemetrySeries(w.timestamp, w.g_poa, w.t_module,
                                     np.full(len(w), np.inf), w.i_dc)
        with pytest.raises(NumericalError, match="initial guess"):
            fitting.fit_windows(windows, topo, datasheet)
        # a later window too short to fit does not change the error, an
        # earlier one does
        short = windows[0].select(slice(0, 30))
        with pytest.raises(NumericalError, match="initial guess"):
            fitting.fit_windows(windows[:4] + [short], topo, datasheet)
        with pytest.raises(InsufficientDataError):
            fitting.fit_windows([short] + windows[1:], topo, datasheet)

    def test_non_finite_sensitivities_fail_the_window(
            self, fixture_windows, topo, datasheet, monkeypatch):
        # the one record at an irradiance no other window has gets
        # non-finite sensitivities: its window fails, the batch raises
        (w0, _), (w1, _) = fixture_windows[1:3]
        g_poa = w1.g_poa.copy()
        g_poa[10] = 777.25
        marked = TelemetrySeries(w1.timestamp, g_poa, w1.t_module, w1.v_dc,
                                 w1.i_dc)
        original = sdm.mpp_sensitivities_arrays

        def poisoned(*args):
            dv, di = original(*args)
            g_poa = args[6]
            dv[g_poa == 777.25] = np.nan
            return dv, di

        monkeypatch.setattr(sdm, "mpp_sensitivities_arrays", poisoned)
        assert fitting.fit_windows([w0], topo, datasheet)[0].converged
        with pytest.raises(NumericalError, match="sensitivities"):
            fitting.fit_windows([w0, marked], topo, datasheet)
        # next to a window that fails at its start, the lower index wins
        broken = TelemetrySeries(w0.timestamp, w0.g_poa, w0.t_module,
                                 np.full(len(w0), np.inf), w0.i_dc)
        with pytest.raises(NumericalError, match="sensitivities"):
            fitting.fit_windows([marked, broken], topo, datasheet)
        with pytest.raises(NumericalError, match="initial guess"):
            fitting.fit_windows([broken, marked], topo, datasheet)

    def test_capped_window_leaves_the_others_converged(
            self, noiseless, topo, datasheet, monkeypatch):
        truth = replace(CSI_PARAMS, i_ph_ref=CSI_PARAMS.i_ph_ref * 0.9,
                        r_s=CSI_PARAMS.r_s * 1.3)
        _, degraded = make_window(params=truth, topo=topo)
        _, retained = noiseless
        monkeypatch.setattr(fitting, "_MAX_EVALUATIONS", 3)
        # from the truth of the noiseless window, which stops at once
        start_fits_from(monkeypatch, CSI_PARAMS)
        windows = [retained, degraded, retained]
        results = fitting.fit_windows(windows, topo, datasheet)
        assert [r.converged for r in results] == [True, False, True]
        assert results[1].iterations <= 3
        for window, result in zip(windows, results):
            assert_same_fit(result, fitting.fit_window(window, topo,
                                                       datasheet))

    def test_normal_equations_are_each_window_s_own(self, fixture_windows,
                                                    topo, datasheet):
        # a 3-day, a 7-day and a three-cloudy-day window, the middle one
        # solved but rejected: each accepted window's sums are Jᵀr and JᵀJ
        # of its own residual vector, prior row included
        windows = [fixture_windows[k][0] for k in (1, 9, 10)]
        assert len({len(w) for w in windows}) == 3
        batch = fitting._Batch(windows, topo, datasheet)
        x = fitting._to_transformed(CSI_PARAMS.as_array()) \
            + np.random.default_rng(5).uniform(-0.02, 0.02, (3, 5))
        batch.weight[:] = [0.004, 0.002, 0.003]
        batch.centre = np.log10(1000.0)
        accepted = np.array([True, False, True])
        problems = window_problem(batch, x, accepted=accepted)
        assert len(problems) == 2
        for (res, jac, grad, normal), k in zip(problems, (0, 2)):
            assert res.shape == jac.shape[:1] == (2 * len(windows[k]) + 1,)
            np.testing.assert_allclose(grad, jac.T @ res, rtol=1e-12)
            np.testing.assert_allclose(normal, jac.T @ jac, rtol=1e-12)

    @given(data=st.data())
    @settings(max_examples=10)
    def test_any_order_gives_each_window_its_fit(self, fixture_windows,
                                                 batch_results, topo,
                                                 datasheet, data):
        # a window's sums do not depend on where its rows sit in the stack
        order = data.draw(st.permutations(range(len(fixture_windows))))
        results = fit_from_starts([fixture_windows[k] for k in order], topo,
                                  datasheet)
        for k, result in zip(order, results):
            assert result == batch_results[k]

    def test_empty_batch(self, topo, datasheet):
        assert fitting.fit_windows([], topo, datasheet) == []

    def test_random_truths_over_the_csi_range(self, topo, datasheet):
        # 30 random c-Si truths, one noisy 3-day window each, fitted as one
        # batch from the datasheet's start: every window converges well
        # inside the evaluation cap, to a loss no higher than its truth's
        truths = draw_csi_like(np.random.default_rng(2026), 30)
        windows = [make_window(seed=k, noise=0.005, params=truth,
                               topo=topo)[1]
                   for k, truth in enumerate(truths)]
        results = fitting.fit_windows(windows, topo, datasheet)
        for truth, window, result in zip(truths, windows, results):
            assert result.converged
            assert result.iterations <= 40
            assert result.final_loss <= fitting.loss(truth, window, topo,
                                                     datasheet)


    @given(unit=st.tuples(*[st.floats(0.0, 1.0)] * 5))
    def test_any_truth_in_the_box_fits_inside_it_or_raises_typed(
            self, topo, datasheet, unit):
        # a truth anywhere in the fitting box, not only the c-Si range, on a
        # noisy 3-day window: the fit returns a result inside the box with
        # a finite loss, or raises a PvprofError
        bounds = fitting.default_bounds(datasheet.i_sc)
        truth = {}
        for name, u in zip(fitting.PARAM_ORDER, unit):
            lo, hi = bounds[name]
            if name in fitting._LOG_PARAMS:
                value = lo * (hi / lo) ** u
            else:
                value = lo + u * (hi - lo)
            truth[name] = min(max(value, lo), hi)
        window = make_window(seed=7, noise=0.005,
                             params=sdm.SdmParamsRef(**truth), topo=topo)[1]
        try:
            result, = fitting.fit_windows([window], topo, datasheet)
        except PvprofError:
            return
        assert isinstance(result, fitting.FitWindowResult)
        assert np.isfinite(result.final_loss)
        for name in fitting.PARAM_ORDER:
            lo, hi = bounds[name]
            assert lo <= getattr(result.params, name) <= hi


class TestAgainstTrf:
    """``fit_windows`` against scipy's trust-region-reflective solver, which
    the window fit used before, on the same problems."""

    @pytest.fixture(scope="class")
    def trf_results(self, fixture_windows, topo, datasheet):
        return [from_start(start, trf_fit, window, topo, datasheet)
                for window, start in fixture_windows]

    def test_loss_no_worse_than_trf(self, batch_results, trf_results):
        for result, (_, trf_loss, _) in zip(batch_results, trf_results):
            assert result.converged
            assert result.final_loss <= max(trf_loss * (1.0 + TRF_LOSS_RTOL),
                                            TRF_ZERO_LOSS)

    def test_params_inside_bounds(self, batch_results, datasheet):
        bounds = fitting.default_bounds(datasheet.i_sc)
        for result in batch_results:
            for name in fitting.PARAM_ORDER:
                lo, hi = bounds[name]
                assert lo <= getattr(result.params, name) <= hi

    def test_shunt_flag_agrees_where_not_borderline(self, batch_results,
                                                    trf_results):
        decided = 0
        for result, (_, _, margin) in zip(batch_results, trf_results):
            if 1.0 / TRF_FLAG_MARGIN < margin < TRF_FLAG_MARGIN:
                continue
            decided += 1
            assert result.shunt_from_prior == (margin < 1.0)
        assert decided >= 6


def _rolling_fit(series, topo, datasheet, window_length, update_period):
    """``rolling_fit`` at ``update_schedule``'s ends, as ``pvprof fit`` runs
    it."""
    ends = fitting.update_schedule(series, window_length, update_period)
    return fitting.rolling_fit(series, topo, window_length, ends, datasheet)


class TestRollingFit:
    def test_constant_truth_daily_updates(self, topo, datasheet):
        profile = synth.WeatherProfile(days=30, seed=2)
        series, _ = synth.generate_dataset(CSI_PARAMS, topo, profile,
                                           noise_v=0.0, noise_i=0.0,
                                           alpha_isc=ALPHA_ISC)
        results = _rolling_fit(series, topo, datasheet,
                               np.timedelta64(3, "D"), np.timedelta64(1, "D"))
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
        results = _rolling_fit(series, topo, datasheet, span, span)
        assert len(results) == 1

    def test_window_failures_recorded_not_fatal(self, topo, datasheet):
        profile = synth.WeatherProfile(days=3, seed=2)
        series, _ = synth.generate_dataset(CSI_PARAMS, topo, profile,
                                           alpha_isc=ALPHA_ISC)
        # second half dark: windows there fail with a recorded error
        series.g_poa[len(series) // 2:] = 0.0
        series.v_dc[len(series) // 2:] = 0.0
        series.i_dc[len(series) // 2:] = 0.0
        results = _rolling_fit(series, topo, datasheet,
                               np.timedelta64(1, "D"), np.timedelta64(1, "D"))
        assert any(r.error for r in results)

    @pytest.mark.parametrize("window, update", [
        (0, 1), (-1, 1), (1, 0), (1, -1), ("NaT", 1)])
    def test_non_positive_schedule_rejected(self, topo, datasheet,
                                            window, update):
        # a zero update period would repeat the first window forever
        series = make_window(days=2, topo=topo)[0]
        with pytest.raises(ConfigError):
            fitting.update_schedule(series, np.timedelta64(window, "D"),
                                    np.timedelta64(update, "D"))

    def test_each_window_fits_as_it_does_alone(self, topo, datasheet):
        # every window starts from the datasheet and a batch does not move
        # a window's result: each of the run's fits has the bits of its
        # window fitted alone
        profile = synth.WeatherProfile(days=8, seed=12)
        series, _ = synth.generate_dataset(CSI_PARAMS, topo, profile,
                                           noise_v=0.005, noise_i=0.005,
                                           alpha_isc=ALPHA_ISC)
        results = _rolling_fit(series, topo, datasheet,
                               np.timedelta64(3, "D"), np.timedelta64(1, "D"))
        assert len(results) == 6
        for r in results:
            alone = fitting.fit_window(
                preprocess.training_window(series, r.window_end,
                                           np.timedelta64(3, "D"),
                                           preprocess.PreprocessConfig()),
                topo, datasheet)
            assert r.converged
            assert r.params == alone.params
            assert (r.final_loss, r.iterations) == (alone.final_loss,
                                                    alone.iterations)


class TestPredictPower:
    def test_reproduces_fitted_window(self, noiseless, topo, datasheet):
        series, retained = noiseless
        result = fitting.fit_window(retained, topo, datasheet)
        p = fitting.simulate_power(result.params, series.g_poa,
                                   series.t_module, topo, alpha_isc=ALPHA_ISC)
        daylight = series.g_poa >= 50.0
        meas = series.power[daylight]
        assert np.allclose(p[daylight], meas, rtol=1e-6)

    def test_dark_weather_gives_zero_series(self, topo, datasheet,
                                            noiseless):
        _, retained = noiseless
        result = fitting.fit_window(retained, topo, datasheet)
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


def test_import_leaves_scipy_optimize_out():
    # the window fit has its own solver, so neither the package nor its
    # command line pays for importing scipy.optimize; the kernel-ridge
    # regressor (scipy.linalg) and the synthetic clouds (scipy.special)
    # import theirs when they run, and the physical constants are
    # literals, so a command that runs neither pays for none
    src = os.path.dirname(os.path.dirname(os.path.abspath(pvprof.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, pvprof, pvprof.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.linalg', "
            "'scipy.spatial', 'scipy.special', 'scipy.constants') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
