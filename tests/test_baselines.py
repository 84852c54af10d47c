import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.spatial.distance
from hypothesis import given, settings
from hypothesis import strategies as st

from pvprof import analysis, baselines, fitting, sdm
from pvprof.exceptions import (ConfigError, DataError, ExtractionError,
                               InsufficientDataError, TrainingError)
from conftest import ALPHA_ISC, CELLS, CSI_PARAMS, count_calls, draw_csi_like

H24 = np.timedelta64(24, "h")


def _axis(start, n, minutes=15):
    return np.datetime64(start, "s") + np.arange(n) * np.timedelta64(
        minutes * 60, "s")


class TestSmartPersistence:
    def test_equal_irradiance_repeats_history(self):
        ts = _axis("2024-06-01T00:00", 192)
        g = np.tile(np.concatenate([np.zeros(24), 800 * np.sin(
            np.linspace(0, np.pi, 48)), np.zeros(24)]), 2)
        p = 30.0 * g
        pred = baselines.smart_persistence((ts, p), (ts, g),
                                           (ts[96:] + H24, g[96:]))
        assert np.allclose(pred, p[96:], atol=1e-9)

    def test_dark_future_is_zero(self):
        ts = _axis("2024-06-01T12:00", 4)
        pred = baselines.smart_persistence(
            (ts, [100.0] * 4), (ts, [500.0] * 4),
            (ts + H24, [0.0] * 4))
        assert np.all(pred == 0.0)

    def test_direct_ratio_arithmetic(self):
        ts = _axis("2024-06-01T12:00", 1)
        pred = baselines.smart_persistence(
            (ts, [100_000.0]), (ts, [500.0]), (ts + H24, [750.0]))
        assert pred[0] == pytest.approx(150_000.0, rel=1e-14)

    def test_dark_anchor_falls_back_to_earlier_sample(self):
        ts = _axis("2024-06-01T12:00", 3)
        p = np.array([80_000.0, 70_000.0, 100.0])
        g = np.array([400.0, 350.0, 10.0])     # last anchor below g_min
        future = (ts[2:] + H24, np.array([700.0]))
        pred = baselines.smart_persistence((ts, p), (ts, g), future)
        assert pred[0] == pytest.approx(70_000.0 * 700.0 / 350.0)

    def test_dark_anchor_without_fallback_is_zero(self):
        ts = _axis("2024-06-01T00:00", 2)
        pred = baselines.smart_persistence(
            (ts, [0.0, 0.0]), (ts, [0.0, 5.0]),
            (ts + H24, [600.0, 600.0]))
        assert np.all(pred == 0.0)

    def test_misaligned_histories_rejected(self):
        ts = _axis("2024-06-01T00:00", 4)
        with pytest.raises(DataError):
            baselines.smart_persistence((ts, np.ones(4)),
                                        (ts + np.timedelta64(60, "s"),
                                         np.ones(4)),
                                        (ts + H24, np.ones(4)))

    def test_missing_history_rejected(self):
        ts = _axis("2024-06-01T00:00", 4)
        with pytest.raises(DataError):
            baselines.smart_persistence((ts, np.ones(4)), (ts, np.ones(4)),
                                        (ts + np.timedelta64(36, "h"),
                                         np.ones(4)))


class TestNaivePersistence:
    def test_constant_history(self):
        ts = _axis("2024-06-01T00:00", 96)
        pred = baselines.naive_persistence((ts, np.full(96, 5.0)),
                                           ts[48:] + H24)
        assert np.all(pred == 5.0)

    def test_zero_horizon_is_identity(self):
        ts = _axis("2024-06-01T00:00", 8)
        p = np.arange(8.0)
        pred = baselines.naive_persistence((ts, p), ts,
                                           horizon=np.timedelta64(0, "s"))
        assert np.array_equal(pred, p)

    def test_day_shift_error_matches_direct_computation(self):
        ts = _axis("2024-06-01T00:00", 192)
        h = np.arange(192) % 96 * 0.25
        p = np.maximum(0.0, np.sin(np.pi * (h - 6.0) / 12.0)) * 50_000.0
        p[96:] *= 0.8  # next day scaled
        pred = baselines.naive_persistence((ts, p), ts[96:])
        nominal = 50_000.0
        direct = np.mean(np.abs(p[:96] - p[96:])) / nominal
        lib = np.mean(np.abs(pred - p[96:])) / nominal
        assert lib == pytest.approx(direct, rel=1e-12)


# the module of the demos and the benchmark workloads
DEMO_DATASHEET = baselines.Datasheet(
    v_oc=49.173233960313716, i_sc=9.491694765844741, v_mp=40.03260387410554,
    i_mp=8.906280334902181, alpha_isc=0.004, beta_voc=-0.17644040663146326,
    cells_in_series=72)


class TestDatasheetExtraction:
    def test_round_trip_canonical(self, datasheet):
        rec = baselines.fit_desoto_from_datasheet(datasheet)
        rel = np.abs(rec.as_array() - CSI_PARAMS.as_array()) \
            / CSI_PARAMS.as_array()
        assert np.all(rel < 0.005)

    def test_nameplate_postconditions(self, datasheet):
        rec = baselines.fit_desoto_from_datasheet(datasheet)
        op = sdm.translate_to_operating(
            rec, sdm.OperatingConditions(1000.0, 25.0), CELLS,
            datasheet.alpha_isc)
        assert abs(sdm.short_circuit_current(op) - datasheet.i_sc) \
            / datasheet.i_sc < 1e-3
        assert abs(sdm.open_circuit_voltage(op) - datasheet.v_oc) \
            / datasheet.v_oc < 1e-3
        assert abs(sdm.find_mpp(op).p - datasheet.v_mp * datasheet.i_mp) \
            / (datasheet.v_mp * datasheet.i_mp) < 1e-3

    def test_infeasible_datasheet_rejected(self):
        with pytest.raises(ConfigError, match="v_mp < v_oc"):
            baselines.Datasheet(v_oc=40.0, i_sc=9.0, v_mp=45.0, i_mp=8.5,
                                alpha_isc=0.0, beta_voc=-0.15,
                                cells_in_series=72)

    @pytest.mark.parametrize("ds", [
        baselines.Datasheet(v_oc=49.0, i_sc=9.5, v_mp=48.5, i_mp=9.45,
                            alpha_isc=0.0, beta_voc=-0.15, cells_in_series=72),
        replace(DEMO_DATASHEET, beta_voc=0.5),
        replace(DEMO_DATASHEET, beta_voc=-5.0)],
        ids=["fill-factor", "demo-beta_voc-0.5", "demo-beta_voc-5.0"])
    def test_unreachable_fill_factor_raises(self, monkeypatch, ds):
        # an infeasible datasheet fails in milliseconds: two starts, not a
        # search that takes seconds (thousands of residual calls) to give up
        calls = count_calls(monkeypatch, baselines, "_extraction_residuals")
        with pytest.raises(ExtractionError):
            baselines.fit_desoto_from_datasheet(ds)
        assert len(calls) <= 300

    @settings(max_examples=120)
    @given(i_ph=st.floats(5.0, 12.0), log_i0=st.floats(-11.0, -9.0),
           r_s=st.floats(0.1, 0.8),
           log_rsh=st.floats(2.0, math.log10(5000.0)),
           n=st.floats(0.9, 2.0), cells=st.sampled_from([36, 60, 72, 96, 144]),
           alpha_isc=st.floats(0.0, 0.006))
    def test_extraction_converges_over_the_wide_box(self, i_ph, log_i0, r_s,
                                                    log_rsh, n, cells,
                                                    alpha_isc):
        # the draw_csi_like ranges, widened in ideality, cell count and
        # current coefficient: every datasheet is extracted by the two
        # starts, passes the nameplate post-check and recovers its truth
        truth = sdm.SdmParamsRef(i_ph, 10.0 ** log_i0, r_s, 10.0 ** log_rsh, n)
        ds = baselines.synthesize_datasheet(truth, cells, alpha_isc=alpha_isc)
        rec = baselines.fit_desoto_from_datasheet(ds)
        op = sdm.translate_to_operating(
            rec, sdm.OperatingConditions(1000.0, 25.0), cells, alpha_isc)
        assert abs(sdm.short_circuit_current(op) - ds.i_sc) / ds.i_sc < 1e-3
        assert abs(sdm.open_circuit_voltage(op) - ds.v_oc) / ds.v_oc < 1e-3
        assert abs(sdm.find_mpp(op).p - ds.v_mp * ds.i_mp) \
            / (ds.v_mp * ds.i_mp) < 1e-3
        np.testing.assert_allclose(rec.as_array(), truth.as_array(),
                                   rtol=1e-6)

    def test_small_shunt_start_reaches_a_stalled_datasheet(self, monkeypatch):
        # from a shunt of 100 Vmp/Imp Newton runs the shunt down to about
        # 10 ohm and stalls at a residual of 2.2; the start at 10 Vmp/Imp
        # converges.  One of 49 such modules in 20,000 wide-box draws.
        truth = sdm.SdmParamsRef(9.348360853685332, 1.7846814552391095e-11,
                                 0.1815881233005241, 961.0170996225568,
                                 1.5130437199474627)
        ds = baselines.synthesize_datasheet(truth, 144,
                                            alpha_isc=0.005074114093791706)
        starts = count_calls(monkeypatch, baselines, "_damped_newton")
        rec = baselines.fit_desoto_from_datasheet(ds)
        assert len(starts) == 2
        np.testing.assert_allclose(rec.as_array(), truth.as_array(),
                                   rtol=1e-9)

    def test_extracted_once_per_datasheet_instance(self, monkeypatch,
                                                   datasheet, topo):
        original = baselines.fit_desoto_from_datasheet
        calls = count_calls(monkeypatch, baselines,
                            "fit_desoto_from_datasheet")
        ds = replace(datasheet)   # equal values, its own instance
        first = ds.desoto_params
        assert fitting.initial_guess(ds) is first
        assert analysis.train_model("nominal", [None], topo=topo,
                                    datasheet=ds)[0] is first
        assert len(calls) == 1
        # no cache keyed on values: an equal datasheet extracts again
        assert replace(ds).desoto_params == first
        assert len(calls) == 2
        assert first == original(datasheet)

    def test_failed_extraction_raises_on_every_read(self, monkeypatch):
        ds = baselines.Datasheet(v_oc=49.0, i_sc=9.5, v_mp=48.5, i_mp=9.45,
                                 alpha_isc=0.0, beta_voc=-0.15,
                                 cells_in_series=72)
        calls = count_calls(monkeypatch, baselines,
                            "fit_desoto_from_datasheet")
        for _ in range(2):
            with pytest.raises(ExtractionError):
                ds.desoto_params
        # the dynamic fit still starts from its heuristic seeds
        assert fitting.initial_guess(ds).n_diode == 1.1
        assert len(calls) == 1

    def test_seed_from_beta_voc_converges_in_few_calls(self, monkeypatch):
        # Newton starts from the ideality the Voc temperature coefficient
        # implies: each of 60 random c-Si datasheets converges and passes
        # the post-check, in few batched residual calls
        sheets = [baselines.synthesize_datasheet(p, CELLS, alpha_isc=ALPHA_ISC)
                  for p in draw_csi_like(np.random.default_rng(2026), 60)]
        calls = count_calls(monkeypatch, baselines, "_extraction_residuals")
        counts = []
        for ds in sheets:
            del calls[:]
            baselines.fit_desoto_from_datasheet(ds)
            counts.append(len(calls))
        assert np.median(counts) <= 9
        del calls[:]
        baselines.fit_desoto_from_datasheet(DEMO_DATASHEET)
        assert len(calls) <= 10

    @pytest.mark.parametrize("beta_voc, n0", [
        (math.nan, 0.5), (math.inf, 0.5), (0.5, 0.5), (-5.0, 3.0)])
    def test_seed_outside_the_physical_range_is_clipped(self, beta_voc, n0):
        if not math.isfinite(beta_voc):
            # refused as the configuration it is, before any extraction
            with pytest.raises(ConfigError, match="datasheet.beta_voc"):
                replace(DEMO_DATASHEET, beta_voc=beta_voc)
            return
        ds = replace(DEMO_DATASHEET, beta_voc=beta_voc)
        assert baselines._ideality_from_beta_voc(ds) == n0

    def test_round_trip_property_quick(self):
        rng = np.random.default_rng(17)
        for params in draw_csi_like(rng, 10):
            ds = baselines.synthesize_datasheet(params, CELLS,
                                                alpha_isc=0.002)
            rec = baselines.fit_desoto_from_datasheet(ds)
            rel = np.abs(rec.as_array() - params.as_array()) \
                / params.as_array()
            assert np.all(rel < 0.005)


def _scalar_extraction_residuals(z, ds):
    # the five conditions one scalar formula at a time, each Voc solved on
    # its own; off-domain rows are not evaluated
    i_l, ln_i0, r_s, ln_rsh, a = z
    i_0, r_sh = math.exp(ln_i0), math.exp(ln_rsh)
    isc, voc, vmp, imp = ds.i_sc, ds.v_oc, ds.v_mp, ds.i_mp

    def voc_at(t_cell):
        n = a / (ds.cells_in_series * baselines._VTH_REF)
        i_ph, i_0t, _, r_sht, a_t = sdm.translate_arrays(
            i_l, i_0, r_s, r_sh, n, sdm.G_REF, t_cell, ds.cells_in_series,
            alpha_isc=ds.alpha_isc)
        return float(sdm.open_circuit_diode_voltage_arrays(i_ph, i_0t, r_sht,
                                                           a_t))

    vd = vmp + imp * r_s
    e = math.exp(min(vd / a, 600.0))
    di_dv = -(i_0 * e / a + 1.0 / r_sh) / (1.0 + i_0 * e * r_s / a
                                            + r_s / r_sh)
    return np.array([
        (i_l - i_0 * math.expm1(isc * r_s / a) - isc * r_s / r_sh - isc)
        / isc,
        (i_l - i_0 * math.expm1(voc / a) - voc / r_sh) / isc,
        (i_l - i_0 * (e - 1.0) - vd / r_sh - imp) / isc,
        (imp + vmp * di_dv) / isc,
        ((voc_at(35.0) - voc_at(25.0)) / 10.0 - ds.beta_voc)
        / max(abs(ds.beta_voc), 1e-3)])


class TestExtractionResiduals:
    def _points(self, datasheet):
        p = datasheet.desoto_params
        a = p.n_diode * CELLS * baselines._VTH_REF
        z = np.array([p.i_ph_ref, math.log(p.i_0_ref), p.r_s,
                      math.log(p.r_sh_ref), a])
        return np.array([z, z * [1.01, 1.0, 0.9, 1.0, 1.0],
                         z + [0.0, 0.5, 0.0, -1.0, 0.05],
                         z * [0.98, 1.02, 1.2, 0.95, 1.03]])

    def test_batch_matches_scalar_formula_row_by_row(self, datasheet):
        z = self._points(datasheet)
        batched = baselines._extraction_residuals(z, datasheet)
        assert batched.shape == (len(z), 5)
        for row, zk in zip(batched, z):
            np.testing.assert_allclose(
                row, _scalar_extraction_residuals(zk, datasheet),
                rtol=1e-9, atol=1e-12)

    def test_off_domain_row_is_inf_and_leaves_the_others(self, datasheet):
        z = self._points(datasheet)
        off = z[1] + [0.0, 30.0, 0.0, 0.0, 0.0]   # ln i_0 > 0
        mixed = baselines._extraction_residuals(
            np.vstack([z[:2], off, z[2:]]), datasheet)
        assert np.all(mixed[2] == np.inf)
        np.testing.assert_array_equal(
            np.delete(mixed, 2, axis=0),
            baselines._extraction_residuals(z, datasheet))

    def test_non_finite_row_is_inf_in_that_row_only(self, datasheet):
        z = self._points(datasheet)
        overflow = z[0] * [1.0, 1.0, 1e6, 1.0, 1e-4]  # exp(isc*r_s/a) = inf
        rows = baselines._extraction_residuals(np.vstack([z[0], overflow]),
                                               datasheet)
        assert np.all(rows[1] == np.inf)
        assert np.all(np.isfinite(rows[0]))


def _training_data(n=60, seed=0):
    rng = np.random.default_rng(seed)
    ts = _axis("2024-06-01T08:00", n, minutes=5)
    g = rng.uniform(100.0, 1000.0, n)
    t = 20.0 + g / 800.0 * 28.0 + rng.uniform(-3, 3, n)
    X = baselines.feature_matrix(ts, g, t)
    return X


class TestRegressors:
    def test_affine_target_reproduced(self):
        X = _training_data()
        y = 30.0 * X[:, 0] + 5.0 * X[:, 1] + 123.0
        model = baselines.train_regressor("linear", X, y, {"lam": 1e-12})
        pred = baselines.predict_regressor(model, X)
        assert np.allclose(pred, y, rtol=1e-8)

    def test_kernel_ridge_matches_dense_solve(self):
        X = _training_data(n=50)
        rng = np.random.default_rng(2)
        y = 25.0 * X[:, 0] + 2000.0 * np.sin(X[:, 2] * 6.0) \
            + rng.normal(0, 50.0, 50)
        lam, gamma = 1e-3, 0.7
        model = baselines.train_regressor("kernel_ridge", X, y,
                                          {"lam": lam, "gamma": gamma})
        pred = baselines.predict_regressor(model, X)
        # independent dense solve on the standardized features
        mu, sd = X.mean(0), X.std(0)
        Z = (X - mu) / sd
        sq = ((Z[:, None, :] - Z[None, :, :]) ** 2).sum(-1)
        K = np.exp(-gamma * sq)
        alpha = scipy.linalg.solve(K + lam * np.eye(50), y - y.mean())
        expect = np.maximum(K @ alpha + y.mean(), 0.0)
        assert np.allclose(pred, expect, rtol=1e-8, atol=1e-8)

    def test_constant_feature_rejected(self):
        X = _training_data()
        X[:, 1] = 25.0
        with pytest.raises(TrainingError):
            baselines.train_regressor("linear", X, X[:, 0] * 2.0)

    def test_too_few_pairs_rejected(self):
        X = _training_data(n=10)
        with pytest.raises(InsufficientDataError):
            baselines.train_regressor("linear", X, X[:, 0])

    @pytest.mark.parametrize("family", ["linear", "kernel_ridge"])
    @pytest.mark.parametrize("column", ["temperature", "target"])
    def test_non_finite_training_data_rejected(self, family, column):
        X = _training_data(n=40)
        y = 30.0 * X[:, 0]
        if column == "temperature":
            X[7, 1] = np.nan
        else:
            y[7] = np.inf
        with pytest.raises(DataError):
            baselines.train_regressor(family, X, y)

    @pytest.mark.parametrize("family, hp", [
        ("linear", {"lam": -1.0}), ("linear", {"lam": float("nan")}),
        ("kernel_ridge", {"lam": -1.0, "gamma": 1.0}),
        ("kernel_ridge", {"lam": float("nan"), "gamma": 1.0}),
        ("kernel_ridge", {"lam": float("inf"), "gamma": 1.0}),
        ("kernel_ridge", {"lam": 1e-3, "gamma": -50.0}),
        ("kernel_ridge", {"lam": 1e-3, "gamma": 0.0}),
        ("kernel_ridge", {"lam": 1e-3, "gamma": float("nan")})])
    def test_invalid_hyperparameters_rejected(self, family, hp):
        X = _training_data()
        with pytest.raises(ConfigError):
            baselines.train_regressor(family, X, 30.0 * X[:, 0], hp)

    def test_negative_predictions_clamped(self):
        X = _training_data()
        y = 30.0 * X[:, 0] - 25_000.0  # strongly negative at low irradiance
        model = baselines.train_regressor("linear", X, y, {"lam": 1e-9})
        Xq = X.copy()
        Xq[:, 0] = 1.0
        assert np.all(baselines.predict_regressor(model, Xq) >= 0.0)

    def test_affine_reencoding_invariance(self):
        X = _training_data(seed=5)
        rng = np.random.default_rng(6)
        y = 20.0 * X[:, 0] + 900.0 * X[:, 2] + rng.normal(0, 30.0, len(X))
        for family, hp in (("linear", {"lam": 1e-2}),
                           ("kernel_ridge", {"lam": 1e-2, "gamma": 1.3})):
            base = baselines.train_regressor(family, X, y, dict(hp))
            shifted = X.copy()
            shifted[:, 1] += 10.0
            other = baselines.train_regressor(family, shifted, y, dict(hp))
            q = X[::7].copy()
            q_shift = q.copy()
            q_shift[:, 1] += 10.0
            assert np.allclose(baselines.predict_regressor(base, q),
                               baselines.predict_regressor(other, q_shift),
                               rtol=1e-9, atol=1e-9)


# row counts on both sides of the kernel's column-panel edge
_PANEL_EDGE_ROWS = (1, baselines._KERNEL_PANEL - 1, baselines._KERNEL_PANEL,
                    baselines._KERNEL_PANEL + 1, 3 * baselines._KERNEL_PANEL + 8)


def _feature_rows(seed, rows, log_scale, duplicates):
    # standard normal rows, one scale and offset per column; the last
    # ``duplicates`` rows repeat the first ones, so distances of exactly 0
    # are drawn too
    rng = np.random.default_rng(seed)
    scale = 10.0 ** np.asarray(log_scale)
    X = (rng.normal(size=(rows, 3)) + rng.normal(size=3)) * scale
    k = min(duplicates, rows // 2)
    X[rows - k:] = X[:k]
    return X


class TestSquaredDistances:
    # scipy's cdist is the oracle: the kernel ridge's distances must equal
    # it bit for bit, or forecasts and grid tables move in their last digits

    @given(m=st.sampled_from(_PANEL_EDGE_ROWS),
           n=st.sampled_from(_PANEL_EDGE_ROWS),
           log_scale=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
           seed=st.integers(0, 2 ** 32 - 1), duplicates=st.integers(0, 8),
           shared=st.booleans())
    def test_equal_to_cdist(self, m, n, log_scale, seed, duplicates, shared):
        A = _feature_rows(seed, m, log_scale, duplicates)
        B = _feature_rows(seed + 1, n, log_scale, duplicates)
        if shared:   # rows of A repeated in B
            k = min(m, n, duplicates + 1)
            B[:k] = A[:k]
        assert np.array_equal(baselines._sqdist(A, B),
                              scipy.spatial.distance.cdist(A, B,
                                                           "sqeuclidean"))

    @given(n=st.sampled_from(_PANEL_EDGE_ROWS),
           log_scale=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
           seed=st.integers(0, 2 ** 32 - 1), duplicates=st.integers(0, 8),
           gamma=st.sampled_from((1e-4, 0.1, 0.5, 2.0, 5.0, 1e3)))
    def test_rbf_upper_triangle_equals_the_cdist_kernel(
            self, n, log_scale, seed, duplicates, gamma):
        Xs = _feature_rows(seed, n, log_scale, duplicates)
        K = np.full((n, n), np.nan, order="F")
        baselines._rbf_upper(Xs, gamma, K)
        full = np.exp(-gamma * scipy.spatial.distance.cdist(Xs, Xs,
                                                            "sqeuclidean"))
        upper = np.triu_indices(n)
        assert np.array_equal(K[upper], full[upper])


class TestGridSearch:
    def _series(self, days=10, seed=0, const_power=None, cloudy=False):
        # without clouds every day repeats the same feature rows
        n = days * 96
        ts = _axis("2024-06-01T00:00", n)
        h = np.arange(n) % 96 * 0.25
        g = np.maximum(0.0, np.sin(np.pi * (h - 6.0) / 12.0)) * 900.0
        rng = np.random.default_rng(seed)
        t = 20.0 + g / 800.0 * 28.0
        X = baselines.feature_matrix(ts, g, t)
        if const_power is not None:
            y = np.full(n, const_power)
        else:
            y = 32.0 * g + rng.normal(0.0, 100.0, n)
        if cloudy:
            X[:, 0] *= rng.uniform(0.6, 1.0, n)
            y *= X[:, 0] / np.maximum(g, 1e-9)
        return ts, X, y

    @staticmethod
    def _masks(ts, X, spec, length, g_min=50.0):
        # the training and holdout records of one grid cell, as documented:
        # a trailing holdout, and ``length`` days of daylight before it
        end = ts[-1] + np.median(np.diff(ts))
        holdout_start = end - np.timedelta64(
            int(round(spec.holdout_days * 86400)), "s")
        daylight = X[:, 0] >= g_min
        train = (ts >= holdout_start - np.timedelta64(int(length * 86400),
                                                      "s")) \
            & (ts < holdout_start) & daylight
        return train, (ts >= holdout_start) & daylight

    def test_single_cell_selected(self):
        ts, X, y = self._series()
        spec = baselines.GridSearchSpec(lambda_grid=(1e-2,), gamma_grid=(1.0,),
                                        training_lengths_days=(3,))
        res = baselines.grid_search(spec, "linear", ts, X, y, 30_000.0)
        assert res.best_length_days == 3
        assert res.best_hyperparams == {"lam": 1e-2}

    def test_exact_tie_prefers_small_length_lambda_gamma(self):
        # constant target: every cell predicts it exactly, all errors tie at 0
        ts, X, y = self._series(const_power=5_000.0)
        spec = baselines.GridSearchSpec(lambda_grid=(1e-3, 1e-1),
                                        gamma_grid=(0.5, 2.0),
                                        training_lengths_days=(3, 7))
        res = baselines.grid_search(spec, "kernel_ridge", ts, X, y, 30_000.0)
        assert res.best_nmae == 0.0
        assert res.best_length_days == 3
        assert res.best_hyperparams == {"lam": 1e-3, "gamma": 0.5}

    @pytest.mark.parametrize("family", ["linear", "kernel_ridge"])
    @pytest.mark.parametrize("column", [1, None], ids=["t_module", "target"])
    def test_non_finite_holdout_rejected(self, family, column):
        # one NaN in a daylight row of the holdout day used to score every
        # cell as valid with nMAE NaN and select a "best" one
        ts, X, y = self._series(cloudy=True)
        spec = baselines.GridSearchSpec(lambda_grid=(1e-3, 1e-1),
                                        gamma_grid=(0.5, 2.0),
                                        training_lengths_days=(3, 7))
        _, val = self._masks(ts, X, spec, 3)
        row = np.flatnonzero(val)[len(np.flatnonzero(val)) // 2]
        if column is None:
            y = y.copy()
            y[row] = np.nan
        else:
            X = X.copy()
            X[row, column] = np.nan
        with pytest.raises(DataError):
            baselines.grid_search(spec, family, ts, X, y, 30_000.0)

    @pytest.mark.parametrize("records", [0, 1])
    def test_history_below_two_records_rejected(self, records):
        # the cadence is the median of the record spacing: on one record
        # numpy warned twice and int(nan) raised an untyped ValueError
        ts, X, y = self._series()
        spec = baselines.GridSearchSpec(lambda_grid=(1e-2,), gamma_grid=(1.0,),
                                        training_lengths_days=(3,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientDataError, match=">= 2 history"):
                baselines.grid_search(spec, "kernel_ridge", ts[:records],
                                      X[:records], y[:records], 30_000.0)

    def test_infeasible_length_marked_invalid(self):
        ts, X, y = self._series(days=10)
        spec = baselines.GridSearchSpec(lambda_grid=(1e-2,), gamma_grid=(1.0,),
                                        training_lengths_days=(3, 90))
        res = baselines.grid_search(spec, "linear", ts, X, y, 30_000.0)
        invalid = [row for row in res.table if not row["valid"]]
        assert {row["length_days"] for row in invalid} == {90}
        assert res.best_length_days == 3

    def test_best_never_worse_than_shortest_length(self):
        for seed in range(3):
            ts, X, y = self._series(days=20, seed=seed)
            spec = baselines.GridSearchSpec(lambda_grid=(1e-3, 1e-1),
                                            gamma_grid=(1.0,),
                                            training_lengths_days=(3, 7, 14))
            res = baselines.grid_search(spec, "linear", ts, X, y, 30_000.0)
            three_day = [row["nmae"] for row in res.table
                         if row["valid"] and row["length_days"] == 3]
            assert res.best_nmae <= min(three_day) + 1e-15

    @pytest.mark.parametrize("grids", [
        {"lambda_grid": (1e-3, -1.0)}, {"lambda_grid": (float("nan"),)},
        {"lambda_grid": (float("inf"),)}, {"gamma_grid": (0.5, -50.0)},
        {"gamma_grid": (0.0,)}, {"gamma_grid": (float("nan"),)},
        {"gamma_grid": ()}, {"training_lengths_days": (1e300,)},
        {"training_lengths_days": (float("nan"),)},
        {"training_lengths_days": (float("inf"),)},
        {"training_lengths_days": ("x",)}, {"training_lengths_days": (0,)},
        {"training_lengths_days": (-3,)}, {"training_lengths_days": (True,)},
        {"training_lengths_days": (3, 3)}, {"training_lengths_days": (7, 3)},
        {"training_lengths_days": (3, 10 ** 400)}])
    def test_invalid_grid_values_rejected(self, grids):
        with pytest.raises(ConfigError):
            baselines.GridSearchSpec(**grids)

    def test_kernel_ridge_cells_match_train_and_predict(self):
        ts, X, y = self._series(days=8, seed=1, cloudy=True)
        spec = baselines.GridSearchSpec(lambda_grid=(1e-4, 1e-2, 1.0),
                                        gamma_grid=(0.5, 2.0),
                                        training_lengths_days=(2, 5))
        # the longer length's kernel spans three column panels and a
        # remainder, so every panel boundary is crossed
        panel = baselines._KERNEL_PANEL
        n = int(np.count_nonzero(self._masks(ts, X, spec, 5)[0]))
        assert n > 3 * panel and n % panel
        res = baselines.grid_search(spec, "kernel_ridge", ts, X, y, 30_000.0)
        assert all(row["valid"] for row in res.table)
        for row in res.table:
            pred = self._retrained(ts, X, y, spec, row)
            _, val = self._masks(ts, X, spec, row["length_days"])
            assert row["nmae"] == np.mean(np.abs(pred - y[val])) / 30_000.0

    def _retrained(self, ts, X, y, spec, row):
        # the holdout prediction of one table row, by train + predict
        train, val = self._masks(ts, X, spec, row["length_days"])
        model = baselines.train_regressor(
            "kernel_ridge", X[train], y[train],
            {"lam": row["lam"], "gamma": row["gamma"]})
        return baselines.predict_regressor(model, X[val])

    @pytest.mark.parametrize("family", ["linear", "kernel_ridge"])
    def test_rows_follow_length_lambda_gamma_order(self, family):
        ts, X, y = self._series(days=6, seed=2, cloudy=True)
        spec = baselines.GridSearchSpec(lambda_grid=(1e-1, 1e-3),
                                        gamma_grid=(2.0, 0.5),
                                        training_lengths_days=(2, 30))
        res = baselines.grid_search(spec, family, ts, X, y, 30_000.0)
        gammas = spec.gamma_grid if family == "kernel_ridge" else (None,)
        assert [(row["length_days"], row["lam"], row.get("gamma"))
                for row in res.table] == list(itertools.product(
                    spec.training_lengths_days, spec.lambda_grid, gammas))
        assert all(row["valid"] for row in res.table
                   if row["length_days"] == 2)
        assert all(not row["valid"] and row["note"] == "insufficient history"
                   for row in res.table if row["length_days"] == 30)

    def test_duplicate_rows_without_ridge_rejected(self):
        ts, X, y = self._series(days=6)
        spec = baselines.GridSearchSpec(lambda_grid=(0.0, 1e-3),
                                        gamma_grid=(1.0,),
                                        training_lengths_days=(3,))
        train, _ = self._masks(ts, X, spec, 3)
        with pytest.raises(TrainingError) as err:
            baselines.train_regressor("kernel_ridge", X[train], y[train],
                                      {"lam": 0.0, "gamma": 1.0})
        res = baselines.grid_search(spec, "kernel_ridge", ts, X, y, 30_000.0)
        singular, ridged = res.table
        assert not singular["valid"] and singular["note"] == str(err.value)
        # the kernel outlives the partial factorization of lam = 0
        _, val = self._masks(ts, X, spec, 3)
        pred = self._retrained(ts, X, y, spec, ridged)
        assert ridged["valid"]
        assert ridged["nmae"] == np.mean(np.abs(pred - y[val])) / 30_000.0
        assert res.best_hyperparams == {"lam": 1e-3, "gamma": 1.0}

    def test_kernel_ridge_search_holds_one_kernel_matrix(self):
        ts, X, y = self._series(days=15, seed=3, cloudy=True)
        spec = baselines.GridSearchSpec(lambda_grid=(1e-3, 1e-1),
                                        gamma_grid=(0.5, 2.0),
                                        training_lengths_days=(13,))
        n = int(np.count_nonzero(self._masks(ts, X, spec, 13)[0]))
        assert 550 <= n <= 650
        # warm up: the first search also loads scipy's modules
        baselines.grid_search(spec, "kernel_ridge", ts, X, y, 30_000.0)
        tracemalloc.start()
        try:
            baselines.grid_search(spec, "kernel_ridge", ts, X, y, 30_000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the kernel and its factor share one buffer; a second n x n
        # array would pass 2
        assert peak < 2 * n * n * 8

    @pytest.mark.parametrize("lam", [1e-3, 0.0], ids=["solved", "singular"])
    def test_kernel_dual_keeps_the_strict_upper_triangle(self, lam):
        # the grid search factors each lambda in the lower triangle of the
        # buffer that holds the kernel in its upper one: LAPACK's lower
        # Cholesky must neither read nor write the strict upper triangle,
        # also when it stops at a non-positive pivot
        n = 3 * baselines._KERNEL_PANEL + 8
        Xs = np.random.default_rng(7).normal(size=(n, 3))
        Xs[-1] = Xs[0]   # singular without a ridge, at the last pivot
        K = np.full((n, n), np.nan, order="F")
        baselines._rbf_upper(Xs, 0.5, K)
        upper = np.triu_indices(n, 1)
        before = K[upper].copy()
        K[np.tril_indices(n, -1)] = np.nan   # never read
        yc = np.random.default_rng(8).normal(size=n)
        if lam:
            dual = baselines._kernel_dual(K, lam, yc)
            full = np.exp(-0.5 * scipy.spatial.distance.cdist(
                Xs, Xs, "sqeuclidean"))
            np.testing.assert_allclose(
                (full + lam * np.eye(n)) @ dual, yc, rtol=0, atol=1e-6)
        else:
            with pytest.raises(TrainingError, match="not positive definite"):
                baselines._kernel_dual(K, lam, yc)
        assert not np.isnan(K[np.tril_indices(n, -1)]).any()
        np.testing.assert_array_equal(K[upper].view(np.int64),
                                      before.view(np.int64))

    def test_deterministic_selection(self):
        ts, X, y = self._series(days=12, seed=4)
        spec = baselines.GridSearchSpec(lambda_grid=(1e-3, 1e-2),
                                        gamma_grid=(0.5,),
                                        training_lengths_days=(3, 7))
        r1 = baselines.grid_search(spec, "kernel_ridge", ts, X, y, 30_000.0)
        r2 = baselines.grid_search(spec, "kernel_ridge", ts, X, y, 30_000.0)
        assert r1.best_hyperparams == r2.best_hyperparams
        assert r1.best_length_days == r2.best_length_days
        assert r1.table == r2.table
