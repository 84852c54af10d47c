import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pvprof import fitting, sdm
from pvprof.exceptions import SolverError
from conftest import ALPHA_ISC, CELLS, CSI_PARAMS, draw_csi_like
from oracles import (bisect_current, bisect_voltage, diode_residual,
                     five_point_gradient, full_scan_mpp, linear_regime_mpp,
                     refined_grid_max, scan_mpp)

STC = sdm.OperatingConditions(1000.0, 25.0)

# values pinned with the independent oracles in oracles.py before the build
I0_AT_50C = 1.4621090605219855e-08
A_MOD_STC = 2.0348522663899993
ISC_STC = 9.491694765844592
VOC_STC = 49.17323396031375
I_AT_30V = 9.412934499726667
V_AT_HALF_ISC = 46.07828183682211
P_MPP_STC = 356.541592638875


@pytest.fixture(scope="module")
def op_stc():
    return sdm.translate_to_operating(CSI_PARAMS, STC, CELLS)


def _box_param(name):
    lo, hi = fitting.default_bounds(ISC_STC)[name]
    if name in fitting._LOG_PARAMS:
        return st.floats(math.log10(lo), math.log10(hi)).map(
            lambda x: 10.0 ** x)
    return st.floats(lo, hi)


# the whole fitting box; its i_0_ref ceiling lies below its i_ph_ref floor
BOX_PARAMS = st.builds(sdm.SdmParamsRef,
                       *(_box_param(n) for n in sdm.PARAM_NAMES))


def draw_box_rows(rng, n):
    """``n`` parameter rows drawn across the fitting box (log-uniform on
    the log10 parameters), then irradiances and cell temperatures over the
    fitted range: ``(rows, g, t)`` with ``rows`` of shape (5, n)."""
    box = fitting.default_bounds(ISC_STC)
    rows = []
    for name in sdm.PARAM_NAMES:
        lo, hi = box[name]
        if name in fitting._LOG_PARAMS:
            rows.append(10.0 ** rng.uniform(math.log10(lo), math.log10(hi),
                                            n))
        else:
            rows.append(rng.uniform(lo, hi, n))
    return np.array(rows), rng.uniform(1.0, 1200.0, n), \
        rng.uniform(-10.0, 70.0, n)


class TestTypes:
    def test_params_require_positive(self):
        with pytest.raises(ValueError):
            sdm.SdmParamsRef(-1.0, 3e-10, 0.35, 400.0, 1.1)

    def test_diode_factor_bounds(self):
        with pytest.raises(ValueError):
            sdm.SdmParamsRef(9.5, 3e-10, 0.35, 400.0, 3.0)

    def test_saturation_below_photocurrent(self):
        with pytest.raises(ValueError):
            sdm.SdmParamsRef(1e-12, 3e-10, 0.35, 400.0, 1.1)

    def test_conditions_ranges(self):
        with pytest.raises(ValueError):
            sdm.OperatingConditions(-1.0, 25.0)
        with pytest.raises(ValueError):
            sdm.OperatingConditions(500.0, 150.0)

    def test_topology_integers(self):
        with pytest.raises(ValueError):
            sdm.ArrayTopology(0, 1, 1)

    def test_iv_point_power_product(self):
        pt = sdm.IvPoint.from_vi(40.0, 8.5)
        assert pt.p == 40.0 * 8.5


class TestTranslate:
    def test_reference_conditions_fixed_point(self, op_stc):
        assert op_stc.i_ph == CSI_PARAMS.i_ph_ref
        assert op_stc.i_0 == CSI_PARAMS.i_0_ref
        assert op_stc.r_sh == CSI_PARAMS.r_sh_ref
        assert op_stc.r_s == CSI_PARAMS.r_s
        assert op_stc.a_mod == pytest.approx(A_MOD_STC, rel=1e-12)

    def test_alpha_term_vanishes_at_reference(self):
        op = sdm.translate_to_operating(CSI_PARAMS, STC, CELLS, alpha_isc=0.01)
        assert op.i_ph == CSI_PARAMS.i_ph_ref

    def test_inverse_irradiance_shunt_scaling(self):
        op = sdm.translate_to_operating(
            CSI_PARAMS, sdm.OperatingConditions(500.0, 25.0), CELLS)
        assert op.r_sh == pytest.approx(800.0, rel=1e-14)

    def test_photocurrent_linear_in_irradiance(self):
        op = sdm.translate_to_operating(
            CSI_PARAMS, sdm.OperatingConditions(250.0, 25.0), CELLS)
        assert op.i_ph == pytest.approx(CSI_PARAMS.i_ph_ref / 4.0, rel=1e-14)

    def test_saturation_current_band_gap_law(self):
        op = sdm.translate_to_operating(
            CSI_PARAMS, sdm.OperatingConditions(1000.0, 50.0), CELLS)
        assert op.i_0 == pytest.approx(I0_AT_50C, rel=1e-12)

    def test_night_maps_to_zero_photocurrent_and_capped_shunt(self):
        op = sdm.translate_to_operating(
            CSI_PARAMS, sdm.OperatingConditions(0.0, 10.0), CELLS)
        assert op.i_ph == 0.0
        assert op.r_sh == sdm.NIGHT_RSH_CAP
        assert math.isfinite(op.a_mod) and op.a_mod > 0

    def test_series_resistance_sweep_at_one_weather_point(self, topo):
        # an array r_s beside scalar parameters and weather broadcasts like
        # any other array input: each entry equals its scalar call
        r_s = np.array([0.3, 0.4])
        args = (9.5, 3e-10, r_s, 400.0, 1.1, 800.0, 25.0)
        swept = sdm.translate_arrays(*args, CELLS)
        mpp = sdm.simulate_array_mpp_arrays(*args, topo)
        for k, r in enumerate(r_s):
            scalar = args[:2] + (r,) + args[3:]
            for out_swept, out_scalar in zip(
                    swept, sdm.translate_arrays(*scalar, CELLS)):
                assert out_swept.shape == (2,)
                assert out_swept[k] == out_scalar
            for out_swept, out_scalar in zip(
                    mpp[:3], sdm.simulate_array_mpp_arrays(*scalar, topo)):
                assert out_swept[k] == out_scalar


class TestSolvers:
    def test_ideal_current_source_limit(self):
        op = sdm.SdmParamsOperating(i_ph=9.5, i_0=0.0, r_s=0.35,
                                    r_sh=sdm.NIGHT_RSH_CAP, a_mod=2.0)
        assert sdm.solve_current(0.0, op) == pytest.approx(9.5, rel=1e-6)

    def test_dark_short_circuit(self):
        op = sdm.SdmParamsOperating(i_ph=0.0, i_0=3e-10, r_s=0.35,
                                    r_sh=sdm.NIGHT_RSH_CAP, a_mod=2.0)
        assert sdm.solve_current(0.0, op) == pytest.approx(0.0, abs=1e-12)

    def test_current_at_30v_vs_bisection_oracle(self, op_stc):
        assert sdm.solve_current(30.0, op_stc) == pytest.approx(I_AT_30V,
                                                                abs=1e-9)

    def test_short_circuit_current_frozen(self, op_stc):
        assert sdm.short_circuit_current(op_stc) == pytest.approx(ISC_STC,
                                                                  abs=1e-9)

    def test_open_circuit_voltage_frozen(self, op_stc):
        assert sdm.open_circuit_voltage(op_stc) == pytest.approx(VOC_STC,
                                                                 abs=1e-8)

    def test_voltage_at_half_isc_vs_oracle(self, op_stc):
        i_sc = sdm.short_circuit_current(op_stc)
        assert sdm.solve_voltage(0.5 * i_sc, op_stc) == pytest.approx(
            V_AT_HALF_ISC, abs=1e-8)

    def test_inverse_consistency_at_voc(self, op_stc):
        voc = sdm.open_circuit_voltage(op_stc)
        assert abs(sdm.solve_current(voc, op_stc)) < 1e-8

    def test_boundary_at_isc(self, op_stc):
        i_sc = sdm.short_circuit_current(op_stc)
        assert abs(sdm.solve_voltage(i_sc, op_stc)) < 1e-8

    def test_dark_voc_is_zero(self):
        op = sdm.SdmParamsOperating(i_ph=0.0, i_0=3e-10, r_s=0.35,
                                    r_sh=sdm.NIGHT_RSH_CAP, a_mod=2.0)
        assert sdm.open_circuit_voltage(op) == 0.0

    def test_current_above_isc_rejected(self, op_stc):
        i_sc = sdm.short_circuit_current(op_stc)
        with pytest.raises(ValueError):
            sdm.solve_voltage(1.01 * i_sc, op_stc)

    def test_isc_bounded_by_photocurrent(self, op_stc):
        i_sc = sdm.short_circuit_current(op_stc)
        assert i_sc < op_stc.i_ph
        # series/shunt losses keep isc close below iph
        bound = op_stc.i_ph * (1.0 - op_stc.r_s / (op_stc.r_s + op_stc.r_sh))
        assert i_sc > bound - 1e-6

    def test_mutual_inverse_and_residuals_random(self):
        rng = np.random.default_rng(7)
        for params in draw_csi_like(rng, 30):
            g = rng.uniform(100.0, 1000.0)
            t = rng.uniform(0.0, 70.0)
            op = sdm.translate_to_operating(
                params, sdm.OperatingConditions(g, t), CELLS)
            voc = sdm.open_circuit_voltage(op)
            for frac in (0.0, 0.3, 0.6, 0.9):
                v = frac * voc
                i = sdm.solve_current(v, op)
                assert abs(sdm.diode_residual(i, v, op)) < 1e-9
                if i >= 0:
                    v_back = sdm.solve_voltage(i, op)
                    assert v_back == pytest.approx(v, abs=1e-8)

    def test_open_circuit_row_frozen_at_its_stop(self):
        # rows over these ranges stop after different numbers of Newton
        # steps; each must come out bit for bit as it does solved alone,
        # whatever the rows beside it still need
        rng = np.random.default_rng(0)
        n = 2000
        rows = (rng.uniform(0.01, 12.0, n),
                10.0 ** rng.uniform(-12.0, -6.0, n),
                10.0 ** rng.uniform(0.0, 4.0, n), rng.uniform(1.5, 3.5, n))
        together = sdm.open_circuit_diode_voltage_arrays(*rows)
        alone = [sdm.open_circuit_diode_voltage_arrays(
            *(x[k:k + 1] for x in rows))[0] for k in range(n)]
        np.testing.assert_array_equal(together, alone)

    def test_reverse_bias_rejected(self, op_stc):
        with pytest.raises(ValueError):
            sdm.solve_current(-1.0, op_stc)
        # a negative photocurrent reverse-biases the diode at short circuit;
        # the module still counts as dark for its open-circuit voltage
        op = sdm.SdmParamsOperating(i_ph=-0.01, i_0=3e-10, r_s=0.35,
                                    r_sh=400.0, a_mod=2.0)
        with pytest.raises(ValueError):
            sdm.solve_current(0.0, op)
        assert sdm.open_circuit_voltage(op) == 0.0

    @given(params=BOX_PARAMS, g=st.floats(1.0, 1500.0),
           t=st.floats(-20.0, 85.0),
           fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    def test_residuals_and_inverses_over_fitting_box(self, params, g, t,
                                                      fracs):
        op = sdm.translate_to_operating(
            params, sdm.OperatingConditions(g, t), CELLS)
        v_oc = sdm.open_circuit_voltage(op)
        i_sc = sdm.short_circuit_current(op)
        for frac in fracs + [0.0, 1.0]:
            v = 1.1 * frac * v_oc
            i = sdm.solve_current(v, op)
            assert abs(sdm.diode_residual(i, v, op)) < 1e-9
            i_q = frac * i_sc
            v_q = sdm.solve_voltage(i_q, op)
            assert v_q >= 0.0
            assert abs(sdm.diode_residual(i_q, v_q, op)) < 1e-9
            assert abs(sdm.solve_current(v_q, op) - i_q) < 1e-9
            if 0.0 <= i <= i_sc:
                # the residual contract in volts: 1e-9 A times |dv/di|,
                # which reaches r_sh on the flat part of the curve
                vd = v + i * op.r_s
                g_diode = op.i_0 / op.a_mod * math.exp(vd / op.a_mod)
                dv_di = op.r_s + 1.0 / (g_diode + 1.0 / op.r_sh)
                assert abs(sdm.solve_voltage(i, op) - v) <= 1e-9 * dv_di


class TestMpp:
    def test_dark_module_zero_point(self):
        op = sdm.SdmParamsOperating(i_ph=0.0, i_0=3e-10, r_s=0.35,
                                    r_sh=sdm.NIGHT_RSH_CAP, a_mod=2.0)
        assert sdm.find_mpp(op) == sdm.IvPoint(0.0, 0.0, 0.0)

    def test_matches_dense_grid_scan(self, op_stc):
        mpp = sdm.find_mpp(op_stc)
        assert mpp.p == pytest.approx(P_MPP_STC, rel=1e-6)
        assert abs(sdm.diode_residual(mpp.i, mpp.v, op_stc)) < 1e-9

    def test_power_increases_with_irradiance(self):
        op1000 = sdm.translate_to_operating(CSI_PARAMS, STC, CELLS)
        op500 = sdm.translate_to_operating(
            CSI_PARAMS, sdm.OperatingConditions(500.0, 25.0), CELLS)
        assert sdm.find_mpp(op1000).p > sdm.find_mpp(op500).p

    def test_derivative_changes_sign_at_mpp(self, op_stc):
        mpp = sdm.find_mpp(op_stc)
        dv = 1e-4
        p_lo = (mpp.v - dv) * sdm.solve_current(mpp.v - dv, op_stc)
        p_hi = (mpp.v + dv) * sdm.solve_current(mpp.v + dv, op_stc)
        assert p_lo < mpp.p and p_hi < mpp.p

    def test_mpp_dominates_curve(self):
        # 1000 uniform terminal voltages per parameter draw; curve currents
        # from a test-local vectorized Newton solve on the implicit equation
        rng = np.random.default_rng(11)
        for params in draw_csi_like(rng, 10):
            op = sdm.translate_to_operating(params, STC, CELLS)
            voc = sdm.open_circuit_voltage(op)
            v = np.linspace(0.0, voc, 1000)
            i = np.full_like(v, 0.5 * op.i_ph)
            for _ in range(80):
                vd = v + i * op.r_s
                e = np.exp(vd / op.a_mod)
                f = op.i_ph - op.i_0 * (e - 1.0) - vd / op.r_sh - i
                fp = -op.i_0 * e * op.r_s / op.a_mod - op.r_s / op.r_sh - 1.0
                i = i - f / fp
            assert np.max(np.abs(op.i_ph - op.i_0 * np.expm1((v + i * op.r_s)
                          / op.a_mod) - (v + i * op.r_s) / op.r_sh - i)) < 1e-9
            p_mpp = sdm.find_mpp(op).p
            assert np.all(v * i <= p_mpp * (1.0 + 1e-9))

    def test_power_monotone_in_irradiance_and_temperature(self):
        rng = np.random.default_rng(13)
        g_grid = np.linspace(50.0, 1000.0, 40)
        t_grid = np.linspace(0.0, 80.0, 33)
        for params in draw_csi_like(rng, 8):
            p_g = sdm.simulate_array_mpp_arrays(
                params.i_ph_ref, params.i_0_ref, params.r_s, params.r_sh_ref,
                params.n_diode, g_grid, 25.0,
                sdm.ArrayTopology(CELLS, 1, 1)).p_dc
            assert np.all(np.diff(p_g) > -1e-9 * p_g[:-1])
            p_t = sdm.simulate_array_mpp_arrays(
                params.i_ph_ref, params.i_0_ref, params.r_s, params.r_sh_ref,
                params.n_diode, 1000.0, t_grid,
                sdm.ArrayTopology(CELLS, 1, 1)).p_dc
            assert np.all(np.diff(p_t) < 1e-9 * p_t[:-1])

    def test_mixed_lit_and_dark_rows(self):
        # one call over lit and dark rows: dark rows (zero or negative
        # photocurrent) give exact zeros and the lit rows come out as if
        # solved without them
        g = np.array([800.0, 0.0, 250.0, 0.0, 1000.0, 3.0])
        ops = list(sdm.translate_arrays(*CSI_PARAMS.as_array(), g, 25.0,
                                        CELLS))
        ops[0] = np.where(np.arange(g.size) == 3, -0.01, ops[0])
        dark = g == 0.0
        mixed = sdm.mpp_arrays(*ops)
        alone = sdm.mpp_arrays(*(x[~dark] for x in ops))
        for out_mixed, out_alone in zip(mixed, alone):
            assert np.all(out_mixed[dark] == 0.0)
            np.testing.assert_array_equal(out_mixed[~dark], out_alone)


    def test_row_frozen_at_its_stop(self):
        # rows across the fitting box and its irradiance range stop after
        # different numbers of steps; each row must come out bit for bit as
        # it does solved alone, whatever the rows beside it still need
        rows, g, t = draw_box_rows(np.random.default_rng(5), 300)
        ops = sdm.translate_arrays(*rows, g, t, CELLS)
        v, i, _ = sdm.mpp_arrays(*ops)
        # a third start warm at their own solution, which stops them early
        start = np.where(np.arange(300) % 3 == 0, v + i * ops[2], np.nan)
        for vd_start in (None, start):
            together = sdm.mpp_arrays(*ops, vd_start=vd_start)
            for k in range(300):
                alone = sdm.mpp_arrays(
                    *(x[k:k + 1] for x in ops),
                    vd_start=None if vd_start is None else start[k:k + 1])
                for out_together, out_alone in zip(together, alone):
                    assert out_together[k] == out_alone[0]


class TestMppProperties:
    @given(params=BOX_PARAMS,
           g=st.lists(st.floats(0.0, 1500.0), min_size=1, max_size=4),
           t=st.floats(-20.0, 85.0), frac=st.floats(0.0, 1.0))
    def test_mpp_over_fitting_box(self, params, g, t, frac):
        g = np.sort(g)
        ops = sdm.translate_arrays(*params.as_array(), g, t, CELLS)
        i_ph, i_0, _, r_sh, a = ops
        # cold, and warm from anywhere on the bracket [0, hi] (both ends
        # included) or from a non-finite start, which must solve cold
        hi = np.minimum(a * np.log1p(i_ph / i_0), i_ph * r_sh)
        starts = [None, frac * hi, np.zeros_like(hi), hi] + [
            np.full_like(hi, bad) for bad in (math.nan, math.inf, -math.inf)]
        oracles = {}
        for start in starts:
            v, i, p = sdm.mpp_arrays(*ops, vd_start=start)
            assert np.all(np.isfinite([v, i, p]))
            assert np.all(np.diff(p) >= -1e-12 * p[1:])
            for k in range(g.size):
                row = [float(x[k]) for x in ops]
                if row[0] <= 0.0:
                    assert v[k] == i[k] == p[k] == 0.0
                    continue
                if k not in oracles:
                    v_oc = bisect_voltage(0.0, *row)
                    # the scan's v_oc is good to 1e-13 V, so sub-nanovolt
                    # curves (irradiance far below any sensor's) take the
                    # straight-line form
                    oracle = scan_mpp if v_oc > 1e-10 else linear_regime_mpp
                    oracles[k] = v_oc, oracle(*row)[2]
                v_oc, p_ref = oracles[k]
                assert 0.0 <= v[k] <= v_oc
                assert abs(p[k] - p_ref) <= 1e-6 * p_ref
                assert p[k] >= p_ref * (1.0 - 1e-9)


class TestMppSensitivities:
    @given(params=BOX_PARAMS,
           g=st.lists(st.floats(50.0, 1500.0), min_size=1, max_size=4),
           t=st.floats(-20.0, 85.0))
    def test_match_central_differences_over_fitting_box(self, params, g, t):
        topo = sdm.ArrayTopology(CELLS, 12, 8)
        theta = params.as_array()
        g = np.array(g)

        def mpp(scale):
            v, i, _, _ = sdm.simulate_array_mpp_arrays(
                *(theta * scale), g, t, topo, ALPHA_ISC)
            return np.concatenate([v, i])

        v, i, _, ops = sdm.simulate_array_mpp_arrays(*theta, g, t, topo,
                                                     ALPHA_ISC)
        dv, di = sdm.mpp_sensitivities_arrays(v, i, ops, *theta[[1, 3, 4]],
                                              g, topo)
        # relative steps: i_0_ref spans eight decades
        exact = np.concatenate([dv, di]) * theta
        central = five_point_gradient(mpp, np.ones(5))
        # the solve pins the MPP to ~1e-13 relative, so the stencil carries
        # noise of order 1e-7 of the output itself
        tol = 1e-4 * np.abs(central) + 1e-6 * np.abs(mpp(1.0))[:, None]
        assert np.all(np.abs(exact - central) <= tol)

    def test_dark_rows_give_zeros(self, topo):
        g = np.array([0.0, 400.0, 0.0, 900.0])
        t = np.array([5.0, 30.0, 12.0, 45.0])
        lit = g > 0
        ref = CSI_PARAMS.as_array()
        v, i, _, ops = sdm.simulate_array_mpp_arrays(*ref, g, t, topo,
                                                     ALPHA_ISC)
        mixed = sdm.mpp_sensitivities_arrays(v, i, ops, *ref[[1, 3, 4]], g,
                                             topo)
        alone = sdm.mpp_sensitivities_arrays(
            v[lit], i[lit], tuple(op[lit] for op in ops), *ref[[1, 3, 4]],
            g[lit], topo)
        for out_mixed, out_alone in zip(mixed, alone):
            assert out_mixed.shape == (4, 5)
            assert np.all(out_mixed[~lit] == 0.0)
            np.testing.assert_array_equal(out_mixed[lit], out_alone)

    def test_solve_coefficients_equal_a_fresh_translation(self, topo):
        # the coefficients a solve returns are those translate_arrays gives
        # for its inputs, so sensitivities taken from them are bit for bit
        # those of a fresh translation
        rows, g, t = draw_box_rows(np.random.default_rng(5), 300)
        mpp = sdm.simulate_array_mpp_arrays(*rows, g, t, topo, ALPHA_ISC)
        fresh = sdm.translate_arrays(*rows, g, t, topo.cells_in_series,
                                     ALPHA_ISC)
        for out_solve, out_fresh in zip(
                sdm.mpp_sensitivities_arrays(mpp.v_dc, mpp.i_dc, mpp.ops,
                                             *rows[[1, 3, 4]], g, topo),
                sdm.mpp_sensitivities_arrays(mpp.v_dc, mpp.i_dc, fresh,
                                             *rows[[1, 3, 4]], g, topo)):
            assert out_solve.shape == (300, 5)
            assert np.isfinite(out_solve).all()
            np.testing.assert_array_equal(out_solve, out_fresh)


class TestIterationCaps:
    OPS = sdm.translate_arrays(*CSI_PARAMS.as_array(),
                               np.array([200.0, 600.0, 1000.0]), 25.0, CELLS)

    def test_open_circuit_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sdm, "_OC_MAX_ITER", 1)
        i_ph, i_0, _, r_sh, a = self.OPS
        with pytest.raises(SolverError) as info:
            sdm.open_circuit_diode_voltage_arrays(i_ph, i_0, r_sh, a)
        assert info.value.inputs["i_ph"].size > 0

    # the MPP search is bracketed in closed form, so find_mpp meets only
    # its own cap
    @pytest.mark.parametrize("solve, cap", [
        (lambda op: sdm.solve_current(30.0, op), "_OC_MAX_ITER"),
        (lambda op: sdm.solve_voltage(4.0, op), "_OC_MAX_ITER"),
        (sdm.open_circuit_voltage, "_OC_MAX_ITER"),
        (sdm.find_mpp, "_MPP_MAX_ITER")],
        ids=["current", "voltage", "v_oc", "mpp"])
    def test_scalar_solves_raise_solver_error_at_cap(self, monkeypatch,
                                                     op_stc, solve, cap):
        monkeypatch.setattr(sdm, cap, 1)
        with pytest.raises(SolverError):
            solve(op_stc)

    def test_mpp_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sdm, "_MPP_MAX_ITER", 1)
        with pytest.raises(SolverError) as info:
            sdm.mpp_arrays(*self.OPS)
        assert info.value.inputs["i_ph"].size > 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_is_the_cold_start(self, bad):
        # the stop test is False for NaN, so a NaN start clipped into the
        # bracket would stop after one bisection step, far from the MPP
        cold = sdm.mpp_arrays(*self.OPS)
        warm = sdm.mpp_arrays(*self.OPS, vd_start=np.full(3, bad))
        for out_warm, out_cold in zip(warm, cold):
            np.testing.assert_array_equal(out_warm, out_cold)

    def test_nan_row_stays_local(self):
        ops = [np.array(x) for x in self.OPS]
        keep = np.array([True, False, True])
        alone = sdm.mpp_arrays(*(x[keep] for x in ops))
        # a NaN photocurrent must not pass for a dark (zero-power) row
        for col in (4, 0):
            nan_ops = [x.copy() for x in ops]
            nan_ops[col][1] = np.nan
            i_ph, i_0, r_s, r_sh, a = nan_ops
            vd_oc = sdm.open_circuit_diode_voltage_arrays(i_ph, i_0, r_sh, a)
            assert np.isnan(vd_oc[1])
            np.testing.assert_array_equal(
                vd_oc[keep], sdm.open_circuit_diode_voltage_arrays(
                    *(x[keep] for x in (i_ph, i_0, r_sh, a))))
            for out, out_alone in zip(sdm.mpp_arrays(*nan_ops), alone):
                assert np.isnan(out[1])
                np.testing.assert_array_equal(out[keep], out_alone)


class TestArrayScaling:
    def test_identity_topology(self, op_stc):
        mpp = sdm.find_mpp(op_stc)
        v, i = sdm.simulate_array_mpp(CSI_PARAMS, sdm.ArrayTopology(CELLS, 1, 1),
                                      STC)
        assert v == pytest.approx(mpp.v, rel=1e-12)
        assert i == pytest.approx(mpp.i, rel=1e-12)

    def test_parallel_scaling_exact(self):
        v1, i1 = sdm.simulate_array_mpp(CSI_PARAMS,
                                        sdm.ArrayTopology(CELLS, 12, 4), STC)
        v2, i2 = sdm.simulate_array_mpp(CSI_PARAMS,
                                        sdm.ArrayTopology(CELLS, 12, 8), STC)
        assert i2 == 2.0 * i1
        assert v2 == v1

    def test_array_level_grid_scan(self, topo):
        ops = sdm.translate_to_operating(CSI_PARAMS, STC, CELLS)
        v_scan, i_scan, p_scan = scan_mpp(ops.i_ph, ops.i_0, ops.r_s,
                                          ops.r_sh, ops.a_mod)
        v, i = sdm.simulate_array_mpp(CSI_PARAMS, topo, STC)
        assert v * i == pytest.approx(
            p_scan * topo.modules_per_string * topo.strings_in_parallel,
            rel=1e-6)


class TestOracleAgreement:
    def test_library_against_fresh_oracle_runs(self, op_stc):
        # recompute (not frozen) oracle values to guard the frozen constants
        args = (op_stc.i_ph, op_stc.i_0, op_stc.r_s, op_stc.r_sh, op_stc.a_mod)
        assert bisect_current(0.0, *args) == pytest.approx(ISC_STC, abs=1e-10)
        assert bisect_voltage(0.0, *args) == pytest.approx(VOC_STC, abs=1e-10)
        _, _, p = scan_mpp(*args, n_points=200_000)
        assert p == pytest.approx(P_MPP_STC, rel=1e-7)
        i30 = bisect_current(30.0, *args)
        assert abs(diode_residual(i30, 30.0, *args)) < 1e-11


class TestRefinedScanOracle:
    """``scan_mpp`` scans the grid coarsely, then at full resolution only
    around the coarse maximum; it must return the full scan's point bit for
    bit, whichever path it takes."""

    @pytest.mark.parametrize("n_points", [1_000_000, 400_001, 1000, 2])
    def test_equals_full_scan_on_random_curves(self, n_points):
        rng = np.random.default_rng(7)
        params = draw_csi_like(rng, 6)
        g = rng.uniform(100.0, 1000.0, 6)
        t = rng.uniform(0.0, 70.0, 6)
        for k, p in enumerate(params):
            op = sdm.translate_to_operating(
                p, sdm.OperatingConditions(g[k], t[k]), CELLS)
            args = (op.i_ph, op.i_0, op.r_s, op.r_sh, op.a_mod, n_points)
            assert scan_mpp(*args) == full_scan_mpp(*args)

    @pytest.mark.parametrize("curve", [
        # two peaks, the higher one second; equal values; a plateau at the
        # top; a step between two coarse samples
        lambda x: np.exp(-((x - 0.2) / 0.05) ** 2)
        + 1.5 * np.exp(-((x - 0.7) / 0.05) ** 2),
        lambda x: np.zeros_like(x),
        lambda x: np.minimum(np.sin(np.pi * x), 0.9),
        lambda x: (x > 0.5004).astype(float)],
        ids=["two-peaks", "flat", "plateau", "step"])
    def test_samples_not_strictly_unimodal_scan_everything(self, curve):
        n_points = 100_000
        x = np.linspace(0.0, 1.0, n_points)
        evaluated = []

        def points(indices):
            evaluated.append(indices.size)
            p = curve(x[indices])
            return x[indices], -p, p

        k = int(np.argmax(curve(x)))
        assert refined_grid_max(points, n_points) == (x[k], -curve(x)[k],
                                                      curve(x)[k])
        assert evaluated[-1] == n_points

    @pytest.mark.parametrize("peak", [0.0, 0.31234, 1.0])
    def test_strictly_unimodal_samples_scan_between_neighbours(self, peak):
        n_points = 100_000
        x = np.linspace(0.0, 1.0, n_points)
        evaluated = []

        def points(indices):
            evaluated.append(indices.size)
            p = -np.abs(x[indices] - peak)
            return x[indices], p, p

        k = int(np.argmax(-np.abs(x - peak)))
        assert refined_grid_max(points, n_points) == (x[k], -abs(x[k] - peak),
                                                      -abs(x[k] - peak))
        assert evaluated[-1] <= 2001
