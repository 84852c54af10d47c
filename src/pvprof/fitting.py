"""Estimation of single-diode parameters from production telemetry.

The estimator solves the nonlinear least-squares problem of matching
simulated to measured DC voltage and current, each normalized by its
nameplate MPP value, over a window of retained records: bounded
trust-region-reflective least squares.  Each evaluated parameter vector costs
one MPP solve, warm-started from the solution at the previously evaluated
vector (a step away, in a trust-region method); the exact Jacobian at an
accepted point comes from that solution by implicit differentiation
(``sdm.mpp_sensitivities_arrays``).  ``loss`` solves cold.
Saturation current and shunt resistance are optimized in log10 space.
Rolling re-fits warm-start each window from the previous result.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import least_squares

from . import sdm
from .exceptions import (ConfigError, ExtractionError, FitDegeneracyError,
                         InsufficientDataError, NumericalError)
from .preprocess import PreprocessConfig, training_window
from .series import DAY, ForecastSeries, TelemetrySeries, WeatherSeries

PARAM_ORDER = sdm.PARAM_NAMES
# optimized in log10 space: their boxes span several decades
_LOG_PARAMS = ("i_0_ref", "r_sh_ref")
_LOG_MASK = np.isin(PARAM_ORDER, _LOG_PARAMS)


def default_bounds(i_sc_datasheet):
    """Fitting box covering healthy to degraded crystalline-silicon modules."""
    return {
        "i_ph_ref": (0.1 * i_sc_datasheet, 2.0 * i_sc_datasheet),
        "i_0_ref": (1e-13, 1e-5),
        "r_s": (1e-4, 5.0),
        "r_sh_ref": (10.0, 1e5),
        "n_diode": (0.5, 2.5),
    }


@dataclass(frozen=True)
class FitOptions:
    """Loss normalization, bounds and optimizer settings for one system."""

    bounds: dict
    v_scale: float
    i_scale: float
    max_iterations: int = 200
    loss_tolerance: float = 1e-10
    alpha_isc: float = 0.0

    def __post_init__(self):
        if self.v_scale <= 0 or self.i_scale <= 0:
            raise ConfigError("loss scales must be positive")
        if not isinstance(self.max_iterations, (int, np.integer)) \
                or self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be an integer >= 1, "
                              f"got {self.max_iterations!r}")
        if not 0 < self.loss_tolerance < math.inf:
            raise ConfigError(f"loss_tolerance must be finite and > 0, "
                              f"got {self.loss_tolerance!r}")
        for name in PARAM_ORDER:
            if name not in self.bounds:
                raise ConfigError(f"bounds missing parameter {name}")
            lo, hi = self.bounds[name]
            if not lo < hi:
                raise ConfigError(f"empty bound interval for {name}")

    @classmethod
    def for_system(cls, datasheet, topo: sdm.ArrayTopology, **overrides):
        """Nameplate-normalized options: scales from the datasheet MPP."""
        return cls(bounds=default_bounds(datasheet.i_sc),
                   v_scale=datasheet.v_mp * topo.modules_per_string,
                   i_scale=datasheet.i_mp * topo.strings_in_parallel,
                   alpha_isc=datasheet.alpha_isc, **overrides)


@dataclass
class FitWindowResult:
    """Outcome of one window fit."""

    window_start: np.datetime64
    window_end: np.datetime64
    params: sdm.SdmParamsRef
    final_loss: float
    iterations: int
    converged: bool
    n_points: int
    error: str | None = None


def initial_guess(datasheet) -> sdm.SdmParamsRef:
    """Starting parameters for the first fit of a system.

    Delegates to the datasheet extraction (``Datasheet.desoto_params``,
    computed once per datasheet); if that fails to converge, falls
    back to heuristic seeds (photocurrent at Isc, ideality 1.1, half the
    (Voc-Vmp)/Imp slope as series resistance, a generous shunt, and the
    saturation current solved from the open-circuit condition), clipped into
    the default fitting bounds.
    """
    try:
        return datasheet.desoto_params
    except ExtractionError:
        pass
    bounds = default_bounds(datasheet.i_sc)
    n = 1.1
    a = n * datasheet.cells_in_series * sdm.K_BOLTZMANN * sdm.T_REF_K \
        / sdm.Q_ELEMENTARY
    i_ph = datasheet.i_sc
    r_s = 0.5 * (datasheet.v_oc - datasheet.v_mp) / datasheet.i_mp
    r_sh = 10.0 * datasheet.v_mp / datasheet.i_mp * datasheet.cells_in_series
    i_0 = max((i_ph - datasheet.v_oc / r_sh) / math.expm1(datasheet.v_oc / a),
              1e-24)
    raw = np.array([i_ph, i_0, r_s, r_sh, n])
    lo = np.array([bounds[k][0] for k in PARAM_ORDER])
    hi = np.array([bounds[k][1] for k in PARAM_ORDER])
    return sdm.SdmParamsRef.from_array(np.clip(raw, lo, hi))


def _to_transformed(nat):
    x = np.array(nat, dtype=float)
    x[..., _LOG_MASK] = np.log10(x[..., _LOG_MASK])
    return x


def _to_natural(x):
    nat = np.array(x, dtype=float)
    nat[..., _LOG_MASK] = 10.0 ** nat[..., _LOG_MASK]
    return nat


def _simulate(x, window: TelemetrySeries, topo, opts: FitOptions,
              start=None):
    """Array MPP ``(v_sim, i_sim)`` of each record at transformed ``x``.

    ``x`` is one parameter vector (5,) or a stack (P, 5).  ``start`` is a
    solution at nearby parameters to warm-start the solve from.
    """
    nat = _to_natural(x)
    v_sim, i_sim, _ = sdm.simulate_array_mpp_arrays(
        *(nat[..., j, None] for j in range(5)), window.g_poa,
        window.t_module, topo, opts.alpha_isc, start=start)
    return v_sim, i_sim


def _residuals(x, window: TelemetrySeries, topo, opts: FitOptions,
               solved=None):
    """Normalized voltage then current residuals, shape (..., 2N).

    ``solved`` is ``_simulate(x, ...)`` when the caller has it already.
    """
    v_sim, i_sim = solved or _simulate(x, window, topo, opts)
    return np.concatenate([(window.v_dc - v_sim) / opts.v_scale,
                           (window.i_dc - i_sim) / opts.i_scale], axis=-1)


def _jacobian(x, solved, window: TelemetrySeries, topo, opts: FitOptions):
    """Exact Jacobian (2N, 5) of ``_residuals`` at one ``x``.

    ``solved`` is ``_simulate(x, ...)``; the MPP sensitivities come from
    implicit differentiation at that solution, so nothing is solved again.
    """
    nat = _to_natural(x)
    dv, di = sdm.mpp_sensitivities_arrays(
        *solved, *nat, window.g_poa, window.t_module, topo, opts.alpha_isc)
    # d(natural)/dx is 1 on the linear and nat*ln(10) on the log10 columns
    chain = np.where(_LOG_MASK, nat * math.log(10.0), 1.0)
    jac = np.concatenate([dv / -opts.v_scale, di / -opts.i_scale]) * chain
    if not np.all(np.isfinite(jac)):
        raise NumericalError("non-finite MPP sensitivities")
    return jac


def loss(params: sdm.SdmParamsRef, window: TelemetrySeries,
         topo: sdm.ArrayTopology, opts: FitOptions):
    """Mean normalized squared V/I mismatch per record of one parameter set.

    Raises ``FitDegeneracyError`` if any record is unsolvable.
    """
    if len(window) == 0:
        raise InsufficientDataError("empty window")
    r = _residuals(_to_transformed(params.as_array()), window, topo, opts)
    unsolvable = np.count_nonzero(~np.isfinite(r.reshape(2, -1)).all(axis=0))
    if unsolvable:
        raise FitDegeneracyError(
            f"{unsolvable} of {len(window)} records unsolvable")
    return float(r @ r) / len(window)


def fit_window(window: TelemetrySeries, topo: sdm.ArrayTopology,
               init: sdm.SdmParamsRef, opts: FitOptions) -> FitWindowResult:
    """Fit the five parameters to one window of retained telemetry.

    Bounded trust-region-reflective least squares on the residual vector in
    the transformed (log/linear) parameter space.  ``max_iterations`` caps
    the residual evaluations; ``converged`` means a tolerance stop (such as
    the relative cost reduction falling below ``loss_tolerance``) was met
    before that cap.  Every record must be solvable at ``init``.
    """
    if len(window) < 50:
        raise InsufficientDataError(
            f"window has {len(window)} retained records, need >= 50")
    span = window.timestamp[-1] - window.timestamp[0]
    if span < DAY:
        raise InsufficientDataError("window must span at least one day")

    lo = np.array([opts.bounds[n][0] for n in PARAM_ORDER])
    hi = np.array([opts.bounds[n][1] for n in PARAM_ORDER])
    x0 = _to_transformed(np.clip(init.as_array(), lo, hi))
    # the last solved point: TRF asks for the Jacobian only at the point
    # whose residuals it has just evaluated
    last = {}

    def residuals(x):
        # TRF's successive points are close, so each solve starts from the
        # last one; its non-finite rows start cold
        solved = _simulate(x, window, topo, opts, last.get("solved"))
        r = _residuals(x, window, topo, opts, solved)
        # the first call is TRF's own evaluation of the (strictly feasible)
        # initial guess; later non-finite trial steps TRF rejects by itself
        if not last and not np.all(np.isfinite(r)):
            raise NumericalError("non-finite residuals at the initial guess")
        last.update(x=x.copy(), solved=solved)
        return r

    def jacobian(x):
        if not np.array_equal(x, last["x"]):
            residuals(x)
        return _jacobian(x, last["solved"], window, topo, opts)

    # TRF only accepts steps that lower the cost, so res.x is the best iterate
    res = least_squares(residuals, x0, jac=jacobian, method="trf",
                        bounds=(_to_transformed(lo), _to_transformed(hi)),
                        ftol=opts.loss_tolerance, max_nfev=opts.max_iterations)
    nat = np.clip(_to_natural(res.x), lo, hi)
    return FitWindowResult(
        window_start=window.timestamp[0], window_end=window.timestamp[-1],
        params=sdm.SdmParamsRef.from_array(nat),
        final_loss=2.0 * float(res.cost) / len(window),
        iterations=int(res.njev), converged=bool(res.status > 0),
        n_points=len(window))


def rolling_fit(series: TelemetrySeries, topo: sdm.ArrayTopology,
                window_length, update_period, init: sdm.SdmParamsRef,
                opts: FitOptions,
                preprocess: PreprocessConfig = PreprocessConfig(),
                warm_start=True):
    """Periodic re-fits over trailing windows.

    One result per update instant; the first window starts from ``init`` and
    later ones warm-start from the previous converged fit (unless disabled).
    Window-level failures are recorded on the result, not raised.
    """
    series.validate()
    window_length = np.timedelta64(window_length)
    update_period = np.timedelta64(update_period)
    zero = np.timedelta64(0, "s")
    # NaT compares False, so it is rejected too
    if not (window_length > zero and update_period > zero):
        raise ConfigError("window length and update period must be positive")
    if len(series) < 2:
        raise InsufficientDataError("series too short for rolling fits")
    data_end = series.timestamp[-1] + series.cadence()
    t0 = series.timestamp[0]
    if data_end - t0 < window_length:
        raise InsufficientDataError("series shorter than one window")

    results = []
    current = init
    u = t0 + window_length
    while u <= data_end:
        try:
            retained = training_window(series, u, window_length, preprocess)
            result = fit_window(retained, topo, current, opts)
            result = replace(result, window_start=u - window_length, window_end=u)
            if warm_start and result.converged:
                current = result.params
        except (InsufficientDataError, NumericalError) as exc:
            # a failed window reports the records it held before masking
            result = FitWindowResult(
                window_start=u - window_length, window_end=u, params=current,
                final_loss=float("nan"), iterations=0, converged=False,
                n_points=len(series.slice_time(u - window_length, u)),
                error=str(exc))
        results.append(result)
        u = u + update_period
    return results


def simulate_power(params: sdm.SdmParamsRef, weather: WeatherSeries,
                   topo: sdm.ArrayTopology, g_min=50.0, alpha_isc=0.0):
    """Array MPP power at each weather sample; zero below ``g_min``."""
    _, _, p = sdm.simulate_array_mpp_arrays(
        params.i_ph_ref, params.i_0_ref, params.r_s, params.r_sh_ref,
        params.n_diode, weather.g_poa, weather.t_cell, topo, alpha_isc)
    return np.where(weather.g_poa < g_min, 0.0, p)


def predict_power(result: FitWindowResult, weather: WeatherSeries,
                  topo: sdm.ArrayTopology, g_min=50.0,
                  alpha_isc=0.0) -> ForecastSeries:
    """Power forecast from one fitted window over a weather sequence."""
    if not result.converged:
        raise ValueError("prediction requires a converged fit result")
    p = simulate_power(result.params, weather, topo, g_min, alpha_isc)
    return ForecastSeries(weather.timestamp, p, model="pvpro")
