"""Estimation of single-diode parameters from production telemetry.

The estimator solves the nonlinear least-squares problem of matching
simulated to measured DC voltage and current, each normalized by its
nameplate MPP value, over a window of retained records: bounded
trust-region-reflective least squares.  A fit takes the system it fits:
the array topology and the module datasheet give the loss scales, the
photocurrent temperature coefficient and the box (``default_bounds``).  The
solver settings are fixed: at most 200 residual evaluations and a relative
cost-reduction stop of 1e-10.  Each evaluated parameter vector costs one MPP
solve, warm-started from the solution at the previously evaluated
vector (a step away, in a trust-region method); the exact Jacobian at an
accepted point comes from that solution by implicit differentiation
(``sdm.mpp_sensitivities_arrays``).  ``loss`` solves cold.
Saturation current and shunt resistance are optimized in log10 space.
A few days of MPP data barely constrain the shunt, so each fit adds one
prior row on log10 ``r_sh_ref``: half a decade wide, centred on the fit's
own start, weighted by a noise estimate from the start's residuals; the
result says when the prior, not the data, set the shunt
(``FitWindowResult.shunt_from_prior``).
Rolling re-fits warm-start each window from the previous result, which
makes the shunt prior a random walk.
``simulate_power`` turns a parameter set into array MPP power over arrays
of irradiance and cell temperature; ``analysis.predict_model`` calls it for
every physical model.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import least_squares

from . import sdm
from .exceptions import (ConfigError, ExtractionError, FitDegeneracyError,
                         InsufficientDataError, NumericalError)
from .preprocess import PreprocessConfig, training_window
from .series import DAY, TelemetrySeries

PARAM_ORDER = sdm.PARAM_NAMES
# optimized in log10 space: their boxes span several decades
_LOG_PARAMS = ("i_0_ref", "r_sh_ref")
_LOG_MASK = np.isin(PARAM_ORDER, _LOG_PARAMS)


def default_bounds(i_sc_datasheet):
    """Fitting box: the photocurrent's scales with the datasheet Isc, the
    others are ``sdm.PARAM_BOX``."""
    return {"i_ph_ref": (0.1 * i_sc_datasheet, 2.0 * i_sc_datasheet),
            **sdm.PARAM_BOX}


# the solver settings of every window fit: a cap on the residual evaluations
# and the relative cost-reduction stop (``least_squares``' ``ftol``)
_MAX_EVALUATIONS = 200
_LOSS_TOLERANCE = 1e-10
# width, in decades, of the prior on log10 r_sh_ref that every window fit
# adds: a few days of MPP data barely constrain the shunt
_SHUNT_PRIOR_DECADES = 0.5
_SHUNT = PARAM_ORDER.index("r_sh_ref")
_SHUNT_ROW = np.eye(len(PARAM_ORDER))[_SHUNT]


def _scales(datasheet, topo: sdm.ArrayTopology):
    """Array nameplate MPP voltage and current: the units of the residuals."""
    return (datasheet.v_mp * topo.modules_per_string,
            datasheet.i_mp * topo.strings_in_parallel)


@dataclass
class FitWindowResult:
    """Outcome of one window fit.

    ``final_loss`` is the data term of ``loss`` at ``params``, without the
    shunt prior.  ``shunt_from_prior`` is set when the prior supplied over
    half of the curvature in log10 ``r_sh_ref`` (or the curvature matrix
    was singular): the fitted shunt then reflects the start more than the
    data.  ``iterations`` counts Jacobian evaluations.
    """

    window_start: np.datetime64
    window_end: np.datetime64
    params: sdm.SdmParamsRef
    final_loss: float
    iterations: int
    converged: bool
    n_points: int
    error: str | None = None
    shunt_from_prior: bool = False


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


def _simulate(x, window: TelemetrySeries, topo, datasheet, start=None):
    """Array MPP ``(v_sim, i_sim)`` of each record at transformed ``x``.

    ``x`` is one parameter vector (5,) or a stack (P, 5).  ``start`` is a
    solution at nearby parameters to warm-start the solve from.
    """
    nat = _to_natural(x)
    v_sim, i_sim, _ = sdm.simulate_array_mpp_arrays(
        *(nat[..., j, None] for j in range(5)), window.g_poa,
        window.t_module, topo, datasheet.alpha_isc, start=start)
    return v_sim, i_sim


def _residuals(x, window: TelemetrySeries, topo, datasheet, solved=None):
    """Normalized voltage then current residuals, shape (..., 2N).

    ``solved`` is ``_simulate(x, ...)`` when the caller has it already.
    """
    v_sim, i_sim = solved or _simulate(x, window, topo, datasheet)
    v_scale, i_scale = _scales(datasheet, topo)
    return np.concatenate([(window.v_dc - v_sim) / v_scale,
                           (window.i_dc - i_sim) / i_scale], axis=-1)


def _jacobian(x, solved, window: TelemetrySeries, topo, datasheet):
    """Exact Jacobian (2N, 5) of ``_residuals`` at one ``x``.

    ``solved`` is ``_simulate(x, ...)``; the MPP sensitivities come from
    implicit differentiation at that solution, so nothing is solved again.
    """
    nat = _to_natural(x)
    dv, di = sdm.mpp_sensitivities_arrays(
        *solved, *nat, window.g_poa, window.t_module, topo,
        datasheet.alpha_isc)
    # d(natural)/dx is 1 on the linear and nat*ln(10) on the log10 columns
    chain = np.where(_LOG_MASK, nat * math.log(10.0), 1.0)
    v_scale, i_scale = _scales(datasheet, topo)
    jac = np.concatenate([dv / -v_scale, di / -i_scale]) * chain
    if not np.all(np.isfinite(jac)):
        raise NumericalError("non-finite MPP sensitivities")
    return jac


def loss(params: sdm.SdmParamsRef, window: TelemetrySeries,
         topo: sdm.ArrayTopology, datasheet):
    """Mean normalized squared V/I mismatch per record of one parameter set.

    Raises ``FitDegeneracyError`` if any record is unsolvable.
    """
    if len(window) == 0:
        raise InsufficientDataError("empty window")
    r = _residuals(_to_transformed(params.as_array()), window, topo,
                   datasheet)
    unsolvable = np.count_nonzero(~np.isfinite(r.reshape(2, -1)).all(axis=0))
    if unsolvable:
        raise FitDegeneracyError(
            f"{unsolvable} of {len(window)} records unsolvable")
    return float(r @ r) / len(window)


def fit_window(window: TelemetrySeries, topo: sdm.ArrayTopology,
               init: sdm.SdmParamsRef, datasheet) -> FitWindowResult:
    """Fit the five parameters to one window of retained telemetry.

    Bounded trust-region-reflective least squares on the residual vector in
    the transformed (log/linear) parameter space, inside
    ``default_bounds(datasheet.i_sc)``.  At most 200 residual evaluations
    run; ``converged`` means a tolerance stop (such as the relative cost
    reduction falling below 1e-10) was met before that cap.  Every record
    must be solvable at ``init``.

    One prior row ``w*(log10 r_sh_ref - c)`` joins the data residuals: ``c``
    is the clipped start (the previous window's result in a rolling fit)
    and ``w = s/0.5``, a half-decade width scaled by the noise ``s``
    estimated once from successive differences of the residuals at the
    start.  A noiseless window (``s = 0``) fits without it.
    ``final_loss`` is the data term alone; ``shunt_from_prior`` is set when
    the prior supplies over half of the curvature in log10 ``r_sh_ref`` at
    the result.
    """
    if len(window) < 50:
        raise InsufficientDataError(
            f"window has {len(window)} retained records, need >= 50")
    span = window.timestamp[-1] - window.timestamp[0]
    if span < DAY:
        raise InsufficientDataError("window must span at least one day")

    bounds = default_bounds(datasheet.i_sc)
    lo = np.array([bounds[n][0] for n in PARAM_ORDER])
    hi = np.array([bounds[n][1] for n in PARAM_ORDER])
    x0 = _to_transformed(np.clip(init.as_array(), lo, hi))
    centre = x0[_SHUNT]
    # the last solved point: TRF asks for the Jacobian only at the point
    # whose residuals it has just evaluated; ``weight`` is the prior's,
    # fixed at the first evaluation
    last = {}

    def residuals(x):
        # TRF's successive points are close, so each solve starts from the
        # last one; its non-finite rows start cold
        solved = _simulate(x, window, topo, datasheet, last.get("solved"))
        r = _residuals(x, window, topo, datasheet, solved)
        # the first call is TRF's own evaluation of the (strictly feasible)
        # initial guess; later non-finite trial steps TRF rejects by itself
        if not last:
            if not np.all(np.isfinite(r)):
                raise NumericalError(
                    "non-finite residuals at the initial guess")
            last["weight"] = _noise_scale(r) / _SHUNT_PRIOR_DECADES
        last.update(x=x.copy(), solved=solved)
        if last["weight"] > 0.0:
            r = np.append(r, last["weight"] * (x[_SHUNT] - centre))
        return r

    def jacobian(x):
        if not np.array_equal(x, last["x"]):
            residuals(x)
        jac = _jacobian(x, last["solved"], window, topo, datasheet)
        if last["weight"] > 0.0:
            jac = np.vstack([jac, last["weight"] * _SHUNT_ROW])
        return jac

    # TRF only accepts steps that lower the cost, so res.x is the best iterate
    res = least_squares(residuals, x0, jac=jacobian, method="trf",
                        bounds=(_to_transformed(lo), _to_transformed(hi)),
                        ftol=_LOSS_TOLERANCE, max_nfev=_MAX_EVALUATIONS)
    nat = np.clip(_to_natural(res.x), lo, hi)
    data = res.fun[:2 * len(window)]
    return FitWindowResult(
        window_start=window.timestamp[0], window_end=window.timestamp[-1],
        params=sdm.SdmParamsRef.from_array(nat),
        final_loss=float(data @ data) / len(window),
        iterations=int(res.njev), converged=bool(res.status > 0),
        n_points=len(window),
        shunt_from_prior=_prior_dominates(res.jac, last["weight"]))


def _noise_scale(r):
    """Robust residual noise from successive differences of the voltage and
    the current series: 1.4826*median(|diff|)/sqrt(2).

    Differences cancel the smooth mismatch of a wrong start, which an RMS
    would count as noise.
    """
    steps = np.diff(r.reshape(2, -1), axis=1)
    return 1.4826 * float(np.median(np.abs(steps))) / math.sqrt(2.0)


def _prior_dominates(jac, weight):
    """Whether the prior row of ``weight`` supplies over half the curvature
    in log10 ``r_sh_ref``: the marginal information 1/[(JᵀJ)⁻¹] of that
    coordinate is below 2*weight².  A singular JᵀJ counts as dominated."""
    try:
        variance = np.linalg.inv(jac.T @ jac)[_SHUNT, _SHUNT]
    except np.linalg.LinAlgError:
        return True
    return not (variance > 0.0 and 1.0 / variance >= 2.0 * weight * weight)


def rolling_fit(series: TelemetrySeries, topo: sdm.ArrayTopology,
                window_length, update_period, init: sdm.SdmParamsRef,
                datasheet,
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
            result = fit_window(retained, topo, current, datasheet)
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


def simulate_power(params: sdm.SdmParamsRef, g_poa, t_cell,
                   topo: sdm.ArrayTopology, g_min=50.0, alpha_isc=0.0):
    """Array MPP power at each (g_poa, t_cell) sample; zero below ``g_min``."""
    _, _, p = sdm.simulate_array_mpp_arrays(
        params.i_ph_ref, params.i_0_ref, params.r_s, params.r_sh_ref,
        params.n_diode, g_poa, t_cell, topo, alpha_isc)
    return np.where(g_poa < g_min, 0.0, p)
