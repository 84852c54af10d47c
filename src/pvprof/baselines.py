"""Comparison models for day-ahead power conversion.

Smart and naive persistence, the nominal datasheet-parameterized diode model
(five-condition extraction at standard test conditions), and closed-form
linear / RBF-kernel ridge regressors with a grid search that treats the
training-data length as a hyperparameter.  The kernel-ridge functions
import scipy's ``linalg`` and ``spatial`` themselves, so a command that
runs no kernel ridge does not load them.
"""

import itertools
import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import sdm
from .exceptions import (ConfigError, DataError, ExtractionError,
                         InsufficientDataError, TrainingError,
                         finite_number, whole_number)
from .series import hour_of_day, require_aligned, _as_timestamps

_VTH_REF = sdm.K_BOLTZMANN * sdm.T_REF_K / sdm.Q_ELEMENTARY
# Newton steps of the datasheet extraction, per seed
_NEWTON_ITERATIONS = 100


@dataclass(frozen=True)
class Datasheet:
    """Module nameplate values at standard test conditions: finite numbers,
    kept as floats, and a whole ``cells_in_series`` >= 1, with the MPP
    inside the open-circuit and short-circuit corner (``ConfigError``
    otherwise, naming the field)."""

    v_oc: float
    i_sc: float
    v_mp: float
    i_mp: float
    beta_voc: float       # V/degC
    cells_in_series: int
    alpha_isc: float = 0.0   # A/degC

    def __post_init__(self):
        for f in fields(self):
            rule = whole_number if f.name == "cells_in_series" \
                else finite_number
            object.__setattr__(self, f.name, rule(
                getattr(self, f.name), f"system.datasheet.{f.name}"))
        if not (0 < self.v_mp < self.v_oc and 0 < self.i_mp < self.i_sc
                and self.v_mp * self.i_mp < self.v_oc * self.i_sc):
            raise ConfigError(
                f"datasheet needs 0 < v_mp < v_oc, 0 < i_mp < i_sc and an MPP "
                f"power below v_oc * i_sc, got {self}")

    @property
    def desoto_params(self) -> sdm.SdmParamsRef:
        """The five reference parameters extracted from these values.

        The extraction runs on first use and its outcome is kept for the
        life of this (immutable) instance, so a run that reads it in many
        places pays for it once.  Raises ``ExtractionError`` as
        ``fit_desoto_from_datasheet`` does, on every read.
        """
        outcome = self._extraction
        if isinstance(outcome, ExtractionError):
            raise outcome
        return outcome

    @cached_property
    def _extraction(self):
        # the module global is looked up at call time, so a wrapped
        # fit_desoto_from_datasheet still sees the one call
        try:
            return fit_desoto_from_datasheet(self)
        except ExtractionError as exc:
            return exc


def synthesize_datasheet(params: sdm.SdmParamsRef, cells_in_series,
                         alpha_isc=0.0) -> Datasheet:
    """Nameplate values a module with these parameters would carry.

    The Voc temperature coefficient is the 25->35 degC finite difference of
    the modeled open-circuit voltage.
    """
    stc = sdm.OperatingConditions(sdm.G_REF, sdm.T_REF_C)
    op25 = sdm.translate_to_operating(params, stc, cells_in_series, alpha_isc)
    op35 = sdm.translate_to_operating(params, sdm.OperatingConditions(sdm.G_REF, 35.0),
                                      cells_in_series, alpha_isc)
    mpp = sdm.find_mpp(op25)
    voc25 = sdm.open_circuit_voltage(op25)
    voc35 = sdm.open_circuit_voltage(op35)
    return Datasheet(v_oc=voc25, i_sc=sdm.short_circuit_current(op25),
                     v_mp=mpp.v, i_mp=mpp.i, alpha_isc=alpha_isc,
                     beta_voc=(voc35 - voc25) / 10.0,
                     cells_in_series=cells_in_series)


def _extraction_residuals(z, ds: Datasheet):
    """Scaled residuals (P, 5) of the five STC conditions at each row of the
    (P, 5) stack ``z`` of ``(i_l, ln i_0, r_s, ln r_sh, a)``.

    An off-domain row, or one whose residuals are not all finite, comes back
    as ``inf`` in that row only.  The Voc temperature coefficient of every
    row comes from one open-circuit solve at 25 and 35 degC.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    f = np.full(z.shape, np.inf)
    ok = ((z[:, 4] > 1e-6) & (z[:, 1] > -60.0) & (z[:, 1] < 0.0)
          & (np.abs(z[:, 3]) < 40.0) & (z[:, 2] > -1.0))
    i_l, ln_i0, r_s, ln_rsh, a = z[ok].T
    i_0 = np.exp(ln_i0)
    r_sh = np.exp(ln_rsh)
    isc, voc, vmp, imp = ds.i_sc, ds.v_oc, ds.v_mp, ds.i_mp
    with np.errstate(all="ignore"):
        vd = vmp + imp * r_s
        e = np.exp(np.minimum(vd / a, 600.0))
        di_dv = -(i_0 * e / a + 1.0 / r_sh) \
            / (1.0 + i_0 * e * r_s / a + r_s / r_sh)
        n = a / (ds.cells_in_series * _VTH_REF)
        i_ph_t, i_0_t, _, r_sh_t, a_t = sdm.translate_arrays(
            *(x[:, None] for x in (i_l, i_0, r_s, r_sh, n)), sdm.G_REF,
            (25.0, 35.0), ds.cells_in_series, alpha_isc=ds.alpha_isc)
        voc_t = sdm.open_circuit_diode_voltage_arrays(i_ph_t, i_0_t, r_sh_t,
                                                      a_t)
        dvoc = (voc_t[:, 1] - voc_t[:, 0]) / 10.0
        rows = np.column_stack([
            (i_l - i_0 * np.expm1(isc * r_s / a) - isc * r_s / r_sh - isc)
            / isc,
            (i_l - i_0 * np.expm1(voc / a) - voc / r_sh) / isc,
            (i_l - i_0 * (e - 1.0) - vd / r_sh - imp) / isc,
            (imp + vmp * di_dv) / isc,
            (dvoc - ds.beta_voc) / max(abs(ds.beta_voc), 1e-3)])
    rows[~np.isfinite(rows).all(axis=1)] = np.inf
    f[ok] = rows
    return f


def _with_probes(z, ds):
    """Residuals at ``z`` and the central-difference Jacobian there.

    ``z`` and its 10 probes go through one batched residual call; the
    Jacobian is ``None`` where a probe is off-domain or non-finite.
    """
    h = 1e-6 * np.maximum(1.0, np.abs(z))
    f = _extraction_residuals(np.vstack([z, z + np.diag(h), z - np.diag(h)]),
                              ds)
    with np.errstate(invalid="ignore"):   # inf - inf at failed probes
        jac = (f[1:6] - f[6:]).T / (2.0 * h)
    return f[0], (jac if np.all(np.isfinite(jac)) else None)


def _damped_newton(z0, ds):
    # every trial point is evaluated with its Jacobian probes, so an
    # accepted step (the usual case) costs one residual call
    z = np.array(z0, dtype=float)
    f, jac = _with_probes(z, ds)
    norm = float(np.max(np.abs(f)))
    for _ in range(_NEWTON_ITERATIONS):
        if norm < 1e-11 or jac is None:
            return z, norm
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return z, norm
        t = 1.0
        while t > 1e-4:
            f_try, jac_try = _with_probes(z + t * step, ds)
            norm_try = float(np.max(np.abs(f_try)))
            if np.isfinite(norm_try) and norm_try < norm:
                z, f, jac, norm = z + t * step, f_try, jac_try, norm_try
                break
            t *= 0.5
        else:
            return z, norm
    return z, norm


def _ideality_from_beta_voc(ds: Datasheet):
    """The ideality factor at which Voc = a ln(Isc / I0) moves with
    temperature at ``ds.beta_voc``, under the photocurrent and
    saturation-current rules of `sdm.translate_arrays` with the band gap
    held at ``EG_REF_EV``; clipped to [0.5, 3], and 0.5 where undefined.

    The band gap's own slope (``EG_SLOPE_PER_K``) is left out.  It would
    put the seed nearer the answer (1.10 against 1.18 on a module of
    n = 1.1, two residual calls fewer), but Newton then stops at another
    point inside its tolerance, 2e-10 away (relative) in the shunt
    resistance, and forecasts move in their twelfth digit.
    """
    t = sdm.T_REF_K
    # d(Voc)/dT = Voc / T + n * per_n at the reference temperature
    per_n = ds.cells_in_series * (
        _VTH_REF * (ds.alpha_isc / ds.i_sc - 3.0 / t) - sdm.EG_REF_EV / t)
    n = (ds.beta_voc - ds.v_oc / t) / per_n if per_n else math.nan
    return min(3.0, max(0.5, n))   # max(0.5, nan) is 0.5


def fit_desoto_from_datasheet(ds: Datasheet) -> sdm.SdmParamsRef:
    """Extract the five diode parameters from nameplate values.

    Solves the five STC conditions -- the I-V curve through (0, Isc),
    (Voc, 0) and (Vmp, Imp), zero power slope at the MPP, and the modeled
    Voc temperature coefficient matching beta_voc -- by damped Newton
    iteration.  The first ideality seed is the one beta_voc implies
    (`_ideality_from_beta_voc`); a ladder of fixed seeds follows if it
    does not converge.  Each ideality seed is tried with three shunt seeds.

    Raises
    ------
    ExtractionError
        If no seed converges within 100 Newton steps, with the residual
        report of the best attempt.
    """
    rs0 = max(0.5 * (ds.v_oc - ds.v_mp) / ds.i_mp, 1e-3)
    best = None
    for n0 in (_ideality_from_beta_voc(ds), 1.5, 1.1, 2.0):
        for rsh_factor in (100.0, 10.0, 1000.0):
            a0 = n0 * ds.cells_in_series * _VTH_REF
            rsh0 = rsh_factor * ds.v_mp / ds.i_mp
            i00 = max((ds.i_sc - ds.v_oc / rsh0) / math.expm1(ds.v_oc / a0), 1e-25)
            z0 = np.array([ds.i_sc, math.log(i00), rs0, math.log(rsh0), a0])
            z, norm = _damped_newton(z0, ds)
            if best is None or norm < best[1]:
                best = (z, norm)
            if norm < 1e-11:
                break
        if best[1] < 1e-11:
            break
    z, norm = best
    if norm >= 1e-11:
        raise ExtractionError(
            f"datasheet extraction stalled at scaled residual {norm:.3e}; "
            f"residuals {_extraction_residuals(z, ds)[0]}")
    i_l, ln_i0, r_s, ln_rsh, a = (float(v) for v in z)
    try:
        params = sdm.SdmParamsRef(i_l, math.exp(ln_i0), r_s, math.exp(ln_rsh),
                                  a / (ds.cells_in_series * _VTH_REF))
    except ValueError as exc:
        raise ExtractionError(f"extracted parameters unphysical: {exc}") from exc

    stc = sdm.OperatingConditions(sdm.G_REF, sdm.T_REF_C)
    op = sdm.translate_to_operating(params, stc, ds.cells_in_series, ds.alpha_isc)
    isc_m = sdm.short_circuit_current(op)
    voc_m = sdm.open_circuit_voltage(op)
    pmp_m = sdm.find_mpp(op).p
    checks = (abs(isc_m - ds.i_sc) / ds.i_sc,
              abs(voc_m - ds.v_oc) / ds.v_oc,
              abs(pmp_m - ds.v_mp * ds.i_mp) / (ds.v_mp * ds.i_mp))
    if max(checks) > 1e-3:
        raise ExtractionError(
            f"extraction verification failed: Isc/Voc/Pmp relative errors {checks}")
    return params


def smart_persistence(p_hist: tuple, g_hist: tuple, g_future: tuple,
                      horizon=np.timedelta64(24, "h"),
                      g_min=50.0) -> np.ndarray:
    """Predicted power at the target timestamps: the power observed one
    horizon earlier, scaled by the irradiance ratio.

    ``p_hist`` and ``g_hist`` are (timestamps, values) pairs on the same
    axis; ``g_future`` holds the target timestamps and their irradiance.
    When the anchor sample is darker than ``g_min`` the anchor moves to the
    nearest earlier same-day sample at or above ``g_min`` (prediction is 0
    if the target is dark too, or no valid anchor exists).
    """
    ts_h, p = p_hist
    ts_g, g = g_hist
    ts_h = require_aligned(ts_h, ts_g, "power/irradiance histories")
    p = np.asarray(p, dtype=float)
    g = np.asarray(g, dtype=float)
    ts_f, g_f = g_future
    ts_f = _as_timestamps(ts_f)
    g_f = np.asarray(g_f, dtype=float)
    idx = _horizon_index(ts_h, ts_f, horizon)

    base_p = p[idx]
    base_g = g[idx]
    pred = np.zeros(ts_f.size)
    lit = base_g >= g_min
    pred[lit] = base_p[lit] * g_f[lit] / base_g[lit]
    day_of = ts_h.astype("datetime64[D]")
    for k in np.flatnonzero(~lit):
        if g_f[k] < g_min:
            continue
        j = idx[k] - 1
        src_day = day_of[idx[k]]
        while j >= 0 and day_of[j] == src_day:
            if g[j] >= g_min:
                pred[k] = p[j] * g_f[k] / g[j]
                break
            j -= 1
    return pred


def naive_persistence(p_hist: tuple, target_timestamps,
                      horizon=np.timedelta64(24, "h")) -> np.ndarray:
    """Predicted power at the target timestamps: the power observed one
    horizon earlier.  ``p_hist`` is a (timestamps, values) pair."""
    ts_h, p = p_hist
    ts_h = _as_timestamps(ts_h)
    p = np.asarray(p, dtype=float)
    ts_f = _as_timestamps(target_timestamps)
    idx = _horizon_index(ts_h, ts_f, horizon)
    return p[idx]


def _horizon_index(ts_h, ts_f, horizon):
    """Index into ``ts_h`` of each target time one ``horizon`` earlier."""
    source = ts_f - np.timedelta64(horizon)
    idx = np.searchsorted(ts_h, source)
    ok = (idx < ts_h.size) & (ts_h[np.minimum(idx, ts_h.size - 1)] == source)
    if not np.all(ok):
        raise DataError("history does not contain the horizon-shifted timestamps")
    return idx


def feature_matrix(timestamps, g_poa, t_module):
    """(n, 3) matrix of [g_poa, t_module, hour/24] rows."""
    hod = hour_of_day(timestamps) / 24.0
    return np.column_stack([np.asarray(g_poa, dtype=float),
                            np.asarray(t_module, dtype=float), hod])


@dataclass
class RegressorModel:
    family: str
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    hyperparams: dict
    weights: np.ndarray | None = None      # linear family
    dual_coef: np.ndarray | None = None    # kernel family
    x_train: np.ndarray | None = None      # standardized training inputs


def _check_hyperparam(name, value, positive):
    # a negative or NaN penalty, or a non-positive kernel width, trains
    # without error and predicts garbage, so such values never reach a solve
    if not (math.isfinite(value) and (value > 0.0 if positive
                                      else value >= 0.0)):
        bound = "> 0" if positive else ">= 0"
        raise ConfigError(f"{name} must be finite and {bound}, got {value}")


def _standardize(X, y):
    """Standardized features and centred targets of a training set.

    Returns ``(x_mean, x_std, Xs, y_mean, yc)``; raises
    ``InsufficientDataError`` below 20 pairs, ``DataError`` on a non-finite
    feature or target and ``TrainingError`` on a constant feature column.
    """
    if X.shape[0] < 20:
        raise InsufficientDataError(
            f"regressor training needs >= 20 pairs, have {X.shape[0]}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise DataError("regressor training needs finite features and targets")
    x_mean = X.mean(axis=0)
    x_std = X.std(axis=0)
    if np.any(x_std <= 1e-12 * (np.abs(x_mean) + 1.0)):
        raise TrainingError("constant feature column")
    y_mean = float(y.mean())
    return x_mean, x_std, (X - x_mean) / x_std, y_mean, y - y_mean


def _rbf_kernel(sqdist, gamma, out=None):
    """exp(-gamma * sqdist) elementwise, written into ``out`` (which may be
    ``sqdist`` itself)."""
    out = np.multiply(sqdist, -gamma, out=out)
    return np.exp(out, out=out)


def _kernel_dual(K, lam, yc, work):
    """Dual coefficients solving (K + lam I) a = yc by Cholesky.

    ``work`` is an (n, n) C-ordered buffer that receives K + lam I and then
    its factor; it may be ``K`` itself, which is then overwritten.  The
    factorization runs in place on the F-ordered transpose, which equals the
    matrix since it is symmetric.  Raises ``TrainingError`` if the system is
    not positive definite or the dual is not finite.
    """
    from scipy.linalg import LinAlgError, cho_factor, cho_solve

    if work is not K:
        np.copyto(work, K)
    work.ravel()[::work.shape[0] + 1] += lam
    try:
        factor = cho_factor(work.T, lower=True, overwrite_a=True,
                            check_finite=False)
        dual = cho_solve(factor, yc, check_finite=False)
    except LinAlgError as exc:
        raise TrainingError(f"kernel system not positive definite: {exc}") \
            from exc
    if not np.all(np.isfinite(dual)):
        raise TrainingError("kernel system gave a non-finite dual")
    return dual


def train_regressor(family, features, targets, hyperparams=None) -> RegressorModel:
    """Closed-form ridge fit on standardized features.

    ``linear`` solves the 3x3 normal equations with an unpenalized intercept;
    ``kernel_ridge`` solves the dual system (K + lam I) a = y - mean(y) with
    the RBF kernel K = exp(-gamma * ||x - x'||^2) by an in-place Cholesky
    factorization, the same steps ``grid_search`` scores each cell with.
    """
    hyperparams = dict(hyperparams or {})
    lam = float(hyperparams.setdefault("lam", 1e-3))
    _check_hyperparam("ridge lambda", lam, positive=False)
    X = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise DataError("features/targets shape mismatch")
    if family == "kernel_ridge":
        gamma = float(hyperparams.setdefault("gamma", 1.0))
        _check_hyperparam("RBF gamma", gamma, positive=True)
    elif family != "linear":
        raise ConfigError(f"unknown regressor family {family!r}")
    x_mean, x_std, Xs, y_mean, yc = _standardize(X, y)

    if family == "linear":
        A = Xs.T @ Xs + lam * np.eye(Xs.shape[1])
        try:
            w = np.linalg.solve(A, Xs.T @ yc)
        except np.linalg.LinAlgError as exc:
            raise TrainingError(f"singular normal equations: {exc}") from exc
        return RegressorModel("linear", x_mean, x_std, y_mean,
                              hyperparams, weights=w)
    from scipy.spatial.distance import cdist

    K = cdist(Xs, Xs, "sqeuclidean")
    dual = _kernel_dual(_rbf_kernel(K, gamma, out=K), lam, yc, work=K)
    return RegressorModel("kernel_ridge", x_mean, x_std, y_mean,
                          hyperparams, dual_coef=dual, x_train=Xs)


def predict_regressor(model: RegressorModel, features):
    """Evaluate a trained regressor; negative power is clamped to zero."""
    X = np.asarray(features, dtype=float)
    Xs = (X - model.x_mean) / model.x_std
    if model.family == "linear":
        y = Xs @ model.weights + model.y_mean
    else:
        from scipy.spatial.distance import cdist

        K = cdist(Xs, model.x_train, "sqeuclidean")
        _rbf_kernel(K, model.hyperparams["gamma"], out=K)
        y = K @ model.dual_coef + model.y_mean
    return np.maximum(y, 0.0)


DEFAULT_LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
DEFAULT_GAMMA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)
DEFAULT_TRAINING_LENGTHS = (3, 7, 14, 30, 60, 90)


@dataclass(frozen=True)
class GridSearchSpec:
    """The regressors' grids, each a nonempty list of numbers kept as a
    tuple, and the holdout in days, kept as a float; ``ConfigError``
    unless each value is in its documented range."""

    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    gamma_grid: tuple = DEFAULT_GAMMA_GRID
    training_lengths_days: tuple = DEFAULT_TRAINING_LENGTHS
    holdout_days: float = 1.0

    def __post_init__(self):
        for name in ("lambda_grid", "gamma_grid", "training_lengths_days"):
            grid = getattr(self, name)
            if not (isinstance(grid, (list, tuple)) and grid):
                raise ConfigError(f"regressors.{name} must be a nonempty "
                                  f"list, got {grid!r}")
            object.__setattr__(self, name, tuple(grid))
        lengths = self.training_lengths_days
        for length in lengths:
            # lengths are counted in int64 seconds, like the holdout
            days = finite_number(length, "regressors.training_lengths_days")
            if not 0 < days < 2.0 ** 63 / 86400:
                raise ConfigError(f"training lengths must be finite numbers "
                                  f"of days > 0 (at most 1e14), got "
                                  f"{length!r}")
        if any(a >= b for a, b in zip(lengths, lengths[1:])):
            raise ConfigError(f"training lengths must be strictly ascending, "
                              f"got {list(lengths)}")
        for lam in self.lambda_grid:
            _check_hyperparam("ridge lambda", finite_number(
                lam, "regressors.lambda_grid"), positive=False)
        for gamma in self.gamma_grid:
            _check_hyperparam("RBF gamma", finite_number(
                gamma, "regressors.gamma_grid"), positive=True)
        holdout = finite_number(self.holdout_days, "regressors.holdout_days")
        if not 0 < holdout * 86400 < 2.0 ** 63:
            raise ConfigError(f"holdout_days must be finite and > 0 (at most "
                              f"1e14), got {self.holdout_days!r}")
        object.__setattr__(self, "holdout_days", holdout)


@dataclass
class GridSearchResult:
    family: str
    best_hyperparams: dict
    best_length_days: float
    best_nmae: float
    table: list = field(default_factory=list)


def _kernel_ridge_holdout(spec, X, y, X_val):
    """Holdout predictions of every kernel-ridge (lambda, gamma) cell.

    The training set is standardized once and the holdout distances are
    built once; each gamma builds its kernel into one n x n buffer, and each
    lambda factors K + lam I into a second one.  Returns a dict keyed
    ``(lam, gamma)`` holding the prediction, or the reason a cell's system
    failed.
    """
    from scipy.spatial.distance import cdist

    x_mean, x_std, Xs, y_mean, yc = _standardize(X, y)
    val_sqdist = cdist((X_val - x_mean) / x_std, Xs, "sqeuclidean")
    n = Xs.shape[0]
    K = np.empty((n, n))
    work = np.empty((n, n))
    cells = {}
    for gamma in spec.gamma_grid:
        cdist(Xs, Xs, "sqeuclidean", out=K)
        _rbf_kernel(K, gamma, out=K)
        K_val = _rbf_kernel(val_sqdist, gamma)
        for lam in spec.lambda_grid:
            try:
                dual = _kernel_dual(K, lam, yc, work)
            except TrainingError as exc:
                cells[lam, gamma] = str(exc)
            else:
                cells[lam, gamma] = np.maximum(K_val @ dual + y_mean, 0.0)
    return cells


def _holdout_predictions(spec, family, X, y, X_val):
    """Holdout prediction, or the reason training failed, of each cell of
    one training length, keyed ``(lam, gamma)``; gamma is ``None`` for
    ``linear``."""
    if family == "kernel_ridge":
        return _kernel_ridge_holdout(spec, X, y, X_val)
    cells = {}
    for lam in spec.lambda_grid:
        try:
            model = train_regressor(family, X, y, {"lam": lam})
        except (TrainingError, InsufficientDataError) as exc:
            cells[lam, None] = str(exc)
        else:
            cells[lam, None] = predict_regressor(model, X_val)
    return cells


def grid_search(spec: GridSearchSpec, family, timestamps, features, targets,
                p_nominal, g_min=50.0) -> GridSearchResult:
    """Exhaustive hyperparameter x training-length search.

    Validation is a trailing holdout immediately before the data end; the
    selection minimizes holdout nMAE with ties broken toward smaller
    training length, then smaller lambda, then smaller gamma (the order of
    the table rows).  Cells without enough history are recorded as invalid
    and excluded, as are cells whose training fails.  A non-finite feature
    or target in a daylight holdout row raises ``DataError`` before any cell
    is scored.

    ``kernel_ridge`` shares work across the cells of one training length:
    one standardization, one RBF kernel per gamma and one in-place Cholesky
    factorization per lambda -- the steps ``train_regressor`` takes for a
    single cell, so the selected cell retrains to the model that was scored.
    ``linear`` trains each cell through ``train_regressor``.
    """
    ts = _as_timestamps(timestamps)
    X = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    cadence = np.median(np.diff(ts).astype("timedelta64[s]").astype(np.int64))
    data_end = ts[-1] + np.timedelta64(int(cadence), "s")
    holdout_start = data_end - np.timedelta64(
        int(round(spec.holdout_days * 86400)), "s")
    daylight = X[:, 0] >= g_min
    val = (ts >= holdout_start) & daylight
    if not np.any(val):
        raise InsufficientDataError("no daylight samples in the holdout")
    if not (np.all(np.isfinite(X[val])) and np.all(np.isfinite(y[val]))):
        raise DataError("holdout needs finite features and targets")

    gamma_grid = spec.gamma_grid if family == "kernel_ridge" else (None,)
    cell_keys = list(itertools.product(spec.lambda_grid, gamma_grid))
    table = []
    best = None
    for length in spec.training_lengths_days:
        train_start = holdout_start - np.timedelta64(int(length * 86400), "s")
        train = (ts >= train_start) & (ts < holdout_start) & daylight
        if ts[0] > train_start or train.sum() < 20:
            cells = dict.fromkeys(cell_keys, "insufficient history")
        else:
            try:
                cells = _holdout_predictions(spec, family, X[train],
                                             y[train], X[val])
            except TrainingError as exc:   # constant feature column
                cells = dict.fromkeys(cell_keys, str(exc))
        for lam, gamma in cell_keys:
            hp = {"lam": lam}
            if gamma is not None:
                hp["gamma"] = gamma
            row = {"length_days": length, **hp}
            pred = cells[lam, gamma]
            if isinstance(pred, str):
                row["valid"] = False
                row["note"] = pred
            else:
                nmae = float(np.mean(np.abs(pred - y[val])) / p_nominal)
                row["valid"] = True
                row["nmae"] = nmae
                if best is None or nmae < best[0]:
                    best = (nmae, hp, length)
            table.append(row)
    if best is None:
        raise InsufficientDataError("no valid grid cell")
    return GridSearchResult(family=family, best_hyperparams=best[1],
                            best_length_days=best[2], best_nmae=best[0],
                            table=table)
