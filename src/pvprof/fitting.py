"""Estimation of single-diode parameters from production telemetry.

The estimator solves the nonlinear least-squares problem of matching
simulated to measured DC voltage and current, each normalized by its
nameplate MPP value, over a window of retained records.  A fit takes the
system it fits: the array topology and the module datasheet give the loss
scales, the photocurrent temperature coefficient and the box
(``default_bounds``).  Saturation current and shunt resistance are
optimized in log10 space.

The solver is a projected Levenberg-Marquardt method, and ``fit_windows``
runs it on any number of independent windows at once.  Each window keeps
its own 5x5 normal equations, damping, accept/reject decision and stop;
the windows share only the MPP solves: every residual evaluation stacks the
records of the windows still running into one
``sdm.simulate_array_mpp_arrays`` call, and the Jacobians of the windows
whose steps were accepted come from one ``sdm.mpp_sensitivities_arrays``
call: implicit differentiation at the solution just found, from the
operating coefficients, parameter rows and records of that evaluation, so
nothing is translated or solved twice.  Each solve warm-starts from the
window's previously solved vector; ``loss`` solves cold.  The solver
settings are fixed: at most 200 residual evaluations per window, and the
stop rules of scipy's trust-region-reflective method, which fitted these
windows before: a relative cost reduction below 1e-10, a step below 1e-8
of the point's norm, or a bound-scaled gradient below 1e-8.  Iterates stay
strictly inside the box.

Every fit starts from the datasheet's initial guess (``initial_guess``),
so a fit depends only on its window and its system: each periodic update
is a fresh estimate.  A few days of MPP data barely constrain the shunt, so
each fit adds one prior row on log10 ``r_sh_ref``: half a decade wide,
centred on the datasheet extraction, weighted by a noise estimate from the
start's residuals; the result says when the prior, not the data, set the
shunt (``FitWindowResult.shunt_from_prior``).
``rolling_fit``, the one re-fitting loop of ``pvprof fit`` and the
benchmark, fits the window ``[end - length, end)`` before each given end.
It reads its slices from the run's ``preprocess.TrainingWindows`` and plans
them on the run's ``SolvedWindows``, which keeps fits by window content: its
first fit solves every window of the run in one batch, each distinct once.
``simulate_power`` turns a parameter set, or one parameter row per sample,
into array MPP power over arrays of irradiance and cell temperature;
``analysis.predict_model`` calls it for every physical model, and stacks
the days of one model into one call.
"""

import contextlib
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import sdm
from .exceptions import (ConfigError, ExtractionError, FitDegeneracyError,
                         InsufficientDataError, NumericalError, PvprofError)
from .preprocess import PreprocessConfig, TrainingWindows
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
# (the start's included), the relative cost-reduction stop, and the step
# and scaled-gradient stops at the defaults of scipy's ``least_squares``
_MAX_EVALUATIONS = 200
_LOSS_TOLERANCE = 1e-10
_STEP_TOLERANCE = 1e-8
_GRADIENT_TOLERANCE = 1e-8
# a step that would reach a bound stops at this share of the distance
_BOUND_STEP = 0.995
# the damping of a window's first step, relative to the largest curvature
# of its normal equations: small, for a start believed to be good
_INITIAL_DAMPING = 1e-6
# width, in decades, of the prior on log10 r_sh_ref that every window fit
# adds: a few days of MPP data barely constrain the shunt
_SHUNT_PRIOR_DECADES = 0.5
_SHUNT = PARAM_ORDER.index("r_sh_ref")
_EYE = np.eye(5)
_TINY, _EPS = np.finfo(float).tiny, np.finfo(float).eps


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
    was singular): the fitted shunt then reflects the datasheet more than
    the data.  ``iterations`` counts Jacobian evaluations.
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
    """Starting parameters of every window fit of a system.

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


def _columns(nat):
    # the five parameter columns of ``nat``, as views
    return tuple(nat[..., k] for k in range(5))


class _Solved(NamedTuple):
    """A solve at transformed ``x``: its natural parameters and the
    ``sdm.ArrayMpp`` of each record."""

    nat: np.ndarray
    mpp: sdm.ArrayMpp

    def select(self, keep):
        """The rows ``keep`` of a solve with one parameter row per record."""
        mpp = self.mpp
        return _Solved(self.nat[keep], sdm.ArrayMpp(
            mpp.v_dc[keep], mpp.i_dc[keep], mpp.p_dc[keep],
            tuple(op[keep] for op in mpp.ops)))


def _simulate(x, window: TelemetrySeries, topo, datasheet, start=None):
    """The array MPP of each record at transformed ``x``, as ``_Solved``.

    ``x`` has a trailing axis of the five parameters, and its leading axes
    broadcast against the records: one vector (5,), one row per record
    (N, 5), or a stack of vectors (P, 1, 5).  ``start`` is a solution at
    nearby parameters to warm-start the solve from.
    """
    nat = _to_natural(x)
    return _Solved(nat, sdm.simulate_array_mpp_arrays(
        *_columns(nat), window.g_poa, window.t_module, topo,
        datasheet.alpha_isc, start=start))


def _residuals(x, window: TelemetrySeries, topo, datasheet, solved=None):
    """Normalized voltage then current residuals, shape (..., 2N).

    ``solved`` is ``_simulate(x, ...)`` when the caller has it already.
    """
    mpp = (solved or _simulate(x, window, topo, datasheet)).mpp
    v_scale, i_scale = _scales(datasheet, topo)
    return np.concatenate([(window.v_dc - mpp.v_dc) / v_scale,
                           (window.i_dc - mpp.i_dc) / i_scale], axis=-1)


def _jacobian(solved, window: TelemetrySeries, topo, datasheet, out=None):
    """Exact Jacobian of ``_residuals`` at the one vector or one row per
    record ``x`` of ``solved = _simulate(x, ...)``, as (2, N, 5): the
    voltage rows, then the current rows.  It is written into ``out``, an
    array or view of that shape, when given.

    The MPP sensitivities come from implicit differentiation at that
    solution and its operating coefficients, so nothing is translated or
    solved again.  A record the solve could not handle gives non-finite
    rows, not zeros.
    """
    nat, mpp = solved
    _, i_0_ref, _, r_sh_ref, n_diode = _columns(nat)
    dv, di = sdm.mpp_sensitivities_arrays(
        mpp.v_dc, mpp.i_dc, mpp.ops, i_0_ref, r_sh_ref, n_diode,
        window.g_poa, topo)
    # d(natural)/dx is 1 on the linear and nat*ln(10) on the log10 columns
    chain = np.where(_LOG_MASK, nat * math.log(10.0), 1.0)
    v_scale, i_scale = _scales(datasheet, topo)
    if out is None:
        out = np.empty((2,) + dv.shape)
    np.multiply(dv / -v_scale, chain, out=out[0])
    np.multiply(di / -i_scale, chain, out=out[1])
    return out


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


class _Evaluation(NamedTuple):
    """One solve of the ``active`` windows: their stacked ``records``, the
    ``_Solved`` at one parameter row per record, the data residuals (2, N)
    (voltage row, current row) and each active window's sum of squared
    data residuals."""

    active: np.ndarray
    records: TelemetrySeries
    solved: _Solved
    r: np.ndarray
    sums: np.ndarray


class _Batch:
    """The records of independent windows, stacked window after window,
    and the shunt prior row of each window: its own weight, and the one
    centre of every window, the start's log10 ``r_sh_ref``.

    ``active`` is a boolean mask over the windows; an evaluation solves the
    records of the active windows only, in window order, and every sum runs
    over one window's own records.
    """

    def __init__(self, windows, topo, datasheet):
        self.topo = topo
        self.datasheet = datasheet
        self.counts = np.array([len(w) for w in windows])
        self.records = TelemetrySeries(*(
            np.concatenate([getattr(w, name) for w in windows])
            for name in ("timestamp", "g_poa", "t_module", "v_dc", "i_dc")))
        # the prior row w*(log10 r_sh_ref - c) of each window; w = 0 is none
        self.weight = np.zeros(len(windows))
        self.centre = 0.0

    def record_mask(self, active):
        """Which stacked records belong to the ``active`` windows."""
        return np.repeat(active, self.counts)

    def evaluate(self, x, active, start=None):
        """Solve the active windows at their rows of transformed ``x``, one
        parameter row per record; an ``_Evaluation``."""
        records = (self.records if active.all()
                   else self.records.select(self.record_mask(active)))
        counts = self.counts[active]
        rows = x[active].repeat(counts, axis=0)
        solved = _simulate(rows, records, self.topo, self.datasheet, start)
        r = _residuals(rows, records, self.topo, self.datasheet,
                       solved).reshape(2, -1)
        return _Evaluation(active, records, solved, r, np.add.reduceat(
            (r * r).sum(axis=0), counts.cumsum() - counts))

    def normal_equations(self, x, evaluation, accepted):
        """Each ``accepted`` window's gradient Jᵀr (W, 5) and curvature JᵀJ
        (W, 5, 5) of half its sum of squares at ``x``, the prior row
        included, from ``evaluation``, a solve at ``x`` of a superset of
        the accepted windows.

        Both come from one Gram product AᵀA per window, where A = [J | r]
        holds the window's residual rows, record by record, as one
        contiguous block."""
        records, solved, r = (evaluation.records, evaluation.solved,
                              evaluation.r)
        solved_for = evaluation.active
        if (accepted != solved_for).any():
            # some windows solved were rejected: keep the others' records
            keep = np.repeat(accepted[solved_for], self.counts[solved_for])
            records, solved, r = (records.select(keep), solved.select(keep),
                                  r[:, keep])
        # [J | r] with a record's voltage and current rows side by side, so
        # that each window's rows are one contiguous block A of the stack;
        # the Jacobian is written into it through a (2, N, 5) view
        aug = np.empty((r.shape[1], 2, 6))
        _jacobian(solved, records, self.topo, self.datasheet,
                  out=aug[..., :5].swapaxes(0, 1))
        aug[..., 5] = r.T
        rows = aug.reshape(-1, 6)
        sizes = 2 * self.counts[accepted]
        ends = sizes.cumsum()
        gram = np.empty((len(sizes), 6, 6))
        for k, (start, end) in enumerate(zip(ends - sizes, ends)):
            block = rows[start:end]
            np.matmul(block.T, block, out=gram[k])
        grad, normal = gram[:, :5, 5], gram[:, :5, :5]
        weight = self.weight[accepted]
        grad[:, _SHUNT] += weight * self.prior(x)[accepted]
        normal[:, _SHUNT, _SHUNT] += weight * weight
        return grad, normal

    def prior(self, x):
        """The prior row's residual of every window at ``x``."""
        return self.weight * (x[:, _SHUNT] - self.centre)


def _check_window(window: TelemetrySeries):
    if len(window) < 50:
        raise InsufficientDataError(
            f"window has {len(window)} retained records, need >= 50")
    if window.timestamp[-1] - window.timestamp[0] < DAY:
        raise InsufficientDataError("window must span at least one day")


def fit_window(window: TelemetrySeries, topo: sdm.ArrayTopology, datasheet,
               solved=None) -> FitWindowResult:
    """Fit the five parameters to one window of retained telemetry.

    ``fit_windows`` on a batch of this one window; its docstring states the
    solver, the stop rules, the prior row and ``solved``.  ``rolling_fit``
    fits each of its windows through here.
    """
    return fit_windows([window], topo, datasheet, solved)[0]


def fit_windows(windows, topo: sdm.ArrayTopology, datasheet, solved=None):
    """Fit the five parameters to each of independent windows of retained
    telemetry, one ``FitWindowResult`` per window.

    Every window starts from ``initial_guess(datasheet)``, clipped into
    ``default_bounds(datasheet.i_sc)``; a start within 1e-10 (relative) of
    a bound is moved that far inside.  The solver is a projected
    Levenberg-Marquardt method on the residual vector in the transformed
    (log10/linear) parameter space.  Each step solves the window's damped
    normal equations ``(JᵀJ + lam*c*I) dx = -Jᵀr``, ``c`` the largest
    diagonal entry of JᵀJ; a component that would reach a bound is held at
    0.995 of its distance and the others solved again, so every solved
    point lies strictly inside the box.  A step that lowers the cost is
    accepted, and the Jacobian is taken there from the solve just done; a
    step that does not, or whose residuals are not finite, is rejected and
    the damping raised.  The damping follows Nielsen's gain-ratio rule.

    A window stops, ``converged``, at the first of scipy
    ``least_squares``' tolerance stops: an accepted step whose relative cost
    reduction is below 1e-10 (with a gain ratio above 0.25), a step shorter
    than 1e-8*(1e-8 + |x|), or a bound-scaled gradient (Coleman-Li) below
    1e-8 in max-norm.  At 200 residual evaluations, the start's included,
    it stops unconverged at its best point.  ``iterations`` counts
    Jacobians, the one at the final point included.

    One prior row ``w*(log10 r_sh_ref - c)`` joins the data residuals: ``c``
    is the clipped start's, the same for every window, and ``w = s/0.5``, a
    half-decade width scaled by the window's noise ``s``, estimated once
    from successive differences of its residuals at the start.  A noiseless
    window (``s = 0``) fits without it.
    ``final_loss`` is the data term alone; ``shunt_from_prior`` is set when
    the prior supplies over half of the curvature in log10 ``r_sh_ref`` at
    the result.

    Every evaluation stacks the records of the windows still running into
    one MPP solve, and a window's result does not depend on the other
    windows in the batch.  Every record must be solvable at the start.  If
    any window fails, the error of the lowest-index failing window is
    raised: ``InsufficientDataError`` for fewer than 50 records or a span
    under a day, ``NumericalError`` for non-finite residuals at the start
    or non-finite MPP sensitivities at an accepted point.  A batch of one
    window, ``fit_window``, takes this same path.

    The windows are solved through ``solved``, a ``SolvedWindows`` of this
    system (a new one when None): a window it holds is not solved again,
    and the rest are solved in one batch with the windows planned on it.
    """
    windows = list(windows)
    if solved is None:
        solved = SolvedWindows(topo, datasheet)
    elif (solved.topo, solved.datasheet) != (topo, datasheet):
        raise ConfigError("the solved windows belong to another system")
    outcomes = solved.solve(windows)
    for outcome in outcomes:
        if isinstance(outcome, PvprofError):
            # the record keeps one error object for every consumer: each
            # raise starts a fresh traceback rather than growing the last
            raise outcome.with_traceback(None)
    return outcomes


def _window_key(window: TelemetrySeries):
    # the bytes of the five record arrays (``TelemetrySeries`` fixes their
    # dtypes): windows with equal keys are the same fit.  A dict compares
    # these bytes, not only their hashes
    return tuple(getattr(window, name).tobytes() for name in (
        "timestamp", "g_poa", "t_module", "v_dc", "i_dc"))


class SolvedWindows:
    """The window fits of one system, each distinct window solved once.

    Every fit starts from the system's datasheet, so two windows are the
    same fit when their five record arrays are equal byte for byte.
    ``plan`` names windows whose fits are wanted later; the next ``solve``
    fits them together with its own new windows in one batch of
    ``fit_windows``' solver.  A window's outcome is its ``FitWindowResult``
    or the ``InsufficientDataError`` or ``NumericalError`` its fit raises;
    by the batch independence of ``fit_windows`` it does not depend on the
    windows solved with it.  Keep one for the fits of one run, and pass it
    to them: a record that outlived its run would answer the next run's
    fits from memory.
    """

    def __init__(self, topo: sdm.ArrayTopology, datasheet):
        self.topo = topo
        self.datasheet = datasheet
        self._outcomes = {}
        self._planned = {}

    def plan(self, windows):
        """Solve ``windows`` with the next ``solve``."""
        for window in windows:
            key = _window_key(window)
            if key not in self._outcomes:
                self._planned[key] = window

    def solve(self, windows):
        """The outcome of each window, in order.  The windows not held yet
        and the planned ones are checked, and the valid ones solved in one
        batch."""
        self.plan(windows)
        pending, self._planned = self._planned, {}
        batch = {}
        for key, window in pending.items():
            try:
                _check_window(window)
            except InsufficientDataError as exc:
                self._outcomes[key] = exc
            else:
                batch[key] = window
        if batch:
            self._outcomes.update(zip(batch, _solve(
                list(batch.values()), self.topo, self.datasheet)))
        return [self._outcomes[_window_key(window)] for window in windows]


# a window's state in ``_solve``: still running, stopped by a tolerance
# (converged), stopped at the evaluation cap, or failed
_RUNNING, _CONVERGED, _CAPPED, _FAILED = range(4)


def _solve(windows, topo, datasheet):
    """The batched solver of ``fit_windows``: one ``FitWindowResult`` or
    ``NumericalError`` per window."""
    bounds = default_bounds(datasheet.i_sc)
    lo_nat = np.array([bounds[n][0] for n in PARAM_ORDER])
    hi_nat = np.array([bounds[n][1] for n in PARAM_ORDER])
    lo, hi = _to_transformed(lo_nat), _to_transformed(hi_nat)
    inside = np.nextafter(lo, hi), np.nextafter(hi, lo)
    batch = _Batch(windows, topo, datasheet)
    n = len(windows)
    # the module global, so that a wrapper bound to it sees the call
    start = _to_transformed(np.clip(initial_guess(datasheet).as_array(),
                                    lo_nat, hi_nat))
    batch.centre = start[_SHUNT]
    x = np.tile(_strictly_inside(start, lo, hi), (n, 1))

    status = np.full(n, _RUNNING)
    errors = [None] * n
    evaluations = np.ones(n, dtype=int)
    jacobians = np.zeros(n, dtype=int)
    damping = np.full(n, _INITIAL_DAMPING)
    growth = np.full(n, 2.0)
    grad = np.zeros((n, 5))
    normal = np.zeros((n, 5, 5))

    evaluation = batch.evaluate(x, np.ones(n, dtype=bool))
    data_ss = evaluation.sums
    # the warm start of each record's next solve: its last solution
    last_v, last_i = evaluation.solved.mpp.v_dc, evaluation.solved.mpp.i_dc
    for k in np.flatnonzero(~np.isfinite(data_ss)):
        errors[k] = NumericalError("non-finite residuals at the initial guess")
        status[k] = _FAILED
    offsets = np.cumsum(batch.counts) - batch.counts
    for k in np.flatnonzero(status == _RUNNING):
        window_r = evaluation.r[:, offsets[k]:offsets[k] + batch.counts[k]]
        batch.weight[k] = _noise_scale(window_r) / _SHUNT_PRIOR_DECADES

    def take_jacobians(accepted, evaluation):
        # the Jacobian of each accepted window at the solve just done
        jacobians[accepted] += 1
        g, a = batch.normal_equations(x, evaluation, accepted)
        grad[accepted], normal[accepted] = g, a
        bad = accepted.copy()
        bad[accepted] = ~(np.isfinite(g).all(axis=1)
                          & np.isfinite(a).all(axis=(1, 2)))
        for k in np.flatnonzero(bad):
            errors[k] = NumericalError("non-finite MPP sensitivities")
            status[k] = _FAILED

    take_jacobians(status == _RUNNING, evaluation)
    cost = 0.5 * (data_ss + batch.prior(x) ** 2)
    # a rejected or failed trial may divide by zero or compare NaN
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            running = status == _RUNNING
            # least_squares' gradient stop: each component scaled by the
            # distance to the bound the descent direction points at
            room = np.where(grad < 0, hi - x, x - lo)
            small = running & (np.abs(grad * room).max(axis=1)
                               < _GRADIENT_TOLERANCE)
            status[small] = _CONVERGED
            status[running & ~small
                   & (evaluations >= _MAX_EVALUATIONS)] = _CAPPED
            running = status == _RUNNING
            if not running.any():
                break
            # the running windows' rows: while every window runs, the
            # arrays themselves (views), not masked copies
            every = running.all()
            rows = slice(None) if every else running
            xr, g, a = x[rows], grad[rows], normal[rows]
            step = _damped_step(xr, g, a, damping[rows], lo, hi)
            trial = np.minimum(np.maximum(xr + step, inside[0]), inside[1])
            step = trial - xr

            if every:
                x_trial = trial
                evaluation = batch.evaluate(x_trial, running,
                                            (last_v, last_i))
                last_v, last_i = evaluation.solved.mpp[:2]
            else:
                x_trial = x.copy()
                x_trial[running] = trial
                keep = batch.record_mask(running)
                evaluation = batch.evaluate(x_trial, running,
                                            (last_v[keep], last_i[keep]))
                last_v[keep], last_i[keep] = evaluation.solved.mpp[:2]
            ss = evaluation.sums
            evaluations[rows] += 1
            new_cost = 0.5 * (ss + batch.prior(x_trial)[rows] ** 2)
            finite = np.isfinite(new_cost)
            reduction = cost[rows] - new_cost
            predicted = -(g * step).sum(axis=1) - 0.5 * (
                step * (a @ step[..., None])[..., 0]).sum(axis=1)
            ratio = reduction / predicted
            accept = finite & (reduction > 0)
            # Nielsen's rule: shrink the damping by how well the quadratic
            # model predicted an accepted step, grow it on every rejection
            shrink = np.maximum(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
            damping[rows] = np.where(accept, damping[rows] * shrink,
                                     damping[rows] * growth[rows])
            growth[rows] = np.where(accept, 2.0, 2.0 * growth[rows])
            stop = finite & (
                (accept & (reduction < _LOSS_TOLERANCE * cost[rows])
                 & (ratio > 0.25))
                | (np.sqrt((step * step).sum(axis=1)) < _STEP_TOLERANCE * (
                    _STEP_TOLERANCE + np.sqrt((xr * xr).sum(axis=1)))))

            accepted = running.copy()
            accepted[rows] = accept
            if accept.any():
                x[accepted] = x_trial[accepted]
                cost[accepted] = new_cost[accept]
                data_ss[accepted] = ss[accept]
                take_jacobians(accepted, evaluation)
            stopped = running.copy()
            stopped[rows] = stop
            status[stopped & (status == _RUNNING)] = _CONVERGED

    results = []
    for k, window in enumerate(windows):
        if status[k] == _FAILED:
            results.append(errors[k])
            continue
        nat = np.clip(_to_natural(x[k]), lo_nat, hi_nat)
        results.append(FitWindowResult(
            window_start=window.timestamp[0], window_end=window.timestamp[-1],
            params=sdm.SdmParamsRef.from_array(nat),
            final_loss=float(data_ss[k]) / len(window),
            iterations=int(jacobians[k]),
            converged=bool(status[k] == _CONVERGED),
            n_points=len(window),
            shunt_from_prior=_prior_dominates(normal[k], batch.weight[k])))
    return results


def _damped_step(x, grad, normal, damping, lo, hi):
    """Each window's Levenberg-Marquardt step from ``x``, kept inside the box.

    The damped normal equations ``(JᵀJ + damping*c*I) dx = -Jᵀr`` are
    solved, with ``c`` the largest diagonal entry of JᵀJ.  A component that
    would reach a bound is held at 0.995 of its distance to it, and the
    other components are solved again with it held, until no free one
    reaches a bound: a coordinate pressed against a bound then no longer
    bends the step of the rest.
    """
    # in units of the largest curvature, so the damping is relative to it;
    # damping at machine precision or above keeps the system non-singular
    unit = np.maximum(normal.diagonal(0, 1, 2).max(axis=1), _TINY)[:, None]
    damping = np.maximum(damping, _EPS)
    system = normal / unit[..., None] + damping[:, None, None] * _EYE
    rhs = -grad / unit
    step = np.linalg.solve(system, rhs[..., None])[..., 0]
    lower, upper = _BOUND_STEP * (lo - x), _BOUND_STEP * (hi - x)
    held = np.zeros(step.shape, dtype=bool)
    # each pass holds at least one more component, so at most five run
    while True:
        crossing = ~held & ((step < lower) | (step > upper))
        if not crossing.any():
            return step
        held |= crossing
        fixed = np.where(held, np.clip(step, lower, upper), 0.0)
        # the held columns move to the right-hand side
        free = ~held
        reduced = np.where(free[:, :, None] & free[:, None, :], system,
                           _EYE)
        b = np.where(held, fixed, rhs - (system @ fixed[..., None])[..., 0])
        again = crossing.any(axis=1)[:, None]
        step = np.where(again, np.linalg.solve(reduced, b[..., None])[..., 0],
                        step)
        step = np.where(held, fixed, step)


def _strictly_inside(x, lo, hi):
    """``x`` with each coordinate within 1e-10 (relative) of a bound moved
    that far inside, as ``least_squares`` moves its start."""
    lo_gap = 1e-10 * np.maximum(1.0, np.abs(lo))
    hi_gap = 1e-10 * np.maximum(1.0, np.abs(hi))
    return np.clip(x, lo + lo_gap, hi - hi_gap)


def _noise_scale(r):
    """Robust residual noise from successive differences of the voltage and
    the current series: 1.4826*median(|diff|)/sqrt(2).

    Differences cancel the smooth mismatch of a wrong start, which an RMS
    would count as noise.
    """
    steps = np.diff(np.reshape(r, (2, -1)), axis=1)
    return 1.4826 * float(np.median(np.abs(steps))) / math.sqrt(2.0)


def _prior_dominates(normal, weight):
    """Whether the prior row of ``weight`` supplies over half the curvature
    in log10 ``r_sh_ref``: the marginal information 1/[(JᵀJ)⁻¹] of that
    coordinate is below 2*weight², where ``normal`` is JᵀJ with the prior
    row.  A singular JᵀJ counts as dominated."""
    try:
        variance = np.linalg.inv(normal)[_SHUNT, _SHUNT]
    except np.linalg.LinAlgError:
        return True
    return not (variance > 0.0 and 1.0 / variance >= 2.0 * weight * weight)


def update_schedule(series: TelemetrySeries, window_length, update_period):
    """The window ends of periodic re-fits over ``series``: the first record
    plus ``window_length``, then every ``update_period`` up to the end of
    the data (the last record plus the cadence)."""
    window_length, update_period = (np.timedelta64(window_length),
                                    np.timedelta64(update_period))
    zero = np.timedelta64(0, "s")
    # NaT compares False, so it is rejected too
    if not (window_length > zero and update_period > zero):
        raise ConfigError("window length and update period must be positive")
    if len(series) < 2:
        raise InsufficientDataError("series too short for rolling fits")
    data_end = series.timestamp[-1] + series.cadence()
    first = series.timestamp[0] + window_length
    if data_end < first:
        raise InsufficientDataError("series shorter than one window")
    return first + update_period * np.arange(
        (data_end - first) // update_period + 1)


def rolling_fit(series: TelemetrySeries, topo: sdm.ArrayTopology,
                window_length, window_ends, datasheet,
                preprocess: PreprocessConfig = PreprocessConfig(),
                solved=None, windows=None):
    """One ``fit_window`` per end, in order, on ``training_window`` of
    ``[end - window_length, end)``, labelled with that span.

    The slices come from ``windows``, the run's ``TrainingWindows`` of
    ``series`` and ``preprocess`` (a new one when None), so a window that
    another reader of the run has masked is not masked again.  Every window
    is planned on ``solved``, the run's ``SolvedWindows`` (a new one when
    None), so the first fit solves all of them, with any planned before, in
    one batch.  A failed window, in its masking or its fit, is recorded,
    not raised: its ``error``, the initial guess, a NaN loss, 0 iterations,
    and its records before masking.
    """
    series.validate()
    windows = TrainingWindows.of(series, preprocess, windows)
    if solved is None:
        solved = SolvedWindows(topo, datasheet)
    window_length = np.timedelta64(window_length)
    guess = initial_guess(datasheet)
    for end in window_ends:
        # a masking error is read again, and recorded, by the fit below
        with contextlib.suppress(InsufficientDataError):
            solved.plan([windows.get(end, window_length)])
    results = []
    for end in window_ends:
        start = end - window_length
        try:
            retained = windows.get(end, window_length)
            result = replace(fit_window(retained, topo, datasheet, solved),
                             window_start=start, window_end=end)
        except (InsufficientDataError, NumericalError) as exc:
            result = FitWindowResult(
                window_start=start, window_end=end, params=guess,
                final_loss=float("nan"), iterations=0, converged=False,
                n_points=len(series.slice_time(start, end)), error=str(exc))
        results.append(result)
    return results


def simulate_power(params, g_poa, t_cell, topo: sdm.ArrayTopology,
                   g_min=50.0, alpha_isc=0.0):
    """Array MPP power at each (g_poa, t_cell) sample; zero below ``g_min``.

    ``params`` is one ``SdmParamsRef`` for every sample, or an (N, 5)
    array of parameter rows in ``PARAM_ORDER``, one per sample: the days of
    several parameter sets then solve in one call.  The MPP solve stops
    each row on its own, so a sample's power does not depend on the rows
    solved with it.
    """
    if isinstance(params, sdm.SdmParamsRef):
        params = params.as_array()
    mpp = sdm.simulate_array_mpp_arrays(
        *_columns(np.asarray(params, dtype=float)), g_poa, t_cell, topo,
        alpha_isc)
    return np.where(g_poa < g_min, 0.0, mpp.p_dc)
