"""De Soto single-diode model of a PV module and its array scaling.

Implements the five-parameter equivalent circuit of De Soto et al. (2006):
a photocurrent source in parallel with one diode and a shunt resistance,
in series with a series resistance.  Reference-condition parameters are
translated to operating irradiance/temperature, and every solve runs along
the diode voltage (the parameterization of Bishop, 1988).  Every I-V solve
goes through one Newton core for the open-circuit diode voltage: a terminal
current or voltage is the same problem with an effective photocurrent and
shunt.  The maximum power point is located by safeguarded Newton iteration
on dp/dvd, bracketed by the closed-form upper bound of the open-circuit
diode voltage that core starts from, so it needs no open-circuit solve; it
starts cold, or warm from an MPP solved before for nearby parameters.  Its
derivatives with respect to the reference parameters follow by implicit
differentiation of dp/dvd = 0 at the operating coefficients the solve ran
at, without another solve or translation.

All heavy routines have an array core (suffix ``_arrays``) that broadcasts
over numpy arrays; the dataclass API wraps scalars around it.
"""

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .exceptions import SolverError, whole_number

# the exact SI values (2019), equal to scipy.constants' bit for bit
K_BOLTZMANN = 1.380649e-23     # J/K
Q_ELEMENTARY = 1.602176634e-19  # C

G_REF = 1000.0           # reference irradiance, W/m^2
T_REF_C = 25.0           # reference cell temperature, degC
T_REF_K = 298.15
EG_REF_EV = 1.121        # silicon band gap at reference temperature, eV
EG_SLOPE_PER_K = -0.0002677   # relative band-gap change per kelvin
NIGHT_RSH_CAP = 1e8      # shunt-resistance surrogate for zero irradiance, ohm
_EXP_CAP = 700.0         # exp() argument clamp; keeps wild probes finite
_OC_MAX_ITER = 80        # open-circuit Newton cap; reaching it raises
_MPP_MAX_ITER = 80       # MPP Newton cap; bisection alone needs < 60 steps


@dataclass(frozen=True)
class SdmParamsRef:
    """Single-diode parameters at reference conditions (1000 W/m^2, 25 degC).

    Parameters
    ----------
    i_ph_ref : float
        Photocurrent, A.
    i_0_ref : float
        Diode saturation current, A.
    r_s : float
        Series resistance, ohm.
    r_sh_ref : float
        Shunt resistance, ohm.
    n_diode : float
        Diode ideality factor, dimensionless.
    """

    i_ph_ref: float
    i_0_ref: float
    r_s: float
    r_sh_ref: float
    n_diode: float

    def __post_init__(self):
        vals = (self.i_ph_ref, self.i_0_ref, self.r_s, self.r_sh_ref,
                self.n_diode)
        if not all(math.isfinite(v) and v > 0 for v in vals):
            raise ValueError(f"parameters must be positive and finite: {self}")
        lo, hi = PARAM_BOX["n_diode"]
        if not lo <= self.n_diode <= hi:
            raise ValueError(f"diode factor {self.n_diode} outside "
                             f"[{lo}, {hi}]")
        if self.i_0_ref >= self.i_ph_ref:
            raise ValueError("saturation current must be below photocurrent")

    def as_array(self):
        return np.array([self.i_ph_ref, self.i_0_ref, self.r_s,
                         self.r_sh_ref, self.n_diode])

    @classmethod
    def from_array(cls, arr):
        return cls(*(float(x) for x in arr))


PARAM_NAMES = ("i_ph_ref", "i_0_ref", "r_s", "r_sh_ref", "n_diode")
# the box of the four parameters that do not scale with the module's
# short-circuit current, healthy to degraded crystalline silicon: the
# window fit's bounds and the range a synthetic trajectory must stay in
PARAM_BOX = {
    "i_0_ref": (1e-13, 1e-5),
    "r_s": (1e-4, 5.0),
    "r_sh_ref": (10.0, 1e5),
    "n_diode": (0.5, 2.5),
}


@dataclass(frozen=True)
class OperatingConditions:
    """Plane-of-array irradiance (W/m^2) and cell temperature (degC)."""

    g_poa: float
    t_cell: float

    def __post_init__(self):
        if not (math.isfinite(self.g_poa) and self.g_poa >= 0):
            raise ValueError(f"irradiance must be >= 0, got {self.g_poa}")
        if not -60.0 <= self.t_cell <= 120.0:
            raise ValueError(f"cell temperature {self.t_cell} outside [-60, 120]")


@dataclass(frozen=True)
class ArrayTopology:
    """Uniform array layout: series cells per module, modules per string,
    strings.  Each count is a whole number >= 1, kept as an ``int``
    (``exceptions.whole_number``)."""

    cells_in_series: int
    modules_per_string: int
    strings_in_parallel: int

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, whole_number(
                getattr(self, f.name), f"system.topology.{f.name}"))


@dataclass(frozen=True)
class SdmParamsOperating:
    """Diode-equation coefficients at one operating condition.

    ``a_mod`` is the modified ideality factor n*Ns*k*T/q in volts, at the
    level of the module's cell string.
    """

    i_ph: float
    i_0: float
    r_s: float
    r_sh: float
    a_mod: float


@dataclass(frozen=True)
class IvPoint:
    """A point on the I-V curve; ``p`` is always the exact product v*i."""

    v: float
    i: float
    p: float

    @classmethod
    def from_vi(cls, v, i):
        return cls(float(v), float(i), float(v) * float(i))


def _broadcast(*arrays):
    # float arrays of one broadcast shape; when they share a shape already
    # they pass through, without np.broadcast_arrays, whose cost exceeds a
    # ufunc's on a few hundred points
    arrays = tuple(np.asarray(x, dtype=float) for x in arrays)
    if all(x.shape == arrays[0].shape for x in arrays):
        return arrays
    return tuple(np.broadcast_arrays(*arrays))


def translate_arrays(i_ph_ref, i_0_ref, r_s, r_sh_ref, n_diode,
                     g_poa, t_cell, cells_in_series, alpha_isc=0.0):
    """Translate reference parameters to operating conditions (array core).

    Broadcasts every argument; returns the tuple
    ``(i_ph, i_0, r_s, r_sh, a_mod)`` of operating coefficients.

    The auxiliary equations follow De Soto et al. (2006): photocurrent linear
    in irradiance with temperature coefficient ``alpha_isc``; saturation
    current with the cubic temperature factor and band-gap exponential;
    shunt resistance inverse in irradiance (capped at ``NIGHT_RSH_CAP``
    instead of going to infinity at zero irradiance); series resistance
    constant; modified ideality factor proportional to absolute temperature.
    """
    g = np.asarray(g_poa, dtype=float)
    t = np.asarray(t_cell, dtype=float)
    t_k = t + 273.15
    i_ph = g / G_REF * (np.asarray(i_ph_ref, dtype=float)
                        + alpha_isc * (t - T_REF_C))
    eg = EG_REF_EV * (1.0 + EG_SLOPE_PER_K * (t_k - T_REF_K))
    i_0 = np.asarray(i_0_ref, dtype=float) * (t_k / T_REF_K) ** 3 * np.exp(
        (EG_REF_EV / T_REF_K - eg / t_k) * (Q_ELEMENTARY / K_BOLTZMANN))
    day = g > 0
    # a vanishing irradiance overflows to inf, which the cap below replaces
    with np.errstate(over="ignore"):
        r_sh = np.where(day, np.asarray(r_sh_ref, dtype=float) * G_REF
                        / np.where(day, g, 1.0), NIGHT_RSH_CAP)
    r_sh = np.minimum(r_sh, NIGHT_RSH_CAP)
    a_mod = (np.asarray(n_diode, dtype=float) * cells_in_series
             * K_BOLTZMANN * t_k / Q_ELEMENTARY)
    return _broadcast(i_ph, i_0, r_s, r_sh, a_mod)


def translate_to_operating(params: SdmParamsRef, cond: OperatingConditions,
                           cells_in_series: int,
                           alpha_isc=0.0) -> SdmParamsOperating:
    """Translate one reference parameter set to one operating condition."""
    i_ph, i_0, r_s, r_sh, a = translate_arrays(
        params.i_ph_ref, params.i_0_ref, params.r_s, params.r_sh_ref,
        params.n_diode, cond.g_poa, cond.t_cell, cells_in_series, alpha_isc)
    return SdmParamsOperating(float(i_ph), float(i_0), float(r_s),
                              float(r_sh), float(a))


def diode_residual(i, v, op: SdmParamsOperating):
    """Residual of the implicit diode equation at a candidate (v, i) pair, A."""
    return _current_at_vd(v + i * op.r_s, op.i_ph, op.i_0, op.r_sh,
                          op.a_mod) - i


def _current_at_vd(vd, i_ph, i_0, r_sh, a):
    # explicit current when the curve is parameterized by diode voltage
    return i_ph - i_0 * np.expm1(np.minimum(vd / a, _EXP_CAP)) - vd / r_sh


def _power_along_vd(vd, i_ph, i_0, r_s, r_sh, a):
    # the curve at diode voltage vd and the first two derivatives of the
    # power along it: (expm1(vd/a), diode conductance, i, v, di/dvd, dv/dvd,
    # dp/dvd, d2p/dvd2)
    em1 = np.expm1(np.minimum(vd / a, _EXP_CAP))
    cur = i_ph - i_0 * em1 - vd / r_sh
    g_diode = i_0 * (em1 + 1.0) / a
    di = -g_diode - 1.0 / r_sh
    d2i = -g_diode / a
    vol = vd - cur * r_s
    dv = 1.0 - r_s * di
    dp = dv * cur + vol * di
    d2p = -r_s * d2i * cur + 2.0 * dv * di + vol * d2i
    return em1, g_diode, cur, vol, di, dv, dp, d2p


def _open_circuit_upper_bound(i_ph, i_0, r_sh, a):
    # min(a*log1p(i_ph/i_0), i_ph*r_sh) >= vd_oc: the first drops the shunt
    # current, the second the diode current; 0 for i_ph <= 0
    i_lit = np.maximum(i_ph, 0.0)
    with np.errstate(divide="ignore"):
        return np.minimum(a * np.log1p(i_lit / i_0), i_lit * r_sh)


def open_circuit_diode_voltage_arrays(i_ph, i_0, r_sh, a):
    """Diode voltage at zero terminal current (elementwise).

    Newton iteration from min(a*log1p(i_ph/i_0), i_ph*r_sh), two upper
    bounds of the root; the residual is concave and decreasing, so the
    iterates descend monotonically onto it.  Zero photocurrent gives 0 V.
    A row stops, and is frozen at that step's vd, once a step moves it by
    at most 1e-14*(1+vd) volts, so its result does not depend on the other
    rows it is solved with; non-finite rows propagate as NaN/inf and never
    hold the loop.

    Raises
    ------
    SolverError
        If finite rows still move at the iteration cap; carries their inputs.
    """
    i_ph, i_0, r_sh, a = _broadcast(i_ph, i_0, r_sh, a)
    # an array even for scalar inputs, so the loop can update it in place
    vd = np.array(_open_circuit_upper_bound(i_ph, i_0, r_sh, a))
    pending = np.ones(vd.shape, dtype=bool)
    for _ in range(_OC_MAX_ITER):
        # expm1, not exp - 1, which cancels to zero where vd << a
        em1 = np.expm1(np.minimum(vd / a, _EXP_CAP))
        resid = i_ph - i_0 * em1 - vd / r_sh
        slope = -i_0 * (em1 + 1.0) / a - 1.0 / r_sh
        vd_new = np.maximum(vd - resid / slope, 0.0)
        # NaN compares False, so a non-finite row stops with its first step
        moved = np.abs(vd_new - vd) > 1e-14 * (1.0 + vd)
        np.copyto(vd, vd_new, where=pending)
        pending &= moved
        if not pending.any():
            return vd
    raise SolverError(
        f"open-circuit Newton unconverged after {_OC_MAX_ITER} iterations",
        i_ph=i_ph[pending], i_0=i_0[pending], r_sh=r_sh[pending],
        a=a[pending])


def mpp_arrays(i_ph, i_0, r_s, r_sh, a, vd_start=None):
    """Maximum power point, elementwise over broadcast parameter arrays.

    Returns ``(v, i, p)``; rows with ``i_ph <= 0`` give exact zeros.  Power
    is maximized along the diode voltage vd on [0, hi], with
    hi = min(a*log1p(i_ph/i_0), i_ph*r_sh), the closed-form upper bound of
    the open-circuit diode voltage vd_oc; no open-circuit solve is needed.
    dp/dvd is positive at 0 and negative on (vd_oc, hi], where the current
    is negative and falling while the voltage is positive and rising.
    Newton steps on dp/dvd with analytic derivatives start from
    ``vd_start`` clipped into [0, hi] (a warm start, such as the MPP solved
    for nearby parameters) or, where that is None or not finite, from
    hi - a*log1p(hi/a); each step moves one end of the bracket to the
    current point by the sign of dp/dvd, and a step that leaves the
    bracket, or where d2p/dvd2 >= 0, becomes a bisection.  A row stops, and
    is frozen at that step's vd, once a step moves it by at most
    1e-13*(1+vd) volts, so its result does not depend on the other rows it
    is solved with; the loop ends when every lit row has stopped.
    Non-finite rows propagate as NaN/inf.

    Raises
    ------
    SolverError
        If lit finite rows still move at the iteration cap; carries their
        inputs.
    """
    i_ph, i_0, r_s, r_sh, a = _broadcast(i_ph, i_0, r_s, r_sh, a)
    # NaN photocurrent is not dark: it propagates like any non-finite row
    dark = i_ph <= 0
    # arrays even for scalar inputs, so the loop can update them in place
    hi = np.array(_open_circuit_upper_bound(i_ph, i_0, r_sh, a))
    lo = np.zeros_like(hi)
    if vd_start is None:
        vd = hi - a * np.log1p(hi / a)
    else:
        # a NaN start would stop its row after one bisection step: the
        # stop test below is False for NaN
        vd_start = np.asarray(vd_start, dtype=float)
        vd = np.clip(vd_start, lo, hi)
        warm = np.isfinite(vd_start)
        if not warm.all():
            vd = np.where(warm, vd, hi - a * np.log1p(hi / a))
    vd = np.asarray(vd)
    # dark rows give zeros whatever their vd
    frozen = np.array(dark)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MPP_MAX_ITER):
            _, _, cur, vol, di, dv, dp, d2p = _power_along_vd(
                vd, i_ph, i_0, r_s, r_sh, a)
            np.copyto(lo, vd, where=dp > 0)
            np.copyto(hi, vd, where=dp < 0)
            newton = vd - dp / d2p
            # inclusive bounds: a converged row sits on one end of its
            # bracket
            take = (d2p < 0) & (newton >= lo) & (newton <= hi)
            vd_new = np.where(take, newton, 0.5 * (lo + hi))
            # NaN compares False, so a non-finite row stops with its first
            # step
            moved = np.abs(vd_new - vd) > 1e-13 * (1.0 + vd)
            np.copyto(vd, vd_new, where=~frozen)
            frozen |= ~moved
            if frozen.all():
                cur = _current_at_vd(vd, i_ph, i_0, r_sh, a)
                vol = vd - cur * r_s
                if dark.any():
                    cur = np.where(dark, 0.0, cur)
                    vol = np.where(dark, 0.0, vol)
                return vol, cur, vol * cur
    pending = ~frozen
    raise SolverError(
        f"MPP Newton unconverged after {_MPP_MAX_ITER} iterations",
        i_ph=i_ph[pending], i_0=i_0[pending], r_s=r_s[pending],
        r_sh=r_sh[pending], a=a[pending])


def solve_current(v, op: SdmParamsOperating):
    """Terminal current at terminal voltage ``v >= 0``.

    Substituting i = (vd - v)/r_s turns the implicit equation into the
    open-circuit problem of :func:`open_circuit_diode_voltage_arrays` for
    the photocurrent i_ph + v/r_s and the shunt r_sh*r_s/(r_sh + r_s); the
    current is then explicit in vd, with residual below 1e-9 A.

    Raises
    ------
    ValueError
        If ``v`` < 0, not finite, or reverse-biases the diode (vd < 0).
    SolverError
        If the Newton core does not converge.
    """
    v = float(v)
    if not (math.isfinite(v) and v >= 0 and op.i_ph + v / op.r_s >= 0):
        raise ValueError(f"v={v} is not finite, negative or reverse-biased")
    vd = open_circuit_diode_voltage_arrays(
        op.i_ph + v / op.r_s, op.i_0, op.r_sh * op.r_s / (op.r_sh + op.r_s),
        op.a_mod)
    return float(_current_at_vd(vd, op.i_ph, op.i_0, op.r_sh, op.a_mod))


def short_circuit_current(op: SdmParamsOperating):
    """Current at zero terminal voltage."""
    return solve_current(0.0, op)


def solve_voltage(i, op: SdmParamsOperating):
    """Terminal voltage at terminal current ``i`` (0 <= i <= i_sc).

    The open-circuit solve for the photocurrent i_ph - i, less i*r_s; the
    result meets the residual contract of :func:`solve_current`.

    Raises
    ------
    ValueError
        If ``i`` is below zero or above the short-circuit current (which
        counts as zero for a dark module).
    SolverError
        If the Newton core does not converge.
    """
    i = float(i)
    if not i >= 0:
        raise ValueError(f"current must be >= 0, got {i}")
    i_sc = short_circuit_current(op) if op.i_ph > 0 else 0.0
    if i > i_sc * (1.0 + 1e-9) + 1e-12:
        raise ValueError(f"current {i} above short-circuit current {i_sc}")
    i = min(i, i_sc)
    vd = open_circuit_diode_voltage_arrays(op.i_ph - i, op.i_0, op.r_sh,
                                           op.a_mod)
    # at i_sc rounding can leave -1e-10 V, which solve_current rejects
    return max(float(vd - i * op.r_s), 0.0)


def open_circuit_voltage(op: SdmParamsOperating):
    """Voltage at zero terminal current (zero for a dark module)."""
    return solve_voltage(0.0, op)


def find_mpp(op: SdmParamsOperating) -> IvPoint:
    """Maximum power point of one operating condition (zero if i_ph <= 0)."""
    v, i, _ = mpp_arrays(op.i_ph, op.i_0, op.r_s, op.r_sh, op.a_mod)
    return IvPoint.from_vi(float(v), float(i))


def _diode_voltage(v_dc, i_dc, r_s, topo: ArrayTopology):
    # module diode voltage of an array operating point
    cur = np.asarray(i_dc, dtype=float) / topo.strings_in_parallel
    return np.asarray(v_dc, dtype=float) / topo.modules_per_string + cur * r_s


class ArrayMpp(NamedTuple):
    """Array MPP voltage, current and power of each record, and the
    operating coefficients ``(i_ph, i_0, r_s, r_sh, a_mod)`` of
    :func:`translate_arrays` that the solve ran at."""

    v_dc: np.ndarray
    i_dc: np.ndarray
    p_dc: np.ndarray
    ops: tuple


def simulate_array_mpp_arrays(i_ph_ref, i_0_ref, r_s, r_sh_ref, n_diode,
                              g_poa, t_cell, topo: ArrayTopology,
                              alpha_isc=0.0, start=None) -> ArrayMpp:
    """Array-level MPP over broadcast inputs, as an :class:`ArrayMpp`.

    Assumes a uniform, mismatch-free array: module MPP voltage scales with
    modules per string, current with parallel strings.  ``start`` is an
    array MPP ``(v_dc, i_dc)`` solved before for the same records, such as
    at the previous parameters of a fit; the solve then starts from its
    diode voltages under this ``r_s`` (see :func:`mpp_arrays`).  Rows where
    it is not finite, and every row when it is None, start cold.  The
    reference parameters are translated once, and the result keeps the
    operating coefficients, so :func:`mpp_sensitivities_arrays` needs no
    second translation.
    """
    ops = translate_arrays(i_ph_ref, i_0_ref, r_s, r_sh_ref, n_diode,
                           g_poa, t_cell, topo.cells_in_series, alpha_isc)
    vd_start = None if start is None else _diode_voltage(*start, ops[2], topo)
    v, i, p = mpp_arrays(*ops, vd_start=vd_start)
    v_dc = v * topo.modules_per_string
    i_dc = i * topo.strings_in_parallel
    return ArrayMpp(v_dc, i_dc, v_dc * i_dc, ops)


def mpp_sensitivities_arrays(v_dc, i_dc, ops, i_0_ref, r_sh_ref, n_diode,
                             g_poa, topo: ArrayTopology):
    """Derivatives of the array MPP with respect to the reference parameters.

    ``v_dc``, ``i_dc`` and ``ops`` are those of the :class:`ArrayMpp` that
    :func:`simulate_array_mpp_arrays` returned for these reference
    parameters and irradiances; nothing is translated or solved again.
    Returns ``(dv_dc, di_dc)``, each of the broadcast shape plus a trailing
    axis of five derivatives in ``PARAM_NAMES`` order.  Rows with
    ``i_ph <= 0`` give zeros; non-finite rows propagate as NaN.

    The optimum vd* of the power along the diode voltage satisfies
    F = dp/dvd = 0, so implicit differentiation gives
    dvd*/dq = -(dF/dq)/(d2p/dvd2) for each parameter q, and
    dv/dq = (dv/dq)_vd + (dv/dvd)*dvd*/dq, likewise for the current.  The
    partials at fixed vd chain through :func:`translate_arrays`: i_ph
    scales with g_poa/G_REF times i_ph_ref and i_0 is proportional to
    i_0_ref, r_s passes through, r_sh scales with r_sh_ref except where the
    night cap binds, and a is proportional to n_diode.
    """
    i_ph, i_0, r_s, r_sh, a = ops
    vd = _diode_voltage(v_dc, i_dc, r_s, topo)
    em1, g_diode, cur, vol, di, dv, _, d2p = _power_along_vd(
        vd, i_ph, i_0, r_s, r_sh, a)
    # d(1/r_sh)/d(r_sh_ref), negated; zero under the night cap
    k_sh = np.where(r_sh < NIGHT_RSH_CAP,
                    1.0 / (r_sh * np.asarray(r_sh_ref, dtype=float)), 0.0)
    # partials of i and di/dvd at fixed vd, per reference parameter; both
    # are independent of r_s, which enters only through v = vd - i*r_s
    cur_q = np.zeros(vd.shape + (5,))
    cur_q[..., 0] = np.asarray(g_poa, dtype=float) / G_REF
    cur_q[..., 1] = -em1 * i_0 / i_0_ref
    cur_q[..., 3] = vd * k_sh
    cur_q[..., 4] = g_diode * vd / n_diode
    di_q = np.zeros_like(cur_q)
    di_q[..., 1] = -g_diode / i_0_ref
    di_q[..., 3] = k_sh
    di_q[..., 4] = g_diode * (vd / a + 1.0) / n_diode
    # dF/dq = (dv)_q*i + dv*i_q + v_q*di + v*(di)_q with v_q = -r_s*i_q and
    # (dv)_q = -r_s*(di)_q, plus -2*i*di for q = r_s
    dp_q = di_q * (vol - r_s * cur)[..., None] \
        + cur_q * (1.0 - 2.0 * r_s * di)[..., None]
    dp_q[..., 2] = -2.0 * cur * di
    vd_q = dp_q / -d2p[..., None]
    dv_ref = -r_s[..., None] * cur_q + dv[..., None] * vd_q
    dv_ref[..., 2] -= cur
    di_ref = cur_q + di[..., None] * vd_q
    dv_dc = dv_ref * topo.modules_per_string
    di_dc = di_ref * topo.strings_in_parallel
    dark = i_ph <= 0
    if dark.any():
        dv_dc = np.where(dark[..., None], 0.0, dv_dc)
        di_dc = np.where(dark[..., None], 0.0, di_dc)
    return dv_dc, di_dc


def simulate_array_mpp(params: SdmParamsRef, topo: ArrayTopology,
                       cond: OperatingConditions, alpha_isc=0.0):
    """Array-level (v_dc, i_dc) at the maximum power point."""
    mpp = simulate_array_mpp_arrays(
        params.i_ph_ref, params.i_0_ref, params.r_s, params.r_sh_ref,
        params.n_diode, cond.g_poa, cond.t_cell, topo, alpha_isc)
    return float(mpp.v_dc), float(mpp.i_dc)
