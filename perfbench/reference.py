"""Frozen reference kernels: how fast the machine runs during a run.

On a shared VM the speed of the same code swings by up to 1.7x for seconds
to minutes, so run-to-run medians of raw wall time spread by 20-30 %.  Each
run therefore times a fixed kernel between its operations and reports its
times at reference speed: raw median times ``median(kernel) / NOMINAL_S``.

A kernel copies the instruction mix of a workload's dominant layer at the
commit that defined the benchmark (the golden-section MPP search, or a dense
RBF kernel-ridge solve); set-up time, which is plain-Python CSV parsing, is
scaled by a CSV-parsing kernel.  It is frozen here on purpose: it must not change
when the program does, or a speed-up of the program would also speed up the
yardstick and cancel out.
"""

import csv
import io
import math
from datetime import datetime, timedelta
from time import perf_counter

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _mpp_inputs():
    rng = np.random.default_rng(3)
    shape = (11, 130)        # one loss evaluation: 11 probes x ~130 records
    return (rng.uniform(1.0, 9.0, shape), np.full(shape, 3e-10),
            rng.uniform(300.0, 3000.0, shape), np.full(shape, 1.9))


def _golden_mpp(i_ph, i_0, r_sh, a, r_s=0.35):
    def power(vd):
        cur = i_ph - i_0 * np.expm1(np.minimum(vd / a, 700.0)) - vd / r_sh
        return (vd - cur * r_s) * cur

    lo = np.zeros_like(i_ph)
    hi = a * np.log1p(i_ph / i_0)
    h = hi - lo
    x1, x2 = lo + (1.0 - _INVPHI) * h, lo + _INVPHI * h
    f1, f2 = power(x1), power(x2)
    for _ in range(53):
        left = f1 >= f2
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
        h = hi - lo
        x_keep, f_keep = np.where(left, x1, x2), np.where(left, f1, f2)
        x_new = np.where(left, lo + (1.0 - _INVPHI) * h, lo + _INVPHI * h)
        f_new = power(x_new)
        x1, f1 = np.where(left, x_new, x_keep), np.where(left, f_new, f_keep)
        x2, f2 = np.where(left, x_keep, x_new), np.where(left, f_keep, f_new)
    return f1


def mpp():
    """Twelve golden-section MPP searches over (11, 130) arrays."""
    inputs = _mpp_inputs()
    start = perf_counter()
    for _ in range(12):
        _golden_mpp(*inputs)
    return perf_counter() - start


def kernel_ridge():
    """One RBF kernel-ridge solve over 800 standardized 3-feature rows."""
    x = np.random.default_rng(4).standard_normal((800, 3))
    y = x @ np.array([1.0, -0.5, 0.25])
    start = perf_counter()
    sq = np.sum(x * x, axis=1)
    k = np.exp(-0.5 * np.maximum(sq[:, None] + sq[None, :] - 2.0 * x @ x.T,
                                 0.0))
    np.linalg.solve(k + 1e-3 * np.eye(len(x)), y)
    return perf_counter() - start


def _csv_text(rows=1000):
    t0 = datetime(2024, 6, 1)
    lines = ["timestamp,g_poa,t_module,v_dc,i_dc"]
    for k in range(rows):
        ts = (t0 + timedelta(minutes=15 * k)).isoformat() + "Z"
        lines.append(f"{ts},{k * 1.7 % 1000:.6f},{20 + k % 30:.6f},"
                     f"{480 + k % 9:.6f},{k * 0.13 % 70:.6f}")
    return "\n".join(lines)


_CSV = _csv_text()


def csv_parse():
    """Parse 1000 telemetry-like CSV rows: the set-up's plain-Python work."""
    start = perf_counter()
    for row in csv.DictReader(io.StringIO(_CSV)):
        datetime.fromisoformat(row["timestamp"][:-1] + "+00:00").timestamp()
        [float(row[c]) for c in ("g_poa", "t_module", "v_dc", "i_dc")]
    return perf_counter() - start


# kernel -> (function, its median time on the 2-core Xeon VM the baseline
# was measured on); the constant only fixes the scale of reported times
KERNELS = {"mpp": (mpp, 0.04), "kernel_ridge": (kernel_ridge, 0.025),
           "csv": (csv_parse, 0.004)}
