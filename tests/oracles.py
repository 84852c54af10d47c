"""Independent reference computations used to pin expected test values.

Everything here is deliberately written against the raw model equations with
scalar math and brute-force searches (bisection, dense scans, quadrature),
so it shares no solver code with the library under test.  The telemetry
reader's reference parses one record at a time, as a dict, with the
standard library's own number and ISO-8601 parsers, and checks it against
``pvprof.series.RECORD_RULES``.  The JSON writer's reference emits one
value per recursive call.  The quality filters' references scan each day's
records one at a time and fit the screening lines with ``np.polyfit``.
"""

import csv
import json
import math
import warnings
from datetime import datetime, timezone

import numpy as np

from pvprof.exceptions import DataError
from pvprof.series import RECORD_RULES


def diode_residual(i, v, i_ph, i_0, r_s, r_sh, a):
    return i_ph - i_0 * math.expm1((v + i * r_s) / a) - (v + i * r_s) / r_sh - i


def bisect_current(v, i_ph, i_0, r_s, r_sh, a, tol=1e-12):
    """Current at terminal voltage v by pure bisection on the implicit equation."""
    lo, hi = -i_ph - 1.0, 2.0 * i_ph + 1.0
    f_lo = diode_residual(lo, v, i_ph, i_0, r_s, r_sh, a)
    f_hi = diode_residual(hi, v, i_ph, i_0, r_s, r_sh, a)
    for _ in range(200):
        if f_lo > 0 > f_hi:
            break
        lo, hi = lo - (hi - lo), hi + (hi - lo)
        f_lo = diode_residual(lo, v, i_ph, i_0, r_s, r_sh, a)
        f_hi = diode_residual(hi, v, i_ph, i_0, r_s, r_sh, a)
    else:
        raise RuntimeError("no bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if diode_residual(mid, v, i_ph, i_0, r_s, r_sh, a) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_voltage(i, i_ph, i_0, r_s, r_sh, a, tol=1e-13):
    """Voltage at current i by bisection on the diode junction voltage."""
    vd_hi = a * math.log1p(i_ph / i_0) + 1.0
    lo, hi = 0.0, vd_hi

    def g(vd):
        return i_ph - i_0 * math.expm1(vd / a) - vd / r_sh - i

    if g(lo) < 0:  # i above short-circuit current
        raise ValueError("current above i_sc")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    vd = 0.5 * (lo + hi)
    return vd - i * r_s


# the refined scan's first pass visits every this-many-th grid point
_COARSE_STRIDE = 1000
# the unit grid of each size, built once
_UNIT_GRIDS = {}


def scan_mpp(i_ph, i_0, r_s, r_sh, a, n_points=1_000_000):
    """Maximum power by dense enumeration of the I-V curve.

    The curve is sampled on a dense diode-voltage grid of ``n_points`` from
    0 to open circuit; every sampled point satisfies the implicit equation
    by construction, and the maximum of v*i over the samples is the
    grid-scan reference value.  ``refined_grid_max`` finds that maximum
    without evaluating most of the grid; ``full_scan_mpp`` evaluates it all.
    """
    if i_ph <= 0:
        return 0.0, 0.0, 0.0
    return refined_grid_max(_curve_points(i_ph, i_0, r_s, r_sh, a, n_points),
                            n_points)


def full_scan_mpp(i_ph, i_0, r_s, r_sh, a, n_points=1_000_000):
    """``scan_mpp`` evaluated at every grid point: its reference."""
    if i_ph <= 0:
        return 0.0, 0.0, 0.0
    points = _curve_points(i_ph, i_0, r_s, r_sh, a, n_points)
    return _grid_max(points, np.arange(n_points))


def _curve_points(i_ph, i_0, r_s, r_sh, a, n_points):
    """``(v, i, p)`` at given indices of the diode-voltage grid."""
    vd_oc = bisect_voltage(0.0, i_ph, i_0, r_s, r_sh, a) + 0.0
    # bisect_voltage returned terminal v at i=0, which equals vd at i=0
    unit = _UNIT_GRIDS.get(n_points)
    if unit is None:
        unit = _UNIT_GRIDS[n_points] = np.linspace(0.0, 1.0, n_points)

    def points(indices):
        vd = unit[indices] * vd_oc
        cur = np.expm1(vd / a) * -i_0 + i_ph - vd / r_sh
        vol = cur * -r_s + vd
        return vol, cur, vol * cur

    return points


def _grid_max(points, indices):
    """``(v, i, p)`` of the first maximum of p over ``indices``."""
    v, i, p = points(indices)
    k = int(np.argmax(p))
    return float(v[k]), float(i[k]), float(p[k])


def refined_grid_max(points, n_points, stride=_COARSE_STRIDE):
    """The first maximum of p over grid indices ``0..n_points-1``, where
    ``points(indices)`` gives ``(v, i, p)`` at those indices.

    Every ``stride``-th index and the last are evaluated first.  If those
    samples rise strictly to their maximum and fall strictly after it, the
    maximum over the whole grid lies between that sample's two neighbours,
    and only the indices between them are evaluated in full.  Otherwise
    every index is.
    """
    coarse = np.unique(np.append(np.arange(0, n_points, stride),
                                 n_points - 1))
    p = points(coarse)[2]
    m = int(np.argmax(p))
    steps = np.diff(p)
    if np.all(steps[:m] > 0) and np.all(steps[m:] < 0):
        lo, hi = coarse[max(m - 1, 0)], coarse[min(m + 1, coarse.size - 1)]
        return _grid_max(points, np.arange(lo, hi + 1))
    return _grid_max(points, np.arange(n_points))


def linear_regime_mpp(i_ph, i_0, r_s, r_sh, a):
    """Maximum power point of a curve whose diode voltage stays far below a.

    There expm1(vd/a) equals vd/a to relative order vd/a, so the curve is
    the straight line i = i_ph - G*vd with G = i_0/a + 1/r_sh, and p(vd) is
    a downward parabola whose vertex is closed form.
    """
    g = i_0 / a + 1.0 / r_sh
    vd = i_ph * (1.0 + 2.0 * r_s * g) / (2.0 * g * (1.0 + r_s * g))
    cur = i_ph - g * vd
    vol = vd - r_s * cur
    return vol, cur, vol * cur


def five_point_gradient(fun, x, h_rel=1e-6):
    """Five-point central-difference derivative, per coordinate.

    For a vector-valued ``fun`` this is the Jacobian, one column per
    coordinate of ``x``.
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        h = h_rel * max(1.0, abs(x[j]))
        pts = []
        for m in (-2, -1, 1, 2):
            xp = x.copy()
            xp[j] += m * h
            pts.append(np.asarray(fun(xp), dtype=float))
        f_m2, f_m1, f_p1, f_p2 = pts
        cols.append((f_m2 - 8.0 * f_m1 + 8.0 * f_p1 - f_p2) / (12.0 * h))
    return np.stack(cols, axis=-1)


TELEMETRY_FIELDS = ("timestamp", "g_poa", "t_module", "v_dc", "i_dc")


def read_telemetry_per_record(path, mapping=None, max_bad_fraction=0.01):
    """Reference telemetry CSV reader, one record at a time.

    Returns the accepted rows as five arrays (``datetime64[s]`` timestamps,
    then g, t, v, i) and the ``(line, reason)`` rejections, where ``line``
    is the physical line a record starts on; raises DataError where the
    reader must.  ``mapping`` is a valid {native field: source header}.
    """
    source_of = dict(zip(TELEMETRY_FIELDS, TELEMETRY_FIELDS))
    source_of.update(mapping or {})
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            rows, diagnostics = _per_record_rows(reader, path, source_of)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}:{_undecodable_line(path)}: not UTF-8 "
                            f"text ({exc.reason})") from exc
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    total = len(rows) + len(diagnostics)
    if total == 0:
        raise DataError(f"{path}: no data rows")
    if diagnostics and len(diagnostics) >= max_bad_fraction * total:
        raise DataError(
            f"{path}: {len(diagnostics)} of {total} rows rejected; first: "
            f"line {diagnostics[0][0]}: {diagnostics[0][1]}")
    ts, *values = zip(*rows)
    return ((np.array(ts, dtype="datetime64[s]"),
             *(np.array(v, dtype=float) for v in values)), diagnostics)


def _per_record_rows(reader, path, source_of):
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file")
    for native, source in source_of.items():
        if source not in header:
            raise DataError(f"{path}: missing column {source!r} "
                            f"(field {native})")
        if header.count(source) > 1:
            raise DataError(f"{path}: column {source!r} (field {native}) "
                            f"appears {header.count(source)} times in the "
                            f"header")
    rows = []
    diagnostics = []
    last_ts = None
    end = reader.line_num
    for record in reader:
        line_no, end = end + 1, reader.line_num
        if not record:
            continue
        # a short record's missing fields read as ""
        row = dict(zip(header, record + [""] * (len(header) - len(record))))
        try:
            ts = _iso_seconds(row[source_of["timestamp"]])
            vals = [float(row[source_of[c]]) for c in TELEMETRY_FIELDS[1:]]
        except ValueError as exc:
            diagnostics.append((line_no, f"unparseable row: {exc}"))
            continue
        values = dict(zip(TELEMETRY_FIELDS[1:], vals))
        broken = [reason for reason, column, test in RECORD_RULES
                  if test(values[column])]
        if not all(math.isfinite(x) for x in vals):
            diagnostics.append((line_no, "non-finite value"))
        elif broken:
            diagnostics.append((line_no, broken[0]))
        elif last_ts is not None and ts <= last_ts:
            diagnostics.append((line_no, "timestamp not increasing"))
        else:
            last_ts = ts
            rows.append((ts, *vals))
    return rows, diagnostics


def _iso_seconds(text):
    """Whole seconds since the epoch of an ISO-8601 text; naive is UTC."""
    s = text.strip()
    if s.endswith("Z"):
        s = s[:-1] + "+00:00"
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _undecodable_line(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    for line_no, line in enumerate(raw.splitlines(), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return line_no
    return "?"


def dumps_json_per_item(obj):
    """Deterministic JSON as ``iotools.dumps_json`` writes it, one value
    per recursive call: sorted keys, two-space indent, 17-significant-digit
    floats, non-finite floats as null."""
    out = []
    _emit_per_item(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _emit_per_item(obj, out, indent):
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append("null" if not math.isfinite(x) else f"{x:.17g}")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj, key=str)
        for k, key in enumerate(keys):
            out.append(f'{pad}  {json.dumps(str(key))}: ')
            _emit_per_item(obj[key], out, indent + 1)
            out.append(",\n" if k < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for k, item in enumerate(items):
            out.append(pad + "  ")
            _emit_per_item(item, out, indent + 1)
            out.append(",\n" if k < len(items) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def clipping_per_record(timestamp, g_poa, power, night, p_ac_limit=None,
                        band=0.005, run_min=3):
    """Clipping flags as ``preprocess.filter_clipping`` defines them, from a
    per-day scan of one record at a time: a run of at least ``run_min``
    rising-irradiance, non-night records within ``band`` of the day's
    running maximum so far, expanded to the contiguous records within
    ``band`` of the run's highest power."""
    if p_ac_limit is not None:
        return power >= 0.98 * p_ac_limit
    clipped = np.zeros(power.size, dtype=bool)
    days = timestamp.astype("datetime64[D]")
    for day in np.unique(days):
        sel = np.flatnonzero(days == day)
        pd, gd = power[sel], g_poa[sel]
        cand = []
        running = None
        for k in range(sel.size):
            prev_max = 0.0 if running is None else running
            cand.append(
                k > 0 and not night[sel[k]] and gd[k] > gd[k - 1]
                and prev_max > 0
                and (1.0 - band) * prev_max <= pd[k]
                <= (1.0 + band) * prev_max)
            running = pd[k] if running is None else max(running, pd[k])
        start = None
        for k in range(sel.size + 1):
            on = k < sel.size and cand[k]
            if on and start is None:
                start = k
            elif not on and start is not None:
                if k - start >= run_min:
                    level = float(max(pd[start:k]))
                    a, b = start, k
                    while a > 0 and abs(pd[a - 1] - level) <= band * level:
                        a -= 1
                    while b < sel.size and abs(pd[b] - level) <= band * level:
                        b += 1
                    clipped[sel[a:b]] = True
                start = None
    return clipped


def polyfit_outliers(x, y, k_sigma):
    """Outlier flags of one screening regression fitted by ``np.polyfit``,
    and which records sit within 1e-9 residual deviations of the threshold,
    where rounding may decide the flag.

    On a flat regressor polyfit warns that the fit is rank-deficient and
    returns its minimum-norm line, which is the mean of ``y``.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", np.exceptions.RankWarning)
        coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    sigma = float(np.sqrt(np.sum(resid ** 2) / max(x.size - 2, 1)))
    if sigma <= 1e-9 * (float(np.std(y)) + 1e-30):
        return np.zeros(x.size, dtype=bool), np.zeros(x.size, dtype=bool)
    margin = np.abs(resid) - k_sigma * sigma
    return margin > 0, np.abs(margin) <= 1e-9 * sigma
