"""File formats: telemetry CSV (native + mapped), result CSVs, JSON.

All floating-point output is serialized with 17 significant digits so that
files round-trip exactly and repeated runs are byte-identical.
"""

import csv
import json
import math
from datetime import datetime, timezone

import numpy as np

from .exceptions import ConfigError, DataError
from .series import TelemetrySeries

NATIVE_COLUMNS = ("timestamp", "g_poa", "t_module", "v_dc", "i_dc")


def format_float(x):
    """17-significant-digit decimal form (exact double round trip)."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


def parse_timestamp(text):
    """ISO-8601 to datetime64[s]; naive times are taken as UTC."""
    s = text.strip()
    if s.endswith("Z"):
        s = s[:-1] + "+00:00"
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return np.datetime64(int(dt.timestamp()), "s")


def format_timestamp(ts):
    return str(np.datetime64(ts, "s")) + "Z"


def read_mapping(path):
    """Column mapping file: JSON object {native field: source header}."""
    raw = read_json_object(path, ConfigError, "mapping file")
    unknown = [k for k in raw if k not in NATIVE_COLUMNS]
    if unknown:
        raise ConfigError(f"mapping refers to unknown fields: {unknown}")
    return {k: str(v) for k, v in raw.items()}


def read_telemetry_csv(path, mapping=None, max_bad_fraction=0.01):
    """Parse a telemetry CSV into a series plus row diagnostics.

    The native schema is ``timestamp,g_poa,t_module,v_dc,i_dc`` with a header
    row; a mapping translates foreign headers to the native fields.  Rows
    violating the record invariants are rejected and reported with their line
    number; the run continues if fewer than ``max_bad_fraction`` of rows are
    bad and no required column is missing.
    """
    source_of = dict(zip(NATIVE_COLUMNS, NATIVE_COLUMNS))
    if mapping:
        source_of.update(mapping)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read telemetry: {exc}") from exc
    with fh:
        # a short row's missing fields read as "", which no parser accepts,
        # so the row is rejected like any other unparseable one
        reader = csv.DictReader(fh, restval="")
        try:
            rows, diagnostics = _parse_rows(reader, path, source_of)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}:{_undecodable_line(path)}: not UTF-8 "
                            f"text ({exc.reason})") from exc
        except csv.Error as exc:
            # DictReader.line_num lags a failed row; its reader's does not
            raise DataError(f"{path}:{reader.reader.line_num}: {exc}") \
                from exc
    total = len(rows) + len(diagnostics)
    if total == 0:
        raise DataError(f"{path}: no data rows")
    if len(diagnostics) >= max_bad_fraction * total:
        raise DataError(
            f"{path}: {len(diagnostics)} of {total} rows rejected; first: "
            f"line {diagnostics[0][0]}: {diagnostics[0][1]}")
    ts, g, t, v, i = zip(*rows)
    series = TelemetrySeries(np.array(ts, dtype="datetime64[s]"), g, t, v, i)
    return series.validate(), diagnostics


def _parse_rows(reader, path, source_of):
    # accepted (ts, g, t, v, i) tuples and (line, reason) rejections
    rows = []
    diagnostics = []
    if reader.fieldnames is None:
        raise DataError(f"{path}: empty file")
    for native, source in source_of.items():
        if source not in reader.fieldnames:
            raise DataError(f"{path}: missing column {source!r} "
                            f"(field {native})")
    last_ts = None
    for line_no, row in enumerate(reader, start=2):
        try:
            ts = parse_timestamp(row[source_of["timestamp"]])
            vals = [float(row[source_of[c]]) for c in NATIVE_COLUMNS[1:]]
        except (ValueError, TypeError, KeyError) as exc:
            diagnostics.append((line_no, f"unparseable row: {exc}"))
            continue
        g, t, v, i = vals
        if not all(math.isfinite(x) for x in vals):
            diagnostics.append((line_no, "non-finite value"))
            continue
        if g < 0:
            diagnostics.append((line_no, "negative irradiance"))
            continue
        if v < 0:
            diagnostics.append((line_no, "negative DC voltage"))
            continue
        if last_ts is not None and ts <= last_ts:
            diagnostics.append((line_no, "timestamp not increasing"))
            continue
        last_ts = ts
        rows.append((ts, g, t, v, i))
    return rows, diagnostics


def _undecodable_line(path):
    # the text layer decodes ahead of the CSV reader, so the reader's line
    # count does not locate the bad byte; find it in the raw lines
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return line_no
    return "?"


def write_telemetry_csv(path, series: TelemetrySeries):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(NATIVE_COLUMNS)
        for k in range(len(series)):
            writer.writerow([format_timestamp(series.timestamp[k]),
                             format_float(series.g_poa[k]),
                             format_float(series.t_module[k]),
                             format_float(series.v_dc[k]),
                             format_float(series.i_dc[k])])


TRAJECTORY_COLUMNS = ("window_start", "window_end", "i_ph_ref", "i_0_ref",
                      "r_s", "r_sh_ref", "n_diode", "final_loss",
                      "iterations", "converged", "n_points",
                      "r_sh_ref_from_prior")


def write_trajectory_csv(path, results):
    """Fitted-parameter trajectory, one row per window.

    ``r_sh_ref_from_prior`` is ``true`` where the window fit's shunt prior,
    not the data, set most of ``r_sh_ref``
    (``FitWindowResult.shunt_from_prior``).
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for r in results:
            p = r.params
            writer.writerow([
                format_timestamp(r.window_start), format_timestamp(r.window_end),
                format_float(p.i_ph_ref), format_float(p.i_0_ref),
                format_float(p.r_s), format_float(p.r_sh_ref),
                format_float(p.n_diode), format_float(r.final_loss),
                r.iterations, "true" if r.converged else "false", r.n_points,
                "true" if r.shunt_from_prior else "false"])


FORECAST_COLUMNS = ("timestamp", "model", "p_pred_w", "p_meas_w")


def write_forecast_csv(path, forecasts):
    """Long-format forecast table across models."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(FORECAST_COLUMNS)
        for fc in forecasts:
            meas = fc.p_meas if fc.p_meas is not None \
                else np.full(len(fc), np.nan)
            for k in range(len(fc)):
                writer.writerow([format_timestamp(fc.timestamp[k]), fc.model,
                                 format_float(fc.p_pred[k]),
                                 format_float(meas[k])])


def _emit_json(obj, out, indent):
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
        out.append("null" if not math.isfinite(x) else format_float(x))
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
            _emit_json(obj[key], out, indent + 1)
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
            _emit_json(item, out, indent + 1)
            out.append(",\n" if k < len(items) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj):
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    out = []
    _emit_json(obj, out, 0)
    out.append("\n")
    return "".join(out)


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(obj))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_json_object(path, error, what):
    """The JSON object in ``path``; raises ``error`` if it cannot be read,
    is not JSON or holds anything but an object."""
    try:
        raw = read_json(path)
    except OSError as exc:
        raise error(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError and UnicodeDecodeError are both ValueErrors
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise error(f"{what} {path} must hold a JSON object")
    return raw
