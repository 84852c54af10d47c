"""File formats: telemetry CSV (native + mapped), result CSVs, JSON.

Telemetry is read a column at a time: the CSV records are gathered as
the fields the reader uses, each value field becomes one numpy array in
one conversion, and the record invariants are masks over those arrays.
Timestamps in the form the writer uses, ``YYYY-MM-DDTHH:MM:SSZ``, are
read in bulk from their bytes; any other text goes to the standard
library's ISO-8601 parser on its own.  A rejected row is worded on its
own, with the physical line it starts on.

Every CSV table goes through one emitter, `_write_csv`.  All numbers are
written as `format_float` writes them, 17 significant digits, so files
round-trip exactly and repeated runs are byte-identical.
"""

import csv
import json
import math
from datetime import datetime
from itertools import compress
from operator import itemgetter

import numpy as np

from .exceptions import ConfigError, DataError
from .series import ABSOLUTE_ZERO_C, TelemetrySeries

NATIVE_COLUMNS = ("timestamp", "g_poa", "t_module", "v_dc", "i_dc")


def format_float(x):
    """17-significant-digit decimal form (exact double round trip); every
    NaN is ``nan``, the infinities ``inf`` and ``-inf``."""
    return f"{float(x):.17g}"


def parse_timestamp(text):
    """ISO-8601 to datetime64[s]; naive times are taken as UTC."""
    return np.datetime64(_epoch_seconds(text), "s")


_EPOCH = datetime(1970, 1, 1)


def _epoch_seconds(text):
    s = text.strip()
    if s.endswith("Z"):
        s = s[:-1] + "+00:00"
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is None:
        # what timestamp() gives for the time in UTC, without the cost of
        # replace(tzinfo=...)
        return int((dt - _EPOCH).total_seconds())
    return int(dt.timestamp())


def format_timestamp(ts):
    """``YYYY-MM-DDTHH:MM:SSZ`` of a datetime64, or a list of an array's."""
    return np.datetime_as_string(ts, unit="s", timezone="UTC").tolist()


def read_mapping(path):
    """Column mapping file: JSON object {native field: source header}."""
    mapping = read_json_object(path, ConfigError, "mapping file")
    _source_columns(mapping)
    return mapping


def _source_columns(mapping):
    """{native field: source header}, unmapped fields under their own name.

    Raises ConfigError naming an unknown field, a field whose header is not
    a string, and two fields sent to one header, which would both read the
    same column.
    """
    mapping = mapping or {}
    for native, source in mapping.items():
        if native not in NATIVE_COLUMNS:
            raise ConfigError(f"mapping refers to unknown field {native!r}")
        if not isinstance(source, str):
            raise ConfigError(f"mapping of {native} must be a header name "
                              f"(a JSON string), got {source!r}")
    source_of = {**dict(zip(NATIVE_COLUMNS, NATIVE_COLUMNS)), **mapping}
    fields_of = {}
    for native, source in source_of.items():
        fields_of.setdefault(source, []).append(native)
    for source, fields in fields_of.items():
        if len(fields) > 1:
            raise ConfigError(f"mapping sends fields {', '.join(fields)} "
                              f"to one column {source!r}")
    return source_of


def read_telemetry_csv(path, mapping=None, max_bad_fraction=0.01):
    """Parse a telemetry CSV into a series plus row diagnostics.

    The native schema is ``timestamp,g_poa,t_module,v_dc,i_dc`` with a header
    row; a mapping translates foreign headers to the native fields.  The
    file is UTF-8 text, with or without a byte-order mark.  A header that
    lacks a column the reader uses, or repeats one, is fatal.

    The records are parsed a column at a time (see `_parse_columns`).  A row
    violating the record invariants is rejected and reported as ``(line,
    reason)``, where ``line`` is the physical line the record starts on and
    ``reason`` names the first check it fails, in this order: unparseable
    timestamp, g, t, v or i; non-finite value; negative irradiance; negative
    DC voltage; module temperature at or below absolute zero (a missing
    value written as -9999, say); timestamp not after the last accepted
    row.  The run continues if fewer than ``max_bad_fraction`` of rows are
    bad; a file with no bad row is read whatever the fraction.
    """
    source_of = _source_columns(mapping)
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read telemetry: {exc}") from exc
    with fh:
        try:
            texts = _read_records(fh, source_of, path)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}:{_undecodable_line(path)}: not UTF-8 "
                            f"text ({exc.reason})") from exc
    n = len(texts[0])
    if not n:
        raise DataError(f"{path}: no data rows")
    fields, rejection = _parse_columns(texts)
    bad = np.flatnonzero(rejection)
    # only a rejected record needs its line: the file is read again for it
    lines = _record_lines(path, bad) if bad.size else []
    diagnostics = [(line, _diagnosis(rejection[k], [t[k] for t in texts]))
                   for line, k in zip(lines, bad)]
    if diagnostics and len(diagnostics) >= max_bad_fraction * n:
        raise DataError(
            f"{path}: {len(diagnostics)} of {n} rows rejected; "
            f"first: line {diagnostics[0][0]}: {diagnostics[0][1]}")
    accepted = rejection == 0
    series = TelemetrySeries(*(f[accepted] for f in fields))
    return series.validate(), diagnostics


def _column_positions(header, source_of, path):
    """Header position of each native field's source column."""
    if header is None:
        raise DataError(f"{path}: empty file")
    for native, source in source_of.items():
        count = header.count(source)
        if count == 0:
            raise DataError(f"{path}: missing column {source!r} "
                            f"(field {native})")
        if count > 1:
            raise DataError(f"{path}: column {source!r} (field {native}) "
                            f"appears {count} times in the header")
    return [header.index(source_of[c]) for c in NATIVE_COLUMNS]


def _read_records(fh, source_of, path, pad=False):
    """The texts of the native fields in each nonblank record after the
    header, one tuple per field.

    Only the fields the reader uses are kept.  A record shorter than the
    header has its missing fields read as "", which no parser accepts: the
    file is then read again with ``pad``.
    """
    reader = csv.reader(fh)
    try:
        columns = _column_positions(next(reader, None), source_of, path)
        records = filter(None, reader)
        if pad:
            width = max(columns) + 1
            records = (r + [""] * (width - len(r)) for r in records)
        rows = list(map(itemgetter(*columns), records))
    except IndexError:
        fh.seek(0)
        return _read_records(fh, source_of, path, pad=True)
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    return list(zip(*rows)) or [()] * len(columns)


def _record_lines(path, records):
    """The physical line each nonblank record numbered in ``records``
    (0 is the first after the header) starts on."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        starts = []
        end = reader.line_num
        for record in reader:
            if record:
                starts.append(end + 1)
            end = reader.line_num
    return [starts[k] for k in records]


# rejection codes, in the order the checks apply; 0 is an accepted row
(_UNPARSEABLE, _NON_FINITE, _NEGATIVE_G, _NEGATIVE_V, _COLD_T,
 _NOT_INCREASING) = range(1, 7)
_REASONS = {_NON_FINITE: "non-finite value",
            _NEGATIVE_G: "negative irradiance",
            _NEGATIVE_V: "negative DC voltage",
            _COLD_T: "module temperature at or below absolute zero",
            _NOT_INCREASING: "timestamp not increasing"}


def _parse_columns(texts):
    """Parse the field texts (timestamp, g, t, v, i), a column at a time.

    Returns the parsed fields and each row's rejection code.  Each value
    column is one numpy conversion, which applies ``float()`` to each text;
    a column that does not convert whole is bisected down to the texts that
    do not.  The timestamps are read by `_timestamps`.  The invariants are
    masks over the columns.
    """
    n = len(texts[0])
    parsed = np.ones((5, n), dtype=bool)
    timestamp = _timestamps(texts[0], parsed[0])
    values = np.full((4, n), np.nan)
    for c in range(4):
        _floats(texts[c + 1], values[c], parsed[c + 1])
    g, t, v, _ = values
    rejection = np.select(
        [~parsed.all(axis=0), ~np.isfinite(values).all(axis=0), g < 0, v < 0,
         t <= ABSOLUTE_ZERO_C],
        [_UNPARSEABLE, _NON_FINITE, _NEGATIVE_G, _NEGATIVE_V, _COLD_T], 0)
    # a row is accepted when it is later than the last accepted row; a row
    # rejected for this is never later than that row, so the last accepted
    # timestamp is the running maximum over all earlier candidates
    candidates = np.flatnonzero(rejection == 0)
    seconds = timestamp[candidates].astype(np.int64)
    late = seconds[1:] <= np.maximum.accumulate(seconds)[:-1]
    rejection[candidates[1:][late]] = _NOT_INCREASING
    return (timestamp, *values), rejection


def _timestamps(texts, parsed):
    """datetime64[s] of each text, read as `parse_timestamp` reads it;
    clears ``parsed`` where the text is not a timestamp.

    `_canonical_seconds` reads the texts in the writer's form at once; each
    other text goes through `parse_timestamp`'s parser.
    """
    seconds = np.zeros(len(texts), dtype=np.int64)
    done = _canonical_seconds(texts, seconds)
    for k in np.flatnonzero(~done).tolist():
        try:
            seconds[k] = _epoch_seconds(texts[k])
        except ValueError:
            parsed[k] = False
    return seconds.view("datetime64[s]")


# byte offsets of the separators and the digits in YYYY-MM-DDTHH:MM:SSZ
_SEPARATORS = [4, 7, 10, 13, 16, 19]
_DIGITS = [k for k in range(20) if k not in _SEPARATORS]


def _canonical_seconds(texts, seconds):
    """Set ``seconds`` of each text that reads ``YYYY-MM-DDTHH:MM:SSZ``
    with ASCII digits and every field in range; returns where it did.

    Only texts of 20 characters are joined, so the bytes read are at most
    20 per row however long a field is.
    """
    n = len(texts)
    twenty = np.fromiter(map(len, texts), np.intp, n) == 20
    rows = np.flatnonzero(twenty)
    chosen = texts if rows.size == n else compress(texts, twenty.tolist())
    # a non-ASCII character becomes "?", which no layout check passes
    raw = np.frombuffer("".join(chosen).encode("ascii", "replace"),
                        np.uint8).reshape(-1, 20)
    digits = raw[:, _DIGITS] - np.uint8(ord("0"))   # wraps below "0"
    ok = (raw[:, _SEPARATORS] == np.frombuffer(b"--T::Z", np.uint8)).all(1) \
        & (digits < 10).all(1)
    # the 7 two-digit numbers; a row with a non-digit wraps, and is not ok
    century, year, month, day, hour, minute, second = \
        (digits[:, ::2] * np.uint8(10) + digits[:, 1::2]).astype(np.int64).T
    year += century * 100
    first = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    date = first.astype("datetime64[D]") + (day - 1)
    # a day past its month's end, or 0, lands in another month
    ok &= (year >= 1) & (month >= 1) & (month <= 12) \
        & (date.astype("datetime64[M]") == first) \
        & (hour < 24) & (minute < 60) & (second < 60)
    seconds[rows[ok]] = (date[ok].astype(np.int64) * 86400 + hour[ok] * 3600
                         + minute[ok] * 60 + second[ok])
    done = np.zeros(n, dtype=bool)
    done[rows[ok]] = True
    return done


def _floats(items, out, ok):
    """``out[:] = items`` as floats; where an item does not convert, bisect
    down to it and clear its ``ok`` flag."""
    try:
        out[:] = np.array(items, dtype=float)
    except ValueError:
        if len(items) == 1:
            ok[0] = False
            return
        mid = len(items) // 2
        _floats(items[:mid], out[:mid], ok[:mid])
        _floats(items[mid:], out[mid:], ok[mid:])


def _diagnosis(rejection, fields):
    if rejection == _UNPARSEABLE:
        # the first field that fails, parsed on its own, words the reason
        try:
            parse_timestamp(fields[0])
            for text in fields[1:]:
                float(text)
        except ValueError as exc:
            return f"unparseable row: {exc}"
    return _REASONS[rejection]


def _undecodable_line(path):
    # the text layer decodes ahead of the CSV reader, so the reader's line
    # count does not locate the bad byte; find it in the raw lines, which
    # end where the reader's do: at \n, \r\n or a lone \r
    with open(path, "rb") as fh:
        raw = fh.read()
    for line_no, line in enumerate(raw.splitlines(), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return line_no
    return "?"


def _csv_field(text):
    """``text`` as ``csv.writer``'s default dialect writes it in a row of
    several fields: quoted, with its quotes doubled, when it holds a comma,
    a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path, header, rows):
    """The one CSV emitter: ``header``, then ``rows``, each its fields'
    texts joined by commas (a text field through `_csv_field`), every row
    ended by CRLF: ``csv.writer``'s default dialect for two or more fields."""
    write_text(path, "\r\n".join([",".join(header), *rows, ""]), newline="")


def write_telemetry_csv(path, series: TelemetrySeries):
    # one format string a row; on Python floats .17g is format_float's text
    _write_csv(path, NATIVE_COLUMNS, [
        f"{ts},{g:.17g},{t:.17g},{v:.17g},{i:.17g}" for ts, g, t, v, i in zip(
            format_timestamp(series.timestamp),
            *(getattr(series, name).tolist() for name in NATIVE_COLUMNS[1:]))])


TRAJECTORY_COLUMNS = ("window_start", "window_end", "i_ph_ref", "i_0_ref",
                      "r_s", "r_sh_ref", "n_diode", "final_loss", "iterations",
                      "converged", "n_points", "r_sh_ref_from_prior")


def write_trajectory_csv(path, results):
    """Fitted-parameter trajectory, one row per window; ``r_sh_ref_from_prior``
    is ``true`` where the window fit's shunt prior, not the data, set most
    of ``r_sh_ref`` (``FitWindowResult.shunt_from_prior``)."""
    _write_csv(path, TRAJECTORY_COLUMNS, [",".join([
        *format_timestamp([r.window_start, r.window_end]),
        *map(format_float, [*r.params.as_array().tolist(), r.final_loss]),
        str(r.iterations), "true" if r.converged else "false",
        str(r.n_points), "true" if r.shunt_from_prior else "false"])
        for r in results])


FORECAST_COLUMNS = ("timestamp", "model", "p_pred_w", "p_meas_w")


def write_forecast_csv(path, forecasts):
    """Long-format forecast table across models, one format string a row."""
    rows = []
    for fc in forecasts:
        model = _csv_field(fc.model)
        rows += [f"{ts},{model},{p:.17g},{m:.17g}"
                 for ts, p, m in zip(format_timestamp(fc.timestamp),
                                     fc.p_pred.tolist(), fc.p_meas.tolist())]
    _write_csv(path, FORECAST_COLUMNS, rows)


METRIC_COLUMNS = ("n_samples", "nmae", "nrmse", "nbe_mean")


def _metric_fields(m):
    return [str(m["n_samples"]), *(format_float(m[k])
                                   for k in METRIC_COLUMNS[1:])]


def write_daily_metrics_csv(path, daily):
    """One row per model and day of ``daily`` ({model: report rows}); a
    skipped day has empty metrics and its reason under ``skipped``."""
    _write_csv(path, ("day", "model", *METRIC_COLUMNS, "skipped"), [
        ",".join([_csv_field(row["day"]), _csv_field(model), *(
            ["", "", "", "", _csv_field(row["skipped"])] if "skipped" in row
            else [*_metric_fields(row), ""])])
        for model, rows in daily.items() for row in rows])


def write_aggregate_metrics_csv(path, aggregate):
    """One row per model of ``aggregate``; a model with no scored day has
    0 samples and empty metrics."""
    _write_csv(path, ("model", *METRIC_COLUMNS), [",".join([
        _csv_field(model),
        *(["0", "", "", ""] if agg is None else _metric_fields(agg))])
        for model, agg in aggregate.items()])


# the item types of a list that ``_emit_json`` writes in one go
_FLOAT_TYPES = {float, np.float64}


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
        if set(map(type, items)) <= _FLOAT_TYPES:
            # a list of floats alone, the bulk of a report: each item as
            # the branch for one float above writes it, in one format call
            # when every item is finite (their sum is then finite or, on
            # overflow, sends the list item by item)
            sep = f",\n{pad}  "
            if math.isfinite(sum(items)):
                body = sep.join(["%.17g"] * len(items)) % tuple(items)
            else:
                body = sep.join(format_float(x) if math.isfinite(x)
                                else "null" for x in items)
            out.append(f"[\n{pad}  {body}\n{pad}]")
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


def write_text(path, text, newline=None):
    with open(path, "w", newline=newline, encoding="utf-8") as fh:
        fh.write(text)


def write_json(path, obj):
    write_text(path, dumps_json(obj))


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
