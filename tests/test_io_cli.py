import csv
import json
import math
import re
import struct
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pvprof import charts, fitting, iotools, synth
from pvprof.benchmark import KNOWN_STUDIES, RunConfig
from pvprof.cli import main
from pvprof.exceptions import ConfigError, DataError
from pvprof.sdm import PARAM_NAMES, ArrayTopology
from pvprof.series import ForecastSeries, TelemetrySeries
from conftest import ALPHA_ISC, CSI_PARAMS, count_calls
from oracles import dumps_json_per_item, read_telemetry_per_record

TOPO = ArrayTopology(72, 12, 8)


def _small_series(days=2, seed=0):
    profile = synth.WeatherProfile(days=days, seed=seed)
    series, _ = synth.generate_dataset(CSI_PARAMS, TOPO, profile,
                                       alpha_isc=ALPHA_ISC)
    return series


class TestTelemetryCsv:
    def test_write_read_write_round_trip(self, tmp_path):
        series = _small_series()
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        iotools.write_telemetry_csv(p1, series)
        back, diagnostics = iotools.read_telemetry_csv(p1)
        assert diagnostics == []
        iotools.write_telemetry_csv(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("naive", [
        "2024-06-01T00:15:00", "2024-06-01 00:15:00.75", "20240601T001500",
        "1969-12-31T23:59:59.5", "1969-12-31T23:59:58.999999",
        "0001-01-01T00:00:00", "9999-12-31T23:59:59.999999"])
    def test_naive_timestamp_reads_as_utc(self, naive):
        # fractional seconds truncate toward the epoch in both forms
        assert iotools.parse_timestamp(naive) \
            == iotools.parse_timestamp(naive + "Z") \
            == iotools.parse_timestamp(naive + "+00:00")

    def test_single_corrupt_row_in_budget(self, tmp_path):
        path = tmp_path / "t.csv"
        n = 10_000
        ts = np.datetime64("2024-01-01T00:00", "s") \
            + np.arange(n) * np.timedelta64(60, "s")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(iotools.NATIVE_COLUMNS)
            for k in range(n):
                if k == 5000:
                    writer.writerow([iotools.format_timestamp(ts[k]),
                                     "not-a-number", "25", "400", "50"])
                else:
                    writer.writerow([iotools.format_timestamp(ts[k]),
                                     "500", "25", "400", "50"])
        series, diagnostics = iotools.read_telemetry_csv(path)
        assert len(series) == n - 1
        assert len(diagnostics) == 1
        assert diagnostics[0][0] == 5002  # header + 1-based data line

    def test_clean_file_reads_at_zero_bad_fraction(self, tmp_path):
        # no bad row is fewer than any share of the rows
        path = tmp_path / "t.csv"
        series = _small_series(days=4)
        iotools.write_telemetry_csv(path, series)
        back, diagnostics = iotools.read_telemetry_csv(path,
                                                       max_bad_fraction=0.0)
        assert diagnostics == []
        assert len(back) == len(series)
        assert read_telemetry_per_record(path, max_bad_fraction=0.0)[1] == []

    def test_too_many_bad_rows_fatal(self, tmp_path):
        path = tmp_path / "t.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(iotools.NATIVE_COLUMNS)
            writer.writerow(["2024-01-01T00:00:00Z", "500", "25", "400", "50"])
            writer.writerow(["2024-01-01T00:01:00Z", "bad", "25", "400", "50"])
        with pytest.raises(DataError):
            iotools.read_telemetry_csv(path)

    def test_missing_column_fatal_with_name(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("timestamp,g_poa,t_module,v_dc\n"
                        "2024-01-01T00:00:00Z,500,25,400\n")
        with pytest.raises(DataError, match="i_dc"):
            iotools.read_telemetry_csv(path)

    def test_mapped_headers_match_native_encoding(self, tmp_path):
        series = _small_series()
        native = tmp_path / "native.csv"
        foreign = tmp_path / "pvdaq_style.csv"
        iotools.write_telemetry_csv(native, series)
        with open(native) as fh:
            rows = list(csv.reader(fh))
        rows[0] = ["measured_on", "poa_irradiance", "module_temp_1",
                   "dc_voltage", "dc_current"]
        with open(foreign, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        mpath = tmp_path / "mapping.json"
        mpath.write_text(json.dumps({
            "timestamp": "measured_on", "g_poa": "poa_irradiance",
            "t_module": "module_temp_1", "v_dc": "dc_voltage",
            "i_dc": "dc_current"}))
        a, _ = iotools.read_telemetry_csv(native)
        b, _ = iotools.read_telemetry_csv(foreign,
                                          iotools.read_mapping(mpath))
        for name in ("timestamp", "g_poa", "t_module", "v_dc", "i_dc"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_non_monotonic_row_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        ts = np.datetime64("2024-01-01T00:00", "s") \
            + np.arange(300) * np.timedelta64(60, "s")
        ts[150] = ts[149] - np.timedelta64(30, "s")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(iotools.NATIVE_COLUMNS)
            for t in ts:
                writer.writerow([iotools.format_timestamp(t),
                                 "500", "25", "400", "50"])
        series, diagnostics = iotools.read_telemetry_csv(path)
        assert len(diagnostics) == 1
        assert "not increasing" in diagnostics[0][1]
        series.validate()


def _canonical_text(fields, edge=None):
    """YYYY-MM-DDTHH:MM:SSZ of the six fields, with ``edge`` (field index,
    value) replacing one of them."""
    fields = list(fields)
    if edge is not None:
        fields[edge[0]] = edge[1]
    year, month, day, hour, minute, second = fields
    return f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:" \
           f"{second:02d}Z"


_VALID_FIELDS = st.tuples(st.integers(1, 9999), st.integers(1, 12),
                          st.integers(1, 28), st.integers(0, 23),
                          st.integers(0, 59), st.integers(0, 59))
# year 0; month 0 or 13; day 0, past the month's end or 32; hour 24;
# minute or second 60
_FIELD_EDGES = st.sampled_from([(0, 0), (1, 0), (1, 13), (2, 0), (2, 29),
                                (2, 30), (2, 31), (2, 32), (3, 24), (4, 60),
                                (5, 60)])
_CANONICAL_SHAPED = st.builds(_canonical_text, _VALID_FIELDS,
                              st.none() | _FIELD_EDGES)
# February 29 and its neighbours in leap, common and century years
_LEAP_DAYS = st.builds(
    lambda year, day, clock: _canonical_text((year, 2, day, *clock)),
    st.sampled_from([1, 4, 100, 400, 1900, 2000, 2023, 2024, 2100, 9996]),
    st.integers(28, 30), _VALID_FIELDS.map(lambda fields: fields[3:]))


def _respelled(text, at, char):
    return text[:at] + char + text[at + 1:]


_TIMESTAMP_TEXTS = st.one_of(
    _CANONICAL_SHAPED, _LEAP_DAYS,
    # a non-ASCII digit or letter, or another separator, in any position
    st.builds(_respelled, _CANONICAL_SHAPED, st.integers(0, 19),
              st.sampled_from(["\u0663", "\uff13", "\u00b2", "\u00e9",
                               " ", "t", "z", "/", "+"])),
    # naive, offset and fractional forms, and other lengths
    _CANONICAL_SHAPED.map(lambda t: t[:-1]),
    st.builds(lambda t, offset: t[:-1] + offset, _CANONICAL_SHAPED,
              st.sampled_from(["+00:00", "-05:30", "+14:00", "+24:00"])),
    _CANONICAL_SHAPED.map(lambda t: t[:-1] + ".5Z"),
    _CANONICAL_SHAPED.map(lambda t: " " + t),
    st.text(max_size=24))


class TestCanonicalTimestamps:
    """The bulk read of YYYY-MM-DDTHH:MM:SSZ against the per-text parser."""

    @given(texts=st.lists(_TIMESTAMP_TEXTS, min_size=1, max_size=40))
    @example(texts=["0000-01-01T00:00:00Z", "0001-01-01T00:00:00Z",
                    "9999-12-31T23:59:59Z", "2023-02-29T00:00:00Z",
                    "2024-02-29T00:00:00Z", "1900-02-29T00:00:00Z",
                    "2000-02-29T00:00:00Z", "2024-04-31T00:00:00Z",
                    "2024-00-01T00:00:00Z", "2024-13-01T00:00:00Z",
                    "2024-06-00T00:00:00Z", "2024-06-32T00:00:00Z",
                    "2024-06-01T24:00:00Z", "2024-06-01T00:60:00Z",
                    "2024-06-01T00:00:60Z", "\u0662024-06-01T00:00:00Z",
                    "2024-06-01 00:00:00Z", "2024-06-01T00:00:00z"])
    def test_column_reads_as_each_text_does(self, texts):
        parsed = np.ones(len(texts), dtype=bool)
        seconds = iotools._timestamps(texts, parsed).astype(np.int64)
        for k, text in enumerate(texts):
            try:
                expected = iotools._epoch_seconds(text)
            except ValueError:
                assert not parsed[k], text
            else:
                assert parsed[k], text
                assert seconds[k] == expected, text

    def test_every_day_of_four_centuries(self):
        days = np.arange(np.datetime64("1900-01-01"),
                         np.datetime64("2300-01-01"))
        texts = [f"{d}T23:59:59Z" for d in days.tolist()]
        parsed = np.ones(len(texts), dtype=bool)
        seconds = iotools._timestamps(texts, parsed)
        assert parsed.all()
        assert np.array_equal(seconds, days + np.timedelta64(86399, "s"))


# edits of one CSV file, as lists of lines; positions are fractions of the
# current length so that every drawn edit applies to any file
_FRAC = st.floats(0.0, 1.0, exclude_max=True)
_EDIT_KINDS = (
    st.tuples(st.just("offset"), _FRAC,
              st.sampled_from([b"+05:30", b"-08:00", b"+00:00", b"+14:00"])),
    st.tuples(st.just("duplicate"), _FRAC),
    st.tuples(st.just("swap"), _FRAC, _FRAC),
    st.tuples(st.just("value"), _FRAC, st.integers(1, 4),
              st.sampled_from([b"NaN", b"nan", b"inf", b"-inf", b"",
                               b"-9999", b"-273.15"])),
    st.tuples(st.just("truncate"), _FRAC, _FRAC),
    st.tuples(st.just("bytes"), _FRAC, st.binary(min_size=1, max_size=4)))
_CSV_EDITS = st.lists(st.one_of(*_EDIT_KINDS), min_size=1, max_size=5)

_BOM = b"\xef\xbb\xbf"
_TIMESTAMP = re.compile(rb"(\d{4})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)Z")
# other ISO-8601 forms: naive (read as UTC), an offset, fractional seconds,
# a space separator and the basic format
_TIMESTAMP_FORMS = (rb"\1-\2-\3T\4:\5:\6", rb"\1-\2-\3T\4:\5:\6+05:30",
                    rb"\1-\2-\3T\4:\5:\6.250Z", rb"\1-\2-\3 \4:\5:\6Z",
                    rb"\1\2\3T\4\5\6")
# edits that move records off their line or off the canonical timestamp
_READER_EDITS = st.lists(st.one_of(
    *_EDIT_KINDS,
    st.tuples(st.just("blank"), _FRAC, st.sampled_from([b"\r\n", b"\n"])),
    st.tuples(st.just("multiline"), _FRAC, st.integers(0, 4), _FRAC),
    st.tuples(st.just("bom"), _FRAC),
    st.tuples(st.just("timestamp"), _FRAC, st.sampled_from(_TIMESTAMP_FORMS),
              st.integers(1, 40))),
    min_size=1, max_size=5)


def _edit_csv(lines, edit):
    kind, pos = edit[0], edit[1]

    def row(frac):  # a data row; the header changes only by byte insertion
        return 1 + int(frac * (len(lines) - 1))

    k = row(pos)
    if kind == "offset":
        lines[k] = lines[k].replace(b"Z,", edit[2] + b",", 1)
    elif kind == "duplicate":
        lines.insert(k, lines[k])
    elif kind == "swap":
        j = row(edit[2])
        lines[k], lines[j] = lines[j], lines[k]
    elif kind == "value":
        fields = lines[k].rstrip(b"\r\n").split(b",")
        fields[min(edit[2], len(fields) - 1)] = edit[3]
        lines[k] = b",".join(fields) + b"\r\n"
    elif kind == "truncate":
        lines[k] = lines[k][:int(edit[2] * len(lines[k]))]
    elif kind == "blank":
        lines.insert(k, edit[2])
    elif kind == "multiline":  # a quoted field with a line break in it
        fields = lines[k].rstrip(b"\r\n").split(b",")
        j = min(edit[2], len(fields) - 1)
        at = int(edit[3] * (len(fields[j]) + 1))
        fields[j] = b'"' + fields[j][:at] + b"\n" + fields[j][at:] + b'"'
        lines[k] = b",".join(fields) + b"\r\n"
    elif kind == "bom":
        if not lines[0].startswith(_BOM):
            lines[0] = _BOM + lines[0]
    elif kind == "timestamp":
        for j in range(k, min(k + edit[3], len(lines))):
            lines[j] = _TIMESTAMP.sub(edit[2], lines[j], count=1)
    else:
        data = b"".join(lines)
        at = int(pos * (len(data) + 1))
        lines[:] = (data[:at] + edit[2] + data[at:]).splitlines(keepends=True)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def base_lines(fuzz_dir):
    path = fuzz_dir / "base.csv"
    iotools.write_telemetry_csv(path, _small_series())
    return path.read_bytes().splitlines(keepends=True)


# the same rows under foreign headers, the timestamp no longer first
_MAPPING = {"timestamp": "ts", "g_poa": "g", "t_module": "t", "v_dc": "v",
            "i_dc": "i"}


@pytest.fixture(scope="module")
def mapped_lines(base_lines):
    lines = [b"g,ts,t,v,i\r\n"]
    for line in base_lines[1:]:
        f = line.rstrip(b"\r\n").split(b",")
        lines.append(b",".join([f[1], f[0], *f[2:]]) + b"\r\n")
    return lines


def _read_mutated(lines, edits, path, mapping=None):
    lines = list(lines)
    for edit in edits:
        _edit_csv(lines, edit)
    path.write_bytes(b"".join(lines))
    try:
        series, _ = iotools.read_telemetry_csv(path, mapping)
    except DataError:
        return
    series.validate()


class TestTelemetryCsvFuzz:
    @given(edits=_CSV_EDITS)
    def test_mutated_csv_gives_valid_series_or_data_error(self, base_lines,
                                                          fuzz_dir, edits):
        _read_mutated(base_lines, edits, fuzz_dir / "mutated.csv")

    @given(edits=_CSV_EDITS)
    def test_mutated_mapped_csv_gives_valid_series_or_data_error(
            self, mapped_lines, fuzz_dir, edits):
        _read_mutated(mapped_lines, edits, fuzz_dir / "mutated_mapped.csv",
                      _MAPPING)

    def test_short_mapped_row_rejected_with_line_number(self, mapped_lines,
                                                        tmp_path):
        # a row cut before its timestamp field
        lines = list(mapped_lines)
        lines[5] = lines[5].split(b",")[0] + b"\r\n"
        path = tmp_path / "t.csv"
        path.write_bytes(b"".join(lines))
        series, diagnostics = iotools.read_telemetry_csv(path, _MAPPING)
        assert [line for line, _ in diagnostics] == [6]
        assert diagnostics[0][1].startswith("unparseable row")
        assert len(series) == len(lines) - 2

    def test_non_utf8_byte_names_file_and_line(self, base_lines, tmp_path):
        lines = list(base_lines)
        lines[7] = lines[7].replace(b",", b",\xff", 1)
        path = tmp_path / "t.csv"
        path.write_bytes(b"".join(lines))
        with pytest.raises(DataError, match=r"t\.csv:8: not UTF-8"):
            iotools.read_telemetry_csv(path)

    def test_oversized_field_names_file_and_line(self, base_lines, tmp_path):
        lines = list(base_lines)
        lines[3] = lines[3].replace(b",", b"," + b"9" * 200_000 + b",", 1)
        path = tmp_path / "t.csv"
        path.write_bytes(b"".join(lines))
        with pytest.raises(DataError, match=r"t\.csv:4: field larger"):
            iotools.read_telemetry_csv(path)


def _set_field(line, j, value):
    fields = line.rstrip(b"\r\n").split(b",")
    fields[j] = value
    return b",".join(fields) + b"\r\n"


class TestTelemetryLayout:
    """Line numbers, byte-order marks and repeated or shared columns."""

    def test_blank_line_does_not_shift_line_numbers(self, base_lines,
                                                    tmp_path):
        lines = list(base_lines)
        lines.insert(3, b"\r\n")  # physical line 4
        lines[101] = _set_field(lines[101], 1, b"bad")  # physical line 102
        path = tmp_path / "t.csv"
        path.write_bytes(b"".join(lines))
        series, diagnostics = iotools.read_telemetry_csv(path)
        assert diagnostics == [
            (102, "unparseable row: could not convert string to float: "
                  "'bad'")]
        assert len(series) == len(base_lines) - 2

    def test_non_utf8_byte_in_cr_only_file_names_its_line(self, tmp_path):
        # a lone CR ends a line for the reader, so the line of an
        # undecodable byte counts it too
        path = tmp_path / "cr.csv"
        iotools.write_telemetry_csv(path, _small_series(days=1))
        lines = path.read_bytes().splitlines()[:11]  # header and 10 rows
        lines[5] = lines[5].replace(b",", b",\xff", 1)  # physical line 6
        path.write_bytes(b"\r".join(lines) + b"\r")
        with pytest.raises(DataError, match=r"cr\.csv:6: not UTF-8"):
            iotools.read_telemetry_csv(path)
        # the same file, decodable, reads all 10 rows
        lines[5] = lines[5].replace(b"\xff", b"", 1)
        path.write_bytes(b"\r".join(lines) + b"\r")
        assert len(iotools.read_telemetry_csv(path, max_bad_fraction=1.0)[0]) \
            == 10

    def test_multiline_field_does_not_shift_line_numbers(self, tmp_path):
        path = tmp_path / "t.csv"
        iotools.write_telemetry_csv(path, _small_series(days=8))
        lines = path.read_bytes().splitlines(keepends=True)
        # the record on line 3 spans lines 3 and 4, and still parses
        t = lines[2].split(b",")[2]
        lines[2] = _set_field(lines[2], 2, b'"' + t + b'\n"')
        lines[700] = _set_field(lines[700], 1, b"bad")  # physical line 702
        path.write_bytes(b"".join(lines))
        series, diagnostics = iotools.read_telemetry_csv(path)
        assert [line for line, _ in diagnostics] == [702]
        assert series.t_module[1] == float(t)

    def test_short_record_after_mark_and_blank_line(self, base_lines,
                                                    tmp_path):
        # a short record sends the reader over the file again, past the
        # byte-order mark, and the line numbers still count the blank line
        lines = list(base_lines)
        lines.insert(3, b"\r\n")  # physical line 4
        lines[9] = lines[9].rsplit(b",", 2)[0] + b"\r\n"  # physical line 10
        lines[20] = _set_field(lines[20], 1, b"-1")  # physical line 21
        path = tmp_path / "t.csv"
        path.write_bytes(_BOM + b"".join(lines))
        series, diagnostics = iotools.read_telemetry_csv(path,
                                                         max_bad_fraction=1.0)
        assert [line for line, _ in diagnostics] == [10, 21]
        assert diagnostics[0][1] == \
            "unparseable row: could not convert string to float: ''"
        assert len(series) == len(base_lines) - 3
        _assert_reads_like_oracle(path)

    def test_byte_order_mark_reads_like_plain_utf8(self, base_lines,
                                                   tmp_path):
        lines = list(base_lines)
        lines[50] = _set_field(lines[50], 3, b"-1")
        plain = tmp_path / "plain.csv"
        marked = tmp_path / "marked.csv"
        plain.write_bytes(b"".join(lines))
        marked.write_bytes(_BOM + b"".join(lines))
        a, a_diagnostics = iotools.read_telemetry_csv(plain)
        b, b_diagnostics = iotools.read_telemetry_csv(marked)
        assert a_diagnostics == b_diagnostics == [(51, "negative DC voltage")]
        _assert_bit_identical(_columns(a), _columns(b))

    def test_repeated_source_column_fatal(self, base_lines, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"".join(_with_extra_column(base_lines, b"g_poa")))
        with pytest.raises(DataError, match="'g_poa'.*2 times"):
            iotools.read_telemetry_csv(path)

    def test_repeated_unused_column_allowed(self, base_lines, tmp_path):
        plain = tmp_path / "plain.csv"
        noted = tmp_path / "noted.csv"
        plain.write_bytes(b"".join(base_lines))
        noted.write_bytes(b"".join(_with_extra_column(
            _with_extra_column(base_lines, b"note"), b"note")))
        a, _ = iotools.read_telemetry_csv(plain)
        b, diagnostics = iotools.read_telemetry_csv(noted)
        assert diagnostics == []
        _assert_bit_identical(_columns(a), _columns(b))

    @pytest.mark.parametrize("mapping, fields", [
        ({"v_dc": "x", "i_dc": "x"}, "v_dc, i_dc"),
        # an unmapped field reads the header of its own name
        ({"v_dc": "i_dc"}, "v_dc, i_dc")])
    def test_mapping_two_fields_one_column_config_error(self, tmp_path,
                                                        mapping, fields):
        path = tmp_path / "mapping.json"
        path.write_text(json.dumps(mapping))
        with pytest.raises(ConfigError, match=fields):
            iotools.read_mapping(path)
        with pytest.raises(ConfigError, match=fields):
            iotools.read_telemetry_csv(tmp_path / "unread.csv", mapping)

    @pytest.mark.parametrize("header", [None, 5, ["irr"], True],
                             ids=json.dumps)
    def test_mapping_header_must_be_a_string(self, tmp_path, header):
        # str() made these the headers "None", "5", "['irr']" and "True",
        # and the run ended with "missing column 'None'" (exit 3)
        path = tmp_path / "mapping.json"
        path.write_text(json.dumps({"g_poa": header}))
        with pytest.raises(ConfigError, match="mapping of g_poa"):
            iotools.read_mapping(path)
        with pytest.raises(ConfigError, match="mapping of g_poa"):
            iotools.read_telemetry_csv(tmp_path / "unread.csv",
                                       {"g_poa": header})

    def test_checks_apply_in_order(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "timestamp,g_poa,t_module,v_dc,i_dc\n"
            "2024-01-01T00:00:00Z,500,25,400,50\n"
            "nonsense,x,25,400,50\n"
            "2024-01-01T00:02:00Z,x,y,400,50\n"
            "2024-01-01T00:03:00Z,-1,nan,400,50\n"
            "2024-01-01T00:04:00Z,-1,25,-1,50\n"
            "2024-01-01T00:00:00Z,500,-9999,-1,50\n"
            "2024-01-01T00:00:00Z,500,-273.15,400,50\n"
            "2024-01-01T00:00:00Z,500,25,400,50\n"
            "2024-01-01T00:07:00Z,500,-273.1,400,50\n")
        expected = [
            (3, "unparseable row: Invalid isoformat string: 'nonsense'"),
            (4, "unparseable row: could not convert string to float: 'x'"),
            (5, "non-finite value"), (6, "negative irradiance"),
            (7, "negative DC voltage"),
            (8, "module temperature at or below absolute zero"),
            (9, "timestamp not increasing")]
        series, diagnostics = iotools.read_telemetry_csv(
            path, max_bad_fraction=1.0)
        assert diagnostics == expected
        assert len(series) == 2
        assert read_telemetry_per_record(path, max_bad_fraction=1.0)[1] \
            == expected

    def test_long_timestamp_field_is_one_rejected_row(self, tmp_path):
        # a field of garbage, as a stray quote or a block without commas
        # leaves, costs the reader its own length, not once per row
        n = 3_456
        ts = np.datetime64("2024-06-01T00:00:00", "s") \
            + np.arange(n) * np.timedelta64(900, "s")
        path = tmp_path / "t.csv"
        iotools.write_telemetry_csv(path, TelemetrySeries(
            ts, np.full(n, 500.0), np.full(n, 25.0), np.full(n, 400.0),
            np.full(n, 50.0)))
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1000] = _set_field(lines[1000], 0,
                                 ("2024-06-11T09:45:00Z" + "\u20ac" * 100_000)
                                 .encode())
        path.write_bytes(b"".join(lines))
        _assert_reads_like_oracle(path)
        tracemalloc.start()
        try:
            series, diagnostics = iotools.read_telemetry_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [line for line, _ in diagnostics] == [1001]
        assert len(series) == n - 1
        assert peak < 8e6


def _with_extra_column(lines, name):
    """The file's lines with a column ``name`` appended, copying g_poa."""
    out = [lines[0].rstrip(b"\r\n") + b"," + name + b"\r\n"]
    for line in lines[1:]:
        row = line.rstrip(b"\r\n")
        out.append(row + b"," + row.split(b",")[1] + b"\r\n")
    return out


def _assert_reads_like_oracle(path, mapping=None):
    try:
        expected, expected_diagnostics = read_telemetry_per_record(path,
                                                                   mapping)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            iotools.read_telemetry_csv(path, mapping)
        assert str(got.value) == str(exc)
        return
    series, diagnostics = iotools.read_telemetry_csv(path, mapping)
    assert diagnostics == expected_diagnostics
    _assert_bit_identical(_columns(series), expected)


def _columns(series):
    return [getattr(series, name) for name in iotools.NATIVE_COLUMNS]


def _assert_bit_identical(xs, ys):
    for x, y in zip(xs, ys, strict=True):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestReaderMatchesPerRecordOracle:
    """The columnar reader against the one-record-at-a-time reference."""

    @given(edits=_READER_EDITS)
    def test_native(self, base_lines, fuzz_dir, edits):
        lines = list(base_lines)
        for edit in edits:
            _edit_csv(lines, edit)
        path = fuzz_dir / "differential.csv"
        path.write_bytes(b"".join(lines))
        _assert_reads_like_oracle(path)

    @given(edits=_READER_EDITS)
    def test_mapped(self, mapped_lines, fuzz_dir, edits):
        lines = list(mapped_lines)
        for edit in edits:
            _edit_csv(lines, edit)
        path = fuzz_dir / "differential_mapped.csv"
        path.write_bytes(b"".join(lines))
        _assert_reads_like_oracle(path, _MAPPING)

    def test_year_of_quarter_hours_reads_back_bit_identical(self, tmp_path):
        n = 34_560
        rng = np.random.default_rng(5)
        ts = np.datetime64("2024-01-01T00:00:00", "s") \
            + np.arange(n) * np.timedelta64(900, "s")
        g = rng.uniform(0.0, 1200.0, n)
        t = rng.normal(25.0, 15.0, n)
        v = rng.uniform(0.0, 600.0, n)
        i = rng.normal(20.0, 30.0, n)
        # exact zeros, signed zeros, the subnormal and largest doubles, and
        # the coldest module temperature the reader accepts
        g[:3], t[:3], v[:3], i[:3] = (0.0, 5e-324, 1.7976931348623157e308), \
            (-0.0, -5e-324, np.nextafter(-273.15, 0.0)), \
            (0.0, 5e-324, 1e-300), (-0.0, 1e300, 0.0)
        written = TelemetrySeries(ts, g, t, v, i)
        path = tmp_path / "year.csv"
        iotools.write_telemetry_csv(path, written)
        back, diagnostics = iotools.read_telemetry_csv(path)
        assert diagnostics == []
        _assert_bit_identical(_columns(back), _columns(written))


# a roster_studies-shaped configuration whose length, filter and synth
# settings the fuzz test overwrites
_FUZZ_BASE = {
    "system": {"topology": {"cells_in_series": 72, "modules_per_string": 12,
                            "strings_in_parallel": 8},
               "datasheet": {"v_oc": 49.17, "i_sc": 9.49, "v_mp": 40.03,
                             "i_mp": 8.91, "alpha_isc": 0.004,
                             "beta_voc": -0.176, "cells_in_series": 72}},
    "models": ["pvpro", "smart_persistence", "naive_persistence", "nominal",
               "lr", "kr"],
    "regressors": {"lambda_grid": [1e-3, 1e-1], "gamma_grid": [0.5, 2.0],
                   "training_lengths_days": [3]},
    "synth": {"days": 3, "cloud_days": [1],
              "true_params": {n: getattr(CSI_PARAMS, n) for n in PARAM_NAMES}},
}
_COUNTS = ("cells_in_series", "modules_per_string", "strings_in_parallel")
_DATASHEET_VALUES = ("v_oc", "i_sc", "v_mp", "i_mp", "alpha_isc", "beta_voc")
_WEATHER_REALS = ("peak_irradiance", "day_length_hours", "cloud_depth",
                  "cloud_timescale_minutes", "ambient_base")
# where a parsed configuration keeps each whole-number setting
_WHOLE = {("horizon_hours",): lambda c: c.horizon / np.timedelta64(1, "h"),
          ("seed",): lambda c: c.seed,
          ("preprocess", "clip_run"): lambda c: c.preprocess.clip_run,
          ("system", "datasheet", "cells_in_series"):
              lambda c: c.datasheet.cells_in_series,
          **{("system", "topology", name):
             (lambda c, name=name: getattr(c.topology, name))
             for name in _COUNTS},
          **{("synth", name):
             (lambda c, name=name: getattr(c.synth["profile"], name))
             for name in ("days", "cadence_minutes")}}
_FUZZ_KEYS = (("fit", "window_days"), ("fit", "update_days"),
              ("fit", "warm_start"), ("regressors", "holdout_days"),
              ("preprocess", "g_min"), ("preprocess", "k_sigma"),
              ("preprocess", "clip_band"), ("preprocess", "p_ac_limit_w"),
              *_WHOLE,
              *(("system", "datasheet", key) for key in _DATASHEET_VALUES),
              *(("synth", key) for key in (*_WEATHER_REALS, "cloud_days",
                                           "start_day", "noise_v", "noise_i",
                                           "alpha_isc")),
              *(("synth", "true_params", name) for name in PARAM_NAMES))
_ANY_SETTING = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e300, -1e300, 1e-300, 0.0, -1.0, 3.0]),
    st.integers(-10 ** 400, 10 ** 400), st.booleans(), st.none(),
    st.text(max_size=6), st.lists(st.integers(0, 9), max_size=2),
    st.sampled_from([12.7, 12.0, 72.9, "3", "24", 0.004, -0.176]))


def _set(raw, path, value):
    """Set the setting at ``path``, a tuple of keys, in the nested
    configuration ``raw``."""
    for key in path[:-1]:
        raw = raw.setdefault(key, {})
    raw[path[-1]] = value


# a misspelled key of every part of a configuration, and the error that
# names it
_MISSPELLED = [
    (("preprocess", "gmin"), "unknown preprocess setting 'gmin'"),
    (("regressors", "lamda_grid"),
     "unknown regressors setting 'lamda_grid'"),
    (("evaluation", "begin"), "unknown evaluation setting 'begin'"),
    (("data", "telemetri"), "unknown data setting 'telemetri'"),
    (("system", "p_nominal"), "unknown system setting 'p_nominal'"),
    (("horizon_hour",), "unknown top-level setting 'horizon_hour'"),
    (("fit", "window_dayz"), "unknown fit setting 'window_dayz'"),
    (("studies", "sweeps"), "unknown study 'sweeps'"),
    (("system", "topology", "modules"),
     "unknown system.topology setting 'modules'"),
    (("system", "datasheet", "alpha_is"),
     "unknown system.datasheet setting 'alpha_is'")]


class TestRunConfigFuzz:
    @given(settings=st.dictionaries(st.sampled_from(_FUZZ_KEYS),
                                    _ANY_SETTING, max_size=4))
    @example(settings={("system", "topology", "strings_in_parallel"): True})
    @example(settings={("fit", "window_days"): "3"})
    def test_config_parses_or_raises_config_error(self, settings):
        raw = json.loads(json.dumps(_FUZZ_BASE))
        for path, value in settings.items():
            _set(raw, path, value)
        try:
            config = RunConfig.from_dict(raw)
        except ConfigError:
            return
        # a numeric setting that parsed was a JSON number, and a whole one
        # was read as given, not truncated
        for path, value in settings.items():
            if path[-1] not in ("warm_start", "cloud_days", "start_day") \
                    and value is not None:
                assert type(value) in (int, float), (path, value)
            if path in _WHOLE:
                assert _WHOLE[path](config) == value, (path, value)
        pre = config.preprocess
        assert 0 <= pre.g_min < math.inf and 0 < pre.k_sigma < math.inf
        assert 0 <= pre.clip_band < math.inf
        assert isinstance(pre.clip_run, int) and pre.clip_run >= 1
        assert pre.p_ac_limit is None or 0 < pre.p_ac_limit < math.inf
        counts = [getattr(config.topology, name) for name in _COUNTS]
        counts.append(config.datasheet.cells_in_series)
        assert all(type(count) is int and count >= 1 for count in counts)
        assert all(type(getattr(config.datasheet, key)) is float
                   and math.isfinite(getattr(config.datasheet, key))
                   for key in _DATASHEET_VALUES)
        assert type(config.seed) is int and config.seed >= 0
        assert config.window_length > np.timedelta64(0, "s")
        assert config.horizon >= np.timedelta64(1, "h")
        assert 0 < config.p_nominal < math.inf
        # the synth section parsed to checked values only; a large drawn
        # day count allocates nothing, since nothing is synthesized
        profile, parsed = config.synth["profile"], config.synth
        assert all(type(count) is int and count >= 1
                   for count in (profile.days, profile.cadence_minutes))
        reals = [getattr(profile, name) for name in _WEATHER_REALS]
        reals += [getattr(parsed["true_params"], n) for n in PARAM_NAMES]
        reals += [parsed[key] for key in ("alpha_isc", "noise_v", "noise_i")
                  if key in parsed]
        assert all(type(v) is float and math.isfinite(v) for v in reals)
        assert all(type(day) is int and 0 <= day < profile.days
                   for day in profile.cloud_days)
        assert all(parsed.get(key, 0.0) >= 0 for key in ("noise_v", "noise_i"))

    @pytest.mark.parametrize("path, value", [
        # int() made 12.7 modules 12 and true strings 1, a nameplate 8x
        # too small
        (("system", "topology", "modules_per_string"), 12.7),
        (("system", "topology", "strings_in_parallel"), True),
        (("system", "topology", "cells_in_series"), "72"),
        (("system", "datasheet", "cells_in_series"), 72.9),
        (("seed",), 1.5), (("seed",), True), (("seed",), -1),
        (("horizon_hours",), 1.5), (("preprocess", "clip_run"), "3"),
        # float() read true as 1 and "3" as 3
        (("fit", "window_days"), True), (("fit", "update_days"), True),
        (("horizon_hours",), True), (("regressors", "holdout_days"), True),
        (("fit", "window_days"), "3"), (("horizon_hours",), "24"),
        (("preprocess", "g_min"), "50"),
        (("regressors", "lambda_grid"), ["0.001"]),
        (("regressors", "training_lengths_days"), "37"),
        (("system", "datasheet", "v_oc"), "49.17"),
        (("system", "p_nominal_w"), "5000"),
        # tuple() read the string as a roster of its letters
        (("models",), "pvpro"),
        # a NaN or infinite coefficient stalled the extraction (exit 4)
        *((("system", "datasheet", key), value) for key in _DATASHEET_VALUES
          for value in (math.nan, math.inf, -math.inf)),
        # np.datetime64 read a number as seconds since 1970 (true as
        # 00:00:01), so every day became a forecast day, and a time of day
        # on end silently added its next day; a fraction and a list were
        # refused without the key's name
        (("evaluation", "start"), 5), (("evaluation", "start"), True),
        (("evaluation", "start"), "2024-06-04T06:00:00"),
        (("evaluation", "end"), "2024-06-07T12:00:00"),
        (("evaluation", "end"), 1.5), (("evaluation", "end"), ["2024-06-07"])],
        ids=lambda v: ".".join(v) if isinstance(v, tuple)
        else json.dumps(v))
    def test_setting_is_checked_not_coerced(self, path, value):
        raw = json.loads(json.dumps(_FUZZ_BASE))
        _set(raw, path, value)
        with pytest.raises(ConfigError, match=".".join(path)):
            RunConfig.from_dict(raw)

    def test_whole_float_reads_as_an_int(self):
        # as clip_run always did: 3.0 is the whole number 3
        raw = json.loads(json.dumps(_FUZZ_BASE))
        for path in _WHOLE:
            _set(raw, path, 72.0 if path[-1] == "cells_in_series" else 3.0)
        config = RunConfig.from_dict(raw)
        assert config.horizon == np.timedelta64(3, "h")
        for path, get in _WHOLE.items():
            if path != ("horizon_hours",):
                assert type(get(config)) is int
                assert get(config) == (72 if path[-1] == "cells_in_series"
                                       else 3)

    def test_evaluation_day_reads_in_either_form(self):
        # a day, or that day at midnight as perfbench writes it
        configs = []
        for start, end in (("2024-06-04", "2024-06-07"),
                           ("2024-06-04T00:00:00", "2024-06-07T00:00:00")):
            raw = json.loads(json.dumps(_FUZZ_BASE))
            raw["evaluation"] = {"start": start, "end": end}
            configs.append(RunConfig.from_dict(raw))
        for config in configs:
            assert config.eval_start == np.datetime64("2024-06-04T00:00:00")
            assert config.eval_end == np.datetime64("2024-06-07T00:00:00")

    @pytest.mark.parametrize("key, value", [
        ("g_min", math.nan), ("g_min", -1.0), ("g_min", math.inf),
        ("k_sigma", math.nan), ("k_sigma", 0.0), ("k_sigma", math.inf),
        ("clip_band", math.nan), ("clip_band", -0.01), ("clip_run", 0),
        ("clip_run", 2.5), ("clip_run", True), ("p_ac_limit_w", 0.0),
        ("p_ac_limit_w", math.nan), ("p_ac_limit_w", math.inf)])
    def test_preprocess_setting_out_of_range_is_refused(self, key, value):
        # a NaN g_min flags no night and a NaN k_sigma no outlier, so every
        # metric cell, or no record, would be dropped without a word
        raw = json.loads(json.dumps(_FUZZ_BASE))
        raw["preprocess"] = {key: value}
        with pytest.raises(ConfigError, match=f"preprocess.{key}"):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize("text", ["Infinity", "NaN", "1e400", "0", "-1"])
    def test_p_nominal_must_be_finite_and_positive(self, text):
        # json reads Infinity and 1e400 as inf, which scores every model
        # 0; NaN skips every cell; 0 and -1 are not a nameplate either
        raw = json.loads(json.dumps(_FUZZ_BASE))
        raw["system"]["p_nominal_w"] = json.loads(text)
        with pytest.raises(ConfigError, match="p_nominal_w"):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize("system", [{}, {"p_nominal_w": None}])
    def test_absent_p_nominal_comes_from_the_datasheet(self, system):
        raw = json.loads(json.dumps(_FUZZ_BASE))
        raw["system"].update(system)
        ds = raw["system"]["datasheet"]
        assert RunConfig.from_dict(raw).p_nominal == (
            ds["v_mp"] * 12 * ds["i_mp"] * 8)

    def test_climate_zone_is_an_annotation(self):
        raw = json.loads(json.dumps(_FUZZ_BASE))
        plain = RunConfig.from_dict(raw)
        raw["system"]["climate_zone"] = "Csa"
        assert replace(RunConfig.from_dict(raw), raw=None) == replace(
            plain, raw=None)

    @pytest.mark.parametrize("path, message", _MISSPELLED,
                             ids=[".".join(path) for path, _ in _MISSPELLED])
    def test_misspelled_key_is_refused_and_named(self, path, message):
        # a misspelled key would leave its setting at the default
        raw = json.loads(json.dumps(_FUZZ_BASE))
        target = raw
        for part in path[:-1]:
            target = target.setdefault(part, {})
        target[path[-1]] = 1
        with pytest.raises(ConfigError, match=f"^{message}$"):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize("value", ["false", 0, None])
    @pytest.mark.parametrize("section, key", [
        ("fit", "warm_start"), (None, "metrics_daylight_only"),
        *(("studies", name) for name in KNOWN_STUDIES)])
    def test_flag_must_be_a_json_boolean(self, section, key, value):
        # bool("false") is True: a flag is read only from a JSON boolean
        raw = json.loads(json.dumps(_FUZZ_BASE))
        (raw.setdefault(section, {}) if section else raw)[key] = value
        with pytest.raises(ConfigError, match=key):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize("value", [True, False])
    def test_warm_start_is_accepted_and_has_no_effect(self, value):
        # every window fit starts from the datasheet; old configurations
        # that set the key still parse, to the same settings
        raw = json.loads(json.dumps(_FUZZ_BASE))
        plain = RunConfig.from_dict(raw)
        raw["fit"] = {"warm_start": value}
        assert replace(RunConfig.from_dict(raw), raw=None) == replace(
            plain, raw=None)

    @pytest.mark.parametrize("value", [None, [1], 3, "x"])
    @pytest.mark.parametrize("section", ["data", "system", "preprocess", "fit",
                                         "regressors", "studies",
                                         "evaluation", "synth"])
    def test_section_must_be_object(self, section, value):
        raw = json.loads(json.dumps(_FUZZ_BASE))
        raw[section] = value
        with pytest.raises(ConfigError, match=f"'{section}'"):
            RunConfig.from_dict(raw)


class TestJson:
    def test_seventeen_digit_floats(self):
        text = iotools.dumps_json({"x": 0.1})
        assert "0.10000000000000001" in text

    def test_sorted_keys_and_round_trip(self):
        doc = {"b": [1.5, 2], "a": {"z": True, "y": None}}
        text = iotools.dumps_json(doc)
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == doc

    def test_non_finite_serialized_as_null(self):
        assert json.loads(iotools.dumps_json({"x": float("nan")}))["x"] is None

    def test_exact_float_round_trip(self):
        rng = np.random.default_rng(3)
        vals = (rng.standard_normal(50) * 10.0 ** rng.integers(-20, 20, 50))
        back = json.loads(iotools.dumps_json({"v": vals.tolist()}))["v"]
        assert back == vals.tolist()

    @pytest.mark.parametrize("floats", [
        [0.1, -0.0, 5e-324, 1e300, 1.0 / 3.0],
        [1.5, math.nan, 2.5],
        [math.inf, -math.inf, 0.0],
        [1e308, 1e308, -2.0],
        [np.float64(0.1), 0.2, np.float64(-7.25)],
        np.array([0.5, np.nan, -1e-300]),
        np.array([1.0, 2.0, 3.0]),
        [1.0],
    ])
    def test_float_lists_match_the_per_item_writer(self, floats):
        # a list of floats alone is written in one go; its bytes must be
        # the per-item writer's, non-finite items and overflowing sums too
        doc = {"a": floats, "b": {"c": [floats, list(floats)]}}
        assert iotools.dumps_json(doc) == dumps_json_per_item(doc)

    @pytest.mark.parametrize("items", [
        [1.5, True, 2.5], [0.5, None], [0.25, np.int64(3), 0.75],
        [np.float32(0.1), 0.1], [np.float32(1.5), np.float32(2.0)],
        [1.0, 2], [1.0, "x"], [1.0, [2.0, 3.0]], [[], {}, ()],
        [1.0, {"k": [math.nan, 2.0]}], (1.0, 2.0),
        np.array([1, 2, 3]), np.array([0.5, 1.5], dtype=np.float32),
    ])
    def test_mixed_lists_match_the_per_item_writer(self, items):
        doc = {"v": items, "empty": [], "nested": {"w": [items, []]},
               "n": np.int64(4), "f": np.float32(0.3), "x": math.nan}
        assert iotools.dumps_json(doc) == dumps_json_per_item(doc)


# model names and skip reasons that csv.writer quotes, or does not
CSV_TEXTS = ["pvpro", "a,b", 'say "hi"', 'x,"y"', "line\nbreak", "cr\rend",
             "", " lead", "100%"]


def branchy_format_float(x):
    # the branch-per-case form format_float replaced
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


class TestFloatText:
    NEG_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000000))[0]

    def test_format_float_matches_the_branchy_form(self):
        assert math.isnan(self.NEG_NAN)
        assert math.copysign(1.0, self.NEG_NAN) == -1.0
        values = [math.nan, self.NEG_NAN, math.inf, -math.inf, -0.0, 0.0,
                  5e-324, -2.2250738585072014e-308, sys.float_info.max,
                  -sys.float_info.max, 0.1, np.float64(1.0 / 3.0),
                  np.float32(0.1), 7]
        for x in values:
            assert iotools.format_float(x) == branchy_format_float(x)
        assert [iotools.format_float(x) for x in values[:5]] == [
            "nan", "nan", "inf", "-inf", "-0"]

    def test_forecast_csv_rows_match_per_record_formatting(self, tmp_path):
        ts = (np.datetime64("2024-06-01T00:00:00")
              + np.arange(4) * np.timedelta64(900, "s"))
        forecasts = [
            ForecastSeries(ts, [1.5, math.nan, -0.0, 1e300], "a",
                           p_meas=[math.inf, 2.0, self.NEG_NAN, 5e-324]),
            ForecastSeries(ts[:2], [0.1, 2.0], "b", p_meas=[math.nan, 0.5])]
        path = tmp_path / "forecasts.csv"
        iotools.write_forecast_csv(path, forecasts)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        expected = [list(iotools.FORECAST_COLUMNS)]
        for fc in forecasts:
            expected += [[iotools.format_timestamp(fc.timestamp[k]), fc.model,
                          branchy_format_float(fc.p_pred[k]),
                          branchy_format_float(fc.p_meas[k])]
                         for k in range(len(fc))]
        assert rows == expected


    @pytest.mark.parametrize("model", CSV_TEXTS)
    def test_forecast_csv_bytes_match_csv_writer(self, tmp_path, model):
        # the table is formatted row by row in one string; its bytes must be
        # csv.writer's default dialect with format_float numbers
        ts = (np.datetime64("2024-06-01T00:00:00")
              + np.arange(8) * np.timedelta64(900, "s"))
        pred = [math.nan, self.NEG_NAN, math.inf, -math.inf, -0.0, 5e-324,
                1e300, np.float32(0.1)]
        meas = [np.float32(2.5), 0.1, 1.0 / 3.0, -1e-300, math.nan, 7.0,
                -0.0, math.inf]
        forecasts = [ForecastSeries(ts, pred, model, p_meas=meas),
                     ForecastSeries(ts[:3], pred[:3], "second", meas[5:])]
        path = tmp_path / "forecasts.csv"
        iotools.write_forecast_csv(path, forecasts)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(iotools.FORECAST_COLUMNS)
            for fc in forecasts:
                for k in range(len(fc)):
                    writer.writerow([iotools.format_timestamp(fc.timestamp[k]),
                                     fc.model, iotools.format_float(
                                         fc.p_pred[k]),
                                     iotools.format_float(fc.p_meas[k])])
        assert path.read_bytes() == reference.read_bytes()
        assert b"\r\n" in path.read_bytes()


def _old_timestamp(ts):
    # format_timestamp's text, formed one record at a time: the oracle
    return str(np.datetime64(ts, "s")) + "Z"


def _csv_writer_bytes(path, header, rows):
    """The oracle: ``csv.writer``'s default dialect writing ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


class TestCsvWritersMatchCsvWriter:
    """Every table's bytes are those ``csv.writer`` writes for its rows;
    every pvprof row has two or more fields."""

    VALUES = [math.nan, TestFloatText.NEG_NAN, math.inf, -math.inf, -0.0,
              5e-324, 1e300, 0.1]

    def test_telemetry(self, tmp_path):
        ts = (np.datetime64("1969-12-31T23:00:00")
              + np.arange(8) * np.timedelta64(1800, "s"))
        columns = [self.VALUES, self.VALUES[::-1], self.VALUES[2:] +
                   self.VALUES[:2], [1e-300, -1.5, 2.0, 0.0, 3.0, 5e-324,
                                     math.nan, -math.inf]]
        series = TelemetrySeries(ts, *columns)
        path = tmp_path / "telemetry.csv"
        iotools.write_telemetry_csv(path, series)
        rows = [[_old_timestamp(ts[k])]
                + [iotools.format_float(c[k]) for c in columns]
                for k in range(len(ts))]
        assert path.read_bytes() == _csv_writer_bytes(
            tmp_path / "reference.csv", iotools.NATIVE_COLUMNS, rows)

    def test_trajectory_with_a_failed_window(self, tmp_path):
        end = np.datetime64("2024-06-04T00:00:00")
        window = np.timedelta64(3, "D")
        fitted = replace(CSI_PARAMS, r_s=0.1 + 0.2, n_diode=1.0 / 0.9)
        results = [
            fitting.FitWindowResult(end - window, end, fitted, 1e-300, 12,
                                    True, 1344, shunt_from_prior=True),
            # a failed window: nan loss, 0 iterations, the starting point
            fitting.FitWindowResult(end, end + window, CSI_PARAMS, math.nan,
                                    0, False, 23, error="too few records"),
            fitting.FitWindowResult(end + window, end + 2 * window, fitted,
                                    0.1, np.int64(7), np.bool_(False),
                                    np.int64(96))]
        path = tmp_path / "trajectory.csv"
        iotools.write_trajectory_csv(path, results)
        rows = [[_old_timestamp(r.window_start), _old_timestamp(r.window_end),
                 *(iotools.format_float(getattr(r.params, name))
                   for name in PARAM_NAMES),
                 iotools.format_float(r.final_loss), r.iterations,
                 "true" if r.converged else "false", r.n_points,
                 "true" if r.shunt_from_prior else "false"]
                for r in results]
        assert path.read_bytes() == _csv_writer_bytes(
            tmp_path / "reference.csv", iotools.TRAJECTORY_COLUMNS, rows)
        assert b",nan,0,false,23,false\r\n" in path.read_bytes()

    @pytest.mark.parametrize("text", CSV_TEXTS)
    def test_metric_tables(self, tmp_path, text):
        metrics = {"n_samples": 40, "nmae": 0.1, "nrmse": 1.0 / 3.0,
                   "nbe_mean": -0.0, "exceedance": {"p90": 0.2}}
        odd = {"n_samples": np.int64(7), "nmae": 5e-324, "nrmse": math.inf,
               "nbe_mean": math.nan}
        daily = {
            text: [{"day": "2024-06-02", **metrics},
                   {"day": "2024-06-03", "skipped": f"reason {text}"}],
            "b": [{"day": "2024-06-02",
                   "skipped": 'window has 44 retained records, need >= 50'},
                  {"day": "2024-06-03", "skipped": 'a "quoted"\r\nreason'},
                  {"day": "2024-06-04", **odd}]}
        aggregate = {text: metrics, "b": None, "c,d": odd}
        daily_path = tmp_path / "daily_metrics.csv"
        aggregate_path = tmp_path / "aggregate_metrics.csv"
        iotools.write_daily_metrics_csv(daily_path, daily)
        iotools.write_aggregate_metrics_csv(aggregate_path, aggregate)

        def scored(m):
            return [m["n_samples"], iotools.format_float(m["nmae"]),
                    iotools.format_float(m["nrmse"]),
                    iotools.format_float(m["nbe_mean"])]

        rows = [[row["day"], model, "", "", "", "", row["skipped"]]
                if "skipped" in row else [row["day"], model, *scored(row), ""]
                for model, model_rows in daily.items() for row in model_rows]
        assert daily_path.read_bytes() == _csv_writer_bytes(
            tmp_path / "daily_reference.csv",
            ["day", "model", "n_samples", "nmae", "nrmse", "nbe_mean",
             "skipped"], rows)
        rows = [[model, 0, "", "", ""] if agg is None
                else [model, *scored(agg)]
                for model, agg in aggregate.items()]
        assert aggregate_path.read_bytes() == _csv_writer_bytes(
            tmp_path / "aggregate_reference.csv",
            ["model", "n_samples", "nmae", "nrmse", "nbe_mean"], rows)
        assert b'"window has 44 retained records, need >= 50"' \
            in daily_path.read_bytes()

    def test_timestamp_texts_match_the_per_record_form(self):
        ts = (np.datetime64("1969-12-31T23:59:59")
              + np.arange(0, 10**9, 10**7) * np.timedelta64(1, "s"))
        assert iotools.format_timestamp(ts) == [_old_timestamp(t)
                                                for t in ts]
        assert iotools.format_timestamp(ts[3]) == _old_timestamp(ts[3])


class TestCharts:
    def test_line_chart_embeds_data_table(self):
        svg = charts.line_chart({"m1": [0.01, 0.02, 0.015]}, "t", "y",
                                x_labels=["d1", "d2", "d3"])
        assert svg.startswith("<svg")
        assert "<polyline" in svg
        assert "<!--" in svg
        table = svg.split("<!--\n")[1].split("\n-->")[0].splitlines()
        assert table[0] == "data"
        assert table[1] == "x,m1"
        assert table[2].split(",")[0] == "d1"
        assert float(table[3].split(",")[1]) == 0.02

    def test_histogram_renders_all_series(self):
        rng = np.random.default_rng(0)
        svg = charts.histogram({"a": rng.normal(0, 1, 500),
                                "b": rng.normal(1, 2, 500)}, "t", "x")
        assert svg.count("<polyline") >= 2
        assert '"a"' not in svg  # plain labels, not JSON


def _write_config(tmp_path, days=9, models=("pvpro", "nominal",
                                            "smart_persistence"),
                  extra=None):
    from pvprof import synthesize_datasheet
    ds = synthesize_datasheet(CSI_PARAMS, 72, alpha_isc=ALPHA_ISC)
    cfg = {
        "data": {"telemetry": "telemetry.csv"},
        "system": {
            "topology": {"cells_in_series": 72, "modules_per_string": 12,
                         "strings_in_parallel": 8},
            "datasheet": {"v_oc": ds.v_oc, "i_sc": ds.i_sc, "v_mp": ds.v_mp,
                          "i_mp": ds.i_mp, "alpha_isc": ds.alpha_isc,
                          "beta_voc": ds.beta_voc, "cells_in_series": 72},
        },
        "models": list(models),
        "seed": 11,
        "synth": {"days": days, "cloud_days": [2], "cloud_depth": 0.5,
                  "true_params": {"i_ph_ref": CSI_PARAMS.i_ph_ref,
                                  "i_0_ref": CSI_PARAMS.i_0_ref,
                                  "r_s": CSI_PARAMS.r_s,
                                  "r_sh_ref": CSI_PARAMS.r_sh_ref,
                                  "n_diode": CSI_PARAMS.n_diode},
                  "alpha_isc": ALPHA_ISC},
    }
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# a malformed synth section, and a text its error must hold; after each
# measured case, what the parent did with it
_MALFORMED_SYNTH = [
    (3, "'synth'"), ([1], "'synth'"), ("x", "'synth'"),
    ({"dayz": 3}, "synth setting 'dayz'"),
    ({"scenario": {"r_s": []}}, "synth.scenario.r_s"),
    ({"scenario": {"r_s": ["linear"]}}, "synth.scenario.r_s"),
    ({"days": "2"}, "synth.days"),
    ({"scenario": {"r_s": ["quadratic", 0.1]}}, "synth.scenario.r_s"),
    ({"scenario": {"r_s": ["linear", 0.1, 5]}}, "synth.scenario.r_s"),
    ({"cadence_minutes": 0}, "synth.cadence_minutes"),
    ({"cadence_minutes": 7.5}, "synth.cadence_minutes"),
    ({"true_params": {"i_ph_ref": 9.5}}, "synth.true_params"),
    ({"true_params": {**{n: getattr(CSI_PARAMS, n) for n in PARAM_NAMES},
                      "r_s": -1}}, "synth.true_params"),
    ({"noise_v": "x"}, "synth.noise_v"),
    ({"peak_irradiance": "x"}, "synth.peak_irradiance"),
    ({"peak_irradiance": -5}, "synth.peak_irradiance"),
    ({"start_day": "x"}, "synth.start_day"),
    # the parent: exit 3, "negative DC voltage values" (100 % noise)
    ({"noise_v": True}, "synth.noise_v"),
    # exit 0, synthesized with a current coefficient of 1 A/degC
    ({"alpha_isc": True}, "synth.alpha_isc"),
    # exit 0: float() read each string below as its number
    ({"noise_i": "0.5"}, "synth.noise_i"),
    # exit 0
    ({"true_params": {**{n: getattr(CSI_PARAMS, n) for n in PARAM_NAMES},
                      "r_s": "0.35"}}, "synth.true_params.r_s"),
    # an uncaught numpy UFuncTypeError, a traceback
    ({"ambient_base": "20"}, "synth.ambient_base"),
    # exit 0
    ({"scenario": {"r_s": ["linear", "0.3"]}}, "synth.scenario.r_s"),
    # exit 0, day 1 silently clear
    ({"cloud_days": [1.5]}, "synth.cloud_days"),
    # exit 0, day 1 clouded
    ({"cloud_days": [True]}, "synth.cloud_days"),
    # exit 0, a cloud depth of 1
    ({"cloud_depth": True}, "synth.cloud_depth"),
    # exit 3, "negative DC voltage values"
    ({"noise_v": -0.5}, "synth.noise_v"),
    # an uncaught ZeroDivisionError, a traceback
    ({"cloud_timescale_minutes": 0}, "synth.cloud_timescale_minutes"),
    # exit 3, "non-finite values in column g_poa"
    ({"cloud_timescale_minutes": math.nan}, "synth.cloud_timescale_minutes"),
    # exit 3, "non-finite values in column t_module"
    ({"ambient_base": math.nan}, "synth.ambient_base"),
    # exit 3, "non-finite values in column v_dc"
    ({"noise_v": math.nan}, "synth.noise_v"),
    # exit 2, "cloud_depth must lie in [0, 1]", not naming the NaN
    ({"cloud_depth": math.nan}, "synth.cloud_depth must be a finite number"),
    # exit 2, "day_length_hours must lie in (0, 24]"
    ({"day_length_hours": math.nan},
     "synth.day_length_hours must be a finite number"),
    # exit 2, "got multiple values for keyword argument 'seed'"
    ({"seed": 3}, "unknown synth setting 'seed'"),
    # exit 0, the step never happening in the 9 generated days
    ({"scenario": {"r_s": ["step", 100, 0.5]}}, "synth.scenario.r_s"),
    # exit 0, the step in force from the first day
    ({"scenario": {"r_s": ["step", -1, 0.5]}}, "synth.scenario.r_s"),
]


class TestCli:
    @pytest.mark.parametrize("argv", [
        [], ["bogus", "--config", "c.json"],
        *([command] for command in ("synth", "fit", "predict", "benchmark")),
        *([command, "--config", "c.json", "--report", "r.json"]
          for command in ("synth", "fit", "predict", "benchmark"))])
    def test_usage_error_exit_code(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "usage: pvprof" in capsys.readouterr().err

    def test_report_needs_no_config(self, tmp_path):
        # without a report to read it is a data error, not a usage error
        assert main(["report", "--report", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)]) == 3

    def test_full_command_chain(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = str(tmp_path)
        assert main(["synth", "--config", str(cfg), "--out", out]) == 0
        assert (tmp_path / "telemetry.csv").exists()
        assert (tmp_path / "ground_truth.json").exists()

        assert main(["fit", "--config", str(cfg), "--out", out]) == 0
        traj = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert traj[0].split(",") == list(iotools.TRAJECTORY_COLUMNS)
        assert len(traj) > 1
        # one lower-case flag per window, as `converged`
        assert {row.split(",")[-1] for row in traj[1:]} <= {"true", "false"}

        assert main(["benchmark", "--config", str(cfg), "--out", out]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema_version"] == 1
        assert set(report["aggregate"]) == {"pvpro", "nominal",
                                            "smart_persistence"}
        fc = (tmp_path / "forecasts.csv").read_text().splitlines()
        assert fc[0].split(",") == list(iotools.FORECAST_COLUMNS)

        assert main(["report", "--config", str(cfg), "--out", out]) == 0
        assert (tmp_path / "daily_nmae.svg").exists()
        assert (tmp_path / "nbe_histogram.svg").exists()

    def test_predict_writes_forecast(self, tmp_path):
        cfg = _write_config(tmp_path, days=6, models=("pvpro",))
        out = str(tmp_path)
        assert main(["synth", "--config", str(cfg), "--out", out]) == 0
        assert main(["predict", "--config", str(cfg), "--out", out]) == 0
        lines = (tmp_path / "forecast.csv").read_text().splitlines()
        assert len(lines) > 1
        assert all(",pvpro," in line for line in lines[1:])

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"models": ["pvpro"]}))  # no system
        assert main(["benchmark", "--config", str(path)]) == 2

    def test_section_not_object_exit_code(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, extra={"preprocess": None})
        assert main(["benchmark", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert "'preprocess'" in capsys.readouterr().err

    @pytest.mark.parametrize("change, named", [
        pytest.param(change, named, id=json.dumps(change))
        for change, named in _MALFORMED_SYNTH])
    def test_malformed_synth_section_exit_code(self, tmp_path, capsys,
                                               change, named):
        cfg = _write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        if isinstance(change, dict):
            raw["synth"].update(change)
        else:
            raw["synth"] = change
        cfg.write_text(json.dumps(raw))
        assert main(["synth", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "telemetry.csv").exists()

    def test_malformed_synth_section_refused_by_every_command(self, tmp_path,
                                                              capsys):
        # the synth section parses with the rest of the configuration, so
        # a bad one is refused before a command reads its telemetry; at
        # the parent only `pvprof synth` read it, and this benchmark exited 0
        cfg = _write_config(tmp_path, days=4, models=("smart_persistence",))
        out = str(tmp_path)
        assert main(["synth", "--config", str(cfg), "--out", out]) == 0
        raw = json.loads(cfg.read_text())
        raw["synth"]["noise_v"] = True
        cfg.write_text(json.dumps(raw))
        capsys.readouterr()
        for command in ("benchmark", "fit", "predict", "synth"):
            assert main([command, "--config", str(cfg), "--out", out]) == 2
            assert "synth.noise_v" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        {"telemetry": 3}, {"telemetry": "telemetry.csv", "mapping": 3}],
        ids=["telemetry", "mapping"])
    def test_data_path_not_string_exit_code(self, tmp_path, capsys, data):
        cfg = _write_config(tmp_path, extra={"data": data})
        assert main(["benchmark", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert "data." in capsys.readouterr().err

    def test_unreadable_config_exit_code(self, tmp_path):
        (tmp_path / "truncated.json").write_text('{"system": ')
        (tmp_path / "list.json").write_text("[1, 2]")
        # a missing file, a directory, broken JSON and a non-object; --seed
        # writes into the parsed document, so a non-object is refused first
        for name in ("missing.json", "", "truncated.json", "list.json"):
            assert main(["benchmark", "--config", str(tmp_path / name),
                         "--seed", "1"]) == 2

    @pytest.mark.parametrize("fit", [
        {"max_iterations": 0}, {"max_iterations": -5},
        {"loss_tolerance": -1.0}, {"loss_tolerance": 0.0},
        {"loss_tolerance": float("nan")}, {"loss_tolerance": float("inf")},
        {"window_days": 0}, {"window_days": -1}, {"window_days": float("nan")},
        {"window_days": 1e300}, {"update_days": 0}, {"update_days": -1},
        {"window_dayz": 3}],
        ids=lambda fit: "-".join(f"{k}={v}" for k, v in fit.items()))
    @pytest.mark.parametrize("command", ["fit", "benchmark"])
    def test_invalid_fit_settings_exit_code(self, tmp_path, command, fit):
        cfg = _write_config(tmp_path, extra={"fit": fit})
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key", ["max_iterations", "loss_tolerance",
                                     "window_dayz"])
    def test_unknown_fit_setting_is_named(self, tmp_path, capsys, key):
        # the evaluation cap and tolerance are fixed; a config that still
        # sets one must not run silently under the fixed value
        cfg = _write_config(tmp_path, extra={"fit": {key: 50}})
        assert main(["benchmark", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        {"horizon_hours": 1e300}, {"horizon_hours": float("nan")},
        {"horizon_hours": float("inf")}, {"horizon_hours": 1e16},
        {"horizon_hours": 0}, {"horizon_hours": -5}, {"horizon_hours": 1.5},
        {"regressors": {"holdout_days": 1e300}},
        {"regressors": {"holdout_days": float("nan")}},
        {"regressors": {"holdout_days": 0}},
        *({"regressors": {"training_lengths_days": lengths}} for lengths in (
            [1e300], [float("nan")], ["x"], [0], [-3], [True], [3, 3]))],
        ids=lambda extra: json.dumps(extra))
    def test_invalid_lengths_exit_code(self, tmp_path, extra):
        cfg = _write_config(tmp_path, models=("pvpro", "lr"), extra=extra)
        assert main(["benchmark", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key", ["alpha_isc", "beta_voc"])
    def test_non_finite_datasheet_coefficient_exit_code(self, tmp_path,
                                                        capsys, key):
        # it used to stall the datasheet extraction, exit code 4
        cfg = _write_config(tmp_path)
        out = str(tmp_path)
        assert main(["synth", "--config", str(cfg), "--out", out]) == 0
        raw = json.loads(cfg.read_text())
        raw["system"]["datasheet"][key] = math.nan
        cfg.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["benchmark", "--config", str(cfg), "--out", out]) == 2
        assert f"system.datasheet.{key}" in capsys.readouterr().err

    def test_fit_without_datasheet_exit_code(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, days=3, models=("lr",))
        raw = json.loads(cfg.read_text())
        del raw["system"]["datasheet"]
        raw["system"]["p_nominal_w"] = 7000.0
        cfg.write_text(json.dumps(raw))
        out = str(tmp_path)
        assert main(["synth", "--config", str(cfg), "--out", out]) == 0
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg), "--out", out]) == 2
        assert "datasheet" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        None, "directory", b'{"daily": ', b"[1, 2]",
        b'{"daily": {"m": [1]}}', b'{"aggregate": [1]}',
        b'{"studies": {"sweep": {"g_poa": 1}}}',
        b'{"daily": {"m": [{"day": "d", "nmae": "x"}]}}'],
        ids=["missing", "directory", "truncated_json", "not_object",
             "daily_row_not_object", "aggregate_not_object",
             "sweep_feature_not_object", "nmae_not_number"])
    def test_unreadable_report_exit_code(self, tmp_path, content):
        report = tmp_path / "report.json"
        if content == "directory":
            report.mkdir()
        elif content is not None:
            report.write_bytes(content)
        assert main(["report", "--out", str(tmp_path)]) == 3

    def test_report_charts_around_a_failed_sweep(self, tmp_path):
        # a sweep study whose reference extraction failed holds its error
        (tmp_path / "report.json").write_text(json.dumps({
            "daily": {"m": [{"day": "2024-06-01", "nmae": 0.01},
                            {"day": "2024-06-02", "skipped": "no data"}]},
            "studies": {"sweep": {"error": "extraction failed"}}}))
        assert main(["report", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "daily_nmae.svg").exists()
        assert not list(tmp_path.glob("sweep_*.svg"))

    @pytest.mark.parametrize("content", [b'{"timestamp": "ts",',
                                         b'{"timestamp": "\xe9"}', None,
                                         # exit 3 at the parent: str() made
                                         # the header "None"
                                         b'{"g_poa": null}'],
                             ids=["truncated_json", "not_utf8", "missing",
                                  "header_not_a_string"])
    def test_unreadable_mapping_exit_code(self, tmp_path, content):
        cfg = _write_config(tmp_path, extra={"data": {
            "telemetry": "telemetry.csv", "mapping": "mapping.json"}})
        if content is not None:
            (tmp_path / "mapping.json").write_bytes(content)
        assert main(["benchmark", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("regressors", [{"lambda_grid": [1e-3, -1.0]},
                                            {"gamma_grid": [0.5, -50.0]},
                                            {"gamma_grid": []}])
    def test_invalid_ridge_grid_exit_code(self, tmp_path, regressors):
        # an empty gamma grid is rejected even without kernel ridge in the
        # roster, as an empty lambda grid is
        cfg = _write_config(tmp_path, extra={"regressors": regressors})
        assert main(["benchmark", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    def test_repeated_roster_model_exit_code(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, models=("pvpro", "lr", "pvpro"))
        assert main(["benchmark", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "repeated" in err and "pvpro" in err

    def test_infeasible_datasheet_sweep_records_error(self, tmp_path):
        # no diode curve reaches this fill factor: the pvpro fits start from
        # heuristic seeds, and the sweep has no reference curve
        cfg = _write_config(tmp_path, days=6, models=("pvpro",))
        raw = json.loads(cfg.read_text())
        raw["system"]["datasheet"].update(v_oc=49.0, i_sc=9.5, v_mp=48.9,
                                          i_mp=9.45)
        raw["studies"] = {"sweep": True}
        cfg.write_text(json.dumps(raw))
        out = str(tmp_path)
        assert main(["synth", "--config", str(cfg), "--out", out]) == 0
        assert main(["benchmark", "--config", str(cfg), "--out", out]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert "extraction stalled" in report["studies"]["sweep"]["error"]
        assert report["aggregate"]["pvpro"]

    def test_data_error_exit_code(self, tmp_path):
        cfg = _write_config(tmp_path)
        # no telemetry.csv generated
        assert main(["benchmark", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("extra, code, named", [
        (b"g_poa", 3, ["'g_poa'"]), (b"note", 0, [])],
        ids=["repeated_source_column", "repeated_unused_column"])
    def test_repeated_column_exit_code(self, tmp_path, capsys, extra, code,
                                       named):
        cfg = _write_config(tmp_path, days=4, models=("smart_persistence",))
        out = str(tmp_path)
        assert main(["synth", "--config", str(cfg), "--out", out]) == 0
        csv_path = tmp_path / "telemetry.csv"
        lines = csv_path.read_bytes().splitlines(keepends=True)
        csv_path.write_bytes(b"".join(_with_extra_column(
            _with_extra_column(lines, extra), extra)))
        capsys.readouterr()
        assert main(["benchmark", "--config", str(cfg), "--out", out]) == code
        err = capsys.readouterr().err
        assert all(name in err for name in named)

    def test_mapping_two_fields_one_column_exit_code(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, days=3, models=("smart_persistence",),
                            extra={"data": {"telemetry": "telemetry.csv",
                                            "mapping": "mapping.json"}})
        (tmp_path / "mapping.json").write_text(
            json.dumps({"v_dc": "x", "i_dc": "x"}))
        assert main(["synth", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["benchmark", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "v_dc" in err and "i_dc" in err

    def test_non_utf8_telemetry_exit_code(self, tmp_path):
        cfg = _write_config(tmp_path, days=3)
        out = str(tmp_path)
        assert main(["synth", "--config", str(cfg), "--out", out]) == 0
        csv_path = tmp_path / "telemetry.csv"
        data = csv_path.read_bytes()
        cut = data.index(b"\n", len(data) // 2) + 1
        csv_path.write_bytes(data[:cut] + b"\xe9" + data[cut:])
        assert main(["benchmark", "--config", str(cfg), "--out", out]) == 3

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg_path = _write_config(tmp_path, days=6, models=("nominal",))
        out = str(tmp_path)
        main(["synth", "--config", str(cfg_path), "--out", out])
        doc = json.loads(cfg_path.read_text())
        # a fill factor no single-diode curve can reach
        doc["system"]["datasheet"].update({"v_mp": 48.9, "i_mp": 9.45})
        cfg_path.write_text(json.dumps(doc))
        assert main(["benchmark", "--config", str(cfg_path),
                     "--out", out]) == 4

    def test_roster_and_seed_overrides(self, tmp_path):
        cfg = _write_config(tmp_path, days=6)
        out = str(tmp_path)
        main(["synth", "--config", str(cfg), "--out", out])
        assert main(["benchmark", "--config", str(cfg), "--out", out,
                     "--models", "pvpro", "--seed", "99"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report["aggregate"]) == {"pvpro"}
        assert report["provenance"]["seed"] == 99

    def test_benchmark_trajectory_is_the_fit_trajectory_but_its_last(
            self, tmp_path):
        # both commands run one rolling loop and label a window [end -
        # length, end); the fit's last window ends at the data end and has
        # no forecast day after it
        cfg = _write_config(tmp_path, days=6, models=("pvpro",),
                            extra={"studies": {"exceedance": False}})
        main(["synth", "--config", str(cfg), "--out", str(tmp_path)])
        rows = {}
        for command in ("fit", "benchmark"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg),
                         "--out", str(out)]) == 0
            rows[command] = (out / "trajectory.csv").read_text().splitlines()
        assert len(rows["fit"]) == 1 + 4
        assert rows["benchmark"] == rows["fit"][:-1]
        assert rows["fit"][-1].split(",")[1] == "2024-06-07T00:00:00Z"

    def test_fit_solves_every_window_in_one_batch(self, tmp_path,
                                                   monkeypatch):
        cfg = _write_config(tmp_path, days=6, models=("pvpro",))
        main(["synth", "--config", str(cfg), "--out", str(tmp_path)])
        batches = count_calls(monkeypatch, fitting, "_solve")
        assert main(["fit", "--config", str(cfg), "--out",
                     str(tmp_path)]) == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 1 + 4
        assert len(batches) == 1 and len(batches[0][0]) == 4

    def test_sweep_study_chart(self, tmp_path):
        cfg = _write_config(tmp_path, days=6, models=("pvpro",),
                            extra={"studies": {"sweep": True}})
        out = str(tmp_path)
        main(["synth", "--config", str(cfg), "--out", out])
        assert main(["benchmark", "--config", str(cfg), "--out", out]) == 0
        assert main(["report", "--config", str(cfg), "--out", out]) == 0
        for feature in ("g_poa", "t_module", "hod"):
            svg = (tmp_path / f"sweep_{feature}.svg").read_text()
            assert "reference" in svg and "<polyline" in svg

    def test_provenance_hash_tracks_config_content(self, tmp_path):
        cfg = _write_config(tmp_path, days=6, models=("nominal",))
        out = str(tmp_path)
        main(["synth", "--config", str(cfg), "--out", out])
        main(["benchmark", "--config", str(cfg), "--out", out])
        h1 = json.loads((tmp_path / "report.json").read_text()
                        )["provenance"]["config_sha256"]
        # reordering keys must not change the hash
        doc = json.loads(cfg.read_text())
        reordered = {k: doc[k] for k in reversed(list(doc))}
        cfg.write_text(json.dumps(reordered))
        main(["benchmark", "--config", str(cfg), "--out", out])
        h2 = json.loads((tmp_path / "report.json").read_text()
                        )["provenance"]["config_sha256"]
        assert h1 == h2
        # a content change must change it
        doc["seed"] = 999
        cfg.write_text(json.dumps(doc))
        main(["benchmark", "--config", str(cfg), "--out", out])
        h3 = json.loads((tmp_path / "report.json").read_text()
                        )["provenance"]["config_sha256"]
        assert h3 != h1
