import io
import json
import math
import re
import tempfile
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import kernel_only, row_parser_calls
from flowrhythm import floattext, readings
from flowrhythm.binning import readings_to_days
from flowrhythm.errors import (
    CounterDecrease,
    EmptyInput,
    MalformedRow,
    NonMonotonicTimestamp,
    TooFewReadings,
)
from flowrhythm.readings import (
    ReadingStream,
    difference_cumulative,
    parse_stream,
    read_blocks,
    read_stream,
    segment_litres,
    write_stream_csv,
    write_stream_jsonl,
)
from flowrhythm.synth import ScenarioConfig, generate, generate_blocks

CSV = """timestamp,cumulative_litres
2021-03-01T00:00:00+00:00,100.0
2021-03-01T00:15:10+00:00,101.5
2021-03-01T00:30:20+00:00,101.5
2021-03-01T00:45:30+00:00,104.25
"""


def make_stream(epochs, litres):
    return ReadingStream(np.asarray(epochs, np.int64), np.asarray(litres, np.float64), "t")


def test_parse_csv_with_header():
    s = parse_stream(CSV, fmt="csv")
    assert len(s) == 4
    assert s.litres[0] == 100.0
    assert s.epoch_s[0] == datetime(2021, 3, 1, tzinfo=timezone.utc).timestamp()


def test_parse_csv_without_header():
    s = parse_stream("2021-03-01T00:00:00Z,1.0\n2021-03-01T00:15:00Z,2.0\n")
    assert len(s) == 2
    assert s.litres[1] == 2.0


def test_parse_csv_z_suffix_and_offset_agree():
    a = parse_stream("2021-03-01T05:00:00Z,1.0\n")
    b = parse_stream("2021-03-01T06:00:00+01:00,1.0\n")
    assert a.epoch_s[0] == b.epoch_s[0]


def test_parse_csv_requires_timezone():
    with pytest.raises(MalformedRow, match="row 1"):
        parse_stream("2021-03-01T00:00:00,1.0\n")


def test_parse_csv_malformed_row_reports_physical_line():
    text = "timestamp,cumulative_litres\n2021-03-01T00:00:00Z,1.0\nnot-a-row\n"
    with pytest.raises(MalformedRow, match="row 3"):
        parse_stream(text)


def test_parse_csv_wrong_column_count():
    with pytest.raises(MalformedRow):
        parse_stream("2021-03-01T00:00:00Z,1.0,extra\n")


def test_parse_rejects_non_monotone_timestamps():
    text = "2021-03-01T00:15:00Z,1.0\n2021-03-01T00:15:00Z,2.0\n"
    with pytest.raises(NonMonotonicTimestamp):
        parse_stream(text)


def test_parse_empty_input():
    with pytest.raises(EmptyInput):
        parse_stream("")
    with pytest.raises(EmptyInput):
        parse_stream("timestamp,cumulative_litres\n")


def test_parse_jsonl():
    text = (
        '{"ts": "2021-03-01T00:00:00Z", "litres_total": 5.5}\n'
        '{"ts": "2021-03-01T00:15:00Z", "litres_total": 6.0}\n'
    )
    s = parse_stream(text, fmt="jsonl")
    assert len(s) == 2
    assert s.litres[1] == 6.0


def test_parse_jsonl_rejects_bool_litres():
    with pytest.raises(MalformedRow):
        parse_stream('{"ts": "2021-03-01T00:00:00Z", "litres_total": true}\n', fmt="jsonl")


def test_parse_jsonl_rejects_missing_keys():
    with pytest.raises(MalformedRow, match="row 1"):
        parse_stream('{"ts": "2021-03-01T00:00:00Z"}\n', fmt="jsonl")


def test_difference_cumulative_values_and_bounds():
    s = parse_stream(CSV)
    intervals = difference_cumulative(s)
    assert len(intervals) == 3
    assert intervals.litres.tolist() == [1.5, 0.0, 2.75]
    assert intervals.start_s.tolist() == s.epoch_s[:-1].tolist()
    assert intervals.end_s.tolist() == s.epoch_s[1:].tolist()
    assert intervals.start_s[0] == datetime(2021, 3, 1, tzinfo=timezone.utc).timestamp()
    assert [iv.litres for iv in intervals] == [1.5, 0.0, 2.75]


def test_difference_requires_two_readings():
    with pytest.raises(TooFewReadings):
        difference_cumulative(make_stream([0], [1.0]))


def test_difference_raises_on_counter_decrease_with_index():
    s = make_stream([0, 900, 1800], [5.0, 4.0, 6.0])
    with pytest.raises(CounterDecrease) as err:
        difference_cumulative(s)
    assert err.value.index == 1


def test_conservation_sum_of_intervals(demo_stream):
    intervals = difference_cumulative(demo_stream)
    total = math.fsum(intervals.litres)
    expected = float(demo_stream.litres[-1] - demo_stream.litres[0])
    assert total == pytest.approx(expected, rel=1e-9)


def test_consecutive_differences_are_exact():
    # Neighbouring cumulative readings are close enough that their float
    # difference is exact, so per-interval usage carries no rounding at all.
    rng = np.random.default_rng(5)
    litres = np.cumsum(rng.uniform(0, 20, 500))
    s = make_stream(np.arange(500) * 900, litres)
    intervals = difference_cumulative(s)
    for k, used in enumerate(intervals.litres.tolist()):
        assert used == float(litres[k + 1]) - float(litres[k])


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(11)
    litres = np.cumsum(rng.uniform(0, 3, 50))
    s = make_stream(np.arange(50) * 901, litres)
    path = tmp_path / "r.csv"
    write_stream_csv(s, path)
    back = parse_stream(path.read_text())
    assert np.array_equal(back.epoch_s, s.epoch_s)
    assert np.array_equal(back.litres, s.litres)


def test_jsonl_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(12)
    litres = np.cumsum(rng.uniform(0, 3, 50))
    s = make_stream(np.arange(50) * 901, litres)
    path = tmp_path / "r.jsonl"
    write_stream_jsonl(s, path)
    back = parse_stream(path.read_text(), fmt="jsonl")
    assert np.array_equal(back.epoch_s, s.epoch_s)
    assert np.array_equal(back.litres, s.litres)


def test_sub_second_stamps_rounding_together_report_physical_line():
    # 00:15:00.200 and 00:15:00.400 both round to 00:15:00; the second of
    # the pair sits on physical line 5 (after a header and a blank line).
    text = (
        "timestamp,cumulative_litres\n"
        "2021-03-01T00:00:00Z,1.0\n"
        "\n"
        "2021-03-01T00:15:00.200Z,2.0\n"
        "2021-03-01T00:15:00.400Z,3.0\n"
    )
    with pytest.raises(NonMonotonicTimestamp) as err:
        parse_stream(text)
    assert err.value.row == 5


def test_digit_free_first_row_with_numeric_value_is_not_a_header():
    with pytest.raises(MalformedRow) as err:
        parse_stream("meter-a,1.0\n2021-03-01T00:00:00Z,1.0\n")
    assert err.value.row == 1
    s = parse_stream("time,litres\n2021-03-01T00:00:00Z,1.0\n")
    assert len(s) == 1 and s.litres[0] == 1.0


def test_segment_litres_sums_within_counter_segments():
    s = make_stream([0, 900, 1800, 2700], [0.0, 2.0, 5.0, 0.5])
    assert segment_litres(s) == 5.0
    s = make_stream([0, 900, 1800, 2700, 3600], [1.0, 2.0, 0.5, 3.0, 1.0])
    assert segment_litres(s) == 1.0 + 2.5 + 0.0
    s = make_stream([0, 900], [0.25, 7.5])
    assert segment_litres(s) == 7.25
    assert segment_litres(make_stream([], [])) == 0.0


def test_writers_match_per_reading_isoformat_across_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(readings, "BLOCK_ROWS", 7)
    rng = np.random.default_rng(21)
    epochs = np.cumsum(rng.integers(1, 10**6, 40)) - 2 * 10**9  # from 1906 on
    s = make_stream(epochs, np.cumsum(rng.uniform(0, 1e4, 40)))
    stamps = [datetime.fromtimestamp(int(t), timezone.utc).isoformat() for t in epochs]
    write_stream_csv(s, tmp_path / "r.csv")
    write_stream_jsonl(s, tmp_path / "r.jsonl")
    csv_lines = ["timestamp,cumulative_litres"] + [
        f"{t},{float(v)!r}" for t, v in zip(stamps, s.litres)
    ]
    jsonl_lines = [json.dumps({"ts": t, "litres_total": float(v)}) for t, v in zip(stamps, s.litres)]
    assert (tmp_path / "r.csv").read_text() == "\n".join(csv_lines) + "\n"
    assert (tmp_path / "r.jsonl").read_text() == "\n".join(jsonl_lines) + "\n"


UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
FIRST, LAST = readings.FIRST_EPOCH_S, readings.LAST_EPOCH_S
# Instants where a date's digit arithmetic goes wrong first: the ends of the
# range, leap days, the century years 1900, 2000 and 2100, and year ends.
WRITER_EDGES = [FIRST, LAST] + [
    int((datetime(y, m, d, tzinfo=timezone.utc) - UNIX_EPOCH).total_seconds())
    for y, m, d in [(1, 3, 1), (4, 2, 29), (1900, 2, 28), (1900, 3, 1), (1969, 12, 31), (2000, 2, 29),
                    (2000, 3, 1), (2100, 2, 28), (2100, 3, 1), (2400, 2, 29), (9999, 1, 1)]
]
# Values where repr changes notation (below 1e-4 and from 1e16 on), the
# signed zeros, subnormals and the largest double.
WRITER_VALUES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1e-5,
                 9.999999999999999e-05, 1e-4, 9999999999999998.0, 1e16, 1.7976931348623157e308]


@st.composite
def writable_streams(draw):
    """Streams anywhere in the range a stream may hold, with runs of equal values."""
    steps = draw(st.lists(st.integers(1, 3 * 86400), min_size=0, max_size=60))
    base = draw(st.one_of(st.integers(FIRST, LAST), st.sampled_from(WRITER_EDGES)))
    start = min(max(base - draw(st.integers(0, sum(steps))), FIRST), LAST - sum(steps))
    epochs = start + np.cumsum([0] + steps)
    values = st.one_of(st.sampled_from(WRITER_VALUES), st.floats(0.0, allow_infinity=False))
    runs = draw(st.lists(st.tuples(values, st.integers(1, 4)), min_size=len(epochs), max_size=len(epochs)))
    litres = [v for v, k in runs for _ in range(k)][: len(epochs)]
    return make_stream(epochs, litres)


@pytest.mark.parametrize("block_rows", [1, 7, 4096])
@settings(max_examples=150, deadline=None)
@given(stream=writable_streams())
@example(stream=make_stream(sorted(WRITER_EDGES), [0.0, -0.0, -0.0, 0.0, *WRITER_VALUES[2:]]))
def test_writers_write_isoformat_and_repr_of_every_reading(block_rows, stream):
    stamps = [(UNIX_EPOCH + timedelta(seconds=int(t))).isoformat() for t in stream.epoch_s]
    values = stream.litres.tolist()
    csv_lines = ["timestamp,cumulative_litres"] + [f"{t},{v!r}" for t, v in zip(stamps, values)]
    jsonl_lines = [json.dumps({"ts": t, "litres_total": v}) for t, v in zip(stamps, values)]
    with tempfile.TemporaryDirectory() as tmp, patch.object(readings, "BLOCK_ROWS", block_rows):
        write_stream_csv(stream, Path(tmp) / "r.csv")
        write_stream_jsonl(stream, Path(tmp) / "r.jsonl")
        assert (Path(tmp) / "r.csv").read_bytes() == "".join(f"{line}\n" for line in csv_lines).encode()
        assert (Path(tmp) / "r.jsonl").read_bytes() == "".join(f"{line}\n" for line in jsonl_lines).encode()


def encoded_stamps(epochs: np.ndarray) -> np.ndarray:
    """The writer's stamps of epochs, as _decode_timestamps takes them."""
    frames = np.tile(np.frombuffer(readings._STAMP_FRAME, np.uint8), (len(epochs), 1))
    readings._put_stamps(frames, epochs)
    return np.pad(frames, ((0, 0), (0, 1)))


def test_decoder_inverts_the_stamp_encoder():
    # One instant a day, at a second that moves through the day, over a
    # whole 400-year cycle of the calendar and the ends of the range.
    days = np.concatenate([np.arange(-25_567, -25_567 + 146_097 + 1), [FIRST // 86400, LAST // 86400]])
    epochs = days * 86400 + (days * 7919) % 86400
    epochs[-2:] = FIRST, LAST
    assert readings._decode_timestamps(encoded_stamps(epochs)).tolist() == epochs.tolist()
    sample = epochs[::997]
    assert [bytes(row[:25]).decode() for row in encoded_stamps(sample)] == [
        (UNIX_EPOCH + timedelta(seconds=int(t))).isoformat() for t in sample
    ]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(FIRST, LAST), min_size=1, max_size=50, unique=True).map(sorted))
def test_decoder_inverts_the_stamp_encoder_anywhere_in_range(epochs):
    epochs = np.array(epochs, dtype=np.int64)
    assert readings._decode_timestamps(encoded_stamps(epochs)).tolist() == epochs.tolist()


def test_encoder_writes_isoformat_of_every_second_of_a_day_and_across_midnights():
    # One block: a whole leap day, then runs across the 1999/2000,
    # 2099/2100 and 9999-12-30 midnights and up to the last instant.
    def at(y, m, d):
        return int((datetime(y, m, d, tzinfo=timezone.utc) - UNIX_EPOCH).total_seconds())
    epochs = np.concatenate([
        at(2000, 1, 1) + np.arange(-300, 300), at(2000, 2, 29) + np.arange(86400),
        at(2100, 1, 1) + np.arange(-300, 300), at(9999, 12, 30) + np.arange(-300, 300), np.arange(LAST - 99, LAST + 1),
    ])
    expected = np.array([(UNIX_EPOCH + timedelta(seconds=int(t))).isoformat() for t in epochs], dtype="S25")
    stamps = encoded_stamps(epochs)
    assert np.array_equal(np.ascontiguousarray(stamps[:, :25]).view("S25")[:, 0], expected)
    assert readings._decode_timestamps(stamps).tolist() == epochs.tolist()


CANONICAL_STAMP = re.compile(rb"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(Z|[+-]\d\d:\d\d)")


def stamp_instant(stamp: bytes) -> int | None:
    """The instant datetime reads from a NUL-padded stamp in the canonical
    layout, or None: the decoder's oracle. Where the row parser takes the
    stamp, it reads the same instant."""
    text = stamp.rstrip(b"\0")
    if not CANONICAL_STAMP.fullmatch(text):
        return None
    try:
        instant = (datetime.fromisoformat(text.decode().replace("Z", "+00:00")) - UNIX_EPOCH) // timedelta(seconds=1)
    except ValueError:
        return None
    if FIRST <= instant <= LAST:
        assert readings._parse_timestamp(text.decode()) == instant
    return instant


@pytest.mark.parametrize("base", [
    "2000-02-29T23:59:59Z", "2000-02-29T23:59:59+23:59", "1900-02-28T23:59:59-23:59",
    "0001-01-02T00:00:00Z", "0001-01-01T23:00:00-01:00", "9999-12-30T23:59:59Z", "9999-12-31T00:59:59+01:00",
])
def test_decoder_takes_exactly_the_stamps_datetime_reads_after_any_byte_changes(base):
    # Each of the 26 bytes set to each of the 256 values, in the middle of
    # a block that shares the base's date, so the date is checked per run.
    row = np.frombuffer(base.encode().ljust(26, b"\0"), dtype=np.uint8)
    mutants = np.tile(row, (26 * 256, 1))
    mutants[np.arange(26 * 256), np.repeat(np.arange(26), 256)] = np.tile(np.arange(256), 26)
    instant = stamp_instant(row.tobytes())
    for mutant in mutants:
        expected = stamp_instant(mutant.tobytes())
        decoded = readings._decode_timestamps(np.stack([row, mutant, row]))
        assert (None if decoded is None else decoded.tolist()) == (
            None if expected is None else [instant, expected, instant]
        ), mutant.tobytes()


@pytest.mark.parametrize("epochs", [[FIRST - 1, FIRST], [LAST, LAST + 1], [-(2**62), 0]])
def test_stream_rejects_instants_outside_its_range(epochs):
    with pytest.raises(ValueError, match="0001-01-02T00:00:00Z to 9999-12-30T23:59:59Z"):
        make_stream(epochs, [1.0, 2.0])
    assert len(make_stream([FIRST, LAST], [1.0, 2.0])) == 2


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("stamp", [
    "0001-01-01T00:30:00+01:00",  # year 0 in UTC
    "0001-01-01T23:59:59.4Z",
    "9999-12-31T23:00:00-02:00",  # year 10000 in UTC
    "9999-12-30T23:59:59.6Z",  # rounds to 9999-12-31
])
def test_instants_outside_the_range_are_malformed_rows(fmt, stamp):
    text = csv_text([(stamp, 1.0)], header=False) if fmt == "csv" else jsonl_text([(stamp, 1.0)])
    with pytest.raises(MalformedRow, match="row 1: .* outside 0001-01-02T00:00:00Z to 9999-12-30T23:59:59Z"):
        parse_stream(text, fmt)


# --- array fast path against the row parser ---------------------------------------


class RowParser(Exception):
    """The fast path left a chunk to the row parser."""


def fast_path(text: str, fmt: str = "csv"):
    """What the array fast path makes of text: (epoch_s, litres) joined from
    its blocks, or None where it leaves a chunk to the row parser or reads
    no reading."""
    try:
        with patch.object(readings, "_row_block", side_effect=RowParser):
            epochs, litres = zip(*readings._blocks(io.BytesIO(text.encode()), fmt))
    except (RowParser, EmptyInput):
        return None
    return np.concatenate(epochs), np.concatenate(litres)


def takes(number: str, fmt: str = "csv") -> bool:
    """Whether the fast path takes a number's text: digits with at most one
    point, at most 19 digits after it, FIELD_BYTES bytes in all, and digits
    that read below 10^19 without the point; for JSONL, also in JSON's
    number shape."""
    digits = number.replace(".", "", 1)
    shape = r"(0|[1-9][0-9]*)(\.[0-9]+)?" if fmt == "jsonl" else r"[0-9]*\.?[0-9]*"
    return (re.fullmatch(shape, number) is not None and digits != "" and len(number.partition(".")[2]) <= 19
            and len(number) <= floattext.FIELD_BYTES and int(digits) < 10**19)


def outcome(text: str, fmt: str = "csv", fast: bool = True):
    """What parse_stream makes of text: the stream's bits, or the error."""
    return parsed(lambda: parse_stream(text, fmt), text.encode("utf-8", "surrogatepass"), fmt, fast)


def file_outcome(data: bytes, fmt: str, fast: bool = True):
    """What read_stream makes of a file holding data: the stream's bits, or the error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"readings.{fmt}"
        path.write_bytes(data)
        return parsed(lambda: read_stream(path), data, fmt, fast)


def whole_file(data: bytes, fmt: str) -> ReadingStream:
    """The stream the row parser reads from all of data after a byte order
    mark, as one chunk: a reading with no chunks, line counts or header
    carried from chunk to chunk."""
    epoch, litres, _, _ = readings._row_block(
        data.removeprefix(b"\xef\xbb\xbf"), fmt, 0, fmt == "csv", readings.FIRST_EPOCH_S - 1
    )
    if not len(epoch):
        raise EmptyInput("no readings found")
    return ReadingStream(epoch, litres)


def parsed(parse, data: bytes, fmt: str, fast: bool):
    """The bits of the stream parse() returns, or its error; with fast=False
    those of whole_file(data), the row parser's reading of it."""
    try:
        s = parse() if fast else whole_file(data, fmt)
    except Exception as exc:  # every error type must agree, not just DataError
        return type(exc), str(exc)
    return s.epoch_s.tolist(), [v.hex() for v in s.litres.tolist()]


def stamp(epoch: int, offset_minutes: int | None) -> str:
    """Canonical ISO text of an instant, with `Z` when the offset is None."""
    if offset_minutes is None:
        return datetime.fromtimestamp(epoch, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    local = datetime.fromtimestamp(epoch, timezone(timedelta(minutes=offset_minutes)))
    return local.isoformat()


# Instants on month ends and leap days, where digit arithmetic goes wrong first.
EDGE_DAYS = [
    datetime(y, m, d, tzinfo=timezone.utc)
    for y, m, d in [(1900, 2, 28), (1904, 2, 29), (2000, 2, 29), (2019, 12, 31),
                    (2020, 2, 29), (2021, 1, 31), (2100, 2, 28), (2400, 2, 29), (1970, 1, 1)]
]
offsets = st.one_of(st.none(), st.integers(-(24 * 60 - 1), 24 * 60 - 1))


@st.composite
def canonical_rows(draw):
    """Strictly increasing instants as canonical stamps, with repr'd litres."""
    base = draw(st.one_of(
        st.integers(-2_000_000_000, 4_000_000_000),
        st.sampled_from(EDGE_DAYS).map(lambda d: int(d.timestamp())),
    ))
    n = draw(st.integers(1, 30))
    epochs = base - 3 * 86400 + np.cumsum(draw(st.lists(st.integers(1, 86400), min_size=n, max_size=n)))
    values = draw(st.lists(st.floats(0.0, 1e12, allow_subnormal=True), min_size=n, max_size=n))
    return [(stamp(int(t), draw(offsets)), v) for t, v in zip(epochs, values)]


def csv_text(rows, header: bool) -> str:
    lines = ["timestamp,cumulative_litres"] if header else []
    return "\n".join(lines + [f"{t},{v!r}" for t, v in rows]) + "\n"


def jsonl_text(rows) -> str:
    return "\n".join(json.dumps({"ts": t, "litres_total": v}) for t, v in rows) + "\n"


# Line ends the fast path takes: LF, CR LF, and LF with an empty line after each line.
LINE_ENDS = pytest.mark.parametrize("end", ["\n", "\r\n", "\n\n"], ids=["LF", "CRLF", "empty-line"])


@LINE_ENDS
@settings(max_examples=200, deadline=None)
@given(canonical_rows(), st.booleans())
def test_fast_csv_equals_row_parser_on_canonical_input(end, rows, header):
    text = csv_text(rows, header).replace("\n", end)
    assert (fast_path(text) is not None) == all(takes(repr(v)) for _, v in rows)
    assert outcome(text) == outcome(text, fast=False)


@LINE_ENDS
@settings(max_examples=100, deadline=None)
@given(canonical_rows())
def test_fast_jsonl_equals_row_parser_on_canonical_input(end, rows):
    text = jsonl_text(rows).replace("\n", end)
    assert (fast_path(text, "jsonl") is not None) == all(takes(repr(v), "jsonl") for _, v in rows)
    assert outcome(text, "jsonl") == outcome(text, "jsonl", fast=False)


MUTANTS = list("0123456789-:T+Z zt.,\"'\t\x00\x0b\x0c\x1c\x1f\x85\r\n") + ["é", "١", " ", "24", "60", "nan", "-1", "1_0"]


@settings(max_examples=300, deadline=None)
@given(canonical_rows(), st.booleans(), st.data())
def test_mutated_csv_gets_the_row_parsers_outcome(rows, header, data):
    text = csv_text(rows, header)
    at = data.draw(st.integers(0, len(text) - 1))
    cut = data.draw(st.integers(0, 2))
    text = text[:at] + data.draw(st.sampled_from(MUTANTS)) + text[at + cut:]
    assert outcome(text) == outcome(text, fast=False)


@settings(max_examples=200, deadline=None)
@given(canonical_rows(), st.data())
def test_mutated_jsonl_gets_the_row_parsers_outcome(rows, data):
    text = jsonl_text(rows)
    at = data.draw(st.integers(0, len(text) - 1))
    cut = data.draw(st.integers(0, 2))
    text = text[:at] + data.draw(st.sampled_from(MUTANTS + ["true", "{}", "[]"])) + text[at + cut:]
    assert outcome(text, "jsonl") == outcome(text, "jsonl", fast=False)


@pytest.mark.parametrize("text, canonical", [
    # The first and last instants a stream may hold, and just outside them.
    ("0001-01-02T00:00:00Z", True),
    ("0001-01-01T23:00:00-01:00", True),
    ("9999-12-30T23:59:59Z", True),
    ("9999-12-31T00:59:59+01:00", True),
    ("0001-01-01T23:59:59Z", False),
    ("0001-01-01T00:00:00-01:00", False),
    ("9999-12-31T00:00:00Z", False),
    ("9999-12-31T23:59:59+01:00", False),
    ("2020-02-29T23:59:59-23:59", True),
    ("2000-02-29T12:00:00Z", True),
    ("2400-02-29T00:00:00+05:30", True),
    ("2021-02-29T00:00:00Z", False),
    ("2100-02-29T00:00:00Z", False),
    ("1900-02-29T00:00:00Z", False),
    ("2021-04-31T00:00:00Z", False),
    ("2021-03-01T00:00:60Z", False),
    ("2021-03-01T00:00:00+24:00", False),
    ("2021-03-01T00:00:00z", False),
    ("2021-03-01 00:00:00Z", False),
    ("0000-01-01T00:00:00Z", False),
    ("2021-03-01T00:00:00Z\x00", False),
    ("2021-03-01T00:00:00+00:00\x00", False),
])
def test_fast_path_edges_match_row_parser(text, canonical):
    line = f"{text},1.5\n"
    assert (fast_path(line) is not None) == canonical
    assert outcome(line) == outcome(line, fast=False)


@pytest.mark.parametrize("char", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029"])
def test_csv_bytes_float_reads_differently_go_to_the_row_parser(char):
    # str.splitlines ends a line at each of these but \x1f, and float()
    # strips a lone CR, \x0b, \x0c and \x85; the fast path, which takes
    # only digits and the point in a value, declines them all.
    text = f"2021-03-01T00:00:00Z,{char}1.0\n2021-03-01T00:15:00Z,2.0\n"
    assert fast_path(text) is None
    assert outcome(text) == outcome(text, fast=False)
    assert outcome(text)[0] is MalformedRow


@pytest.mark.parametrize("line, canonical", [
    ('{"ts": "2021-03-01T00:00:00Z", "litres_total": 1}', True),
    ('{"ts": "2021-03-01T00:00:00Z\\u0000", "litres_total": 1.0}', False),
    ('{"ts": "2021-03-01T00:00:00Z", "litres_total": true}', False),
    ('{"ts": "2021-03-01T00:00:00Z", "litres_total": "1.0"}', False),
    ('{"ts": "2021-03-01T00:00:00Z", "litres_total": NaN}', False),
    ('{"ts": 20210301, "litres_total": 1.0}', False),
    ('{"ts": "2021-03-01T00:00:00\\u00e9", "litres_total": 1.0}', False),
    ('["2021-03-01T00:00:00Z", 1.0]', False),
    ('\ufeff{"ts": "2021-03-01T00:00:00Z", "litres_total": 1.0}', True),  # the mark is dropped first
    ('{"ts": "2021-03-01T00:00:00Z", "litres_total": 1.0}\r{"ts": "2021-03-01T00:15:00Z", "litres_total": 2.0}', False),
    # CR LF and an empty line; spaces round a number, which JSON allows,
    # go to the row parser.
    ('{"ts": "2021-03-01T00:00:00Z", "litres_total": 1.5}\r', True),
    ('{"ts": "2021-03-01T00:00:00Z", "litres_total": 1.5}\n\n{"ts": "2021-03-01T00:15:00Z", "litres_total": 2.5}', True),
    ('{"ts": "2021-03-01T00:00:00Z", "litres_total": 1.5 }', False),
    ('{"ts": "2021-03-01T00:00:00Z", "litres_total": \t1.5e0 }\r', False),
])
def test_fast_jsonl_edges_match_row_parser(line, canonical):
    text = line + "\n"
    assert (fast_path(text, "jsonl") is not None) == canonical
    assert outcome(text, "jsonl") == outcome(text, "jsonl", fast=False)


# A defect in a line of the second half of a file, which sits in a later
# chunk than the first line: (kind, what the line becomes). A blank line put
# before it is no defect to either parser.
DEFECTS = {
    "nul": lambda line: line[:3] + b"\x00" + line[3:],
    "non-utf-8": lambda line: line[:3] + b"\xff" + line[3:],
    "malformed": lambda line: line.replace(b"-", b"/", 1),
    "blank": lambda line: b" \t \n" + line,
    # `.0` after the stamp's seconds: the row parser reads the line, the
    # fast path declines its chunk, and the chunks after it are fast again.
    "fraction": lambda line: line[: line.index(b"T") + 9] + b".0" + line[line.index(b"T") + 9 :],
}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@settings(max_examples=100, deadline=None)
@given(
    rows=canonical_rows(), block_rows=st.integers(1, 3), final_newline=st.booleans(),
    defect=st.sampled_from([None, *DEFECTS]), data=st.data(),
)
def test_fast_blocks_equal_row_parser(fmt, rows, block_rows, final_newline, defect, data):
    # Chunks of 64 * block_rows bytes hold one or two lines, so most lines
    # sit at a chunk edge, and a CRLF or a run of blank lines is often split
    # across one; the last line may lack its newline. A CSV may have a
    # header, CRLF line ends, and runs of blank lines that fill whole chunks.
    # Parsed from a string and read from a file, the text must give the row
    # parser's stream, or its error at the defect's line.
    if fmt == "jsonl":
        text = jsonl_text(rows)
    else:
        lines = csv_text(rows, data.draw(st.booleans(), label="header")).splitlines()
        end = data.draw(st.sampled_from(["\n", "\r\n"]), label="line end")
        runs = data.draw(st.lists(st.sampled_from([0, 0, 1, 200]), min_size=len(lines), max_size=len(lines)))
        text = "".join(line + end * (1 + run) for line, run in zip(lines, runs))
    text = text if final_newline else text.rstrip("\r\n")
    lines = text.encode().split(b"\n")
    if defect is not None:
        # A data row of the second half: the last rows - rows // 2 lines that are not blank.
        later = [i for i, line in enumerate(lines) if line.strip()][len(rows) // 2 - len(rows) :]
        at = data.draw(st.sampled_from(later))
        lines[at] = DEFECTS[defect](lines[at])
    raw = b"\n".join(lines)
    with patch.object(readings, "BLOCK_ROWS", block_rows):
        if defect is None:
            assert (fast_path(text, fmt) is not None) == all(takes(repr(v), fmt) for _, v in rows)
            assert outcome(text, fmt) == outcome(text, fmt, fast=False)
        expected = file_outcome(raw, fmt, fast=False)
        assert file_outcome(raw, fmt) == expected
    if defect == "blank":
        assert (fast_path(raw.decode(), fmt) is not None) == all(takes(repr(v), fmt) for _, v in rows)
        assert expected == outcome(text, fmt, fast=False)
    elif defect == "fraction":
        assert fast_path(raw.decode(), fmt) is None
        assert expected == outcome(text, fmt, fast=False)
    elif defect is not None:
        assert expected[0] is MalformedRow and expected[1].startswith(f"row {at + 1}: ")


@pytest.mark.parametrize("number, canonical", [
    ("0", True),
    ("7", True),
    ("-0.0", False),
    ("12.5", True),
    ("1e3", False),
    ("2.5E+2", False),
    ("1e-3", False),
    ("9007199254740993", True),  # an int the float rounds
    ("1" + "0" * 400, False),  # an int too large for a float
    ("1" + "0" * 5000, False),  # more digits than int() takes
    ("1e400", False),
    ("-1", False),
    ("01", False),
    ("1.", False),
    (".5", False),
    ("+1", False),
    ("1e", False),
    ("--1", False),
    ("1-2", False),
])
def test_fast_jsonl_numbers_match_row_parser(number, canonical):
    text = (
        '{"ts": "2021-03-01T00:00:00Z", "litres_total": 0.5}\n'
        f'{{"ts": "2021-03-01T00:15:00+00:00", "litres_total": {number}}}\n'
    )
    assert (fast_path(text, "jsonl") is not None) == canonical
    assert outcome(text, "jsonl") == outcome(text, "jsonl", fast=False)


@st.composite
def json_decimals(draw, whole_digits: int = 12, fraction_digits: int = 12):
    """Plain decimals as JSON writes them: 0 or digits without a leading
    zero, then maybe a point and one or more digits."""
    whole = draw(st.text("0123456789", min_size=1, max_size=whole_digits)).lstrip("0") or "0"
    fraction = draw(st.text("0123456789", max_size=fraction_digits))
    return f"{whole}.{fraction}" if fraction else whole


# Numbers JSON rejects but a reader of digits and one point could take,
# numbers JSON takes in other forms, and numbers too long for floattext.
JSON_NEAR_MISSES = ["0", "00", "01.5", "00.5", ".5", "5.", "0.", "-0.0", "1e3", "1E+3", "9" * 19, "9" * 20,
                    "1234567890.12345678901234"]


def writer_jsonl(numbers) -> bytes:
    """The writer's lines, each with its number's text as given."""
    return "".join(
        f'{{"ts": "{stamp(1_600_000_000 + 900 * i, None if i % 2 else 60)}", "litres_total": {n}}}\n'
        for i, n in enumerate(numbers)
    ).encode()


@pytest.mark.parametrize("block_rows", [1, 2, 4096])
@settings(max_examples=150, deadline=None)
@given(numbers=st.lists(st.one_of(json_decimals(), st.sampled_from(JSON_NEAR_MISSES)), min_size=1, max_size=12))
@example(numbers=["0.5", "01.5", "2.5"])
@example(numbers=["0.5", "5.", "2.5"])
@example(numbers=["0.5", ".5", "2.5"])
@example(numbers=["0", "00", "7"])
def test_jsonl_numbers_read_as_the_row_parser_reads_them(block_rows, numbers):
    # A file of plain decimals is read by floattext, any other by the row
    # parser; either way it gives the row parser's stream bit for bit, or
    # its error at the same line.
    data = writer_jsonl(numbers)
    with patch.object(readings, "BLOCK_ROWS", block_rows):
        assert file_outcome(data, "jsonl") == file_outcome(data, "jsonl", fast=False)


@settings(max_examples=100, deadline=None)
@given(numbers=st.lists(json_decimals(10, 9), min_size=1, max_size=40))
def test_plain_jsonl_numbers_are_read_without_json_loads(numbers):
    with patch.object(readings.json, "loads", side_effect=AssertionError("a value went to json.loads")):
        stream = parse_stream(writer_jsonl(numbers), "jsonl")
    assert [v.hex() for v in stream.litres.tolist()] == [float(n).hex() for n in numbers]


@pytest.mark.parametrize("text", [
    '{"litres_total": 1.5, "ts": "2021-03-01T00:00:00Z"}\n',
    '{"ts":"2021-03-01T00:00:00Z","litres_total":1.5}\n',
    '{"ts": "2021-03-01T00:00:00Z", "litres_total": 1.5, "litres_total": 2.5}\n',
    '{"ts": "2021-03-01T00:00:00Z", "litres_total": 1.5, "x": 1}\n',
    '{"ts": "2021-03-01T00:00:00.5Z", "litres_total": 1.5}\n',
    '{"ts": "2021-03-01T00:00:00Z", "litres_total": 2.5}\n{"ts": "2021-03-01T00:00:00Z", "litres_total": 2.5}\n',
    '{"ts": "2021-03-01T00:00:00Z", "litres_total": }\n',
    '{"ts": "2021-03-01T00:00:00Z", "litres_total": 1.55\n',
    '{"ts": "2021-03-01T00:00:00Z", "litres_total": 1.5}}\n',
    '\n',
    '',
])
def test_other_jsonl_layouts_go_to_the_row_parser(text):
    assert fast_path(text, "jsonl") is None
    assert outcome(text, "jsonl") == outcome(text, "jsonl", fast=False)


@pytest.mark.parametrize("line, message", [
    ('{"ts": "2021-03-01T00:15:00Z", "litres_total": 1' + "0" * 400 + "}", "too large for a float"),
    ('{"ts": "2021-03-01T00:15:00Z", "litres_total": 1' + "0" * 5000 + "}", "bad JSON"),
    ("[" * 100_000, "bad JSON"),
])
def test_jsonl_row_parser_reports_unreadable_values_as_malformed_rows(line, message):
    text = '{"ts": "2021-03-01T00:00:00Z", "litres_total": 1.0}\n' + line + "\n"
    with pytest.raises(MalformedRow, match=message) as exc:
        parse_stream(text, "jsonl")
    assert exc.value.row == 2


@pytest.mark.parametrize("number, value", [("1e3", 1000.0), ("+1.5", 1.5), (" 1.5", 1.5)])
def test_other_csv_numbers_go_to_the_row_parser(number, value):
    text = f"2021-03-01T00:00:00Z,0.5\n2021-03-01T00:15:00Z,{number}\n"
    assert fast_path(text) is None
    assert outcome(text) == outcome(text, fast=False) == ([1614556800, 1614557700], [0.5.hex(), value.hex()])


@pytest.mark.parametrize("fmt, header", [("csv", True), ("csv", False), ("jsonl", False)])
def test_a_leading_byte_order_mark_is_dropped(fmt, header):
    rows = [("2021-03-01T00:00:00Z", 1.0), ("2021-03-01T00:15:00+00:00", 2.5)]
    data = (csv_text(rows, header) if fmt == "csv" else jsonl_text(rows)).encode()
    # The fast path takes the file: the row parser is not called.
    with patch.dict(readings._PARSERS, {fmt: lambda *args: pytest.fail("the row parser read the file")}):
        assert file_outcome(b"\xef\xbb\xbf" + data, fmt) == file_outcome(data, fmt)
    assert file_outcome(b"\xef\xbb\xbf" + data, fmt, fast=False) == file_outcome(data, fmt)
    assert outcome("\ufeff" + data.decode(), fmt) == file_outcome(data, fmt)


@pytest.mark.parametrize("head", [
    "time,litres\n",
    " Timestamp , Litres \r\n",
    "ts\n",
    "\ntimestamp,cumulative_litres\n",
    "\r\n\ntime,litres\n",
])
def test_the_fast_path_skips_any_header_the_row_parser_skips(head):
    rows = [("2021-03-01T00:00:00Z", 1.0), ("2021-03-01T00:15:00+00:00", 2.5)]
    text = head + csv_text(rows, header=False)
    with kernel_only():
        fast = outcome(text)
    assert fast == outcome(text, fast=False) == outcome(csv_text(rows, header=False))


@pytest.mark.parametrize("blank", [" ", "\t", "   ", " \t "])
@pytest.mark.parametrize("at", ["before a header", "after a header", "mid-file", "at the end"])
@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_blank_lines_stay_on_the_fast_path(blank, at, end):
    # A line of only spaces and tabs is empty to the row parser, which
    # skips it by raw.strip(), and so to the fast path, wherever it stands.
    rows = [f"2021-03-01T00:{m:02d}:00Z,{m / 4}" for m in (0, 15, 30, 45)]
    lines = {
        "before a header": [blank, "timestamp,cumulative_litres", *rows],
        "after a header": ["timestamp,cumulative_litres", blank, blank, *rows],
        "mid-file": [*rows[:2], blank, *rows[2:]],
        "at the end": [*rows, blank],
    }[at]
    text = end.join(lines) + end
    with kernel_only():
        fast = outcome(text)
    assert fast == outcome(text, fast=False) == outcome("\n".join(rows))


@pytest.mark.parametrize("blank", ["\x0b", "\x0c", " \x1c ", "\xa0", "\u3000", "\t\x85"])
def test_a_line_of_other_whitespace_goes_to_the_row_parser(blank):
    # str.strip() and str.splitlines() take these as whitespace or line
    # ends; the fast path takes only spaces and tabs, and declines the rest.
    text = f"2021-03-01T00:00:00Z,1.0\n{blank}\n2021-03-01T00:15:00Z,2.0\n"
    assert fast_path(text) is None
    assert outcome(text) == outcome(text, fast=False) == outcome("2021-03-01T00:00:00Z,1.0\n2021-03-01T00:15:00Z,2.0\n")


def test_a_header_line_str_splitlines_would_split_goes_to_the_row_parser():
    # str.splitlines ends the first line at \x0b, so the row parser skips
    # only "time,litres" and keeps the reading after it.
    text = "time,litres\x0b2018-01-01T00:00:00Z,1.0\n2018-01-01T00:15:00Z,2.0\n"
    assert fast_path(text) is None
    assert outcome(text) == outcome(text, fast=False)
    assert outcome(text)[1] == [1.0.hex(), 2.0.hex()]


def test_a_first_field_over_the_csv_size_limit_is_a_malformed_row():
    text = "t" * 200_000 + "\n2018-01-01T00:00:00Z,1.0\n"
    assert fast_path(text) is None
    assert outcome(text) == outcome(text, fast=False)
    assert outcome(text)[0] is MalformedRow


def test_every_whole_stream_is_collected_from_the_blocks_a_command_reads(tmp_path, monkeypatch, caplog, demo_config):
    # read_stream, parse_stream and a read_blocks collector read each file to
    # the same bits and log nothing: one the fast path takes, and two with a
    # chunk it declines, at the last line and mid-file, which the row parser
    # alone reads, after a consumer has taken blocks. The pair 55 s apart
    # makes readings_to_days warn of one sub-nominal pair. generate joins
    # the blocks generate_blocks yields.
    monkeypatch.setattr(readings, "BLOCK_ROWS", 8)
    epochs = 1_600_000_000 + np.cumsum(np.r_[0, np.full(59, 905)])
    epochs[20:] -= 850
    stream = ReadingStream(epochs, np.cumsum(np.linspace(0.25, 3.0, 60)))
    write_stream_csv(stream, tmp_path / "plain.csv")
    write_stream_jsonl(stream, tmp_path / "plain.jsonl")
    lines = (tmp_path / "plain.csv").read_bytes().splitlines(keepends=True)
    files = {  # name -> (data, the chunks the row parser reads)
        "plain.csv": (b"".join(lines), 0),
        "plain.jsonl": ((tmp_path / "plain.jsonl").read_bytes(), 0),
        "bom.csv": (b"\xef\xbb\xbftime,litres\r\n" + b"".join(lines[1:]), 0),
        "late.csv": (b"".join(lines[:-1] + [lines[-1].replace(b"+00:00,", b".0+00:00,")]), 1),
        "mid.csv": (b"".join(lines[:40] + [lines[40].split(b",")[0] + b",1e3\n"] + lines[41:]), 1),
    }
    def collect(blocks):
        epoch, litres = (np.concatenate(parts) for parts in zip(*blocks))
        return ReadingStream(epoch, litres)

    for name, (data, chunks) in files.items():
        path = tmp_path / name
        path.write_bytes(data)

        fmt = "jsonl" if name.endswith(".jsonl") else "csv"
        read = []
        for parse in (lambda: read_stream(path), lambda: parse_stream(data, fmt, str(path)),
                      lambda: collect(read_blocks(path))):
            caplog.clear()
            with row_parser_calls() as calls:
                got = parse()
            records = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
            read.append((got.epoch_s.tobytes(), got.litres.tobytes(), records, len(calls)))
        assert read[0] == read[1] == read[2], name
        assert read[0][2] == [], name
        caplog.clear()
        readings_to_days(read_stream(path))
        assert "1 reading pair(s) closer than" in caplog.records[0].getMessage(), name
        assert read[0][3] == chunks, name
        if name.startswith("plain"):
            assert read[0][:2] == (stream.epoch_s.tobytes(), stream.litres.tobytes())
    dropout = ScenarioConfig(date(2021, 1, 1), date(2021, 2, 28), "Europe/Dublin", seed=9,
                             noise_sd=0.5, dropout_rate=0.2)
    for cfg in (demo_config, dropout):
        got, joined = generate(cfg), ReadingStream.from_blocks(generate_blocks(cfg))
        assert got.epoch_s.tobytes() == joined.epoch_s.tobytes() and got.litres.tobytes() == joined.litres.tobytes()
        assert got.source_id == f"synthetic:{cfg.seed}"
