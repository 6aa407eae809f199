import contextlib
import json
import math
from datetime import datetime, timedelta, timezone
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrhythm import readings

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
    segment_litres,
    write_stream_csv,
    write_stream_jsonl,
)

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


# --- array fast path against the row parser ---------------------------------------


def outcome(text: str, fmt: str = "csv", fast: bool = True):
    """What parse_stream makes of text: the stream's bits, or the error."""
    with contextlib.ExitStack() as stack:
        if not fast:
            stack.enter_context(patch.object(readings, f"_fast_{fmt}", return_value=None))
        try:
            s = parse_stream(text, fmt)
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


@settings(max_examples=200, deadline=None)
@given(canonical_rows(), st.booleans())
def test_fast_csv_equals_row_parser_on_canonical_input(rows, header):
    text = csv_text(rows, header)
    assert readings._fast_csv(text.encode()) is not None  # the fast path took it
    assert outcome(text) == outcome(text, fast=False)


@settings(max_examples=100, deadline=None)
@given(canonical_rows())
def test_fast_jsonl_equals_row_parser_on_canonical_input(rows):
    text = jsonl_text(rows)
    assert readings._fast_jsonl(text.encode()) is not None
    assert outcome(text, "jsonl") == outcome(text, "jsonl", fast=False)


MUTANTS = list("0123456789-:T+Z zt.,\"'\t\x00\x0b\r\n") + ["é", "١", " ", "24", "60", "nan", "-1", "1_0"]


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
    ("0001-01-01T00:00:00-01:00", True),
    ("9999-12-31T23:59:59+01:00", True),
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
    assert (readings._fast_csv(line.encode()) is not None) == canonical
    assert outcome(line) == outcome(line, fast=False)


@pytest.mark.parametrize("line, canonical", [
    ('{"ts": "2021-03-01T00:00:00Z", "litres_total": 1}', True),
    ('{"ts": "2021-03-01T00:00:00Z\\u0000", "litres_total": 1.0}', False),
    ('{"ts": "2021-03-01T00:00:00Z", "litres_total": true}', False),
    ('{"ts": "2021-03-01T00:00:00Z", "litres_total": "1.0"}', False),
    ('{"ts": "2021-03-01T00:00:00Z", "litres_total": NaN}', False),
    ('{"ts": 20210301, "litres_total": 1.0}', False),
    ('{"ts": "2021-03-01T00:00:00\\u00e9", "litres_total": 1.0}', False),
    ('["2021-03-01T00:00:00Z", 1.0]', False),
    ('\ufeff{"ts": "2021-03-01T00:00:00Z", "litres_total": 1.0}', False),
    ('{"ts": "2021-03-01T00:00:00Z", "litres_total": 1.0}\r{"ts": "2021-03-01T00:15:00Z", "litres_total": 2.0}', False),
])
def test_fast_jsonl_edges_match_row_parser(line, canonical):
    text = line + "\n"
    assert (readings._fast_jsonl(text.encode()) is not None) == canonical
    assert outcome(text, "jsonl") == outcome(text, "jsonl", fast=False)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@settings(max_examples=100, deadline=None)
@given(rows=canonical_rows(), block_rows=st.integers(1, 3), final_newline=st.booleans(), data=st.data())
def test_fast_blocks_equal_row_parser(fmt, rows, block_rows, final_newline, data):
    # Blocks of 64 * block_rows bytes hold one or two lines, so most lines
    # sit at a block edge; the last line may lack its newline. A CSV may
    # have a header, CRLF line ends, and runs of blank lines that fill whole
    # blocks.
    if fmt == "jsonl":
        text = jsonl_text(rows)
    else:
        lines = csv_text(rows, data.draw(st.booleans(), label="header")).splitlines()
        end = data.draw(st.sampled_from(["\n", "\r\n"]), label="line end")
        runs = data.draw(st.lists(st.sampled_from([0, 0, 1, 200]), min_size=len(lines), max_size=len(lines)))
        text = "".join(line + end * (1 + run) for line, run in zip(lines, runs))
    text = text if final_newline else text.rstrip("\r\n")
    with patch.object(readings, "BLOCK_ROWS", block_rows):
        assert getattr(readings, f"_fast_{fmt}")(text.encode()) is not None
        assert outcome(text, fmt) == outcome(text, fmt, fast=False)


@pytest.mark.parametrize("number, canonical", [
    ("0", True),
    ("7", True),
    ("-0.0", True),
    ("12.5", True),
    ("1e3", True),
    ("2.5E+2", True),
    ("1e-3", True),
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
    assert (readings._fast_jsonl(text.encode()) is not None) == canonical
    assert outcome(text, "jsonl") == outcome(text, "jsonl", fast=False)


@pytest.mark.parametrize("text", [
    '{"ts": "2021-03-01T00:00:00Z", "litres_total": 1.5}\r\n',
    '{"ts": "2021-03-01T00:00:00Z", "litres_total": 1.5}\n\n{"ts": "2021-03-01T00:15:00Z", "litres_total": 2.5}\n',
    '{"litres_total": 1.5, "ts": "2021-03-01T00:00:00Z"}\n',
    '{"ts": "2021-03-01T00:00:00Z", "litres_total": 1.5 }\n',
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
    assert readings._fast_jsonl(text.encode()) is None
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
