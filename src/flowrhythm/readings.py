"""Cumulative meter readings: parsing, validation, and first differencing.

A reading stream is a strictly time-ordered sequence of (timestamp,
cumulative litres) pairs from one meter. The expected cadence is one reading
every 15 minutes plus a small transmission delay, so consecutive readings are
never closer than 15 minutes; streams that violate that are accepted with a
warning because the defect lives in the data, not the parser.

Differencing turns n readings into n-1 usage intervals. The cumulative
counter never decreases on a healthy meter: difference_cumulative rejects a
decrease, while the pipeline drops the one pair across it, so the data on
either side survive a counter reset.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (
    CounterDecrease,
    EmptyInput,
    MalformedRow,
    NonMonotonicTimestamp,
    TooFewReadings,
)

__all__ = [
    "NOMINAL_PERIOD",
    "DEFAULT_MAX_GAP",
    "Intervals",
    "ReadingStream",
    "parse_stream",
    "read_stream",
    "difference_cumulative",
    "segment_litres",
    "write_stream_csv",
    "write_stream_jsonl",
]

log = logging.getLogger(__name__)

NOMINAL_PERIOD = timedelta(minutes=15)
# Gaps longer than three nominal periods are treated as outages: the volume
# accumulated across the gap is discarded rather than attributed to one bin.
DEFAULT_MAX_GAP = timedelta(minutes=45)
# Readings handled per step of every block loop: parsing, timestamp
# decoding, zone offset lookup and writing. A long stream's text and scratch
# arrays are never held in memory whole.
BLOCK_ROWS = 1 << 12


@dataclass(frozen=True)
class Intervals:
    """Litres consumed between consecutive readings, as parallel arrays.

    Interval i runs from `start_s[i]` to `end_s[i]` (UTC epoch seconds) and
    used `litres[i]`. `end_s` is the instant of the reading that closes the
    interval; binning assigns the whole interval to the local day and slot
    containing it.
    """

    start_s: np.ndarray
    end_s: np.ndarray
    litres: np.ndarray

    def __post_init__(self):
        start = np.asarray(self.start_s, dtype=np.int64)
        end = np.asarray(self.end_s, dtype=np.int64)
        litres = np.asarray(self.litres, dtype=np.float64)
        if start.ndim != 1 or not start.shape == end.shape == litres.shape:
            raise ValueError("start_s, end_s and litres must be 1-d arrays of equal length")
        if not np.all(end > start):
            raise ValueError("every interval must end after it starts")
        if not np.all(litres >= 0.0):
            raise ValueError("interval litres must be >= 0")
        for name, arr in (("start_s", start), ("end_s", end), ("litres", litres)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.litres)

    def __iter__(self):
        # One numpy record per interval (fields start_s, end_s, litres) for
        # callers that want rows; the pipeline itself only uses the arrays.
        return iter(np.rec.fromarrays(
            (self.start_s, self.end_s, self.litres), names="start_s,end_s,litres"
        ))


@dataclass(frozen=True)
class ReadingStream:
    """Immutable, strictly time-ordered readings from one source.

    Stored as parallel arrays (UTC epoch seconds, litres) so
    million-reading streams stay cheap.
    """

    epoch_s: np.ndarray
    litres: np.ndarray
    source_id: str = ""

    def __post_init__(self):
        epoch = np.asarray(self.epoch_s, dtype=np.int64)
        litres = np.asarray(self.litres, dtype=np.float64)
        if epoch.shape != litres.shape or epoch.ndim != 1:
            raise ValueError("epoch_s and litres must be 1-d arrays of equal length")
        if len(epoch) and np.any(np.diff(epoch) <= 0):
            bad = int(np.argmax(np.diff(epoch) <= 0)) + 1
            raise NonMonotonicTimestamp(bad, "timestamps must strictly increase")
        if np.any(litres < 0) or not np.all(np.isfinite(litres)):
            raise ValueError("cumulative litres must be finite and >= 0")
        epoch.setflags(write=False)
        litres.setflags(write=False)
        object.__setattr__(self, "epoch_s", epoch)
        object.__setattr__(self, "litres", litres)

    def __len__(self) -> int:
        return len(self.epoch_s)


# --- parsing -------------------------------------------------------------------

_CSV_HEADER = b"timestamp,cumulative_litres"
# Timestamps as fixed-width bytes. A field of 26 bytes or more is cut to 26,
# a length no canonical timestamp (20 or 25 bytes) has, so it cannot pass.
_STAMP = "S26"
_CSV_ROW = np.dtype([("ts", _STAMP), ("litres", np.float64)])
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _decode_timestamps(b: np.ndarray) -> np.ndarray | None:
    """Epoch seconds of canonical timestamps, or None if any is not canonical.

    `b` holds one `_STAMP` per row as bytes, in its first 26 columns.
    Canonical is whole-second `YYYY-MM-DDTHH:MM:SS` followed by `Z` or
    `+HH:MM` / `-HH:MM`. Each field is decoded with digit arithmetic over
    the byte columns and range-checked as datetime.fromisoformat checks it,
    so an accepted stamp decodes to what the row parser makes of it.
    """
    n = len(b)

    def number(first: int, width: int) -> tuple[np.ndarray, np.ndarray]:
        value = np.zeros(n, dtype=np.int32)
        valid = np.ones(n, dtype=bool)
        for c in range(first, first + width):
            digit = b[:, c] - np.uint8(ord("0"))  # bytes below "0" wrap past 9
            valid &= digit <= 9
            value = value * 10 + digit
        return value, valid

    (year, y_ok), (month, mo_ok), (day, d_ok) = number(0, 4), number(5, 2), number(8, 2)
    (hour, h_ok), (minute, mi_ok), (second, s_ok) = number(11, 2), number(14, 2), number(17, 2)
    (off_h, oh_ok), (off_m, om_ok) = number(20, 2), number(23, 2)
    ok = y_ok & mo_ok & d_ok & h_ok & mi_ok & s_ok
    for col, char in ((4, "-"), (7, "-"), (10, "T"), (13, ":"), (16, ":")):
        ok &= b[:, col] == ord(char)
    utc = (b[:, 19] == ord("Z")) & ~b[:, 20:26].any(axis=1)
    negative = b[:, 19] == ord("-")
    signed = (
        (negative | (b[:, 19] == ord("+"))) & (b[:, 22] == ord(":")) & (b[:, 25] == 0)
        & oh_ok & om_ok & (off_h <= 23) & (off_m <= 59)
    )
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 0, 12)] + (leap & (month == 2))
    ok &= (
        (utc | signed) & (year >= 1) & (month >= 1) & (month <= 12)
        & (day >= 1) & (day <= month_days) & (hour <= 23) & (minute <= 59) & (second <= 59)
    )
    if not ok.all():
        return None
    # Days since 1970-01-01 of a proleptic Gregorian date, counting years
    # from March so that the leap day ends the year.
    era, yoe = np.divmod(year - (month <= 2), 400)
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468
    seconds = days.astype(np.int64) * 86400 + (hour * 3600 + minute * 60 + second)
    offset = np.where(utc, 0, np.where(negative, -60, 60) * (60 * off_h + off_m))
    return seconds - offset


def _fast_blocks(data: bytes, start: int, parse_block) -> tuple[np.ndarray, np.ndarray] | None:
    """(epoch_s, litres) of data[start:] parsed block by block, or None
    unless parse_block takes every block and the rows are clean and
    time-ordered.

    Each block runs on from the last to the first line end at least
    64 * BLOCK_ROWS bytes further, so it holds whole lines: about BLOCK_ROWS
    of the writers' 40-80 byte lines. Its rows go straight into two arrays
    allocated once, with room for one row per line.
    """
    lines = data.count(b"\n", start) + 1
    epoch, litres = np.empty(lines, dtype=np.int64), np.empty(lines, dtype=np.float64)
    n = 0
    while start < len(data):
        stop = data.find(b"\n", start + 64 * BLOCK_ROWS)
        stop = len(data) if stop < 0 else stop + 1
        rows = parse_block(data, start, stop)
        if rows is None:
            return None
        m = len(rows[0])
        epoch[n : n + m], litres[n : n + m] = rows
        n += m
        start = stop
    epoch, litres = epoch[:n], litres[:n]
    if not n or not np.all(np.isfinite(litres) & (litres >= 0)) or np.any(np.diff(epoch) <= 0):
        return None
    return epoch, litres


def _fast_csv(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """(epoch_s, litres) of a canonical CSV, or None to leave it to the row parser.

    Canonical is an optional `timestamp,cumulative_litres` header, then rows
    of a canonical timestamp and a finite, non-negative number; empty lines
    are skipped, as the row parser skips them.
    """
    # A NUL byte would end a fixed-width stamp early.
    if b"\x00" in data:
        return None
    end = data.find(b"\n")
    end = len(data) if end < 0 else end
    header = data[:end].rstrip(b"\r") == _CSV_HEADER
    return _fast_blocks(data, end + 1 if header else 0, _csv_block)


def _csv_block(data: bytes, start: int, stop: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(epoch_s, litres) of the canonical CSV rows in data[start:stop], else None.

    loadtxt skips lines of nothing but line ends and rejects a line with one
    column; a block without a comma holds no row, so it never reaches
    loadtxt, which would warn that the block holds no data.
    """
    block = data[start:stop]
    if b"," not in block:
        return None if block.strip(b"\r\n") else (np.empty(0, dtype=np.int64), np.empty(0))
    try:
        rows = np.loadtxt(
            io.BytesIO(block), dtype=_CSV_ROW, delimiter=",", comments=None,
            encoding="utf-8", ndmin=1,
        )
    except ValueError:
        return None
    # The stamp is the first field, so each row's bytes start with it.
    epoch = _decode_timestamps(rows.view(np.uint8).reshape(len(rows), -1))
    return None if epoch is None else (epoch, rows["litres"])


# The writer's JSONL line: _JSONL_HEAD, a 20- or 25-byte stamp, _JSONL_MID,
# a number, then "}".
_JSONL_HEAD = np.frombuffer(b'{"ts": "', dtype=np.uint8)
_JSONL_MID = np.frombuffer(b'", "litres_total": ', dtype=np.uint8)
_JSONL_MIN_LINE = len(_JSONL_HEAD) + 20 + len(_JSONL_MID) + 2
# Bytes a JSON number is made of; which strings of them are numbers is left
# to json.loads.
_NUMBER_BYTES = np.zeros(256, dtype=bool)
_NUMBER_BYTES[list(b"0123456789+-.eE")] = True


def _fast_jsonl(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """(epoch_s, litres) of JSONL in the writer's layout, or None to leave it to the row parser.

    Every line must read `{"ts": "<stamp>", "litres_total": <number>}` with
    a canonical stamp and nothing else. The lines are checked as arrays, in
    blocks of about BLOCK_ROWS lines, with no Python loop over them.
    """
    return _fast_blocks(data, 0, _jsonl_block)


def _jsonl_block(data: bytes, start: int, stop: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(epoch_s, litres) of data[start:stop], whole lines in the writer's JSONL layout, else None.

    The literals are compared at their fixed offsets, the stamps decoded by
    _decode_timestamps, and the numbers parsed by one json.loads of a JSON
    array, so JSON's own number grammar decides. Only int and float values
    that a float holds are taken.
    """
    buf = np.frombuffer(data, np.uint8, stop - start, start)
    ends = np.flatnonzero(buf == ord("\n"))
    if not len(ends) or ends[-1] != len(buf) - 1:
        ends = np.append(ends, len(buf))  # a last line without a newline
    starts = np.append(0, ends[:-1] + 1)
    if np.any(ends - starts < _JSONL_MIN_LINE):
        return None
    utc = buf[starts + len(_JSONL_HEAD) + 19] == ord("Z")
    mid = starts + len(_JSONL_HEAD) + np.where(utc, 20, 25)
    first, close = mid + len(_JSONL_MID), ends - 1
    if not (
        np.all(first < close)
        and np.all(buf[close] == ord("}"))
        and np.all(buf[starts[:, None] + np.arange(len(_JSONL_HEAD))] == _JSONL_HEAD)
        and np.all(buf[mid[:, None] + np.arange(len(_JSONL_MID))] == _JSONL_MID)
    ):
        return None
    stamps = np.zeros((len(starts), 26), dtype=np.uint8)
    stamps[:, :25] = buf[starts[:, None] + len(_JSONL_HEAD) + np.arange(25)]
    stamps[utc, 20:] = 0
    epoch = _decode_timestamps(stamps)
    if epoch is None:
        return None
    # Each number runs from `first` up to its line's "}"; with every "}"
    # turned into a comma, the numbers read as one JSON array.
    edge = np.zeros(len(buf) + 1, dtype=np.int8)
    edge[first], edge[close] = 1, -1
    number = np.cumsum(edge[:-1], dtype=np.int8).view(bool)
    if np.any(number & ~_NUMBER_BYTES[buf]):
        return None
    number[close] = True
    text = buf[number]
    text[text == ord("}")] = ord(",")
    try:
        values = json.loads(b"[" + text[:-1].tobytes() + b"]")
        litres = np.array(values, dtype=np.float64)
    except (ValueError, OverflowError):
        return None
    if len(values) != len(starts) or not {type(v) for v in values} <= {int, float}:
        return None
    return epoch, litres


def _parse_timestamp(text: str) -> datetime:
    """ISO-8601 with offset; 'Z' accepted. Sub-second digits are rounded."""
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    dt = datetime.fromisoformat(cleaned)
    if dt.tzinfo is None:
        raise ValueError("timestamp lacks a UTC offset")
    return dt


def _epoch(dt: datetime) -> int:
    return int(round(dt.timestamp()))


def _is_header(fields: list[str]) -> bool:
    """A first row is a header when its timestamp field holds no digit and
    its value field, if it has one, is not a number."""
    if not fields or any(ch.isdigit() for ch in fields[0]):
        return False
    if len(fields) < 2:
        return True
    try:
        float(fields[1])
    except ValueError:
        return True
    return False


def parse_stream(source, fmt: str = "csv", source_id: str = "") -> ReadingStream:
    """Parse a byte or text stream of readings.

    fmt="csv": rows of `timestamp,cumulative_litres`, optional header row.
    fmt="jsonl": one object per line with keys `ts` and `litres_total`.

    Input in the canonical layout (whole-second `...Z` or `...+HH:MM`
    timestamps, plain numbers; for JSONL, the writer's exact line layout) is
    decoded as arrays, block by block. Anything else, including every input with a
    defect, goes through the row parser, which raises MalformedRow /
    NonMonotonicTimestamp / EmptyInput with 1-based physical line numbers in
    the diagnostics. Timestamps must strictly increase once rounded to whole
    seconds.
    """
    if fmt not in _PARSERS:
        raise ValueError(f"unknown stream format {fmt!r}")
    fast, parse_rows = _PARSERS[fmt]
    raw = source if isinstance(source, (bytes, str)) else source.read()
    parsed = fast(raw if isinstance(raw, bytes) else raw.encode("utf-8", "surrogatepass"))
    if parsed is None:
        try:
            text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        except UnicodeDecodeError as exc:
            # Lines are counted as the row parsers count them, by
            # str.splitlines; the "x" stands in for the bad byte's line.
            line_no = len((raw[: exc.start].decode("utf-8") + "x").splitlines())
            raise MalformedRow(line_no, f"not UTF-8 text: {exc.reason}") from None
        rows = list(parse_rows(text))
        if not rows:
            raise EmptyInput("no readings found")
        lines, epoch, litres = (np.array(col) for col in zip(*rows))
        bad = np.flatnonzero(np.diff(epoch) <= 0)
        if len(bad):
            raise NonMonotonicTimestamp(int(lines[bad[0] + 1]))
    else:
        epoch, litres = parsed

    sub_nominal = int(np.count_nonzero(np.diff(epoch) < NOMINAL_PERIOD.total_seconds()))
    if sub_nominal:
        log.warning(
            "%d reading pair(s) closer than the 15-minute nominal period "
            "(source %r); the sampling contract says this should not happen",
            sub_nominal,
            source_id,
        )
    return ReadingStream(epoch, litres, source_id)


def _parse_csv_rows(text: str) -> Iterator[tuple[int, int, float]]:
    first_data_row = True
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        fields = next(csv.reader([raw]))
        if first_data_row and _is_header(fields):
            first_data_row = False
            continue
        if len(fields) != 2:
            raise MalformedRow(line_no, f"expected 2 columns, got {len(fields)}")
        try:
            dt = _parse_timestamp(fields[0])
        except ValueError as exc:
            raise MalformedRow(line_no, f"bad timestamp {fields[0]!r}: {exc}")
        try:
            value = float(fields[1])
        except ValueError:
            raise MalformedRow(line_no, f"bad cumulative value {fields[1]!r}")
        if not np.isfinite(value) or value < 0:
            raise MalformedRow(line_no, f"cumulative value {value!r} out of range")
        first_data_row = False
        yield line_no, _epoch(dt), value


def _parse_jsonl_rows(text: str) -> Iterator[tuple[int, int, float]]:
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except (ValueError, RecursionError) as exc:  # e.g. an over-long integer, deep nesting
            raise MalformedRow(line_no, f"bad JSON: {exc}")
        if not isinstance(obj, dict) or "ts" not in obj or "litres_total" not in obj:
            raise MalformedRow(line_no, "object must have keys 'ts' and 'litres_total'")
        try:
            dt = _parse_timestamp(str(obj["ts"]))
        except ValueError as exc:
            raise MalformedRow(line_no, f"bad timestamp {obj['ts']!r}: {exc}")
        value = obj["litres_total"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MalformedRow(line_no, f"litres_total must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise MalformedRow(line_no, "litres_total is too large for a float")
        if not np.isfinite(value) or value < 0:
            raise MalformedRow(line_no, f"litres_total {value!r} out of range")
        yield line_no, _epoch(dt), value


# Format -> (array fast path, row parser).
_PARSERS = {"csv": (_fast_csv, _parse_csv_rows), "jsonl": (_fast_jsonl, _parse_jsonl_rows)}


def read_stream(path: str | Path) -> ReadingStream:
    """Read a stream file; `.jsonl` and `.ndjson` files are JSONL, others CSV."""
    p = Path(path)
    fmt = "jsonl" if p.suffix.lower() in {".jsonl", ".ndjson"} else "csv"
    return parse_stream(p.read_bytes(), fmt, source_id=str(p))


# --- cleaning ------------------------------------------------------------------


def difference_cumulative(stream: ReadingStream) -> Intervals:
    """First-difference a stream into usage intervals.

    The difference of two neighbouring totals is exact when the later total
    is at most twice the earlier (Sterbenz), which a running meter breaks
    only in its first readings after zero. Where it holds, the exact sum of
    the differences telescopes to last - first; elsewhere each difference
    carries one rounding. The conservation and litres-balance tests check
    the rest to 1e-9 relative. Raises CounterDecrease at the first drop
    rather than emitting a negative usage.
    """
    if len(stream) < 2:
        raise TooFewReadings(f"need at least 2 readings, got {len(stream)}")
    diffs = np.diff(stream.litres)
    if np.any(diffs < 0):
        raise CounterDecrease(int(np.argmax(diffs < 0)) + 1)
    return Intervals(stream.epoch_s[:-1], stream.epoch_s[1:], diffs)


def segment_litres(stream: ReadingStream) -> float:
    """Litres the meter counted: last - first within each segment between
    counter decreases, summed. Without a decrease it is last - first."""
    starts = np.concatenate([[0], np.flatnonzero(np.diff(stream.litres) < 0) + 1])
    ends = np.append(starts[1:], len(stream)) - 1
    return sum(float(stream.litres[b] - stream.litres[a]) for a, b in zip(starts, ends))


# --- writing -------------------------------------------------------------------


def _blocks(stream: ReadingStream) -> Iterator[Iterator[tuple[str, float]]]:
    """(UTC timestamp, litres) pairs, one iterator per block of readings.

    The writers append a +00:00 offset to the timestamp, as
    datetime.isoformat does in UTC, and write litres by repr, which
    round-trips exactly, so parsing a written file reproduces the stream.
    """
    for a in range(0, len(stream), BLOCK_ROWS):
        block = slice(a, a + BLOCK_ROWS)
        stamps = np.datetime_as_string(stream.epoch_s[block].astype("datetime64[s]"))
        yield zip(stamps.tolist(), stream.litres[block].tolist())


def write_stream_csv(stream: ReadingStream, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp,cumulative_litres\n")
        for rows in _blocks(stream):
            fh.write("".join([f"{t}+00:00,{v!r}\n" for t, v in rows]))


def write_stream_jsonl(stream: ReadingStream, path: str | Path) -> None:
    # The same bytes per line as json.dumps({"ts": ..., "litres_total": ...}).
    with open(path, "w", encoding="utf-8") as fh:
        for rows in _blocks(stream):
            fh.write("".join([f'{{"ts": "{t}+00:00", "litres_total": {v!r}}}\n' for t, v in rows]))
