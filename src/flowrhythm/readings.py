"""Cumulative meter readings: parsing, validation, and first differencing.

A reading stream is a strictly time-ordered sequence of (timestamp,
cumulative litres) pairs from one meter. The expected cadence is one reading
every 15 minutes plus a small transmission delay, so consecutive readings are
never closer than 15 minutes; streams that violate that are accepted with a
warning because the defect lives in the data, not the parser.

Differencing turns n readings into n-1 usage intervals. The cumulative
counter never decreases on a healthy meter: difference_cumulative rejects a
decrease, while binning.readings_to_days drops the one pair across it, so
the data on either side survive a counter reset.
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

from . import floattext
from .errors import (
    CounterDecrease,
    EmptyInput,
    MalformedRow,
    NonMonotonicTimestamp,
    TooFewReadings,
)

__all__ = [
    "NOMINAL_PERIOD",
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
# Readings handled per step of every block loop: reading and parsing a
# file, generating, cleaning, binning, zone offset lookup and writing. A
# long stream's scratch arrays are never held in memory whole, nor is its
# text, unless the row parser reads it.
BLOCK_ROWS = 1 << 12
# The instants a stream may hold, 0001-01-02T00:00:00Z to
# 9999-12-30T23:59:59Z, in epoch seconds. A day inside datetime's years 1-9999
# at each end keeps a reading's local date in those years in every zone
# (offsets stay under a day), and gives every written stamp a four-digit year.
FIRST_EPOCH_S, LAST_EPOCH_S = -62_135_510_400, 253_402_214_399
_EPOCH_RANGE = "0001-01-02T00:00:00Z to 9999-12-30T23:59:59Z"


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
        if len(epoch) and not (FIRST_EPOCH_S <= epoch[0] and epoch[-1] <= LAST_EPOCH_S):
            raise ValueError(f"timestamps must lie within {_EPOCH_RANGE}")
        if np.any(litres < 0) or not np.all(np.isfinite(litres)):
            raise ValueError("cumulative litres must be finite and >= 0")
        epoch.setflags(write=False)
        litres.setflags(write=False)
        object.__setattr__(self, "epoch_s", epoch)
        object.__setattr__(self, "litres", litres)

    def __len__(self) -> int:
        return len(self.epoch_s)


# --- parsing -------------------------------------------------------------------

_BOM = b"\xef\xbb\xbf"
# Format -> (first line, head, mid, tail): the writers write the first
# line, then per reading head, its stamp, mid, its litres and tail, which
# ends with the newline. The fast path reads that layout back.
_LAYOUTS = {
    "csv": (b"timestamp,cumulative_litres\n", b"", b",", b"\n"),
    # The same bytes per line as json.dumps({"ts": ..., "litres_total": ...}).
    "jsonl": (b"", b'{"ts": "', b'", "litres_total": ', b"}\n"),
}
# _row_values declines a block holding a non-ASCII byte, a lone CR or one
# of these, where a value could read otherwise than in the row parser's
# line: str.splitlines ends a line at \x0b, \x0c, \x1c-\x1e and CR (and at
# the non-ASCII \x85, \u2028 and \u2029), and float() strips \x0b, \x0c
# and CR round a value (and \x85, \xa0 and \u2028), as JSON strips CR. No
# line in a layout holds NUL or \x1f either.
_DECLINED = (b"\x00", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_STAMP_FRAME = b"0000-00-00T00:00:00+00:00"  # a written stamp, before its digits go in
# The stamp kernels' operands are all uint64: numpy 1.24's value-based
# casting turns a mix of int64 and uint64 into float64.
_U = np.uint64
_B8, _B24, _B32, _B48, _B56, _BYTE = _U(8), _U(24), _U(32), _U(48), _U(56), _U(0xFF)
_TEN, _SIXTY, _HOUR_S, _DAY_S = _U(10), _U(60), _U(3600), _U(86400)
_CLOCK_WORD = _U(int.from_bytes(b"00:00:00", "little"))  # the frame of a clock's digits
# The decoder reads a stamp as four words, YYYY-MM-, DDTHH:MM, :SS+hh:m and
# m. XOR with the frame leaves a digit's value in each digit lane, 0 in each
# literal lane, and a sign of 0 for "+" and 6 for "-". Then a digit above 9
# reaches 0x80 when 0x76 is added, as does a literal lane that is not 0 when
# 0x7F is; a lane that carries out is at least 0x80 itself. A pair of
# digits, at most 99, reaches 0x80 with 128 - bound added just when it
# reaches the bound: 13 for the month, 24 for the hour, 60 for minute and
# second, each at the byte of its tens digit.
_ROW, _BOUND = np.frombuffer(_STAMP_FRAME.ljust(32, b"\0"), dtype=np.uint8), np.zeros(32, dtype=np.uint8)
_BOUND[[5, 11, 14, 17]] = 13, 24, 60, 60
_FRAME, _ADD, _HIGH, _OVER, _OVER_HIGH = np.array([
    _ROW, np.where(_ROW == ord("0"), 0x76, 0x7F) * (np.arange(32) != 19), 0x80 * (np.arange(32) != 19),
    (128 - _BOUND) * (_BOUND > 0), 0x80 * (_BOUND > 0),
], dtype=np.uint8).view("<u8").astype(_U)[:, :, None]
_SIGN, _MINUS = _U(0xFF << 24), _U((ord("+") ^ ord("-")) << 24)
# A Z stamp's third word, ":SSZ" and NULs, and what turns it into +00:00.
_Z_MASK, _Z_WORD = _U(0xFFFF_FFFF_FF00_00FF), _U(ord(":") | ord("Z") << 24)
_Z_TO_FRAME = np.array([[(ord("Z") ^ ord("+")) << 24 | int.from_bytes(b"00:0", "little") << 32], [ord("0")]], _U)


def _decode_timestamps(b: np.ndarray) -> np.ndarray | None:
    """Epoch seconds of canonical timestamps, or None if any is not canonical.

    `b` holds one stamp per row as bytes, NUL-padded to its first 26
    columns. Canonical is whole-second `YYYY-MM-DDTHH:MM:SS`, then `Z` or
    `+hh:mm` / `-hh:mm`, then NULs, in the ranges datetime.fromisoformat
    accepts: such a stamp decodes to what the row parser makes of it.
    Digits are read in pairs from words, a date once per run of rows with
    equal date bytes.
    """
    words = np.empty((4, len(b)), dtype=_U)
    words[:3], words[3] = b[:, :24].view("<u8").T, b[:, 24:26].view("<u2")[:, 0]
    utc = ((words[2] & _Z_MASK) == _Z_WORD) & (words[3] == _U(0))
    np.bitwise_xor(words[2:], _Z_TO_FRAME, out=words[2:], where=utc)
    words ^= _FRAME
    sign = words[2] & _SIGN  # left in its lane: the pairs there are never read, and stay below 256
    pairs = words[:3] * _TEN + (words[:3] >> _B8)
    flags = (words + _ADD | words) & _HIGH
    flags[:3] |= (pairs + _OVER[:3]) & _OVER_HIGH[:3]
    if flags.any() or not np.all((sign == _MINUS) | (sign == _U(0))):
        return None
    date, clock, tail = pairs
    starts, counts = _runs(date & _U(0x0000_FF00_00FF_00FF) | (clock & _BYTE) << _B8)  # YY, DD, YY, MM pairs
    try:  # numpy reads each run's date, and rejects a month or day out of range
        days = b[starts, :10].view("S10")[:, 0].astype("M8[D]").view(np.int64)
    except ValueError:
        return None
    # An offset is under a day, as datetime requires; its minutes may pass 59.
    offset = ((tail >> _B32 & _BYTE) * _SIXTY + (tail >> _B56) + words[3]) * _SIXTY
    if np.any(days < -719_162) or np.any(offset >= _DAY_S):  # a day before 0001-01-01
        return None
    clock = (clock >> _B24 & _BYTE) * _HOUR_S + (clock >> _B48 & _BYTE) * _SIXTY + (tail >> _B8 & _BYTE)
    clock += np.where(sign == _MINUS, offset, _U(0) - offset)
    return np.repeat(days * 86400, counts) + clock.view(np.int64)


def _chunks(fh) -> Iterator[bytes]:
    """The rest of a binary file in blocks of whole lines.

    Each block is the next 64 * BLOCK_ROWS bytes run on to the end of the
    line they stop in: about BLOCK_ROWS of the writers' 40-80 byte lines.
    Only the last block may lack a final newline.
    """
    while block := fh.read(64 * BLOCK_ROWS):
        block += fh.readline()
        yield block


def _fast_blocks(fh, parse_block) -> tuple[np.ndarray, np.ndarray] | None:
    """(epoch_s, litres) of the rest of a binary file parsed block by block,
    or None unless parse_block takes every block and the rows are clean and
    time-ordered.

    A first pass counts the lines, so the rows go straight into two arrays
    allocated once, with room for one row per line; the file is never held
    whole.
    """
    start = fh.tell()
    lines = sum(block.count(b"\n") for block in _chunks(fh)) + 1
    fh.seek(start)
    epoch, litres = np.empty(lines, dtype=np.int64), np.empty(lines, dtype=np.float64)
    n = 0
    for block in _chunks(fh):
        rows = parse_block(block)
        if rows is None:
            return None
        m = len(rows[0])
        epoch[n : n + m], litres[n : n + m] = rows
        n += m
    epoch, litres = epoch[:n], litres[:n]
    if not n or not np.all(np.isfinite(litres) & (litres >= 0)) or np.any(np.diff(epoch) <= 0):
        return None
    if epoch[0] < FIRST_EPOCH_S or epoch[-1] > LAST_EPOCH_S:
        return None
    return epoch, litres


def _fast(fh, fmt: str) -> tuple[np.ndarray, np.ndarray] | None:
    """(epoch_s, litres) of a file in the format's layout, or None to leave it to the row parser.

    The first CSV line that is not empty may be a header the row parser
    skips: printable ASCII (where str.splitlines finds no line end) whose
    fields _is_header accepts. Any line may be empty or end in CR LF;
    every other line must be the layout's line with a canonical stamp and
    a number the row parser takes.
    """
    start = fh.tell()
    if fmt == "csv":
        line = b""
        while not line and (raw := fh.readline()):
            line = raw.removesuffix(b"\n").removesuffix(b"\r")
        printable = not line.translate(None, bytes(range(0x20, 0x7F)))
        try:
            header = printable and _is_header(next(csv.reader([line.decode()])))
        except csv.Error:  # e.g. a field over the csv module's size limit
            header = False
        if not header:
            fh.seek(start)
    return _fast_blocks(fh, lambda block: _layout_block(block, fmt))


def _windows(buf: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """The `width` bytes of buf from each offset in `at`, a row each, gathered as one item a row."""
    return np.ndarray((len(buf) - width + 1,), f"V{width}", buf, 0, (1,))[at].view(np.uint8).reshape(-1, width)


def _at_each(buf: np.ndarray, at: np.ndarray, literal: bytes) -> bool:
    """Whether `literal` is in buf at each offset in `at`."""
    return not literal or bool(np.all(_windows(buf, at, len(literal)) == np.frombuffer(literal, np.uint8)))


_DIGITS = np.zeros(256, dtype=bool)
_DIGITS[list(b"0123456789")] = True
_PAD = 32  # NULs each side of a block, so every line has a stamp's window and a value's


def _layout_block(block: bytes, fmt: str) -> tuple[np.ndarray, np.ndarray] | None:
    """(epoch_s, litres) of a block of whole lines in the format's layout, else None.

    Empty lines are skipped, and a CR that ends a line, before its
    newline or at the end of the input, is dropped. The literals are
    compared at their fixed offsets and the stamps decoded by
    _decode_timestamps. A block of plain decimals (for JSONL, each also as
    JSON writes it: from a digit to a digit, a leading 0 followed by the
    point or by nothing) is read by floattext.parse_fields, bit for bit as
    float() reads it; any other block by _row_values. So every byte of a
    line taken is checked: as a literal, a stamp, a digit or point, or by
    _row_values.
    """
    _, head, mid, tail = _LAYOUTS[fmt]
    close = tail[:-1]  # what ends a line before its newline
    text = np.zeros(len(block) + 2 * _PAD, dtype=np.uint8)
    text[_PAD:-_PAD] = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(text == ord("\n"))
    starts = np.append(_PAD, ends + 1)
    ends = np.append(ends, len(block) + _PAD)  # the last line, empty or without a newline
    ends -= text[ends - 1] == ord("\r")
    lines = ends > starts
    starts, ends = starts[lines], ends[lines]
    if not len(starts):
        return np.empty(0, dtype=np.int64), np.empty(0)
    if np.any(ends - starts < len(head) + 20 + len(mid) + 1 + len(close)):
        return None
    at = starts + len(head)
    stamps = _windows(text, at, 32)  # 26 bytes a stamp, in rows of whole words
    utc = stamps[:, 19] == ord("Z")
    first = at + np.where(utc, 20, 25) + len(mid)  # each number's first byte
    last = ends - len(close)  # and the byte after its last
    if not (np.all(first < last) and _at_each(text, starts, head) and _at_each(text, first - len(mid), mid)
            and _at_each(text, last, close)):
        return None
    lead = text[first]
    plain = fmt == "csv" or (np.all(_DIGITS[lead] & _DIGITS[text[last - 1]])
                             and not np.any((lead == ord("0")) & _DIGITS[text[first + 1]]))
    # Each number is right-aligned in the FIELD_BYTES bytes that end it.
    fields = _windows(text, last - floattext.FIELD_BYTES, floattext.FIELD_BYTES)
    del text, lead, starts, ends, at  # so the kernels' scratch arrays stay within the memory bound
    stamps[:, 25] = 0
    stamps[utc, 20:] = 0
    epoch = _decode_timestamps(stamps)
    if epoch is None:
        return None
    del stamps
    litres = floattext.parse_fields(fields, last - first) if plain else None
    if litres is None:
        litres = _row_values(block, first - _PAD, last - _PAD, fmt)
    return None if litres is None else (epoch, litres)


def _row_values(block: bytes, first: np.ndarray, last: np.ndarray, fmt: str) -> np.ndarray | None:
    """The numbers of a block, block[first[i]:last[i]] each, as the row
    parser reads them: float() for CSV, and for JSONL an int or float of
    JSON that a float holds. None if one does not read, or if the block
    holds a non-ASCII byte, a lone CR or a byte of _DECLINED."""
    if not block.isascii() or any(byte in block for byte in _DECLINED) or block.count(b"\r") != block.count(b"\r\n"):
        return None
    text = block.decode("ascii")
    read = float if fmt == "csv" else _json_number
    try:
        return np.array([read(text[a:b]) for a, b in zip(first.tolist(), last.tolist())], dtype=np.float64)
    except (ValueError, OverflowError, RecursionError):  # e.g. an int too large for a float, deep nesting
        return None


def _json_number(text: str) -> float:
    """A JSON int or float as a float; ValueError for any other JSON value."""
    value = json.loads(text)
    if type(value) not in (int, float):
        raise ValueError(f"not a number: {text!r}")
    return float(value)


def _parse_timestamp(text: str) -> int:
    """Epoch seconds of ISO-8601 with offset; 'Z' accepted. Sub-second
    digits are rounded. The instant must lie within the stream range."""
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    dt = datetime.fromisoformat(cleaned)
    if dt.tzinfo is None:
        raise ValueError("timestamp lacks a UTC offset")
    epoch = int(round(dt.timestamp()))
    if not FIRST_EPOCH_S <= epoch <= LAST_EPOCH_S:
        raise ValueError(f"instant outside {_EPOCH_RANGE}")
    return epoch


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

    Input in the writers' line layout, with whole-second `...Z` or
    `...+HH:MM` timestamps, LF or CR LF line ends and maybe empty lines, is
    decoded as arrays, block by block; its numbers are read as the row
    parser reads them. Anything else, including every input with a defect,
    goes through the row parser, which raises MalformedRow /
    NonMonotonicTimestamp / EmptyInput with 1-based physical line numbers in
    the diagnostics. Timestamps must strictly increase once rounded to whole
    seconds.
    """
    if fmt not in _PARSERS:
        raise ValueError(f"unknown stream format {fmt!r}")
    raw = source if isinstance(source, (bytes, str)) else source.read()
    data = raw if isinstance(raw, bytes) else raw.encode("utf-8", "surrogatepass")
    return _parse(io.BytesIO(data), fmt, source_id, raw)


def read_stream(path: str | Path) -> ReadingStream:
    """Read a stream file; `.jsonl` and `.ndjson` files are JSONL, others CSV.

    The fast path reads the file block by block; only the row parser reads
    it whole.
    """
    p = Path(path)
    fmt = "jsonl" if p.suffix.lower() in {".jsonl", ".ndjson"} else "csv"
    with open(p, "rb") as fh:
        return _parse(fh, fmt, str(p))


def _parse(fh, fmt: str, source_id: str, raw: bytes | str | None = None) -> ReadingStream:
    """The readings in a seekable binary file, as parse_stream describes.

    A leading UTF-8 byte order mark is dropped before either parser reads
    the file. The row parser reads `raw`, the whole input, or else the
    whole file after the mark.
    """
    start = len(_BOM) if fh.read(len(_BOM)) == _BOM else 0
    fh.seek(start)
    parsed = _fast(fh, fmt)
    if parsed is None:
        if raw is None or start:
            fh.seek(start)
            raw = fh.read()
        try:
            text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        except UnicodeDecodeError as exc:
            # Lines are counted as the row parsers count them, by
            # str.splitlines; the "x" stands in for the bad byte's line.
            line_no = len((raw[: exc.start].decode("utf-8") + "x").splitlines())
            raise MalformedRow(line_no, f"not UTF-8 text: {exc.reason}") from None
        # Typed buffers, not a tuple of Python objects per row. The import
        # stays on this path: loading array adds about 70 KB to any process.
        from array import array
        lines, epoch, litres = array("q"), array("q"), array("d")
        for line_no, t, value in _PARSERS[fmt](text):
            lines.append(line_no)
            epoch.append(t)
            litres.append(value)
        if not epoch:
            raise EmptyInput("no readings found")
        lines, epoch = np.frombuffer(lines, np.int64), np.frombuffer(epoch, np.int64)
        litres = np.frombuffer(litres, np.float64)
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
        try:
            fields = next(csv.reader([raw]))
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise MalformedRow(line_no, f"bad CSV row: {exc}") from None
        if first_data_row and _is_header(fields):
            first_data_row = False
            continue
        if len(fields) != 2:
            raise MalformedRow(line_no, f"expected 2 columns, got {len(fields)}")
        try:
            epoch = _parse_timestamp(fields[0])
        except ValueError as exc:
            raise MalformedRow(line_no, f"bad timestamp {fields[0]!r}: {exc}")
        try:
            value = float(fields[1])
        except ValueError:
            raise MalformedRow(line_no, f"bad cumulative value {fields[1]!r}")
        if not np.isfinite(value) or value < 0:
            raise MalformedRow(line_no, f"cumulative value {value!r} out of range")
        first_data_row = False
        yield line_no, epoch, value


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
            epoch = _parse_timestamp(str(obj["ts"]))
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
        yield line_no, epoch, value


# Format -> row parser.
_PARSERS = {"csv": _parse_csv_rows, "jsonl": _parse_jsonl_rows}


# --- cleaning ------------------------------------------------------------------


def difference_cumulative(stream: ReadingStream) -> np.recarray:
    """First-difference a stream into usage intervals: a record array with
    fields start_s and end_s (the instants of the two readings, UTC epoch
    seconds) and litres (the usage between them).

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
    return np.rec.fromarrays((stream.epoch_s[:-1], stream.epoch_s[1:], diffs), names="start_s,end_s,litres")


def segment_litres(stream: ReadingStream) -> float:
    """Litres the meter counted: last - first within each segment between
    counter decreases, summed. Without a decrease it is last - first."""
    starts = np.concatenate([[0], np.flatnonzero(np.diff(stream.litres) < 0) + 1])
    ends = np.append(starts[1:], len(stream)) - 1
    return sum(float(stream.litres[b] - stream.litres[a]) for a, b in zip(starts, ends))


# --- writing -------------------------------------------------------------------


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, counts): where each run of equal neighbours in keys starts, and its length."""
    # Edges at the first key, if any, at each key unlike the one before, and at the end.
    edges = np.flatnonzero(np.concatenate((keys[:1] == keys[:1], keys[1:] != keys[:-1], [True])))
    return edges[:-1], np.diff(edges)


def _put_stamps(out: np.ndarray, epoch: np.ndarray) -> None:
    """Write the digits of each sorted epoch's UTC stamp into the rows of
    `out`, an (n, 25) view of _STAMP_FRAME copies.

    Each row gets its day's date, worked out once per day, and HH:MM:SS as
    one word, the numbers split into tens and units in lanes 0, 3 and 6.
    """
    days = epoch // 86400
    seconds = (epoch - days * 86400).view(_U)
    hour = seconds // _HOUR_S
    seconds -= hour * _HOUR_S
    minute = seconds // _SIXTY
    seconds -= minute * _SIXTY
    starts, counts = _runs(days)
    # YYYY-MM- and DD, as the first two words of each day's ISO text.
    date = np.datetime_as_string(days[starts].view("M8[D]")).astype("S16").view("<u8").reshape(-1, 2)
    out[:, 0:8].view("<u8")[:, 0] = np.repeat(date[:, 0], counts)
    out[:, 8:10].view("<u2")[:, 0] = np.repeat(date[:, 1], counts)
    clock = hour | minute << _B24 | seconds << _B48
    tens = clock * _U(103) >> _U(10) & _U(0x000F_0000_0F00_000F)
    out[:, 11:19].view("<u8")[:, 0] = (clock - tens * _TEN) << _B8 | tens | _CLOCK_WORD


def _write_rows(
    stream: ReadingStream, path: str | Path, first_line: bytes, head: bytes, mid: bytes, tail: bytes
) -> None:
    """Write first_line, then one line per reading: head, its UTC stamp
    with a +00:00 offset as datetime.isoformat writes it, mid, the repr of
    its litres, and tail, which ends the line. Parsing the file reproduces
    the stream.

    Each block of BLOCK_ROWS readings is laid out as one byte matrix, a row
    per line with the value's padding in it, and written as one string with
    the padding masked out.
    """
    stamp, value, pad = len(head), len(head) + len(_STAMP_FRAME) + len(mid), floattext.FIELD_BYTES
    rows = np.zeros((BLOCK_ROWS, value + pad + len(tail)), dtype=np.uint8)
    rows[:, :value] = np.frombuffer(head + _STAMP_FRAME + mid, dtype=np.uint8)
    rows[:, value + pad :] = np.frombuffer(tail, dtype=np.uint8)
    stamps, values = rows[:, stamp : stamp + len(_STAMP_FRAME)], rows[:, value : value + pad]
    with open(path, "wb") as fh:
        fh.write(first_line)
        for a in range(0, len(stream), BLOCK_ROWS):
            n = min(BLOCK_ROWS, len(stream) - a)
            _put_stamps(stamps[:n], stream.epoch_s[a : a + n])
            floattext.put_reprs(values[:n], stream.litres[a : a + n])
            block = rows[:n]
            fh.write(block[block != 0])


def write_stream_csv(stream: ReadingStream, path: str | Path) -> None:
    _write_rows(stream, path, *_LAYOUTS["csv"])


def write_stream_jsonl(stream: ReadingStream, path: str | Path) -> None:
    _write_rows(stream, path, *_LAYOUTS["jsonl"])
