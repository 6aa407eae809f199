"""Cumulative meter readings: parsing, validation, and first differencing.

A reading stream is a strictly time-ordered sequence of (timestamp,
cumulative litres) pairs from one meter. The expected cadence is one reading
every 15 minutes plus a small transmission delay, so consecutive readings are
never closer than 15 minutes; streams that violate that are read as they
are, because the defect lives in the data, not the parser, and
binning.Cleaner warns of them when it cleans the stream. Reading logs
nothing.

Differencing turns n readings into n-1 usage intervals. The cumulative
counter never decreases on a healthy meter: difference_cumulative rejects a
decrease, while binning.Cleaner drops the one pair across it, so the data on
either side survive a counter reset.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterable, Iterator

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
    "read_blocks",
    "difference_cumulative",
    "segment_litres",
    "write_stream_csv",
    "write_stream_jsonl",
]

NOMINAL_PERIOD = timedelta(minutes=15)
# Readings handled per step of every block loop: reading and parsing a
# file, generating, cleaning, binning, zone offset lookup and writing. A
# long stream's scratch arrays are never held in memory whole, nor is its
# text.
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
        # Neighbouring views compared: 1 byte per reading, where np.diff takes 8.
        later = epoch[1:] > epoch[:-1]
        if not np.all(later):
            raise NonMonotonicTimestamp(int(np.argmin(later)) + 1, "timestamps must strictly increase")
        if len(epoch) and not (FIRST_EPOCH_S <= epoch[0] and epoch[-1] <= LAST_EPOCH_S):
            raise ValueError(f"timestamps must lie within {_EPOCH_RANGE}")
        if np.any(litres < 0) or not np.all(np.isfinite(litres)):
            raise ValueError("cumulative litres must be finite and >= 0")
        epoch.setflags(write=False)
        litres.setflags(write=False)
        object.__setattr__(self, "epoch_s", epoch)
        object.__setattr__(self, "litres", litres)

    @classmethod
    def from_blocks(cls, blocks: Iterable[tuple[np.ndarray, np.ndarray]], source_id: str = "") -> ReadingStream:
        """The stream of consecutive (epoch_s, litres) blocks, joined once they end."""
        epochs, litres = [], []
        for epoch, values in blocks:
            epochs.append(epoch)
            litres.append(values)
        epoch = np.concatenate(epochs)
        epochs.clear()  # so the instants are not held twice while the litres are joined
        return cls(epoch, np.concatenate(litres), source_id)

    def __len__(self) -> int:
        return len(self.epoch_s)

    def blocks(self, rows: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(epoch_s, litres) views of each run of `rows` readings, BLOCK_ROWS by default."""
        rows = rows or BLOCK_ROWS
        for a in range(0, len(self), rows):
            yield self.epoch_s[a : a + rows], self.litres[a : a + rows]


# --- parsing -------------------------------------------------------------------

_BOM = b"\xef\xbb\xbf"
_BLANKS = b" \t"  # what a line may hold and still be empty to either parser
# Format -> (first line, head, mid, tail): the writers write the first
# line, then per reading head, its stamp, mid, its litres and tail, which
# ends with the newline. The fast path reads that layout back.
_LAYOUTS = {
    "csv": (b"timestamp,cumulative_litres\n", b"", b",", b"\n"),
    # The same bytes per line as json.dumps({"ts": ..., "litres_total": ...}).
    "jsonl": (b"", b'{"ts": "', b'", "litres_total": ', b"}\n"),
}
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


def _skip_header(fh) -> int:
    """Move a CSV file past its first line that is not blank (see
    _layout_block), if that line is a header the row parser skips: printable
    ASCII (where str.splitlines finds no line end) whose fields _is_header
    accepts. Returns the number of lines skipped, 0 if none."""
    start = fh.tell()
    line, lines = b"", 0
    while not line.strip(_BLANKS) and (raw := fh.readline()):
        line = raw.removesuffix(b"\n").removesuffix(b"\r")
        lines += 1
    printable = not line.translate(None, bytes(range(0x20, 0x7F)))
    try:
        header = printable and _is_header(next(csv.reader([line.decode()])))
    except csv.Error:  # e.g. a field over the csv module's size limit
        header = False
    if not header:
        fh.seek(start)
        return 0
    return lines


def _blocks(fh, fmt: str) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The readings of a seekable binary file as checked blocks of
    (epoch_s, litres) arrays, one per chunk of whole lines (see _chunks), in
    one pass that never reads ahead and never holds more than a chunk.

    A leading UTF-8 byte order mark is dropped, and a CSV's first line that
    is not blank may be a header, which is skipped. Each chunk is read by
    _layout_block; a chunk it declines, or whose readings fail the checks,
    is read alone by the row parser (see _row_block), which raises
    MalformedRow or NonMonotonicTimestamp at its first defect. No block is
    empty. Its values are finite and >= 0, and its instants lie in
    FIRST_EPOCH_S..LAST_EPOCH_S and strictly increase, within it and from
    the block before. Raises EmptyInput at the end if the file held no
    reading.
    """
    if fh.read(len(_BOM)) != _BOM:
        fh.seek(0)
    # The physical lines before the chunk, as str.splitlines counts them,
    # and whether the row parser would still take a line as a header.
    lines = _skip_header(fh) if fmt == "csv" else 0
    header = not lines
    before = FIRST_EPOCH_S - 1  # the instant of the reading before the chunk
    for chunk in _chunks(fh):
        rows = _layout_block(chunk, fmt)
        if rows is not None and _checked(*rows[:2], before):
            epoch, litres, newlines = rows
            lines += newlines
            header = header and not len(epoch)
        else:
            epoch, litres, lines, header = _row_block(chunk, fmt, lines, header, before)
        if not len(epoch):
            continue
        before = int(epoch[-1])
        yield epoch, litres
    if before < FIRST_EPOCH_S:
        raise EmptyInput("no readings found")


def _checked(epoch: np.ndarray, litres: np.ndarray, before: int) -> bool:
    """Whether a block's instants strictly increase from `before` on, to at
    most LAST_EPOCH_S, and its values are finite and >= 0, as every block's
    must."""
    return not len(epoch) or bool(
        before < epoch[0] and epoch[-1] <= LAST_EPOCH_S and np.all(epoch[1:] > epoch[:-1])
        and np.all(np.isfinite(litres) & (litres >= 0))
    )


def _row_block(chunk: bytes, fmt: str, lines: int, header: bool, before: int):
    """(epoch_s, litres, lines, header): the readings the row parser reads
    from a chunk of whole lines that follows `lines` physical lines, and
    `lines` and `header` (see _blocks) carried past the chunk.

    The instants must strictly increase from `before` on. MalformedRow or
    NonMonotonicTimestamp at the first defect, with its 1-based physical
    line number.
    """
    try:
        text = chunk.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines are counted as the row parsers count them, by
        # str.splitlines; the "x" stands in for the bad byte's line.
        line_no = lines + len((chunk[: exc.start].decode("utf-8") + "x").splitlines())
        raise MalformedRow(line_no, f"not UTF-8 text: {exc.reason}") from None
    # Typed buffers, not a tuple of Python objects per row. The import
    # stays on this path: loading array adds about 70 KB to any process.
    from array import array
    epoch, litres = array("q"), array("d")
    for line_no, t, value in _PARSERS[fmt](text, lines, header):
        if t <= before:
            raise NonMonotonicTimestamp(line_no)
        before = t
        epoch.append(t)
        litres.append(value)
    # A chunk whose lines are all blank leaves `header` as it was.
    return (np.frombuffer(epoch, np.int64), np.frombuffer(litres, np.float64),
            lines + len(text.splitlines()), header and not text.strip())


def _windows(buf: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """The `width` bytes of buf from each offset in `at`, a row each, gathered as one item a row."""
    return np.ndarray((len(buf) - width + 1,), f"V{width}", buf, 0, (1,))[at].view(np.uint8).reshape(-1, width)


def _at_each(buf: np.ndarray, at: np.ndarray, literal: bytes) -> bool:
    """Whether `literal` is in buf at each offset in `at`."""
    return not literal or bool(np.all(_windows(buf, at, len(literal)) == np.frombuffer(literal, np.uint8)))


_DIGITS = np.zeros(256, dtype=bool)
_DIGITS[list(b"0123456789")] = True
_PAD = 32  # NULs each side of a block, so every line has a stamp's window and a value's


def _layout_block(block: bytes, fmt: str) -> tuple[np.ndarray, np.ndarray, int] | None:
    """(epoch_s, litres, newlines) of a block of whole lines in the format's
    layout, else None.

    A CR that ends a line, before its newline or at the end of the input,
    is dropped; then lines of only spaces and tabs, or of nothing, are
    skipped, as the row parser skips them. The literals are
    compared at their fixed offsets, the stamps decoded by
    _decode_timestamps, and the numbers read by floattext.parse_fields,
    bit for bit as float() reads them. It takes plain decimals only, and
    for JSONL each must also be as JSON writes it: from a digit to a digit,
    a leading 0 followed by the point or by nothing. So every byte of a
    line taken is a literal, a stamp's, a digit or the point, and the
    block reads as the row parser reads it; any other block is declined.
    The newlines of a block taken are then its lines as str.splitlines
    counts them, but for a last line with no newline.
    """
    _, head, mid, tail = _LAYOUTS[fmt]
    close = tail[:-1]  # what ends a line before its newline
    text = np.zeros(len(block) + 2 * _PAD, dtype=np.uint8)
    text[_PAD:-_PAD] = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(text == ord("\n"))
    newlines = len(ends)
    starts = np.append(_PAD, ends + 1)
    ends = np.append(ends, len(block) + _PAD)  # the last line, empty or without a newline
    ends -= text[ends - 1] == ord("\r")
    lines = ends > starts
    for i in np.flatnonzero(lines & np.isin(text[starts], list(_BLANKS))).tolist():
        lines[i] = bool(block[starts[i] - _PAD : ends[i] - _PAD].strip(_BLANKS))
    starts, ends = starts[lines], ends[lines]
    if not len(starts):
        return np.empty(0, dtype=np.int64), np.empty(0), newlines
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
    if fmt == "jsonl" and not (np.all(_DIGITS[lead] & _DIGITS[text[last - 1]])
                               and not np.any((lead == ord("0")) & _DIGITS[text[first + 1]])):
        return None
    # Each number is right-aligned in the FIELD_BYTES bytes that end it.
    fields = _windows(text, last - floattext.FIELD_BYTES, floattext.FIELD_BYTES)
    del text, lead, starts, ends, at  # so the kernels' scratch arrays stay within the memory bound
    stamps[:, 25] = 0
    stamps[utc, 20:] = 0
    epoch = _decode_timestamps(stamps)
    if epoch is None:
        return None
    del stamps
    litres = floattext.parse_fields(fields, last - first)
    return None if litres is None else (epoch, litres, newlines)


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

    Text is read as its UTF-8 bytes, in one pass of chunks of whole lines.
    A chunk in the writers' line layout, with whole-second `...Z` or
    `...+HH:MM` timestamps, plain decimals that floattext.parse_fields
    reads, LF or CR LF line ends and maybe lines of only spaces and tabs, is
    decoded as arrays to what the row parser would read. Any other chunk,
    including every chunk with a defect, is read alone by the row parser,
    which raises MalformedRow / NonMonotonicTimestamp / EmptyInput with
    1-based physical line numbers in the diagnostics. Timestamps must
    strictly increase once rounded to whole seconds.
    """
    if fmt not in _PARSERS:
        raise ValueError(f"unknown stream format {fmt!r}")
    data = source if isinstance(source, (bytes, str)) else source.read()
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    return ReadingStream.from_blocks(_blocks(io.BytesIO(data), fmt), source_id)


def _format(path: Path) -> str:
    """`.jsonl` and `.ndjson` files are JSONL, others CSV."""
    return "jsonl" if path.suffix.lower() in {".jsonl", ".ndjson"} else "csv"


def read_stream(path: str | Path) -> ReadingStream:
    """Read a stream file; `.jsonl` and `.ndjson` files are JSONL, others CSV.

    The readings are collected from the blocks read_blocks yields.
    """
    return ReadingStream.from_blocks(read_blocks(path), str(Path(path)))


def read_blocks(path: str | Path) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The readings of a stream file, read as read_stream reads it, as
    checked blocks of (epoch_s, litres) arrays: consecutive, their instants
    strictly increasing within and across blocks.

    The file is read in one pass of chunks, each decoded by the fast path
    or, where that declines it, by the row parser, so no chunk is read
    twice and nothing beyond one chunk's text is held. Nothing is logged:
    binning.Cleaner judges neighbouring readings.
    """
    p = Path(path)
    with open(p, "rb") as fh:
        yield from _blocks(fh, _format(p))


def _parse_csv_rows(text: str, lines: int = 0, header: bool = True) -> Iterator[tuple[int, int, float]]:
    first_data_row = header
    for line_no, raw in enumerate(text.splitlines(), start=lines + 1):
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


def _parse_jsonl_rows(text: str, lines: int = 0, header: bool = False) -> Iterator[tuple[int, int, float]]:
    for line_no, raw in enumerate(text.splitlines(), start=lines + 1):
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


# Format -> row parser of text after `lines` lines; `header` is whether a
# CSV's first line that is not blank may be a header.
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
    counter decreases, summed in stream order. Without a decrease it is
    last - first; an empty stream counted 0.0."""
    litres = stream.litres
    if not len(litres):
        return 0.0
    total, start = 0.0, litres[0]
    for i in np.flatnonzero(litres[1:] < litres[:-1]).tolist():
        total += float(litres[i] - start)
        start = litres[i + 1]
    return total + float(litres[-1] - start)


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
    blocks: Iterable[tuple[np.ndarray, np.ndarray]], fh, fmt: str
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Write a stream's blocks to a binary file in the format's layout,
    passing each block on once it is written.

    The layout's first line comes first, then per reading its head, its UTC
    stamp with a +00:00 offset as datetime.isoformat writes it, mid, the
    repr of its litres, and its tail, which ends the line. Parsing the file
    reproduces the stream. Each block is laid out as one byte matrix, a row
    per line with the value's padding in it, and written as one string with
    the padding masked out. The matrix is reused, and grows to the longest
    block.
    """
    first_line, head, mid, tail = _LAYOUTS[fmt]
    stamp, value, pad = len(head), len(head) + len(_STAMP_FRAME) + len(mid), floattext.FIELD_BYTES
    line = np.zeros(value + pad + len(tail), dtype=np.uint8)
    line[:value] = np.frombuffer(head + _STAMP_FRAME + mid, dtype=np.uint8)
    line[value + pad :] = np.frombuffer(tail, dtype=np.uint8)
    rows = np.tile(line, (0, 1))
    fh.write(first_line)
    for epoch, litres in blocks:
        n = len(epoch)
        if n > len(rows):
            rows = np.tile(line, (n, 1))
        _put_stamps(rows[:n, stamp : stamp + len(_STAMP_FRAME)], epoch)
        floattext.put_reprs(rows[:n, value : value + pad], litres)
        block = rows[:n]
        fh.write(block[block != 0])
        yield epoch, litres


def _write(stream: ReadingStream, path: str | Path, fmt: str) -> None:
    with open(path, "wb") as fh:
        for _ in _write_rows(stream.blocks(), fh, fmt):
            pass


def write_stream_csv(stream: ReadingStream, path: str | Path) -> None:
    _write(stream, path, "csv")


def write_stream_jsonl(stream: ReadingStream, path: str | Path) -> None:
    _write(stream, path, "jsonl")
