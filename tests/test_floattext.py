"""The float64 <-> text kernels against float.__repr__ and float(), on their
own and inside the stream writers and reader at several block sizes."""

import math
import tempfile
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import kernel_only
from flowrhythm import floattext, readings
from flowrhythm.readings import ReadingStream, parse_stream, read_stream, write_stream_csv, write_stream_jsonl

LEAST, LEAST_BITS, ONE_BITS, E16_BITS = 2.0**-10, *(int(np.array(v).view(np.uint64)) for v in (2.0**-10, 1.0, 1e16))
# Where the format kernel's arithmetic changes: every power of two and of
# ten in [2^-10, 1e16) and their neighbours, 2^-10 itself, the end of the
# integers a double holds exactly, and the largest double below 1e16.
FORMAT_EDGES = sorted({
    v for p in [2.0**j for j in range(-10, 54)] + [10.0**j for j in range(-3, 17)]
    for v in (p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)) if LEAST <= v < 1e16
} | {2.0**53 - 1, 2.0**53 + 2, math.nextafter(1e16, 0.0)})
# Values put_reprs leaves to float.__repr__: just below 2^-10, the first
# value whose multiplier would not fit one word, and the other ends.
FALLBACK = [math.nextafter(LEAST, 0.0), LEAST / 2, 1e-4, 1e-5, 5e-324, 0.0, -0.0, -1.0, 1e16, 2.0**64,
            1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan]


def from_bits(b: int) -> float:
    return float(np.uint64(b).view(np.float64))


in_domain = st.one_of(st.integers(LEAST_BITS, E16_BITS - 1).map(from_bits), st.sampled_from(FORMAT_EDGES))


def reprs(values) -> list[str]:
    """What format_reprs writes for values, as strings."""
    out = floattext.format_reprs(np.array(values, dtype=np.float64))
    assert out.shape == (len(values), floattext.FIELD_BYTES)
    return [bytes(row).rstrip(b"\0").decode("ascii") for row in out]


def test_format_kernel_equals_repr_on_its_edges():
    assert LEAST in FORMAT_EDGES and math.nextafter(LEAST, math.inf) in FORMAT_EDGES
    assert reprs(FORMAT_EDGES) == [repr(v) for v in FORMAT_EDGES]


@pytest.mark.parametrize("low, high", [(LEAST_BITS, ONE_BITS), (ONE_BITS, E16_BITS)], ids=["below-1", "from-1"])
def test_format_kernel_equals_repr_on_random_bit_patterns(low, high):
    bits = np.random.default_rng(17).integers(low, high, 50_000, dtype=np.uint64)
    values = bits.view(np.float64).tolist()
    assert reprs(values) == [repr(v) for v in values]


def test_put_reprs_leaves_values_outside_the_kernels_domain_to_repr():
    values = np.array(FALLBACK + FORMAT_EDGES[:5] + FALLBACK[::-1])
    out = np.full((len(values), floattext.FIELD_BYTES), 0xFF, dtype=np.uint8)
    floattext.put_reprs(out, values)
    assert [bytes(row).rstrip(b"\0").decode("ascii") for row in out] == [repr(v) for v in values.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(in_domain, min_size=1, max_size=40))
def test_format_kernel_equals_repr(values):
    assert reprs(values) == [repr(v) for v in values]


def decimals(texts: list[str]) -> np.ndarray:
    """What parse_decimals makes of plain decimal texts."""
    w = [int(t.replace(".", "") or "0") for t in texts]
    m = [len(t.partition(".")[2]) for t in texts]
    return floattext.parse_decimals(np.array(w, dtype=np.uint64), np.array(m))


def bits_of(values) -> list[str]:
    return [float(v).hex() for v in values]


# Decimals rounding to the nearest double and ties to even go wrong first:
# integers past 2^53, exact halfway points (which need at most 4 digits
# after the point), points just either side of them, the ends of the
# 19-digit range, and leading zeros past it, which a field of
# floattext.FIELD_BYTES bytes may hold.
PARSE_EDGES = [
    "9007199254740993", "9007199254740995", "9007199254740993.0", "900719925474099.3",
    "0", "0.0", "5.", ".5", "0000000000000000001", "9999999999999999999", "18446744073709551.61",
    "4503599627370497.5", "4503599627370496.5", "1125899906842624.125", "1125899906842624.375",
    "2251799813685248.25", "2251799813685248.75", "0.1", "0.2", "0.3", "123456789012345678.9",
    ".0000000000000000001", "1.000000000000000000", "0.0009765625000000001", "000000000000000000000123",
]


def near_halfway(rng: np.random.Generator, count: int) -> list[str]:
    """Decimals of up to 19 digits at, or one unit of their last digit from,
    the point halfway between two doubles."""
    out = []
    for _ in range(count):
        x = float(rng.uniform(0.0, 1e6) if rng.random() < 0.5 else 10.0 ** rng.uniform(-6.0, 18.0))
        mid = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
        m = int(rng.integers(0, 20))
        for w in (int(mid * 10**m) + d for d in (-1, 0, 1, 2)):
            text = str(w).rjust(m + 1, "0")
            text = text[: len(text) - m] + "." + text[len(text) - m :]
            if 0 <= w < 10**19:
                out.append(text)
    return out


def test_parse_kernel_equals_float_on_its_edges_and_near_halfway_points():
    texts = PARSE_EDGES + near_halfway(np.random.default_rng(23), 4_000)
    assert bits_of(decimals(texts)) == bits_of(float(t) for t in texts)


def test_parse_kernel_equals_float_on_exact_halfway_points():
    # An odd 54-bit significand times 2^e, written with m <= 4 digits after
    # the point: halfway between two doubles, so float() rounds to the even one.
    rng = np.random.default_rng(29)
    texts = []
    for _ in range(3_000):
        value = Fraction(int(rng.integers(2**53, 2**54)) | 1) * Fraction(2) ** int(rng.integers(-4, 10))
        for m in range(5):
            w = value * 10**m
            if w.denominator == 1 and w.numerator < 10**19:
                text = str(w.numerator).rjust(m + 1, "0")
                texts.append(text[: len(text) - m] + "." + text[len(text) - m :])
    assert len(texts) > 1_000
    assert bits_of(decimals(texts)) == bits_of(float(t) for t in texts)


@st.composite
def plain_decimals(draw):
    """1-19 digits, leading zeros included, with a point anywhere or none."""
    digits = draw(st.text("0123456789", min_size=1, max_size=19))
    at = draw(st.one_of(st.none(), st.integers(0, len(digits))))
    return digits if at is None else digits[:at] + "." + digits[at:]


@settings(max_examples=500, deadline=None)
@given(st.lists(plain_decimals(), min_size=1, max_size=40))
def test_parse_kernel_equals_float(texts):
    assert bits_of(decimals(texts)) == bits_of(float(t) for t in texts)


# --- inside the writers and the reader ------------------------------------------


@pytest.mark.parametrize("block_rows", [1, 7, 4096])
@settings(max_examples=100, deadline=None)
@given(values=st.lists(in_domain, min_size=1, max_size=50))
@example(values=FORMAT_EDGES)
@example(values=[LEAST, 0.5, 0.1, 0.001, 0.25, 0.75])
def test_writers_write_repr_of_in_domain_values_and_read_them_back(block_rows, values):
    # A repr in the domain is below 10^16 with at most 19 digits after the
    # point (0.0009765625000000001 has 19), so floattext reads every block.
    texts = [repr(v) for v in values]
    stream = ReadingStream(1_600_000_000 + 900 * np.arange(len(values)), np.array(values))
    with tempfile.TemporaryDirectory() as tmp, patch.object(readings, "BLOCK_ROWS", block_rows):
        csv_path, jsonl_path = Path(tmp) / "r.csv", Path(tmp) / "r.jsonl"
        write_stream_csv(stream, csv_path)
        write_stream_jsonl(stream, jsonl_path)
        rows = csv_path.read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == texts
        assert [line.rsplit(" ", 1)[1][:-1] for line in jsonl_path.read_text().splitlines()] == texts
        with kernel_only():
            back = read_stream(csv_path)
            back_jsonl = read_stream(jsonl_path)
    assert bits_of(back.litres) == bits_of(back_jsonl.litres) == bits_of(values)


@pytest.mark.parametrize("block_rows", [1, 7, 4096])
@settings(max_examples=100, deadline=None)
@given(texts=st.lists(plain_decimals(), min_size=1, max_size=50))
@example(texts=PARSE_EDGES)
def test_reader_reads_plain_decimals_as_float_does(block_rows, texts):
    # Without a header, with and without a final newline.
    lines = [f"{datetime.fromtimestamp(1_600_000_000 + 900 * i, timezone.utc).isoformat()},{t}"
             for i, t in enumerate(texts)]
    for text in ("\n".join(lines) + "\n", "\n".join(lines)):
        with patch.object(readings, "BLOCK_ROWS", block_rows), kernel_only():
            stream = parse_stream(text)
        assert bits_of(stream.litres) == bits_of(float(t) for t in texts)
