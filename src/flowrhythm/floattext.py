"""Exact conversions between float64 values and decimal text, a block at a time.

Each kernel works on a whole block of values as uint64 arrays, built from
64 x 64 -> 128-bit products on 32-bit limbs, so no value costs a Python call:

- `format_reprs` writes `float.__repr__` of values in [2^-10, 1e16): the
  shortest digits that read back as the value, the nearest such, ties to an
  even last digit. It follows Schubfach (R. Giulietti, "The Schubfach way to
  render doubles", 2020), with exact products in place of its 126-bit
  approximations of powers of ten: in that range they are 10^0 .. 10^19,
  each one 64-bit word. `put_reprs` lays out any values so, leaving those
  outside that range to `float.__repr__`.
- `parse_decimals` reads plain decimals below 10^19 with at most 19
  digits after the point, rounded to nearest, ties to even, as `float()`
  reads them, and `parse_fields` reads such decimals from text, leading
  zeros included. It is Eisel-Lemire (D. Lemire, "Number parsing at a
  gigabyte per second", Software: Practice and Experience 51(8), 2021)
  with the 128-bit product, which needs no fallback (N. Mushtak and D.
  Lemire, "Fast number parsing without fallback", Software: Practice and
  Experience, 2023), over 5^-19 .. 5^0.

Each reads a small table of powers, built from Python ints on first use.
Every operand is uint64, shift counts included: numpy 1.24's value-based
casting and numpy 2's NEP 50 both turn mixed int64/uint64 operands into
float64 without an error.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["FIELD_BYTES", "format_reprs", "parse_decimals", "parse_fields", "put_reprs"]

_U = np.uint64
_LOW32, _S32 = _U(0xFFFF_FFFF), _U(32)
_HIDDEN = _U(1 << 52)
_ASCII_ZEROS = _U(0x3030_3030_3030_3030)
_PAIRS = _U(0x0000_00FF_0000_00FF)
# Bytes of text per value, three 64-bit words: format_reprs writes at most
# 22 ("0.000" and 17 digits), the longest repr of a finite double,
# -1.7976931348623157e+308, fills them all, and parse_fields reads fields
# of up to as many.
FIELD_BYTES = 24
# The least binary exponent q of a value c * 2^q, c in [2^52, 2^53), that
# format_reprs takes: the multiplier 10^-k it scales such a value by must
# fit one 64-bit word, 10^19 here, and would be 10^20 at q = -63, c = 2^52.
# So its domain starts at 2^-10, the least value with q = -62.
_LEAST_Q = -62
_Q_ROWS = 1 - _LEAST_Q + 1  # q = _LEAST_Q .. 1


def _mul128(a: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) 64-bit words of a * b, with b given as 32-bit halves."""
    high, low = a >> _S32, a & _LOW32
    cross = high * b_lo
    high *= b_hi
    mid = low * b_hi
    low *= b_lo
    high += mid >> _S32
    mid &= _LOW32
    high += cross >> _S32
    cross &= _LOW32
    mid += cross
    mid += low >> _S32
    high += mid >> _S32
    low &= _LOW32
    mid <<= _S32
    low |= mid
    return high, low


def _halves(values) -> tuple[np.ndarray, np.ndarray]:
    """The low and high 32-bit halves of Python ints below 2^64, as uint64 arrays."""
    halves = _words([(v & 0xFFFF_FFFF) | (v >> 32) << 64 for v in values])
    return halves[0], halves[1]


def _words(values) -> np.ndarray:
    """(3, len(values)): Python ints below 2^192 as three little-endian
    64-bit words each, read-only, since the tables are shared."""
    words = np.array([[v >> (64 * j) & (2**64 - 1) for v in values] for j in range(3)], dtype=_U)
    words.setflags(write=False)
    return words


@cache
def _byte_masks() -> np.ndarray:
    """(3, 25): the mask of the low c bytes of 24, for c = 0..24, as three
    little-endian words."""
    return _words([(1 << 8 * c) - 1 for c in range(25)])


# --- formatting --------------------------------------------------------------------


@cache
def _format_tables() -> dict[str, np.ndarray]:
    """Per binary exponent q of a value in [2^-10, 2^54), with a
    significand of 53 bits (c * 2^q, c in [2^52, 2^53)): k =
    floor(log10(2^q)), or floor(log10(3/4 2^q)) when c = 2^52, whose lower
    neighbour is nearer; the multiplier 10^-k * 2^max(q, 0) and the right
    shift max(-q, 0). The first _Q_ROWS rows serve c > 2^52 and the next
    c = 2^52, for q = _LEAST_Q .. 1.

    Then, per count p of digits before the point, from the least (a
    16-digit scaled value at the least k) to 24, the text that goes in
    before the digits from p on, as three little-endian words: a point
    after p bytes, or "0." and -p zeros at the start for p <= 0.
    """
    mul, shift, k_of = [], [], []
    for quarters in (4, 3):  # 2^q, then 3/4 2^q
        for q in range(_LEAST_Q, 2):
            right = max(-q, 0)
            k = 0
            while quarters * 2 ** (q + right) * 10**-k < 4 * 2**right:  # quarters/4 2^q < 10^k
                k -= 1
            mul.append(10**-k * 2 ** max(q, 0))
            shift.append(right)
            k_of.append(k)
    assert max(mul) < 2**64, "a multiplier must fit one 64-bit word"
    mul_lo, mul_hi = _halves(mul)
    points = range(min(k_of) + 16, 25)
    inserts = [int.from_bytes(b"0." + b"0" * -p, "little") if p <= 0 else ord(".") << 8 * p for p in points]
    shift, k_of = np.array(shift, dtype=_U), np.array(k_of, dtype=np.int64)
    shift.setflags(write=False)
    k_of.setflags(write=False)
    return {"mul_lo": mul_lo, "mul_hi": mul_hi, "shift": shift, "k": k_of,
            "insert": _words(inserts), "least_point": np.int64(points[0])}


def _scaled(high: np.ndarray, low: np.ndarray, shift: np.ndarray, shifted_out: np.ndarray) -> np.ndarray:
    """(high, low) >> shift, with bit 0 set if a 1 was shifted out (a bit of
    shifted_out, the mask of the low `shift` bits): a round-to-odd scaling
    that keeps the comparisons below exact."""
    out = low >> shift
    out |= high << (_U(64) - shift)  # for shift 0, high is 0, whatever a shift by 64 gives
    out |= (low & shifted_out) != 0
    return out


def _digit_bytes(v: np.ndarray) -> np.ndarray:
    """Values below 10^8 as their 8 decimal digits, one a byte, most
    significant first in memory, in little-endian words: v is split in
    halves of 4 digits, then 2, then 1, within the word's lanes."""
    hi = v // _U(10_000)
    w = hi | ((v - hi * _U(10_000)) << _S32)
    hi = ((w * _U(5243)) >> _U(19)) & _U(0x0000_007F_0000_007F)  # lanes // 100
    w = hi | ((w - hi * _U(100)) << _U(16))
    hi = ((w * _U(103)) >> _U(10)) & _U(0x000F_000F_000F_000F)  # lanes // 10
    return hi | ((w - hi * _U(10)) << _U(8))


def format_reprs(x: np.ndarray) -> np.ndarray:
    """float.__repr__ of each value of x, a float64 array of values in
    [2^-10, 1e16), as ASCII, one NUL-padded row of FIELD_BYTES bytes per
    value.

    Schubfach: with v = c * 2^q scaled by 10^-k, its rounding interval
    holds one or two candidates at s = floor(v 10^-k) and s + 1, and at
    most one multiple of ten, which is shorter. The interval's ends are
    v -+ 2^(q-1) (a quarter of that below when c = 2^52). Reading rounds
    half to even, so the ends belong to the interval when c is even; in
    [2^-10, 1e16) that never matters. For q <= 0 an end has more digits
    after the point than any candidate, so it is none of them; for q = 1
    the ends are odd integers, the multiples of ten even, and s + 1, the
    upper end, loses to s = v, the nearer.
    """
    t = _format_tables()
    bits = np.ascontiguousarray(x, dtype=np.float64).view(_U)
    c = (bits & (_HIDDEN - _U(1))) | _HIDDEN
    row = (bits >> _U(52)) - _U(1075 + _LEAST_Q)  # q - _LEAST_Q, as q = exponent field - 1075
    row[c == _HIDDEN] += _U(_Q_ROWS)
    row = row.astype(np.intp)
    mul_lo, mul_hi, shift = t["mul_lo"][row], t["mul_hi"][row], t["shift"][row]
    shifted_out = (_U(1) << shift) - _U(1)
    # 4 v 10^-k and the interval's ends, in quarters, each rounded to odd:
    # the product of 4 c, -+ 2 (+ 2 and - 1 when c = 2^52), by the
    # multiplier. That passes 2^63, so it is added or taken away once or
    # twice, each time with its carry.
    high, low = _mul128(c << _U(2), mul_lo, mul_hi)
    vb = _scaled(high, low, shift, shifted_out)
    step = mul_lo | (mul_hi << _S32)
    once = low + step
    twice = once + step
    vbr = _scaled(high + (once < low) + (twice < once), twice, shift, shifted_out)
    np.subtract(low, step, out=once)
    high -= once > low
    step[row >= _Q_ROWS] = 0
    np.subtract(once, step, out=twice)
    high -= twice > once
    vbl = _scaled(high, twice, shift, shifted_out)
    del high, low, once, twice, step, mul_lo, mul_hi, shift, shifted_out, c, bits
    # The multiple of ten, if just one of the two around s is inside; else
    # s or s + 1: the one inside, or the nearer, ties to even.
    s = vb >> _U(2)
    s10 = s // _U(10) * _U(10)
    u_in = vbl <= s10 << _U(2)
    short = u_in != ((s10 + _U(10)) << _U(2) <= vbr)
    s10 += (~u_in).astype(_U) * _U(10)
    u_in = vbl <= s << _U(2)
    w_in = (s + _U(1)) << _U(2) <= vbr
    mid = (s << _U(2)) + _U(2)
    take_s = np.where(u_in != w_in, u_in, (vb < mid) | ((vb == mid) & ((s & _U(1)) == _U(0))))
    s += ~take_s
    f = np.where(short, s10, s)
    del vb, vbl, vbr, s, s10, u_in, w_in, mid, take_s, short
    # f has 16 or 17 digits; as 17 digits, the value has `point` of them
    # before its point, or "0." and -point zeros when point <= 0.
    sixteen = f < _U(10**16)
    f[sixteen] *= _U(10)
    point = t["k"][row] + 17 - sixteen
    lead = f // _U(10**16)
    f -= lead * _U(10**16)
    hi8 = f // _U(10**8)
    f -= hi8 * _U(10**8)
    lanes = _digit_bytes(np.concatenate([hi8, f]))
    del f, hi8
    # Trailing zero digits are the top zero bytes of the last word, then
    # of the one before. A word's bytes are at most 9, so float64 does not
    # round it up to a power of two.
    zero_bytes = (64 - np.frexp(lanes.astype(np.float64))[1]) >> 3
    n = len(lead)
    digits = 17 - np.where(lanes[n:] == _U(0), 8 + zero_bytes[:n], zero_bytes[n:])
    # The text put in goes before digit `at`: a point, or "0." and zeros.
    grow = np.maximum(2 - point, 1)
    length = np.maximum(digits, point + 1) + grow
    grow = grow.astype(_U) << _U(3)
    insert = point - t["least_point"]
    at = np.maximum(point, 0, out=point)
    del zero_bytes, digits, row, sixteen
    # The 17 ASCII digits as three words, then the bytes from `at` on
    # moved up `grow` bits for the text put in, and all from `length` on
    # cleared.
    lanes += _ASCII_ZEROS
    text = [(lead + _U(ord("0"))) | (lanes[:n] << _U(8)), (lanes[:n] >> _U(56)) | (lanes[n:] << _U(8)),
            lanes[n:] >> _U(56)]
    del lanes, lead
    low_bytes = _byte_masks()
    out = np.empty((n, 3), dtype="<u8")
    carry = None
    for j, word in enumerate(text):
        before = low_bytes[j][at]
        after = word & ~before
        word &= before
        word |= t["insert"][j][insert]
        word |= after << grow
        if carry is not None:
            word |= carry >> (_U(64) - grow)
        word &= low_bytes[j][length]
        out[:, j] = word
        carry = after
    return out.view(np.uint8)


def put_reprs(out: np.ndarray, x: np.ndarray) -> None:
    """Write float.__repr__ of each value of x, NUL-padded, into the rows
    of `out`, an (n, FIELD_BYTES) uint8 view.

    format_reprs writes those in [2^-10, 1e16). The rest, such as 0, -0.0,
    NaN and values below 2^-10 or from 1e16 on, are formatted by repr
    itself into one NUL-padded FIELD_BYTES-byte string each.
    """
    inside = (x >= 2.0**-10) & (x < 1e16)
    outside = np.flatnonzero(~inside)
    if not len(outside):
        out[:] = format_reprs(x)
        return
    out[inside] = format_reprs(x[inside])
    text = np.array(list(map(float.__repr__, x[outside].tolist())), dtype=f"S{FIELD_BYTES}")
    out[outside] = text.view(np.uint8).reshape(-1, FIELD_BYTES)


# --- parsing -----------------------------------------------------------------------


@cache
def _parse_tables() -> dict[str, np.ndarray]:
    """Per count m of digits after the point, 0 .. 19: 5^-m as the 128-bit
    words Eisel-Lemire reads (5^0 as 2^127; 5^-m as floor(2^b / 5^m) + 1,
    with 2^(b-127) the least power of two above 5^m), each word as 32-bit
    halves; and the biased exponent of that scaling."""
    fives = [1 << 127]
    for m in range(1, 20):
        fives.append((1 << (127 + (5**m).bit_length())) // 5**m + 1)
    hi_lo, hi_hi = _halves([f >> 64 for f in fives])
    lo_lo, lo_hi = _halves([f & (2**64 - 1) for f in fives])
    # power(-m) - minimum_exponent, with power(q) = floor(217706 q / 2^16) + 63
    # and minimum_exponent = -1023, as the algorithm defines them.
    exponent = _words([((217706 * -m) >> 16) + 63 + 1023 for m in range(20)])[0]
    return {"hi_lo": hi_lo, "hi_hi": hi_hi, "lo_lo": lo_lo, "lo_hi": lo_hi, "exponent": exponent}


def parse_decimals(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """w / 10^m rounded to the nearest float64, ties to even, as float()
    reads a decimal of at most 19 digits with m of them after the point.

    w is a uint64 array of values below 10^19, m an array of counts 0-19.
    """
    t = _parse_tables()
    m = np.asarray(m, dtype=np.intp)
    # Normalize w so its top bit is set. float64(w) may round up to the
    # next power of two, so its exponent overstates the bit length by one.
    length = np.frexp(w.astype(np.float64))[1].astype(_U)
    length -= (w >> (np.maximum(length, _U(1)) - _U(1))) == _U(0)
    lz = _U(64) - length
    wn = w << lz
    # The top 128 bits of wn * 5^-m: the high word's product, plus the low
    # word's where the bits below the 55 used are all ones, so it may carry.
    high, low = _mul128(wn, t["hi_lo"][m], t["hi_hi"][m])
    near = np.flatnonzero((high & _U(0x1FF)) == _U(0x1FF))
    if len(near):
        carry = _mul128(wn[near], t["lo_lo"][m[near]], t["lo_hi"][m[near]])[0]
        carry += low[near]
        high[near] += carry < low[near]
        low[near] = carry
    del wn
    upper = high >> _U(63)
    shift = upper + _U(9)
    mantissa = high >> shift
    # A product with only zeros below the mantissa is halfway between two
    # doubles, which for m <= 4 is exact: round down to the even one.
    halfway = (low <= _U(1)) & (m <= 4) & ((mantissa & _U(3)) == _U(1)) & ((mantissa << shift) == high)
    mantissa[halfway] &= ~_U(1)
    mantissa += mantissa & _U(1)
    mantissa >>= _U(1)
    # The significand's top bit, 2^52, or 2^53 if rounding carried into it,
    # adds one to the exponent field.
    bits = mantissa + ((t["exponent"][m] + upper - lz - _U(1)) << _U(52))
    bits[w == _U(0)] = 0
    return bits.view(np.float64)


def parse_fields(window: np.ndarray, width: np.ndarray) -> np.ndarray | None:
    """The values of decimal fields as float() reads them, or None unless
    each is ASCII digits with at most one point, of at most 19 after it,
    whose digits read below 10^19 without the point.

    Each field is the last `width` bytes of its row of `window`, an
    (n, FIELD_BYTES) uint8 matrix. Its three little-endian words are read
    with the bytes below the point moved up one over it and those below the
    digits set to "0", then checked and converted eight digits at a time.
    """
    dots = np.flatnonzero(window == ord("."))
    row = dots // FIELD_BYTES
    if np.any(row[1:] == row[:-1]):
        return None  # a field with two points, or a point before the field
    point = np.full(len(window), -1, dtype=np.intp)  # the point's byte in its row, -1 for none
    point[row] = dots - row * FIELD_BYTES
    fraction = np.where(point < 0, 0, FIELD_BYTES - 1 - point)
    digits = width - (point >= 0)
    if np.any(digits < 1) or np.any(width > FIELD_BYTES) or np.any(fraction > 19) or np.any(fraction >= width):
        return None
    low_bytes = _byte_masks()
    words = np.ascontiguousarray(window).view("<u8").T.astype(_U, order="C")
    moved = np.take(low_bytes, np.maximum(point, 0), axis=1)
    moved &= words
    scratch = np.take(low_bytes, point + 1, axis=1)
    words &= np.invert(scratch, out=scratch)
    words |= np.left_shift(moved, _U(8), out=scratch)
    words[1:] |= np.right_shift(moved[:-1], _U(56), out=scratch[1:])
    fill = np.take(low_bytes, FIELD_BYTES - digits, axis=1, out=moved)
    words &= np.invert(fill, out=scratch)
    fill &= _ASCII_ZEROS
    words |= fill
    # Less "0", each byte must be 0-9: a byte below "0" wraps to 0x80 or
    # more, one above "9" reaches 0x80 when 0x76 is added. A borrow or carry
    # out of such a byte can only flag a neighbour too.
    words -= _ASCII_ZEROS
    np.add(words, _U(0x7676_7676_7676_7676), out=scratch)
    scratch |= words
    if np.any(scratch & _U(0x8080_8080_8080_8080)):
        return None
    pairs = np.right_shift(words, _U(8), out=scratch)  # pairs of digits, then 8 digits
    words *= _U(10)
    words += pairs
    np.right_shift(words, _U(16), out=pairs)
    pairs &= _PAIRS
    pairs *= _U(1 + (10_000 << 32))
    words &= _PAIRS
    words *= _U(100 + (1_000_000 << 32))
    words += pairs
    words >>= _S32
    if np.any(words[0] >= _U(1000)):  # 10^19 or more; checked before the product can wrap
        return None
    words[0] *= _U(10**16)
    words[1] *= _U(10**8)
    w = words.sum(axis=0, dtype=_U)
    del words, moved, scratch, pairs, fill
    return parse_decimals(w, fraction)
