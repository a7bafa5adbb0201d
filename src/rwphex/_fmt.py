"""Exact block-wise ``format(v, ".17g")`` for tables of floats.

``csv_rows`` turns float columns into CSV rows, a block at a time, and
each value's text is the bytes of ``format(v, ".17g")``.

A finite ``v > 0`` whose ``%g`` exponent E, taken after rounding to 17
significant digits, lies in [-4, 16] is printed in fixed notation from its
17 digits N = round_half_even(v * 10**(16 - E)), which numpy computes
exactly for the whole block:

- 10**k is an exact double for 0 <= k <= 22, and k = 16 - E is at most 21;
- Dekker's TwoProduct, with Veltkamp's split by 2**27 + 1, gives the exact
  product as p + e, where p is the rounded double product;
- p >= 10**16 > 2**53 is an even integer, so the half-even rounding of
  p + e is p + rint(e), in int64;
- E starts from ``floor(log10(v))`` and is corrected once by comparing
  p + e with 10**16 and 10**17 exactly.  Rounding could carry N to 10**17
  only for a double just below a power of ten that is not itself a double,
  and no such double with E in [-5, 16] rounds up; a value that did would
  fall back.

Each value gets a slot of three little-endian 64-bit words (24 bytes): the
separator that precedes it, five bytes for ``0.`` and the zeros of a value
below 1, the leading digit, a byte for the ``.`` of a value in [1, 10), and
the other 16 digits, written four at a time from a table of 4-digit
groups.  A value of 10 or more moves its other integer digits one byte
left and puts the ``.`` after them.  Stripped trailing zeros and unused
bytes stay NUL.

Every other value -- zero, negative, subnormal, NaN, infinite, or one whose
exponent calls for the ``e`` form -- is formatted by Python's ``"%.17g"``,
the text of ``format(v, ".17g")``, padded with spaces to fill its slot after
the separator; a block that holds such a text longer than 23 bytes gets a
fourth word per slot.  No value's text holds a space, so one
``bytes.translate`` deletes every NUL and space of the block.
"""

from __future__ import annotations

import numpy as np

__all__ = ["csv_rows"]

ROWS_PER_BLOCK = 1 << 13

_E_MIN, _E_MAX = -4, 16         # exponents that %.17g prints in fixed notation
_LEAD = 6                       # byte of the leading digit in a slot
_WORD = np.dtype("<u8")

_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact doubles
_SPLIT = 134217729.0            # 2**27 + 1, Veltkamp's splitter


def _split(a):
    """(high, low) halves of ``a``, each with at most 26 significant bits."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _exact_product(v, k):
    """(p, e) with p = fl(v * 10**k) and p + e = v * 10**k exactly."""
    b, b_high, b_low = _POW10[k], _POW10_HIGH[k], _POW10_LOW[k]
    a_high, a_low = _split(v)
    p = v * b
    e = a_high * b_high - p
    e += a_high * b_low
    e += a_low * b_high
    e += a_low * b_low
    return p, e


def _significand(v):
    """(fast, N, E) for positive finite ``v``: N the 17-digit significand of
    ``v`` rounded half-even, E its exponent, ``fast`` where E is in [-4, 16]."""
    exp = np.floor(np.log10(v))
    np.clip(exp, _E_MIN - 1, _E_MAX, out=exp)
    exp = exp.astype(np.int64)
    p, e = _exact_product(v, _E_MAX - exp)
    # one correction step: the exact product must lie in [10**16, 10**17)
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    fix = low | high
    if fix.any():
        exp[low] -= 1
        exp[high] += 1
        redo = fix & (exp >= _E_MIN - 1) & (exp <= _E_MAX)
        p[redo], e[redo] = _exact_product(v[redo], _E_MAX - exp[redo])
    n = p.astype(np.int64)
    n += np.rint(e).astype(np.int64)
    # a carry to 10**17, which no double with E in [-5, 16] reaches, falls back
    fast = (n >= 10 ** 16) & (n < 10 ** 17) & (exp >= _E_MIN) & (exp <= _E_MAX)
    return fast, n, exp


def _word(text: bytes, at: int) -> int:
    """A little-endian word holding ``text`` from byte ``at``."""
    return int.from_bytes(bytes(at) + text + bytes(8 - at - len(text)), "little")


_U64 = np.uint64
# "0." and -E - 1 zeros, ending just before the leading digit; nothing for E >= 0
_PREFIX = np.array([_word(b"0." + b"0" * (-exp - 1), _LEAD + exp - 1) if exp < 0 else 0
                    for exp in range(_E_MIN, _E_MAX + 1)], _U64)
# 4-digit groups as 4 ASCII bytes, first digit lowest
_GROUPS = np.frombuffer("".join(f"{k:04d}" for k in range(10000)).encode(), "<u4")
_ASCII_ZEROS = _U64(int.from_bytes(b"0" * 8, "little"))
_POINT = _U64(_word(b".", _LEAD + 1))
# the three words of a slot with every digit after digit i cleared
_KEEP = np.array([[_word(b"\xff" * max(0, min(8, _LEAD + 2 + i - 8 * w)), 0) for w in range(3)]
                  for i in range(17)], _U64)


def _split_off(n, scale):
    """(n // scale, n % scale) for unsigned ``n``."""
    high = n // _U64(scale)
    return high, n - high * _U64(scale)


def _trailing_zero_digits(word):
    """How many of the last digits in each 8-digit ``word`` are zeros."""
    word = word ^ _ASCII_ZEROS
    return sum((word < _U64(1 << (64 - 8 * j))).astype(np.int64) for j in range(1, 9))


def _format_block(values, seps):
    """CSV text of ``values``, a row-major block of whole rows; ``seps``
    holds the byte that precedes each value."""
    m = values.size
    fast = (values >= 1e-6) & (values < 1e18)   # False for NaN
    ok, n, exp = _significand(np.where(fast, values, 1.0))
    fast &= ok
    # every other value as "%.17g", padded with spaces to the room its slot
    # has after the separator
    slow = np.flatnonzero(~fast)
    slow_values = tuple(values[slow].tolist())
    for width in 3, 4:
        room = 8 * width - 1
        texts = (f"%-{room}.17g" * slow.size % slow_values).encode()
        if len(texts) == room * slow.size:
            break
    buf = np.zeros(m * 8 * width + 1, np.uint8)
    buf[-1] = ord("\n")
    words = buf[:-1].view(_WORD).reshape(m, width)

    # the leading digit, then the other 16 as ASCII, four bytes at a time
    lead, rest = _split_off(n.astype(_U64), 10 ** 16)
    quads = words.view("<u4")
    for j, eight in enumerate(_split_off(rest, 10 ** 8)):
        for k, four in enumerate(_split_off(eight, 10 ** 4)):
            quads[:, 2 + 2 * j + k] = _GROUPS[four]
    # strip trailing zeros, keeping the digits up to the last nonzero one or
    # the units digit
    last = np.full(m, 16)
    zeros = np.flatnonzero(fast & (words[:, 2] >> _U64(56) == ord("0")))
    if zeros.size:
        tail = _trailing_zero_digits(words[zeros, 2])
        tail[tail == 8] += _trailing_zero_digits(words[zeros[tail == 8], 1])
        last[zeros] -= tail
        words[zeros, :3] &= _KEEP[np.maximum(last[zeros], exp[zeros])]
    # the separator, the prefix below 1, the leading digit and a "." after it
    # for a fraction between 1 and 10
    words[:, 0] = (seps | _PREFIX[exp.clip(_E_MIN, _E_MAX) - _E_MIN]
                   | ((lead + _U64(ord("0"))) << _U64(8 * _LEAD))
                   | np.where((exp == 0) & (last > 0), _POINT, _U64(0)))
    # 10 or more with a fraction: the integer digits after the first one byte left, then "."
    bytes_ = words.view(np.uint8)
    point = fast & (exp > 0) & (last > exp)
    for e in np.unique(exp[point]).tolist():
        rows = np.flatnonzero(point & (exp == e))
        bytes_[rows, _LEAD + 1:_LEAD + 1 + e] = bytes_[rows, _LEAD + 2:_LEAD + 2 + e]
        bytes_[rows, _LEAD + 1 + e] = ord(".")

    words[slow, 0] = seps[slow]
    bytes_[slow, 1:] = np.frombuffer(texts, np.uint8).reshape(-1, room)
    return buf.tobytes().translate(None, b"\0 ")


def csv_rows(columns):
    """Yield the CSV rows of equal-length float columns, ``ROWS_PER_BLOCK``
    rows at a time, as bytes; each value reads as ``format(v, ".17g")`` and
    each row ends with a newline.  Only one block of rows is stacked at once."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    rows = ROWS_PER_BLOCK
    seps = np.full(len(columns), ord(","), _U64)
    seps[0] = ord("\n")
    seps = np.tile(seps, rows)
    seps[0] = 0                 # a block starts after a newline
    for lo in range(0, len(columns[0]), rows):
        block = np.column_stack([c[lo:lo + rows] for c in columns]).ravel()
        yield _format_block(block, seps[:block.size])
