"""The block formatter writes exactly ``format(v, ".17g")`` for every float."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import PROPERTY
from rwphex import _fmt
from rwphex._fmt import ROWS_PER_BLOCK, _significand, csv_rows


def reference(table):
    return "".join(",".join(format(v, ".17g") for v in row) + "\n"
                   for row in table.tolist()).encode()


def formatted(table, rows_per_block=ROWS_PER_BLOCK):
    with mock.patch.object(_fmt, "ROWS_PER_BLOCK", rows_per_block):
        return b"".join(csv_rows(table.T))


def assert_exact(values, ncols=1, rows_per_block=64):
    values = np.asarray(values, dtype=float)
    values = values[:values.size - values.size % ncols].reshape(-1, ncols)
    got, want = formatted(values, rows_per_block), reference(values)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"{len(bad)} rows differ, first {bad[:3]}")


def rng():
    return np.random.default_rng(19)


def test_uniform_zero_to_two():
    assert_exact(rng().uniform(0.0, 2.0, 40_000), ncols=2)


@pytest.mark.parametrize("n", [7919, 100_001])
def test_ecdf_steps(n):
    assert_exact(np.arange(1, n + 1) / n, ncols=1, rows_per_block=ROWS_PER_BLOCK)


def test_log_uniform():
    assert_exact(10.0 ** rng().uniform(-6.0, 18.0, 40_000), ncols=2)


def test_random_bit_patterns():
    bits = rng().integers(0, 2 ** 64, 40_000, dtype=np.uint64).view(np.float64)
    assert_exact(bits[np.isfinite(bits)], ncols=3)


def test_powers_of_ten_and_neighbours():
    values = []
    for k in range(-5, 18):
        x = float(f"1e{k}")
        down = up = x
        for _ in range(3):
            down, up = np.nextafter(down, 0.0), np.nextafter(up, math.inf)
            values += [down, up]
        values.append(x)
    assert_exact(values)


def test_exact_halfway_cases_round_to_even():
    # j / 4 for odd j in [1e15, 1e16) has 18 or 19 significant digits and ends
    # in 25 or 75, so the 17-digit rounding of some of them is an exact tie
    j = rng().integers(4 * 10 ** 15, 4 * 10 ** 16, 20_000) | 1
    assert format(1e15 + 0.25, ".17g") == "1000000000000000.2"
    assert_exact(np.concatenate(([1e15 + 0.25, 1e15 + 0.75, 2.5, 0.125], j / 4.0)))


def test_carry_and_exponent_edges():
    # doubles next to powers of ten, where log10 can land on the wrong side
    # of an integer, and 1e-14, whose 17-digit rounding carries to 1e-14
    values = [np.nextafter(1e17, 0.0), 1e17, 99999999999999999.0, 9999999999999998.0,
              0.0001, np.nextafter(1e-4, 0.0), 9.99999999999999e-5, 1e-14, 1e16,
              np.nextafter(1e16, math.inf), 0.99999999999999989, 1.0, 10.0, 100.0]
    assert_exact(values)


def test_fast_path_covers_every_fixed_notation_exponent():
    # log10 can land on the wrong side of an integer next to a power of ten;
    # the correction step keeps such values on the fast path
    values = [x for k in range(-4, 17) for x in
              (float(f"1e{k}"), np.nextafter(float(f"1e{k}"), 0.0),
               np.nextafter(float(f"1e{k}"), math.inf))]
    values += [np.nextafter(1e17, 0.0)] + (10.0 ** rng().uniform(-4.0, 17.0, 1000)).tolist()
    values = np.array([v for v in values if v >= 1e-4])
    fast, n, exp = _significand(values)
    assert fast.all()
    for v, digits, e in zip(values.tolist(), n.tolist(), exp.tolist()):
        mantissa, exponent = format(v, ".16e").split("e")
        assert (digits, e) == (int(mantissa.replace(".", "")), int(exponent))


def test_zero_tiny_huge_and_non_finite():
    top = np.finfo(float).max
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, top, -top,
              math.nan, math.inf, -math.inf, -1.5, -2.2250738585072014e-308, 1e-300]
    assert_exact(values)
    assert_exact(values, ncols=len(values))


def test_trailing_zeros_and_decimal_point():
    values = [0.5, 1.5, 10.25, 123456789.0, 1e15, 1234567890123456.0, 0.1, 0.001, 0.0001,
              0.00012, 1.0000000000000002, 12345.678, 3.0, 50.0, 100.5]
    assert_exact(values)


def test_block_boundaries_and_columns():
    values = rng().uniform(0.0, 2.0, 3 * 4 * 5)
    for rows in (1, 2, 7, 100):
        for ncols in (1, 3, 4):
            assert_exact(values, ncols=ncols, rows_per_block=rows)


def test_groups_are_the_four_digit_texts():
    # built with numpy arithmetic, the table holds the bytes of f"{k:04d}"
    texts = "".join(f"{k:04d}" for k in range(10000)).encode()
    assert _fmt._GROUPS.dtype == np.dtype("<u4")
    assert _fmt._GROUPS.tobytes() == texts


def test_empty_table():
    assert formatted(np.empty((0, 2))) == b""


@PROPERTY
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
       st.integers(1, 3))
@example([1e15 + 0.25, 0.0001, -0.0], 1)
def test_any_finite_float(values, ncols):
    assert_exact(values, ncols=ncols, rows_per_block=4)


@PROPERTY
@given(st.lists(st.floats(min_value=1e-5, max_value=1e17), min_size=1, max_size=40))
def test_any_float_in_fixed_notation_range(values):
    assert_exact(values, rows_per_block=8)
