"""One validated boundary per quantity.

Each ``AxisMarginal`` field checks its own argument, and ``RefNode`` checks
its own coordinates; every public entry point reaches those checks instead
of repeating them.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rwphex as rp
from conftest import PROPERTY
from rwphex import marginals, piecewise
from rwphex.hexgeom import SQRT3, HexRegion, Point2, RefNode
from rwphex.piecewise import DomainError

FIELDS = ("waypoint_pdf", "stationary_pdf", "stationary_cdf", "partial_leg")
WRAPPERS = {"x": (rp.stationary_cdf_x, rp.stationary_pdf_x),
            "y": (rp.stationary_cdf_y, rp.stationary_pdf_y)}
UPPER = {"x": 2.0, "y": SQRT3}  # upper domain end at side 1
NON_FINITE = (math.nan, math.inf, -math.inf)

sides = st.floats(min_value=1e-3, max_value=1e3)
axes = st.sampled_from(("x", "y"))


def _evaluators(axis, side):
    """Every checked evaluator of one axis, as functions of the coordinate."""
    m = rp.axis_marginal(axis, side)
    return [getattr(m, name) for name in FIELDS] + [
        lambda t, fn=fn: fn(t, side) for fn in WRAPPERS[axis]]


@PROPERTY
@given(axis=axes, side=sides, frac=st.floats(min_value=0.0, max_value=1.0))
def test_in_domain_is_finite(axis, side, frac):
    t = frac * UPPER[axis] * side
    for fn in _evaluators(axis, side):
        assert math.isfinite(fn(t))


@PROPERTY
@given(axis=axes, side=sides, data=st.data())
def test_out_of_domain_raises(axis, side, data):
    hi = UPPER[axis] * side
    margin = 1e-6 * max(hi, 1.0)  # well past the 1e-9 relative tolerance
    t = data.draw(st.one_of(
        st.sampled_from(NON_FINITE),
        st.floats(max_value=-margin, allow_infinity=False),
        st.floats(min_value=hi + margin, allow_infinity=False),
    ))
    for fn in _evaluators(axis, side):
        with pytest.raises(ValueError):
            fn(t)


@PROPERTY
@given(axis=axes, side=st.sampled_from((0.37, 1.0, 1000.0)), name=st.sampled_from(FIELDS),
       data=st.data())
def test_scalar_branch_equals_array_path(axis, side, name, data):
    pp = getattr(rp.axis_marginal(axis, side), name)
    lo, hi = pp.domain
    bp = pp.breakpoints
    # the breakpoints and their neighbours; those just outside lie within the tolerance
    near = np.concatenate((bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf)))
    t = data.draw(st.one_of(st.sampled_from(near.tolist()), st.floats(lo, hi),
                            st.integers(math.ceil(lo), math.floor(hi))))
    want = pp(np.array([t], dtype=float))[0].tobytes()
    for arg in (t, float(t), np.float64(t), np.array(t, dtype=float)):
        got = pp(arg)
        assert type(got) is float
        assert np.float64(got).tobytes() == want
    margin = 1e-6 * max(hi, 1.0)  # well past the 1e-9 relative tolerance
    bad = data.draw(st.one_of(
        st.sampled_from(NON_FINITE),
        st.floats(max_value=lo - margin, allow_infinity=False),
        st.floats(min_value=hi + margin, allow_infinity=False),
    ))
    for arg in (bad, np.float64(bad), np.array(bad), np.array([bad])):
        with pytest.raises(DomainError):
            pp(arg)


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("bad", NON_FINITE)
def test_one_bad_array_entry_raises(axis, bad):
    for name in FIELDS:
        with pytest.raises(ValueError):
            getattr(rp.axis_marginal(axis, 1.0), name)(np.array([0.0, bad, 1.0]))


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("arg", ["0.5", b"0.5", np.str_("0.5"), ["0.5"], np.array(["0.5", "1"]),
                                 np.array([0.5, "1"], dtype=object), 0.5j,
                                 np.array([0.5 + 0j]), np.array([0.5, 1j], dtype=object)])
def test_text_or_complex_raises(axis, arg):
    # numpy would parse text as a number and drop an imaginary part; every
    # evaluator refuses both instead
    for fn in _evaluators(axis, 1.0) + [rp.axis_marginal(axis, 1.0).stationary_cdf.table]:
        with pytest.raises(ValueError, match="real number"):
            fn(arg)


_REF = RefNode(Point2(1.0, 0.8))
_EMP = rp.ecdf([0.5, 1.0])


# Each public entry that takes a number, given text, a complex number, None
# or an int beyond the float range
@pytest.mark.parametrize("call", [
    lambda: RefNode(Point2("0.5", 0)),
    lambda: RefNode(Point2(1j, 0)),
    lambda: RefNode(Point2(0, 10**400)),
    lambda: HexRegion("1"),
    lambda: HexRegion(None),
    lambda: HexRegion(10**400),
    lambda: rp.axis_marginal("x", "2"),
    lambda: rp.axis_marginal("y", 10**400),
    lambda: rp.distance_cdf(_REF, "1", 0.5),
    lambda: rp.distance_cdf(_REF, 10**400, 0.5),
    lambda: rp.distance_cdf_curve(_REF, "1", 5),
    lambda: rp.product_mass_hexagon(_REF, "1"),
    lambda: rp.ecdf(["0.5", "1"]),
    lambda: rp.ecdf([0.5, 10**400]),
    lambda: _EMP("0.7"),
    lambda: _EMP(None),
    lambda: _EMP(0.7 + 1j),
    lambda: rp.ks_statistic(_EMP, lambda s: "0.5"),
    lambda: rp.ks_statistic(_EMP, lambda s: s + 0j),
], ids=["ref-text", "ref-complex", "ref-big-int", "hex-text", "hex-none", "hex-big-int",
        "marginal-text", "marginal-big-int", "cdf-text", "cdf-big-int", "curve-text",
        "mass-text", "ecdf-text", "ecdf-big-int", "emp-text", "emp-none", "emp-complex",
        "ks-text", "ks-complex"])
def test_non_number_at_public_entry_raises(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns when it drops an imaginary part
        with pytest.raises(ValueError):
            call()


# None is no number: numpy's astype(float) would read it as NaN, so the
# error named a domain or a NaN instead
@pytest.mark.parametrize("call", [
    lambda: rp.axis_marginal("x", 1.0).stationary_cdf(None),
    lambda: rp.axis_marginal("y", 1.0).stationary_pdf(np.array([0.5, None], dtype=object)),
    lambda: rp.axis_marginal("x", 1.0).stationary_cdf.table(None),
    lambda: _EMP(None),
    lambda: _EMP(np.array([None, 1.0])),
    lambda: rp.ecdf([None, 1.0]),
    lambda: rp.ks_statistic(_EMP, lambda s: None),
    lambda: rp.ks_statistic(_EMP, lambda s: [None, 0.5]),
], ids=["marginal-none", "marginal-array-none", "table-none", "emp-none", "emp-array-none",
        "ecdf-none", "ks-none", "ks-array-none"])
def test_none_is_not_a_number(call):
    with pytest.raises(ValueError, match="real number") as info:
        call()
    assert not isinstance(info.value, DomainError)


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("big", [10**400, -10**400, np.array([0, 10**400], dtype=object)],
                         ids=["int", "negative-int", "array"])
def test_int_beyond_float_range_is_outside_domain(axis, big):
    for fn in _evaluators(axis, 1.0) + [rp.axis_marginal(axis, 1.0).stationary_cdf.table]:
        with pytest.raises(DomainError):
            fn(big)


@pytest.mark.parametrize("name", FIELDS)
def test_float64_field_takes_the_float_branch(monkeypatch, name):
    def refuse(t):
        raise AssertionError("an np.float64 reached _float_array")

    field = getattr(rp.axis_marginal("y", 2.0), name)
    want = field(1.25)
    for module in (marginals, piecewise):
        monkeypatch.setattr(module, "_float_array", refuse)
    assert field(np.float64(1.25)) == want


@PROPERTY
@given(other=st.floats(), bad=st.sampled_from(NON_FINITE), bad_first=st.booleans())
def test_non_finite_ref_node_raises(other, bad, bad_first):
    xy = (bad, other) if bad_first else (other, bad)
    with pytest.raises(ValueError, match="finite"):
        RefNode(Point2(*xy))


@PROPERTY
@given(exponent=st.floats(min_value=-300.0, max_value=300.0),
       x=st.floats(min_value=-5.0, max_value=7.0),
       y=st.floats(min_value=-5.0, max_value=7.0))
def test_distance_extremes_at_any_side(exponent, x, y):
    side = 10.0 ** exponent
    want = HexRegion(1.0).distance_extremes(RefNode(Point2(x, y)))
    try:
        d_min, d_max = HexRegion(side).distance_extremes(RefNode(Point2(x * side, y * side)))
    except ValueError:
        return
    assert math.isfinite(d_max) and 0.0 <= d_min <= d_max
    # relative to the side: a node a rounding error off the boundary has a
    # d_min near zero that only the side's scale can measure
    for got, unit in ((d_min, want[0]), (d_max, want[1])):
        assert got == pytest.approx(side * unit, rel=1e-12, abs=1e-12 * side)


@PROPERTY
@given(axis=axes, exponent=st.floats(min_value=-307.0, max_value=307.0),
       frac=st.floats(min_value=0.0, max_value=1.0))
def test_marginals_at_any_side(axis, exponent, frac):
    # every side reads the side-1 tables at t / side: no side in the float
    # range is refused for the size of its coefficients.  t / side may be a
    # neighbour of frac * hi, where the side-1 tables move by up to 1.7e-14
    # (x CDF) and 2.8e-14 (x PDF), from rounding in Horner's rule
    side = 10.0 ** exponent
    hi = UPPER[axis]
    m, unit = rp.axis_marginal(axis, side), rp.axis_marginal(axis, 1.0)
    assert m.stationary_cdf(frac * hi * side) == pytest.approx(
        unit.stationary_cdf(frac * hi), abs=5e-14)
    assert m.stationary_pdf(frac * hi * side) * side == pytest.approx(
        unit.stationary_pdf(frac * hi), abs=5e-14)


def test_kept_wrappers_are_bit_identical():
    # SHA-256 of the values that the former checked wrappers returned at the
    # probe points of test_marginals.py, scaled to four sides
    probes = {"x": (0.0, 0.2, 0.5, 0.9, 1.0, 1.7, 2.0),
              "y": (0.0, 0.3, SQRT3 / 2, 1.1, 1.6, SQRT3)}
    values = [getattr(rp, f"stationary_{kind}_{axis}")(side * c, side)
              for kind in ("cdf", "pdf") for axis in ("x", "y")
              for side in (0.5, 1.0, 2.0, 10.0) for c in probes[axis]]
    digest = hashlib.sha256(np.array(values).tobytes()).hexdigest()
    assert digest == "2436e628d6e9f9fd42ba429acdc0ce5d57b8f43af27c90fc7fd6f8cbe61b3fc7"
