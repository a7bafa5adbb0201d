"""One validated boundary per quantity.

Each ``AxisMarginal`` field checks its own argument, ``hexgeom._point``
reads the point of ``RefNode`` and of ``HexRegion.contains``, and
``contains_mask`` checks its own coordinates; every public entry point
reaches those checks instead of repeating them, and an argument of the
wrong kind (no ``RefNode``, ``Generator``, ``Trace``, ``EmpiricalCdf``,
``SimConfig``, ``HexRegion`` or callable model) is refused once, where it is
first used.  A ``Trace`` checks its own fields, and the distance pass refuses
a distance it cannot compute.
"""

import hashlib
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rwphex as rp
from conftest import PROPERTY
from rwphex import hexgeom, piecewise, sim
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
    monkeypatch.setattr(piecewise, "_float_array", refuse)
    assert field(np.float64(1.25)) == want


@pytest.mark.parametrize("t", [5.5, np.float64(-0.5), np.array(math.nan), np.array([1.0, 5.5])],
                         ids=["float", "float64", "0-d", "1-d"])
def test_field_names_its_own_domain(t):
    # each x field at side 2.5 reads its side-1 table at t / 2.5, and the
    # one check of t names the field's own domain, not the table's [0, 2]
    m = rp.axis_marginal("x", 2.5)
    for name in FIELDS:
        with pytest.raises(DomainError) as info:
            getattr(m, name)(t)
        assert str(info.value) == "argument outside domain [0.0, 5.0]"


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
    # range is refused for the size of its coefficients.  t / side may be an
    # ulp or two from frac * hi, which moves a field by that times its slope
    # (at most 1.7), and the density's factor rounds once more
    side = 10.0 ** exponent
    hi = UPPER[axis]
    m, unit = rp.axis_marginal(axis, side), rp.axis_marginal(axis, 1.0)
    assert m.stationary_cdf(frac * hi * side) == pytest.approx(
        unit.stationary_cdf(frac * hi), abs=1e-15)
    assert m.stationary_pdf(frac * hi * side) * side == pytest.approx(
        unit.stationary_pdf(frac * hi), abs=1e-15)


def test_kept_wrappers_are_bit_identical():
    # SHA-256 of the values that the former checked wrappers returned at the
    # probe points of test_marginals.py, scaled to four sides
    probes = {"x": (0.0, 0.2, 0.5, 0.9, 1.0, 1.7, 2.0),
              "y": (0.0, 0.3, SQRT3 / 2, 1.1, 1.6, SQRT3)}
    values = [getattr(rp, f"stationary_{kind}_{axis}")(side * c, side)
              for kind in ("cdf", "pdf") for axis in ("x", "y")
              for side in (0.5, 1.0, 2.0, 10.0) for c in probes[axis]]
    digest = hashlib.sha256(np.array(values).tobytes()).hexdigest()
    assert digest == "11899f9702135773e9372b4430c9a3105e4595d3e73c85953e05f622446d5980"


# numpy's text and complex numbers and a Decimal, which no entry refused
# before: they were kept and computed with, cut to a real part or left to a
# TypeError.  Each is no real number by piecewise._float_array's rule.
@pytest.mark.parametrize("call", [
    lambda: rp.distance_cdf(RefNode(Point2(0.5, 0.25)), 1.0, np.complex128(0.5 + 2j)),
    lambda: rp.axis_marginal("x", np.complex128(1 + 1j)),
    lambda: rp.distance_cdf_curve(_REF, np.complex128(1 + 1j), 3),
    lambda: HexRegion(np.array("2")),
    lambda: RefNode(Point2(np.array("0.5"), 0.25)),
    lambda: rp.distance_cdf(_REF, 1.0, np.array("0.5")),
    lambda: rp.SimConfig(side=1, v_min=1, v_max=1, duration=np.array("5")),
    lambda: rp.axis_marginal("x", 1.0).stationary_cdf(
        np.array([np.complex64(0.5 + 1j)], dtype=object)),
    lambda: HexRegion(Decimal("1.5")),
    lambda: rp.axis_marginal("y", Decimal("1.5")),
    lambda: rp.distance_cdf(_REF, Decimal("1.5"), 0.5),
    lambda: RefNode(Point2(Decimal("0.5"), 0.25)),
    lambda: rp.SimConfig(side=Decimal("1.5"), v_min=1, v_max=1, duration=5),
], ids=["cdf-complex-d", "marginal-complex-side", "curve-complex-side", "hex-text-array",
        "ref-text-array", "cdf-text-array-d", "config-text-array", "field-complex-object",
        "hex-decimal", "marginal-decimal", "cdf-decimal", "ref-decimal", "config-decimal"])
def test_numpy_non_number_or_decimal_raises(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns when it drops an imaginary part
        with pytest.raises(ValueError, match="real number"):
            call()


def test_real_objects_are_numbers():
    # an object array is real when each element is a numbers.Real
    field = rp.axis_marginal("x", 1.0).stationary_cdf
    got = field(np.array([Fraction(1, 2), 1, True], dtype=object))
    assert got.tobytes() == field(np.array([0.5, 1.0, 1.0])).tobytes()


def test_checked_values_are_floats():
    ref = RefNode(Point2(1, np.float32(0.25)))
    assert ref.pos == (1.0, 0.25) and all(type(v) is float for v in ref.pos)
    assert type(HexRegion(2).side) is float
    config = rp.SimConfig(side=1, v_min=np.float32(0.5), v_max=1, duration=np.int64(5),
                          sample_interval=Fraction(1, 2))
    for name in ("side", "v_min", "v_max", "duration", "sample_interval"):
        assert type(getattr(config, name)) is float
    assert type(rp.distance_cdf_curve(_REF, np.float32(1.3), 5).side) is float


def test_results_follow_from_the_checked_float():
    # a float32 side is the float it converts to: d / a no longer runs in float32
    ref = RefNode(Point2(0.5, 0.25))
    side = np.float32(1.3)
    assert rp.distance_cdf(ref, side, 0.5) == rp.distance_cdf(ref, float(side), 0.5)
    # a Fraction gives the bits of the float it rounds to
    assert rp.distance_cdf(ref, Fraction(3, 2), Fraction(1, 2)) == rp.distance_cdf(ref, 1.5, 0.5)
    got, want = rp.distance_cdf_curve(ref, Fraction(3, 2), 7), rp.distance_cdf_curve(ref, 1.5, 7)
    assert got.side == want.side
    for name in ("d_values", "cdf_values"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


# a point's coordinates, which contains and contains_mask used to take
# unchecked: text, None and Decimal raised TypeError, a complex coordinate
# was answered, and NaN or an infinity read as outside
@pytest.mark.parametrize("bad", ["0.5", None, Decimal("1"), np.complex128(1 + 0.5j),
                                 math.nan, math.inf],
                         ids=["text", "none", "decimal", "complex", "nan", "inf"])
@pytest.mark.parametrize("bad_first", [True, False], ids=["x", "y"])
def test_contains_refuses_a_coordinate(bad, bad_first):
    xy = (bad, 0.5) if bad_first else (1.0, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="real number|finite"):
            HexRegion(1.0).contains(Point2(*xy))


@pytest.mark.parametrize("xs, ys", [(np.array([1 + 0j]), np.array([0.5])), (["1"], [0.5]),
                                    (np.array([math.nan]), np.array([0.5])),
                                    (np.array([1.0]), np.array([0.5, -math.inf]))],
                         ids=["complex", "text", "nan", "inf"])
def test_contains_mask_refuses_coordinates(xs, ys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="real number|finite"):
            HexRegion(1.0).contains_mask(xs, ys)


def test_library_points_skip_the_check(monkeypatch):
    # the sampler's draws and a checked node at side 1 are floats already:
    # they take the unchecked containment test, never the rule for a real number
    def refuse(t):
        raise AssertionError("a point of the library's own reached _float_array")

    monkeypatch.setattr(hexgeom, "_float_array", refuse)
    region, rng = HexRegion(1.0), np.random.default_rng(0)
    assert 0.0 < rp.distance_cdf(_REF, 1.0, 0.5) < 1.0
    assert len(rp.distance_cdf_curve(_REF, 1.0, 5).cdf_values) == 5
    assert len(region.sample_uniform_batch(10, rng)) == 10
    assert len(rp.simulate(rp.SimConfig(side=1.0, v_min=0.01, v_max=0.05, duration=100.0))) == 101
    assert len(rp.uniform_node_distances(region, _REF, 10, rng)) == 10


# what is no pair of values, which RefNode and contains used to unpack as it
# came: None and a scalar raised TypeError, while bytes, a set, a dict and an
# iterator gave a point in the order they iterate
NOT_POINTS = {"none": lambda: None, "scalar": lambda: 0.5, "0-d-array": lambda: np.array(0.5),
              "bytes": lambda: b"ab", "set": lambda: {0.25, 0.5},
              "dict": lambda: {0.25: 1, 0.5: 2}, "iterator": lambda: iter([0.25, 0.5])}


@pytest.mark.parametrize("make", NOT_POINTS.values(), ids=NOT_POINTS.keys())
@pytest.mark.parametrize("read", [RefNode, HexRegion(1.0).contains], ids=["node", "contains"])
def test_refuses_what_is_no_point(make, read):
    with pytest.raises(ValueError, match="pair of real numbers"):
        read(make())


# every entry that takes a node reads it in _unit_extremes, which used to
# take whatever it was given and raise AttributeError on it
@pytest.mark.parametrize("call", [
    lambda ref: rp.distance_cdf(ref, 1.0, 0.5),
    lambda ref: rp.distance_cdf_curve(ref, 1.0, 5),
    lambda ref: rp.product_mass_hexagon(ref, 1.0),
    lambda ref: HexRegion(1.0).distance_extremes(ref),
    lambda ref: rp.distances_to(rp.simulate(rp.SimConfig(1.0, 0.01, 0.05, 10.0)), ref),
    lambda ref: rp.uniform_node_distances(HexRegion(1.0), ref, 10, np.random.default_rng(0)),
], ids=["cdf", "curve", "mass", "extremes", "distances-to", "uniform-distances"])
@pytest.mark.parametrize("ref", [None, Point2(1.0, 0.8)], ids=["none", "point"])
def test_refuses_what_is_no_node(call, ref):
    with pytest.raises(ValueError, match="must be a RefNode"):
        call(ref)


# each used to raise TypeError or AttributeError on the wrong kind of argument
@pytest.mark.parametrize("call, match", [
    (lambda: HexRegion(1.0).sample_uniform_batch(10, 42), "Generator"),
    (lambda: rp.uniform_node_distances(HexRegion(1.0), _REF, 10, None), "Generator"),
    (lambda: rp.distances_to(None, _REF), "Trace"),
    (lambda: rp.ks_statistic([1.0, 2.0], lambda s: s), "EmpiricalCdf"),
    (lambda: rp.simulate(None), "SimConfig"),
    (lambda: rp.simulate({"side": 1}), "SimConfig"),
    (lambda: rp.uniform_node_distances(None, _REF, 10, np.random.default_rng(0)), "HexRegion"),
    (lambda: rp.ks_statistic(_EMP, None), "callable"),
    (lambda: rp.ks_statistic(_EMP, 0.5), "callable"),
], ids=["batch-rng", "uniform-rng", "trace", "ks-emp", "config-none", "config-dict",
        "uniform-region", "ks-model-none", "ks-model-scalar"])
def test_refuses_a_wrong_kind_of_argument(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("x, y", [(0.1, 2 / 3), (np.float32(0.1), 1), (np.int64(2), Fraction(1, 3)),
                                  (True, np.float64(-0.0))],
                         ids=["floats", "float32-int", "int64-fraction", "bool-negzero"])
def test_points_read_as_before(x, y):
    # a Point2, a tuple, a list and an array of shape (2,) all hold the floats
    # of their two entries, as _real reads each
    want = Point2(float(x), float(y))
    for p in (Point2(x, y), (x, y), [x, y], np.array([x, y], dtype=object), np.array([x, y])):
        node = RefNode(p)
        assert type(node.pos) is Point2 and all(type(v) is float for v in node.pos)
        assert np.array(node.pos).tobytes() == np.array(want).tobytes()
        assert HexRegion(1.0).contains(p) is HexRegion(1.0).contains(want)


def test_region_is_checked_before_any_draw():
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="HexRegion"):
        rp.uniform_node_distances(1.0, _REF, 10, rng)
    assert rng.bit_generator.state == state


_CONFIG = rp.SimConfig(side=1.0, v_min=0.01, v_max=0.05, duration=10.0)
_XY = np.zeros((1, 2))


# a hand-built Trace, whose fields went unchecked until distances_to raised
# TypeError or numpy's UFuncTypeError on them, or refused an empty trace
@pytest.mark.parametrize("fields, match", [
    (dict(config=None), "config must be a SimConfig"),
    (dict(config={"side": 1.0}), "config must be a SimConfig"),
    (dict(positions=np.array([["0.5", "1"]])), "positions must be an array of real numbers"),
    (dict(positions=[["0.5", 1.0]]), "positions must be an array of real numbers"),
    (dict(positions=np.array([[0.5 + 1j, 0.0]])), "positions must be an array of real numbers"),
    (dict(positions=None), "positions must be an array of real numbers"),
    (dict(waypoints=np.array([[None, 0.0]], dtype=object)),
     "waypoints must be an array of real numbers"),
    (dict(waypoints=[[10**400, 0.0]]), "waypoints must be an array of real numbers"),
    (dict(positions=np.zeros((2, 3))), r"positions have shape \(2, 3\)"),
    (dict(waypoints=np.zeros((1, 3))), r"waypoints have shape \(1, 3\)"),
    (dict(positions=np.zeros(2)), r"positions have shape \(2,\)"),
    (dict(positions=np.float64(0.5)), r"positions have shape \(\)"),
    (dict(positions=np.zeros((0, 2))), r"positions have shape \(0, 2\)"),
    (dict(waypoints=np.zeros((0, 2))), r"waypoints have shape \(0, 2\)"),
], ids=["config-none", "config-dict", "text", "text-list", "complex", "positions-none",
        "waypoint-none", "waypoint-big-int", "three-columns", "waypoint-three-columns",
        "one-d", "scalar", "empty", "no-waypoints"])
def test_trace_refuses_a_field(fields, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns when it drops an imaginary part
        with pytest.raises(ValueError, match=match):
            rp.Trace(**{"positions": _XY, "waypoints": _XY, "config": _CONFIG, **fields})


def test_trace_keeps_the_float_arrays():
    # a float64 array is kept as it is; anything else real becomes floats
    trace = rp.simulate(_CONFIG)
    kept = rp.Trace(trace.positions, trace.waypoints, trace.config)
    assert kept.positions is trace.positions and kept.waypoints is trace.waypoints
    assert kept.legs == trace.legs == len(trace.waypoints) - 1
    listed = rp.Trace([[0, 0.5], [Fraction(1, 4), True]], [(0.0, 0.0)], _CONFIG)
    assert listed.legs == 0  # one waypoint: the start, and no leg
    for arr in (listed.positions, listed.waypoints):
        assert type(arr) is np.ndarray and arr.dtype == float and arr.shape[1] == 2
    assert listed.positions.tolist() == [[0.0, 0.5], [0.25, 1.0]] and len(listed) == 2
    assert rp.distances_to(listed, RefNode((0.0, 0.0))).tolist() == [0.5, math.hypot(0.25, 1.0)]


# positions that no distance can be computed from: NaN and infinities, and a
# point so far from the node that its distance overflows.  They used to give
# NaN or inf, with a RuntimeWarning for the overflow; the last one overflows
# only in the final scaling by 2**e.  Each is met in the first block and in
# a later one.
@pytest.mark.parametrize("side, xy", [(1.0, (math.nan, 0.0)), (1.0, (0.0, math.inf)),
                                      (1.0, (-math.inf, 0.5)), (1.0, (1e308, 0.0)),
                                      (5e307, (1.7e308, 1.7e308))],
                         ids=["nan", "inf", "negative-inf", "1e308", "final-scaling"])
@pytest.mark.parametrize("at", [0, sim.SAMPLE_BLOCK + 5], ids=["first-block", "later-block"])
def test_distances_to_refuses_a_position(side, xy, at):
    positions = np.zeros((sim.SAMPLE_BLOCK + 10, 2))
    positions[at] = xy
    config = rp.SimConfig(side=side, v_min=0.01, v_max=0.05, duration=10.0)
    trace = rp.Trace(positions, _XY, config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="distances must be finite"):
            rp.distances_to(trace, RefNode((0.0, 0.0)))
