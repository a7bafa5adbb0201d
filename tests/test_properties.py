"""Property suite: each public call returns a value in range within a
wall-clock budget, or raises ``ValueError``, whatever it is given.

The inputs mix finite, NaN, infinite, non-integer and extreme numbers
(±1e308, 5e-324, an int beyond the float range) with text, complex numbers,
``None`` and ``Decimal``, as Python objects and as numpy scalars and 0-d
arrays; each entry meets every numpy non-number in an explicit example.
Caps are monkeypatched down, so no call asks for a large allocation.

Two loops run as long as their inputs make them: ``simulate``'s leg loop,
and ``HexRegion.sample_uniform_batch``'s acceptance loop, which both
``simulate`` and ``uniform_node_distances`` enter.  The acceptance loop
ends because a side that ``HexRegion`` accepts is a positive finite float,
and at every such side the cell fills about 3/4 of its bounding box:
0.749 to 0.752 of 4 * 10**5 draws at sides 5e-324, 1e-320, 1e-310,
2.2e-308 and 1e-300.  Both loops run in a fresh interpreter under a
timeout.
"""

import math
import os
import time
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import rwphex as rp
from conftest import PROPERTY, run_fresh
from rwphex import distance, sim
from rwphex.hexgeom import HexRegion, Point2, RefNode

BUDGET_S = 2.0  # per call; every call below takes milliseconds
EXTREME = (0.0, -0.0, 0.5, 2.5, -1.0, 1e308, -1e308, 5e-324, 1e-300,
           10**400, -10**400, math.nan, math.inf, -math.inf)
# numpy's text, bytes and complex numbers, as scalars and 0-d arrays, an object
# array of text, and a Decimal, which is no numbers.Real
NUMPY_NOT_NUMBERS = (np.array("0.5"), np.bytes_(b"1"), np.complex128(0.5 + 1j),
                     np.array(0.5 + 0j), np.array("0.5", dtype=object), Decimal("1.5"))
NOT_NUMBERS = ("0.5", b"1", 1j, 0.5 + 0j, None, [0.5]) + NUMPY_NOT_NUMBERS

numbers = st.one_of(st.floats(), st.integers(-3, 3), st.sampled_from(EXTREME))
anything = st.one_of(numbers, st.sampled_from(NOT_NUMBERS))
coords = st.floats(-3.0, 5.0)
sides = st.one_of(st.floats(1e-3, 1e3), st.sampled_from((1e-300, 1e300, 5e307)))


def with_non_numbers(name, base, **fixed):
    """Explicit examples: argument ``name`` set to each numpy non-number, or,
    when ``base`` is a dict of inputs, ``base`` with each key set to each in turn."""
    def decorate(test):
        for bad in NUMPY_NOT_NUMBERS:
            for arg in ([{**base, key: bad} for key in base] if isinstance(base, dict) else [bad]):
                test = example(**fixed, **{name: arg})(test)
        return test
    return decorate


@st.composite
def inputs(draw, **usable):
    """Keyword arguments drawn from ``usable``; in about half of the draws one of
    them, chosen at random, is replaced by any input."""
    kw = {name: draw(strategy) for name, strategy in usable.items()}
    if draw(st.booleans()):
        kw[draw(st.sampled_from(sorted(kw)))] = draw(anything)
    return kw


def _timed(fn):
    """``fn()`` and its wall time, with None for the value if it raised ValueError."""
    t0 = time.perf_counter()
    try:
        value = fn()
    except ValueError:
        value = None
    return value, time.perf_counter() - t0


@PROPERTY
@given(kw=inputs(x=coords, y=coords, side=sides, d=st.floats(0.0, 5.0)))
@with_non_numbers("kw", dict(x=0.5, y=0.25, side=1.0, d=0.5))
def test_distance_cdf(kw):
    value, elapsed = _timed(
        lambda: rp.distance_cdf(RefNode(Point2(kw["x"], kw["y"])), kw["side"], kw["d"]))
    assert elapsed < BUDGET_S
    assert value is None or (type(value) is float and 0.0 <= value <= 1.0)


@PROPERTY
@given(kw=inputs(x=coords, y=coords, side=sides, n_points=st.integers(-2, 80)))
@with_non_numbers("kw", dict(x=0.5, y=0.25, side=1.0, n_points=5))
def test_distance_cdf_curve(kw):
    n_points = kw["n_points"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distance, "MAX_CURVE_POINTS", 64)
        curve, elapsed = _timed(lambda: rp.distance_cdf_curve(
            RefNode(Point2(kw["x"], kw["y"])), kw["side"], n_points))
    assert elapsed < BUDGET_S
    if curve is None:
        return
    d, cdf = curve.d_values, curve.cdf_values
    assert 2 <= n_points <= 64 and d.shape == cdf.shape == (n_points,)
    assert np.all(np.isfinite(d)) and np.all(np.diff(d) >= 0)
    assert np.all((cdf >= 0.0) & (cdf <= 1.0)) and np.all(np.diff(cdf) >= -1e-12)


def _at_both_ends(test):
    """Explicit examples at side 1: each axis at both domain ends and a float
    inside the top end, where a field nears 0 or 1 by cancellation."""
    for axis in ("x", "y"):
        for frac in (0.0, 1.0, math.nextafter(1.0, 0.0)):
            test = example(axis=axis, exponent=0.0, frac=frac)(test)
    return test


@PROPERTY
@given(axis=st.sampled_from(("x", "y")), exponent=st.floats(-307.0, 307.0),
       frac=st.floats(0.0, 1.0))
@_at_both_ends
def test_marginal_fields_in_range(axis, exponent, frac):
    m = rp.axis_marginal(axis, 10.0 ** exponent)
    t = frac * m.stationary_cdf.domain[1]
    assert 0.0 <= m.stationary_cdf(t) <= 1.0
    assert m.stationary_pdf(t) >= 0.0 and m.waypoint_pdf(t) >= 0.0


@pytest.mark.parametrize("axis", ["x", "y"])
def test_marginal_ends_are_exact(axis):
    # at side 1 the CDF runs from exactly 0 to exactly 1, and the density
    # is +0.0, not -0.0, at both ends
    m = rp.axis_marginal(axis, 1.0)
    lo, hi = m.stationary_cdf.domain
    assert m.stationary_cdf(lo) == 0.0 and m.stationary_cdf(hi) == 1.0
    for t in (lo, hi):
        assert m.stationary_pdf(t) == 0.0 and math.copysign(1.0, m.stationary_pdf(t)) == 1.0


@pytest.mark.parametrize("axis", ["x", "y"])
def test_marginal_tops_are_exact_at_every_side(axis):
    # the reported top hi * a reads the side-1 table's top, though (hi * a) / a
    # rounds one ulp below sqrt(3) at about 9% of sides, where the y density
    # read up to 3.3e-16 / a
    fields = ("waypoint_pdf", "stationary_pdf", "stationary_cdf", "partial_leg")
    unit = rp.axis_marginal(axis, 1.0)
    tops = {name: getattr(unit, name)(getattr(unit, name).domain[1]) for name in fields}
    assert tops["stationary_pdf"] == 0.0
    for side in 10.0 ** np.random.default_rng(27).uniform(-300.0, 300.0, 1000):
        m = rp.axis_marginal(axis, side)
        top = m.stationary_cdf.domain[1]
        for name in fields:
            field, want = getattr(m, name), tops[name] * getattr(m, name).factor
            assert field(top) == want and field(np.array([0.0, top]))[1] == want, (side, name)
        assert math.copysign(1.0, m.stationary_pdf(top)) == 1.0


@PROPERTY
@given(x=st.one_of(coords, anything), y=st.one_of(coords, anything), side=sides)
@with_non_numbers("x", 0.5, y=0.25, side=1.0)
@with_non_numbers("y", 0.5, x=0.25, side=1.0)
def test_contains(x, y, side):
    region = HexRegion(side)
    inside, elapsed = _timed(lambda: region.contains(Point2(x, y)))
    assert elapsed < BUDGET_S
    assert inside is None or type(inside) is bool
    for xs, ys in ((x, y), ([x], [y]), ([x, 0.5], [0.25, y])):
        mask, elapsed = _timed(lambda: region.contains_mask(xs, ys))
        assert elapsed < BUDGET_S
        assert mask is None or np.asarray(mask).dtype == bool
    if inside is not None:  # a finite point: both tests give it one answer
        assert region.contains_mask([x], [y]).tolist() == [inside]


# what might be taken for a point: numbers and non-numbers, tuples, lists and
# arrays of 0 to 3 of them, arrays of shape (1, 2), bytes, sets, dicts and iterators
points = st.one_of(
    anything, st.binary(max_size=3),
    st.builds(Point2, st.one_of(coords, anything), st.one_of(coords, anything)),
    st.lists(st.one_of(coords, anything), max_size=3),
    st.lists(st.one_of(coords, anything), max_size=3).map(tuple),
    st.lists(numbers, max_size=3).map(np.array),
    st.tuples(coords, coords).map(lambda xy: np.array([xy])),
    st.sets(coords, max_size=3), st.dictionaries(coords, coords, max_size=3),
    st.lists(coords, max_size=3).map(iter))


@PROPERTY
@given(p=points, side=sides)
@example(p=None, side=1.0)
@example(p=b"ab", side=1.0)
@example(p={0.25, 0.5}, side=1.0)
def test_point(p, side):
    # RefNode holds finite floats or raises ValueError, and contains answers
    # exactly where RefNode does
    node, elapsed = _timed(lambda: RefNode(p))
    assert elapsed < BUDGET_S
    inside, elapsed = _timed(lambda: HexRegion(side).contains(p))
    assert elapsed < BUDGET_S
    if node is None:
        assert inside is None
    else:
        assert type(node.pos) is Point2
        assert all(type(v) is float and math.isfinite(v) for v in node.pos)
        assert type(inside) is bool


@st.composite
def tables(draw, elements):
    """A list of 0 to 3 rows of 1 to 3 entries each."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    return [[draw(elements) for _ in range(cols)] for _ in range(rows)]


# what might be taken for a trace's positions: numbers and non-numbers, and
# tables of them of shape (0-3, 1-3), as lists and as arrays
positions = st.one_of(anything, tables(st.one_of(coords, anything)),
                      tables(st.one_of(coords, st.sampled_from(EXTREME))).map(np.array))


@PROPERTY
@given(positions=positions, x=coords, y=coords, side=sides)
@example(positions=[[math.nan, 0.0]], x=0.0, y=0.0, side=1.0)
@example(positions=[[math.inf, 0.0]], x=0.0, y=0.0, side=1.0)
@example(positions=[[1e308, 0.0]], x=0.0, y=0.0, side=1.0)
@example(positions=[[1.7e308, 1.7e308]], x=0.0, y=0.0, side=5e307)  # overflows at 2**e
@example(positions=None, x=0.0, y=0.0, side=1.0)
@example(positions=np.zeros((0, 2)), x=0.0, y=0.0, side=1.0)
def test_trace_positions(positions, x, y, side):
    # distances_to gives finite floats, one per position, or raises ValueError
    config = sim.SimConfig(side=side, v_min=0.01, v_max=0.05, duration=10.0)
    node = RefNode(Point2(x, y))
    d, elapsed = _timed(lambda: rp.distances_to(sim.Trace(positions, np.zeros((1, 2)), config),
                                                node))
    assert elapsed < BUDGET_S
    assert d is None or (d.dtype == float and d.shape == (len(positions),)
                         and np.all(np.isfinite(d)))


@PROPERTY
@given(samples=st.one_of(st.lists(st.floats(-1e308, 1e308), max_size=20),
                         st.lists(numbers, max_size=20), st.lists(anything, max_size=4),
                         anything),
       d=st.one_of(st.floats(-1e308, 1e308), anything, st.lists(numbers, max_size=5)))
@with_non_numbers("samples", [0.5, 1.0], d=0.5)
@with_non_numbers("d", 0.5, samples=[0.5, 1.0])
def test_ecdf(samples, d):
    emp, elapsed = _timed(lambda: rp.ecdf(samples))
    assert elapsed < BUDGET_S
    if emp is None:
        return
    assert np.all(np.isfinite(emp.sorted_samples)) and len(emp) == len(samples)
    value, elapsed = _timed(lambda: emp(d))
    assert elapsed < BUDGET_S
    assert value is None or np.all((np.asarray(value) >= 0.0) & (np.asarray(value) <= 1.0))


@PROPERTY
@given(samples=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=50),
       out=st.one_of(anything, st.lists(numbers, min_size=1, max_size=60),
                     st.just("samples")))
@with_non_numbers("out", 0.5, samples=[0.5, 1.0])
def test_ks_statistic(samples, out):
    emp = rp.ecdf(samples)
    # "samples" stands for a model that maps each sample to itself clipped into [0, 1]
    model = (lambda s: np.clip(s, 0.0, 1.0)) if out == "samples" else (lambda s: out)
    ks, elapsed = _timed(lambda: rp.ks_statistic(emp, model))
    assert elapsed < BUDGET_S
    if ks is None:
        return
    m = np.asarray(model(emp.sorted_samples), dtype=float)
    assert type(ks) is float and math.isfinite(ks) and ks >= 0.5 / len(samples)
    if np.all((m >= 0.0) & (m <= 1.0)):
        assert ks <= 1.0


@PROPERTY
@given(kw=inputs(side=sides, v_min=st.floats(1e-3, 0.1), v_max=st.floats(0.1, 1.0),
                 duration=st.floats(0.0, 1e3), sample_interval=st.floats(0.1, 10.0),
                 seed=st.integers(0, 2**70)))
# the slowest speed at the largest sides: a leg's time, and so the clock, overflows
@example(kw=dict(side=5e307, v_min=5e-324, v_max=1.0, duration=100.0, sample_interval=1.0,
                 seed=1))
@with_non_numbers("kw", dict(side=1.0, v_min=0.01, v_max=0.05, duration=10.0,
                             sample_interval=1.0, seed=1))
def _simulate_property(kw):
    """``SimConfig`` then ``simulate``; run by ``test_simulate`` with the caps lowered."""
    trace, elapsed = _timed(lambda: sim.simulate(sim.SimConfig(**kw)))
    assert elapsed < BUDGET_S
    if trace is None:
        return
    xs, ys = trace.positions.T
    assert len(trace) == math.floor(kw["duration"] / kw["sample_interval"]) + 1
    assert np.all(HexRegion(kw["side"]).contains_mask(xs, ys))


def test_simulate():
    # a fresh interpreter that treats RuntimeWarning as an error, as this
    # suite does, with caps that keep every trace under 10**4 samples and legs
    code = f"""
import sys, warnings
warnings.simplefilter("error", RuntimeWarning)
sys.path.insert(0, {os.path.dirname(__file__)!r})
from rwphex import sim
sim.MAX_SAMPLES = sim.MAX_LEGS = 10**4
import test_properties
test_properties._simulate_property()
print("ok")
"""
    assert run_fresh(code, timeout=120) == "ok"


def test_complex_side_is_refused_without_a_hang():
    # a cell that kept a complex side would accept no point, and the sampler
    # would never return.  Warnings are ignored, so that numpy's
    # ComplexWarning, which the suite turns into an error, cannot stand in for
    # the refusal
    code = """
import warnings
warnings.simplefilter("ignore")
import numpy as np
import rwphex as rp
from rwphex.hexgeom import HexRegion, Point2, RefNode
side = np.complex128(1 + 1j)
calls = [lambda: rp.simulate(rp.SimConfig(side=side, v_min=0.01, v_max=0.05, duration=10)),
         lambda: rp.uniform_node_distances(HexRegion(side), RefNode(Point2(0.0, 0.0)), 10,
                                           np.random.default_rng(0))]
for call in calls:
    try:
        call()
    except ValueError:
        print("ValueError")
"""
    assert run_fresh(code, timeout=20).split() == ["ValueError", "ValueError"]
