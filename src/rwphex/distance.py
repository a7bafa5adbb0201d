"""Analytic CDF of the node-to-reference distance.

The CDF is a ratio of integrals of the product density f_X * f_Y over
(hexagon intersect disk) and over the hexagon.  Because the hexagon is
convex, each vertical slice of the integration region is an interval, so
the inner integral over y is the exact difference of the stationary y-CDF
at the interval ends.  The outer integral runs over the x-offset
dx = d sin(theta) from the reference node: in theta the disk's half-chord
d cos(theta) has no square-root singularity, and the integrand is smooth
between a fixed set of cut angles (the cell's x-range, the marginal
breakpoints and the disk meeting a hexagon edge).  One 16-point
Gauss-Legendre panel on every cut interval therefore reaches rounding
level, with no tolerance to choose.

A cut that does not exist at a given d collapses onto the interval's end,
so most of the intervals between sorted cuts have zero width.  The rule is
applied only to the intervals of nonzero width, gathered from a block of up
to 256 d values and laid out node-major: row j of every integrand array
holds the j-th Gauss node of each interval, one column per interval, and
``row`` remembers each column's d.  Its size is the block's share of
``CdfCurve.intervals``, the curve's work: 16 integrand nodes per interval.
Per-interval operands (the column's d,
the tables' coefficients) then broadcast along rows of thousands of points
instead of through one 16-point inner loop per interval.
The integrand runs once on the whole array, so a 200-point curve is one
call.  At most 21 intervals exist per d, so the block size alone bounds the
working set, and the integrand works in place where it can to keep it small.

Each column's 16 products are summed by halving (``_panel_sum``): every
level adds the two contiguous halves of the rows, so an interval's sum does
not depend on the layout, and a scalar query gives the bits of the curve.
Each d then sums its own intervals in order.

Every quantity is scale-invariant.  On entry ``hexgeom._real`` and
``hexgeom._side`` turn d and the side into checked floats, the ``RefNode``
holds checked float coordinates, and ``hexgeom._unit_extremes`` rescales the
node to side 1 and checks that the cell is within its reach; the internals
work at side 1, on those floats only.

A scalar ``distance_cdf`` is answered by the same integrand as a curve, on a
one-element array, without ``_cdf``'s block bookkeeping: it decides
d >= d_max (1.0) and d <= d_min (0.0) in Python floats, and its division and
clip give the bits that ``_cdf`` gives.  Its cost is the number of numpy
calls, not their size, so the integrand keeps that number down: the node's
share of the cuts (its offsets from the cut lines, and each edge's b, b**2
and |w|**2) is computed once per call in Python floats; constant operands
are arrays of the other operand's shape or 0-d; and ``_slice_mass``, which
clips every argument into the tables' domains, reads the tables with
``_clamped=True``, which skips their domain check and clamp.  That read
still goes through ``PiecewisePolynomial.__call__``, the method the
benchmark's tracer wraps to infer table work.  The library's own count is
``CdfCurve.intervals``; ``_clamped`` stays only until the tracer reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .hexgeom import SQRT3, _UNIT_EDGES, RefNode, _count, _real, _side, _unit_extremes
from .marginals import _U_BREAKS, _X_BREAKS, _unit_tables

__all__ = [
    "CdfCurve",
    "product_mass_hexagon",
    "distance_cdf",
    "distance_cdf_curve",
]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_BLOCK = 256  # d values per integrand evaluation; bounds the working set
MAX_CURVE_POINTS = 10**6  # a curve (or CLI grid) of more points is refused

# 0-d operands: numpy converts a Python float operand on every call, which
# costs more than the arithmetic on a scalar query's few hundred points
_ZERO, _HALF, _ONE, _THREE_HALVES, _TWO = (np.array(v) for v in (0.0, 0.5, 1.0, 1.5, 2.0))
_MINUS_ONE, _ROOT3 = np.array(-1.0), np.array(SQRT3)

# the step of each of hexgeom's edges; then each edge's squared length, and it
# and the edge's step in x once for each of its two circle crossings, as rows:
# numpy takes its fast path when both operands have one shape, as they do for
# a single d
_EDGES = np.array(_UNIT_EDGES)[:, 2:]
_EDGE_LEN2 = (_EDGES * _EDGES).sum(axis=1)[None]
_CROSSING_LEN2 = np.tile(_EDGE_LEN2, 2)
_CROSSING_DX = np.tile(_EDGES[:, 0], 2)[None]
# cell ends and x-marginal breakpoints
_X_LINES = np.array(_X_BREAKS, dtype=float)
# the node's share of the cuts starts from these Python floats: those lines,
# the lines where the y-marginal or the slice bounds change piece, and each
# edge's start in x, once for each of its two crossings
_X_LINE_LIST = _X_LINES.tolist()
_Y_LINE_LIST = [float(u) * SQRT3 for u in _U_BREAKS]
_EDGE_X0_LIST = [ax for ax, _, _, _ in _UNIT_EDGES] * 2


@dataclass(frozen=True)
class CdfCurve:
    """A sampled distance CDF, and the number of cut intervals integrated to
    build it, each at ``len(_NODES)`` (16) nodes; 0 for a curve built by hand."""

    d_values: np.ndarray
    cdf_values: np.ndarray
    ref: RefNode
    side: float
    intervals: int = 0


def _rule(lo, hi):
    """Nodes and weights of one 16-point Gauss-Legendre panel on each [lo[i], hi[i]].

    ``lo`` and ``hi`` have shape (k,); both results have shape (16, k), one
    row per node of ``_NODES`` and one column per interval, so an
    interval's sum does not depend on the other intervals evaluated with it.
    """
    half = _HALF * (hi - lo)
    return _HALF * (lo + hi) + half * _NODES[:, None], half * _WEIGHTS[:, None]


def _panel_sum(p):
    """Each column's sum of a (16, k) ``p``, the same for every k.

    Every step adds the two halves of the rows.  numpy's ``sum(axis=0)``
    would not do: it adds a (16, 1) column in another order than wider
    arrays, so a scalar query would lose the curve's bits.  Another node
    count, such as a test's finer rule, halves while it can and sums the rest.
    """
    n = len(p)
    while n % 2 == 0:
        n //= 2
        p = p[:n] + p[n:]
    return p[0] if n == 1 else p.sum(axis=0)


def _clip(v, lo, hi):
    """np.clip(v, lo, hi) as two ufunc calls, without its Python wrapper; a tie keeps v."""
    return np.minimum(hi, np.maximum(lo, v))


def _slice_ends(x, ylo, yhi):
    """Each slice's end and start, stacked: [ye, ys] of [ylo, yhi] intersected with the cell.

    Both are clipped to the y-CDF's domain [0, sqrt(3)], and an empty slice
    ends where it starts, so that its mass F(ys) - F(ys) is 0.
    """
    # the cell's lower edge over x; its upper edge is sqrt(3) - cell_lo
    cell_lo = _HALF - x
    np.maximum(cell_lo, x - _THREE_HALVES, out=cell_lo)
    np.maximum(_ZERO, cell_lo, out=cell_lo)
    cell_lo *= _ROOT3
    ends = np.empty((2,) + x.shape)
    ye, ys = ends[0], ends[1]
    np.maximum(ylo, cell_lo, out=ys)
    np.subtract(_ROOT3, cell_lo, out=ye)
    np.minimum(yhi, ye, out=ye)
    np.maximum(ye, ys, out=ye)
    np.maximum(_ZERO, ends, out=ends)
    return np.minimum(_ROOT3, ends, out=ends)


def _slice_mass(x, ylo, yhi):
    """f_X(x) times the f_Y mass of the slice [ylo, yhi] intersected with the cell.

    ``x`` has one column per interval and lies in [0, 2], and the slice ends
    are clipped, so both tables are read without their domain check.  The
    y-CDF is read once, on both ends; each column is still one interval.
    """
    F = _unit_tables("y")["stationary_cdf"](_slice_ends(x, ylo, yhi), _clamped=True)
    F[0] -= F[1]
    mass = _unit_tables("x")["stationary_pdf"](x, _clamped=True)
    mass *= F[0]
    return mass


@cache
def _hexagon_mass() -> float:
    """Mass of f_X * f_Y on the unit hexagon.

    On each of the three x-panels the integrand is a polynomial of degree 9,
    which the rule integrates exactly.
    """
    x, w = _rule(_X_LINES[:-1], _X_LINES[1:])
    w *= _slice_mass(x, -np.inf, np.inf)
    return float(_panel_sum(w).sum())


def _disk_mass(x1: float, y1: float, d):
    """Mass of f_X * f_Y on hexagon intersect disk(ref, d) for each d > 0 of a
    1-D array, and the number of cut intervals integrated."""
    d = d[:, None]
    # The node's share of the cuts, once per call in Python floats.  Each
    # two-term sum starts at +0.0, as numpy's sum over a row does, so a zero
    # sum has numpy's sign.
    neg_b, b2, w2 = [], [], []
    for ax, ay, vx, vy in _UNIT_EDGES:
        wx, wy = ax - x1, ay - y1
        b = 0.0 + vx * wx + vy * wy
        neg_b.append(-b)
        b2.append(b * b)
        w2.append(0.0 + wx * wx + wy * wy)
    node = np.array([[x - x1 for x in _X_LINE_LIST] + [abs(y - y1) for y in _Y_LINE_LIST]
                     + neg_b + b2 + w2 + [x - x1 for x in _EDGE_X0_LIST]])
    neg_b, b2, w2, edge_x = node[:, 7:13], node[:, 13:19], node[:, 19:25], node[:, 25:]
    # A cut is NaN where its crossing does not exist; overflow at extreme
    # scales also ends in NaN or a cut outside [t_lo, t_hi].
    with np.errstate(over="ignore", invalid="ignore"):
        # the lines x = x_c, then where the circle meets y = y_c: there
        # cos(theta) = |y_c - y1| / d
        r = node[:, :7] / d
        xs = np.arcsin(_clip(r[:, :4], _MINUS_ONE, _ONE))
        ys = np.arccos(r[:, 4:])
        # and edge P + t V where |P - ref + t V| = d with 0 <= t <= 1
        root = np.sqrt(b2 - _EDGE_LEN2 * (w2 - d * d))
        t = np.concatenate((neg_b - root, neg_b + root), axis=1) / _CROSSING_LEN2
        t[(t < _ZERO) | (t > _ONE)] = np.nan
        edge = np.arcsin((edge_x + t * _CROSSING_DX) / d)
    # fmax/fmin skip NaN, so an absent cut collapses onto t_lo
    t_lo, t_hi = xs[:, :1], xs[:, -1:]
    cuts = np.fmin(np.fmax(np.concatenate((xs, ys, -ys, edge), axis=1), t_lo), t_hi)
    cuts.sort(axis=-1)
    lo, hi = cuts[:, :-1], cuts[:, 1:]
    # intervals of nonzero width in row order, and the row (d) of each;
    # the zero-width ones would only add exact zeros
    wide = hi > lo
    theta, weight = _rule(lo[wide], hi[wide])
    row = np.nonzero(wide)[0]
    dr = d[row, 0]
    # in place where the operands allow, which keeps the working set small:
    # x takes theta's buffer, and the slice's upper end y1 + c takes c's
    c = np.cos(theta)
    c *= dr
    x = np.sin(theta, out=theta)
    x *= dr
    x += x1
    np.maximum(_ZERO, x, out=x)
    np.minimum(_TWO, x, out=x)
    weight *= c
    ylo = y1 - c
    yhi = np.add(c, y1, out=c)
    weight *= _slice_mass(x, ylo, yhi)
    return np.bincount(row, weights=_panel_sum(weight), minlength=len(d)), row.size


def _cdf(x1: float, y1: float, d, d_min: float, d_max: float):
    """Distance CDF at side 1 for each d in an array, given the node's extremes
    there, and the number of cut intervals integrated."""
    out = np.where(d >= d_max, 1.0, 0.0)
    inner = np.flatnonzero((d > d_min) & (d < d_max))
    intervals = 0
    for i in range(0, inner.size, _BLOCK):
        idx = inner[i:i + _BLOCK]
        mass, k = _disk_mass(x1, y1, d[idx])
        out[idx] = _clip(mass / _hexagon_mass(), 0.0, 1.0)
        intervals += k
    return out, intervals


def product_mass_hexagon(ref: RefNode, a: float) -> float:
    """Mass of f_X * f_Y on the hexagon: one constant for every ref and side."""
    _unit_extremes(ref, _side(a))
    return _hexagon_mass()


def distance_cdf(ref: RefNode, a: float, d: float) -> float:
    """P(distance to ref < d) for the stationary mobile node."""
    d, a = _real(d, "d"), _side(a)
    if d < 0:
        raise ValueError("d must be nonnegative")
    (x1, y1), d_min, d_max = _unit_extremes(ref, a)
    d /= a
    if d >= d_max:
        return 1.0
    if d <= d_min:
        return 0.0
    value = float(_disk_mass(x1, y1, np.array([d]))[0][0]) / _hexagon_mass()
    # _clip's result: max and min keep their first argument on a tie, so a
    # -0.0 stays -0.0
    return min(max(value, 0.0), 1.0)


def distance_cdf_curve(ref: RefNode, a: float, n_points: int) -> CdfCurve:
    """CDF sampled on a uniform grid spanning [d_min, d_max]."""
    n_points = _count(n_points, "n_points", 2, MAX_CURVE_POINTS)
    (x1, y1), d_min, d_max = _unit_extremes(ref, a := _side(a))
    if not math.isfinite(a * d_max):
        raise ValueError("reference node is too far from a cell of this side")
    grid = np.linspace(d_min, d_max, n_points)
    cdf, intervals = _cdf(x1, y1, grid, d_min, d_max)
    return CdfCurve(d_values=a * grid, cdf_values=cdf, ref=ref, side=a, intervals=intervals)
