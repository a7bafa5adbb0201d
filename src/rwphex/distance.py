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
to 256 d values into one flat list that remembers each interval's d; the
integrand runs once on all their nodes, so a 200-point curve is one call,
and each d sums its own intervals in order.  At most 21 intervals exist per
d, so the block size alone bounds the working set.

Every quantity is scale-invariant, so ``hexgeom._unit_extremes`` checks the
inputs and rescales them to side 1 on entry; the internals work at side 1 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .hexgeom import SQRT3, _UNIT_VERTS, RefNode, _count, _unit_extremes
from .marginals import _U_BREAKS, _X_BREAKS, _unit_tables

__all__ = [
    "CdfCurve",
    "product_mass_hexagon",
    "distance_cdf",
    "distance_cdf_curve",
]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_BLOCK = 256  # d values per integrand evaluation; bounds the working set

_VERTS = np.array(_UNIT_VERTS)
_EDGES = np.roll(_VERTS, -1, axis=0) - _VERTS
_EDGE_LEN2 = (_EDGES * _EDGES).sum(axis=1)
# each edge's start and step in x, once for each of its two circle crossings
_EDGE_X0 = np.tile(_VERTS[:, 0], 2)
_EDGE_DX = np.tile(_EDGES[:, 0], 2)
# cell ends and x-marginal breakpoints; lines where the y-marginal or the
# slice bounds change piece
_X_LINES = np.array(_X_BREAKS, dtype=float)
_Y_LINES = np.array(_U_BREAKS, dtype=float) * SQRT3


@dataclass(frozen=True)
class CdfCurve:
    d_values: np.ndarray
    cdf_values: np.ndarray
    ref: RefNode
    side: float


def _rule(lo, hi):
    """Nodes and weights of one 16-point Gauss-Legendre panel on each [lo[i], hi[i]].

    ``lo`` and ``hi`` have shape (k,); both results have shape (k, 16), one
    row per interval, so an interval's sum does not depend on the other
    intervals evaluated with it.
    """
    lo, hi = lo[:, None], hi[:, None]
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi) + half * _NODES, half * _WEIGHTS


def _clip(v, lo, hi):
    """np.clip(v, lo, hi) as two ufunc calls, without its Python wrapper; a tie keeps v."""
    return np.minimum(hi, np.maximum(lo, v))


def _slice_mass(x, ylo, yhi):
    """f_X(x) times the f_Y mass of the slice [ylo, yhi] intersected with the cell."""
    cell_lo = SQRT3 * np.maximum(0.0, np.maximum(0.5 - x, x - 1.5))
    ys = np.maximum(ylo, cell_lo)
    ye = np.minimum(yhi, SQRT3 - cell_lo)
    # one y-CDF call on both ends
    F = _unit_tables("y")["stationary_cdf"](_clip(np.concatenate((ye, ys)), 0.0, SQRT3))
    w = F[:len(ye)] - F[len(ye):]
    return _unit_tables("x")["stationary_pdf"](x) * np.where(ye > ys, w, 0.0)


@cache
def _hexagon_mass() -> float:
    """Mass of f_X * f_Y on the unit hexagon.

    On each of the three x-panels the integrand is a polynomial of degree 9,
    which the rule integrates exactly.
    """
    x, w = _rule(_X_LINES[:-1], _X_LINES[1:])
    return float(w.ravel() @ _slice_mass(x.ravel(), -np.inf, np.inf))


def _disk_mass(x1: float, y1: float, d):
    """Mass of f_X * f_Y on hexagon intersect disk(ref, d) for each d > 0."""
    d = np.asarray(d, dtype=float)[:, None]
    w = _VERTS - (x1, y1)
    # A cut is NaN where its crossing does not exist; overflow at extreme
    # scales also ends in NaN or a cut outside [t_lo, t_hi].
    with np.errstate(over="ignore", invalid="ignore"):
        xs = np.arcsin(_clip((_X_LINES - x1) / d, -1.0, 1.0))
        # the circle meets the line y = y_c where cos(theta) = |y_c - y1| / d
        ys = np.arccos(np.abs(_Y_LINES - y1) / d)
        # and edge P + t V where |P - ref + t V| = d with 0 <= t <= 1
        b = (_EDGES * w).sum(axis=1)
        root = np.sqrt(b * b - _EDGE_LEN2 * ((w * w).sum(axis=1) - d * d))
        t = np.concatenate(((-b - root) / _EDGE_LEN2, (-b + root) / _EDGE_LEN2), axis=1)
        t[(t < 0.0) | (t > 1.0)] = np.nan
        edge = np.arcsin((_EDGE_X0 - x1 + t * _EDGE_DX) / d)
    # fmax/fmin skip NaN, so an absent cut collapses onto t_lo
    t_lo, t_hi = xs[:, :1], xs[:, -1:]
    cuts = np.fmin(np.fmax(np.concatenate((xs, ys, -ys, edge), axis=1), t_lo), t_hi)
    cuts.sort(axis=-1)
    lo, hi = cuts[:, :-1], cuts[:, 1:]
    # intervals of nonzero width in row order, and the row (d) of each;
    # the zero-width ones would only add exact zeros
    row, col = np.nonzero(hi > lo)
    theta, weight = _rule(lo[row, col], hi[row, col])
    dr = d[row]
    c = dr * np.cos(theta)
    x = _clip(x1 + dr * np.sin(theta), 0.0, 2.0)
    per_interval = (weight * c * _slice_mass(x, y1 - c, y1 + c)).sum(axis=-1)
    return np.bincount(row, weights=per_interval, minlength=len(d))


def _cdf(x1: float, y1: float, d, d_min: float, d_max: float):
    """Distance CDF at side 1 for each d in an array, given the node's extremes there."""
    out = np.where(d >= d_max, 1.0, 0.0)
    inner = np.flatnonzero((d > d_min) & (d < d_max))
    for i in range(0, inner.size, _BLOCK):
        idx = inner[i:i + _BLOCK]
        out[idx] = _clip(_disk_mass(x1, y1, d[idx]) / _hexagon_mass(), 0.0, 1.0)
    return out


def product_mass_hexagon(ref: RefNode, a: float) -> float:
    """Mass of f_X * f_Y on the hexagon: one constant for every ref and side."""
    _unit_extremes(ref, a)
    return _hexagon_mass()


def distance_cdf(ref: RefNode, a: float, d: float) -> float:
    """P(distance to ref < d) for the stationary mobile node."""
    (x1, y1), d_min, d_max = _unit_extremes(ref, a)
    if not (d >= 0 and math.isfinite(d)):
        raise ValueError("d must be nonnegative and finite")
    return float(_cdf(x1, y1, np.array([d / a], dtype=float), d_min, d_max)[0])


def distance_cdf_curve(ref: RefNode, a: float, n_points: int) -> CdfCurve:
    """CDF sampled on a uniform grid spanning [d_min, d_max]."""
    n_points = _count(n_points, "n_points", 2)
    (x1, y1), d_min, d_max = _unit_extremes(ref, a)
    if not math.isfinite(a * d_max):
        raise ValueError("the largest distance overflows at this side")
    grid = np.linspace(d_min, d_max, n_points)
    return CdfCurve(d_values=a * grid, cdf_values=_cdf(x1, y1, grid, d_min, d_max),
                    ref=ref, side=a)
