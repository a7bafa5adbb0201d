"""Regular-hexagon geometry in the cell coordinate frame.

The hexagon of side ``a`` sits in the bounding box [0, 2a] x [0, sqrt(3)a],
with two vertices on the x-extremes at mid-height and a flat edge on the
bottom between x = a/2 and x = 3a/2.

Distances from a node to the cell are computed at side 1, on the node
divided by the side, so they work at any side; every check in the library
that a node is within reach of the cell starts from ``_unit_extremes``.
``_UNIT_EDGES`` is the one statement of the unit cell's edges, each once as
its start and its step: the nearest-edge distance here and the disk-edge
cuts in ``distance`` both read it.

A single real input of the library (a side, a node coordinate, a distance,
a simulation's speeds and times, a point's coordinates) is checked once, by
``_real``, which applies ``piecewise._float_array``'s rule to one value; its
owner keeps the finite Python float that passed and computes only with it.
A point (a ``RefNode``'s, or the argument of ``HexRegion.contains``) is read
by ``_point`` beside it: a ``Point2``, a 2-tuple or 2-list, or an array of
shape (2,), whose two entries ``_real`` checks; anything else is no point.
``contains_mask`` applies the same rule to its arrays.  The library's own
points (the sampler's draws, a checked node at side 1) are floats already
and go through ``HexRegion._inside``, the unchecked containment test.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .piecewise import _float_array

SQRT3 = math.sqrt(3.0)

__all__ = ["Point2", "RefNode", "HexRegion", "SQRT3"]


def _count(value, name: str, least: int, most: float = math.inf) -> int:
    """``value`` as an int; ValueError unless it is an integer in [least, most]."""
    try:
        value = operator.index(value)  # refuses floats, NaN among them
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
    if value > most:
        raise ValueError(f"{name} must be at most {most}")
    return value


def _real(value, name: str) -> float:
    """``value`` as a finite Python float; ValueError unless it is one real
    number by ``piecewise._float_array``'s rule, and finite."""
    if type(value) is not float:  # a float, the common case, needs no numpy
        try:
            value = _float_array(value)
        except ValueError:  # DomainError too: an int beyond the float range
            raise ValueError(f"{name} must be a finite real number") from None
        if value.ndim:
            raise ValueError(f"{name} must be one real number")
        value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value


def _side(value) -> float:
    """``value`` as a cell side: a positive finite float, or ValueError."""
    side = _real(value, "side")
    if not side > 0:
        raise ValueError("side must be positive")
    return side


class Point2(NamedTuple):
    x: float
    y: float


def _point(p, name: str) -> Point2:
    """``p`` as a ``Point2`` of finite Python floats; ValueError unless it is a
    pair of real numbers: a ``Point2``, a 2-tuple or 2-list, or an array of
    shape (2,), each entry checked by ``_real``."""
    if isinstance(p, np.ndarray) and p.shape == (2,):
        p = tuple(p)
    if not (isinstance(p, (tuple, list)) and len(p) == 2):
        raise ValueError(f"{name} must be a pair of real numbers")
    return Point2(_real(p[0], f"{name} coordinate"), _real(p[1], f"{name} coordinate"))


@dataclass(frozen=True)
class RefNode:
    """Fixed reference node; may lie inside or outside the hexagon.

    ``pos`` holds the coordinates as checked: a ``Point2`` of finite floats.
    """

    pos: Point2

    def __post_init__(self):
        object.__setattr__(self, "pos", _point(self.pos, "reference node"))


def _segment_distance(px, py, ax, ay, vx, vy):
    """Distance from (px, py) to the segment from (ax, ay) with step (vx, vy)."""
    t = ((px - ax) * vx + (py - ay) * vy) / (vx * vx + vy * vy)
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * vx), py - (ay + t * vy))


@dataclass(frozen=True)
class HexRegion:
    """The cell of side ``side``, kept as the positive finite float it was checked as."""

    side: float

    def __post_init__(self):
        object.__setattr__(self, "side", _side(self.side))
        # the vertices compute 3a, and _inside nothing larger on the bounding box
        if not math.isfinite(3 * self.side):
            raise ValueError("side is too large: the cell's coordinates overflow")

    @property
    def width(self) -> float:
        return 2 * self.side

    @property
    def height(self) -> float:
        return SQRT3 * self.side

    def vertices(self) -> list[Point2]:
        """Counterclockwise vertices starting at (0, sqrt(3)a/2)."""
        a = self.side
        h = SQRT3 * a
        return [
            Point2(0.0, h / 2),
            Point2(a / 2, 0.0),
            Point2(3 * a / 2, 0.0),
            Point2(2 * a, h / 2),
            Point2(3 * a / 2, h),
            Point2(a / 2, h),
        ]

    def contains(self, p: Point2) -> bool:
        """Closed containment test; boundary points count as inside.

        ValueError unless ``p`` is a pair of finite real numbers.
        """
        return self._inside(*_point(p, "point"))

    def contains_mask(self, xs, ys):
        """Closed containment of coordinate arrays; ValueError unless both are
        real by ``_float_array``'s rule and finite."""
        xs, ys = _float_array(xs), _float_array(ys)
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("point coordinates must be finite")
        # a point far outside overflows to an infinity, or a NaN, that reads as outside
        with np.errstate(over="ignore", invalid="ignore"):
            return self._inside(xs, ys)

    def _inside(self, xs, ys):
        """Closed containment of the library's own finite floats or float arrays, unchecked."""
        a = self.side
        q = SQRT3 * a
        X = xs - a
        Y = ys - q / 2
        tol = 1e-12 * a
        return (
            (abs(Y) <= q / 2 + tol)
            & (abs(SQRT3 * X + Y) <= q + tol)
            & (abs(SQRT3 * X - Y) <= q + tol)
        )

    def sample_uniform_batch(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """(n, 2) array of uniform points; acceptance rate is 3/4."""
        n = _count(n, "n", 0)
        if not isinstance(rng, np.random.Generator):
            raise ValueError("rng must be a numpy.random.Generator")
        chunks = [np.empty((0, 2))]
        got = 0
        while got < n:
            m = max(64, int(1.4 * (n - got)))
            xs = rng.uniform(0.0, self.width, m)
            ys = rng.uniform(0.0, self.height, m)
            keep = self._inside(xs, ys)
            pts = np.column_stack((xs[keep], ys[keep]))
            chunks.append(pts)
            got += len(pts)
        return np.concatenate(chunks)[:n]

    def distance_extremes(self, ref: RefNode) -> tuple[float, float]:
        """(d_min, d_max) of the distance from ref to points of the hexagon."""
        a = self.side
        _, d_min, d_max = _unit_extremes(ref, a)
        if not math.isfinite(a * d_max):
            raise ValueError("reference node is too far from a cell of this side")
        return a * d_min, a * d_max


_UNIT = HexRegion(1.0)
_UNIT_VERTS = _UNIT.vertices()
# each edge of the unit cell once, counterclockwise, as its start and its step (ax, ay, vx, vy)
_UNIT_EDGES = [(ax, ay, bx - ax, by - ay)
               for (ax, ay), (bx, by) in zip(_UNIT_VERTS, _UNIT_VERTS[1:] + _UNIT_VERTS[:1])]


def _unit_extremes(ref: RefNode, a: float) -> tuple[Point2, float, float]:
    """The node at side 1 and its (d_min, d_max) there; ValueError unless ``ref``
    is a ``RefNode``, or if d_max overflows.

    ``a`` is a side that ``_side`` returned.  At side 1 each squared edge
    length is within one ulp of 1, and nothing overflows unless d_max does.
    """
    if not isinstance(ref, RefNode):
        raise ValueError("reference node must be a RefNode")
    px, py = p = Point2(ref.pos[0] / a, ref.pos[1] / a)
    d_max = max([math.hypot(px - vx, py - vy) for vx, vy in _UNIT_VERTS])
    if not math.isfinite(d_max):
        raise ValueError("reference node is too far from a cell of this side")
    if _UNIT._inside(px, py):
        return p, 0.0, d_max
    return p, min([_segment_distance(px, py, *edge) for edge in _UNIT_EDGES]), d_max
