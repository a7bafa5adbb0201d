"""Regular-hexagon geometry in the cell coordinate frame.

The hexagon of side ``a`` sits in the bounding box [0, 2a] x [0, sqrt(3)a],
with two vertices on the x-extremes at mid-height and a flat edge on the
bottom between x = a/2 and x = 3a/2.

Distances from a node to the cell are computed at side 1, on the node
divided by the side, so they work at any side; every check in the library
that a node is within reach of the cell starts from ``_unit_extremes``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    """``value`` as a float; ValueError for text, which ``float`` would parse, or a non-number."""
    if type(value) is float:  # the common case, returned as ``float`` would
        return value
    if isinstance(value, (str, bytes)):
        raise ValueError(f"{name} must be a number, not text")
    try:
        return float(value)
    except TypeError:
        raise ValueError(f"{name} must be a real number") from None
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{name} must be finite") from None


class Point2(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class RefNode:
    """Fixed reference node; may lie inside or outside the hexagon."""

    pos: Point2

    def __post_init__(self):
        for v in self.pos:
            if not math.isfinite(_real(v, "reference node coordinate")):
                raise ValueError("reference node coordinates must be finite")


def _segment_distance(px, py, ax, ay, bx, by):
    vx, vy = bx - ax, by - ay
    t = ((px - ax) * vx + (py - ay) * vy) / (vx * vx + vy * vy)
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * vx), py - (ay + t * vy))


@dataclass(frozen=True)
class HexRegion:
    side: float

    def __post_init__(self):
        side = _real(self.side, "side")
        if not (side > 0 and math.isfinite(side)):
            raise ValueError("side must be positive and finite")
        # the vertices compute 3a, and contains_mask nothing larger on the bounding box
        if not math.isfinite(3 * side):
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
        """Closed containment test; boundary points count as inside."""
        return bool(self.contains_mask(p[0], p[1]))

    def contains_mask(self, xs, ys):
        """Closed containment of coordinate arrays, or of two floats in float arithmetic."""
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
        chunks = [np.empty((0, 2))]
        got = 0
        while got < n:
            m = max(64, int(1.4 * (n - got)))
            xs = rng.uniform(0.0, self.width, m)
            ys = rng.uniform(0.0, self.height, m)
            keep = self.contains_mask(xs, ys)
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
# each edge of the unit cell as (ax, ay, bx, by)
_UNIT_EDGES = [a + b for a, b in zip(_UNIT_VERTS, _UNIT_VERTS[1:] + _UNIT_VERTS[:1])]


def _unit_extremes(ref: RefNode, a: float) -> tuple[Point2, float, float]:
    """The node at side 1 and its (d_min, d_max) there; ValueError if d_max overflows.

    At side 1 each squared edge length is 1, and nothing overflows unless d_max does.
    """
    a = _real(a, "side")
    if not (a > 0 and math.isfinite(a)):
        raise ValueError("side must be positive and finite")
    px, py = p = Point2(ref.pos[0] / a, ref.pos[1] / a)
    d_max = max([math.hypot(px - vx, py - vy) for vx, vy in _UNIT_VERTS])
    if not math.isfinite(d_max):
        raise ValueError("reference node is too far from a cell of this side")
    if _UNIT.contains_mask(px, py):
        return p, 0.0, d_max
    d_min = min([_segment_distance(px, py, *edge) for edge in _UNIT_EDGES])
    return p, d_min, d_max
