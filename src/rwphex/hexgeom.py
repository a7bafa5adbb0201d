"""Regular-hexagon geometry in the cell coordinate frame.

The hexagon of side ``a`` sits in the bounding box [0, 2a] x [0, sqrt(3)a],
with two vertices on the x-extremes at mid-height and a flat edge on the
bottom between x = a/2 and x = 3a/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

SQRT3 = math.sqrt(3.0)

__all__ = ["Point2", "RefNode", "HexRegion", "SQRT3"]


class Point2(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class RefNode:
    """Fixed reference node; may lie inside or outside the hexagon."""

    pos: Point2

    def __post_init__(self):
        if not (math.isfinite(self.pos[0]) and math.isfinite(self.pos[1])):
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
        if not (self.side > 0 and math.isfinite(self.side)):
            raise ValueError("side must be positive and finite")
        # the vertices compute 3a, and contains_mask nothing larger on the bounding box
        if not math.isfinite(3 * self.side):
            raise ValueError("side is too large: the cell's coordinates overflow")

    @property
    def width(self) -> float:
        return 2 * self.side

    @property
    def height(self) -> float:
        return SQRT3 * self.side

    @property
    def center(self) -> Point2:
        return Point2(self.side, SQRT3 * self.side / 2)

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
        a = self.side
        q = SQRT3 * a
        X = p[0] - a
        Y = p[1] - q / 2
        tol = 1e-12 * a
        return (
            abs(Y) <= q / 2 + tol
            and abs(SQRT3 * X + Y) <= q + tol
            and abs(SQRT3 * X - Y) <= q + tol
        )

    def contains_mask(self, xs, ys):
        """Vectorized closed containment for coordinate arrays."""
        a = self.side
        q = SQRT3 * a
        X = np.asarray(xs, dtype=float) - a
        Y = np.asarray(ys, dtype=float) - q / 2
        tol = 1e-12 * a
        return (
            (np.abs(Y) <= q / 2 + tol)
            & (np.abs(SQRT3 * X + Y) <= q + tol)
            & (np.abs(SQRT3 * X - Y) <= q + tol)
        )

    def sample_uniform_batch(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """(n, 2) array of uniform points; acceptance rate is 3/4."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        chunks = []
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
        px, py = ref.pos
        verts = self.vertices()
        d_max = max(math.hypot(px - v.x, py - v.y) for v in verts)
        if self.contains(ref.pos):
            return 0.0, d_max
        d_min = min(
            _segment_distance(px, py, verts[i].x, verts[i].y,
                              verts[(i + 1) % 6].x, verts[(i + 1) % 6].y)
            for i in range(6)
        )
        return d_min, d_max
