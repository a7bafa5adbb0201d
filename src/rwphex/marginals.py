"""The paper's projected-leg per-axis marginals of a random-waypoint node.

Each axis follows the same construction: the waypoint (leg endpoint)
density is the area-ratio marginal of the uniform distribution on the
hexagon; the stationary CDF is the ratio of the expected leg portion below
a coordinate to the expected leg length; the stationary PDF is its
derivative.  A leg covers coordinate t exactly when its two i.i.d.
endpoints fall on opposite sides of t, which happens with probability
2G(t)(1 - G(t)) for the waypoint CDF G, so the expected leg portion below
x is the integral of 2G(1 - G) from the lower end to x.  ``_leg_below``
integrates it piece by piece in ``Fraction`` arithmetic, so every branch
coefficient is an exact rational, computed rather than copied from derived
formulas.  Weighting a leg by its projected, not its 2-D, length is the
paper's model; the node's exact per-axis law differs from it (README).

The y-axis is derived in u = y / sqrt(3), where its waypoint density has
rational coefficients.  ``_unit_tables`` builds every side-1 table in one
step: it rounds each exact coefficient to a float once, takes the PDF as
the derivative of the rounded CDF, and maps u to cell coordinates.  At side a,
read from one side-1 table each, the CDF is F_1(t / a), each density
f_1(t / a) / a and the partial leg a L_1(t / a): a subnormal a overflows.
Each such field is a ``SideScaled``, and its argument is checked once, by
the side-1 table against the table's domain times a
(``PiecewisePolynomial._at``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .hexgeom import SQRT3, HexRegion
from .piecewise import PiecewisePolynomial

__all__ = [
    "AxisMarginal",
    "axis_marginal",
    "stationary_pdf_x",
    "stationary_pdf_y",
    "stationary_cdf_x",
    "stationary_cdf_y",
]

F = Fraction

# Waypoint densities at unit side, as ascending coefficients per piece.
# x-axis: triangular ramps over [0, 1/2] and [3/2, 2] around a flat middle.
_X_BREAKS = [F(0), F(1, 2), F(3, 2), F(2)]
_X_PIECES = [[F(0), F(4, 3)], [F(2, 3)], [F(8, 3), F(-4, 3)]]  # 4s/3, 2/3, 4(2-s)/3
# y-axis in u = y/sqrt(3): trapezoid rising to u = 1/2 then falling.
_U_BREAKS = [F(0), F(1, 2), F(1)]
_U_PIECES = [[F(2, 3), F(4, 3)], [F(2), F(-4, 3)]]  # 2(1+2u)/3, (6-4u)/3


def _leg_below(breaks, pieces):
    """E(L) and, per piece, the exact coefficients of E(L_below(x)).

    ``pieces[i]`` holds the ascending ``Fraction`` coefficients of the
    waypoint density on ``[breaks[i], breaks[i+1]]``; ``npoly`` keeps them
    in object arrays, so every result is an exact ``Fraction``.
    """
    g = below = F(0)  # G and E(L_below) at the current piece's lower end
    branches = []
    for lo, hi, f in zip(breaks, breaks[1:], pieces):
        G = npoly.polyint(f, lbnd=lo, k=g)
        L = npoly.polyint(2 * npoly.polymul(G, npoly.polysub([1], G)), lbnd=lo, k=below)
        g, below = npoly.polyval(hi, G), npoly.polyval(hi, L)
        branches.append(L)
    return below, branches


@lru_cache(maxsize=None)
def _unit_tables(axis: str) -> dict:
    """Side-1 tables in cell coordinates, keyed by ``AxisMarginal`` field, and E(L).

    On the y-axis, y = sqrt(3) u scales each rounded coefficient c_k by
    sqrt(3)**-k, then a density by 1/sqrt(3) and the partial leg by sqrt(3).
    """
    breaks, pieces = (_X_BREAKS, _X_PIECES) if axis == "x" else (_U_BREAKS, _U_PIECES)
    alpha = 1.0 if axis == "x" else SQRT3  # cell coordinate per unit of u
    expected, branches = _leg_below(breaks, pieces)
    cdf = [np.array(b / expected, dtype=float) for b in branches]
    bp = np.array(breaks, dtype=float) * alpha

    def cell(coeffs, factor):
        scale = alpha ** -np.arange(max(c.size for c in coeffs))
        return PiecewisePolynomial(bp, [c * scale[:c.size] * factor for c in coeffs])

    return {"waypoint_pdf": cell([np.array(p, dtype=float) for p in pieces], 1.0 / alpha),
            "stationary_pdf": cell([npoly.polyder(c) for c in cdf], 1.0 / alpha),
            "stationary_cdf": cell(cdf, 1.0),
            "partial_leg": cell([np.array(b, dtype=float) for b in branches], alpha),
            "expected_leg": float(expected) * alpha}


class SideScaled(NamedTuple):
    """The checked evaluator ``factor * table(t / side)`` of one quantity at one side.

    The table checks the argument, once (``PiecewisePolynomial._at``):
    ``DomainError``, a ``ValueError``, for NaN or an argument outside
    ``domain``, which like ``breakpoints`` is the side-1 table's times the
    side, and ``ValueError`` for text.
    """

    table: PiecewisePolynomial
    side: float
    factor: float

    @property
    def domain(self):
        return tuple(end * self.side for end in self.table.domain)

    @property
    def breakpoints(self):
        return self.table.breakpoints * self.side

    def __call__(self, t):
        return self.table._at(t, self.side) * self.factor


@dataclass(frozen=True)
class AxisMarginal:
    """The marginals of one axis at one side: [0, 2a] (x) or [0, sqrt(3)a] (y)."""

    axis: str
    side: float
    waypoint_pdf: SideScaled
    stationary_pdf: SideScaled
    stationary_cdf: SideScaled
    partial_leg: SideScaled
    expected_leg: float


def axis_marginal(axis: str, side: float) -> AxisMarginal:
    """ValueError for a side that ``HexRegion`` refuses, or a subnormal one."""
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    side = HexRegion(side).side
    inverse = 1.0 / side
    if not math.isfinite(inverse):
        raise ValueError("side is too small: the densities overflow")
    unit = _unit_tables(axis)
    return AxisMarginal(axis, side, SideScaled(unit["waypoint_pdf"], side, inverse),
                        SideScaled(unit["stationary_pdf"], side, inverse),
                        SideScaled(unit["stationary_cdf"], side, 1.0),
                        SideScaled(unit["partial_leg"], side, side), unit["expected_leg"] * side)


# The benchmark's point-queries workload calls these four by name; they go
# once it calls the AxisMarginal fields instead (ROADMAP item 13).
def stationary_cdf_x(x: float, a: float) -> float:
    return axis_marginal("x", a).stationary_cdf(x)


def stationary_cdf_y(y: float, a: float) -> float:
    return axis_marginal("y", a).stationary_cdf(y)


def stationary_pdf_x(x: float, a: float) -> float:
    return axis_marginal("x", a).stationary_pdf(x)


def stationary_pdf_y(y: float, a: float) -> float:
    return axis_marginal("y", a).stationary_pdf(y)
