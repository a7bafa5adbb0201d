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

Each waypoint density is written in the coordinates its tables are stored
in: cell coordinates, each piece about its origin (its left breakpoint, or
the top end for the last piece, ``piecewise._origins``).  The y cell spans
[0, alpha] for alpha the float ``SQRT3`` as an exact rational, so the y
density's coefficients are rational too.  ``_leg_below`` integrates in
those coordinates, so its exact pieces are the stored ones:
``_unit_tables`` takes the PDF as the exact derivative of the exact CDF and
rounds each coefficient to a float once, when it builds the table.  A
table's value at an end of the domain is then its rounded constant term: F
is exactly 0 at the lower end and exactly 1 at the top, the PDF exactly 0
at both, and next to either end F stays in [0, 1] and the PDF at or above
0.  At side a, read from one side-1 table each, the CDF is F_1(t / a),
each density f_1(t / a) / a and the partial leg a L_1(t / a): a subnormal
a overflows.
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

from numpy.polynomial import polynomial as npoly

from .hexgeom import SQRT3, HexRegion
from .piecewise import PiecewisePolynomial, _origins

__all__ = [
    "AxisMarginal",
    "axis_marginal",
    "stationary_pdf_x",
    "stationary_pdf_y",
    "stationary_cdf_x",
    "stationary_cdf_y",
]

F = Fraction

# Waypoint densities at unit side, in cell coordinates, as ascending
# coefficients of each piece in t - o about its origin o (``_origins``).
# x-axis: triangular ramps over [0, 1/2] and [3/2, 2] around a flat middle.
_X_BREAKS = [F(0), F(1, 2), F(3, 2), F(2)]
_X_PIECES = [[F(0), F(4, 3)], [F(2, 3)], [F(0), F(-4, 3)]]  # 4t/3, 2/3, -4(t-2)/3
# y-axis: in u = y / alpha the trapezoid 2(1+2u)/3, rising to u = 1/2, then
# 2/3 - 4(u-1)/3; alpha is the float SQRT3 that spans the cell, as an exact
# rational, so a u coefficient c_k becomes c_k / alpha**(k+1) in y.
_ALPHA = F(SQRT3)
_Y_BREAKS = [F(0), _ALPHA / 2, _ALPHA]
_Y_PIECES = [[c / _ALPHA ** (k + 1) for k, c in enumerate(p)]
             for p in ([F(2, 3), F(4, 3)], [F(2, 3), F(-4, 3)])]


def _leg_below(breaks, pieces):
    """E(L) and, per piece, the exact coefficients of E(L_below(t)) about its origin.

    ``pieces[i]`` holds the ascending ``Fraction`` coefficients of the
    waypoint density on ``[breaks[i], breaks[i+1]]`` in t - o_i, o_i its
    origin (``_origins``), and so does each result; ``npoly`` keeps them in
    object arrays, so every result is an exact ``Fraction``.
    """
    g = below = F(0)  # G and E(L_below) at the current piece's lower end
    branches = []
    for lo, hi, o, f in zip(breaks, breaks[1:], _origins(breaks), pieces):
        G = npoly.polyint(f, lbnd=lo - o, k=g)
        L = npoly.polyint(2 * npoly.polymul(G, npoly.polysub([1], G)), lbnd=lo - o, k=below)
        g, below = npoly.polyval(hi - o, G), npoly.polyval(hi - o, L)
        branches.append(L)
    return below, branches


@lru_cache(maxsize=None)
def _unit_tables(axis: str) -> dict:
    """Side-1 tables in cell coordinates, keyed by ``AxisMarginal`` field, and E(L).

    ``_leg_below`` works in the stored coordinates, cell coordinates about
    each piece's origin, so each table takes its exact pieces as they are,
    the PDF's as the exact derivative of the CDF's.  ``PiecewisePolynomial``
    rounds each coefficient to a float, once and correctly
    (``Fraction.__float__``).
    """
    breaks, pieces = (_X_BREAKS, _X_PIECES) if axis == "x" else (_Y_BREAKS, _Y_PIECES)
    expected, leg = _leg_below(breaks, pieces)
    cdf = [c / expected for c in leg]
    return {"waypoint_pdf": PiecewisePolynomial(breaks, pieces),
            "stationary_pdf": PiecewisePolynomial(breaks, [npoly.polyder(c) for c in cdf]),
            "stationary_cdf": PiecewisePolynomial(breaks, cdf),
            "partial_leg": PiecewisePolynomial(breaks, leg),
            "expected_leg": float(expected)}


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
