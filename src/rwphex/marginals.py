"""Stationary per-axis marginals of a random-waypoint node in the hexagon.

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
formulas.

The y-axis is handled in the rescaled coordinate u = y / (sqrt(3) a), in
which its waypoint density has rational coefficients; results are mapped
back by argument scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from numpy.polynomial import polynomial as npoly

from .hexgeom import SQRT3
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
def _canonical(axis: str):
    """Unit-side tables: waypoint pdf, partial-leg, cdf, pdf, E(L)."""
    breaks, pieces = (_X_BREAKS, _X_PIECES) if axis == "x" else (_U_BREAKS, _U_PIECES)
    expected, branches = _leg_below(breaks, pieces)
    cdf = PiecewisePolynomial(breaks, [b / expected for b in branches])
    return {
        "expected_leg": expected,
        "partial_leg": PiecewisePolynomial(breaks, branches),
        "cdf": cdf,
        "pdf": cdf.derivative(),
        "waypoint_pdf": PiecewisePolynomial(breaks, pieces),
    }


@dataclass(frozen=True)
class AxisMarginal:
    """Closed-form marginal machinery for one axis at a given side length.

    Each polynomial field is the checked evaluator of its quantity: an
    argument that is NaN, infinite or outside [0, 2a] (x) or [0, sqrt(3)a]
    (y) raises ``DomainError``, a ``ValueError``.
    """

    axis: str
    side: float
    waypoint_pdf: PiecewisePolynomial
    stationary_pdf: PiecewisePolynomial
    stationary_cdf: PiecewisePolynomial
    partial_leg: PiecewisePolynomial
    expected_leg: float


# Bounded: a caller that sweeps many side lengths must not grow memory
# without limit, and a repeated side still finds its tables.
@lru_cache(maxsize=128)
def axis_marginal(axis: str, side: float) -> AxisMarginal:
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    if not (side > 0 and math.isfinite(side)):
        raise ValueError("side must be positive and finite")
    tab = _canonical(axis)
    # coordinate scale from the canonical variable to the real one
    alpha = side if axis == "x" else SQRT3 * side
    return AxisMarginal(
        axis=axis,
        side=side,
        waypoint_pdf=tab["waypoint_pdf"].scaled_argument(alpha) * (1.0 / alpha),
        stationary_pdf=tab["pdf"].scaled_argument(alpha) * (1.0 / alpha),
        stationary_cdf=tab["cdf"].scaled_argument(alpha),
        partial_leg=tab["partial_leg"].scaled_argument(alpha) * alpha,
        expected_leg=float(tab["expected_leg"]) * alpha,
    )


# The benchmark's point-queries workload calls these four by name; they go
# once it calls the AxisMarginal fields instead (ROADMAP item 6).
def stationary_cdf_x(x: float, a: float) -> float:
    return axis_marginal("x", a).stationary_cdf(x)


def stationary_cdf_y(y: float, a: float) -> float:
    return axis_marginal("y", a).stationary_cdf(y)


def stationary_pdf_x(x: float, a: float) -> float:
    return axis_marginal("x", a).stationary_pdf(x)


def stationary_pdf_y(y: float, a: float) -> float:
    return axis_marginal("y", a).stationary_pdf(y)
