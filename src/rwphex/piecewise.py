"""Piecewise polynomials over contiguous intervals.

Intervals are closed on the left and open on the right, except the last
interval which is closed; evaluation at an interior breakpoint therefore
uses the piece that starts there.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = ["PiecewisePolynomial", "DomainError"]


class DomainError(ValueError):
    """Argument outside the domain of a piecewise polynomial."""


class PiecewisePolynomial:
    """Polynomial pieces over ``breakpoints[i] <= t < breakpoints[i+1]``.

    ``coeffs[i]`` holds ascending-power coefficients of the i-th piece.
    """

    __slots__ = ("breakpoints", "coeffs", "_table")

    def __init__(self, breakpoints, coeffs):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly ascending")
        if len(coeffs) != bp.size - 1:
            raise ValueError("piece count must match interval count")
        self.breakpoints = bp
        self.coeffs = [np.atleast_1d(np.asarray(c, dtype=float)) for c in coeffs]
        # row k holds every piece's t**k coefficient, zero above its degree
        table = np.zeros((max(c.size for c in self.coeffs), len(self.coeffs)))
        for i, c in enumerate(self.coeffs):
            table[:c.size, i] = c
        self._table = table

    @property
    def domain(self):
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def _tol(self):
        lo, hi = self.domain
        return 1e-9 * max(abs(lo), abs(hi), 1.0)

    def piece_index(self, t):
        # counting only the interior breakpoints at or below t clamps the
        # index to the first and last piece (NaN sorts last)
        return np.searchsorted(self.breakpoints[1:-1], t, side="right")

    def __call__(self, t):
        tt = np.asarray(t, dtype=float)
        scalar = tt.ndim == 0
        tt = np.atleast_1d(tt)
        lo, hi = self.domain
        tol = self._tol()
        # min and max propagate NaN, which fails both comparisons
        if tt.size and not (tt.min() >= lo - tol and tt.max() <= hi + tol):
            raise DomainError(f"argument outside domain [{lo}, {hi}]")
        tt = np.clip(tt, lo, hi)
        # Horner from the top power, in polyval's order (acc = acc * t + c_k),
        # so each value equals npoly.polyval on its own piece bit for bit;
        # a zero-padded power leaves acc at exactly zero
        coeffs = self._table.take(self.piece_index(tt), axis=1)
        out = np.zeros_like(tt)
        for c in coeffs[::-1]:
            out *= tt
            out += c
        return float(out[0]) if scalar else out

    def derivative(self) -> "PiecewisePolynomial":
        return PiecewisePolynomial(
            self.breakpoints, [npoly.polyder(c) for c in self.coeffs]
        )

    def scaled_argument(self, alpha: float) -> "PiecewisePolynomial":
        """Return q with q(t) = self(t / alpha), for alpha > 0."""
        if alpha <= 0:
            raise ValueError("scale factor must be positive")
        coeffs = [c * alpha ** -np.arange(c.size) for c in self.coeffs]
        return PiecewisePolynomial(self.breakpoints * alpha, coeffs)

    def __mul__(self, scalar):
        s = float(scalar)
        return PiecewisePolynomial(self.breakpoints, [c * s for c in self.coeffs])

    __rmul__ = __mul__
