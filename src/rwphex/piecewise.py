"""Piecewise polynomials over contiguous intervals.

Intervals are closed on the left and open on the right, except the last
interval which is closed; evaluation at an interior breakpoint therefore
uses the piece that starts there.

A Python ``float`` or ``int`` argument (``np.float64`` is a ``float``), or
a 0-d array, is evaluated in Python floats: ``bisect`` over the interior
breakpoints finds its piece, and Horner runs over that piece's
coefficients.  An array argument is evaluated as a whole: a point's piece
index counts the interior breakpoints at or below it, one comparison per
breakpoint, and Horner runs on the gathered columns of the coefficient
table.  Both run Horner in ``polyval``'s order (acc = acc * t + c_k, from
the top power), so every value equals ``npoly.polyval`` on its own piece
bit for bit, whichever way it was computed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from sys import float_info

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = ["PiecewisePolynomial", "DomainError"]


class DomainError(ValueError):
    """Argument outside the domain of a piecewise polynomial."""


class PiecewisePolynomial:
    """Polynomial pieces over ``breakpoints[i] <= t < breakpoints[i+1]``.

    ``coeffs[i]`` holds ascending-power coefficients of the i-th piece.
    """

    __slots__ = ("breakpoints", "_table", "_sizes", "_lo", "_hi", "_tol", "_inner", "_pieces")

    def __init__(self, breakpoints, coeffs):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly ascending")
        if len(coeffs) != bp.size - 1:
            raise ValueError("piece count must match interval count")
        coeffs = [np.atleast_1d(np.asarray(c, dtype=float)) for c in coeffs]
        # row k holds every piece's t**k coefficient, zero above its degree
        table = np.zeros((max(c.size for c in coeffs), len(coeffs)))
        for i, c in enumerate(coeffs):
            table[:c.size, i] = c
        self._finish(bp, table, [c.size for c in coeffs])

    def _finish(self, bp, table, sizes):
        """Set every field from checked breakpoints, a padded table and the piece sizes."""
        self.breakpoints, self._table, self._sizes = bp, table, sizes
        self._lo, self._hi = float(bp[0]), float(bp[-1])
        self._tol = 1e-9 * max(abs(self._lo), abs(self._hi), 1.0)
        # a single piece gets one breakpoint that no finite t reaches
        self._inner = bp[1:-1].tolist() or [math.inf]
        # each piece's own coefficients as Python floats, top power first
        self._pieces = [col[n - 1::-1] for col, n in zip(table.T.tolist(), sizes)]
        return self

    def _derived(self, bp, factor) -> "PiecewisePolynomial":
        """The polynomial on ``bp`` whose table is this one's times ``factor``, entry by entry.

        The breakpoints and the table's shape were checked when this one was
        built.  A zero entry stays exactly zero; a nonzero one whose product is
        not a finite normal float raises ``ValueError``.
        """
        nonzero = self._table != 0
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            table = self._table * factor
        size = np.abs(table[nonzero])
        # NaN fails both comparisons
        if not (size.min(initial=math.inf) >= float_info.min
                and size.max(initial=0.0) <= float_info.max):
            raise ValueError("the coefficients leave the float range at this scale")
        table[~nonzero] = 0.0
        return object.__new__(PiecewisePolynomial)._finish(bp, table, self._sizes)

    @property
    def coeffs(self) -> list:
        return [self._table[:n, i].copy() for i, n in enumerate(self._sizes)]

    @property
    def domain(self):
        return self._lo, self._hi

    def piece_index(self, t):
        # the number of interior breakpoints at or below t, which clamps the
        # index to the first and last piece; exact for every non-NaN t
        idx = (t >= self._inner[0]).astype(np.intp)
        for b in self._inner[1:]:
            idx += t >= b
        return idx

    def __call__(self, t):
        if not isinstance(t, (float, int)):
            t = np.asarray(t, dtype=float)
            if t.ndim:
                return self._call_array(t)
        lo, hi, tol = self._lo, self._hi, self._tol
        t = float(t)
        if not (lo - tol <= t <= hi + tol):
            raise DomainError(f"argument outside domain [{lo}, {hi}]")
        t = min(max(t, lo), hi)
        piece = self._pieces[bisect_right(self._inner, t)]
        out = piece[0]
        for c in piece[1:]:
            out = out * t + c
        return out

    def _call_array(self, t):
        lo, hi, tol = self._lo, self._hi, self._tol
        # min and max propagate NaN, which fails both comparisons
        if t.size and not (t.min() >= lo - tol and t.max() <= hi + tol):
            raise DomainError(f"argument outside domain [{lo}, {hi}]")
        # np.clip's order, so that a tie keeps the argument's zero sign
        t = np.minimum(hi, np.maximum(lo, t))
        coeffs = self._table.take(self.piece_index(t), axis=1)
        # the top row starts Horner as 0 * t + c_top would; a copy, so that
        # the gathered columns are freed before the caller's next call
        out = coeffs[-1].copy()
        for c in coeffs[-2::-1]:
            out *= t
            out += c
        return out

    def derivative(self) -> "PiecewisePolynomial":
        return PiecewisePolynomial(
            self.breakpoints, [npoly.polyder(c) for c in self.coeffs]
        )

    def scaled_argument(self, alpha: float) -> "PiecewisePolynomial":
        """Return q with q(t) = self(t / alpha), for alpha > 0.

        ValueError if a nonzero coefficient of q leaves the normal float range.
        """
        if alpha <= 0:
            raise ValueError("scale factor must be positive")
        with np.errstate(over="ignore"):
            factor = alpha ** -np.arange(self._table.shape[0])
        return self._derived(self.breakpoints * alpha, factor[:, None])

    def __mul__(self, scalar):
        return self._derived(self.breakpoints, float(scalar))

    __rmul__ = __mul__
