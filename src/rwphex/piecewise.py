"""Piecewise polynomials over contiguous intervals.

Intervals are closed on the left and open on the right, except the last
interval which is closed; evaluation at an interior breakpoint therefore
uses the piece that starts there.

A Python ``float`` or ``int`` argument (``np.float64`` is a ``float``), or
a 0-d array, is evaluated in Python floats: ``bisect`` over the interior
breakpoints finds its piece, and Horner runs over that piece's
coefficients.  An array argument is evaluated as a whole, in two steps: the
domain check and clamp, then ``_horner``.  There a point's piece index
counts the interior breakpoints at or below it, one comparison per
breakpoint, and Horner runs on the coefficients gathered for it.  Both run
Horner in ``polyval``'s order (acc = acc * t + c_k, from the top power), so
every value equals ``npoly.polyval`` on its own piece bit for bit,
whichever way it was computed.

The distance integrand passes its quadrature nodes node-major: the last two
axes of its argument are one row per Gauss node and one column per cut
interval, and each interval lies inside one piece of each table.  When
every column's points do share a piece and the argument holds at least
``_BY_COLUMN_MIN`` points, ``_horner`` gathers one coefficient per power and
column, (degree + 1, k) instead of (degree + 1, 16 k), and broadcasts it
down the column; below that size a gather per point costs less than the
broadcasts.  The piece is still each point's own, found by the same
comparisons, so both gathers give the same bytes.  Reading a column's piece
at one node alone would not: where the disk cuts a lens thinner than about
1e-12 from the cell, a node's x or slice end can round across a breakpoint.

A caller whose array already lies inside the domain, such as the distance
integrand, passes ``_clamped=True`` and goes straight to ``_horner``: that
saves two reductions and two clamp passes per call.  It still calls
``__call__``, where the benchmark's tracer counts table evaluations; a
marginal field calls ``_at``, which that count leaves out.  Any other
argument must be real by ``_float_array``'s rule, the one the whole library
applies: a bool, int or float dtype, or ``numbers.Real`` objects.  Anything
else raises ``ValueError``, and an int beyond the float range
``DomainError``; the Python-float branch pays nothing for those checks.

The coefficients are floats: ``marginals._unit_tables`` rounds each exact
coefficient once when it builds a side-1 table.  No table is rescaled: an
``AxisMarginal`` field at side a reads its side-1 table through
``_at(t, a)``, which converts t, divides it by a, checks t / a against the
domain and names the domain times a in its ``DomainError``.  That is the
one check of a field's argument; ``__call__`` is ``_at`` at side 1.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from numbers import Real

import numpy as np

__all__ = ["PiecewisePolynomial", "DomainError"]

# Below this many points a node-major argument gathers coefficients per
# point: a broadcast operand costs numpy an iterator per call, which on a few
# hundred points outweighs the smaller gather.  On the integrand's two tables
# the two gathers cost the same at about 1,500 to 2,000 points.
_BY_COLUMN_MIN = 2048


class DomainError(ValueError):
    """Argument outside the domain of a piecewise polynomial."""


def _float_array(t):
    """``t`` as a float array; ValueError unless it is real, DomainError for an
    int beyond the float range.

    This is the library's one definition of a real number: an array of a
    bool, int or float dtype, or an object array whose every element is a
    ``numbers.Real``.  Text, which numpy would parse, complex numbers, whose
    imaginary part it would drop, ``None``, which it would read as NaN, and
    ``Decimal`` are refused.
    """
    t = np.asarray(t)
    kind = t.dtype.kind
    if not (kind in "biuf" or kind == "O" and all(isinstance(v, Real) for v in t.flat)):
        raise ValueError("argument must be a real number or an array of real numbers")
    try:
        return t.astype(float, copy=False)
    except OverflowError:
        raise DomainError("argument outside the float range") from None


class PiecewisePolynomial:
    """Polynomial pieces over ``breakpoints[i] <= t < breakpoints[i+1]``.

    ``coeffs[i]`` holds ascending-power coefficients of the i-th piece.
    """

    __slots__ = ("breakpoints", "_table", "_lo", "_hi", "_tol", "_inner", "_inner_arrays", "_pieces")

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
        self.breakpoints, self._table = bp, table
        self._lo, self._hi = float(bp[0]), float(bp[-1])
        self._tol = 1e-9 * max(abs(self._lo), abs(self._hi), 1.0)
        # a single piece gets one breakpoint that no finite t reaches
        self._inner = bp[1:-1].tolist() or [math.inf]
        # the same as 0-d arrays, which numpy compares against faster than
        # Python floats
        self._inner_arrays = [np.array(b) for b in self._inner]
        # each piece's own coefficients as Python floats, top power first
        self._pieces = [col[c.size - 1::-1] for col, c in zip(table.T.tolist(), coeffs)]

    @property
    def coeffs(self) -> list:
        return [np.array(piece[::-1]) for piece in self._pieces]

    @property
    def domain(self):
        return self._lo, self._hi

    def __call__(self, t, *, _clamped=False):
        """Values at ``t``; DomainError for NaN or a point outside the domain.

        ``_clamped=True`` vouches that ``t`` is a float array inside the
        domain, and skips the domain check and the clamp.
        """
        if _clamped:
            return self._horner(t)
        return self._at(t, 1.0)

    def _at(self, t, side):
        """Values at ``t / side``; DomainError, naming the domain times ``side``,
        for NaN or a ``t / side`` outside the domain."""
        lo, hi, tol = self._lo, self._hi, self._tol
        if not isinstance(t, (float, int)):
            t = _float_array(t)
            if t.ndim:
                with np.errstate(over="ignore"):  # an overflowing t / side is outside anyway
                    t = t / side
                # min and max propagate NaN, which fails both comparisons
                if t.size and not (t.min() >= lo - tol and t.max() <= hi + tol):
                    raise DomainError(f"argument outside domain [{lo * side}, {hi * side}]")
                # np.clip's order, so that a tie keeps the argument's zero sign
                return self._horner(np.minimum(hi, np.maximum(lo, t)))
        try:
            t = float(t) / side
        except OverflowError:  # an int beyond the float range fails the check below
            t = math.nan
        if not (lo - tol <= t <= hi + tol):
            raise DomainError(f"argument outside domain [{lo * side}, {hi * side}]")
        t = min(max(t, lo), hi)
        piece = self._pieces[bisect_right(self._inner, t)]
        out = piece[0]
        for c in piece[1:]:
            out = out * t + c
        return out

    def _horner(self, t):
        """Values at a float array ``t`` inside the domain, which is not checked.

        When ``t`` has two axes or more, its last two are nodes and
        intervals: a large one whose every column lies inside one piece
        gathers one set of coefficients per column, which broadcasts down the
        column.
        """
        # a point's piece is the number of interior breakpoints at or below
        # it, which clamps the index to the first and last piece; exact for
        # every non-NaN t
        first, *rest = self._inner_arrays
        idx = (t >= first).astype(np.intp)
        for b in rest:
            idx += t >= b
        if t.ndim > 1 and t.size >= _BY_COLUMN_MIN:
            column = idx[..., :1, :]
            if (idx == column).all():
                idx = column
        coeffs = self._table.take(idx, axis=1)
        if len(coeffs) == 1:
            return np.broadcast_to(coeffs[0], t.shape).copy()
        # c_top * t is where polyval's 0 * t + c_top, times t, arrives
        out = coeffs[-1] * t
        for c in coeffs[-2:0:-1]:
            out += c
            out *= t
        out += coeffs[0]
        return out
