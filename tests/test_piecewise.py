import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from rwphex import piecewise
from rwphex.marginals import _unit_tables, axis_marginal
from rwphex.piecewise import DomainError, PiecewisePolynomial


@pytest.fixture
def ramp():
    # 2t on [0, 1), constant 2 on [1, 3]
    return PiecewisePolynomial([0.0, 1.0, 3.0], [[0.0, 2.0], [2.0]])


def test_evaluation(ramp):
    assert ramp(0.5) == 1.0
    assert ramp(2.0) == 2.0
    assert np.allclose(ramp(np.array([0.0, 1.0, 3.0])), [0.0, 2.0, 2.0])


def test_breakpoint_belongs_to_right_piece():
    p = PiecewisePolynomial([0.0, 1.0, 2.0], [[0.0], [5.0]])
    assert p(1.0) == 5.0
    assert p(2.0) == 5.0  # last interval closed
    assert p(0.999999) == 0.0


def test_domain_error(ramp):
    with pytest.raises(DomainError):
        ramp(-0.1)
    with pytest.raises(DomainError):
        ramp(np.array([0.5, 3.2]))
    with pytest.raises(DomainError):
        ramp(np.array([np.nan, -0.1]))
    with pytest.raises(DomainError):
        ramp(np.nan)
    assert ramp(np.zeros(0)).shape == (0,)


def test_validation():
    with pytest.raises(ValueError):
        PiecewisePolynomial([0.0, 0.0, 1.0], [[1.0], [1.0]])
    with pytest.raises(ValueError):
        PiecewisePolynomial([0.0, 1.0], [[1.0], [2.0]])


def per_piece_polyval(pp, t):
    """Reference: npoly.polyval on each piece's own points."""
    idx = np.clip(np.searchsorted(pp.breakpoints, t, side="right") - 1, 0, len(pp.coeffs) - 1)
    out = np.empty_like(t)
    for i, c in enumerate(pp.coeffs):
        out[idx == i] = npoly.polyval(t[idx == i], c)
    return out


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("side", [0.37, 1.0, 2.5, 1000.0])
def test_marginal_tables_match_polyval_bytes(axis, side):
    # each field is its side-1 table, equal to polyval on its own piece bit for
    # bit, read at t / side and times the field's factor
    m = axis_marginal(axis, side)
    rng = np.random.default_rng(8)
    for name in ("waypoint_pdf", "stationary_pdf", "stationary_cdf", "partial_leg"):
        field, table = getattr(m, name), _unit_tables(axis)[name]
        lo, hi = field.domain
        # breakpoints (the domain ends among them), their neighbours, and the interior
        t = np.concatenate((field.breakpoints, np.nextafter(field.breakpoints[1:], -np.inf),
                            np.nextafter(field.breakpoints[:-1], np.inf), rng.uniform(lo, hi, 500)))
        u = np.clip(t / side, *table.domain)
        want = per_piece_polyval(table, u)
        assert table(u).tobytes() == want.tobytes()
        assert field(t).tobytes() == (want * field.factor).tobytes()
        for v, w in zip(t[:12], want[:12]):
            assert np.float64(field(float(v))).tobytes() == (w * field.factor).tobytes()


class _Gathers(np.ndarray):
    """A coefficient table that records the shape of the index of each gather."""

    def take(self, indices, axis=None):
        self.shapes.append(np.shape(indices))
        return np.asarray(self).take(indices, axis=axis)


def _spied(pp):
    """A copy of ``pp`` whose coefficient table records its gathers."""
    copy = PiecewisePolynomial(pp.breakpoints, pp.coeffs)
    copy._table = copy._table.view(_Gathers)
    copy._table.shapes = []
    return copy


def _columns(pp, rows=16):
    """A (rows, k) argument whose every column lies inside one piece.

    Per piece: a column whose first node is exactly the left breakpoint, one
    that ends a float below the next breakpoint (at it, for the closed last
    piece), and one of seeded interior points.
    """
    rng = np.random.default_rng(11)
    bp = pp.breakpoints
    cols = []
    for i, (lo, hi) in enumerate(zip(bp[:-1], bp[1:])):
        top = hi if i == len(bp) - 2 else np.nextafter(hi, -np.inf)
        cols += [lo + (hi - lo) * np.arange(rows) / rows, top - (hi - lo) * np.arange(rows)[::-1] / rows,
                 rng.uniform(lo, hi, rows)]
    return np.array(cols).T


TABLES = {
    "step": PiecewisePolynomial([0.0, 1.0, 2.0], [[0.0], [5.0]]),  # degree 0
    "ramp": PiecewisePolynomial([0.0, 1.0, 3.0], [[0.0, 2.0], [2.0]]),
    **{f"{axis}-{name}": _unit_tables(axis)[name] for axis in ("x", "y")
       for name in ("waypoint_pdf", "stationary_pdf", "stationary_cdf", "partial_leg")},
}


@pytest.mark.parametrize("name", TABLES)
@pytest.mark.parametrize("repeat", [1, 200], ids=["few", "many"])
def test_column_gather_matches_point_gather(monkeypatch, name, repeat):
    # one piece per column of a 2-D argument, and per (leading index, column)
    # of a 3-D one, gives the bytes of the 1-D path on the same points; at 200
    # repeats the argument is past the size where the column gather starts,
    # and below it the threshold is lowered so that it starts anyway
    if repeat == 1:
        monkeypatch.setattr(piecewise, "_BY_COLUMN_MIN", 0)
    pp = TABLES[name]
    t2 = np.tile(_columns(pp), repeat)
    for t in (t2, np.array((t2, t2[:, ::-1]))):
        spy = _spied(pp)
        got = spy._horner(t)
        assert got.tobytes() == pp._horner(t.ravel()).reshape(t.shape).tobytes()
        assert got.tobytes() == per_piece_polyval(pp, t.ravel()).reshape(t.shape).tobytes()
        column = t.shape[:-2] + (1, t.shape[-1])
        assert spy._table.shapes == [column]


def test_column_across_a_breakpoint_gathers_per_point(monkeypatch):
    # a column that straddles a breakpoint reads each point's own piece
    monkeypatch.setattr(piecewise, "_BY_COLUMN_MIN", 0)
    pp = _unit_tables("x")["stationary_pdf"]
    t = _columns(pp)
    t[:, 1] = np.linspace(0.25, 0.75, len(t))  # across the breakpoint at 0.5
    spy = _spied(pp)
    got = spy._horner(t)
    assert got.tobytes() == per_piece_polyval(pp, t.ravel()).reshape(t.shape).tobytes()
    assert spy._table.shapes == [t.shape]
