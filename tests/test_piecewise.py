import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

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
