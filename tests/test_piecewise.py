import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from rwphex.hexgeom import SQRT3
from rwphex.marginals import _canonical, axis_marginal
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


def test_derivative(ramp):
    d = ramp.derivative()
    assert d(0.5) == 2.0
    assert d(2.0) == 0.0


def test_scaled_argument(ramp):
    q = ramp.scaled_argument(2.0)
    assert q.domain == (0.0, 6.0)
    for t in (0.3, 1.7, 5.2):
        assert q(t) == pytest.approx(ramp(t / 2.0), rel=1e-14)


def test_scalar_multiplication(ramp):
    assert (3.0 * ramp)(0.5) == 3.0


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
    m = axis_marginal(axis, side)
    rng = np.random.default_rng(8)
    for pp in (m.waypoint_pdf, m.stationary_pdf, m.stationary_cdf, m.partial_leg):
        lo, hi = pp.domain
        # breakpoints (the domain ends among them), their neighbours, and the interior
        t = np.concatenate((pp.breakpoints, np.nextafter(pp.breakpoints[1:], -np.inf),
                            np.nextafter(pp.breakpoints[:-1], np.inf), rng.uniform(lo, hi, 500)))
        assert pp(t).tobytes() == per_piece_polyval(pp, t).tobytes()
        for v in t[:12]:
            assert np.float64(pp(float(v))).tobytes() == per_piece_polyval(pp, np.array([v])).tobytes()


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("side", [0.37, 2.5, 1000.0])
def test_derived_tables_match_per_piece_formula(axis, side):
    # each piece scaled on its own, c * alpha ** -k and then the field's factor
    alpha = side if axis == "x" else SQRT3 * side
    m = axis_marginal(axis, side)
    tab = _canonical(axis)
    for field, name, factor in (("waypoint_pdf", "waypoint_pdf", 1.0 / alpha),
                                ("stationary_pdf", "pdf", 1.0 / alpha),
                                ("stationary_cdf", "cdf", None),
                                ("partial_leg", "partial_leg", alpha)):
        pp = getattr(m, field)
        for got, c in zip(pp.coeffs, tab[name].coeffs, strict=True):
            want = c * alpha ** -np.arange(c.size)
            if factor is not None:
                want = want * factor
            assert got.tobytes() == want.tobytes()
        sizes = [c.size for c in pp.coeffs]
        padded = np.arange(pp._table.shape[0])[:, None] >= np.array(sizes)
        assert pp._table[padded].tobytes() == np.zeros(padded.sum()).tobytes()


def test_derived_table_out_of_float_range():
    with pytest.raises(ValueError, match="float range"):
        PiecewisePolynomial([0.0, 1.0], [[1.0, 1.0, 1.0]]).scaled_argument(1e-160)
    with pytest.raises(ValueError, match="float range"):
        PiecewisePolynomial([0.0, 1.0], [[1.0, 1.0]]) * 1e-310  # subnormal
    # a zero coefficient or padded entry stays +0.0, even where its factor
    # overflows or is negative
    q = PiecewisePolynomial([0.0, 1.0], [[1.0, 0.0, 0.0]]).scaled_argument(1e-200)
    assert q._table.tobytes() == np.array([[1.0], [0.0], [0.0]]).tobytes()
    assert q(0.5e-200) == 1.0
    r = PiecewisePolynomial([0.0, 1.0, 2.0], [[1.0, 2.0], [3.0]]) * -2.0
    assert r._table.tobytes() == np.array([[-2.0, -6.0], [-4.0, 0.0]]).tobytes()
