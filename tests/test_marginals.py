import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

import rwphex as rp
from rwphex.marginals import _canonical, _leg_below
from rwphex.piecewise import DomainError

from conftest import (
    SQRT3,
    X_BREAKS,
    Y_BREAKS,
    expected_leg_oracle,
    leg_below_oracle,
    pdf_mass,
    waypoint_x,
    waypoint_y,
)


class TestWaypointPdf:
    def test_x_first_branch(self):
        assert rp.axis_marginal("x", 1.0).waypoint_pdf(0.25) == pytest.approx(1 / 3, rel=1e-12)

    def test_x_continuity_at_half(self):
        pdf = rp.axis_marginal("x", 1.0).waypoint_pdf
        assert pdf(0.5 - 1e-12) == pytest.approx(2 / 3, abs=1e-9)
        assert pdf(0.5) == pytest.approx(2 / 3, rel=1e-12)

    def test_x_boundary(self):
        assert rp.axis_marginal("x", 1.0).waypoint_pdf(2.0) == pytest.approx(0.0, abs=1e-12)

    def test_y_values(self):
        pdf = rp.axis_marginal("y", 1.0).waypoint_pdf
        assert pdf(0.0) == pytest.approx(2 * SQRT3 / 9, rel=1e-12)
        assert pdf(SQRT3 / 2) == pytest.approx(4 * SQRT3 / 9, rel=1e-12)
        assert pdf(SQRT3) == pytest.approx(2 * SQRT3 / 9, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rp.axis_marginal("x", 1.0).waypoint_pdf(-0.1)
        with pytest.raises(DomainError):
            rp.axis_marginal("y", 1.0).waypoint_pdf(2.0)

    @pytest.mark.parametrize("axis,hi", [("x", 2.0), ("y", SQRT3)])
    def test_normalization(self, axis, hi):
        pdf = rp.axis_marginal(axis, 1.0).waypoint_pdf
        assert pdf.domain == (0.0, hi)
        assert pdf_mass(pdf) == pytest.approx(1.0, abs=1e-9)


class TestExpectedLeg:
    def test_x_constant_exact(self):
        assert _canonical("x")["expected_leg"] == Fraction(71, 135)
        assert rp.axis_marginal("x", 1.0).expected_leg == pytest.approx(71 / 135, rel=1e-15)
        assert rp.axis_marginal("x", 2.0).expected_leg == pytest.approx(142 / 135, rel=1e-15)

    def test_y_constant_exact(self):
        assert _canonical("y")["expected_leg"] == Fraction(41, 135)
        assert rp.axis_marginal("y", 1.0).expected_leg == pytest.approx(
            41 / (45 * SQRT3), rel=1e-15)
        assert rp.axis_marginal("y", 3.0).expected_leg == pytest.approx(
            41 / (15 * SQRT3), rel=1e-15)

    def test_x_against_quadrature_oracle(self):
        oracle = expected_leg_oracle(waypoint_x, X_BREAKS)
        assert rp.axis_marginal("x", 1.0).expected_leg == pytest.approx(oracle, abs=1e-9)

    def test_y_against_quadrature_oracle(self):
        oracle = expected_leg_oracle(waypoint_y, Y_BREAKS)
        assert rp.axis_marginal("y", 1.0).expected_leg == pytest.approx(oracle, abs=1e-9)

    def test_invalid_side(self):
        with pytest.raises(ValueError, match="side"):
            rp.axis_marginal("x", 0.0)
        with pytest.raises(ValueError, match="side"):
            rp.axis_marginal("y", -2.0)

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("side", [math.inf, math.nan])
    def test_non_finite_side(self, axis, side):
        with pytest.raises(ValueError, match="side"):
            rp.axis_marginal(axis, side)


class TestPartialLeg:
    def test_x_endpoints(self):
        m = rp.axis_marginal("x", 1.0)
        assert m.partial_leg(0.0) == pytest.approx(0.0, abs=1e-15)
        assert m.partial_leg(2.0) == pytest.approx(m.expected_leg, rel=1e-12)

    def test_y_endpoints(self):
        m = rp.axis_marginal("y", 1.0)
        assert m.partial_leg(0.0) == pytest.approx(0.0, abs=1e-15)
        assert m.partial_leg(SQRT3) == pytest.approx(m.expected_leg, rel=1e-12)

    def test_x_at_half(self):
        assert rp.axis_marginal("x", 1.0).partial_leg(0.5) == pytest.approx(
            2 * (2 * 0.5**3 / 9 - 4 * 0.5**5 / 45), rel=1e-12
        )

    def test_y_at_half_height_against_oracle(self):
        oracle = leg_below_oracle(SQRT3 / 2, waypoint_y, Y_BREAKS)
        assert rp.axis_marginal("y", 1.0).partial_leg(SQRT3 / 2) == pytest.approx(
            oracle, abs=1e-9)

    def test_x_branches_against_oracle(self):
        rng = np.random.default_rng(11)
        for lo, hi in zip(X_BREAKS[:-1], X_BREAKS[1:]):
            for x in rng.uniform(lo, hi, 20):
                oracle = leg_below_oracle(x, waypoint_x, X_BREAKS)
                assert rp.axis_marginal("x", 1.0).partial_leg(x) == pytest.approx(
                    oracle, abs=1e-9)

    def test_y_branches_against_oracle(self):
        rng = np.random.default_rng(12)
        for lo, hi in zip(Y_BREAKS[:-1], Y_BREAKS[1:]):
            for y in rng.uniform(lo, hi, 20):
                oracle = leg_below_oracle(y, waypoint_y, Y_BREAKS)
                assert rp.axis_marginal("y", 1.0).partial_leg(y) == pytest.approx(
                    oracle, abs=1e-9)


class TestStationaryCdf:
    def test_x_known_value(self):
        assert rp.stationary_cdf_x(0.5, 1.0) == pytest.approx(27 / 284, rel=1e-12)

    def test_y_symmetry_midpoint(self):
        assert rp.stationary_cdf_y(SQRT3 / 2, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_endpoints(self):
        assert rp.stationary_cdf_x(0.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert rp.stationary_cdf_x(2.0, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert rp.stationary_cdf_y(0.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert rp.stationary_cdf_y(SQRT3, 1.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("axis,hi", [("x", 2.0), ("y", SQRT3)])
    def test_monotone(self, axis, hi):
        m = rp.axis_marginal(axis, 1.0)
        grid = np.linspace(0.0, hi, 1000)
        assert np.all(np.diff(m.stationary_cdf(grid)) >= -1e-12)

    def test_scale_invariance(self):
        for lam in (0.5, 2.0, 10.0):
            for x in (0.2, 0.9, 1.7):
                assert rp.stationary_cdf_x(lam * x, lam) == pytest.approx(
                    rp.stationary_cdf_x(x, 1.0), rel=1e-12
                )
            for y in (0.3, 1.1, 1.6):
                assert rp.stationary_cdf_y(lam * y, lam) == pytest.approx(
                    rp.stationary_cdf_y(y, 1.0), rel=1e-12
                )

    @pytest.mark.parametrize("axis,side", [("x", 1e300), ("y", 1e-300), ("x", 1e65), ("y", 1e65)])
    def test_side_beyond_table_range_is_refused(self, axis, side):
        # alpha ** -k overflows or underflows there, and the tables gave
        # CDF values down to -28.7 (x at 1e300), NaN (y at 1e-300) and 0.1845
        # at the y midpoint at 1e65
        with pytest.raises(ValueError, match="float range"):
            rp.axis_marginal(axis, side)
        hi = 2.0 if axis == "x" else SQRT3
        with pytest.raises(ValueError, match="float range"):
            getattr(rp, f"stationary_cdf_{axis}")(0.5 * hi * side, side)

    @pytest.mark.parametrize("side", [1e-61, 1e60])
    def test_midpoint_at_ends_of_table_range(self, side):
        assert rp.stationary_cdf_x(side, side) == pytest.approx(0.5, rel=1e-12)
        assert rp.stationary_cdf_y(0.5 * SQRT3 * side, side) == pytest.approx(0.5, rel=1e-12)


class TestStationaryPdf:
    def test_x_midpoint_value(self):
        assert rp.stationary_pdf_x(1.0, 1.0) == pytest.approx(135 / 142, rel=1e-12)

    def test_y_vanishes_at_zero(self):
        assert rp.stationary_pdf_y(0.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("axis,hi", [("x", 2.0), ("y", SQRT3)])
    def test_normalization(self, axis, hi):
        pdf = rp.axis_marginal(axis, 1.0).stationary_pdf
        assert pdf.domain == (0.0, hi)
        assert pdf_mass(pdf) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("axis,hi", [("x", 2.0), ("y", SQRT3)])
    def test_nonnegative(self, axis, hi):
        m = rp.axis_marginal(axis, 1.0)
        grid = np.linspace(0.0, hi, 2000)
        assert np.all(m.stationary_pdf(grid) >= -1e-12)

    @pytest.mark.parametrize("axis,hi", [("x", 2.0), ("y", SQRT3)])
    def test_matches_cdf_finite_difference(self, axis, hi):
        m = rp.axis_marginal(axis, 1.0)
        h = 1e-6
        grid = np.linspace(2 * h, hi - 2 * h, 200)
        fd = (m.stationary_cdf(grid + h) - m.stationary_cdf(grid - h)) / (2 * h)
        assert np.max(np.abs(fd - m.stationary_pdf(grid))) < 1e-6

    def test_symmetry(self):
        mx = rp.axis_marginal("x", 1.0)
        my = rp.axis_marginal("y", 1.0)
        gx = np.linspace(0.0, 2.0, 500)
        gy = np.linspace(0.0, SQRT3, 500)
        assert np.max(np.abs(mx.stationary_pdf(gx) - mx.stationary_pdf(2.0 - gx))) < 1e-12
        assert np.max(np.abs(my.stationary_pdf(gy) - my.stationary_pdf(SQRT3 - gy))) < 1e-12

    def test_piece_continuity(self):
        for axis in ("x", "y"):
            pdf = rp.axis_marginal(axis, 1.0).stationary_pdf
            for b in pdf.breakpoints[1:-1]:
                assert pdf(b - 1e-13) == pytest.approx(pdf(b), abs=1e-12)


class TestExactTables:
    def test_uniform_waypoints_give_mean_leg_of_one_third(self):
        # uniform endpoints on [0, 1]: E|U - V| = 1/3, and the portion of a
        # leg below x is the integral of 2t(1 - t), that is x**2 - 2x**3/3
        expected, branches = _leg_below([Fraction(0), Fraction(1)], [[Fraction(1)]])
        coeffs = list(branches[0])
        assert type(expected) is Fraction and expected == Fraction(1, 3)
        assert coeffs == [0, 0, 1, Fraction(-2, 3)]
        assert all(type(c) is Fraction for c in coeffs)

    def test_every_table_is_pinned(self):
        # SHA-256 of the breakpoints and coefficient table of each unit-side
        # table, so any change to a coefficient's last bit shows up here
        h = hashlib.sha256()
        for axis in ("x", "y"):
            for name in ("partial_leg", "cdf", "pdf", "waypoint_pdf"):
                table = _canonical(axis)[name]
                h.update(table.breakpoints.tobytes())
                h.update(table._table.tobytes())
        assert h.hexdigest() == "38453e3e4a0c54d81f2f4e8fcf18842c27d659b0706bc0d7a59e566dd5c7baf4"
