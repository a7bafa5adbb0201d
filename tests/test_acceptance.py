"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report; each criterion also enforces its runtime budget.
"""

import math
import time

import numpy as np
import pytest

import rwphex as rp
from rwphex.hexgeom import SQRT3, HexRegion, Point2, RefNode

from conftest import (
    X_BREAKS,
    Y_BREAKS,
    expected_leg_oracle,
    leg_below_oracle,
    mc_distance_cdf,
    pdf_mass,
    waypoint_x,
    waypoint_y,
)

CENTER = RefNode(Point2(1.0, SQRT3 / 2))
PAPER_REFS = [
    RefNode(Point2(0.0, 0.0)),
    RefNode(Point2(0.5, 0.0)),
    CENTER,
    RefNode(Point2(3.0, 3.0)),
]
ORACLE_REFS = PAPER_REFS + [RefNode(Point2(1.0, 0.0))]  # + edge midpoint


class _Budget:
    def __init__(self, name, limit_s):
        self.name = name
        self.limit_s = limit_s
        self.start = time.perf_counter()

    def done(self, ok=True):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok and elapsed < self.limit_s else "FAIL"
        print(f"[acceptance] {self.name}: {status} ({elapsed:.2f}s / limit {self.limit_s}s)")
        assert elapsed < self.limit_s, f"{self.name} exceeded runtime budget"


def _curve_model(ref, n=200):
    curve = rp.distance_cdf_curve(ref, 1.0, n)
    return lambda s: np.interp(s, curve.d_values, curve.cdf_values)


def test_expected_leg_constants():
    budget = _Budget("expected-leg constants", 1.0)
    leg_x = rp.axis_marginal("x", 1.0).expected_leg
    leg_y = rp.axis_marginal("y", 1.0).expected_leg
    assert leg_x == pytest.approx(71 / 135, abs=1e-12)
    assert leg_y == pytest.approx(41 / (45 * SQRT3), abs=1e-12)
    assert abs(leg_x - expected_leg_oracle(waypoint_x, X_BREAKS)) < 1e-9
    assert abs(leg_y - expected_leg_oracle(waypoint_y, Y_BREAKS)) < 1e-9
    budget.done()


def test_partial_leg_oracle_suite():
    budget = _Budget("partial-leg branch oracle suite", 10.0)
    rng = np.random.default_rng(31)
    for axis, density, breaks in (
        ("x", waypoint_x, X_BREAKS),
        ("y", waypoint_y, Y_BREAKS),
    ):
        closed_form = rp.axis_marginal(axis, 1.0).partial_leg
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            for t in rng.uniform(lo, hi, 20):
                assert abs(closed_form(t) - leg_below_oracle(t, density, breaks)) < 1e-9, \
                    f"axis {axis} branch [{lo}, {hi}] at {t}"
    budget.done()


def test_marginal_fidelity():
    budget = _Budget("marginal fidelity (empirical vs analytic F_X, F_Y)", 30.0)
    config = rp.SimConfig(side=1.0, v_min=0.01, v_max=0.05, duration=1e5,
                          sample_interval=1.0, seed=12345)
    trace = rp.simulate(config)
    ks_x = rp.ks_statistic(rp.ecdf(trace.positions[:, 0]),
                           rp.axis_marginal("x", 1.0).stationary_cdf)
    ks_y = rp.ks_statistic(rp.ecdf(trace.positions[:, 1]),
                           rp.axis_marginal("y", 1.0).stationary_cdf)
    assert ks_x < 0.03, f"KS_x = {ks_x}"
    assert ks_y < 0.03, f"KS_y = {ks_y}"
    budget.done()


def test_distance_cdf_fidelity():
    budget = _Budget("distance-CDF fidelity at the four reference nodes", 180.0)
    config = rp.SimConfig(side=1.0, v_min=0.01, v_max=0.05, duration=1e5,
                          sample_interval=1.0, seed=12345)
    trace = rp.simulate(config)
    for ref in PAPER_REFS:
        model = _curve_model(ref)
        ks = rp.ks_statistic(rp.ecdf(rp.distances_to(trace, ref)), model)
        assert ks < 0.05, f"ref {ref.pos}: KS = {ks}"
    budget.done()


def test_quadrature_vs_monte_carlo(product_density_cloud):
    budget = _Budget("quadrature vs Monte Carlo oracle (5 refs x 10 d)", 300.0)
    region = HexRegion(1.0)
    for ref in ORACLE_REFS:
        d_min, d_max = region.distance_extremes(ref)
        ds = np.linspace(d_min, d_max, 12)[1:-1]
        for d, mc, se in zip(ds, *mc_distance_cdf(product_density_cloud, ref.pos, ds)):
            value = rp.distance_cdf(ref, 1.0, float(d))
            assert abs(value - mc) < 3 * max(se, 1e-9), \
                f"ref {ref.pos} d={d}: quad {value} vs MC {mc} (se {se})"
    budget.done()


def test_baseline_contrast():
    budget = _Budget("uniform-node vs RWP-node contrast", 30.0)
    ref = RefNode(Point2(0.0, 0.0))
    rng = np.random.default_rng(17)
    uniform = rp.ecdf(rp.uniform_node_distances(HexRegion(1.0), ref, 100000, rng))
    config = rp.SimConfig(side=1.0, v_min=0.01, v_max=0.05, duration=1e5,
                          sample_interval=1.0, seed=12345)
    rwp = rp.ecdf(rp.distances_to(rp.simulate(config), ref))
    ks = rp.ks_statistic(uniform, rwp)
    assert ks > 0.02, f"KS = {ks}"
    budget.done()


def test_speed_model_insensitivity():
    budget = _Budget("constant vs uniform speed insensitivity", 60.0)
    model = _curve_model(CENTER)

    def run(v_min, v_max):
        config = rp.SimConfig(side=1.0, v_min=v_min, v_max=v_max, duration=1e5,
                              sample_interval=1.0, seed=999)
        return rp.ks_statistic(rp.ecdf(rp.distances_to(rp.simulate(config), CENTER)), model)

    diff = abs(run(0.03, 0.03) - run(0.01, 0.05))
    assert diff < 0.02, f"KS difference = {diff}"
    budget.done()


def test_property_suite():
    budget = _Budget("property suite", 30.0)

    # PDF normalization to 1e-9
    for axis in ("x", "y"):
        m = rp.axis_marginal(axis, 1.0)
        assert abs(pdf_mass(m.stationary_pdf) - 1.0) < 1e-9
        assert abs(pdf_mass(m.waypoint_pdf) - 1.0) < 1e-9

    # symmetry identities on grids, 1e-12
    mx = rp.axis_marginal("x", 1.0)
    my = rp.axis_marginal("y", 1.0)
    gx = np.linspace(0.0, 2.0, 500)
    gy = np.linspace(0.0, SQRT3, 500)
    assert np.max(np.abs(mx.stationary_pdf(gx) - mx.stationary_pdf(2.0 - gx))) < 1e-12
    assert np.max(np.abs(my.stationary_pdf(gy) - my.stationary_pdf(SQRT3 - gy))) < 1e-12

    # CDF monotonicity
    assert np.all(np.diff(mx.stationary_cdf(gx)) >= -1e-12)
    assert np.all(np.diff(my.stationary_cdf(gy)) >= -1e-12)
    curve = rp.distance_cdf_curve(RefNode(Point2(0.5, 0.0)), 1.0, 60)
    assert np.all(np.diff(curve.cdf_values) >= -1e-8)

    # scale invariance
    for lam in (0.5, 2.0, 3.0):
        assert rp.stationary_cdf_x(lam * 0.8, lam) == pytest.approx(
            rp.stationary_cdf_x(0.8, 1.0), abs=1e-12)
        assert rp.stationary_cdf_y(lam * 0.8, lam) == pytest.approx(
            rp.stationary_cdf_y(0.8, 1.0), abs=1e-12)
        assert rp.distance_cdf(RefNode(Point2(0.0, 0.0)), lam, 1.2 * lam) == pytest.approx(
            rp.distance_cdf(RefNode(Point2(0.0, 0.0)), 1.0, 1.2), abs=1e-7)

    # denominator reference-invariance to 1e-8
    masses = [rp.product_mass_hexagon(ref, 1.0) for ref in ORACLE_REFS]
    assert max(masses) - min(masses) < 1e-8

    # bitwise seed determinism
    config = rp.SimConfig(side=1.0, v_min=0.01, v_max=0.05, duration=3000,
                          sample_interval=1.0, seed=4242)
    t1, t2 = rp.simulate(config), rp.simulate(config)
    assert np.array_equal(t1.positions, t2.positions)
    assert np.array_equal(t1.waypoints, t2.waypoints)

    budget.done()
