import math

import numpy as np
import pytest

import rwphex as rp
from rwphex.hexgeom import SQRT3, HexRegion, Point2, RefNode


def paper_config(seed=12345, duration=1e5, v_min=0.01, v_max=0.05):
    return rp.SimConfig(side=1.0, v_min=v_min, v_max=v_max, duration=duration,
                        sample_interval=1.0, seed=seed)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            rp.SimConfig(side=1.0, v_min=0.0, v_max=0.05, duration=10)
        with pytest.raises(ValueError):
            rp.SimConfig(side=1.0, v_min=0.05, v_max=0.01, duration=10)
        with pytest.raises(ValueError):
            rp.SimConfig(side=1.0, v_min=0.01, v_max=0.05, duration=10, sample_interval=0)

    @pytest.mark.parametrize("field", ["side", "v_min", "v_max", "duration", "sample_interval"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_fields_rejected(self, field, value):
        fields = dict(side=1.0, v_min=0.01, v_max=0.05, duration=10.0, sample_interval=1.0)
        fields[field] = value
        with pytest.raises(ValueError):
            rp.SimConfig(**fields)


class TestSimulate:
    def test_zero_duration_single_position(self):
        trace = rp.simulate(rp.SimConfig(side=1.0, v_min=0.01, v_max=0.05, duration=0.0))
        assert len(trace) == 1

    def test_sample_count(self):
        trace = rp.simulate(rp.SimConfig(side=1.0, v_min=0.01, v_max=0.05, duration=10.0))
        assert len(trace) == 11

    def test_all_positions_inside(self):
        trace = rp.simulate(paper_config())
        region = HexRegion(1.0)
        assert region.contains_mask(trace.positions[:, 0], trace.positions[:, 1]).all()

    def test_seed_determinism(self):
        t1 = rp.simulate(paper_config(seed=42, duration=2000))
        t2 = rp.simulate(paper_config(seed=42, duration=2000))
        assert np.array_equal(t1.positions, t2.positions)
        t3 = rp.simulate(paper_config(seed=43, duration=2000))
        assert not np.array_equal(t1.positions, t3.positions)

    def test_marginal_convergence(self):
        trace = rp.simulate(paper_config())
        ks_x = rp.ks_statistic(rp.ecdf(trace.positions[:, 0]),
                               rp.axis_marginal("x", 1.0).stationary_cdf)
        ks_y = rp.ks_statistic(rp.ecdf(trace.positions[:, 1]),
                               rp.axis_marginal("y", 1.0).stationary_cdf)
        assert ks_x < 0.03
        assert ks_y < 0.03

    def test_waypoint_uniformity(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        trace = rp.simulate(paper_config(duration=3e5))
        w = trace.waypoints
        n = len(w)
        ang = np.arctan2(w[:, 1] - SQRT3 / 2, w[:, 0] - 1.0)
        sector = (np.floor(ang / (math.pi / 6)).astype(int)) % 12
        counts = np.bincount(sector, minlength=12)
        stat = float(((counts - n / 12) ** 2 / (n / 12)).sum())
        assert scipy_stats.chi2.sf(stat, 11) > 0.001


class TestDistancesTo:
    def test_reference_at_sample(self):
        trace = rp.simulate(paper_config(duration=10))
        ref = RefNode(Point2(*trace.positions[3]))
        assert rp.distances_to(trace, ref)[3] == 0.0

    def test_exterior_reference_lower_bound(self):
        trace = rp.simulate(paper_config(duration=5000))
        ref = RefNode(Point2(3.0, 3.0))
        d_min, _ = HexRegion(1.0).distance_extremes(ref)
        assert np.all(rp.distances_to(trace, ref) >= d_min - 1e-12)

    def test_translation_invariance(self):
        trace = rp.simulate(paper_config(duration=100))
        shifted = rp.Trace(positions=trace.positions + np.array([2.0, -1.5]),
                           waypoints=trace.waypoints, config=trace.config)
        ref = RefNode(Point2(0.3, 0.4))
        ref_shifted = RefNode(Point2(2.3, -1.1))
        assert np.allclose(rp.distances_to(trace, ref),
                           rp.distances_to(shifted, ref_shifted), atol=1e-12)


class TestEmpiricalCdf:
    def test_strict_less_convention(self):
        emp = rp.ecdf([1.0, 2.0, 3.0])
        assert emp(2.5) == pytest.approx(2 / 3)

    def test_ties(self):
        emp = rp.ecdf([5.0, 5.0, 5.0])
        assert emp(5.0) == 0.0
        assert emp(5.01) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rp.ecdf([])

    def test_dkw_bound(self):
        rng = np.random.default_rng(55)
        emp = rp.ecdf(rng.uniform(0.0, 1.0, 100000))
        grid = np.linspace(0.0, 1.0, 2001)
        assert np.max(np.abs(emp(grid) - grid)) < 0.01


class TestUniformNodeDistances:
    def test_within_max_distance(self):
        rng = np.random.default_rng(7)
        ref = RefNode(Point2(1.0, SQRT3 / 2))
        d = rp.uniform_node_distances(HexRegion(1.0), ref, 50000, rng)
        assert np.all(d <= 1.0 + 1e-12)

    def test_seed_determinism(self):
        ref = RefNode(Point2(0.0, 0.0))
        d1 = rp.uniform_node_distances(HexRegion(1.0), ref, 1000, np.random.default_rng(3))
        d2 = rp.uniform_node_distances(HexRegion(1.0), ref, 1000, np.random.default_rng(3))
        assert np.array_equal(d1, d2)

    def test_differs_from_mobile_node_distribution(self):
        # stationary RWP mass concentrates centrally versus uniform placement
        rng = np.random.default_rng(17)
        ref = RefNode(Point2(1.0, SQRT3 / 2))
        uniform = rp.ecdf(rp.uniform_node_distances(HexRegion(1.0), ref, 100000, rng))
        trace = rp.simulate(paper_config())
        rwp = rp.ecdf(rp.distances_to(trace, ref))
        assert rp.ks_statistic(uniform, rwp) > 0.02

    def test_n_validation(self):
        with pytest.raises(ValueError):
            rp.uniform_node_distances(HexRegion(1.0), RefNode(Point2(0, 0)), 0,
                                      np.random.default_rng(0))


class TestKsStatistic:
    def test_inverse_transform_samples(self):
        rng = np.random.default_rng(99)
        emp = rp.ecdf(rng.uniform(0.0, 1.0, 100000))
        assert rp.ks_statistic(emp, lambda t: np.clip(t, 0.0, 1.0)) < 0.01

    def test_zero_model(self):
        emp = rp.ecdf([0.2, 0.4, 0.9])
        assert rp.ks_statistic(emp, lambda t: np.zeros_like(t)) == 1.0

    def test_single_sample_at_median(self):
        emp = rp.ecdf([0.5])
        assert rp.ks_statistic(emp, lambda t: np.clip(t, 0.0, 1.0)) == 0.5


class TestSpeedModelInsensitivity:
    def test_constant_vs_uniform_speed(self):
        ref = RefNode(Point2(1.0, SQRT3 / 2))
        curve = rp.distance_cdf_curve(ref, 1.0, 200)
        model = lambda s: np.interp(s, curve.d_values, curve.cdf_values)
        ks_const = rp.ks_statistic(
            rp.ecdf(rp.distances_to(
                rp.simulate(paper_config(seed=999, v_min=0.03, v_max=0.03)), ref)),
            model)
        ks_uniform = rp.ks_statistic(
            rp.ecdf(rp.distances_to(
                rp.simulate(paper_config(seed=999)), ref)),
            model)
        assert abs(ks_const - ks_uniform) < 0.02
