import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import rwphex as rp
from rwphex import sim
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

    @pytest.mark.parametrize("seed", [1.5, -1, math.nan, "1"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be"):
            rp.SimConfig(side=1.0, v_min=0.01, v_max=0.05, duration=10, seed=seed)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration must be nonnegative"):
            rp.SimConfig(side=1.0, v_min=0.01, v_max=0.05, duration=-1.0)

    @pytest.mark.parametrize("seed, want", [(np.int64(3), 3), (True, 1), (np.uint8(7), 7)],
                             ids=["int64", "bool", "uint8"])
    def test_seed_is_kept_as_the_checked_int(self, seed, want):
        # the field used to keep the value as given; the trace is the same
        config = paper_config(seed=seed, duration=50)
        assert type(config.seed) is int and config.seed == want
        want_positions = rp.simulate(paper_config(seed=want, duration=50)).positions
        assert rp.simulate(config).positions.tobytes() == want_positions.tobytes()

    @pytest.mark.parametrize("field", ["side", "v_min", "v_max", "duration", "sample_interval"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_fields_rejected(self, field, value):
        fields = dict(side=1.0, v_min=0.01, v_max=0.05, duration=10.0, sample_interval=1.0)
        fields[field] = value
        with pytest.raises(ValueError):
            rp.SimConfig(**fields)

    @pytest.mark.parametrize("field", ["side", "v_min", "v_max", "duration", "sample_interval"])
    @pytest.mark.parametrize("value", ["1", b"1", None, 1j])
    def test_non_number_fields_rejected(self, field, value):
        # float() would parse the text; a config is refused before any work
        fields = dict(side=1.0, v_min=0.01, v_max=0.05, duration=10.0, sample_interval=1.0)
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            rp.SimConfig(**fields)


class TestSimulate:
    def test_zero_duration_single_position(self):
        trace = rp.simulate(rp.SimConfig(side=1.0, v_min=0.01, v_max=0.05, duration=0.0))
        assert len(trace) == 1
        assert trace.legs == 0 and len(trace.waypoints) == 1

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


def per_leg_reference(config):
    """One leg per iteration, drawing each destination and speed on its own."""
    rng = np.random.default_rng(config.seed)
    region = HexRegion(config.side)
    n_samples = math.floor(config.duration / config.sample_interval) + 1
    pos = region.sample_uniform_batch(1, rng)[0]
    waypoints, starts, vecs, t0s, inv_durs = [pos], [], [], [], []
    t = 0.0
    while t < config.duration:
        dest = region.sample_uniform_batch(1, rng)[0]
        speed = rng.uniform(config.v_min, config.v_max)
        leg = dest - pos
        leg_dur = float(np.hypot(*leg)) / speed
        if leg_dur <= 0.0:
            continue
        starts.append(pos)
        vecs.append(leg)
        t0s.append(t)
        inv_durs.append(1.0 / leg_dur)
        waypoints.append(dest)
        t += leg_dur
        pos = dest
    starts, vecs = np.asarray(starts), np.asarray(vecs)
    t0s, inv_durs = np.asarray(t0s), np.asarray(inv_durs)
    times = np.arange(n_samples) * config.sample_interval
    idx = np.clip(np.searchsorted(t0s, times, side="right") - 1, 0, len(t0s) - 1)
    frac = np.minimum((times - t0s[idx]) * inv_durs[idx], 1.0)
    return starts[idx] + frac[:, None] * vecs[idx], np.asarray(waypoints)


def on_segment(p, a, b, tol=1e-12):
    (px, py), (ax, ay), (bx, by) = p, a, b
    abx, aby, apx, apy = bx - ax, by - ay, px - ax, py - ay
    u = min(max((apx * abx + apy * aby) / (abx * abx + aby * aby), 0.0), 1.0)
    return math.hypot(apx - u * abx, apy - u * aby) <= tol


@pytest.fixture(scope="module")
def long_trace():
    """A trace of about 6,000 legs, so more than one block of legs."""
    return rp.simulate(paper_config(seed=2024, duration=2e5))


class TestLegBlocks:
    def test_spans_several_blocks(self, long_trace):
        assert long_trace.legs > sim.LEG_BLOCK

    def test_speed_bound(self, long_trace):
        step = np.hypot(*np.diff(long_trace.positions, axis=0).T)
        assert step.max() <= 0.05 * 1.0 * (1 + 1e-12)

    def test_samples_on_waypoint_segments(self, long_trace):
        w, k = long_trace.waypoints.tolist(), 0
        for p in long_trace.positions.tolist():
            while not on_segment(p, w[k], w[k + 1]):
                k += 1
                assert k < len(w) - 1, "sample off every later leg"
        assert on_segment(long_trace.positions[-1], w[-2], w[-1])

    @pytest.mark.parametrize("duration", [0.5, 30.0, 1e4, 2e5])
    @pytest.mark.parametrize("seed", [3, 2024])
    def test_legs_cover_duration(self, duration, seed):
        config = paper_config(seed=seed, duration=duration)
        waypoints, starts, durs = sim._legs(config, np.random.default_rng(seed))
        assert len(waypoints) == len(starts) + 1 == len(durs) + 1
        assert starts[0] == 0.0 and np.all(durs > 0)
        assert np.array_equal(starts[1:], starts[:-1] + durs[:-1])
        assert starts[-1] < duration <= starts[-1] + durs[-1]
        trace = rp.simulate(config)
        assert np.array_equal(trace.waypoints, waypoints)
        assert trace.legs == len(starts) == len(trace.waypoints) - 1

    def test_seed_determinism(self, long_trace):
        again = rp.simulate(long_trace.config)
        assert np.array_equal(again.positions, long_trace.positions)
        assert np.array_equal(again.waypoints, long_trace.waypoints)

    @pytest.mark.parametrize("seed", [42, 999])
    def test_one_leg_blocks_match_per_leg_reference(self, monkeypatch, seed):
        config = paper_config(seed=seed, duration=3000)
        positions, waypoints = per_leg_reference(config)
        monkeypatch.setattr(sim, "LEG_BLOCK", 1)
        trace = rp.simulate(config)
        assert np.array_equal(trace.positions, positions)
        assert np.array_equal(trace.waypoints, waypoints)


def gather_reference(config, waypoints, t0s, durs):
    """Positions from a leg table by one searchsorted and gathers per sample."""
    n_samples = math.floor(config.duration / config.sample_interval) + 1
    vecs = np.diff(waypoints, axis=0)
    inv_durs = 1.0 / durs
    times = np.arange(n_samples) * config.sample_interval
    idx = np.clip(np.searchsorted(t0s, times, side="right") - 1, 0, len(t0s) - 1)
    frac = np.minimum((times - t0s[idx]) * inv_durs[idx], 1.0)
    return waypoints[idx] + frac[:, None] * vecs[idx]


def seeded_legs(config):
    return sim._legs(config, np.random.default_rng(config.seed))


class TestClockSampling:
    @pytest.mark.parametrize("dt", [1.0, 0.37, 7.0])
    @pytest.mark.parametrize("side", [1.0, 2.5])
    def test_matches_gather_reference(self, dt, side):
        config = rp.SimConfig(side=side, v_min=0.01, v_max=0.05, duration=3000.0,
                              sample_interval=dt, seed=31)
        expected = gather_reference(config, *seeded_legs(config))
        assert np.array_equal(rp.simulate(config).positions, expected)

    def test_duration_shorter_than_first_leg(self):
        config = rp.SimConfig(side=1.0, v_min=0.01, v_max=0.05, duration=0.5,
                              sample_interval=0.1, seed=8)
        legs = seeded_legs(config)
        assert len(legs[1]) == 1
        trace = rp.simulate(config)
        assert len(trace) == 6
        assert np.array_equal(trace.positions, gather_reference(config, *legs))

    def test_several_leg_blocks(self, long_trace):
        expected = gather_reference(long_trace.config, *seeded_legs(long_trace.config))
        assert np.array_equal(long_trace.positions, expected)

    def test_equal_start_times_and_samples_on_leg_starts(self, monkeypatch):
        # leg 1 is so short that legs 1 and 2 start at the same float time;
        # leg 0 ends at 1.2, before leg 1 starts at 2.0
        waypoints = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])
        t0s = np.array([0.0, 2.0, 2.0, 5.0])
        durs = np.array([1.2, 1e-17, 3.0, 4.0])
        assert 2.0 + durs[1] == t0s[2]
        monkeypatch.setattr(sim, "_legs", lambda config, rng: (waypoints, t0s, durs))
        config = rp.SimConfig(side=1.0, v_min=0.01, v_max=0.05, duration=8.0,
                              sample_interval=0.5, seed=0)
        positions = rp.simulate(config).positions
        assert np.array_equal(positions, gather_reference(config, waypoints, t0s, durs))
        # a sample at a leg's start sits on its origin, in the last leg of a tie;
        # a sample past its leg's end sits on the leg's destination
        for t, k in ((0.0, 0), (1.5, 1), (2.0, 2), (5.0, 3)):
            assert np.array_equal(positions[int(t / 0.5)], waypoints[k])

    @pytest.mark.parametrize("duration", [0.0, 100.0])
    def test_columns_contiguous(self, duration):
        positions = rp.simulate(paper_config(duration=duration)).positions
        assert positions.shape == (int(duration) + 1, 2)
        assert positions[:, 0].flags.c_contiguous
        assert positions[:, 1].flags.c_contiguous


class TestBoundedWork:
    @pytest.mark.parametrize("fields", [
        "side=1e-300, duration=100.0",  # about 10**302 legs
        "side=5e-324, duration=100.0",  # every leg has zero duration
        "side=1.0, duration=1e9",  # about 3e7 legs
    ])
    def test_unbounded_leg_count_rejected(self, fields):
        code = ("import rwphex as rp\n"
                f"config = rp.SimConfig(v_min=0.01, v_max=0.05, {fields})\n"
                "try:\n    rp.simulate(config)\n"
                "except ValueError:\n    print('ValueError')\n")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, timeout=10)
        assert result.stdout.strip() == "ValueError", result.stderr

    @staticmethod
    def refuse_legs(config, rng):
        raise AssertionError("legs drawn for a refused simulation")

    @pytest.mark.parametrize("duration, dt", [(2000.0, 1.0), (1.0, 5e-324)])
    def test_sample_count_checked_before_legs(self, monkeypatch, duration, dt):
        monkeypatch.setattr(sim, "MAX_SAMPLES", 1000)
        monkeypatch.setattr(sim, "_legs", self.refuse_legs)
        config = rp.SimConfig(side=1.0, v_min=0.01, v_max=0.05, duration=duration,
                              sample_interval=dt)
        with pytest.raises(ValueError, match="samples"):
            rp.simulate(config)

    def test_sample_count_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(sim, "MAX_SAMPLES", 1000)
        assert len(rp.simulate(paper_config(duration=999.5))) == 1000
        with pytest.raises(ValueError, match="samples"):
            rp.simulate(paper_config(duration=1000.0))


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

    @pytest.mark.parametrize("xy", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_non_finite_reference_rejected(self, xy):
        trace = rp.simulate(paper_config(duration=10))
        with pytest.raises(ValueError, match="finite"):
            rp.distances_to(trace, RefNode(Point2(*xy)))

    def test_far_reference_rejected(self):
        # these distances overflow; they used to come back as inf with a warning
        trace = rp.simulate(rp.SimConfig(side=5e307, v_min=1e300, v_max=1e300,
                                         duration=10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too far"):
                rp.distances_to(trace, RefNode(Point2(-1e308, 0.0)))
            assert np.isfinite(rp.distances_to(trace, RefNode(Point2(0.0, 0.0)))).all()


SIDES = [1e-300, 1.0, 2.5, 1e150, 5e307]
# at side 1; d_max from the exterior node is 3.0 sides, still finite at side 5e307
NODES = {"inside": (1.0, SQRT3 / 2), "vertex": (2.0, SQRT3 / 2), "exterior": (2.5, -0.5)}


def assert_near_hypot(d, points, ref, d_max):
    """Within 1 ulp of np.hypot, or 1e-160 * d_max where the scaled squares underflow."""
    h = np.hypot(points[:, 0] - ref.pos[0], points[:, 1] - ref.pos[1])
    assert np.all(np.abs(d - h) <= np.maximum(np.spacing(h), 1e-160 * d_max))


class TestScaledDistances:
    @pytest.mark.parametrize("node", sorted(NODES))
    @pytest.mark.parametrize("side", SIDES)
    def test_within_one_ulp_of_hypot(self, side, node):
        region = HexRegion(side)
        ref = RefNode(Point2(NODES[node][0] * side, NODES[node][1] * side))
        _, d_max = region.distance_extremes(ref)
        config = rp.SimConfig(side=side, v_min=0.01 * side, v_max=0.05 * side,
                              duration=3000.0, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = rp.simulate(config)
            assert_near_hypot(rp.distances_to(trace, ref), trace.positions, ref, d_max)
            points = region.sample_uniform_batch(3000, np.random.default_rng(5))
            d = rp.uniform_node_distances(region, ref, 3000, np.random.default_rng(5))
            assert_near_hypot(d, points, ref, d_max)

    def test_block_size_does_not_change_bytes(self, monkeypatch):
        trace = rp.simulate(paper_config(duration=100.0))
        ref = RefNode(Point2(0.5, 0.0))

        def run():
            d = rp.distances_to(trace, ref)
            u = rp.uniform_node_distances(HexRegion(1.0), ref, 101,
                                          np.random.default_rng(1))
            ks = rp.ks_statistic(rp.ecdf(d), lambda t: np.clip(t, 0.0, 1.0))
            return d.tobytes(), u.tobytes(), ks

        expected = run()
        monkeypatch.setattr(sim, "SAMPLE_BLOCK", 7)
        assert run() == expected


class TestEmpiricalCdf:
    def test_one_public_name(self):
        # ecdf is the public name; the class it returns is not exported
        assert "ecdf" in rp.__all__ and "ecdf" in sim.__all__
        assert "EmpiricalCdf" not in rp.__all__ and "EmpiricalCdf" not in sim.__all__

    def test_strict_less_convention(self):
        emp = rp.ecdf([1.0, 2.0, 3.0])
        assert emp(2.5) == pytest.approx(2 / 3)

    def test_ties(self):
        emp = rp.ecdf([5.0, 5.0, 5.0])
        assert emp(5.0) == 1.0
        assert emp(5.01) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rp.ecdf([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            rp.ecdf([0.1, bad, 0.3])

    @pytest.mark.parametrize("shape", [(3, 1), (1, 3), (2, 2), ()])
    def test_samples_must_be_one_dimensional(self, shape):
        # a (3, 1) column would sort each length-1 row and leave it unsorted
        samples = np.array([3.0, 1.0, 2.0, 4.0][:max(math.prod(shape), 1)]).reshape(shape)
        with pytest.raises(ValueError, match="need \\(n,\\)"):
            rp.ecdf(samples)

    def test_matches_cli_table(self):
        # steps() gives the CLI's d,ecdf rows: ties and a signed-zero pair
        # each make one row, and each row is the ecdf at its value, bit for bit
        samples = np.array([0.3, 0.1, 0.3, 0.2, 0.3, 0.1, -0.0, 0.0])
        emp = rp.ecdf(samples)
        values, frac = emp.steps()
        assert values.tolist() == [0.0, 0.1, 0.2, 0.3] and frac[-1] == 1.0
        assert emp(values).tobytes() == frac.tobytes()
        # of the signed zeros, the first in sorted order stands for the value
        assert math.copysign(1.0, values[0]) == math.copysign(1.0, emp.sorted_samples[0])

    def test_dkw_bound(self):
        rng = np.random.default_rng(55)
        emp = rp.ecdf(rng.uniform(0.0, 1.0, 100000))
        grid = np.linspace(0.0, 1.0, 2001)
        assert np.max(np.abs(emp(grid) - grid)) < 0.01

    def test_nan_query_rejected(self):
        emp = rp.ecdf([0.1, 0.2, 0.3])
        for bad in (math.nan, np.array([0.15, math.nan]), [math.nan]):
            with pytest.raises(ValueError):
                emp(bad)
        assert emp(math.inf) == 1.0
        assert emp(-math.inf) == 0.0
        assert np.array_equal(emp(np.array([-math.inf, 0.2, math.inf])), [0.0, 2 / 3, 1.0])


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

    @pytest.mark.parametrize("n", [2.5, math.nan, 1000.0, "10"])
    def test_n_must_be_an_integer(self, n):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="n must be an integer"):
            rp.uniform_node_distances(HexRegion(1.0), RefNode(Point2(0.0, 0.0)), n, rng)
        assert rng.bit_generator.state == state

    def test_sample_count_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(sim, "MAX_SAMPLES", 1000)
        region, ref = HexRegion(1.0), RefNode(Point2(0.0, 0.0))
        assert len(rp.uniform_node_distances(region, ref, 1000,
                                             np.random.default_rng(0))) == 1000
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="at most"):
            rp.uniform_node_distances(region, ref, 1001, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("xy", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_non_finite_reference_rejected(self, xy):
        with pytest.raises(ValueError, match="finite"):
            rp.uniform_node_distances(HexRegion(1.0), RefNode(Point2(*xy)), 10,
                                      np.random.default_rng(0))

    def test_far_reference_rejected_before_sampling(self):
        region, rng = HexRegion(5e307), np.random.default_rng(0)
        state = rng.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too far"):
                rp.uniform_node_distances(region, RefNode(Point2(-1e308, 0.0)), 10, rng)
            assert rng.bit_generator.state == state
            d = rp.uniform_node_distances(region, RefNode(Point2(0.0, 0.0)), 10, rng)
        assert np.isfinite(d).all()

    def test_node_out_of_reach_at_side_one_rejected_before_sampling(self):
        # (1e10, 0) is 1e310 sides away from a cell of side 1e-300
        region, rng = HexRegion(1e-300), np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="too far"):
            rp.uniform_node_distances(region, RefNode(Point2(1e10, 0.0)), 10, rng)
        assert rng.bit_generator.state == state


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


def two_abs_ks(emp, model):
    """The KS statistic as the larger of |m - below| and |m - above|."""
    s = emp.sorted_samples
    n = s.size
    m = np.asarray(model(s), dtype=float)
    below = np.arange(n) / n
    above = np.arange(1, n + 1) / n
    return float(max(np.max(np.abs(m - below)), np.max(np.abs(m - above))))


class TestKsSignedPass:
    MODELS = {
        "monotone": lambda t: np.clip(t, 0.0, 1.0),
        "non-monotone": lambda t: 0.5 + 0.5 * np.sin(40.0 * t),
        "outside-unit": lambda t: 3.0 * t - 1.0,
        "constant": lambda t: 0.3,
    }

    B = sim.SAMPLE_BLOCK

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("n", [1, 7, B - 1, B, B + 1, 3 * B + 5, 100003])
    def test_matches_two_abs_formula(self, name, n):
        samples = np.random.default_rng(n).uniform(0.0, 1.0, n)
        emp, model = rp.ecdf(samples), self.MODELS[name]
        assert rp.ks_statistic(emp, model) == two_abs_ks(emp, model)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_model_rejected(self, bad):
        emp = rp.ecdf(np.linspace(0.0, 1.0, 50))

        def model(t):
            m = np.clip(t, 0.0, 1.0)
            m[17] = bad
            return m

        with pytest.raises(ValueError, match="finite"):
            rp.ks_statistic(emp, model)

    @pytest.mark.parametrize("model", [
        lambda t: t[:, None],  # broadcast to n x n, it gave 13/14 for 1/14
        lambda t: np.append(t, 1.0),
        lambda t: np.concatenate((t, t)),
    ], ids=["(n, 1)", "(n + 1,)", "(2n,)"])
    def test_model_output_shape_rejected(self, model):
        emp = rp.ecdf((np.arange(7) + 0.5) / 7)
        assert rp.ks_statistic(emp, lambda t: t) == pytest.approx(1 / 14)
        with pytest.raises(ValueError, match="shape"):
            rp.ks_statistic(emp, model)


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
