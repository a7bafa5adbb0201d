import math
import warnings

import numpy as np
import pytest

from rwphex.hexgeom import SQRT3, HexRegion, Point2, RefNode


class TestVertices:
    def test_unit_side(self):
        v = HexRegion(1.0).vertices()
        expected = [
            (0.0, SQRT3 / 2),
            (0.5, 0.0),
            (1.5, 0.0),
            (2.0, SQRT3 / 2),
            (1.5, SQRT3),
            (0.5, SQRT3),
        ]
        assert np.allclose(v, expected, atol=0)

    def test_scaling(self):
        v1 = np.asarray(HexRegion(1.0).vertices())
        v2 = np.asarray(HexRegion(2.0).vertices())
        assert np.allclose(v2, 2 * v1)

    def test_centroid(self):
        for a in (1.0, 3.7):
            v = np.asarray(HexRegion(a).vertices())
            assert np.allclose(v.mean(axis=0), (a, SQRT3 * a / 2))

    def test_side_must_be_positive(self):
        with pytest.raises(ValueError):
            HexRegion(0.0)
        with pytest.raises(ValueError):
            HexRegion(-1.0)

    @pytest.mark.parametrize("side", [6e307, 8.9e307, 9e307, 1e308, 1.7976931348623157e308])
    def test_overflowing_side_rejected(self, side):
        with pytest.raises(ValueError):
            HexRegion(side)

    def test_largest_side_with_finite_box(self):
        region = HexRegion(5.9e307)
        assert math.isfinite(region.width) and math.isfinite(region.height)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xs, ys = np.array(region.vertices()).T
            assert region.contains_mask(xs, ys).all()


class TestContains:
    def test_center_inside(self):
        assert HexRegion(1.0).contains(Point2(1.0, SQRT3 / 2))

    def test_bounding_box_corner_outside(self):
        assert not HexRegion(1.0).contains(Point2(0.0, 0.0))

    def test_far_point_outside(self):
        assert not HexRegion(1.0).contains(Point2(3.0, 3.0))

    @pytest.mark.parametrize("a", [1.0, 0.3, 7.0])
    def test_vertices_are_inside(self, a):
        region = HexRegion(a)
        for v in region.vertices():
            assert region.contains(v)

    def test_mask_matches_scalar(self):
        region = HexRegion(1.0)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-0.5, 2.5, 500)
        ys = rng.uniform(-0.5, 2.5, 500)
        mask = region.contains_mask(xs, ys)
        assert all(mask[i] == region.contains(Point2(xs[i], ys[i])) for i in range(500))


class TestSampleUniform:
    def test_all_draws_inside(self):
        region = HexRegion(1.0)
        pts = region.sample_uniform_batch(20000, np.random.default_rng(1))
        assert region.contains_mask(pts[:, 0], pts[:, 1]).all()

    def test_mean_is_centroid(self):
        region = HexRegion(1.0)
        n = 1_000_000
        pts = region.sample_uniform_batch(n, np.random.default_rng(2))
        # per-coordinate std is bounded by the bounding-box half-width
        sigma = 0.5 * region.height / math.sqrt(n)
        assert abs(pts[:, 0].mean() - 1.0) < 3 * 2 * sigma
        assert abs(pts[:, 1].mean() - SQRT3 / 2) < 3 * sigma

    def test_left_triangle_fraction(self):
        # area left of x = a/2 is one sixth of the hexagon
        n = 1_000_000
        pts = HexRegion(1.0).sample_uniform_batch(n, np.random.default_rng(3))
        p = (pts[:, 0] <= 0.5).mean()
        se = math.sqrt((1 / 6) * (5 / 6) / n)
        assert abs(p - 1 / 6) < 3 * se

    def test_seed_determinism(self):
        region = HexRegion(2.5)
        p1 = region.sample_uniform_batch(100, np.random.default_rng(9))
        p2 = region.sample_uniform_batch(100, np.random.default_rng(9))
        assert np.array_equal(p1, p2)

    def test_zero_points(self):
        pts = HexRegion(1.0).sample_uniform_batch(0, np.random.default_rng(5))
        assert pts.shape == (0, 2)

    @pytest.mark.parametrize("n", [2.5, math.nan, 3.0, "3", -1])
    def test_count_must_be_a_nonnegative_integer(self, n):
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="n must be"):
            HexRegion(1.0).sample_uniform_batch(n, rng)
        assert rng.bit_generator.state == state

    def test_twelve_triangle_fan_uniformity(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        n = 1_000_000
        pts = HexRegion(1.0).sample_uniform_batch(n, np.random.default_rng(4))
        ang = np.arctan2(pts[:, 1] - SQRT3 / 2, pts[:, 0] - 1.0)
        sector = (np.floor(ang / (math.pi / 6)).astype(int)) % 12
        counts = np.bincount(sector, minlength=12)
        stat = float(((counts - n / 12) ** 2 / (n / 12)).sum())
        assert scipy_stats.chi2.sf(stat, 11) > 0.001


class TestDistanceExtremes:
    def test_center(self):
        d_min, d_max = HexRegion(1.0).distance_extremes(RefNode(Point2(1.0, SQRT3 / 2)))
        assert d_min == 0.0
        assert d_max == pytest.approx(1.0, abs=1e-15)

    def test_origin_corner(self):
        d_min, d_max = HexRegion(1.0).distance_extremes(RefNode(Point2(0.0, 0.0)))
        assert d_max == pytest.approx(math.sqrt(5.25), rel=1e-12)
        assert d_min == pytest.approx(self._boundary_oracle(0.0, 0.0), abs=1e-5)

    def test_far_exterior(self):
        d_min, _ = HexRegion(1.0).distance_extremes(RefNode(Point2(3.0, 3.0)))
        assert d_min == pytest.approx(self._boundary_oracle(3.0, 3.0), abs=1e-5)

    @staticmethod
    def _boundary_oracle(px, py, n=1_000_000):
        # dense boundary discretization
        verts = np.asarray(HexRegion(1.0).vertices() + [HexRegion(1.0).vertices()[0]])
        t = np.linspace(0.0, 6.0, n)
        seg = np.minimum(t.astype(int), 5)
        frac = t - seg
        pts = verts[seg] + frac[:, None] * (verts[seg + 1] - verts[seg])
        return float(np.min(np.hypot(pts[:, 0] - px, pts[:, 1] - py)))

    def test_interior_bound(self):
        rng = np.random.default_rng(5)
        region = HexRegion(1.0)
        for _ in range(50):
            ref = RefNode(Point2(rng.uniform(-2, 4), rng.uniform(-2, 4)))
            d_min, d_max = region.distance_extremes(ref)
            center_dist = math.hypot(ref.pos.x - 1.0, ref.pos.y - SQRT3 / 2)
            assert d_min <= center_dist + 1.0 + 1e-12
            assert d_min <= d_max

    def test_scaling(self):
        # at 1e-300 and 1e300 a squared edge length underflows or overflows
        for lam in (0.5, 2.0, 10.0, 1e-300, 1e300):
            d1 = HexRegion(1.0).distance_extremes(RefNode(Point2(2.2, -0.4)))
            d2 = HexRegion(lam).distance_extremes(RefNode(Point2(2.2 * lam, -0.4 * lam)))
            assert d2[0] == pytest.approx(lam * d1[0], rel=1e-12)
            assert d2[1] == pytest.approx(lam * d1[1], rel=1e-12)

    def test_nearest_distance_at_huge_side(self):
        side = 1e160
        d_min, _ = HexRegion(side).distance_extremes(RefNode(Point2(side, -1e158)))
        assert d_min == pytest.approx(0.01 * side, rel=1e-12)

    def test_overflowing_largest_distance_rejected(self):
        with pytest.raises(ValueError, match="too far"):
            HexRegion(5e307).distance_extremes(RefNode(Point2(-1e308, 0.0)))
