import hashlib
import math
import warnings

import numpy as np
import pytest

import rwphex as rp
from rwphex.hexgeom import SQRT3, HexRegion, Point2, RefNode, _unit_extremes
from rwphex import distance
from rwphex.distance import _BLOCK, _disk_mass, _hexagon_mass
from rwphex.marginals import _unit_tables
from rwphex.piecewise import PiecewisePolynomial

from conftest import mc_distance_cdf, quad_distance_cdf, run_fresh

CENTER = RefNode(Point2(1.0, SQRT3 / 2))
ORIGIN = RefNode(Point2(0.0, 0.0))
VERTEX = RefNode(Point2(0.5, 0.0))
FAR = RefNode(Point2(3.0, 3.0))
PAPER_NODES = {"corner": ORIGIN, "centre": CENTER, "vertex": VERTEX, "exterior": FAR}


def run_bounded(statement, timeout=10):
    """Run one library call in a fresh interpreter; print its result or error type.

    A call that used to loop without bound fails the test by timing out
    instead of hanging the suite.
    """
    code = ("import math, rwphex as rp\n"
            "from rwphex.hexgeom import Point2, RefNode\n"
            "nan, inf = math.nan, math.inf\n"
            f"try:\n    print(repr({statement}))\n"
            "except ValueError:\n    print('ValueError')\n")
    return run_fresh(code, timeout)


class TestProductMass:
    def test_reference_invariance(self):
        m1 = rp.product_mass_hexagon(ORIGIN, 1.0)
        m2 = rp.product_mass_hexagon(CENTER, 1.0)
        m3 = rp.product_mass_hexagon(FAR, 1.0)
        assert m1 == pytest.approx(m2, abs=1e-8)
        assert m1 == pytest.approx(m3, abs=1e-8)

    def test_at_most_one(self):
        assert rp.product_mass_hexagon(CENTER, 1.0) <= 1.0 + 1e-12

    def test_against_monte_carlo(self, product_density_cloud):
        xs, _, n_drawn = product_density_cloud
        p = len(xs) / n_drawn
        se = math.sqrt(p * (1 - p) / n_drawn)
        assert rp.product_mass_hexagon(CENTER, 1.0) == pytest.approx(p, abs=3 * se)


class TestDistanceCdf:
    def test_zero_radius(self):
        assert rp.distance_cdf(CENTER, 1.0, 0.0) == 0.0

    def test_beyond_max_distance(self):
        for ref in (CENTER, ORIGIN, FAR):
            _, d_max = HexRegion(1.0).distance_extremes(ref)
            assert rp.distance_cdf(ref, 1.0, d_max * 1.001) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("d", ["0.5", b"0.5", np.str_("0.5"), None, 0.5j, 10**400])
    def test_non_number_distance_rejected(self, d):
        with pytest.raises(ValueError, match="d must be"):
            rp.distance_cdf(CENTER, 1.0, d)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            rp.distance_cdf(CENTER, 1.0, -0.1)

    def test_center_against_monte_carlo(self, product_density_cloud):
        mc, se = mc_distance_cdf(product_density_cloud, CENTER.pos, 0.5)
        assert rp.distance_cdf(CENTER, 1.0, 0.5) == pytest.approx(mc, abs=3 * se)

    def test_monotonicity_random_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            ref = RefNode(Point2(rng.uniform(-1, 3), rng.uniform(-1, 3)))
            d1, d2 = np.sort(rng.uniform(0.0, 3.0, 2))
            assert rp.distance_cdf(ref, 1.0, d1) <= rp.distance_cdf(ref, 1.0, d2) + 1e-8

    def test_scale_invariance(self):
        for lam in (0.5, 3.0):
            for ref, d in ((ORIGIN, 1.2), (CENTER, 0.6), (FAR, 3.0)):
                scaled = RefNode(Point2(ref.pos.x * lam, ref.pos.y * lam))
                assert rp.distance_cdf(scaled, lam, d * lam) == pytest.approx(
                    rp.distance_cdf(ref, 1.0, d), abs=1e-7
                )

    def test_boundary_reference_continuity(self):
        # a reference exactly on the boundary behaves as the two-sided limit
        d = 0.8
        on_edge = rp.distance_cdf(RefNode(Point2(1.0, 0.0)), 1.0, d)
        just_in = rp.distance_cdf(RefNode(Point2(1.0, 1e-7)), 1.0, d)
        just_out = rp.distance_cdf(RefNode(Point2(1.0, -1e-7)), 1.0, d)
        assert on_edge == pytest.approx(just_in, abs=1e-5)
        assert on_edge == pytest.approx(just_out, abs=1e-5)


def _scalar_test_nodes():
    """The paper nodes and seeded nodes inside, within 1e-13 of an edge, and outside."""
    rng = np.random.default_rng(1701)
    region = HexRegion(1.0)
    nodes = list(PAPER_NODES.values())
    nodes += [RefNode(Point2(*p)) for p in region.sample_uniform_batch(4, rng)]
    verts = region.vertices()
    for i in rng.integers(0, 6, 6):
        a, b = verts[i], verts[(i + 1) % 6]
        s, off = rng.uniform(0, 1), rng.uniform(-1e-13, 1e-13)
        # the edge's outward normal is (dy, -dx) for counterclockwise vertices
        nodes.append(RefNode(Point2(a.x + s * (b.x - a.x) + off * (b.y - a.y),
                                    a.y + s * (b.y - a.y) - off * (b.x - a.x))))
    outside = rng.uniform(-3.0, 5.0, (40, 2))
    keep = ~region.contains_mask(outside[:, 0], outside[:, 1])
    nodes += [RefNode(Point2(*p)) for p in outside[keep][:4]]
    return nodes


class TestScalarMatchesCurve:
    @pytest.mark.parametrize("ref", _scalar_test_nodes(), ids=lambda r: f"{r.pos.x:.6g},{r.pos.y:.6g}")
    def test_bit_identical(self, ref):
        # a scalar query skips the block bookkeeping but keeps every value's bits
        curve = rp.distance_cdf_curve(ref, 1.0, 29)
        got = [rp.distance_cdf(ref, 1.0, float(d)) for d in curve.d_values]
        assert np.array(got).tobytes() == curve.cdf_values.tobytes()
        d_min, d_max = HexRegion(1.0).distance_extremes(ref)
        ends = [d_min, np.nextafter(d_min, np.inf), d_max, np.nextafter(d_max, 0.0)]
        (x1, y1), _, _ = _unit_extremes(ref, 1.0)
        want, _ = distance._cdf(x1, y1, np.array(ends), d_min, d_max)
        got = [rp.distance_cdf(ref, 1.0, float(d)) for d in ends]
        assert np.array(got).tobytes() == want.tobytes()
        assert got[0] == 0.0 and got[2] == 1.0


class TestDistanceCdfCurve:
    def test_two_points(self):
        curve = rp.distance_cdf_curve(CENTER, 1.0, 2)
        assert curve.cdf_values[0] == pytest.approx(0.0, abs=1e-6)
        assert curve.cdf_values[-1] == pytest.approx(1.0, abs=1e-6)

    def test_origin_curve_monotone(self):
        curve = rp.distance_cdf_curve(ORIGIN, 1.0, 40)
        assert curve.d_values[-1] == pytest.approx(math.sqrt(5.25), rel=1e-12)
        assert np.all(np.diff(curve.cdf_values) >= -1e-8)

    def test_exterior_reference_starts_at_exterior_dmin(self):
        curve = rp.distance_cdf_curve(FAR, 1.0, 20)
        d_min, _ = HexRegion(1.0).distance_extremes(FAR)
        assert d_min > 1.9
        assert curve.d_values[0] == pytest.approx(d_min, rel=1e-12)
        assert curve.cdf_values[0] == pytest.approx(0.0, abs=1e-6)

    def test_n_points_validation(self):
        with pytest.raises(ValueError):
            rp.distance_cdf_curve(CENTER, 1.0, 1)

    @pytest.mark.parametrize("n_points", [2.5, math.nan, 200.0, "5"])
    def test_n_points_must_be_an_integer(self, n_points):
        with pytest.raises(ValueError, match="n_points must be an integer"):
            rp.distance_cdf_curve(CENTER, 1.0, n_points)

    def test_n_points_limit_is_inclusive(self, monkeypatch):
        # the cap is read at call time, so a small one stands in for 10**6
        monkeypatch.setattr(distance, "MAX_CURVE_POINTS", 40)
        assert len(rp.distance_cdf_curve(CENTER, 1.0, 40).cdf_values) == 40
        with pytest.raises(ValueError, match="n_points must be at most 40"):
            rp.distance_cdf_curve(CENTER, 1.0, 41)

    def test_evaluation_order_independence(self):
        # each grid value must be independent of its neighbours
        curve = rp.distance_cdf_curve(VERTEX, 1.0, 11)
        for i in (2, 7):
            lone = rp.distance_cdf(VERTEX, 1.0, float(curve.d_values[i]))
            assert lone == curve.cdf_values[i]

    def test_blocks_match_single_values(self):
        # a grid spans several evaluation blocks; each value is still its own
        n = 3 * _BLOCK + 5
        curve = rp.distance_cdf_curve(CENTER, 1.0, n)
        for i in (0, _BLOCK + 1, 2 * _BLOCK + 1, n - 2, n - 1):
            assert rp.distance_cdf(CENTER, 1.0, float(curve.d_values[i])) == curve.cdf_values[i]

    def test_integrand_nodes_only_on_wide_intervals(self, monkeypatch):
        # all 21 cut intervals at 16 nodes would be 198 * 336 = 66,528 nodes
        nodes = []
        slice_mass = distance._slice_mass

        def counted(x, ylo, yhi):
            nodes.append(np.size(x))
            return slice_mass(x, ylo, yhi)

        _hexagon_mass()  # cached, so the curve below adds no call for it
        monkeypatch.setattr(distance, "_slice_mass", counted)
        rp.distance_cdf_curve(ORIGIN, 1.0, 200)
        assert 0 < sum(nodes) < 20_000
        assert len(nodes) == 1  # the whole curve is one integrand call

    def test_one_y_cdf_and_one_x_pdf_call(self, monkeypatch):
        # a scalar query evaluates the y-CDF once, on both slice ends, and the
        # x-PDF once; the integrand clamps its own arguments, so it calls the
        # unchecked evaluator
        calls = []
        horner = PiecewisePolynomial._horner

        def counted(pp, t):
            calls.append(pp)
            return horner(pp, t)

        _hexagon_mass()  # cached, so the query below adds no call for it
        monkeypatch.setattr(PiecewisePolynomial, "_horner", counted)
        rp.distance_cdf(CENTER, 1.0, 0.5)
        assert calls == [_unit_tables("y")["stationary_cdf"], _unit_tables("x")["stationary_pdf"]]

    def test_just_above_exterior_dmin(self):
        d_min, _ = HexRegion(1.0).distance_extremes(FAR)
        for d in (np.nextafter(d_min, np.inf), d_min * (1 + 1e-12), d_min + 1e-6):
            assert 0.0 <= rp.distance_cdf(FAR, 1.0, float(d)) <= 1.0


class TestWorkCount:
    @staticmethod
    def _rule_columns(monkeypatch, call):
        """The columns ``_rule`` receives while ``call`` runs, counted by a spy."""
        columns = []
        rule = distance._rule

        def counted(lo, hi):
            columns.append(np.size(lo))
            return rule(lo, hi)

        _hexagon_mass()  # cached, so its panels are not counted
        monkeypatch.setattr(distance, "_rule", counted)
        result = call()
        monkeypatch.undo()
        return result, sum(columns)

    @pytest.mark.parametrize("name, intervals", [("corner", 948), ("centre", 646),
                                                 ("vertex", 920), ("exterior", 1217)])
    def test_paper_curves(self, monkeypatch, name, intervals):
        curve, columns = self._rule_columns(
            monkeypatch, lambda: rp.distance_cdf_curve(PAPER_NODES[name], 1.0, 200))
        assert type(curve.intervals) is int
        assert curve.intervals == columns == intervals

    def test_curve_of_several_blocks(self, monkeypatch):
        curve, columns = self._rule_columns(
            monkeypatch, lambda: rp.distance_cdf_curve(VERTEX, 2.5, 3 * _BLOCK + 5))
        assert curve.intervals == columns > 3 * _BLOCK

    def test_curve_built_by_hand_counts_nothing(self):
        curve = rp.CdfCurve(np.array([0.0, 1.0]), np.array([0.0, 1.0]), CENTER, 1.0)
        assert curve.intervals == 0


class TestMassInternals:
    def test_disk_none_equals_large_disk(self):
        full = _hexagon_mass()
        big = _disk_mass(*CENTER.pos, np.array([10.0]))[0][0]
        assert big == pytest.approx(full, abs=1e-8)


class TestRuleConvergence:
    def test_24_point_rule_agrees(self):
        # a finer panel on every cut interval moves no paper-node curve
        refs = list(PAPER_NODES.values())
        base = [rp.distance_cdf_curve(ref, 1.0, 200).cdf_values for ref in refs]
        nodes, weights = np.polynomial.legendre.leggauss(24)
        _hexagon_mass.cache_clear()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(distance, "_NODES", nodes)
                mp.setattr(distance, "_WEIGHTS", weights)
                fine = [rp.distance_cdf_curve(ref, 1.0, 200).cdf_values for ref in refs]
        finally:
            _hexagon_mass.cache_clear()
        for b, f in zip(base, fine):
            assert np.max(np.abs(f - b)) <= 1e-13


def test_headline_curves_are_pinned():
    # SHA-256 of the four paper-node curves at side 1 (grid and values) and of
    # scalar queries at every tenth grid point, scaled to sides 2.5 and 777
    h = hashlib.sha256()
    for ref in PAPER_NODES.values():
        curve = rp.distance_cdf_curve(ref, 1.0, 200)
        h.update(curve.d_values.tobytes())
        h.update(curve.cdf_values.tobytes())
        for side in (2.5, 777.0):
            scaled = RefNode(Point2(ref.pos.x * side, ref.pos.y * side))
            values = [rp.distance_cdf(scaled, side, d * side) for d in curve.d_values[::10]]
            h.update(np.array(values).tobytes())
    assert h.hexdigest() == "2be3b15a6b667950ffbd24164db3b85e1b73ecd64414692223177358f7303836"


def _sweep_nodes():
    """The six vertices, points 1e-13 and 1e-7 off each along both diagonals,
    and 40 seeded nodes in [-3, 5]^2."""
    rng = np.random.default_rng(2021)
    nodes = []
    for v in HexRegion(1.0).vertices():
        nodes.append((v.x, v.y))
        for e in (1e-13, 1e-7):
            nodes += [(v.x + sx * e, v.y + sy * e) for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    return nodes + [tuple(p) for p in rng.uniform(-3.0, 5.0, (40, 2))]


def test_node_sweep_is_pinned():
    # SHA-256 of a 97-point curve and seven scalar queries per node, at sides 1
    # and 2.5.  Three queries lie just above d_min, where the disk cuts a
    # lens thinner than 1e-12 from a vertex or an edge: there x or a slice end
    # can round across a table breakpoint inside one cut interval, and a
    # piece read for the interval instead of the point moves the value.
    h = hashlib.sha256()
    for side in (1.0, 2.5):
        for x, y in _sweep_nodes():
            ref = RefNode(Point2(x * side, y * side))
            curve = rp.distance_cdf_curve(ref, side, 97)
            d_min = float(curve.d_values[0])
            ds = [*curve.d_values[5::23], np.nextafter(d_min, np.inf), d_min * (1 + 1e-15),
                  d_min * (1 + 1e-12)]
            h.update(curve.cdf_values.tobytes())
            h.update(np.array([rp.distance_cdf(ref, side, float(d)) for d in ds]).tobytes())
    assert h.hexdigest() == "792ffe8cf82357b4834731f0e82cf570dc1dd461f17af6dba732991bd4a8440c"


class TestQuadOracle:
    @pytest.mark.parametrize("name", PAPER_NODES)
    def test_matches_nested_quad(self, name):
        ref = PAPER_NODES[name]
        d_min, d_max = HexRegion(1.0).distance_extremes(ref)
        for frac in (0.3, 0.7):
            d = d_min + frac * (d_max - d_min)
            assert abs(rp.distance_cdf(ref, 1.0, d) - quad_distance_cdf(ref.pos, d)) <= 1e-12

    @pytest.mark.parametrize("offset", [1e-8, 1e-7, 1e-6])
    def test_matches_nested_quad_near_a_vertex(self, offset):
        # the disk meets y = sqrt(3)/2 less than 1e-12 left of its right end,
        # x1 + d: a kink kept there gave quad a sliver panel, an
        # IntegrationWarning and an error of up to 3e-6
        pos = (offset, SQRT3 / 2 + offset)
        ref = RefNode(Point2(*pos))
        for d in (1.2, 1.49, 1.5, 1.7):
            assert abs(rp.distance_cdf(ref, 1.0, d) - quad_distance_cdf(pos, d)) <= 1e-12


def _mirror_nodes():
    """The four paper nodes, three edge midpoints, three vertices, three
    exterior nodes and eleven seeded nodes around the cell."""
    nodes = [(ref.pos.x, ref.pos.y) for ref in PAPER_NODES.values()]
    nodes += [(0.25, SQRT3 / 4), (1.0, 0.0), (1.75, 3 * SQRT3 / 4)]
    nodes += [(1.5, 0.0), (2.0, SQRT3 / 2), (0.0, SQRT3 / 2)]
    nodes += [(-1.0, 0.3), (2.5, 2.0), (1.0, -0.5)]
    rng = np.random.default_rng(16)
    return nodes + [tuple(p) for p in rng.uniform((-1.0, -1.0), (3.0, 2.7), (11, 2))]


@pytest.mark.parametrize("x, y", _mirror_nodes())
def test_product_model_is_mirror_invariant(x, y):
    # f_X is symmetric about x = 1 and f_Y about y = sqrt(3)/2, so the node's
    # three mirror images see the same distance CDF
    curves = [rp.distance_cdf_curve(RefNode(Point2(mx, my)), 1.0, 200)
              for mx, my in ((x, y), (2.0 - x, y), (x, SQRT3 - y), (2.0 - x, SQRT3 - y))]
    for curve in curves[1:]:
        assert np.abs(curve.d_values - curves[0].d_values).max() <= 1e-14
        assert np.abs(curve.cdf_values - curves[0].cdf_values).max() <= 1e-14


class TestExactEnds:
    def test_far_reference_at_extremes(self):
        ref = RefNode(Point2(1e8, 1e8))
        d_min, d_max = HexRegion(1.0).distance_extremes(ref)
        assert rp.distance_cdf(ref, 1.0, d_max) == 1.0
        assert rp.distance_cdf(ref, 1.0, d_min) == 0.0

    @pytest.mark.parametrize("name", PAPER_NODES)
    def test_curve_ends(self, name):
        curve = rp.distance_cdf_curve(PAPER_NODES[name], 2.5, 5)
        assert curve.cdf_values[0] == 0.0
        assert curve.cdf_values[-1] == 1.0


class TestNonFiniteInput:
    @pytest.mark.parametrize("statement", [
        "rp.distance_cdf(RefNode(Point2(nan, 0.0)), 1.0, 0.5)",
        "rp.distance_cdf(RefNode(Point2(0.0, inf)), 1.0, 0.5)",
        "rp.distance_cdf(RefNode(Point2(0.0, 0.0)), nan, 0.5)",
        "rp.distance_cdf(RefNode(Point2(0.0, 0.0)), inf, 0.5)",
        "rp.distance_cdf(RefNode(Point2(0.0, 0.0)), 1.0, nan)",
        "rp.distance_cdf(RefNode(Point2(0.0, 0.0)), 1.0, inf)",
        "rp.distance_cdf_curve(RefNode(Point2(nan, 0.0)), 1.0, 5)",
        "rp.distance_cdf_curve(RefNode(Point2(0.0, 0.0)), inf, 5)",
        "rp.distance_cdf_curve(RefNode(Point2(0.0, 0.0)), 1e308, 5)",
        "rp.product_mass_hexagon(RefNode(Point2(nan, 0.0)), 1.0)",
        "rp.product_mass_hexagon(RefNode(Point2(0.0, 0.0)), inf)",
    ])
    def test_rejected(self, statement):
        assert run_bounded(statement) == "ValueError"

    def test_huge_side_gives_finite_distances(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = rp.distance_cdf_curve(ORIGIN, 5e307, 5)
        assert np.isfinite(curve.d_values).all()

    def test_huge_side_answers_as_at_side_one(self):
        assert rp.distance_cdf(ORIGIN, 1e308, 1e308) == rp.distance_cdf(ORIGIN, 1.0, 1.0)
        # the node is (-2, 0) at side 1, and its largest distance overflows at 5e307
        far = RefNode(Point2(-1e308, 0.0))
        want = rp.distance_cdf(RefNode(Point2(-2.0, 0.0)), 1.0, 3.0)
        assert rp.distance_cdf(far, 5e307, 1.5e308) == want

    def test_node_far_at_caller_scale_but_finite_at_side_one(self):
        # |ref| overflows, but ref / side is (1.5e8, 1.5e8)
        ref = RefNode(Point2(1.5e308, 1.5e308))
        assert rp.distance_cdf(ref, 1e300, 1.0) == 0.0
        assert rp.product_mass_hexagon(ref, 1e300) == rp.product_mass_hexagon(ORIGIN, 1.0)

    def test_curve_beyond_reach_says_too_far(self):
        # a * d_max overflows: the message is the one distance_extremes gives
        with pytest.raises(ValueError, match="too far"):
            rp.distance_cdf_curve(ORIGIN, 1e308, 5)

    def test_tiny_scale_returns(self):
        got = float(run_bounded("rp.distance_cdf(RefNode(Point2(0.0, 0.0)), 1e-200, 1e-200)"))
        assert got == pytest.approx(rp.distance_cdf(ORIGIN, 1.0, 1.0), abs=1e-12)
