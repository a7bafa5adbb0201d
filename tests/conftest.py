"""Shared oracles for the test suite.

The oracles here deliberately avoid the closed-form branch polynomials in
the package: leg-length expectations are re-done with fixed-order 2D
Gauss-Legendre quadrature from the waypoint densities and min/max segment
logic, and distance-CDF values come from rejection-sampled Monte Carlo and
from nested adaptive quadrature (scipy) of the stationary densities over
hexagon ∩ disk, in x and y rather than the library's angle variable.  The
area of hexagon ∩ disk, the distance integrand's cut geometry under a unit
density, comes in closed form, edge by edge.
"""

import bisect
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import settings

SQRT3 = math.sqrt(3.0)

# the hypothesis settings of every property test: fixed examples, no database
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def run_fresh(code, timeout=10):
    """Run ``code`` in a fresh interpreter that imports this rwphex; return its output.

    No call made earlier in the test run can then answer for one in ``code``.
    """
    import rwphex

    src = os.path.dirname(os.path.dirname(rwphex.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=timeout)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


# ---------------------------------------------------------------------------
# waypoint densities written out independently (area-ratio marginals)

def waypoint_x(s, a=1.0):
    s = np.asarray(s, dtype=float)
    return np.where(
        s <= a / 2, 4 * s / (3 * a * a),
        np.where(s <= 3 * a / 2, 2 / (3 * a), 4 * (2 * a - s) / (3 * a * a)),
    )


def waypoint_y(s, a=1.0):
    s = np.asarray(s, dtype=float)
    return np.where(
        s <= SQRT3 * a / 2,
        2 * (SQRT3 * a + 2 * s) / (9 * a * a),
        (6 * SQRT3 * a - 4 * s) / (9 * a * a),
    )


X_BREAKS = (0.0, 0.5, 1.5, 2.0)
Y_BREAKS = (0.0, SQRT3 / 2, SQRT3)
# the unit cell's vertices, counterclockwise
HEX_VERTS = [(0.0, SQRT3 / 2), (0.5, 0.0), (1.5, 0.0), (2.0, SQRT3 / 2), (1.5, SQRT3), (0.5, SQRT3)]


# ---------------------------------------------------------------------------
# Gauss-Legendre leg-length oracle

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _gl_rect(f, slo, shi, dlo, dhi):
    """Tensor Gauss-Legendre integral of f(s, d) over a rectangle."""
    hs, hd = 0.5 * (shi - slo), 0.5 * (dhi - dlo)
    s = 0.5 * (slo + shi) + hs * _GL_NODES
    d = 0.5 * (dlo + dhi) + hd * _GL_NODES
    S, D = np.meshgrid(s, d, indexing="ij")
    W = np.outer(_GL_WEIGHTS, _GL_WEIGHTS)
    return hs * hd * float(np.sum(W * f(S, D)))


def _gl_upper_triangle(f, lo, hi):
    """Integral of f(s, d) over lo < s < d < hi via the map d = s + u(hi-s)."""
    hs = 0.5 * (hi - lo)
    s = 0.5 * (lo + hi) + hs * _GL_NODES
    u = 0.5 + 0.5 * _GL_NODES
    S, U = np.meshgrid(s, u, indexing="ij")
    D = S + U * (hi - S)
    jac = hs * 0.5 * (hi - S)
    W = np.outer(_GL_WEIGHTS, _GL_WEIGHTS)
    return float(np.sum(W * jac * f(S, D)))


def leg_below_oracle(x, density, breaks):
    """E of the leg portion below x, for i.i.d. waypoints with ``density``.

    Integrates 2 * l(s, d) * density(s) * density(d) over s < d where
    l(s, d) = max(0, min(d, x) - s) for s < x.  The plane is cut at the
    density breakpoints and at x so every cell integrand is smooth, making
    the fixed-order rule effectively exact.
    """
    cuts = sorted(set(list(breaks) + [float(x)]))
    cuts = [c for c in cuts if breaks[0] <= c <= breaks[-1]]

    def f(S, D):
        below = np.clip(np.minimum(D, x) - S, 0.0, None)
        return 2.0 * below * density(S) * density(D)

    total = 0.0
    for i in range(len(cuts) - 1):
        total += _gl_upper_triangle(f, cuts[i], cuts[i + 1])
        for j in range(i + 1, len(cuts) - 1):
            total += _gl_rect(f, cuts[i], cuts[i + 1], cuts[j], cuts[j + 1])
    return total


def expected_leg_oracle(density, breaks):
    return leg_below_oracle(breaks[-1], density, breaks)


# ---------------------------------------------------------------------------
# Monte Carlo oracle for the distance CDF

def sample_axis(pdf, hi, rng, n, pdf_max):
    """Rejection-sample n points from a bounded density on [0, hi]."""
    out = []
    got = 0
    while got < n:
        m = int(1.3 * (n - got) * hi * pdf_max) + 1000
        t = rng.uniform(0.0, hi, m)
        u = rng.uniform(0.0, pdf_max, m)
        acc = t[u < pdf(t)]
        out.append(acc)
        got += len(acc)
    return np.concatenate(out)[:n]


@pytest.fixture(scope="session")
def product_density_cloud():
    """In-hexagon points drawn from the product of the stationary marginals.

    Returns (xs, ys, n_drawn): accepted coordinates plus the pre-rejection
    draw count, shared across tests that need the Monte Carlo oracle.
    """
    import rwphex as rp
    from rwphex.hexgeom import HexRegion

    rng = np.random.default_rng(2024)
    n = 10_000_000
    mx = rp.axis_marginal("x", 1.0)
    my = rp.axis_marginal("y", 1.0)
    xs = sample_axis(mx.stationary_pdf, 2.0, rng, n, 0.96)
    ys = sample_axis(my.stationary_pdf, SQRT3, rng, n, 0.96)
    keep = HexRegion(1.0).contains_mask(xs, ys)
    return xs[keep], ys[keep], n


def mc_distance_cdf(cloud, ref, d):
    """Fraction of the cloud closer than d to ref, with its standard error.

    ``d`` may be an array: the distances are computed and sorted once, and
    each count of points closer than d is one binary search.
    """
    xs, ys, _ = cloud
    dist = np.sort(np.hypot(xs - ref[0], ys - ref[1]))
    p = np.searchsorted(dist, d, side="left") / len(xs)
    se = np.sqrt(np.maximum(p * (1 - p), 1e-12) / len(xs))
    return p, se


# ---------------------------------------------------------------------------
# nested adaptive quadrature oracle for the distance CDF

def _hex_slice(x):
    """y-range of the unit hexagon's vertical slice at x."""
    lo = SQRT3 * max(0.0, 0.5 - x, x - 1.5)
    return lo, SQRT3 - lo


def _disk_kinks(ref, d):
    """x-coordinates where unit hexagon ∩ disk has a kink in its slice bounds."""
    x1, y1 = ref
    xs = [0.5, 1.5, x1 - d, x1 + d]
    for yc in (0.0, SQRT3 / 2, SQRT3):
        if abs(yc - y1) < d:
            h = math.sqrt(d * d - (yc - y1) ** 2)
            xs += [x1 - h, x1 + h]
    for (px, py), (qx, qy) in zip(HEX_VERTS, HEX_VERTS[1:] + HEX_VERTS[:1]):
        # |p + t (q - p) - ref|^2 = d^2 as a quadratic in t
        coeffs = [(qx - px) ** 2 + (qy - py) ** 2,
                  2 * ((qx - px) * (px - x1) + (qy - py) * (py - y1)),
                  (px - x1) ** 2 + (py - y1) ** 2 - d * d]
        for t in np.roots(coeffs):
            if abs(t.imag) < 1e-12 and 0.0 <= t.real <= 1.0:
                xs.append(float(px + t.real * (qx - px)))
    # one crossing found twice (a line and an edge) must not leave a sliver
    kinks = []
    for x in sorted(x for x in xs if 0.0 < x < 2.0):
        if not kinks or x - kinks[-1] > 1e-12:
            kinks.append(x)
    return kinks


def _pointwise(pp):
    """Scalar Horner evaluator of a piecewise polynomial, for quad's many calls;
    each piece is a polynomial in t minus its left breakpoint, or minus the
    top end for the last piece."""
    breaks = pp.breakpoints.tolist()
    pieces = [c.tolist()[::-1] for c in pp.coeffs]
    origins = breaks[:-2] + breaks[-1:]

    def f(t):
        i = min(max(bisect.bisect_right(breaks, t) - 1, 0), len(pieces) - 1)
        s, v = t - origins[i], 0.0
        for c in pieces[i]:
            v = v * s + c
        return v

    return f


def pdf_mass(pp):
    """Mass of a piecewise density over its domain, by quad cut at its breakpoints."""
    from scipy.integrate import quad

    return quad(pp, *pp.domain, points=pp.breakpoints[1:-1])[0]


def quad_product_mass(ref=None, d=None):
    """f_X * f_Y mass on the hexagon, or on hexagon ∩ disk(ref, d), by nested quad.

    The outer integral over x is split at every kink of the slice bounds, and
    the inner integral over y at the y-marginal's breakpoint.
    """
    from scipy.integrate import quad

    from rwphex.marginals import _unit_tables

    f_x = _pointwise(_unit_tables("x")["stationary_pdf"])
    f_y = _pointwise(_unit_tables("y")["stationary_pdf"])
    tol = dict(epsabs=1e-14, epsrel=1e-13, limit=200)

    def inner(x):
        lo, hi = _hex_slice(x)
        if d is not None:
            c = math.sqrt(max(d * d - (x - ref[0]) ** 2, 0.0))
            lo, hi = max(lo, ref[1] - c), min(hi, ref[1] + c)
        if hi <= lo:
            return 0.0
        if hi - lo < 1e-9:  # quad reports round-off on slivers; midpoint is exact enough
            return f_x(x) * f_y(0.5 * (lo + hi)) * (hi - lo)
        pts = [SQRT3 / 2] if lo < SQRT3 / 2 < hi else None
        return f_x(x) * quad(f_y, lo, hi, points=pts, **tol)[0]

    if d is None:
        lo, hi, kinks = 0.0, 2.0, [0.5, 1.5]
    else:
        lo, hi = max(0.0, ref[0] - d), min(2.0, ref[0] + d)
        # a kink within 1e-12 of an end would leave quad a sliver panel
        kinks = [x for x in _disk_kinks(ref, d) if lo + 1e-12 < x < hi - 1e-12]
    if hi <= lo:
        return 0.0
    return quad(inner, lo, hi, points=kinks or None, **tol)[0]


def quad_distance_cdf(ref, d):
    """Distance CDF at side 1 as a ratio of two nested-quad masses."""
    return quad_product_mass(ref, d) / quad_product_mass()


# ---------------------------------------------------------------------------
# closed-form area of the unit hexagon ∩ disk

def _triangle_disk_area(ax, ay, bx, by, r):
    """Signed area of the triangle (origin, A, B) ∩ disk(origin, r): positive
    when the triangle runs counterclockwise.

    The circle cuts segment AB into at most three pieces, each wholly inside
    or outside the disk.  An inside piece PQ adds the triangle (origin, P, Q),
    and an outside one the sector of radius r between P and Q.
    """
    dx, dy = bx - ax, by - ay
    # |A + t (B - A)|^2 = r^2 as qa t^2 + 2 qb t + qc = 0
    qa, qb, qc = dx * dx + dy * dy, ax * dx + ay * dy, ax * ax + ay * ay - r * r
    disc = qb * qb - qa * qc
    ts = [0.0]
    if disc > 0:
        root = math.sqrt(disc)
        ts += [t for t in ((-qb - root) / qa, (-qb + root) / qa) if 0.0 < t < 1.0]
    ts.append(1.0)
    area = 0.0
    for t0, t1 in zip(ts, ts[1:]):
        px, py, qx, qy = ax + t0 * dx, ay + t0 * dy, ax + t1 * dx, ay + t1 * dy
        cross = px * qy - py * qx
        mid = 0.5 * (t0 + t1)
        # strictly inside: a tangent segment touches the disk only at its midpoint
        if (ax + mid * dx) ** 2 + (ay + mid * dy) ** 2 < r * r:
            area += 0.5 * cross
        else:
            area += 0.5 * r * r * math.atan2(cross, px * qx + py * qy)
    return area


def hexagon_disk_area(x1, y1, r):
    """Exact area of the unit hexagon ∩ disk((x1, y1), r), at any node: the sum
    over the six edges of the signed area of triangle (node, edge) ∩ disk."""
    verts = [(x - x1, y - y1) for x, y in HEX_VERTS]
    return sum(_triangle_disk_area(*p, *q, r) for p, q in zip(verts, verts[1:] + verts[:1]))
