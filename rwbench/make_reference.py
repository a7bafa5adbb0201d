"""Regenerate ``data/reference.json``, the benchmark's frozen accuracy reference.

    PYTHONPATH=src python3 rwbench/make_reference.py

It takes a few minutes on one core.  The distance CDF values come from the
library's own quadrature at a much tighter tolerance than its default
(abs_tol 1e-11, depth 40), and a subset of them is cross-checked against an
independent nested ``scipy.integrate.quad`` of f_X * f_Y over hexagon and
disk.  Marginal values are exact: the leg-length expectations are integrated
over ``Fraction`` from waypoint densities written out here, then evaluated at
rational coordinates.
"""

import json
import math
import sys
import time
from fractions import Fraction

import numpy as np
from scipy import integrate

import reference as R
import rwphex as rp
from rwphex import _exact
from rwphex.hexgeom import HexRegion, Point2, RefNode

TIGHT = rp.QuadratureSpec(abs_tol=1e-11, max_subdivisions=40)
SEED = 2021
N_INTERIOR, N_EXTERIOR, D_PER_REF = 28, 32, 6
N_MARGINAL = 48          # coordinates per (axis, kind)
N_CROSSCHECK = 24
F = Fraction

# Waypoint densities at side 1: x on [0, 2]; y in the unit variable u = y/sqrt(3).
_s = _exact.variable(_exact.S)
WAYPOINT = {
    "x": ([F(0), F(1, 2), F(3, 2), F(2)],
          [_exact.mul(_exact.const(F(4, 3)), _s),
           _exact.const(F(2, 3)),
           _exact.add(_exact.const(F(8, 3)), _exact.mul(_exact.const(F(-4, 3)), _s))]),
    "y": ([F(0), F(1, 2), F(1)],
          [_exact.add(_exact.const(F(2, 3)), _exact.mul(_exact.const(F(4, 3)), _s)),
           _exact.add(_exact.const(F(2)), _exact.mul(_exact.const(F(-4, 3)), _s))]),
}


def _horner(coeffs, t):
    out = F(0)
    for c in reversed(coeffs):
        out = out * t + c
    return out


def exact_marginals(rng):
    """Rows (axis, kind, coordinate, value) at rational coordinates."""
    rows = []
    for axis, (breaks, pieces) in WAYPOINT.items():
        expected, branches = _exact.leg_expectations(pieces, breaks)
        cdf = [[c / expected for c in _exact.coefficients(b)] for b in branches]
        pdf = [[k * c[k] for k in range(1, len(c))] for c in cdf]
        top = int(breaks[-1] * 256)
        for kind, table in (("cdf", cdf), ("pdf", pdf)):
            ks = sorted({0, top, *rng.integers(0, top + 1, N_MARGINAL - 2).tolist()})
            for k in ks:
                t = F(int(k), 256)
                piece = min(i for i in range(len(breaks) - 1)
                            if t < breaks[i + 1] or i == len(breaks) - 2)
                value = float(_horner(table[piece], t))
                coord = float(t)
                if axis == "y":
                    coord *= R.SQRT3
                    if kind == "pdf":
                        value /= R.SQRT3
                rows.append([axis, kind, coord, value])
    return rows


def point_refs(rng):
    region = HexRegion(1.0)
    refs = list(R.PAPER_REFS.values())
    while len(refs) < 4 + N_INTERIOR:
        p = (float(rng.uniform(0, 2)), float(rng.uniform(0, R.SQRT3)))
        if region.contains(p):
            refs.append(p)
    # up to two cell widths (4 sides) beyond the bounding box
    while len(refs) < 4 + N_INTERIOR + N_EXTERIOR:
        p = (float(rng.uniform(-4, 6)), float(rng.uniform(-4, R.SQRT3 + 4)))
        if not region.contains(p):
            refs.append(p)
    return refs


def point_table(rng):
    rows = []
    region = HexRegion(1.0)
    for i, (x, y) in enumerate(point_refs(rng)):
        ref = RefNode(Point2(x, y))
        d_min, d_max = region.distance_extremes(ref)
        ds = [d_min + float(u) * (d_max - d_min) for u in rng.uniform(0, 1, D_PER_REF - 1)]
        ds.append(d_max if i % 2 == 0 else d_min)
        for d in ds:
            rows.append([x, y, d, rp.distance_cdf(ref, 1.0, d, TIGHT)])
    return rows


def _kinks(x1, y1, d):
    """Abscissae where the outer integrand of the scipy cross-check has a kink."""
    pts = [0.5, 1.5, x1 - d, x1 + d]
    for yc in (0.0, R.SQRT3 / 2, R.SQRT3):
        if abs(yc - y1) < d:
            r = math.sqrt(d * d - (yc - y1) ** 2)
            pts += [x1 - r, x1 + r]
    verts = HexRegion(1.0).vertices()
    for (px, py), (qx, qy) in zip(verts, verts[1:] + verts[:1]):
        # circle |p + t (q - p) - ref| = d along each edge
        vx, vy, wx, wy = qx - px, qy - py, px - x1, py - y1
        a, b, c = vx * vx + vy * vy, 2 * (vx * wx + vy * wy), wx * wx + wy * wy - d * d
        disc = b * b - 4 * a * c
        if disc >= 0:
            for t in ((-b - math.sqrt(disc)) / (2 * a), (-b + math.sqrt(disc)) / (2 * a)):
                if 0 <= t <= 1:
                    pts.append(px + t * vx)
    return sorted(p for p in pts if 0 < p < 2)


def scipy_cdf(x1, y1, d):
    """Independent nested-quad value of the paper model's distance CDF at side 1."""
    mx, my = rp.axis_marginal("x", 1.0), rp.axis_marginal("y", 1.0)

    def slice_mass(x, disk):
        ylo = R.SQRT3 * max(0.0, 0.5 - x, x - 1.5)
        yhi = R.SQRT3 - ylo
        if disk:
            c = math.sqrt(max(d * d - (x - x1) ** 2, 0.0))
            ylo, yhi = max(ylo, y1 - c), min(yhi, y1 + c)
        if yhi <= ylo:
            return 0.0
        pts = [R.SQRT3 / 2] if ylo < R.SQRT3 / 2 < yhi else None
        return integrate.quad(my.stationary_pdf, ylo, yhi, points=pts,
                              epsabs=1e-15, epsrel=1e-13, limit=200)[0]

    def mass(disk):
        lo, hi = (max(0.0, x1 - d), min(2.0, x1 + d)) if disk else (0.0, 2.0)
        if hi <= lo:
            return 0.0
        pts = [p for p in (_kinks(x1, y1, d) if disk else [0.5, 1.5]) if lo < p < hi]
        return integrate.quad(lambda x: mx.stationary_pdf(x) * slice_mass(x, disk),
                              lo, hi, points=pts or None, epsabs=1e-14, epsrel=1e-12,
                              limit=500)[0]

    return mass(True) / mass(False)


def main():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    curves = {}
    for name, (x, y) in R.PAPER_REFS.items():
        c = rp.distance_cdf_curve(RefNode(Point2(x, y)), 1.0, R.CURVE_POINTS, TIGHT)
        curves[name] = {"ref": [x, y], "d": c.d_values.tolist(), "cdf": c.cdf_values.tolist()}
        print(f"curve {name}: {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    points = point_table(rng)
    print(f"points: {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    marginals = exact_marginals(rng)

    candidates = [(c["ref"][0], c["ref"][1], d, v)
                  for c in curves.values() for d, v in zip(c["d"], c["cdf"])]
    candidates += [tuple(p) for p in points]
    picks = rng.choice(len(candidates), N_CROSSCHECK, replace=False)
    crosscheck = []
    for i in sorted(picks.tolist()):
        x, y, d, v = candidates[i]
        s = scipy_cdf(x, y, d)
        crosscheck.append({"ref": [x, y], "d": d, "reference": v, "scipy": s, "diff": abs(s - v)})
    worst = max(c["diff"] for c in crosscheck)
    print(f"scipy cross-check: max |diff| = {worst:.3e} over {len(crosscheck)} points, "
          f"{time.perf_counter() - t0:.1f}s", file=sys.stderr)
    if worst > 1e-9:
        raise SystemExit("reference and scipy cross-check disagree")

    out = {
        "about": "rwphex paper-model distance CDF and exact marginals at side 1; "
                 "generated by rwbench/make_reference.py",
        "quadrature": {"abs_tol": TIGHT.abs_tol, "max_subdivisions": TIGHT.max_subdivisions},
        "seed": SEED,
        "curves": curves,
        "points": points,
        "marginals": marginals,
        "crosscheck": crosscheck,
        "crosscheck_max_diff": worst,
    }
    with open(R.PATH, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
