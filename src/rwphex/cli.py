"""Command-line front end: analytic curves, simulation, and comparison.

Exit codes: 0 success (or comparison pass), 1 comparison failure, 2 usage
or input error, including a NaN or infinite number.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import __version__, distance
from .hexgeom import HexRegion, Point2, RefNode, _count
from .distance import distance_cdf_curve
from .marginals import axis_marginal
from .sim import SimConfig, distances_to, simulate, uniform_node_distances

EXIT_OK = 0
EXIT_COMPARE_FAIL = 1
EXIT_USAGE = 2


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


_CSV_CHUNK = 1 << 14  # rows formatted per write


def _write_csv(path, header, *columns):
    """Write equal-length columns as CSV rows, each value as ``_fmt`` gives it."""
    table = np.column_stack(columns).astype(float)
    line = ",".join(["%.17g"] * len(columns)) + "\n"  # same text as _fmt
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for lo in range(0, len(table), _CSV_CHUNK):
                chunk = table[lo:lo + _CSV_CHUNK]
                fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
    except OSError as exc:
        raise SystemExit(f"cannot write {path}: {exc}") from exc


def _write_manifest(args, started, **extra):
    """Write ``<out>.manifest``: the command, every parsed option and ``extra``."""
    params = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    params.update(extra)
    lines = [f"command={args.command}"]
    for key in sorted(params):
        lines.append(f"{key}={params[key]}")
    lines.append(f"version={__version__}")
    lines.append(f"wall_clock_s={time.monotonic() - started:.3f}")
    try:
        with open(str(args.out) + ".manifest", "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise SystemExit(f"cannot write manifest: {exc}") from exc


def _grid_n(args) -> int:
    """``--grid-n``; ValueError, before any work, unless 2 <= n <= ``MAX_CURVE_POINTS``."""
    return _count(args.grid_n, "--grid-n", 2, distance.MAX_CURVE_POINTS)


def cmd_marginals(args) -> int:
    started = time.monotonic()
    grid_n = _grid_n(args)
    m = axis_marginal(args.axis, args.side)
    grid = np.linspace(*m.stationary_cdf.domain, grid_n)
    _write_csv(args.out, ("coord", "pdf", "cdf"),
               grid, m.stationary_pdf(grid), m.stationary_cdf(grid))
    _write_manifest(args, started)
    return EXIT_OK


def cmd_distance_cdf(args) -> int:
    started = time.monotonic()
    grid_n = _grid_n(args)
    ref = RefNode(Point2(args.ref_x, args.ref_y))
    curve = distance_cdf_curve(ref, args.side, grid_n)
    _write_csv(args.out, ("d", "cdf"), curve.d_values, curve.cdf_values)
    _write_manifest(args, started)
    return EXIT_OK


def _ecdf_rows(samples):
    """Distinct sample values and #(samples <= value) / n at each."""
    values, counts = np.unique(samples, return_counts=True)
    return values, np.cumsum(counts) / len(samples)


def cmd_simulate(args) -> int:
    started = time.monotonic()
    # refuse a bad or unreachably far node before simulating
    ref = RefNode(Point2(args.ref_x, args.ref_y))
    config = SimConfig(side=args.side, v_min=args.v_min, v_max=args.v_max,
                       duration=args.duration, sample_interval=args.dt,
                       seed=args.seed)
    HexRegion(args.side).distance_extremes(ref)
    trace = simulate(config)
    dists = distances_to(trace, ref)
    _write_csv(args.out, ("d", "ecdf"), *_ecdf_rows(dists))
    _write_manifest(args, started, legs=len(trace.waypoints) - 1, samples=len(trace))
    return EXIT_OK


def cmd_baseline(args) -> int:
    started = time.monotonic()
    rng = np.random.default_rng(args.seed)
    dists = uniform_node_distances(HexRegion(args.side),
                                   RefNode(Point2(args.ref_x, args.ref_y)),
                                   args.n, rng)
    _write_csv(args.out, ("d", "ecdf"), *_ecdf_rows(dists))
    _write_manifest(args, started)
    return EXIT_OK


def _read_curve(path):
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot parse {path}: {exc}") from exc
    if len(header) != 2 or data.shape[1] != 2 or header[0] != "d":
        raise SystemExit(f"{path}: expected a two-column CSV with a 'd' column")
    if not np.isfinite(data).all():
        raise SystemExit(f"cannot parse {path}: values must be finite")
    d, v = data[:, 0], data[:, 1]
    if np.any(np.diff(d) < 0):
        raise SystemExit(f"{path}: d column must be sorted")
    return d, v


def cmd_compare(args) -> int:
    da, va = _read_curve(args.analytic_csv)
    de, ve = _read_curve(args.empirical_csv)
    lo = max(da[0], de[0])
    hi = min(da[-1], de[-1])
    if hi <= lo:
        raise SystemExit("curves have no overlapping d-range")
    grid = np.unique(np.clip(np.concatenate((da, de)), lo, hi))
    gap = np.abs(np.interp(grid, da, va) - np.interp(grid, de, ve))
    k = int(np.argmax(gap))
    ks = float(gap[k])
    print(f"ks_statistic={_fmt(ks)}")
    print(f"max_gap_at_d={_fmt(grid[k])}")
    print(f"threshold={_fmt(args.threshold)}")
    if ks < args.threshold:
        print("result=pass")
        return EXIT_OK
    print("result=fail")
    return EXIT_COMPARE_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwphex",
        description="Distance distribution of a random-waypoint node in a "
                    "regular hexagon, analytic and simulated.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("marginals", help="export stationary per-axis PDF/CDF")
    p.add_argument("--side", type=float, default=1.0)
    p.add_argument("--axis", choices=("x", "y"), required=True)
    p.add_argument("--grid-n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_marginals)

    p = sub.add_parser("distance-cdf", help="export the analytic distance CDF")
    p.add_argument("--side", type=float, default=1.0)
    p.add_argument("--ref-x", type=float, required=True)
    p.add_argument("--ref-y", type=float, required=True)
    p.add_argument("--grid-n", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_distance_cdf)

    p = sub.add_parser("simulate", help="run the RWP simulator, export distance ecdf")
    p.add_argument("--side", type=float, default=1.0)
    p.add_argument("--ref-x", type=float, required=True)
    p.add_argument("--ref-y", type=float, required=True)
    p.add_argument("--v-min", type=float, default=0.01)
    p.add_argument("--v-max", type=float, default=0.05)
    p.add_argument("--duration", type=float, default=100000.0)
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("baseline", help="distances to i.i.d. uniform node positions")
    p.add_argument("--side", type=float, default=1.0)
    p.add_argument("--ref-x", type=float, required=True)
    p.add_argument("--ref-y", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser(
        "compare", help="KS comparison of two CDF curves",
        description="Largest gap between two d,<value> tables, each interpolated "
                    "linearly between its rows, on the union of their d values. "
                    "An ecdf table is interpolated too, so the result can differ "
                    "from ks_statistic, which takes both sides of each ecdf step, "
                    "by up to one step (1/n for n samples without ties).")
    p.add_argument("analytic_csv")
    p.add_argument("empirical_csv")
    p.add_argument("--threshold", type=float, default=0.05)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"error: {exc.code}", file=sys.stderr)
            return EXIT_USAGE
        raise
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
