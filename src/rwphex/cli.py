"""Command-line front end: analytic curves, simulation, and comparison.

A table command validates and computes, and returns its header, columns and
extra manifest entries without opening a file; ``main`` times each command
and writes its CSV and ``<out>.manifest``, or nothing if the command fails:
a write that fails after its file was opened removes that file, and a
manifest that cannot be written removes the CSV.  A path that cannot be
opened is left as it is.  ``compare`` writes nothing and returns its exit
code.

Every CSV value is the text of ``format(v, ".17g")``, which reads back as
the same float; ``_fmt`` says how it is written a block of rows at a time.

Every refusal is a ``ValueError``, from the library or from this module (a
bad input file, an unwritable path); ``main`` prints it as one ``error:``
line on stderr and returns 2, and argparse exits 2 for a malformed option.

Exit codes: 0 success (or comparison pass), 1 comparison failure, 2 usage
or input error, including a NaN or infinite number.

Each command imports the library modules it runs, inside the command, so a
process loads only those: ``compare`` loads no other ``rwphex`` module,
``simulate`` and ``baseline`` load ``sim``, ``hexgeom``, ``piecewise`` and
``_fmt``, and ``marginals`` and ``distance-cdf`` load the analytic modules
as well.  Module level holds only numpy and the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
import time
import warnings

import numpy as np

from . import __version__

EXIT_OK = 0
EXIT_COMPARE_FAIL = 1
EXIT_USAGE = 2


def _discard(path):
    """Remove ``path``, which this command opened for writing, if it is a regular file."""
    with contextlib.suppress(OSError):
        if os.path.isfile(path) and not os.path.islink(path):
            os.remove(path)


def _write(path, chunks):
    """Write each byte chunk to ``path``; ValueError, naming ``path`` once, if that fails.

    A file this opened is removed again when a later write fails, so no
    partial file is left; a file it could not open is left as it is.
    """
    opened = False
    try:
        with open(path, "wb") as fh:
            opened = True
            fh.writelines(chunks)
    except OSError as exc:  # str(exc) would name the file a second time
        if opened:
            _discard(path)
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path, header, *columns):
    """Write equal-length columns as CSV rows, each value as ``format(v, ".17g")``.

    ``_fmt.csv_rows`` gives those bytes a block of rows at a time, so only
    one block's rows and text are held at once.  ValueError if the file
    cannot be written.
    """
    from ._fmt import csv_rows

    _write(path, itertools.chain([(",".join(header) + "\n").encode()], csv_rows(columns)))


def _write_manifest(args, started, **extra):
    """Write ``<out>.manifest``: the command, every parsed option and ``extra``."""
    params = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    params.update(extra)
    lines = [f"command={args.command}", *(f"{key}={params[key]}" for key in sorted(params)),
             f"version={__version__}", f"wall_clock_s={time.monotonic() - started:.3f}"]
    _write(str(args.out) + ".manifest", [("\n".join(lines) + "\n").encode()])


def _grid_n(args) -> int:
    """``--grid-n``; ValueError, before any work, unless 2 <= n <= ``MAX_CURVE_POINTS``."""
    from . import distance
    from .hexgeom import _count

    return _count(args.grid_n, "--grid-n", 2, distance.MAX_CURVE_POINTS)


def _ref(args):
    """The ``RefNode`` of ``--ref-x``/``--ref-y``; ValueError unless both are finite."""
    from .hexgeom import Point2, RefNode

    return RefNode(Point2(args.ref_x, args.ref_y))


def cmd_marginals(args):
    from .marginals import axis_marginal

    grid_n = _grid_n(args)
    m = axis_marginal(args.axis, args.side)
    grid = np.linspace(*m.stationary_cdf.domain, grid_n)
    return ("coord", "pdf", "cdf"), (grid, m.stationary_pdf(grid), m.stationary_cdf(grid)), {}


def cmd_distance_cdf(args):
    from .distance import distance_cdf_curve

    grid_n = _grid_n(args)
    curve = distance_cdf_curve(_ref(args), args.side, grid_n)
    return ("d", "cdf"), (curve.d_values, curve.cdf_values), {}


def cmd_simulate(args):
    from .hexgeom import HexRegion
    from .sim import SimConfig, distances_to, ecdf, simulate

    # refuse a bad or unreachably far node before simulating
    ref = _ref(args)
    config = SimConfig(side=args.side, v_min=args.v_min, v_max=args.v_max,
                       duration=args.duration, sample_interval=args.dt,
                       seed=args.seed)
    HexRegion(args.side).distance_extremes(ref)
    trace = simulate(config)
    extra = {"legs": trace.legs, "samples": len(trace)}
    emp = ecdf(distances_to(trace, ref))
    del trace  # the table needs only the sorted distances
    return ("d", "ecdf"), emp.steps(), extra


def cmd_baseline(args):
    from .hexgeom import HexRegion
    from .sim import ecdf, uniform_node_distances

    rng = np.random.default_rng(args.seed)
    dists = uniform_node_distances(HexRegion(args.side), _ref(args), args.n, rng)
    return ("d", "ecdf"), ecdf(dists).steps(), {}


def _ragged_line(path):
    """The first data line of ``path`` without two columns, in the CLI's words; None if none.

    Lines count from 1, the header's, and blank and ``#`` comment lines are
    skipped as ``np.loadtxt`` skips them.
    """
    with open(path, errors="replace") as fh:
        for n, line in enumerate(fh, start=1):
            fields = line.split("#", 1)[0].strip()
            if n > 1 and fields and fields.count(",") != 1:
                return f"{path}: line {n}: expected 2 columns, found {fields.count(',') + 1}"
    return None


def _read_curve(path):
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        with warnings.catch_warnings():
            # a table without rows is refused below, in the CLI's own words
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:  # str(exc) would name the file a second time
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        # numpy's message for a ragged table names an option of its own
        raise ValueError(_ragged_line(path) or f"cannot parse {path}: {exc}") from exc
    if len(header) != 2 or (data.size and data.shape[1] != 2) or header[0] != "d":
        raise ValueError(f"{path}: expected a two-column CSV with a 'd' column")
    if not data.size:
        raise ValueError(f"{path}: no data rows")
    if not np.isfinite(data).all():
        raise ValueError(f"cannot parse {path}: values must be finite")
    d, v = data[:, 0], data[:, 1]
    if np.any(d[1:] < d[:-1]):
        raise ValueError(f"{path}: d column must be sorted")
    # contiguous, so np.interp copies neither
    return np.ascontiguousarray(d), np.ascontiguousarray(v)


def cmd_compare(args) -> int:
    if not np.isfinite(args.threshold):
        raise ValueError("--threshold must be finite")
    da, va = _read_curve(args.analytic_csv)
    de, ve = _read_curve(args.empirical_csv)
    lo = max(da[0], de[0])
    hi = min(da[-1], de[-1])
    if hi <= lo:
        raise ValueError("curves have no overlapping d-range")
    # equal d give equal gaps, and argmax takes the first in sorted order
    grid = np.concatenate((da, de))
    np.clip(grid, lo, hi, out=grid)
    grid.sort()
    gap = np.interp(grid, da, va)
    gap -= np.interp(grid, de, ve)
    np.abs(gap, out=gap)
    k = int(np.argmax(gap))
    ks = float(gap[k])
    print(f"ks_statistic={ks:.17g}")
    print(f"max_gap_at_d={grid[k]:.17g}")
    print(f"threshold={args.threshold:.17g}")
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

    # options shared by the table commands, each declared once
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--side", type=float, default=1.0)
    table.add_argument("--out", required=True)
    node = argparse.ArgumentParser(add_help=False, parents=[table])
    node.add_argument("--ref-x", type=float, required=True)
    node.add_argument("--ref-y", type=float, required=True)
    seeded = argparse.ArgumentParser(add_help=False, parents=[node])
    seeded.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("marginals", parents=[table], help="export stationary per-axis PDF/CDF")
    p.add_argument("--axis", choices=("x", "y"), required=True)
    p.add_argument("--grid-n", type=int, required=True)
    p.set_defaults(func=cmd_marginals)

    p = sub.add_parser("distance-cdf", parents=[node], help="export the analytic distance CDF")
    p.add_argument("--grid-n", type=int, default=200)
    p.set_defaults(func=cmd_distance_cdf)

    p = sub.add_parser("simulate", parents=[seeded],
                       help="run the RWP simulator, export distance ecdf")
    p.add_argument("--v-min", type=float, default=0.01)
    p.add_argument("--v-max", type=float, default=0.05)
    p.add_argument("--duration", type=float, default=100000.0)
    p.add_argument("--dt", type=float, default=1.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("baseline", parents=[seeded],
                       help="distances to i.i.d. uniform node positions")
    p.add_argument("--n", type=int, required=True)
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
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        result = args.func(args)
        if isinstance(result, int):  # compare's exit code
            return result
        header, columns, extra = result
        _write_csv(args.out, header, *columns)
        try:
            _write_manifest(args, started, **extra)
        except ValueError:
            _discard(args.out)  # a failing command leaves neither file
            raise
        return EXIT_OK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
