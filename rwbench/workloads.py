"""The benchmark's four closed-loop workloads over the public rwphex API.

Each workload has a set-up (paid once, before the first timed operation), an
operation that one caller issues only after the previous one returned, and
per-operation correctness checks.  Only the public library calls are timed;
checks run between operations.  Every input comes from the workload seed.

Importing this module imports numpy and rwphex, so the benchmark imports it
inside the timed set-up.
"""

import hashlib
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import reference as R
import rwphex
from rwphex.hexgeom import HexRegion, Point2, RefNode

KS_BOUND = 0.05           # the paper's acceptance bound, at every paper node
V_MIN, V_MAX = 0.01, 0.05  # the simulator's default speeds
SCALAR_SHARE = 0.2        # point-queries operations that call a marginal evaluator
CORNER = R.PAPER_REFS["corner"]
REPEATED_SIDES = 4        # point-queries sides drawn from a few repeated values


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the self-check runs the same workloads with smaller ones."""

    sim_duration: float = 1e6
    cli_sim_duration: float = 1e6
    cli_baseline_n: int = 100_000


class Api:
    """The public library functions the workloads call.

    The self-check replaces single entries with deliberately wrong models to
    show that the checks turn them into failed operations.
    """

    def __init__(self, **overrides):
        for name in ("axis_marginal", "distance_cdf", "distance_cdf_curve",
                     "product_mass_hexagon", "simulate", "distances_to", "ecdf",
                     "ks_statistic", "stationary_cdf_x", "stationary_cdf_y",
                     "stationary_pdf_x", "stationary_pdf_y"):
            setattr(self, name, getattr(rwphex, name))
        for name, fn in overrides.items():
            setattr(self, name, fn)


@dataclass
class Outcome:
    """One operation: its timed latency, its verdict and its largest CDF error."""

    latency: float
    ok: bool
    cdf_err: float = 0.0
    why: str = ""


def build_tables(tracer):
    """First build of the exact coefficient tables (both axes, side 1)."""
    t0 = time.perf_counter()
    with tracer.span("marginals.canonical"):
        rwphex.axis_marginal("x", 1.0)
        rwphex.axis_marginal("y", 1.0)
    return time.perf_counter() - t0


def ref_node(xy, scale=1.0):
    return RefNode(Point2(xy[0] * scale, xy[1] * scale))


def check_curve(d, cdf, ref_curve, interior):
    """Verdict on one analytic curve against its frozen reference: (ok, err, why)."""
    d, cdf = np.asarray(d, dtype=float), np.asarray(cdf, dtype=float)
    want_d, want = np.asarray(ref_curve["d"]), np.asarray(ref_curve["cdf"])
    if d.shape != want_d.shape or not np.allclose(d, want_d, rtol=1e-12, atol=1e-12):
        return False, math.inf, "grid differs from the reference grid"
    if not np.all(np.isfinite(cdf)):
        return False, math.inf, "non-finite value"
    err = float(np.max(np.abs(cdf - want)))
    if np.any(cdf < 0) or np.any(cdf > 1):
        return False, err, "value outside [0, 1]"
    if np.any(np.diff(cdf) < 0):
        return False, err, "curve decreases"
    if abs(cdf[-1] - 1.0) > R.CDF_TOL:
        return False, err, f"CDF at d_max is {cdf[-1]!r}"
    if interior and abs(cdf[0]) > R.CDF_TOL:
        return False, err, f"CDF at d_min is {cdf[0]!r}"
    if err > R.CDF_TOL:
        return False, err, f"error {err:.3e} against the reference"
    return True, err, ""


def _interior(xy):
    return HexRegion(1.0).contains(Point2(*xy))


class Workload:
    name = ""
    cycle = 1              # operations per full cycle of the input mix

    def __init__(self, seed, sizes, tracer, api=None, workdir="."):
        self.seed = seed
        self.sizes = sizes
        self.tracer = tracer
        self.api = api or Api()
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def setup(self):
        """Work every run pays before its first timed operation."""
        self.ref = R.load()

    def op(self, i):
        raise NotImplementedError

    def finish(self, outcomes):
        """Checks that need the whole run; may mark outcomes failed."""

    def traced_extras(self, i):
        """Benchmark-issued layer calls in traced operations, outside the timing."""


class CurveRefs(Workload):
    """distance_cdf_curve(ref, 1, 200) cycling over the four paper nodes."""

    name = "curve-refs"
    cycle = len(R.PAPER_REFS)

    def setup(self):
        super().setup()
        names = list(R.PAPER_REFS)
        start = int(self.rng.integers(len(names)))
        self.order = names[start:] + names[:start]

    def _ref(self, i):
        name = self.order[i % self.cycle]
        return name, R.PAPER_REFS[name]

    def op(self, i):
        name, xy = self._ref(i)
        t0 = time.perf_counter()
        with self.tracer.span("distance.distance_cdf_curve", n_points=R.CURVE_POINTS, node=name):
            curve = self.api.distance_cdf_curve(ref_node(xy), 1.0, R.CURVE_POINTS)
        latency = time.perf_counter() - t0
        ok, err, why = check_curve(curve.d_values, curve.cdf_values,
                                   self.ref["curves"][name], _interior(xy))
        return Outcome(latency, ok, err, why and f"{name}: {why}")

    def traced_extras(self, i):
        _, xy = self._ref(i)
        with self.tracer.span("distance.product_mass_hexagon"):
            self.api.product_mass_hexagon(ref_node(xy), 1.0)


class PointQueries(Workload):
    """Scalar distance_cdf queries at scaled sides, with some marginal evaluations."""

    name = "point-queries"

    def setup(self):
        super().setup()
        self.repeated = np.exp(self.rng.uniform(0, math.log(1000), REPEATED_SIDES))
        self._queues = {}
        self.seen = set()       # (axis, side) pairs already requested

    def _next_row(self, key):
        """Rows in a seeded order that visits the whole table before repeating."""
        table = self.ref[key]
        if not self._queues.get(key):
            self._queues[key] = self.rng.permutation(len(table)).tolist()
        return table[self._queues[key].pop()]

    def _plan(self):
        scalar = self.rng.random() < SCALAR_SHARE
        if self.rng.random() < 0.5:
            side = float(self.rng.choice(self.repeated))
        else:
            side = float(np.exp(self.rng.uniform(0, math.log(1000))))
        return scalar, side

    def op(self, i):
        scalar, side = self._plan()
        axes = ("x", "y")
        if scalar:
            axis, kind, coord, value = self._next_row("marginals")
            axes = (axis,)
        else:
            x, y, d, value = self._next_row("points")
        self._last = None if scalar else ((x, y), side)
        t0 = time.perf_counter()
        if self.tracer.active:
            # the query would build the marginals of a side not seen before;
            # build them first, inside the timing, to time that as its own layer
            for ax in axes:
                if (ax, side) not in self.seen:
                    with self.tracer.span("marginals.axis_marginal"):
                        self.api.axis_marginal(ax, side)
        self.seen.update((ax, side) for ax in axes)
        if scalar:
            fn = getattr(self.api, f"stationary_{kind}_{axis}")
            with self.tracer.span(f"marginals.stationary_{kind}_{axis}"):
                got = fn(coord * side, side)
            latency = time.perf_counter() - t0
            scale = 1.0 if kind == "cdf" else 1.0 / side
            want = value * scale
            ok = math.isfinite(got) and abs(got - want) <= R.MARGINAL_RTOL * max(abs(want), scale)
            return Outcome(latency, ok, 0.0,
                           "" if ok else f"{kind}_{axis}({coord}*{side}) = {got!r}, want {want!r}")
        ref = ref_node((x, y), side)
        with self.tracer.span("distance.distance_cdf"):
            got = self.api.distance_cdf(ref, side, d * side)
        latency = time.perf_counter() - t0
        err = abs(got - value) if math.isfinite(got) else math.inf
        ok = 0.0 <= got <= 1.0 and err <= R.CDF_TOL
        why = f"distance_cdf({x}, {y}, d={d}) at side {side} = {got!r}, want {value!r}"
        return Outcome(latency, ok, err, "" if ok else why)

    def traced_extras(self, i):
        if self._last is not None:
            xy, side = self._last
            with self.tracer.span("distance.product_mass_hexagon"):
                self.api.product_mass_hexagon(ref_node(xy, side), side)


class SimValidate(Workload):
    """One seeded simulation, then distances, ecdf and KS at the four paper nodes."""

    name = "sim-validate"

    def setup(self):
        super().setup()
        self.models = {}
        self.setup_err = 0.0
        self.setup_why = ""
        for name, xy in R.PAPER_REFS.items():
            with self.tracer.span("distance.distance_cdf_curve", n_points=R.CURVE_POINTS,
                                  node=name):
                curve = self.api.distance_cdf_curve(ref_node(xy), 1.0, R.CURVE_POINTS)
            ok, err, why = check_curve(curve.d_values, curve.cdf_values,
                                       self.ref["curves"][name], _interior(xy))
            self.setup_err = max(self.setup_err, err)
            if not ok:
                self.setup_why = f"model curve {name}: {why}"
            self.models[name] = (curve.d_values, curve.cdf_values)
        self.configs = []

    def _config(self, i):
        while len(self.configs) <= i:
            self.configs.append(sim_config(self.sizes.sim_duration,
                                           int(self.rng.integers(2**31))))
        return self.configs[i]

    def op(self, i):
        config = self._config(i)
        t0 = time.perf_counter()
        trace, ks = validate_trace(self.tracer, self.api, config, self.models)
        latency = time.perf_counter() - t0
        samples = math.floor(config.duration / config.sample_interval) + 1
        worst = max(ks, key=ks.get)
        why = self.setup_why
        if len(trace) != samples:
            why = f"{len(trace)} samples, want {samples}"
        elif not ks[worst] < KS_BOUND:
            why = f"KS {ks[worst]:.4f} at {worst} (seed {config.seed})"
        if i == 0:
            self.digest = _digest(trace)
        return Outcome(latency, not why, self.setup_err, why)

    def finish(self, outcomes):
        """Re-run the first operation's seed; its trace must be identical."""
        if outcomes and _digest(self.api.simulate(self._config(0))) != self.digest:
            outcomes[0].ok = False
            outcomes[0].why = "re-running the seed gave a different trace"


def validate_trace(tracer, api, config, models):
    """simulate, then distances_to, ecdf and KS at each paper node: (trace, {node: KS})."""
    with tracer.span("sim.simulate") as attrs:
        trace = api.simulate(config)
    if tracer.active:
        attrs.update(legs=len(trace.waypoints) - 1, samples=len(trace))
    ks = {}
    for name, xy in R.PAPER_REFS.items():
        with tracer.span("sim.distances_to"):
            dist = api.distances_to(trace, ref_node(xy))
        with tracer.span("sim.ecdf"):
            emp = api.ecdf(dist)
        d, cdf = models[name]
        with tracer.span("sim.ks_statistic") as attrs:
            ks[name] = api.ks_statistic(emp, lambda s: np.interp(s, d, cdf))
        if tracer.active:
            attrs["ks"] = ks[name]
    return trace, ks


def sim_config(duration, seed):
    return rwphex.SimConfig(side=1.0, v_min=V_MIN, v_max=V_MAX, duration=duration,
                            sample_interval=1.0, seed=seed)


def _digest(trace):
    return hashlib.sha256(np.ascontiguousarray(trace.positions).tobytes()).hexdigest()


# (command, output file, expected header) in cycle order
CLI_COMMANDS = (
    ("distance-cdf", "cdf.csv", "d,cdf"),
    ("simulate", "sim.csv", "d,ecdf"),
    ("compare", None, None),
    ("marginals", "fx.csv", "coord,pdf,cdf"),
    ("baseline", "base.csv", "d,ecdf"),
)
CLI_GRID = 200


def cli_env():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rwphex.__file__)))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_startup(tracer, env):
    """Process start plus ``import rwphex.cli``, in a fresh interpreter."""
    t0 = time.perf_counter()
    with tracer.span("cli.startup"):
        subprocess.run([sys.executable, "-c", "import rwphex.cli"], env=env, check=True,
                       timeout=120)
    return time.perf_counter() - t0


class CliPipeline(Workload):
    """One ``rwphex`` command per operation, in a subprocess, one at a time."""

    name = "cli-pipeline"
    commands = CLI_COMMANDS
    cycle = len(CLI_COMMANDS)

    def setup(self):
        super().setup()
        self.env = cli_env()
        self.startup_s = cli_startup(self.tracer, self.env)
        self.outdir = os.path.join(self.workdir, "cli")
        os.makedirs(self.outdir, exist_ok=True)

    def argv(self, command, out):
        ref = ["--ref-x", str(CORNER[0]), "--ref-y", str(CORNER[1])]
        if command == "distance-cdf":
            return ref + ["--grid-n", str(R.CURVE_POINTS), "--out", out]
        if command == "compare":
            return [self._path("cdf.csv"), self._path("sim.csv")]
        if command == "marginals":
            return ["--axis", "x", "--grid-n", str(CLI_GRID), "--out", out]
        seeded = ["--seed", str(int(self.rng.integers(2**31))), "--out", out]
        if command == "simulate":
            return ref + ["--duration", repr(self.sizes.cli_sim_duration)] + seeded
        return ref + ["--n", str(self.sizes.cli_baseline_n)] + seeded

    def _path(self, name):
        return os.path.join(self.outdir, name)

    def op(self, i):
        command, out_name, header = self.commands[i % self.cycle]
        out = self._path(out_name) if out_name else None
        for path in (out, out and out + ".manifest"):
            if path and os.path.exists(path):
                os.remove(path)
        argv = [sys.executable, "-m", "rwphex.cli", command] + self.argv(command, out)
        t0 = time.perf_counter()
        with self.tracer.span("cli." + command) as attrs:
            proc = subprocess.run(argv, env=self.env, capture_output=True, text=True, timeout=150)
        latency = time.perf_counter() - t0
        if proc.returncode != 0:
            return Outcome(latency, False, 0.0,
                           f"{command} exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        if command == "compare":
            ok = "result=pass" in proc.stdout.split()
            return Outcome(latency, ok, 0.0, "" if ok else f"compare: {proc.stdout.strip()}")
        ok, err, why, info = self._check_output(command, out, header)
        if self.tracer.active:
            attrs.update(info)
        return Outcome(latency, ok, err, why and f"{command}: {why}")

    def _check_output(self, command, out, header):
        """(ok, cdf error, reason, trace attributes) for one command's files."""
        manifest = _read_manifest(out + ".manifest")
        if manifest.get("command") != command or "wall_clock_s" not in manifest:
            return False, 0.0, "manifest missing or incomplete", {}
        info = {"in_command_s": float(manifest["wall_clock_s"]),
                "bytes": os.path.getsize(out) + os.path.getsize(out + ".manifest")}
        first, rows, last = _csv_shape(out)
        if first != header or rows < 1:
            return False, 0.0, f"header {first!r}, {rows} rows", info
        if command in ("distance-cdf", "marginals"):
            data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        if command == "distance-cdf":
            ok, err, why = check_curve(data[:, 0], data[:, 1], self.ref["curves"]["corner"],
                                       _interior(CORNER))
            return ok, err, why, info
        if command == "marginals":
            pdf, cdf = data[:, 1], data[:, 2]
            # the density vanishes at the cell edge, where rounding may leave -1e-14
            ok = bool(rows == CLI_GRID and np.all(pdf >= -R.MARGINAL_RTOL * pdf.max())
                      and np.all(np.diff(cdf) >= 0)
                      and cdf[0] == 0.0 and abs(cdf[-1] - 1.0) <= R.MARGINAL_RTOL)
            return ok, 0.0, "" if ok else "marginal table out of range", info
        # ecdf outputs: at most one row per sample, ending at 1
        limit = (math.floor(self.sizes.cli_sim_duration) + 1 if command == "simulate"
                 else self.sizes.cli_baseline_n)
        final = float(last.split(",")[1])
        ok = rows <= limit and final == 1.0
        return ok, 0.0, "" if ok else f"{rows} rows (limit {limit}), last ecdf {final!r}", info


def _csv_shape(path, block=1 << 20):
    """(header, data row count, last line) of a newline-terminated CSV, streamed."""
    newlines, head, tail = 0, b"", b""
    with open(path, "rb") as fh:
        while chunk := fh.read(block):
            if b"\n" not in head:
                head += chunk
            newlines += chunk.count(b"\n")
            tail = (tail + chunk)[-4096:]
    if not tail.endswith(b"\n"):
        return head.split(b"\n")[0].decode(), -1, ""
    return (head.split(b"\n")[0].decode(), newlines - 1,
            tail[:-1].rsplit(b"\n", 1)[-1].decode())


def _read_manifest(path):
    try:
        with open(path) as fh:
            return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)
    except OSError:
        return {}


WORKLOADS = {w.name: w for w in (CurveRefs, PointQueries, SimValidate, CliPipeline)}


# One small call per layer, for the traced run of a workload that never
# reaches that layer itself; see README.md.
PROBE_SIM_DURATION = 1e5


def _probe_axis_marginal(w):
    side = 1.0 + float(w.rng.random())
    for axis in ("x", "y"):
        with w.tracer.span("marginals.axis_marginal"):
            w.api.axis_marginal(axis, side)


def _probe_scalar(w):
    for kind in ("cdf", "pdf"):
        for axis in ("x", "y"):
            with w.tracer.span(f"marginals.stationary_{kind}_{axis}"):
                getattr(w.api, f"stationary_{kind}_{axis}")(0.3, 1.0)


def _probe_curve(w):
    with w.tracer.span("distance.distance_cdf_curve", n_points=R.CURVE_POINTS, node="corner"):
        w.api.distance_cdf_curve(ref_node(CORNER), 1.0, R.CURVE_POINTS)


def _probe_cdf_call(w):
    with w.tracer.span("distance.distance_cdf"):
        w.api.distance_cdf(ref_node(CORNER), 1.0, 1.0)


def _probe_mass(w):
    with w.tracer.span("distance.product_mass_hexagon"):
        w.api.product_mass_hexagon(ref_node(CORNER), 1.0)


def _probe_sim(w):
    models = {name: (c["d"], c["cdf"]) for name, c in w.ref["curves"].items()}
    config = sim_config(PROBE_SIM_DURATION, int(w.rng.integers(2**31)))
    validate_trace(w.tracer, w.api, config, models)


def _probe_cli(w):
    tiny = Sizes(cli_sim_duration=1e4, cli_baseline_n=1000)
    probe = CliPipeline(w.seed, tiny, w.tracer, w.api, os.path.join(w.workdir, "cli-probe"))
    probe.setup()
    for i in range(probe.cycle):
        probe.op(i)


def _probe_startup(w):
    cli_startup(w.tracer, cli_env())


PROBES = {
    "axis_marginal": _probe_axis_marginal,
    "scalar": _probe_scalar,
    "piecewise": _probe_curve,
    "curve": _probe_curve,
    "cdf_call": _probe_cdf_call,
    "mass": _probe_mass,
    "hexgeom": _probe_sim,
    "simulate": _probe_sim,
    "sim_post": _probe_sim,
    "cli": _probe_cli,
    "startup": _probe_startup,
}
