"""rwphex benchmark: four closed-loop workloads over the public library API.

    python3 rwbench/run.py --workload curve-refs --seed 1 --seconds 18 --trace 0
    python3 rwbench/run.py --workload all --seed 1 --seconds 18

Run it from the root of a source checkout; it imports the library from
``src/`` there and refuses to run without it.  One caller issues each
operation after the previous one returned, and subprocesses run one at a
time.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
human-readable report of the same run precedes it.  See rwbench/README.md.
"""

import argparse
import bisect
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from tracing import Tracer, duration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".rwbench_out")

NAMES = ("curve-refs", "point-queries", "sim-validate", "cli-pipeline")
# fresh-process set-ups per run: at least 3, then more while they are cheap;
# half of them before the loop and half after, so that they see the
# machine at two times
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
CAL_PERIOD_S = 0.25       # at most this long between calibration samples
# The kernel's median time on the machine the benchmark was written on.
# setup_s is reported at this speed: wall seconds * CAL_REF_S / kernel time.
CAL_REF_S = 0.0125


def _use_source_tree():
    if not os.path.isfile(os.path.join(SRC, "rwphex", "__init__.py")):
        sys.exit(f"rwbench: no library source under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)


# ---------------------------------------------------------------------------
# set-up

def setup(name, seed, tracer, trace=False, sizes=None, api=None):
    """Imports, exact tables, reference data and model curves; returns (workload, timings)."""
    t0 = time.perf_counter()
    import workloads as W       # numpy and rwphex: part of what set-up pays
    if trace:
        tracer.start()
    tracer.op = "setup"
    canonical = W.build_tables(tracer)
    workdir = os.path.join(OUT, name)
    w = W.WORKLOADS[name](seed, sizes or W.Sizes(), tracer, api, workdir)
    w.setup()
    wall = time.perf_counter() - t0
    # the machine's speed right after, as the loop measures it around each operation
    cal = Calibration()
    for _ in range(3):
        cal.sample()
    timings = {"setup_s": wall * CAL_REF_S / statistics.median(cal.seconds),
               "setup_wall_s": wall, "canonical_s": canonical}
    if hasattr(w, "startup_s"):
        timings["startup_s"] = w.startup_s
    return w, timings


def setup_in_subprocess(name, seed):
    """One set-up in a fresh interpreter, as every new process pays it."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", name,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fresh_setups(name, seed, samples, repeats, budget_s):
    """Add fresh-process set-ups until ``repeats`` = (min, max) or the time budget."""
    t0 = time.perf_counter()
    while len(samples) < repeats[0] or (
            len(samples) < repeats[1] and time.perf_counter() - t0 < budget_s):
        samples.append(setup_in_subprocess(name, seed))


# ---------------------------------------------------------------------------
# closed loop

class Calibration:
    """The speed of this CPU, sampled between operations with a fixed kernel.

    The machine this benchmark was written on shares its cores with other
    tenants, and identical code ran 20-35% slower in some runs than in
    others.  The kernel uses no rwphex code: numpy calls on 15-point
    arrays, a short Python loop, a sort and a pass over memory, in about
    the mix the workloads run.  Dividing an operation's latency by the
    kernel time measured around it cancels the machine's speed but not the
    library's.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.x, self.c = rng.random(15), rng.random(5)
        self.breaks, self.unsorted = np.linspace(0.0, 1.0, 8), rng.random(200_000)
        self.stream = np.zeros(2_000_000)     # 16 MB, larger than the caches
        self.times, self.seconds = [], []

    def sample(self):
        import numpy as np
        from numpy.polynomial import polynomial as npoly
        t0 = time.perf_counter()
        for _ in range(600):
            npoly.polyval(self.x, self.c)
            np.searchsorted(self.breaks, self.x)
            sum(range(50))
        np.sort(self.unsorted)
        np.add(self.stream, 1.0, out=self.stream)
        t1 = time.perf_counter()
        self.times.append(t1)
        self.seconds.append(t1 - t0)

    def due(self):
        return not self.times or time.perf_counter() - self.times[-1] >= CAL_PERIOD_S

    def around(self, start, end):
        """Mean kernel time of the samples just before ``start`` and just after ``end``."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        picks = [self.seconds[k] for k in (before, after) if 0 <= k < len(self.times)]
        return statistics.fmean(picks)


def run_loop(w, seconds, trace):
    """Full cycles of operations until ``seconds`` have passed.

    In a traced run, odd cycles are traced and even ones are not, so the run
    measures its own tracing overhead on the same input mix.  Returns the
    outcomes, which of them were traced, and each one's calibration.
    """
    import workloads as W
    tracer = w.tracer
    cal = Calibration()
    outcomes, traced, spans = [], [], []
    t_start = time.perf_counter()
    i = 0
    while True:
        cycle = i // w.cycle
        if i % w.cycle == 0:
            if i and time.perf_counter() - t_start >= seconds and (not trace or cycle >= 2):
                break
            on = trace and cycle % 2 == 1
            if on and not tracer.active:
                tracer.start()
            elif not on and tracer.active:
                tracer.stop()
        if cal.due():
            cal.sample()
        tracer.op = i
        t0 = time.perf_counter()
        try:
            with tracer.span("op", workload=w.name):
                outcome = w.op(i)
        except Exception as exc:  # an operation that raises is a failed operation
            outcome = W.Outcome(time.perf_counter() - t0, False, 0.0,
                                "".join(traceback.format_exception_only(exc)).strip())
        spans.append((t0, time.perf_counter()))
        if tracer.active:
            w.traced_extras(i)
        outcomes.append(outcome)
        traced.append(tracer.active)
        i += 1
    cal.sample()
    tracer.stop()
    w.finish(outcomes)
    return outcomes, traced, [cal.around(a, b) for a, b in spans]


def tail_latency(latencies):
    """Highest ladder percentile with at least ten samples beyond it: (value, pct, beyond).

    With fewer than twenty samples no percentile above the median qualifies,
    and the median is reported with the number of samples beyond it.
    """
    s = sorted(latencies)
    n = len(s)
    for pct in TAIL_LADDER:
        k = math.ceil(pct / 100 * n)
        if n - k >= 10:
            return s[k - 1], pct, n - k
    return statistics.median(s), 50.0, n // 2


def peak_rss_mb(children):
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def latency_samples(latencies, cycle):
    """Per-operation latency of each full cycle of the input mix.

    With one operation per cycle this is each operation's latency.  Where a
    cycle mixes unlike operations (four curves, five commands), the cycle is
    the sample, so the median does not depend on which two kinds of
    operation happen to straddle the middle of the sorted latencies.
    """
    return [statistics.fmean(latencies[k:k + cycle]) for k in range(0, len(latencies), cycle)]


def latency_stats(latencies, cycle):
    """(median, tail, throughput, note) of one set of per-operation latencies."""
    samples = latency_samples(latencies, cycle)
    tail, pct, beyond = tail_latency(samples)
    unit = "ops" if cycle == 1 else f"cycles of {cycle} ops"
    return (statistics.median(samples), tail, len(latencies) / sum(latencies),
            f"p{pct:g} over {len(samples)} {unit}, {beyond} beyond")


def end_to_end(w, outcomes, cals, setup):
    n = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    cdf_err = max(o.cdf_err for o in outcomes)
    p50, tail, tput, note = latency_stats([o.latency / c for o, c in zip(outcomes, cals)], w.cycle)
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "latency_p50_cal": (p50, "cal"),
        "latency_tail_cal": (tail, "cal"),
        "throughput_ops_per_cal": (tput, "ops/cal"),
        "ops_ok_frac": (1 - failed / n, "fraction"),
        "cdf_max_abs_err": (cdf_err if math.isfinite(cdf_err) else 1.0, "cdf"),
        "peak_rss_mb": (peak_rss_mb(w.name == "cli-pipeline"), "MiB"),
    }
    notes = {"latency_p50_cal": "latency / kernel time around it", "latency_tail_cal": note}
    p50, tail, tput, note = latency_stats([o.latency for o in outcomes], w.cycle)
    report = [
        ("setup_wall_s", setup["setup_wall_s"], "s", "wall time, median"),
        ("latency_p50_s", p50, "s", "wall time"),
        ("latency_tail_s", tail, "s", f"wall time, {note}"),
        ("throughput_ops_per_s", tput, "ops/s", f"{n} ops / busy wall seconds of the timed calls"),
        ("ops_failed_frac", failed / n, "fraction", f"{failed}/{n} failed"),
        ("calibration_s", statistics.median(cals), "s", "median kernel time, 1 cal"),
    ]
    return metrics, notes, report


# ---------------------------------------------------------------------------
# per-layer metrics from the traced run

def _median(xs):
    return statistics.median(xs) if xs else 0.0


class Layers:
    """Picks, for each layer, the first source that reached it: the traced
    operations of the loop, else the set-up, else a one-call probe."""

    def __init__(self, w, traced_ops):
        self.w, self.tracer = w, w.tracer
        self.traced_ops = traced_ops
        self.sources = {}

    def _spans(self, ops, match):
        return [s for s in self.tracer.spans if s["op"] in ops and match(s["name"])]

    def _count(self, ops, key):
        return sum(self.tracer.counts[op].get(key, 0.0) for op in ops if op in self.tracer.counts)

    def source(self, group, match=None, counter=None):
        """(op ids, units) of the group's data; runs the group's probe when needed."""
        def has(ops):
            if counter:
                return self._count(ops, counter) > 0
            return bool(self._spans(ops, match))

        for label, ops in (("loop", set(self.traced_ops)), ("setup", {"setup"})):
            if has(ops):
                self.sources[group] = label
                return ops, (len(ops) if label == "loop" else 1)
        import workloads as W
        probe = "probe:" + group
        self.tracer.op = probe
        self.tracer.start()
        try:
            W.PROBES[group](self.w)
        finally:
            self.tracer.stop()
        self.sources[group] = "probe"
        return {probe}, 1

    def spans(self, group, match):
        ops, units = self.source(group, match=match)
        return self._spans(ops, match), units

    def counter(self, group):
        ops, units = self.source(group, counter=group + ".calls")
        return {k: self._count(ops, f"{group}.{k}") for k in ("calls", "points", "seconds")}, units


def _named(*names):
    return lambda n: n in names


def per_layer(w, outcomes, traced, cals, setup):
    import workloads as W
    layers = Layers(w, [i for i, t in enumerate(traced) if t])
    m = {}
    m["marginals.canonical_s"] = (setup["canonical_s"], "s")

    spans, units = layers.spans("axis_marginal", _named("marginals.axis_marginal"))
    m["marginals.axis_marginal_calls"] = (len(spans) / units, "calls/op")
    m["marginals.axis_marginal_s"] = (sum(map(duration, spans)) / units, "s/op")

    spans, _ = layers.spans("scalar", lambda n: n.startswith("marginals.stationary_"))
    m["marginals.scalar_eval_s"] = (_median([duration(s) for s in spans]), "s/call")

    c, units = layers.counter("piecewise")
    m["piecewise.calls"] = (c["calls"] / units, "calls/op")
    m["piecewise.points_per_call"] = (c["points"] / c["calls"], "points/call")
    m["piecewise.eval_s"] = (c["seconds"] / units, "s/op")

    spans, _ = layers.spans("curve", _named("distance.distance_cdf_curve"))
    m["distance.curve_s"] = (_median([duration(s) for s in spans]), "s/call")
    m["distance.curve_points_per_s"] = (
        _median([s["attrs"]["n_points"] / duration(s) for s in spans]), "points/s")
    spans, _ = layers.spans("cdf_call", _named("distance.distance_cdf"))
    m["distance.cdf_call_s"] = (_median([duration(s) for s in spans]), "s/call")
    spans, _ = layers.spans("mass", _named("distance.product_mass_hexagon"))
    m["distance.mass_hexagon_s"] = (_median([duration(s) for s in spans]), "s/call")

    c, units = layers.counter("hexgeom")
    m["hexgeom.sample_batch_calls"] = (c["calls"] / units, "calls/op")
    m["hexgeom.points_per_batch"] = (c["points"] / c["calls"], "points/call")
    m["hexgeom.sample_batch_s"] = (c["seconds"] / units, "s/op")

    spans, _ = layers.spans("simulate", _named("sim.simulate"))
    legs = [s["attrs"]["legs"] for s in spans]
    m["sim.simulate_s"] = (_median([duration(s) for s in spans]), "s/call")
    m["sim.legs"] = (statistics.fmean(legs), "legs/call")
    m["sim.samples"] = (statistics.fmean(s["attrs"]["samples"] for s in spans), "samples/call")
    m["sim.legs_per_s"] = (_median([s["attrs"]["legs"] / duration(s) for s in spans]), "legs/s")
    spans, _ = layers.spans("sim_post", _named("sim.distances_to", "sim.ecdf", "sim.ks_statistic"))
    for key, name in (("distances_to", "sim.distances_to"), ("ecdf", "sim.ecdf"),
                      ("ks", "sim.ks_statistic")):
        m[f"sim.{key}_s"] = (_median([duration(s) for s in spans if s["name"] == name]), "s/call")
    m["sim.ks_max"] = (max(s["attrs"]["ks"] for s in spans if s["name"] == "sim.ks_statistic"), "ks")

    if "startup_s" in setup:
        layers.sources["startup"] = "setup"
        m["cli.startup_s"] = (setup["startup_s"], "s")
    else:
        spans, _ = layers.spans("startup", _named("cli.startup"))
        m["cli.startup_s"] = (_median([duration(s) for s in spans]), "s")
    commands = [c[0] for c in W.CLI_COMMANDS]
    spans, _ = layers.spans("cli", lambda n: n.startswith("cli.") and n[4:] in commands)
    for name in commands:
        m[f"cli.{name.replace('-', '_')}_s"] = (
            _median([duration(s) for s in spans if s["name"] == "cli." + name]), "s")
    in_cmd = [s["attrs"]["in_command_s"] for s in spans if "in_command_s" in s["attrs"]]
    cycles = max(1, sum(s["name"] == "cli.compare" for s in spans))
    m["cli.in_command_s"] = (statistics.fmean(in_cmd), "s/cmd")
    m["cli.bytes_written"] = (sum(s["attrs"].get("bytes", 0) for s in spans) / cycles, "bytes/cycle")

    # compared in calibrated units, so that the machine's speed changes
    # between traced and untraced cycles do not read as overhead
    def median_of(flag, cal=True):
        return statistics.median(o.latency / (c if cal else 1.0)
                                 for o, c, t in zip(outcomes, cals, traced) if t == flag)
    frac = median_of(True) / median_of(False) - 1
    m["trace.overhead_s"] = (frac * median_of(False, cal=False), "s/op")
    m["trace.overhead_frac"] = (frac, "fraction")
    m["trace.spans"] = (len(w.tracer.spans), "count")
    m["calibration.kernel_s"] = (statistics.median(cals), "s")
    m["trace.layers_from_setup"] = (sum(v == "setup" for v in layers.sources.values()), "count")
    m["trace.layers_from_probe"] = (sum(v == "probe" for v in layers.sources.values()), "count")
    notes = {"trace.layers_from_probe": ", ".join(
        f"{g}={src}" for g, src in sorted(layers.sources.items()))}
    return m, notes


# ---------------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, sizes=None, api=None,
                 setup_repeats=(SETUP_MIN, SETUP_MAX)):
    """One workload, end to end: (result dict, report lines)."""
    tracer = Tracer()
    fresh = "rwphex" not in sys.modules
    w, timings = setup(name, seed, tracer, trace, sizes, api)
    tracer.stop()
    samples = [timings] if fresh else []
    lo, hi = setup_repeats
    fresh_setups(name, seed, samples, ((lo + 1) // 2, (hi + 1) // 2), SETUP_BUDGET_S / 2)
    outcomes, traced, cals = run_loop(w, seconds, trace)
    fresh_setups(name, seed, samples, setup_repeats, SETUP_BUDGET_S / 2)
    setup_times = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    failed = sum(not o.ok for o in outcomes)
    report = []
    if trace:
        metrics, notes = per_layer(w, outcomes, traced, cals, setup_times)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
        tracer.write(path)
        notes["trace.spans"] = f"written to {os.path.relpath(path, ROOT)}"
    else:
        metrics, notes, report = end_to_end(w, outcomes, cals, setup_times)
        notes["setup_s"] = (f"median of {len(samples)} fresh-process set-ups, "
                            f"at {CAL_REF_S} s per cal")
    shutil.rmtree(os.path.join(OUT, name), ignore_errors=True)

    lines = [f"[{name}] seed={seed} trace={int(trace)} attempted={len(outcomes)} failed={failed}"]
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        lines.append(f"[{name}] {key} = {value:.6g} {unit}{note}")
    for key, value, unit, note in report:
        lines.append(f"[{name}] {key} = {value:.6g} {unit}  ({note})")
    reasons = sorted({o.why for o in outcomes if not o.ok})
    lines += [f"[{name}] failure: {why}" for why in reasons[:5]]
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_source_tree()
    # one CPU for this process and its children, so that the calibration
    # kernel runs on the same core as the operations it is compared with
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.setup_only:
        _, timings = setup(args.workload, args.seed, Tracer())
        print(json.dumps(timings))
        return 0

    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        results[name] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
