"""Random-waypoint simulator in the hexagon and empirical-CDF tooling.

Legs are generated in blocks of ``LEG_BLOCK``: one call draws the block's
destinations and one its speeds, each leg starts at the previous kept
destination, and a cumulative sum of the leg durations gives the start
times.  Zero-length legs are dropped, and legs that start at or after the
duration are discarded, so the last block wastes at most ``LEG_BLOCK - 1``
draws.

Positions are sampled at exact multiples of the sample interval by
interpolating along the active leg.  The clock is split by leg, not by
sample: one ``searchsorted`` per leg finds its first sample, and
``np.repeat`` expands each leg's start time, inverse duration, origin and
vector over its samples.  The two coordinates are written into one
``(2, n)`` buffer, and ``Trace.positions`` is its ``(n, 2)`` transpose, so
each column is contiguous in memory.

The seed fully determines a trace.  Because the random stream is consumed a
block at a time, ``LEG_BLOCK`` is part of the seed-to-trace mapping: another
block size gives another trace from the same seed, with the same
distribution.  A configuration that needs more than ``MAX_SAMPLES`` samples,
or is projected to need more than ``MAX_LEGS`` legs, raises ``ValueError``
instead of running.

Every sample lies in the cell, so the reach check of
``HexRegion.distance_extremes`` keeps each sample's distance to the node
finite, with no pass over the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hexgeom import HexRegion, RefNode

__all__ = [
    "SimConfig",
    "Trace",
    "EmpiricalCdf",
    "simulate",
    "distances_to",
    "ecdf",
    "uniform_node_distances",
    "ks_statistic",
]

LEG_BLOCK = 4096  # legs drawn per block; part of the seed-to-trace mapping
MAX_LEGS = 10**7  # a simulation projected to need more legs is refused
MAX_SAMPLES = 10**8  # a simulation that needs more samples is refused


@dataclass(frozen=True)
class SimConfig:
    side: float
    v_min: float
    v_max: float
    duration: float
    sample_interval: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("side", "v_min", "v_max", "duration", "sample_interval"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.side > 0:
            raise ValueError("side must be positive")
        if not (0 < self.v_min <= self.v_max):
            raise ValueError("need 0 < v_min <= v_max")
        if not self.sample_interval > 0:
            raise ValueError("sample_interval must be positive")
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")


@dataclass(frozen=True)
class Trace:
    """Positions sampled every ``config.sample_interval`` seconds.

    ``waypoints`` holds the leg endpoints actually visited (the uniform
    start followed by each destination), for diagnostics on waypoint
    uniformity.
    """

    positions: np.ndarray  # (n, 2); simulate gives each column contiguous
    waypoints: np.ndarray  # (legs + 1, 2)
    config: SimConfig = field(repr=False)

    def __len__(self):
        return len(self.positions)


def _legs(config: SimConfig, rng: np.random.Generator):
    """``(waypoints, starts, durations)`` of the legs that cover ``config.duration``.

    Leg k runs from ``waypoints[k]`` to ``waypoints[k + 1]``, leaving at
    ``starts[k]`` and taking ``durations[k] > 0``; each leg starts when the
    previous one ends, and only the last leg ends at or after the duration.
    """
    region = HexRegion(config.side)
    origin = region.sample_uniform_batch(1, rng)
    dests, starts, durs = [origin], [np.empty(0)], [np.empty(0)]
    t, drawn = 0.0, 0
    while t < config.duration:
        block = region.sample_uniform_batch(LEG_BLOCK, rng)
        speed = rng.uniform(config.v_min, config.v_max, LEG_BLOCK)
        drawn += LEG_BLOCK
        with np.errstate(over="ignore"):  # a leg too slow for a float lasts forever
            dur = np.hypot(*np.diff(np.concatenate((origin, block)), axis=0).T) / speed
        # a destination that equals its origin also equals the last kept one,
        # so dropping its leg leaves every later leg unchanged
        keep = dur > 0
        block, dur = block[keep], dur[keep]
        clock = np.cumsum(np.concatenate(([t], dur)))
        n = np.searchsorted(clock[:-1], config.duration)  # legs starting before the end
        if n:
            dests.append(block[:n])
            starts.append(clock[:n])
            durs.append(dur[:n])
            origin, t = block[n - 1:n], float(clock[n])
        # project the leg count from the time simulated so far
        if t < config.duration and drawn * config.duration > MAX_LEGS * t:
            raise ValueError(f"simulation would need more than {MAX_LEGS} legs")
    return np.concatenate(dests), np.concatenate(starts), np.concatenate(durs)


def simulate(config: SimConfig) -> Trace:
    """Run one RWP trace and sample it on the fixed clock grid."""
    intervals = config.duration / config.sample_interval  # inf if it overflows
    if intervals >= MAX_SAMPLES:  # so floor(intervals) + 1 > MAX_SAMPLES
        raise ValueError(f"simulation would need more than {MAX_SAMPLES} samples")
    rng = np.random.default_rng(config.seed)
    n_samples = math.floor(intervals) + 1
    waypoints, t0s, durs = _legs(config, rng)
    positions = np.empty((2, n_samples)).T
    if not len(t0s):  # zero duration: the node stands at its start
        positions[:] = waypoints[0]
        return Trace(positions=positions, waypoints=waypoints, config=config)

    # leg k covers the samples at times in [t0s[k], t0s[k + 1])
    times = np.arange(n_samples, dtype=float) * config.sample_interval
    counts = np.diff(np.searchsorted(times, t0s, side="left"), append=n_samples)
    frac = times  # in place: the fraction of its leg each sample has covered
    frac -= np.repeat(t0s, counts)
    frac *= np.repeat(1.0 / durs, counts)
    np.minimum(frac, 1.0, out=frac)
    for axis, coord in enumerate(waypoints.T):
        step = np.repeat(np.diff(coord), counts)
        step *= frac
        np.add(np.repeat(coord[:-1], counts), step, out=positions[:, axis])
    return Trace(positions=positions, waypoints=waypoints, config=config)


def distances_to(trace: Trace, ref: RefNode) -> np.ndarray:
    """Per-sample Euclidean distance to the reference node."""
    if len(trace) == 0:
        raise ValueError("trace is empty")
    HexRegion(trace.config.side).distance_extremes(ref)  # refuses an unreachable node
    x1, y1 = ref.pos
    return np.hypot(trace.positions[:, 0] - x1, trace.positions[:, 1] - y1)


class EmpiricalCdf:
    """Right-continuous step function F(d) = (#samples <= d) / n.

    This is the convention of the CLI's ``d,ecdf`` tables, whose last row is 1.
    """

    __slots__ = ("sorted_samples",)

    def __init__(self, samples):
        arr = np.sort(np.asarray(samples, dtype=float))
        if arr.size == 0:
            raise ValueError("need at least one sample")
        # after the sort, NaN and infinities can only sit at the two ends
        if not (np.isfinite(arr[0]) and np.isfinite(arr[-1])):
            raise ValueError("samples must be finite")
        self.sorted_samples = arr

    def __len__(self):
        return self.sorted_samples.size

    def __call__(self, d):
        if np.isnan(d).any():  # searchsorted would rank NaN above every sample
            raise ValueError("d must not be NaN")
        pos = np.searchsorted(self.sorted_samples, d, side="right")
        out = pos / self.sorted_samples.size
        return float(out) if np.ndim(d) == 0 else out


def ecdf(samples) -> EmpiricalCdf:
    return EmpiricalCdf(samples)


def uniform_node_distances(region: HexRegion, ref: RefNode, n: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Distances from n i.i.d. uniform points in the hexagon to ref."""
    if n < 1:
        raise ValueError("n must be at least 1")
    region.distance_extremes(ref)  # refuses an unreachable node before drawing
    x1, y1 = ref.pos
    pts = region.sample_uniform_batch(n, rng)
    return np.hypot(pts[:, 0] - x1, pts[:, 1] - y1)


def ks_statistic(emp: EmpiricalCdf, model) -> float:
    """sup |empirical - model| over the sample points, both step sides.

    The model must be finite at every sample, or ``ValueError`` is raised.
    """
    s = emp.sorted_samples
    n = s.size
    m = np.asarray(model(s), dtype=float)
    # the ecdf is steps[i] just below s[i] and steps[i + 1] at it
    steps = np.arange(n + 1, dtype=float) / n
    # below <= above and rounding is monotone, so the larger of |m - below|
    # and |m - above| is m - below or above - m: no abs pass is needed
    ks = float(max(np.max(m - steps[:-1]), np.max(steps[1:] - m)))
    if not math.isfinite(ks):  # NaN or an infinity in m reaches the max
        raise ValueError("model values must be finite")
    return ks
