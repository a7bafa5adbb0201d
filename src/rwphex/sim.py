"""Random-waypoint simulator in the hexagon and empirical-CDF tooling.

Legs are generated in blocks of ``LEG_BLOCK``: one call draws the block's
destinations and one its speeds, each leg starts at the previous kept
destination, and a cumulative sum of the leg durations gives the start
times.  Zero-length legs are dropped, and legs that start at or after the
duration are discarded, so the last block wastes at most ``LEG_BLOCK - 1``
draws.

Positions are sampled at exact multiples of the sample interval by
interpolating along the active leg, a block of ``SAMPLE_BLOCK`` samples at
a time.  Within a block the clock is split by leg, not by sample: two
``searchsorted`` calls on the leg starts find the legs that cover the
block, one more finds each leg's first sample in it, and ``np.repeat``
expands each leg's start time, inverse duration, origin and vector over
its samples.  Each sample gets the same operations whatever the block, so
the block size moves no bit of a trace.  The two coordinates are written
into one ``(2, n)`` buffer, and ``Trace.positions`` is its ``(n, 2)``
transpose, so each column is contiguous in memory.

So ``simulate`` holds 16 bytes per sample, 32 per leg and one block's
temporaries (about 1.3 MB).  At the paper's speeds, about three legs per
100 samples, its ``tracemalloc`` peak is 17.8 bytes per sample at 10**6
samples, and about 1.8 GB at ``MAX_SAMPLES``.

The seed fully determines a trace.  Because the random stream is consumed a
block at a time, ``LEG_BLOCK`` is part of the seed-to-trace mapping: another
block size gives another trace from the same seed, with the same
distribution.  A configuration that needs more than ``MAX_SAMPLES`` samples,
or is projected to need more than ``MAX_LEGS`` legs, raises ``ValueError``
instead of running, and so does ``uniform_node_distances`` for more than
``MAX_SAMPLES`` points.

A ``Trace`` checks its own fields when it is built, as ``SimConfig`` does:
the configuration must be a ``SimConfig``, and the positions and waypoints
real by ``piecewise._float_array``'s rule, of shape (n, 2) with n >= 1.  A
float64 array is kept as the same object, so building a trace makes no pass
over its values and keeps ``simulate``'s contiguous columns.  Whether the
values are finite is left to the distance pass, which refuses what it cannot
compute: a block whose largest distance is not finite, from a NaN or
infinite position or one too far from the node, raises ``ValueError``.

Distances and the KS pass work on blocks of ``SAMPLE_BLOCK`` samples too,
so each of their temporaries stays in cache.  A distance is
``sqrt(dx**2 + dy**2)`` on dx and dy scaled by the power of two that
brings the cell's largest distance to the node, d_max, into [0.5, 1): the
squares cannot overflow at any side, and only a distance below about
1e-154 * d_max loses bits to underflow.  Since version 0.3.0 this replaces
``np.hypot``, and a distance can differ from 0.2.0's by 1 ulp; traces are
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hexgeom import HexRegion, RefNode, _count, _real
from .piecewise import _float_array

__all__ = [
    "SimConfig",
    "Trace",
    "simulate",
    "distances_to",
    "ecdf",
    "uniform_node_distances",
    "ks_statistic",
]

LEG_BLOCK = 4096  # legs drawn per block; part of the seed-to-trace mapping
MAX_LEGS = 10**7  # a simulation projected to need more legs is refused
MAX_SAMPLES = 10**8  # a simulation that needs more samples is refused
SAMPLE_BLOCK = 1 << 15  # samples per block of the clock, distance and KS passes: 256 KiB


@dataclass(frozen=True)
class SimConfig:
    """One simulation's inputs; each field holds the value it was checked as:
    a float, or an int for ``seed``."""

    side: float
    v_min: float
    v_max: float
    duration: float
    sample_interval: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # HexRegion checks the side
        object.__setattr__(self, "side", HexRegion(self.side).side)
        for name in ("v_min", "v_max", "duration", "sample_interval"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not (0 < self.v_min <= self.v_max):
            raise ValueError("need 0 < v_min <= v_max")
        if not self.sample_interval > 0:
            raise ValueError("sample_interval must be positive")
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0))


@dataclass(frozen=True)
class Trace:
    """Positions sampled every ``config.sample_interval`` seconds.

    ``waypoints`` holds the leg endpoints actually visited (the uniform
    start followed by each destination), for diagnostics on waypoint
    uniformity, and ``legs`` counts the legs between them.  Each array
    field holds the float array it was checked as: real, of shape (n, 2)
    with n >= 1.  A float64 array is kept as it is, with no pass over its
    values.
    """

    positions: np.ndarray  # (n, 2); simulate gives each column contiguous
    waypoints: np.ndarray  # (legs + 1, 2)
    config: SimConfig = field(repr=False)

    def __post_init__(self):
        if not isinstance(self.config, SimConfig):
            raise ValueError("config must be a SimConfig")
        for name in ("positions", "waypoints"):
            try:
                arr = _float_array(getattr(self, name))
            except ValueError:  # DomainError too: an int beyond the float range
                raise ValueError(f"{name} must be an array of real numbers") from None
            if arr.ndim != 2 or arr.shape[1] != 2 or not len(arr):
                raise ValueError(f"{name} have shape {arr.shape}; need (n, 2) with n >= 1")
            object.__setattr__(self, name, arr)

    def __len__(self):
        return len(self.positions)

    @property
    def legs(self) -> int:
        """The number of legs: one per waypoint after the start."""
        return len(self.waypoints[1:])


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
        # a leg, or a clock, too long for a float lasts forever
        with np.errstate(over="ignore"):
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
    if not isinstance(config, SimConfig):
        raise ValueError("config must be a SimConfig")
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
    for lo in range(0, n_samples, SAMPLE_BLOCK):
        hi = min(lo + SAMPLE_BLOCK, n_samples)
        frac = np.arange(lo, hi, dtype=float)
        frac *= config.sample_interval  # the block's times
        # legs a to b - 1 cover the block: the last to start at or before its
        # first time, then each later one that starts at or before its last
        a = np.searchsorted(t0s, frac[0], side="right") - 1
        b = np.searchsorted(t0s, frac[-1], side="right")
        counts = np.diff(np.searchsorted(frac, t0s[a:b], side="left"), append=hi - lo)
        # in place: the fraction of its leg each sample has covered
        frac -= np.repeat(t0s[a:b], counts)
        frac *= np.repeat(1.0 / durs[a:b], counts)
        np.minimum(frac, 1.0, out=frac)
        for axis, coord in enumerate(waypoints[a:b + 1].T):
            step = np.repeat(np.diff(coord), counts)
            step *= frac
            np.add(np.repeat(coord[:-1], counts), step, out=positions[lo:hi, axis])
    return Trace(positions=positions, waypoints=waypoints, config=config)


def distances_to(trace: Trace, ref: RefNode) -> np.ndarray:
    """Per-sample Euclidean distance to the reference node."""
    if not isinstance(trace, Trace):
        raise ValueError("trace must be a Trace")
    # refuses an unreachable node
    _, d_max = HexRegion(trace.config.side).distance_extremes(ref)
    return _distances(trace.positions[:, 0], trace.positions[:, 1], ref, d_max)


def _distances(xs, ys, ref, d_max):
    """Distances from the points (xs[i], ys[i]) to ref, by blocks.

    ``d_max`` bounds every distance from a point of the cell; dx and dy are
    scaled by 2**-e, where ``frexp(d_max)`` gives e, so their squares sum to
    less than 2.  A point off the cell may overflow at any step, so a block
    whose largest distance is not finite raises ValueError.
    """
    _, e = math.frexp(d_max)
    x1, y1 = ref.pos
    out = np.empty(len(xs))
    dy_buf = np.empty(min(len(xs), SAMPLE_BLOCK))
    with np.errstate(over="ignore"):  # an overflow leaves an inf, refused below
        for lo in range(0, len(xs), SAMPLE_BLOCK):
            hi = min(lo + SAMPLE_BLOCK, len(xs))
            dx, dy = out[lo:hi], dy_buf[:hi - lo]  # dx turns into the distance in place
            np.subtract(xs[lo:hi], x1, out=dx)
            np.subtract(ys[lo:hi], y1, out=dy)
            for v in (dx, dy):
                np.ldexp(v, -e, out=v)  # exact, barring underflow
                np.multiply(v, v, out=v)
            dx += dy
            np.sqrt(dx, out=dx)
            np.ldexp(dx, e, out=dx)
            # max propagates NaN; checked after the last ldexp, which can overflow too
            if not math.isfinite(dx.max()):
                raise ValueError("distances must be finite: a position is NaN, infinite or too far")
    return out


class EmpiricalCdf:
    """Right-continuous step function F(d) = (#samples <= d) / n."""

    __slots__ = ("sorted_samples",)

    def __init__(self, samples):
        arr = _float_array(samples)
        if arr.ndim != 1:  # np.sort would sort each row of a 2-D array
            raise ValueError(f"samples have shape {arr.shape}; need (n,)")
        arr = np.sort(arr)
        if arr.size == 0:
            raise ValueError("need at least one sample")
        # after the sort, NaN and infinities can only sit at the two ends
        if not (np.isfinite(arr[0]) and np.isfinite(arr[-1])):
            raise ValueError("samples must be finite")
        self.sorted_samples = arr

    def __len__(self):
        return self.sorted_samples.size

    def __call__(self, d):
        d = _float_array(d)
        if np.isnan(d).any():  # searchsorted would rank NaN above every sample
            raise ValueError("d must not be NaN")
        pos = np.searchsorted(self.sorted_samples, d, side="right")
        out = pos / self.sorted_samples.size
        return float(out) if d.ndim == 0 else out


def ecdf(samples) -> EmpiricalCdf:
    return EmpiricalCdf(samples)


def uniform_node_distances(region: HexRegion, ref: RefNode, n: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Distances from n i.i.d. uniform points in the hexagon to ref."""
    if not isinstance(region, HexRegion):  # before any draw
        raise ValueError("region must be a HexRegion")
    n = _count(n, "n", 1, MAX_SAMPLES)
    # refuses an unreachable node before drawing
    _, d_max = region.distance_extremes(ref)
    pts = region.sample_uniform_batch(n, rng)
    return _distances(pts[:, 0], pts[:, 1], ref, d_max)


def ks_statistic(emp: EmpiricalCdf, model) -> float:
    """sup |empirical - model| over the sample points, both step sides.

    ``model`` maps the sorted samples to one value each, or to one scalar.
    Any other shape, or a value that is not a finite real number (text and
    complex numbers included), raises ``ValueError``; so does an ``emp`` that
    is not an ``EmpiricalCdf``, or a ``model`` that is not callable.
    """
    if not isinstance(emp, EmpiricalCdf):
        raise ValueError("emp must be an EmpiricalCdf")
    if not callable(model):
        raise ValueError("model must be callable")
    s = emp.sorted_samples
    n = s.size
    m = _float_array(model(s))
    if m.shape not in ((), (n,)):
        raise ValueError(f"model output has shape {m.shape}; need () or ({n},)")
    ks = 0.0  # every block's value is at least 1 / (2n)
    diff = np.empty(min(n, SAMPLE_BLOCK))
    for lo in range(0, n, SAMPLE_BLOCK):
        hi = min(lo + SAMPLE_BLOCK, n)
        mb = m if m.ndim == 0 else m[lo:hi]
        diff_b = diff[:hi - lo]
        # the ecdf is steps[i] just below s[lo + i] and steps[i + 1] at it
        steps = np.arange(lo, hi + 1, dtype=float)
        steps /= n
        # below <= above and rounding is monotone, so the larger of |m - below|
        # and |m - above| is m - below or above - m: no abs pass is needed
        block = max(np.subtract(mb, steps[:-1], out=diff_b).max(),
                    np.subtract(steps[1:], mb, out=diff_b).max())
        if not math.isfinite(block):  # NaN or an infinity in mb reaches the max
            raise ValueError("model values must be finite")
        ks = max(ks, float(block))
    return ks
