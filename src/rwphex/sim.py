"""Random-waypoint simulator in the hexagon and empirical-CDF tooling.

Legs are generated sequentially (each start is the previous destination);
positions are then sampled at exact multiples of the sample interval by
interpolating along the active leg.  The seed fully determines a trace.
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

    positions: np.ndarray  # (n, 2)
    waypoints: np.ndarray  # (legs + 1, 2)
    config: SimConfig = field(repr=False)

    def __len__(self):
        return len(self.positions)


def simulate(config: SimConfig) -> Trace:
    """Run one RWP trace and sample it on the fixed clock grid."""
    rng = np.random.default_rng(config.seed)
    region = HexRegion(config.side)
    n_samples = math.floor(config.duration / config.sample_interval) + 1

    pos = region.sample_uniform_batch(1, rng)[0]
    waypoints = [pos]
    starts, vecs, t0s, inv_durs = [], [], [], []
    t = 0.0
    while t < config.duration:
        dest = region.sample_uniform_batch(1, rng)[0]
        speed = rng.uniform(config.v_min, config.v_max)
        leg = dest - pos
        leg_dur = float(np.hypot(*leg)) / speed
        if leg_dur <= 0.0:
            continue  # coincident waypoint; pick again
        starts.append(pos)
        vecs.append(leg)
        t0s.append(t)
        inv_durs.append(1.0 / leg_dur)
        waypoints.append(dest)
        t += leg_dur
        pos = dest

    if not starts:
        positions = np.tile(pos, (n_samples, 1))
        return Trace(positions=positions, waypoints=np.asarray(waypoints), config=config)

    starts = np.asarray(starts)
    vecs = np.asarray(vecs)
    t0s = np.asarray(t0s)
    inv_durs = np.asarray(inv_durs)
    times = np.arange(n_samples) * config.sample_interval
    idx = np.clip(np.searchsorted(t0s, times, side="right") - 1, 0, len(t0s) - 1)
    frac = np.minimum((times - t0s[idx]) * inv_durs[idx], 1.0)
    positions = starts[idx] + frac[:, None] * vecs[idx]
    return Trace(positions=positions, waypoints=np.asarray(waypoints), config=config)


def distances_to(trace: Trace, ref: RefNode) -> np.ndarray:
    """Per-sample Euclidean distance to the reference node."""
    if len(trace) == 0:
        raise ValueError("trace is empty")
    x1, y1 = ref.pos
    return np.hypot(trace.positions[:, 0] - x1, trace.positions[:, 1] - y1)


class EmpiricalCdf:
    """Step function F(d) = (#samples < d) / n (strict-less convention)."""

    __slots__ = ("sorted_samples",)

    def __init__(self, samples):
        arr = np.sort(np.asarray(samples, dtype=float))
        if arr.size == 0:
            raise ValueError("need at least one sample")
        self.sorted_samples = arr

    def __len__(self):
        return self.sorted_samples.size

    def __call__(self, d):
        pos = np.searchsorted(self.sorted_samples, d, side="left")
        out = pos / self.sorted_samples.size
        return float(out) if np.ndim(d) == 0 else out


def ecdf(samples) -> EmpiricalCdf:
    return EmpiricalCdf(samples)


def uniform_node_distances(region: HexRegion, ref: RefNode, n: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Distances from n i.i.d. uniform points in the hexagon to ref."""
    if n < 1:
        raise ValueError("n must be at least 1")
    pts = region.sample_uniform_batch(n, rng)
    x1, y1 = ref.pos
    return np.hypot(pts[:, 0] - x1, pts[:, 1] - y1)


def ks_statistic(emp: EmpiricalCdf, model) -> float:
    """sup |empirical - model| over the sample points, both step sides."""
    s = emp.sorted_samples
    n = s.size
    m = np.asarray(model(s), dtype=float)
    below = np.arange(n) / n
    above = np.arange(1, n + 1) / n
    return float(max(np.max(np.abs(m - below)), np.max(np.abs(m - above))))
