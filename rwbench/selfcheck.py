"""Self-check of the benchmark at a tiny size (about two minutes on two cores).

    python3 -m pytest -q rwbench/selfcheck.py

Every workload runs once untraced and once traced; each must emit every
metric BENCHMARK.json names, with its unit, and pass its checks.  Then
deliberately wrong models must show up as failed operations.  The file is
not named ``test_*.py`` so that the library's own test run does not collect it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run._use_source_tree()

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from rwphex.hexgeom import HexRegion  # noqa: E402
from rwphex.sim import Trace  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# KS noise at these durations stays well under the 0.05 bound at this seed
TINY = W.Sizes(sim_duration=3e5, cli_sim_duration=3e5, cli_baseline_n=10_000)
SEED = 7


def _run(name, trace=False, seconds=0.0, api=None):
    result, _ = run.run_workload(name, SEED, seconds, trace, TINY, api, setup_repeats=(1, 1))
    return result


def _units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", run.NAMES)
def test_end_to_end_metrics_emitted(name):
    result = _run(name, seconds=0.5)
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", run.NAMES)
def test_per_layer_metrics_emitted(name):
    result = _run(name, trace=True)
    assert result["correct"], result
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert os.path.exists(os.path.join(run.OUT, f"trace-{name}-seed{SEED}.json"))


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES) == list(W.WORKLOADS)


def test_shifted_curve_fails():
    def shifted(ref, side, n):
        c = W.rwphex.distance_cdf_curve(ref, side, n)
        return W.rwphex.CdfCurve(c.d_values, np.clip(c.cdf_values + 1e-3, 0, 1), c.ref, c.side)

    result = _run("curve-refs", api=W.Api(distance_cdf_curve=shifted))
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["cdf_max_abs_err"]["value"] >= 1e-3 - 1e-9


def test_shifted_point_query_fails():
    def shifted(ref, side, d):
        return min(1.0, W.rwphex.distance_cdf(ref, side, d) + 1e-3)

    result = _run("point-queries", seconds=0.5, api=W.Api(distance_cdf=shifted))
    assert not result["correct"] and result["failed"] > 0


def test_uniform_baseline_in_place_of_rwp_fails():
    def uniform(config):
        n = int(config.duration // config.sample_interval) + 1
        rng = np.random.default_rng(config.seed)
        pts = HexRegion(config.side).sample_uniform_batch(n, rng)
        return Trace(positions=pts, waypoints=pts[:2], config=config)

    result = _run("sim-validate", api=W.Api(simulate=uniform))
    assert result["failed"] == result["attempted"] > 0


def test_uniform_baseline_in_cli_pipeline_fails(monkeypatch):
    # write the i.i.d. uniform baseline where the simulation output belongs
    commands = tuple(("baseline", "sim.csv", "d,ecdf") if c[0] == "simulate" else c
                     for c in W.CLI_COMMANDS)
    monkeypatch.setattr(W.CliPipeline, "commands", commands)
    result = _run("cli-pipeline")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 5 > 0   # each round's compare


def test_tail_latency_rule():
    assert run.tail_latency(list(range(1, 1001)))[1:] == (99.0, 10)
    assert run.tail_latency(list(range(1, 20)))[1] == 50.0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "rwbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", "curve-refs", "--seed", "1", "--seconds", "1",
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
