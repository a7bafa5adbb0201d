"""Every ``BENCH_*.json`` at the repository root keeps the trajectory's format.

A file records one change measured against its parent: the machine, the
seeds, and for each side the raw last line of each run of
``python3 rwbench/run.py --workload all``, plus one ``--trace 1`` line
each.  Each raw line must hold every end-to-end metric that
``BENCHMARK.json`` names, for every workload it names.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_trajectory_has_a_file():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_format(path):
    record = json.loads(path.read_text())
    machine = record["machine"]
    for key in ("vcpus", "python", "numpy"):
        assert machine[key], key
    seeds = record["seeds"]
    assert seeds and all(type(s) is int for s in seeds)

    runs = record["runs"]
    assert len(runs["parent"]) == len(runs["change"]) > 0
    for side in ("parent", "change"):
        for run in runs[side]:
            assert run["seed"] in seeds
            workloads = json.loads(run["line"])["workloads"]
            for name in WORKLOADS:
                metrics = workloads[name]["metrics"]
                missing = [m for m in END_TO_END if m not in metrics]
                assert not missing, (side, run["seed"], name, missing)
                for m in END_TO_END:
                    value = metrics[m]["value"]
                    assert isinstance(value, (int, float)) and math.isfinite(value), (name, m)

    for side in ("parent", "change"):
        assert json.loads(record["trace"][side])["workloads"]
