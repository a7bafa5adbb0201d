import math
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import rwphex
from rwphex import __version__, sim
from rwphex.cli import _write_csv, main

SQRT3 = math.sqrt(3.0)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, np.array([[float(v) for v in r] for r in rows])


class TestMarginalsCommand:
    def test_x_three_point_grid(self, tmp_path):
        out = tmp_path / "mx.csv"
        assert main(["marginals", "--axis", "x", "--grid-n", "3", "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["coord", "pdf", "cdf"]
        assert np.allclose(data[:, 0], [0.0, 1.0, 2.0])
        assert np.allclose(data[:, 2], [0.0, 0.5, 1.0], atol=1e-12)

    def test_y_last_row_is_one(self, tmp_path):
        out = tmp_path / "my.csv"
        assert main(["marginals", "--axis", "y", "--grid-n", "5", "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert data[-1, 0] == pytest.approx(SQRT3, rel=1e-12)
        assert data[-1, 2] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("axis,side", [("x", "1e300"), ("y", "1e-300")])
    def test_side_far_from_one_answers(self, tmp_path, axis, side):
        # each table is read at coord / side, so the cell's midpoint has CDF 0.5
        out = tmp_path / "m.csv"
        assert main(["marginals", "--axis", axis, "--side", side, "--grid-n", "5",
                     "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert np.all(np.isfinite(data))
        assert data[2, 2] == pytest.approx(0.5, abs=1e-15)
        assert data[-1, 2] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("side", ["1e-310", "1e308"])
    def test_subnormal_or_overflowing_side_is_usage_error(self, tmp_path, side):
        # 1 / side overflows at a subnormal side, and 3 * side at 1e308
        out = tmp_path / "m.csv"
        assert main(["marginals", "--axis", "x", "--side", side, "--grid-n", "5",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_grid_n_one_is_usage_error(self, tmp_path):
        out = tmp_path / "bad.csv"
        assert main(["marginals", "--axis", "x", "--grid-n", "1", "--out", str(out)]) == 2

    @pytest.mark.parametrize("command", [["marginals", "--axis", "x"],
                                         ["distance-cdf", "--ref-x", "0", "--ref-y", "0"]])
    def test_grid_n_over_limit_is_usage_error(self, tmp_path, monkeypatch, capsys, command):
        # the cap is read at call time, so a small one stands in for 10**6
        monkeypatch.setattr(rwphex.distance, "MAX_CURVE_POINTS", 9)
        ok, bad = tmp_path / "ok.csv", tmp_path / "bad.csv"
        assert main(command + ["--grid-n", "9", "--out", str(ok)]) == 0
        assert main(command + ["--grid-n", "10", "--out", str(bad)]) == 2
        assert "--grid-n must be at most 9" in capsys.readouterr().err
        assert ok.exists() and not bad.exists()
        assert not Path(str(bad) + ".manifest").exists()

    def test_unwritable_path(self):
        assert main(["marginals", "--axis", "x", "--grid-n", "3",
                     "--out", "/nonexistent-dir/x.csv"]) == 2

    def test_round_trip_precision(self, tmp_path):
        from rwphex import axis_marginal
        out = tmp_path / "mx.csv"
        main(["marginals", "--axis", "x", "--grid-n", "7", "--out", str(out)])
        _, data = read_csv(out)
        m = axis_marginal("x", 1.0)
        for coord, pdf, cdf in data:
            assert pdf == m.stationary_pdf(coord)
            assert cdf == m.stationary_cdf(coord)

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "mx.csv"
        main(["marginals", "--axis", "x", "--grid-n", "3", "--out", str(out)])
        text = (tmp_path / "mx.csv.manifest").read_text()
        assert "command=marginals" in text
        assert "grid_n=3" in text


class TestDistanceCdfCommand:
    def test_interior_reference(self, tmp_path):
        out = tmp_path / "cdf.csv"
        rc = main(["distance-cdf", "--ref-x", "1.0", "--ref-y", str(SQRT3 / 2),
                   "--grid-n", "12", "--out", str(out)])
        assert rc == 0
        header, data = read_csv(out)
        assert header == ["d", "cdf"]
        assert data[0, 0] == 0.0
        assert np.all(np.diff(data[:, 1]) >= -1e-8)

    def test_exterior_reference_starts_far(self, tmp_path):
        out = tmp_path / "cdf.csv"
        assert main(["distance-cdf", "--ref-x", "3", "--ref-y", "3",
                     "--grid-n", "8", "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert data[0, 0] > 1.9

    def test_nan_reference_is_usage_error(self, tmp_path):
        # a NaN reference used to send the quadrature into an unbounded loop
        result = subprocess.run(
            [sys.executable, "-m", "rwphex.cli", "distance-cdf", "--ref-x", "nan",
             "--ref-y", "0", "--grid-n", "5", "--out", str(tmp_path / "cdf.csv")],
            capture_output=True, text=True, timeout=10,
        )
        assert result.returncode == 2
        assert not (tmp_path / "cdf.csv").exists()


def test_csv_writer_matches_per_value_format(tmp_path):
    special = [-0.0, 5e-324, 1e-300, 1 / 3, 1.0, 0.1, -2.5e17, 123456789.0]
    rng = np.random.default_rng(1)
    # longer than one write chunk
    a = np.concatenate((special, rng.standard_normal(1 << 14)))
    b = np.concatenate((special[::-1], rng.uniform(0.0, 1e-8, 1 << 14)))
    out = tmp_path / "t.csv"
    _write_csv(out, ("a", "b"), a, b)
    expected = "a,b\n" + "".join(f"{format(x, '.17g')},{format(y, '.17g')}\n"
                                   for x, y in zip(a.tolist(), b.tolist()))
    assert out.read_bytes() == expected.encode()


class TestSimulateCommand:
    def test_small_run(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = main(["simulate", "--ref-x", "0", "--ref-y", "0", "--duration", "10",
                   "--dt", "1", "--seed", "5", "--out", str(out)])
        assert rc == 0
        header, data = read_csv(out)
        assert header == ["d", "ecdf"]
        assert data[:, 0].size <= 11
        assert data[-1, 1] == 1.0

    def test_seed_reproducibility_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["simulate", "--ref-x", "0", "--ref-y", "0", "--duration", "500",
                "--dt", "1", "--seed", "77"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_config(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = main(["simulate", "--ref-x", "0", "--ref-y", "0", "--duration", "10",
                   "--v-min", "0", "--seed", "1", "--out", str(out)])
        assert rc == 2

    def test_manifest_counts(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--ref-x", "0", "--ref-y", "0", "--duration", "10",
                     "--seed", "5", "--out", str(out)]) == 0
        lines = (tmp_path / "sim.csv.manifest").read_text().splitlines()
        fields = dict(line.split("=", 1) for line in lines)
        assert int(fields["legs"]) >= 1
        assert fields["samples"] == "11"

    def test_unbounded_simulation_is_usage_error(self, tmp_path):
        # about 10**302 legs: refused instead of looping for ever
        result = subprocess.run(
            [sys.executable, "-m", "rwphex.cli", "simulate", "--side", "1e-300",
             "--ref-x", "0", "--ref-y", "0", "--duration", "100", "--seed", "1",
             "--out", str(tmp_path / "sim.csv")],
            capture_output=True, text=True, timeout=10,
        )
        assert result.returncode == 2
        assert not (tmp_path / "sim.csv").exists()

    def test_infinite_speed_is_usage_error(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = main(["simulate", "--ref-x", "0", "--ref-y", "0", "--duration", "10",
                   "--v-max", "inf", "--seed", "1", "--out", str(out)])
        assert rc == 2


    def test_overflowing_side_is_usage_error(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = main(["simulate", "--side", "1e308", "--ref-x", "0", "--ref-y", "0",
                   "--duration", "10", "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--duration", "10", "--seed", "1"],
    ["baseline", "--n", "10", "--seed", "1"],
])
@pytest.mark.parametrize("ref", [["--ref-x", "nan", "--ref-y", "0"],
                                 ["--ref-x", "0", "--ref-y", "inf"]])
def test_non_finite_reference_is_usage_error(tmp_path, command, ref):
    # these used to write a row of nan or inf distances and exit 0
    out = tmp_path / "out.csv"
    assert main(command + ref + ["--out", str(out)]) == 2
    assert not out.exists()


def test_simulate_refuses_bad_reference_before_simulating(tmp_path, monkeypatch):
    def fail(config):
        raise AssertionError("simulate ran for a bad reference node")

    monkeypatch.setattr("rwphex.cli.simulate", fail)
    out = tmp_path / "sim.csv"
    not_finite = ["--ref-x", "nan", "--ref-y", "0", "--duration", "10"]
    # finite, but its largest distance to the cell overflows
    too_far = ["--side", "5e307", "--ref-x=-1e308", "--ref-y", "0",
               "--v-min", "1e305", "--v-max", "1e305"]
    for node in (not_finite, too_far):
        assert main(["simulate", *node, "--seed", "1", "--out", str(out)]) == 2
        assert not out.exists()


class TestBaselineCommand:
    def test_single_sample(self, tmp_path):
        out = tmp_path / "base.csv"
        assert main(["baseline", "--ref-x", "0", "--ref-y", "0", "--n", "1",
                     "--seed", "3", "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert data.shape == (1, 2)
        assert data[0, 1] == 1.0

    def test_centroid_max_distance(self, tmp_path):
        out = tmp_path / "base.csv"
        assert main(["baseline", "--ref-x", "1", "--ref-y", str(SQRT3 / 2),
                     "--n", "20000", "--seed", "3", "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert data[-1, 0] <= 1.0 + 1e-12


    def test_overflowing_side_is_usage_error(self, tmp_path):
        out = tmp_path / "base.csv"
        rc = main(["baseline", "--side", "1e308", "--ref-x", "0", "--ref-y", "0",
                   "--n", "10", "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_overflowing_vertices_are_usage_error(self, tmp_path):
        # the bounding box is finite at this side, but 3a and so two vertices are not;
        # this used to write a row of inf distances and exit 0
        out = tmp_path / "base.csv"
        rc = main(["baseline", "--side", "8.9e307", "--ref-x", "0", "--ref-y", "0",
                   "--n", "10", "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_far_reference_is_usage_error(self, tmp_path):
        # the cell is finite but distances to this node overflow;
        # this used to write a row "inf,1" and exit 0
        out = tmp_path / "base.csv"
        rc = main(["baseline", "--side", "5e307", "--ref-x=-1e308", "--ref-y", "0",
                   "--n", "100", "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_sample_count_over_limit_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sim, "MAX_SAMPLES", 1000)
        out = tmp_path / "base.csv"
        rc = main(["baseline", "--ref-x", "0", "--ref-y", "0", "--n", "1001",
                   "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_tiny_side_outside_reference(self, tmp_path):
        # squared edge lengths underflow to zero at this side; the reach
        # check used to divide by one and raise ZeroDivisionError
        out = tmp_path / "base.csv"
        assert main(["baseline", "--side", "1e-300", "--ref-x", "0", "--ref-y", "0",
                     "--n", "10", "--seed", "1", "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert np.all((data[:, 0] > 0) & (data[:, 0] <= 2.5e-300))


class TestCompareCommand:
    def test_self_comparison(self, tmp_path, capsys):
        out = tmp_path / "cdf.csv"
        main(["distance-cdf", "--ref-x", "1.0", "--ref-y", str(SQRT3 / 2),
              "--grid-n", "10", "--out", str(out)])
        assert main(["compare", str(out), str(out)]) == 0
        captured = capsys.readouterr().out
        assert "ks_statistic=0" in captured

    def test_analytic_vs_simulation_passes(self, tmp_path):
        cdf = tmp_path / "cdf.csv"
        sim = tmp_path / "sim.csv"
        main(["distance-cdf", "--ref-x", "1.0", "--ref-y", str(SQRT3 / 2),
              "--grid-n", "120", "--out", str(cdf)])
        main(["simulate", "--ref-x", "1.0", "--ref-y", str(SQRT3 / 2),
              "--duration", "100000", "--dt", "1", "--seed", "12345", "--out", str(sim)])
        assert main(["compare", str(cdf), str(sim)]) == 0

    def test_analytic_vs_uniform_baseline_fails(self, tmp_path):
        cdf = tmp_path / "cdf.csv"
        base = tmp_path / "base.csv"
        main(["distance-cdf", "--ref-x", "0", "--ref-y", "0",
              "--grid-n", "120", "--out", str(cdf)])
        main(["baseline", "--ref-x", "0", "--ref-y", "0", "--n", "100000",
              "--seed", "8", "--out", str(base)])
        assert main(["compare", str(cdf), str(base)]) == 1

    def test_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("hello\nworld\n")
        good = tmp_path / "cdf.csv"
        main(["distance-cdf", "--ref-x", "0", "--ref-y", "0",
              "--grid-n", "5", "--out", str(good)])
        assert main(["compare", str(good), str(bad)]) == 2


    @pytest.mark.parametrize("rows", ["0,0\nnan,0.5\n1,1\n", "0,0\n0.5,nan\n1,1\n"])
    def test_non_finite_value_is_usage_error(self, tmp_path, capsys, rows):
        bad = tmp_path / "bad.csv"
        bad.write_text("d,ecdf\n" + rows)
        good = tmp_path / "good.csv"
        good.write_text("d,cdf\n0,0\n0.5,0.5\n1,1\n")
        assert main(["compare", str(good), str(bad)]) == 2
        assert main(["compare", str(bad), str(good)]) == 2
        err = capsys.readouterr().err
        assert "cannot parse" in err and "must be finite" in err


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "rwphex.cli", "marginals", "--axis", "x",
         "--grid-n", "3", "--out", str(tmp_path / "m.csv")],
        capture_output=True,
    )
    assert result.returncode == 0


def test_star_import_binds_no_module():
    assert not [name for name in rwphex.__all__
                if isinstance(getattr(rwphex, name), ModuleType)]


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == __version__
