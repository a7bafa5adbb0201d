import errno
import hashlib
import math
import subprocess
import sys
import tracemalloc
from importlib import import_module
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import rwphex
from rwphex import __version__, sim
from rwphex._fmt import ROWS_PER_BLOCK
from rwphex.cli import EXIT_COMPARE_FAIL, EXIT_OK, _write_csv, main
from conftest import run_fresh

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
        # at the cell's top the density is exactly 0 and the CDF exactly 1
        assert out.read_text().splitlines()[-1] == "2,0,1"

    def test_y_last_row_is_one(self, tmp_path):
        out = tmp_path / "my.csv"
        assert main(["marginals", "--axis", "y", "--grid-n", "5", "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert data[-1, 0] == pytest.approx(SQRT3, rel=1e-12)
        assert data[-1, 2] == pytest.approx(1.0, rel=1e-12)
        assert out.read_text().splitlines()[-1] == "1.7320508075688772,0,1"

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

    def test_unwritable_manifest_leaves_no_csv(self, tmp_path, capsys):
        # the CSV is written first, and removed again when its manifest fails
        out = tmp_path / "out.csv"
        manifest = Path(str(out) + ".manifest")
        manifest.mkdir()
        assert main(["marginals", "--axis", "x", "--grid-n", "3", "--out", str(out)]) == 2
        assert not out.exists() and manifest.is_dir()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {manifest}: ")
        assert err[0].count(str(manifest)) == 1

    def test_missing_directory_is_named_once(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["marginals", "--axis", "x", "--grid-n", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: No such file or directory\n"
        assert not out.parent.exists()

    def test_failed_write_leaves_no_partial_csv(self, tmp_path, monkeypatch, capsys):
        # the first block is written, then the device fills up
        def rows(columns):
            yield b"0,0,0\n"
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(rwphex._fmt, "csv_rows", rows)
        out = tmp_path / "x.csv"
        assert main(["marginals", "--axis", "x", "--grid-n", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: No space left on device\n"
        assert list(tmp_path.iterdir()) == []

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
        assert data.shape == (12, 2)
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
    special = [-0.0, 5e-324, 1e-300, 1 / 3, 1.0, 0.1, -2.5e17, 123456789.0,
               -2.2250738585072014e-308, 0.0001, 1e16, 1e17]
    rng = np.random.default_rng(1)
    # longer than two blocks of the formatter
    n = 2 * ROWS_PER_BLOCK + 3
    a = np.concatenate((special, rng.standard_normal(n)))
    b = np.concatenate((special[::-1], rng.uniform(0.0, 1e-8, n)))
    c = np.concatenate((special, rng.uniform(0.0, 2.0, n)))
    out = tmp_path / "t.csv"
    _write_csv(out, ("a", "b", "c"), a, b, c)
    expected = "a,b,c\n" + "".join(f"{format(x, '.17g')},{format(y, '.17g')},{format(z, '.17g')}\n"
                                     for x, y, z in zip(a.tolist(), b.tolist(), c.tolist()))
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
        # one row per distinct d: both columns strictly increase
        assert np.all(np.diff(data, axis=0) > 0)
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

    monkeypatch.setattr("rwphex.sim.simulate", fail)
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
        header, data = read_csv(out)
        assert header == ["d", "ecdf"]
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
        assert "result=pass" in captured.splitlines()

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

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_usage_error(self, tmp_path, capsys, threshold):
        # refused before either file is read: the files need not exist
        missing = str(tmp_path / "missing.csv")
        assert main(["compare", missing, missing, f"--threshold={threshold}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --threshold must be finite\n"

    @pytest.mark.parametrize("text, message", [
        ("", "expected a two-column CSV with a 'd' column"),
        ("d,cdf\n# a comment\n\n", "no data rows"),
    ], ids=["empty", "comment-only"])
    def test_table_without_rows_is_usage_error(self, tmp_path, capsys, text, message):
        empty = tmp_path / "empty.csv"
        empty.write_text(text)
        good = tmp_path / "good.csv"
        good.write_text("d,cdf\n0,0\n1,1\n")
        assert main(["compare", str(good), str(empty)]) == 2
        assert capsys.readouterr().err == f"error: {empty}: {message}\n"

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read {path}: No such file or directory"),
        ("d,ecdf\n1,0.5\n0,1\n", "{path}: d column must be sorted"),
        ("d,ecdf\n5,0.5\n6,1\n", "curves have no overlapping d-range"),
    ], ids=["missing", "unsorted", "no-overlap"])
    def test_refused_table_is_usage_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.csv"
        if text is not None:
            path.write_text(text)
        good = tmp_path / "good.csv"
        good.write_text("d,cdf\n0,0\n1,1\n")
        assert main(["compare", str(good), str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: " + message.format(path=path) + "\n"

    def test_non_numeric_value_keeps_numpys_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("d,ecdf\n0,0\n1,x\n")
        good = tmp_path / "good.csv"
        good.write_text("d,cdf\n0,0\n1,1\n")
        with pytest.raises(ValueError) as info:
            np.loadtxt(bad, delimiter=",", skiprows=1, ndmin=2)
        assert main(["compare", str(good), str(bad)]) == 2
        assert capsys.readouterr().err == f"error: cannot parse {bad}: {info.value}\n"

    def test_header_only_table_prints_one_error_line(self, tmp_path):
        # in its own process, so that a warning numpy prints would reach stderr
        hdr = tmp_path / "hdr.csv"
        hdr.write_text("d,cdf\n")
        good = tmp_path / "good.csv"
        good.write_text("d,cdf\n0,0\n1,1\n")
        result = subprocess.run(
            [sys.executable, "-m", "rwphex.cli", "compare", str(good), str(hdr)],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr == f"error: {hdr}: no data rows\n"

    @pytest.mark.parametrize("row, found", [("0.5,0.5,9", 3), ("0.5", 1)], ids=["long", "short"])
    def test_ragged_table_names_its_line(self, tmp_path, row, found):
        # numpy's own message for this advises an option the CLI does not have
        bad = tmp_path / "bad.csv"
        bad.write_text(f"d,ecdf\n# a comment\n0,0\n{row}\n1,1\n")
        good = tmp_path / "good.csv"
        good.write_text("d,cdf\n0,0\n1,1\n")
        result = subprocess.run(
            [sys.executable, "-m", "rwphex.cli", "compare", str(good), str(bad)],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr == f"error: {bad}: line 4: expected 2 columns, found {found}\n"
        assert "usecols" not in result.stderr


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "rwphex.cli", "marginals", "--axis", "x",
         "--grid-n", "3", "--out", str(tmp_path / "m.csv")],
        capture_output=True,
    )
    assert result.returncode == 0


# every public name and the submodule that defines it
PUBLIC_HOMES = {
    "AxisMarginal": "marginals", "CdfCurve": "distance", "DomainError": "piecewise",
    "HexRegion": "hexgeom", "PiecewisePolynomial": "piecewise", "Point2": "hexgeom",
    "RefNode": "hexgeom", "SQRT3": "hexgeom", "SimConfig": "sim", "Trace": "sim",
    "axis_marginal": "marginals", "distance_cdf": "distance",
    "distance_cdf_curve": "distance", "distances_to": "sim", "ecdf": "sim",
    "ks_statistic": "sim", "product_mass_hexagon": "distance", "simulate": "sim",
    "stationary_cdf_x": "marginals", "stationary_cdf_y": "marginals",
    "stationary_pdf_x": "marginals", "stationary_pdf_y": "marginals",
    "uniform_node_distances": "sim",
}


def test_star_import_binds_no_module():
    assert rwphex.__all__ == sorted(PUBLIC_HOMES)
    assert set(rwphex.__all__) <= set(dir(rwphex))
    assert not [name for name in rwphex.__all__
                if isinstance(getattr(rwphex, name), ModuleType)]
    for name, home in PUBLIC_HOMES.items():
        assert getattr(rwphex, name) is getattr(import_module(f"rwphex.{home}"), name), name
    namespace = {}
    exec("from rwphex import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == rwphex.__all__


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rwphex.no_such_name
    assert not hasattr(rwphex, "__no_such_dunder__")
    with pytest.raises(ImportError):
        exec("from rwphex import no_such_name", {})


def loaded_after(code):
    """The ``rwphex`` modules, and ``fractions``, that a fresh interpreter
    holds after running ``code``."""
    probe = (f"{code}\nimport sys\nprint(' '.join(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'rwphex' or m == 'fractions')))")
    return set(run_fresh(probe, timeout=60).splitlines()[-1].split())


class TestLoadedModules:
    """A process loads only the modules its command runs."""

    CLI = {"rwphex", "rwphex.cli"}
    SIM = CLI | {"rwphex._fmt", "rwphex.hexgeom", "rwphex.piecewise", "rwphex.sim"}
    ANALYTIC = CLI | {"fractions", "rwphex._fmt", "rwphex.distance", "rwphex.hexgeom",
                      "rwphex.marginals", "rwphex.piecewise"}
    NODE = ["--ref-x", "1", "--ref-y", "0.8"]

    def test_package_loads_no_submodule(self):
        # dir() lists every public name without loading its module
        code = "import rwphex\nassert set(rwphex.__all__) <= set(dir(rwphex))"
        assert loaded_after(code) == {"rwphex"}

    def test_cli_module_loads_no_library_module(self):
        assert loaded_after("import rwphex.cli") == self.CLI

    def test_submodule_resolves_after_bare_import(self):
        code = ("import sys, rwphex\n"
                "assert rwphex.distance is sys.modules['rwphex.distance']\n"
                "assert rwphex.distance.distance_cdf is rwphex.distance_cdf")
        assert "rwphex.distance" in loaded_after(code)

    @pytest.mark.parametrize("argv, expected", [
        (["simulate", *NODE, "--duration", "50", "--seed", "1"], SIM),
        (["baseline", *NODE, "--n", "50", "--seed", "1"], SIM),
        (["marginals", "--axis", "x", "--grid-n", "5"], ANALYTIC),
        (["distance-cdf", *NODE, "--grid-n", "5"], ANALYTIC),
    ], ids=["simulate", "baseline", "marginals", "distance-cdf"])
    def test_table_command(self, tmp_path, argv, expected):
        # a simulation loads neither marginals, distance nor fractions
        argv = [*argv, "--out", str(tmp_path / "out.csv")]
        assert loaded_after(f"from rwphex.cli import main\nassert main({argv!r}) == 0") == expected

    def test_compare_loads_nothing_more(self, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("d,cdf\n0,0\n1,1\n")
        argv = ["compare", str(table), str(table)]
        assert loaded_after(f"from rwphex.cli import main\nassert main({argv!r}) == 0") == self.CLI


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == __version__


# One run of each table command: its argv without --out, the SHA-256 of its
# CSV, and its manifest without the wall_clock_s line.
PINNED_RUNS = {
    "marginals-x": (["marginals", "--axis", "x", "--grid-n", "7"],
                    "882fdcc0c460621452e5929e79a0f13260bd44ba5cc41a04ca46b93b9603cfd6",
                    "command=marginals\naxis=x\ngrid_n=7\nside=1.0\n"),
    "marginals-y": (["marginals", "--axis", "y", "--side", "2.5", "--grid-n", "9"],
                    "74af1d3ef071255d418d437c1d4d871fd126fb00b300d387e81c4175da753174",
                    "command=marginals\naxis=y\ngrid_n=9\nside=2.5\n"),
    "cdf-inner": (["distance-cdf", "--ref-x", "1", "--ref-y", "0.8", "--grid-n", "12"],
                  "c5a62edbf7e6f5fadcc4cddfeb8a05247643ab102e067cccfd8b2a5338f4ae91",
                  "command=distance-cdf\ngrid_n=12\nref_x=1.0\nref_y=0.8\nside=1.0\n"),
    "cdf-outer": (["distance-cdf", "--side", "2", "--ref-x", "3", "--ref-y", "3",
                   "--grid-n", "12"],
                  "5db9887802f2ed71dea96368def2fbcb877fcb006059410480951f84f47b4501",
                  "command=distance-cdf\ngrid_n=12\nref_x=3.0\nref_y=3.0\nside=2.0\n"),
    "simulate": (["simulate", "--ref-x", "1", "--ref-y", "0.8", "--duration", "500",
                  "--seed", "77"],
                 "33b56732268b6fe60c94aea01c07b8fc11075767973f24ea6ffcd9e3cc859668",
                 "command=simulate\ndt=1.0\nduration=500.0\nlegs=14\nref_x=1.0\nref_y=0.8\n"
                 "samples=501\nseed=77\nside=1.0\nv_max=0.05\nv_min=0.01\n"),
    "baseline": (["baseline", "--ref-x", "1", "--ref-y", "0.8", "--n", "1000", "--seed", "3"],
                 "ab930bf196eb6551573a6136e9c9ff34dbc2e2d7e92be9c73b84fe1a8acd1943",
                 "command=baseline\nn=1000\nref_x=1.0\nref_y=0.8\nseed=3\nside=1.0\n"),
    # a tenth of the benchmark's table sizes: many write blocks each
    "simulate-1e5": (["simulate", "--ref-x", "0", "--ref-y", "0", "--duration", "100000",
                      "--seed", "19"],
                     "2948e631dd2248c0c6e99384463113bff885b5aea136f420823f26797037ec4b",
                     "command=simulate\ndt=1.0\nduration=100000.0\nlegs=2981\nref_x=0.0\n"
                     "ref_y=0.0\nsamples=100001\nseed=19\nside=1.0\nv_max=0.05\nv_min=0.01\n"),
    "baseline-1e5": (["baseline", "--ref-x", "0", "--ref-y", "0", "--n", "100000", "--seed", "19"],
                     "f90d402223c87ddcbb0cf8e6c5d750228c4858650b54582b092f97082d442d55",
                     "command=baseline\nn=100000\nref_x=0.0\nref_y=0.0\nseed=19\nside=1.0\n"),
}


@pytest.fixture(scope="module")
def pinned_outputs(tmp_path_factory):
    """Run every pinned command once; the directory that holds their outputs."""
    out_dir = tmp_path_factory.mktemp("pinned")
    for name, (argv, _, _) in PINNED_RUNS.items():
        assert main(argv + ["--out", str(out_dir / f"{name}.csv")]) == 0
    return out_dir


@pytest.mark.parametrize("name", PINNED_RUNS)
def test_output_bytes_pinned(pinned_outputs, name):
    _, csv_digest, manifest = PINNED_RUNS[name]
    out = pinned_outputs / f"{name}.csv"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest
    lines = Path(str(out) + ".manifest").read_bytes().decode().splitlines(keepends=True)
    assert [line for line in lines if line.startswith("wall_clock_s=")]
    kept = "".join(line for line in lines if not line.startswith("wall_clock_s="))
    assert kept == manifest + f"version={__version__}\n"


def test_compare_output_pinned(pinned_outputs, capsys):
    rc = main(["compare", str(pinned_outputs / "cdf-inner.csv"),
               str(pinned_outputs / "simulate.csv")])
    assert rc == 1
    assert capsys.readouterr().out == ("ks_statistic=0.086660681431026565\n"
                                       "max_gap_at_d=0.54996007609053887\n"
                                       "threshold=0.050000000000000003\n"
                                       "result=fail\n")


def traced_peak(argv):
    """``main(argv)``'s exit code and its peak traced memory, in bytes."""
    tracemalloc.start()
    try:
        return main(argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """simulate holds the trace, then the sorted distances and the table's two
    columns; compare holds each table's two columns, the grid and the gap."""

    SAMPLES = 200_001

    @pytest.fixture(scope="class")
    def tables(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("peak")
        sim_csv, cdf_csv = str(out / "sim.csv"), str(out / "cdf.csv")
        ref = ["--ref-x", "0", "--ref-y", str(SQRT3 / 2)]
        assert main(["distance-cdf", *ref, "--out", cdf_csv]) == 0
        rc, peak = traced_peak(["simulate", *ref, "--duration", str(self.SAMPLES - 1),
                                "--seed", "11", "--out", sim_csv])
        assert rc == 0
        return cdf_csv, sim_csv, peak

    def test_simulate_per_sample(self, tables):
        peak = tables[2]
        assert peak <= 40 * self.SAMPLES, f"{peak / self.SAMPLES:.1f} B/sample"

    def test_compare_per_row(self, tables, capsys):
        cdf_csv, sim_csv, _ = tables
        with open(sim_csv) as fh:
            rows = sum(1 for _ in fh) - 1
        rc, peak = traced_peak(["compare", cdf_csv, sim_csv])
        assert rc in (EXIT_OK, EXIT_COMPARE_FAIL), capsys.readouterr().err
        assert peak <= 56 * rows, f"{peak / rows:.1f} B/row"
