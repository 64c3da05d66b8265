import base64
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import read_reports_csv, reference_csv

import stream_kpca
from stream_kpca.cli import main
from stream_kpca.dataio import CHUNK_LINES, format_rows, read_matrix_csv
from stream_kpca.persist import decode_array, encode_array, load_model


def run(*argv):
    return main([str(a) for a in argv])


def run_file_size_limited(limit, *argv):
    """Run the CLI in a child process whose writes are cut off at `limit` bytes,
    as on a full disk: the child lowers its own file-size limit and ignores
    SIGXFSZ, so an oversized write fails with `File too large`."""
    pytest.importorskip("resource")
    script = (
        "import resource, signal, sys\n"
        "from stream_kpca.cli import main\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, hard))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    package_root = str(Path(stream_kpca.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=300,
    )


class TestGenData:
    def test_small_file_shape(self, tmp_path):
        out = tmp_path / "data.csv"
        assert run("gen-data", "--output", out, "--n", 10, "--d", 4, "--s", 2,
                   "--seed", 7) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 10
        assert all(len(line.split(",")) == 4 for line in lines)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run("gen-data", "--output", out, "--n", 25, "--d", 6, "--s", 3, "--seed", 1)
        assert a.read_bytes() == b.read_bytes()

    def test_large_round_trip(self, tmp_path):
        out = tmp_path / "wide.csv"
        assert run("gen-data", "--output", out, "--n", 200, "--d", 1000, "--s", 50,
                   "--zeta", 10, "--seed", 3) == 0
        back = read_matrix_csv(out)
        assert back.shape == (200, 1000)

    def test_header_flag(self, tmp_path):
        out = tmp_path / "h.csv"
        run("gen-data", "--output", out, "--n", 3, "--d", 2, "--s", 1, "--header")
        assert out.read_text().splitlines()[0] == "c0,c1"

    @pytest.mark.parametrize("existing", [False, True])
    def test_cut_off_write_leaves_no_output(self, existing, tmp_path, capsys,
                                            second_chunk_fails):
        out = tmp_path / "data.csv"
        if existing:
            out.write_text("earlier output\n")
        assert run("gen-data", "--output", out, "--n", CHUNK_LINES + 1, "--d", 2,
                   "--s", 1) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert second_chunk_fails == [CHUNK_LINES, 1]
        assert out.read_text() == "earlier output\n" if existing else not out.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["data.csv"] * existing

    def test_bad_config_exit_code(self, tmp_path, capsys):
        rc = run("gen-data", "--output", tmp_path / "x.csv", "--n", 10, "--d", 4, "--s", 9)
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    run("gen-data", "--output", path, "--n", 80, "--d", 6, "--s", 3, "--seed", 5)
    return path


class TestTrain:
    def test_skpca_eps_summary_reports_derivation(self, data_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        rc = run("train", "--input", data_csv, "--output", model, "--method", "skpca",
                 "--eps", "0.45", "--delta", "0.2", "--seed", 2)
        assert rc == 0
        out = capsys.readouterr().out
        # m = ceil(((9 + 8*0.45)/0.45^2) * ln(2*80/0.2)) and ell = even-ceil(4/0.45)
        assert "m=416" in out
        assert "ell=10" in out
        assert "n=80" in out
        assert "space_entries=" in out

    def test_byte_identical_model_across_runs(self, data_csv, tmp_path):
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        for path in (m1, m2):
            assert run("train", "--input", data_csv, "--output", path, "--method",
                       "skpca", "--m", 32, "--ell", 4, "--seed", 9) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_empty_input_writes_nothing(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        model = tmp_path / "model.json"
        rc = run("train", "--input", empty, "--output", model, "--method", "skpca",
                 "--m", 8, "--ell", 4)
        assert rc != 0
        assert not model.exists()
        assert capsys.readouterr().err.startswith("error:")

    def test_non_finite_sigma_rejected(self, data_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        rc = run("train", "--input", data_csv, "--output", model, "--m", 8, "--ell", 4,
                 "--sigma", "inf")
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ConfigurationError:")
        assert not model.exists()

    def test_parameter_conflict_is_usage_error(self, data_csv, tmp_path):
        rc = run("train", "--input", data_csv, "--output", tmp_path / "m.json",
                 "--method", "skpca", "--m", 99, "--eps", "0.45", "--delta", "0.2")
        assert rc != 0

    def test_rnca_and_nystrom_train(self, data_csv, tmp_path):
        assert run("train", "--input", data_csv, "--output", tmp_path / "r.json",
                   "--method", "rnca", "--m", 24, "--seed", 1) == 0
        assert run("train", "--input", data_csv, "--output", tmp_path / "n.json",
                   "--method", "nystrom", "--c", 12, "--seed", 1) == 0
        record = json.loads((tmp_path / "n.json").read_text())
        assert record["method"] == "nystrom"
        assert record["c"] == 12 and "k" not in record

    def test_train_takes_no_rank(self, data_csv, tmp_path, capsys):
        # every model answers any k up to its basis width, so k is chosen at test time
        model = tmp_path / "n.json"
        with pytest.raises(SystemExit) as exc:
            run("train", "--input", data_csv, "--output", model, "--method", "nystrom",
                "--c", 8, "--k", 4)
        assert exc.value.code == 2 and "unrecognized arguments: --k 4" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize(
        "method,sizes,flag",
        [
            ("skpca", ["--m", 16, "--ell", 4], "--c"),
            ("skpca", ["--eps", 0.5, "--delta", 0.2], "--c"),  # sizes to derive
            ("rnca", ["--m", 16], "--ell"),
            ("rnca", ["--m", 16], "--c"),
            ("rnca", ["--eps", 0.5, "--delta", 0.2], "--ell"),
            ("nystrom", ["--c", 8], "--m"),
            ("nystrom", ["--c", 8], "--ell"),
        ],
    )
    def test_inapplicable_flag_rejected(self, method, sizes, flag, data_csv, tmp_path, capsys):
        model = tmp_path / "m.json"
        rc = run("train", "--input", data_csv, "--output", model, "--method", method,
                 *sizes, flag, 4)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigurationError:") and f"{flag} " in err
        assert not model.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ("--m", "4", "--ell", "8"),
            ("--m", "64", "--ell", "7"),
            ("--method", "rnca", "--m", "0"),
            ("--method", "nystrom", "--c", "0"),
            ("--m", "64", "--ell", "8", "--eps", "0.5"),
            ("--eps", "1.5", "--delta", "0.1"),
            ("--method", "nystrom", "--eps", "0.5", "--delta", "0"),
            ("--m", "64", "--ell", "8", "--seed", "-1"),
        ],
    )
    def test_arguments_checked_before_the_input_is_read(self, flags, tmp_path, capsys):
        model = tmp_path / "m.json"
        rc = run("train", "--input", tmp_path / "missing.csv", "--output", model, *flags)
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ConfigurationError:")
        assert not model.exists()

    def test_cut_off_model_write_keeps_the_earlier_model(self, data_csv, tmp_path):
        model = tmp_path / "rnca.json"
        assert run("train", "--input", data_csv, "--output", model, "--method", "rnca",
                   "--m", 64) == 0
        earlier = model.read_bytes()
        # the new model (m = 128) is far larger than the 4,096 bytes the child may write
        done = run_file_size_limited(4096, "train", "--input", data_csv, "--output", model,
                                     "--method", "rnca", "--m", 128)
        assert done.returncode == 1 and "File too large" in done.stderr, done.stderr
        assert model.read_bytes() == earlier
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "rnca.json"]


class TestTest:
    def test_loadings_and_residual_columns(self, data_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        run("train", "--input", data_csv, "--output", model, "--method", "skpca",
            "--m", 32, "--ell", 4, "--seed", 4)
        test_csv = tmp_path / "five.csv"
        test_csv.write_text("\n".join(
            ",".join("0.25" for _ in range(6)) for _ in range(5)) + "\n")
        out_csv = tmp_path / "load.csv"
        assert run("test", "--model", model, "--input", test_csv, "--output", out_csv,
                   "--k", 1) == 0
        rows = out_csv.read_text().strip().split("\n")
        assert len(rows) == 5
        assert all(len(r.split(",")) == 2 for r in rows)
        residuals = [float(r.split(",")[1]) for r in rows]
        assert all(res >= 0.0 for res in residuals)
        out = capsys.readouterr().out
        assert "per_point_seconds=" in out and "total_seconds=" in out

    def test_dimension_mismatch_rejected(self, data_csv, tmp_path):
        model = tmp_path / "model.json"
        run("train", "--input", data_csv, "--output", model, "--method", "skpca",
            "--m", 16, "--ell", 4)
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n")
        rc = run("test", "--model", model, "--input", bad, "--output", tmp_path / "o.csv")
        assert rc != 0

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_run_leaves_no_output(self, existing, data_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        run("train", "--input", data_csv, "--output", model, "--m", 16, "--ell", 4)
        lines = data_csv.read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[:3] + ["1.0,2.0"] + lines[3:]) + "\n")
        out_csv = tmp_path / "load.csv"
        if existing:
            out_csv.write_text("earlier output\n")
        capsys.readouterr()
        assert run("test", "--model", model, "--input", bad, "--output", out_csv) == 1
        assert "line 4: expected 6 columns, got 2" in capsys.readouterr().err
        assert out_csv.read_text() == "earlier output\n" if existing else not out_csv.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["data.csv", "model.json", "bad.csv"] + ["load.csv"] * existing
        )

    def test_huge_k_refused_before_allocation(self, data_csv, tmp_path, capsys):
        # loadings of width 10**9 would not fit in memory: a MemoryError here
        # means something of size k was allocated before the rank check
        model = tmp_path / "model.json"
        run("train", "--input", data_csv, "--output", model, "--m", 16, "--ell", 4)
        assert run("test", "--model", model, "--input", data_csv,
                   "--output", tmp_path / "load.csv", "--k", 10**9) == 1
        assert "k must be in [1, 4], got 1000000000" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "model.json"]

    def test_memory_does_not_grow_with_the_input(self, data_csv, tmp_path):
        model = tmp_path / "model.json"
        run("train", "--input", data_csv, "--output", model, "--method", "rnca", "--m", 128)
        peaks = []
        for n in (500, 2000):
            test_csv = tmp_path / f"test{n}.csv"
            run("gen-data", "--output", test_csv, "--n", n, "--d", 6, "--s", 3, "--seed", 6)
            tracemalloc.start()
            try:
                assert run("test", "--model", model, "--input", test_csv,
                           "--output", tmp_path / "load.csv") == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # each answered row holds 129 floats; 1,500 more rows held would add 1.5 MB
        assert peaks[1] < peaks[0] + 500_000, peaks

    @pytest.mark.parametrize("method,sizes", [
        ("skpca", ["--m", 32, "--ell", 4]),
        ("rnca", ["--m", 16]),
        ("nystrom", ["--c", 10]),
    ])
    def test_loadings_match_per_value_formatting(self, method, sizes, tmp_path):
        # 600 rows cross the 256-row block boundary of test and of transform
        data_csv = tmp_path / "data.csv"
        run("gen-data", "--output", data_csv, "--n", 600, "--d", 6, "--s", 3, "--seed", 5)
        model_path = tmp_path / "model.json"
        run("train", "--input", data_csv, "--output", model_path, "--method", method, *sizes)
        out_csv = tmp_path / "load.csv"
        assert run("test", "--model", model_path, "--input", data_csv, "--output", out_csv) == 0
        model, _ = load_model(model_path)
        data, k = read_matrix_csv(data_csv), model.basis.shape[1]
        loadings, residuals = model.transform(data, k)
        rows = np.column_stack([loadings, residuals])
        assert out_csv.read_text() == format_rows(rows) == reference_csv(rows.tolist())
        answers = np.array([[*loading, res] for loading, res in map(model.answer, data, [k] * 600)])
        assert np.all(np.abs(rows - answers) <= 1e-11 * np.maximum(1.0, np.abs(answers)))

    def test_nystrom_loadings(self, data_csv, tmp_path):
        model = tmp_path / "ny.json"
        run("train", "--input", data_csv, "--output", model, "--method", "nystrom",
            "--c", 10, "--seed", 2)
        out_csv = tmp_path / "load.csv"
        assert run("test", "--model", model, "--input", data_csv, "--output", out_csv,
                   "--k", 3) == 0
        rows = out_csv.read_text().strip().split("\n")
        assert len(rows) == 80
        assert all(len(r.split(",")) == 4 for r in rows)  # 3 loadings + residual


def _with_w(record, **changes):
    return {**record, "w": {**record["w"], **changes}}


def _short_w(record):
    raw = base64.b64decode(record["w"]["f8le"])[:-8]  # one entry short of the shape
    return _with_w(record, f8le=base64.b64encode(raw).decode("ascii"))


def _version_2(record):
    """The same model in the version 2 layout, arrays as JSON lists."""
    lists = {k: decode_array(v, k).tolist() for k, v in record.items() if isinstance(v, dict)}
    return {**record, **lists, "version": 2}


MALFORMED = {
    "not-an-object": lambda record: [1, 2],
    "no-method": lambda record: {k: v for k, v in record.items() if k != "method"},
    "no-w": lambda record: {k: v for k, v in record.items() if k != "w"},
    "w-not-numbers": lambda record: {**record, "w": "x"},
    "skpca-fields-as-rnca": lambda record: {**record, "method": "rnca"},
    "w-wrong-length": _short_w,
    "w-invalid-base64": lambda record: _with_w(record, f8le="#" + record["w"]["f8le"][1:]),
    "w-wrong-shape": lambda record: _with_w(record, shape=record["w"]["shape"][::-1]),
    "w-nan-payload": lambda record: {
        **record, "w": encode_array(np.full(record["w"]["shape"], np.nan))
    },
    "version-2": _version_2,
    "version-3": lambda record: {**record, "version": 3},
    "version-4": lambda record: {**record, "center": None, "version": 4},
    "center-in-version-5": lambda record: {**record, "center": None},
    "version-5": lambda record: {**record, "k": record["c"], "version": 5},
    "k-in-version-6": lambda record: {**record, "k": record["c"]},
    "unknown-field": lambda record: {**record, "bogus": 1},
    "sigma-infinity": lambda record: {**record, "sigma": float("inf")},
    "ell-not-an-integer": lambda record: {**record, "ell": 4.0},
    "n_seen-not-an-integer": lambda record: {**record, "n_seen": "many"},
}


# the cases that edit a Nystrom record, as the version 5 writer left it; the rest edit SKPCA's
NYSTROM_CASES = ("version-5", "k-in-version-6")


class TestMalformedModel:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_one_error_line_naming_the_path(self, case, data_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        nystrom = case in NYSTROM_CASES
        sizes = ["--method", "nystrom", "--c", 8] if nystrom else ["--m", 16, "--ell", 4]
        assert run("train", "--input", data_csv, "--output", model, *sizes) == 0
        record = json.loads(model.read_text())
        model.write_text(json.dumps(MALFORMED[case](record)))
        capsys.readouterr()
        rc = run("test", "--model", model, "--input", data_csv, "--output", tmp_path / "o.csv")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ContractViolationError:") and err.count("\n") == 1
        assert str(model) in err
        assert not (tmp_path / "o.csv").exists()


class TestBenchmark:
    def test_grid_shape_and_finite_errors(self, data_csv, tmp_path):
        report = tmp_path / "report.csv"
        rc = run("benchmark", "--input", data_csv, "--output", report,
                 "--method", "skpca,rnca,nystrom", "--m", "16,32", "--ell", "4",
                 "--seed", 3, "--jobs", 1)
        assert rc == 0
        rows = read_reports_csv(report)
        assert len(rows) == 6  # 3 methods x 2 sample sizes
        for row in rows:
            assert float(row["spectral_err"]) >= 0.0
            assert float(row["frobenius_err"]) >= 0.0
            assert np.isfinite(float(row["spectral_err"]))
            assert np.isfinite(float(row["train_seconds"]))

    def test_coarse_cell_scores_without_a_bound_check(self, tmp_path):
        # on this cell the rank-1 error exceeds the right-hand side of
        # criterion 6's inequality (258.6 > 214.1); the grid reports it
        data = tmp_path / "data.csv"
        run("gen-data", "--output", data, "--n", 500, "--d", 20, "--s", 10, "--seed", 1)
        report = tmp_path / "report.csv"
        assert run("benchmark", "--input", data, "--output", report, "--method", "rnca",
                   "--m", 2, "--k", 1, "--sigma", 3.5) == 0
        [row] = read_reports_csv(report)
        assert np.isfinite(float(row["rank_k_frobenius"]))

    @pytest.mark.parametrize("existing", [False, True])
    def test_cut_off_report_leaves_no_output(self, existing, data_csv, tmp_path):
        # the report write runs out of room part way through, as on a full disk
        report = tmp_path / "report.csv"
        if existing:
            report.write_text("earlier report\n")
        done = run_file_size_limited(200, "benchmark", "--input", data_csv, "--output", report,
                                     "--method", "skpca", "--m", 16, "--ell", 4)
        assert done.returncode == 1 and "error: OSError" in done.stderr, done.stderr
        assert report.read_text() == "earlier report\n" if existing else not report.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["data.csv"] + ["report.csv"] * existing
        )

    def test_odd_ell_rounded_and_noted(self, data_csv, tmp_path, capsys):
        report = tmp_path / "report.csv"
        rc = run("benchmark", "--input", data_csv, "--output", report,
                 "--method", "skpca", "--m", "16", "--ell", "5", "--seed", 0)
        assert rc == 0
        assert "rounded up" in capsys.readouterr().out
        rows = read_reports_csv(report)
        assert rows[0]["ell"] == "6"

    @pytest.mark.parametrize("k", [0, -3, 1000])
    def test_k_outside_one_to_n_rejected(self, k, data_csv, tmp_path, capsys):
        report = tmp_path / "r.csv"
        rc = run("benchmark", "--input", data_csv, "--output", report,
                 "--method", "nystrom", "--m", "16", "--k", k)
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ConfigurationError: k must be in")
        assert not report.exists()

    def test_non_finite_sigma_rejected(self, data_csv, tmp_path, capsys):
        report = tmp_path / "r.csv"
        rc = run("benchmark", "--input", data_csv, "--output", report, "--sigma", "1e400")
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ConfigurationError:")
        assert not report.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ("--sigma", "0"),
            ("--k", "0"),
            ("--m", "1", "--ell", "4"),
            ("--seed", "-1"),
            ("--jobs", "0"),
            ("--jobs", "-1"),
        ],
    )
    def test_arguments_checked_before_the_input_is_read(self, flags, tmp_path, capsys):
        rc = run("benchmark", "--input", tmp_path / "missing.csv", "--output",
                 tmp_path / "r.csv", *flags)
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ConfigurationError:")

    def test_unknown_method_rejected(self, data_csv, tmp_path):
        rc = run("benchmark", "--input", data_csv, "--output", tmp_path / "r.csv",
                 "--method", "exact-kpca")
        assert rc != 0


@pytest.mark.parametrize("command", ["gen-data", "train", "benchmark"])
def test_negative_seed_is_one_error_line(command, data_csv, tmp_path, capsys):
    out = tmp_path / "out"
    flags = {
        "gen-data": ["--n", 10, "--d", 4, "--s", 2],
        "train": ["--input", data_csv, "--m", 16, "--ell", 4],
        "benchmark": ["--input", data_csv, "--method", "skpca", "--m", 16, "--ell", 4],
    }[command]
    capsys.readouterr()
    assert run(command, "--output", out, *flags, "--seed", -1) == 1
    err = capsys.readouterr().err
    assert err == "error: ConfigurationError: seed must be a non-negative integer, got -1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


class TestHelp:
    @pytest.mark.parametrize(
        "cmd,flag",
        [
            ("gen-data", "--seed"),
            ("train", "--seed"),
            ("test", "--k"),
            ("benchmark", "--jobs"),
        ],
    )
    def test_help_lists_flags_and_defaults(self, cmd, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run(cmd, "--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert flag in out
        assert "default" in out
