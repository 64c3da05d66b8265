import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import gaussian_mixture, reference_csv
from hypothesis import given, settings
from hypothesis import strategies as st

import stream_kpca
from stream_kpca import (
    ContractViolationError,
    KernelSpec,
    NystromModel,
    SkpcaConfig,
    load_model,
    rnca_train,
    sample_feature_map,
    save_model,
    train,
)
from stream_kpca.dataio import (
    CHUNK_LINES,
    count_csv_rows,
    format_rows,
    iter_csv_rows,
    read_matrix_csv,
    write_matrix_csv,
)
from stream_kpca.methods import METHODS, MODELS
from stream_kpca.persist import decode_array, encode_array


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((12, 5)) * np.logspace(-8, 8, 5)
        path = tmp_path / "data.csv"
        write_matrix_csv(path, a)
        back = read_matrix_csv(path)
        assert np.array_equal(back, a)  # 17 significant digits round-trip exactly

    def test_header_written_and_skipped(self, tmp_path):
        a = np.arange(6.0).reshape(2, 3)
        path = tmp_path / "data.csv"
        write_matrix_csv(path, a, header=True)
        first = path.read_text().splitlines()[0]
        assert first == "c0,c1,c2"
        assert np.array_equal(read_matrix_csv(path, header=True), a)
        assert count_csv_rows(path, header=True) == 2

    def test_drop_first_col(self, tmp_path):
        path = tmp_path / "labeled.csv"
        path.write_text("a,1.0,2.0\nb,3.0,4.0\n")
        back = read_matrix_csv(path, drop_first_col=True)
        assert np.array_equal(back, [[1.0, 2.0], [3.0, 4.0]])

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n1.0,oops\n")
        with pytest.raises(ContractViolationError, match="line 2"):
            list(iter_csv_rows(path))

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n1.0\n")
        with pytest.raises(ContractViolationError, match="line 2"):
            list(iter_csv_rows(path))

    def test_blank_interior_line(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("1.0\n\n2.0\n")
        with pytest.raises(ContractViolationError, match="line 2"):
            list(iter_csv_rows(path))

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("1.0,inf\n")
        with pytest.raises(ContractViolationError, match="line 1"):
            list(iter_csv_rows(path))

    def test_streaming_yields_rows(self, tmp_path):
        a = np.arange(8.0).reshape(4, 2)
        path = tmp_path / "data.csv"
        write_matrix_csv(path, a)
        rows = iter_csv_rows(path)
        assert np.array_equal(next(rows), [0.0, 1.0])
        assert count_csv_rows(path) == 4


TINY, TOP = np.finfo(np.float64).smallest_normal, np.finfo(np.float64).max
# magnitudes from 1e-300 to 1e300 of either sign, and the subnormals, signed
# zeros and extremes at both ends of the float64 range
csv_values = st.one_of(
    st.floats(1e-300, 1e300),
    st.floats(-1e300, -1e-300),
    st.floats(-TINY, TINY),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, TOP, -TOP]),
)


class TestCsvEmission:
    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data(), width=st.integers(1, 5))
    def test_format_rows_matches_per_value_formatting(self, tmp_path_factory, data, width):
        rows = data.draw(st.lists(st.lists(csv_values, min_size=width, max_size=width),
                                  min_size=1, max_size=6))
        a = np.array(rows)
        text = format_rows(a)
        assert text == reference_csv(a.tolist())
        path = tmp_path_factory.mktemp("emit") / "rows.csv"
        path.write_text(text)
        assert read_matrix_csv(path).tobytes() == a.tobytes()  # bit for bit, -0.0 included

    @pytest.mark.parametrize("n", [CHUNK_LINES - 1, CHUNK_LINES, CHUNK_LINES + 1])
    @pytest.mark.parametrize("header", [False, True])
    def test_chunked_write_matches_per_value_formatting(self, tmp_path, n, header):
        a = np.random.default_rng(n).standard_normal((n, 3)) * np.logspace(-8, 8, 3)
        path = tmp_path / "data.csv"
        write_matrix_csv(path, a, header=header)
        assert path.read_text() == reference_csv(a.tolist(), header=header)
        assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]

    def test_write_through_a_symlink_keeps_the_link(self, tmp_path):
        (tmp_path / "real.csv").write_text("earlier output\n")
        link = tmp_path / "link.csv"
        link.symlink_to("real.csv")
        write_matrix_csv(link, np.eye(2))
        assert link.is_symlink() and link.read_text() == reference_csv(np.eye(2).tolist())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_write_to_a_pipe_in_place(self, tmp_path):
        pipe = tmp_path / "out.pipe"
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)  # the write end then opens at once
        try:
            write_matrix_csv(pipe, np.eye(3))
            text = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        assert text == reference_csv(np.eye(3).tolist())
        assert [p.name for p in tmp_path.iterdir()] == ["out.pipe"]

    @pytest.mark.parametrize("existing", [False, True])
    def test_cut_off_write_leaves_no_file(self, existing, tmp_path, second_chunk_fails):
        path = tmp_path / "data.csv"
        if existing:
            path.write_text("earlier output\n")
        with pytest.raises(OSError, match="No space left"):
            write_matrix_csv(path, np.ones((CHUNK_LINES + 1, 2)))
        assert second_chunk_fails == [CHUNK_LINES, 1]
        assert path.read_text() == "earlier output\n" if existing else not path.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["data.csv"] * existing


def per_line_rows(path, *, drop_first_col=False, header=False):
    """Reference reader: every line through float(), one at a time."""
    width = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if header and lineno == 1:
                continue
            text = line.strip()
            if not text:
                raise ContractViolationError(f"{path}: line {lineno}: blank line")
            fields = text.split(",")
            if drop_first_col:
                fields = fields[1:]
            if not fields:
                raise ContractViolationError(f"{path}: line {lineno}: no numeric columns left")
            try:
                row = np.array([float(f) for f in fields])
            except ValueError:
                raise ContractViolationError(f"{path}: line {lineno}: non-numeric field") from None
            if not np.all(np.isfinite(row)):
                raise ContractViolationError(f"{path}: line {lineno}: non-finite value")
            if width is None:
                width = row.size
            elif row.size != width:
                raise ContractViolationError(
                    f"{path}: line {lineno}: expected {width} columns, got {row.size}"
                )
            yield row


def drain(rows):
    """Rows yielded before the reader stopped, and the error it stopped with."""
    out = []
    try:
        for row in rows:
            out.append(row)
    except ContractViolationError as exc:
        return out, str(exc)
    return out, None


ANOMALIES = {
    "none": lambda fields: fields,
    "non-numeric": lambda fields: [fields[0], "oops", *fields[2:]],
    "ragged": lambda fields: fields[:-1],
    "wide": lambda fields: [*fields, "1.0"],
    "blank": lambda fields: [],
    "inf": lambda fields: ["inf", *fields[1:]],
    "nan": lambda fields: [*fields[:-1], "nan"],
    "underscore": lambda fields: ["1_0", *fields[1:]],  # float() accepts, loadtxt does not
    "trailing-comma": lambda fields: [*fields, ""],
}


class TestChunkedReader:
    @pytest.mark.parametrize("n", [CHUNK_LINES - 1, CHUNK_LINES, CHUNK_LINES + 1])
    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("drop_first_col", [False, True])
    def test_matches_per_line_parser(self, tmp_path, n, header, drop_first_col):
        values = np.random.default_rng(n).standard_normal((n, 3)) * np.logspace(-8, 8, 3)
        fields = [[format(v, ".17g") for v in row] for row in values]
        # first and last data line of each chunk, and the file's last line
        spots = sorted({0, CHUNK_LINES - 1, CHUNK_LINES, n - 1} & set(range(n)))
        path = tmp_path / "data.csv"
        for name, anomaly in ANOMALIES.items():
            for spot in spots if name != "none" else [0]:
                lines = ["c0,c1,c2"] if header else []
                for i, row in enumerate(fields):
                    row = anomaly(row) if i == spot and name != "none" else row
                    label = [f"r{i}"] if drop_first_col and row else []
                    lines.append(",".join(label + row))
                path.write_text("\n".join(lines) + "\n")
                case = f"{name} at data line {spot}"
                opts = dict(drop_first_col=drop_first_col, header=header)
                got_rows, got_err = drain(iter_csv_rows(path, **opts))
                want_rows, want_err = drain(per_line_rows(path, **opts))
                assert got_err == want_err, case
                assert len(got_rows) == len(want_rows), case
                for got, want in zip(got_rows, want_rows):
                    assert got.dtype == want.dtype and np.array_equal(got, want), case
                if name == "none":
                    assert np.array_equal(np.vstack(got_rows), values)

    def test_rows_are_independent_of_the_chunk(self, tmp_path):
        path = tmp_path / "data.csv"
        write_matrix_csv(path, np.arange(6.0).reshape(3, 2))
        rows = list(iter_csv_rows(path))
        assert all(row.base is None for row in rows)


@pytest.fixture
def spec():
    return KernelSpec(sigma=1.5)


SIZES = {"skpca": {"m": 24, "ell": 4}, "rnca": {"m": 16}, "nystrom": {"c": 8, "k": 5}}
ARRAY_FIELDS = {"skpca": ("w", "s"), "rnca": ("cov",), "nystrom": ("samples",)}
INT_FIELDS = {
    method: ("d", "n_seen", "peak_entries", "seed", *MODELS[method].sizes) for method in METHODS
}
INT_FIELDS["nystrom"] += ("replacements",)
# signed zeros, the smallest subnormals, a mid-range subnormal, the extremes
SPECIAL = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, np.finfo(np.float64).max, -np.pi]
)


class TestArrayCodec:
    @pytest.mark.parametrize("shape", [(0,), (9,), (3, 3), (2, 9), (9, 2), (0, 4)])
    def test_round_trip_bit_for_bit(self, shape):
        a = np.resize(SPECIAL, shape)
        for given in (a, np.asfortranarray(a), a.astype(">f8")):
            back = decode_array(json.loads(json.dumps(encode_array(given))), "a")
            assert back.shape == a.shape and back.dtype == np.float64
            assert back.flags.c_contiguous and back.flags.writeable
            assert back.tobytes() == a.tobytes()

    @pytest.mark.parametrize(
        "change,match",
        [
            (lambda v: {**v, "f8le": v["f8le"][:-4]}, "bytes"),
            (lambda v: {**v, "f8le": "*" + v["f8le"][1:]}, "base64"),
            (lambda v: {**v, "f8le": v["f8le"][:-1]}, "base64"),
            (lambda v: {**v, "f8le": 7}, "base64"),
            (lambda v: {**v, "shape": [3, -3]}, "shape"),
            (lambda v: {**v, "shape": [9.0]}, "shape"),
            (lambda v: {**v, "shape": 9}, "shape"),
            (lambda v: {"f8le": v["f8le"]}, "keys"),
            (lambda v: {**v, "dtype": "f8"}, "keys"),
        ],
    )
    def test_malformed_payload_refused(self, change, match):
        value = change(encode_array(SPECIAL))
        with pytest.raises(ContractViolationError, match=match) as exc:
            decode_array(value, "w")
        assert "'w'" in str(exc.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, bad):
        a = SPECIAL.copy()
        a[4] = bad
        with pytest.raises(ContractViolationError, match="non-finite"):
            decode_array(encode_array(a), "w")


class TestPersistence:
    def test_skpca_round_trip(self, spec, tmp_path):
        data = gaussian_mixture(40, 3, seed=1)
        model = train(SkpcaConfig(kernel=spec, seed=2, m=24, ell=4), data)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded, center = load_model(path)
        assert center is None
        x = data[0]
        for k in (1, 4):
            a = model.project_test(x, k)
            b = loaded.project_test(x, k)
            assert np.array_equal(a[1], b[1])
            assert a[2] == b[2]

    @pytest.mark.parametrize("method", METHODS)
    def test_two_saves_byte_identical(self, method, spec, tmp_path):
        data = gaussian_mixture(30, 3, seed=3)
        model = MODELS[method].fit(spec, 4, data, **SIZES[method])
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1, center=data.mean(axis=0))
        save_model(model, p2, center=data.mean(axis=0))
        assert p1.read_bytes() == p2.read_bytes()

    def test_rnca_file_byte_identical_across_blas_threads(self, tmp_path):
        # at m = 1,024 OpenBLAS splits its calls across the threads it is given
        script = (
            "import sys; sys.path.insert(0, sys.argv[2])\n"
            "from conftest import gaussian_mixture\n"
            "from stream_kpca import KernelSpec, rnca_train, sample_feature_map, save_model\n"
            "fm = sample_feature_map(KernelSpec(sigma=3.5), 1024, 20, 2)\n"
            "save_model(rnca_train(fm, gaussian_mixture(50, 20, seed=0)), sys.argv[1])\n"
        )
        package_root = str(Path(stream_kpca.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        files = []
        for threads in ("1", "2"):
            files.append(tmp_path / f"rnca_{threads}_threads.json")
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": pythonpath}
            subprocess.run(
                [sys.executable, "-c", script, str(files[-1]), str(Path(__file__).parent)],
                env=env, check=True, timeout=300,
            )
        assert files[0].read_bytes() == files[1].read_bytes()

    def test_rnca_round_trip(self, spec, tmp_path):
        data = gaussian_mixture(30, 3, seed=5)
        fm = sample_feature_map(spec, m=16, d=3, seed=6)
        model = rnca_train(fm, data)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded, _ = load_model(path)
        assert np.allclose(
            loaded.reconstruct(data[:8], k=16), model.reconstruct(data[:8], k=16), atol=1e-12
        )

    def test_nystrom_round_trip_with_center(self, spec, tmp_path):
        data = gaussian_mixture(30, 3, seed=7)
        model = NystromModel.fit(spec, 8, data, c=6, k=4)
        center = data.mean(axis=0)
        path = tmp_path / "model.json"
        save_model(model, path, center=center)
        loaded, loaded_center = load_model(path)
        assert np.allclose(loaded_center, center, atol=0)
        assert np.allclose(loaded.reconstruct(data[:5]), model.reconstruct(data[:5]), atol=1e-12)
        assert loaded.k == 4

    @pytest.mark.parametrize("method", METHODS)
    def test_every_array_round_trips_bit_for_bit(self, method, spec, tmp_path):
        data = gaussian_mixture(30, 3, seed=14)
        model = MODELS[method].fit(spec, 15, data, **SIZES[method])
        center = SPECIAL[[1, 2, 5]]  # -0.0, a subnormal, 1e308
        path = tmp_path / "model.json"
        save_model(model, path, center=center)
        loaded, loaded_center = load_model(path)
        assert loaded_center.tobytes() == center.tobytes()
        for name in ARRAY_FIELDS[method]:
            assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "method,field",
        [(m, f) for m in METHODS for f in ("center", *ARRAY_FIELDS[m])],
    )
    def test_non_finite_array_refused(self, method, field, bad, spec, tmp_path):
        data = gaussian_mixture(30, 3, seed=16)
        path = tmp_path / "model.json"
        save_model(MODELS[method].fit(spec, 17, data, **SIZES[method]), path, center=data[0])
        record = json.loads(path.read_text())
        values = decode_array(record[field], field)
        values.flat[-1] = bad
        record[field] = encode_array(values)
        path.write_text(json.dumps(record))
        with pytest.raises(ContractViolationError, match="non-finite") as exc:
            load_model(path)
        assert str(path) in str(exc.value) and repr(field) in str(exc.value)

    @pytest.mark.parametrize(
        "method,field,bad",
        [
            (method, field, bad)
            for method in METHODS
            for field in INT_FIELDS[method]
            for bad in (3.0, "many", True, None, [3])
            if (field, bad) != ("seed", None)  # a null seed is allowed, see below
        ],
    )
    def test_non_integer_field_refused(self, method, field, bad, spec, tmp_path):
        data = gaussian_mixture(30, 3, seed=16)
        path = tmp_path / "model.json"
        save_model(MODELS[method].fit(spec, 17, data, **SIZES[method]), path)
        record = json.loads(path.read_text())
        record[field] = bad
        path.write_text(json.dumps(record))
        with pytest.raises(ContractViolationError, match="must be an integer") as exc:
            load_model(path)
        assert str(path) in str(exc.value) and repr(field) in str(exc.value)

    @pytest.mark.parametrize("method", METHODS)
    def test_stored_peak_entries_kept(self, method, spec, tmp_path):
        data = gaussian_mixture(30, 3, seed=19)
        path = tmp_path / "model.json"
        save_model(MODELS[method].fit(spec, 20, data, **SIZES[method]), path)
        record = json.loads(path.read_text())
        record["peak_entries"] = 123456789
        path.write_text(json.dumps(record))
        assert load_model(path)[0].peak_entries == 123456789

    def test_seedless_nystrom_round_trips(self, spec, tmp_path):
        data = gaussian_mixture(30, 3, seed=18)
        model = NystromModel.from_samples(spec, data[:6], k=4)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert json.loads(path.read_text())["seed"] is None
        loaded, _ = load_model(path)
        assert loaded.seed is None and np.array_equal(loaded.samples, model.samples)

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(ContractViolationError):
            load_model(path)

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ContractViolationError):
            load_model(path)

    @pytest.mark.parametrize("method", METHODS)
    def test_round_trip_answers_are_equal(self, method, spec, tmp_path):
        data = gaussian_mixture(40, 3, seed=9)
        model = MODELS[method].fit(spec, 11, data, **SIZES[method])
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded, _ = load_model(path)
        assert type(loaded) is type(model) and loaded.ranks == model.ranks
        for x in data[:10]:
            for k in (model.ranks[0], model.ranks[-1]):
                (a_load, a_res), (b_load, b_res) = model.answer(x, k), loaded.answer(x, k)
                assert np.array_equal(a_load, b_load) and a_res == b_res

    @pytest.mark.parametrize("method", ["skpca", "rnca"])
    def test_feature_map_checksum_rejects_changed_seed(self, method, spec, tmp_path):
        data = gaussian_mixture(30, 3, seed=12)
        sizes = {"skpca": {"m": 16, "ell": 4}, "rnca": {"m": 16}}[method]
        path = tmp_path / "model.json"
        save_model(MODELS[method].fit(spec, 13, data, **sizes), path)
        record = json.loads(path.read_text())
        assert record["version"] == 4 and len(record["rff_sha256"]) == 64
        record["seed"] += 1
        path.write_text(json.dumps(record))
        with pytest.raises(ContractViolationError, match="checksum") as exc:
            load_model(path)
        assert str(path) in str(exc.value)
