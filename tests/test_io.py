import numpy as np
import pytest
from conftest import gaussian_mixture

from stream_kpca import (
    ContractViolationError,
    KernelSpec,
    SkpcaConfig,
    load_model,
    nystrom_train,
    rnca_train,
    sample_feature_map,
    save_model,
    train,
)
from stream_kpca.dataio import (
    CHUNK_LINES,
    count_csv_rows,
    iter_csv_rows,
    read_matrix_csv,
    write_matrix_csv,
)


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

    def test_skpca_byte_stable(self, spec, tmp_path):
        data = gaussian_mixture(30, 3, seed=3)
        model = train(SkpcaConfig(kernel=spec, seed=4, m=16, ell=4), data)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

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
        model = nystrom_train(spec, c=6, k=4, seed=8, stream=data)
        center = data.mean(axis=0)
        path = tmp_path / "model.json"
        save_model(model, path, center=center)
        loaded, loaded_center = load_model(path)
        assert np.allclose(loaded_center, center, atol=0)
        assert np.allclose(loaded.reconstruct(data[:5]), model.reconstruct(data[:5]), atol=1e-12)
        assert loaded.k == 4

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
