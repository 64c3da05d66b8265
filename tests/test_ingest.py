"""The one ingest path, `dataio.row_blocks`, and the three trainers that read
it: SKPCA (`train`, blocks of ell rows), RNCA (`rnca_train`, blocks of
min(64, m) rows) and the Nystrom reservoir (`reservoir_sample`, one row at a
time). `RncaModel.fit` reads the width of its map from `dataio.first_point`,
the first-point check `row_blocks` makes.

Streams are drawn from a numpy seed that hypothesis chooses, so each example
is cheap and every failure replays from the printed seed.
"""

import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stream_kpca import (
    ContractViolationError,
    KernelSpec,
    NystromModel,
    RncaModel,
    SkpcaConfig,
    SkpcaModel,
    reservoir_sample,
    rnca_train,
    sample_feature_map,
    train,
)
from stream_kpca.dataio import iter_csv_rows, row_blocks, write_matrix_csv
from stream_kpca.methods import METHODS, MODELS

PROPERTY = settings(max_examples=40, deadline=None, database=None)
SPEC = KernelSpec(sigma=2.0)
TRAINERS = ("skpca", "rnca", "reservoir")
EMPTY = "training stream is empty"

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def run(trainer: str, rows, d: int) -> tuple:
    """Train on a row stream; returns everything the trainer outputs."""
    if trainer == "skpca":
        model = train(SkpcaConfig(kernel=SPEC, seed=3, m=16, ell=4), rows)
        return model.w, model.s, model.n_seen, model.peak_entries
    if trainer == "rnca":
        model = rnca_train(sample_feature_map(SPEC, 12, d, 3), rows)
        return model.cov, model.eigvals, model.eigvecs, model.n_seen, model.peak_entries
    return reservoir_sample(5, 3, rows)


def draw_data(seed: int, n: int, d: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4)


@PROPERTY
@given(seed=seeds, n=st.integers(1, 20), d=st.integers(1, 4), size=st.integers(1, 7))
def test_blocks_cover_the_stream_in_order(seed, n, d, size):
    data = draw_data(seed, n, d)
    for stream in (iter(data.tolist()), data):  # an array is read as slices of itself
        shapes, rows = [], []
        for block in row_blocks(stream, size):
            assert block.dtype == np.float64
            shapes.append(block.shape)
            rows.append(block.copy())  # a block is only valid until the next one
        assert shapes == [(size, d)] * (n // size) + ([(n % size, d)] if n % size else [])
        assert np.array_equal(np.vstack(rows), data)


@PROPERTY
@given(seed=seeds, n=st.integers(1, 20), d=st.integers(1, 4))
def test_every_stream_form_trains_the_same_model(seed, n, d):
    data = draw_data(seed, n, d)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        write_matrix_csv(path, data)
        for trainer in TRAINERS:
            want = run(trainer, data, d)
            forms = {
                "list": data.tolist(),
                "generator": (row for row in data),
                "csv": iter_csv_rows(path),
            }
            for form, rows in forms.items():
                got = run(trainer, rows, d)
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (trainer, form)
    # the reservoir keeps copies of stream rows, bit for bit
    samples = run("reservoir", data, d)[0]
    assert {tuple(row) for row in samples} <= {tuple(row) for row in data}


bad_values = st.sampled_from([np.nan, np.inf, -np.inf])


@PROPERTY
@given(
    seed=seeds,
    n=st.integers(2, 20),
    d=st.integers(1, 4),
    where=st.floats(0.0, 1.0),
    kind=st.sampled_from(["non-finite", "width"]),
    value=bad_values,
    later=st.booleans(),
)
def test_first_bad_point_is_named(seed, n, d, where, kind, value, later):
    rows = list(draw_data(seed, n, d))
    # row 0 sets the width, so a wrong width is first seen at point 1 or later
    lo = 0 if kind == "non-finite" else 1
    i = lo + int(where * (n - 1 - lo))
    if kind == "non-finite":
        rows[i] = rows[i].copy()
        rows[i][int(where * (d - 1))] = value
    else:
        rows[i] = np.ones(d + 1 if where < 0.5 else d - 1)
    if later and i + 1 < n:
        # a second, later fault of the other kind must not be the one reported
        rows[-1] = np.ones(d + 1) if kind == "non-finite" else np.full(d, value)
    pattern = "^" + re.escape(f"stream point {i} ")
    # an array is read in place and checked all at once
    array = [np.array(rows)] if all(row.shape == (d,) for row in rows) else []
    for trainer in TRAINERS:
        for stream in [rows, iter(rows), *array]:
            with pytest.raises(ContractViolationError, match=pattern):
                run(trainer, stream, d)


@pytest.mark.parametrize("trainer", TRAINERS)
@pytest.mark.parametrize("form", ["list", "iterator", "array"])
def test_empty_stream(trainer, form):
    stream = {"list": [], "iterator": iter([]), "array": np.empty((0, 3))}[form]
    with pytest.raises(ContractViolationError, match=EMPTY):
        run(trainer, stream, 3)


def test_empty_stream_every_entry_point(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    derived = SkpcaModel.resolve(dict.fromkeys(SkpcaModel.sizes), 0.5, 0.2, 1)
    with pytest.raises(ContractViolationError, match=EMPTY):
        SkpcaModel.fit(SPEC, 0, [], **derived)
    with pytest.raises(ContractViolationError, match=EMPTY):
        train(SkpcaConfig(kernel=SPEC, seed=0, m=8, ell=2), iter_csv_rows(path))
    with pytest.raises(ContractViolationError, match=EMPTY):
        RncaModel.fit(SPEC, 0, [], m=8)
    with pytest.raises(ContractViolationError, match=EMPTY):
        NystromModel.fit(SPEC, 0, iter([]), c=3, k=2)


FIT_SIZES = {"skpca": {"m": 16, "ell": 4}, "rnca": {"m": 12}, "nystrom": {"c": 5, "k": 5}}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "rows, message",
    [
        ([], EMPTY),
        ([np.array([]), np.ones(2)], "stream point 0 must be non-empty"),
        ([None, np.ones(2)], "stream point 0 contains non-finite entries"),
        ([np.array([1.0, np.inf]), np.ones(2)], "stream point 0 contains non-finite entries"),
    ],
    ids=["empty-stream", "empty-first-row", "none-first-point", "non-finite-first-point"],
)
def test_every_fit_names_a_bad_first_point_alike(method, rows, message):
    with pytest.raises(ContractViolationError, match="^" + re.escape(message)):
        MODELS[method].fit(SPEC, 3, iter(rows), **FIT_SIZES[method])


@pytest.mark.parametrize("m", [0, -1])
def test_rnca_fit_refuses_m_below_one(m):
    with pytest.raises(ContractViolationError, match="feature count m must be >= 1"):
        RncaModel.fit(SPEC, 3, [np.ones(2)], m=m)


def test_rnca_checks_the_stream_width_against_its_map():
    fm = sample_feature_map(SPEC, 8, 2, 0)
    want = "^stream point 0 has dimension 3, expected 2"
    # point 0 is named first, also when a later point of its block is bad in another way
    for second in (np.zeros(3), np.zeros(2), np.full(3, np.nan)):
        with pytest.raises(ContractViolationError, match=want):
            rnca_train(fm, [np.zeros(3), second])


def test_empty_row_is_named():
    rows = [np.ones(2), np.ones(2), np.array([])]
    for size in (1, 2, 4):
        with pytest.raises(ContractViolationError, match="^stream point 2 must be non-empty"):
            list(row_blocks(rows, size))
    with pytest.raises(ContractViolationError, match="^stream point 0 must be non-empty"):
        list(row_blocks([[]], 3))
