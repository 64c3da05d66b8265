"""The benchmark's project checks catch a corrupted model file.

`perfbench` loads the models `stream-kpca train` wrote and checks their
answers against the in-memory models. Here one array of one model file is
corrupted the way a model file stores it (decode the field, change the
array, write it back with `persist.encode_array`), and only that method's
answers must fail while the other methods still pass.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

from stream_kpca import persist

BENCH_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "bench.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_bench", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


bench = _load_bench()

TOY = bench.Sizes(
    train_rows=300, rnca_rows=60, grid_rows=150, kernel_passes=2, lift_passes=3, test_points=120,
    m=64, ell=8, c=48, grid_m=(16, 32), k=4,
)


def _double(a):
    return 2.0 * a


def _perturb(a):
    a = a.copy()
    a[0, 0] += 1e-6 * np.abs(a).max()
    return a


CORRUPTIONS = [
    ("skpca", "w", _double),
    ("rnca", "cov", _perturb),
    ("nystrom", "samples", _perturb),
]


@pytest.fixture
def trained(tmp_path):
    inp = bench.setup(str(tmp_path), TOY, seed=5)
    ops, samples = bench.Ops(), bench.Samples()
    bench.run_train(inp, ops, samples)
    bench.run_project(inp, ops, samples, check=True)
    assert ops.failed == 0 and ops.attempted > 0, ops.failures
    return inp, samples


@pytest.mark.parametrize("method,key,change", CORRUPTIONS)
def test_corrupted_model_file_fails_project_checks(trained, method, key, change):
    inp, samples = trained
    path = bench.train_output(inp, method)
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["version"] == persist.MODEL_VERSION
    record[key] = persist.encode_array(change(persist.decode_array(record[key], key)))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    ops = bench.Ops()
    bench.run_project(inp, ops, samples, check=True)
    assert ops.failed >= 1
    assert all(failure.startswith(method) for failure in ops.failures), ops.failures
    assert ops.attempted > ops.failed
