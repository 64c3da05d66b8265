"""Self-test of the benchmark at toy sizes.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run  # first: puts the program's src/ on sys.path
import bench  # noqa: E402
import tracer  # noqa: E402

TOY = bench.Sizes(
    train_rows=300, rnca_rows=60, grid_rows=150, kernel_passes=2, lift_passes=3, test_points=120,
    m=64, ell=8, c=48, grid_m=(16, 32), k=4,
)


@pytest.fixture
def toy(monkeypatch):
    for name in list(bench.WORKLOADS):
        monkeypatch.setitem(bench.WORKLOADS, name, TOY)


def _declared(trace: int) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize(
    "workload,trace",
    [("train-stream", 0), ("score-grid", 0), ("project-test", 0), ("train-stream", 1)],
)
def test_every_metric_printed_with_its_unit(toy, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    declared = _declared(trace)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and np.isfinite(value)
        assert any(line.split()[0] == name and line.split()[-1] == unit for line in out[:-1])


def _shrinks(n: int, ell: int) -> int:
    """FD shrinks over n rows: the first at row ell, then every ell/2 + 1 rows."""
    return 1 + (n - ell) // (ell // 2 + 1)


def test_traced_counts_repeat_exactly(toy, capsys):
    counts = []
    for seed in (3, 4):
        assert run.main(["--workload", "train-stream", "--seed", str(seed), "--trace", "1"]) == 0
        metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    # one skpca train call, plus 3 timed trainings of each skpca grid cell
    grid_train = TOY.grid_rows - TOY.grid_rows // 5
    expected = _shrinks(TOY.train_rows, TOY.ell) + 3 * len(TOY.grid_m) * _shrinks(grid_train, TOY.ell)
    assert counts[0]["fd.shrink_svd.calls"] == expected


def test_tracer_restores_every_patched_attribute():
    sites = tracer.patch_sites()
    assert len(sites) > len(tracer.FUNCTIONS) + len(tracer.METHODS)
    spans = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with spans.active():
            assert all(vars(owner)[attr] is not original for owner, attr, original in sites)
            raise RuntimeError("leave the block early")
    assert all(vars(owner)[attr] is original for owner, attr, original in sites)


def _double(w):
    return 2.0 * w


def _perturb(cov):
    cov = cov.copy()
    cov[0, 0] += 1e-6 * np.abs(cov).max()
    return cov


CORRUPTIONS = [("skpca", "w", _double), ("rnca", "cov", _perturb)]


@pytest.fixture
def trained(tmp_path):
    inp = bench.setup(str(tmp_path), TOY, seed=5)
    ops, samples = bench.Ops(), bench.Samples()
    bench.run_round(inp, ops, samples, check=True)
    bench.train_checks(inp, samples, ops)
    assert ops.failed == 0 and ops.attempted > 0
    return inp, samples


def _assert_only(ops, method):
    assert ops.failed >= 1
    assert all(failure.startswith(method) for failure in ops.failures)
    assert ops.attempted > ops.failed


@pytest.mark.parametrize("method,key,change", CORRUPTIONS)
def test_corrupted_trained_model_fails_train_checks(trained, method, key, change):
    inp, samples = trained
    model = samples.trained[method]
    samples.trained[method] = dataclasses.replace(model, **{key: change(getattr(model, key))})
    ops = bench.Ops()
    bench.train_checks(inp, samples, ops)
    _assert_only(ops, method)


@pytest.mark.parametrize("method,key,change", CORRUPTIONS)
def test_corrupted_model_file_fails_project_checks(trained, method, key, change):
    inp, samples = trained
    path = bench.train_output(inp, method)
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    record[key] = change(np.asarray(record[key])).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    ops = bench.Ops()
    bench.run_project(inp, ops, samples, check=True)
    _assert_only(ops, method)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
