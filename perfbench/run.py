"""Run one workload of the stream-kpca benchmark and print its metrics.

    python3 perfbench/run.py --workload train-stream --seed 1 --seconds 25 --trace 0

Run from the repository root (the program is imported from ./src). With
--trace 0 the run prints every end-to-end metric of BENCHMARK.json; with
--trace 1 it runs one traced round between two untraced ones and prints
every per-layer metric, including the tracing overhead. The last line of
stdout is one JSON object with keys correct, attempted, failed and
metrics. The exit status is 0 only when no operation failed.
"""

import os

# one BLAS thread in this process, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
sys.path.insert(0, str(ROOT / "src"))

try:
    import stream_kpca  # noqa: E402
except ImportError as exc:
    sys.exit(f"error: cannot import stream_kpca from {ROOT / 'src'}: {exc}")
if not pathlib.Path(stream_kpca.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"error: stream_kpca imported from {stream_kpca.__file__}, not {ROOT / 'src'}")

import bench  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402
import tracer  # noqa: E402


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu_count": os.cpu_count(),
        "jobs": 1,
        "seed": seed,
        "sigma": bench.SIGMA,
    }


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def timed_run(sizes, run_dir: str, seed: int, seconds: float, ops):
    """Set up SETUP_REPS times, then run rounds until `seconds` are spent."""
    setup_s = []
    for _ in range(bench.SETUP_REPS):
        start = time.perf_counter()
        inp = bench.setup(run_dir, sizes, seed)
        setup_s.append(time.perf_counter() - start)
    samples = bench.Samples()
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        bench.run_round(inp, ops, samples, check=rounds == 0)
        rounds += 1
    sketch_err = bench.train_checks(inp, samples, ops)
    bench.score_checks(inp, samples, ops)
    return bench.end_to_end(samples, sizes, sketch_err, setup_s)


def traced_run(sizes, run_dir: str, seed: int, trace_path: pathlib.Path, ops):
    """A warm-up round, then a traced round between two untraced ones."""
    inp = bench.setup(run_dir, sizes, seed)
    samples = bench.Samples()
    # the first round of a process runs cold (first large allocations fault
    # their pages in); untraced rounds on both sides of the traced one keep
    # drift in machine speed out of the tracing overhead
    bench.run_round(inp, ops, samples, check=True)
    cpu = _cpu_s()
    before_s = bench.run_round(inp, ops, samples, check=True)
    spans = tracer.Tracer()
    with spans.active():
        traced_s = bench.run_round(inp, ops, samples, check=True)
    after_s = bench.run_round(inp, ops, samples, check=True)
    cpu_per_wall = (_cpu_s() - cpu) / (before_s + traced_s + after_s)
    bench.train_checks(inp, samples, ops)
    bench.score_checks(inp, samples, ops)
    spans.write(trace_path)
    metrics = spans.layer_metrics()
    metrics["process.cpu_per_wall"] = cpu_per_wall
    metrics["trace.overhead_s"] = traced_s - (before_s + after_s) / 2
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    sizes = bench.WORKLOADS[args.workload]
    ops = bench.Ops()
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir()
    try:
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
            measured = traced_run(sizes, str(run_dir), args.seed, trace_path, ops)
        else:
            measured = timed_run(sizes, str(run_dir), args.seed, args.seconds, ops)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {}
    for metric in declared:
        name = metric["name"]
        if ops.check(f"metric {name} measured", name in measured):
            metrics[name] = {"value": measured[name], "unit": metric["unit"]}
    extra = sorted(set(measured) - {m["name"] for m in declared})
    ops.check("no undeclared metric", not extra, ", ".join(extra))

    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    for failure in ops.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if ops.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
