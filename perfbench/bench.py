"""Workloads, paths and output checks of the stream-kpca benchmark.

A run repeats rounds until its measuring window is spent. Each round goes
through the three paths of the program in order:

- train: in-process `stream-kpca train` (through `cli.main`) for skpca,
  rnca and nystrom;
- score: in-process `stream-kpca benchmark` over a 6-cell grid;
- project: `persist.load_model` on the three models `train` just wrote,
  then every held-out point through the call `cmd_test` makes.

So every end-to-end metric is measured on every workload, with its samples
spread over the whole window. A workload fixes the input sizes: one path
runs at full size, the other two at a small one. The program only ever
receives the generated CSV files and arrays.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from stream_kpca import baselines, cli, dataio, persist, skpca
from stream_kpca.kernels import KernelSpec, gram
from stream_kpca.seeds import substream_seed
from stream_kpca.synthetic import SyntheticSpec, gen_random_noisy

# sigma ~ the data's median pairwise distance (3.43); at sigma = 1 the gram
# matrix is within ~3e-3 of the identity and the error metrics measure
# almost nothing. Speed does not depend on sigma.
SIGMA = 3.5
KERNEL = KernelSpec(sigma=SIGMA)
D = 20
SIGNAL_DIM = 10
METHODS = ("skpca", "rnca", "nystrom")
SETUP_REPS = 9
LOADS_PER_ROUND = 2


@dataclass(frozen=True)
class Sizes:
    train_rows: int  # skpca and nystrom training CSV
    rnca_rows: int  # rnca training CSV, a prefix of the same data
    grid_rows: int  # score-grid CSV (4/5 train, 1/5 test)
    # passes over the held-out points per round: nystrom answers a pass in
    # ~1.6 s (O(cd + c^2) a point), skpca and rnca in ~60 ms (O(dm + mk))
    kernel_passes: int
    lift_passes: int = 6
    test_points: int = 1000  # held-out points each model projects per pass
    m: int = 1024
    ell: int = 16
    c: int = 1024
    grid_m: tuple[int, ...] = (128, 256)
    k: int = 10


# BENCHMARK.json records why each workload was chosen. rnca's per-row
# m x m outer product costs ~2.6 ms at m = 1024 and its model file is 21 MB
# of JSON, so its training file stays short; the grid's rank-k check grows
# as n^3.
WORKLOADS = {
    "train-stream": Sizes(train_rows=20000, rnca_rows=500, grid_rows=700, kernel_passes=1),
    "score-grid": Sizes(train_rows=8000, rnca_rows=100, grid_rows=1500, kernel_passes=1),
    "project-test": Sizes(train_rows=8000, rnca_rows=100, grid_rows=700, kernel_passes=3),
}


class Ops:
    """Operations attempted and failed; a failure keeps its message."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


@dataclass
class Inputs:
    workdir: str
    sizes: Sizes
    seed: int
    data: np.ndarray  # training rows (every CSV is a prefix of these)
    held_out: np.ndarray  # points the project path answers
    csv: dict[str, str]


@dataclass
class Samples:
    """Raw measurements of one run; metrics are computed from these."""

    train_s: dict[str, list[float]] = field(default_factory=lambda: {m: [] for m in METHODS})
    train_hashes: dict[str, set] = field(default_factory=lambda: {m: set() for m in METHODS})
    trained: dict[str, object] = field(default_factory=dict)  # latest in-memory models
    score_s: list[float] = field(default_factory=list)
    reports: list[list[dict]] = field(default_factory=list)
    # per method, one list of per-point nanoseconds for each pass over the points
    test_ns: dict[str, list[list[int]]] = field(default_factory=lambda: {m: [] for m in METHODS})
    load_s: list[float] = field(default_factory=list)


def setup(workdir: str, sizes: Sizes, seed: int) -> Inputs:
    """Generate the data and write the CSV files."""
    n_rows = max(sizes.train_rows, sizes.rnca_rows, sizes.grid_rows)
    spec = SyntheticSpec(
        n=n_rows + sizes.test_points,
        d=D,
        s=SIGNAL_DIM,
        seed=substream_seed(seed, "data_gen"),
    )
    all_rows = gen_random_noisy(spec)
    csv_paths = {}
    for name, rows in (
        ("train", sizes.train_rows),
        ("rnca", sizes.rnca_rows),
        ("grid", sizes.grid_rows),
    ):
        csv_paths[name] = os.path.join(workdir, f"{name}.csv")
        dataio.write_matrix_csv(csv_paths[name], all_rows[:rows])
    return Inputs(workdir, sizes, seed, all_rows[:n_rows], all_rows[n_rows:], csv_paths)


def _cli(argv: list[str], ops: Ops, name: str) -> float | None:
    """Run one in-process CLI call; returns its wall time, None on failure."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a dead run
        code = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    ok = ops.check(name, code == 0, f"exit {code}; {sink.getvalue().strip()[-300:]}")
    return elapsed if ok else None


@contextlib.contextmanager
def _keep_saved_models(kept: dict):
    """Keep each model `cmd_train` saves, keyed by its output path."""
    save = cli.save_model

    def keep(model, path, *args, **kwargs):
        kept[path] = model
        return save(model, path, *args, **kwargs)

    cli.save_model = keep
    try:
        yield
    finally:
        cli.save_model = save


def train_output(inp: Inputs, method: str) -> str:
    return os.path.join(inp.workdir, f"train-{method}.json")


def train_rows(sizes: Sizes, method: str) -> int:
    return sizes.rnca_rows if method == "rnca" else sizes.train_rows


def run_train(inp: Inputs, ops: Ops, samples: Samples) -> None:
    """One `stream-kpca train` call per method."""
    s = inp.sizes
    size_flags = {
        "skpca": ["--m", str(s.m), "--ell", str(s.ell)],
        "rnca": ["--m", str(s.m)],
        "nystrom": ["--c", str(s.c)],
    }
    for method in METHODS:
        path = train_output(inp, method)
        argv = [
            "train",
            "--input", inp.csv["rnca" if method == "rnca" else "train"],
            "--output", path,
            "--method", method,
            *size_flags[method],
            "--sigma", str(SIGMA),
            "--seed", str(inp.seed),
        ]
        kept = {}
        with _keep_saved_models(kept):
            elapsed = _cli(argv, ops, f"train {method}")
        if elapsed is not None:
            samples.train_s[method].append(elapsed)
            samples.trained[method] = kept[path]
            with open(path, "rb") as fh:
                samples.train_hashes[method].add(hashlib.sha256(fh.read()).hexdigest())


def report_path(inp: Inputs) -> str:
    return os.path.join(inp.workdir, "report.csv")


def run_score(inp: Inputs, ops: Ops, samples: Samples) -> None:
    """One `stream-kpca benchmark` call over the 6-cell grid, one worker."""
    s = inp.sizes
    argv = [
        "benchmark",
        "--input", inp.csv["grid"],
        "--output", report_path(inp),
        "--method", ",".join(METHODS),
        "--m", ",".join(str(m) for m in s.grid_m),
        "--ell", str(s.ell),
        "--k", str(s.k),
        "--jobs", "1",
        "--sigma", str(SIGMA),
        "--seed", str(inp.seed),
    ]
    elapsed = _cli(argv, ops, "benchmark")
    if elapsed is not None:
        samples.score_s.append(elapsed)
        with open(report_path(inp), encoding="utf-8") as fh:
            samples.reports.append(list(csv.DictReader(fh)))


def _projector(model, k: int):
    """The per-point call `cmd_test` makes for this model type."""
    if isinstance(model, skpca.SkpcaModel):
        return lambda x: model.project_test(x, k)
    if isinstance(model, baselines.RncaModel):
        return lambda x: model.test(x, k)

    def nystrom(x):
        c_row, loading = model.test(x)
        return c_row, loading, model.residual(c_row)

    return nystrom


def _load_all(inp: Inputs, ops: Ops, methods) -> tuple[dict, float | None]:
    """Load each model file; returns the models and the summed load time."""
    total = 0.0
    loaded = {}
    for method in methods:
        start = time.perf_counter()
        try:
            model, _ = persist.load_model(train_output(inp, method))
        except Exception as exc:  # counted, and the method is skipped
            ops.check(f"load {method}", False, f"{type(exc).__name__}: {exc}")
            continue
        total += time.perf_counter() - start
        ops.check(f"load {method}", True)
        loaded[method] = model
    return loaded, total if len(loaded) == len(METHODS) else None


def run_project(inp: Inputs, ops: Ops, samples: Samples, check: bool) -> None:
    """Load the models `train` wrote, cold, then answer every held-out point."""
    # a failed train call is already counted; its method is skipped
    methods = [method for method in METHODS if method in samples.trained]
    for _ in range(LOADS_PER_ROUND):
        loaded, load_s = _load_all(inp, ops, methods)
        if load_s is not None:
            samples.load_s.append(load_s)

    projectors = {method: _projector(model, inp.sizes.k) for method, model in loaded.items()}
    for method, project in projectors.items():
        # untimed and uncounted: the first calls after a load run cold
        _project_pass(project, inp.held_out[:50], Ops(), method)
    s = inp.sizes
    passes = {m: s.kernel_passes if m == "nystrom" else s.lift_passes for m in projectors}
    # passes alternate between the models, so each model's samples span the
    # whole path rather than one stretch of it
    for i in range(max(passes.values(), default=0)):
        for method, project in projectors.items():
            if i < passes[method]:
                times, outputs = _project_pass(project, inp.held_out, ops, method)
                samples.test_ns[method].append(times)
                if check and i == 0:
                    project_checks(inp, samples.trained[method], method, outputs, ops)


def run_round(inp: Inputs, ops: Ops, samples: Samples, check: bool) -> float:
    """One round through train, score and project; returns its wall time."""
    start = time.perf_counter()
    run_train(inp, ops, samples)
    run_score(inp, ops, samples)
    run_project(inp, ops, samples, check)
    return time.perf_counter() - start


def _project_pass(project, points, ops: Ops, method: str) -> tuple[list[int], list]:
    """Time each point's projection; returns (nanoseconds, outputs)."""
    times, outputs = [], []
    clock = time.perf_counter_ns
    # like timeit: no collector pauses inside the per-point timings
    gc.collect()
    gc.disable()
    try:
        for x in points:
            start = clock()
            try:
                out = project(x)
            except Exception as exc:  # one failed point
                ops.check(f"project {method}", False, f"{type(exc).__name__}: {exc}")
                continue
            times.append(clock() - start)
            outputs.append(out)
    finally:
        gc.enable()
    ops.attempted += len(outputs)
    return times, outputs


def project_checks(inp: Inputs, trained, method: str, outputs: list, ops: Ops) -> None:
    """Pythagoras on the lift, and loaded answers == in-memory answers."""
    if len(outputs) != len(inp.held_out):
        return  # the missing points are already counted as failures
    if method != "nystrom":
        lift = np.array([o[0] for o in outputs])
        loading = np.array([o[1] for o in outputs])
        residual = np.array([o[2] for o in outputs])
        lhs = np.sum(loading**2, axis=1) + residual**2
        rhs = np.sum(lift**2, axis=1)
        gap = float(np.max(np.abs(lhs - rhs) / rhs))
        ops.check(f"{method} loading^2 + residual^2 = lift^2", gap <= 1e-9, f"rel gap {gap:.3e}")
    reference = _projector(trained, inp.sizes.k)
    worst = 0.0
    for x, out in zip(inp.held_out[:100], outputs):
        for got, want in zip(out, reference(x)):
            want = np.asarray(want, dtype=np.float64)
            scale = max(float(np.max(np.abs(want))), 1e-300)
            worst = max(worst, float(np.max(np.abs(np.asarray(got) - want))) / scale)
    ops.check(f"{method} loaded model answers like in-memory", worst <= 1e-12,
              f"rel gap {worst:.3e}")


def _lift_gram(fm, rows: np.ndarray, block: int = 2000) -> np.ndarray:
    """Z^T Z of the lifted rows, accumulated in blocks."""
    out = np.zeros((fm.m, fm.m))
    for start in range(0, rows.shape[0], block):
        z = fm.apply_batch(rows[start : start + block])
        out += z.T @ z
    return out


def train_checks(inp: Inputs, samples: Samples, ops: Ops) -> float | None:
    """Checks on the models `train` built.

    Returns the skpca sketch error ||Z^T Z - B^T B||_2 / ||Z||_F^2, or None
    when skpca did not train.
    """
    s = inp.sizes
    models = samples.trained
    for method, model in models.items():
        ops.check(f"{method} train output identical across calls",
                  len(samples.train_hashes[method]) == 1,
                  f"{len(samples.train_hashes[method])} distinct files")
        rows = train_rows(s, method)
        ops.check(f"{method} n_seen", model.n_seen == rows, f"{model.n_seen} != {rows}")
        budget = {
            "skpca": skpca.space_entries(s.m, s.ell, D),
            "rnca": baselines.rnca_space_entries(s.m, D),
            "nystrom": baselines.nystrom_space_entries(s.c, D),
        }[method]
        ops.check(f"{method} peak_entries <= 3x space formula",
                  model.peak_entries <= 3 * budget, f"{model.peak_entries} > 3 * {budget}")

    sketch_err = None
    if "skpca" in models:
        model = models["skpca"]
        w = model.w
        ortho = float(np.max(np.abs(w.T @ w - np.eye(w.shape[1]))))
        ops.check("skpca W^T W = I", ortho <= 1e-10, f"max gap {ortho:.3e}")
        # FD certificate: 0 <= Z^T Z - B^T B <= ||Z||_F^2 / (ell/2), B^T B = W S^2 W^T
        ztz = _lift_gram(model.fm, inp.data[: s.train_rows])
        zf2 = float(np.trace(ztz))
        eig = np.linalg.eigvalsh(ztz - (w * model.s**2) @ w.T)
        ops.check("skpca FD error is PSD", eig[0] >= -1e-9 * zf2,
                  f"min eig {eig[0]:.3e} vs ||Z||_F^2 {zf2:.3e}")
        bound = 2.0 * zf2 / model.ell
        ops.check("skpca FD error <= 2||Z||_F^2/ell", eig[-1] <= bound * (1 + 1e-9),
                  f"top eig {eig[-1]:.6e} > {bound:.6e}")
        sketch_err = float(eig[-1]) / zf2
    if "rnca" in models:
        model = models["rnca"]
        ztz = _lift_gram(model.fm, inp.data[: s.rnca_rows])
        gap = float(np.linalg.norm(model.cov - ztz) / np.linalg.norm(ztz))
        ops.check("rnca cov = blocked Z^T Z", gap <= 1e-10, f"rel gap {gap:.3e}")
    return sketch_err


ERROR_COLUMNS = ("spectral_err", "frobenius_err", "rank_k_frobenius")


def score_checks(inp: Inputs, samples: Samples, ops: Ops) -> None:
    s = inp.sizes
    cells = len(METHODS) * len(s.grid_m)
    for report in samples.reports:
        finite = all(math.isfinite(float(row[col])) for row in report for col in ERROR_COLUMNS)
        ops.check("report has one finite row per cell", len(report) == cells and finite,
                  f"{len(report)} rows, finite={finite}")
    if not samples.reports:
        return
    scores = [[tuple(row[col] for col in ERROR_COLUMNS) for row in r] for r in samples.reports]
    ops.check("report errors identical across calls", all(x == scores[0] for x in scores))

    # re-train the largest skpca cell through the library, as cmd_benchmark
    # does, and compare its reported spectral error with a dense eigvalsh
    data = inp.data[: s.grid_rows]
    n = data.shape[0]
    perm = np.random.default_rng(substream_seed(inp.seed, "test_split")).permutation(n)
    train_set = data[perm[min(1000, max(1, n // 5)) :]]
    idx = len(s.grid_m) - 1
    config = skpca.SkpcaConfig(
        kernel=KERNEL,
        seed=substream_seed(inp.seed, "benchmark_cell", idx),
        m=s.grid_m[idx],
        ell=s.ell,
    )
    gp = skpca.train(config, train_set).reconstruct_gram(train_set)
    eig = np.linalg.eigvalsh(gram(KERNEL, train_set) - gp)
    dense = float(np.max(np.abs(eig))) / train_set.shape[0]
    reported = float(samples.reports[0][idx]["spectral_err"])
    ops.check("spectral_error does not under-report", reported >= dense * (1 - 1e-5),
              f"reported {reported:.9e} < dense {dense:.9e}")


def end_to_end(samples: Samples, sizes: Sizes, sketch_err: float | None,
               setup_s: list[float]) -> dict:
    """The end-to-end metrics, from the raw samples of one run."""
    out = {"setup_s": statistics.median(setup_s)}
    for method in METHODS:
        if samples.train_s[method]:
            rows = train_rows(sizes, method)
            out[f"train_rows_per_s.{method}"] = rows / statistics.median(samples.train_s[method])
        if method in samples.trained:
            out[f"peak_entries.{method}"] = samples.trained[method].peak_entries
    if sketch_err is not None:
        out["sketch_err.skpca"] = sketch_err
    if samples.score_s:
        out["score_s"] = statistics.median(samples.score_s)
    # a statistic of each pass, then the median over passes: one burst of
    # load from outside the process moves one pass, not the metric. The mean
    # is what `stream-kpca test` reports per point; the per-point median is
    # not used because on a shared core skpca and rnca answer in two modes
    # (~42 and ~60 us) and the median jumps between them from run to run.
    for method in METHODS:
        passes = [ns for ns in samples.test_ns[method] if len(ns) >= 100]
        if passes:
            mean = [statistics.fmean(ns) for ns in passes]
            p90 = [statistics.quantiles(ns, n=10, method="inclusive")[8] for ns in passes]
            out[f"test_us_mean.{method}"] = statistics.median(mean) / 1e3
            out[f"test_us_p90.{method}"] = statistics.median(p90) / 1e3
    if samples.load_s:
        out["load_s"] = statistics.median(samples.load_s)
    return out
