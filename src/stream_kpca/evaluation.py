"""Error measures and the benchmark harness.

The two gram-error measures follow the normalization that makes them
comparable across data sets: spectral error ||G - G'||_2 / n (worst case)
and Frobenius error ||G - G'||_F / n^2 (global). The benchmark grid trains
each (method, config) cell on the data, times train and per-point test
work, and scores the cell's gram approximation G' = F F^T against the exact
gram oracle G from its thin (n, r) factor F: the oracle's spectrum is
computed once per run, the spectral error is a Lanczos iteration on
G - F F^T, and the best rank-k part of G' comes from a thin SVD of F.

The exact oracle materializes an n x n matrix, so the harness refuses
n > 5000 by default; the STREAM_KPCA_ORACLE_MAX_N environment variable
overrides the guard.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolationError, NumericalFailureError
from .kernels import KernelSpec, gram
from .numerics import as_matrix, check_rank, factor_gram, sym_eig_top, sym_spectral_norm, thin_svd
from .methods import METHODS, MODELS
from .seeds import substream_seed

ORACLE_MAX_N_DEFAULT = 5000
ORACLE_MAX_N_ENV = "STREAM_KPCA_ORACLE_MAX_N"

TIMING_REPS = 3


def oracle_max_n() -> int:
    raw = os.environ.get(ORACLE_MAX_N_ENV)
    if raw is None:
        return ORACLE_MAX_N_DEFAULT
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{ORACLE_MAX_N_ENV} must be an integer, got {raw!r}"
        ) from None


def _check_pair(g, gp, symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
    ga = as_matrix(g, "exact gram")
    gpa = as_matrix(gp, "approximate gram")
    if ga.shape != gpa.shape:
        raise ContractViolationError(f"shape mismatch: {ga.shape} vs {gpa.shape}")
    if ga.shape[0] != ga.shape[1]:
        raise ContractViolationError(f"gram matrices must be square, got {ga.shape}")
    if symmetric:
        for name, mat in (("exact gram", ga), ("approximate gram", gpa)):
            scale = max(float(np.linalg.norm(mat)), 1e-300)
            if float(np.linalg.norm(mat - mat.T)) > 1e-8 * scale:
                raise ContractViolationError(f"{name} is not symmetric within tolerance")
    return ga, gpa


def _sym_diff(ga: np.ndarray, gpa: np.ndarray) -> np.ndarray:
    """G - G', symmetrized; a no-op on exactly symmetric pairs."""
    diff = ga - gpa
    return (diff + diff.T) / 2.0


def _spectrum(ga: np.ndarray) -> np.ndarray:
    """Eigenvalues of the exact gram, non-increasing."""
    return np.linalg.eigvalsh((ga + ga.T) / 2.0)[::-1]


def _rank_k_rhs(lhs: float, spectrum: np.ndarray, spectral: float, k: int) -> float:
    """The bound ||G - G_k||_F + ||G - G'||_2 * sqrt(k) on lhs = ||G - G'_k||_F.

    `spectrum` is the exact gram's non-increasing spectrum and `spectral`
    the measured ||G - G'||_2. Raises NumericalFailureError if lhs exceeds
    the bound beyond 1e-6 * n slack.
    """
    n = spectrum.size
    base = float(np.sqrt(max(np.sum(spectrum[k:] ** 2), 0.0)))
    rhs = base + spectral * math.sqrt(k)
    if lhs > rhs + 1e-6 * n:
        raise NumericalFailureError(
            f"rank-{k} Frobenius bound violated: lhs={lhs:.6e} > rhs={rhs:.6e}"
        )
    return rhs


def spectral_error(g, gp) -> float:
    """Worst-case error ||G - G'||_2 / n."""
    ga, gpa = _check_pair(g, gp, symmetric=True)
    n = ga.shape[0]
    return sym_spectral_norm(_sym_diff(ga, gpa)) / n


def frobenius_error(g, gp) -> float:
    """Global error ||G - G'||_F / n^2."""
    ga, gpa = _check_pair(g, gp, symmetric=False)
    n = ga.shape[0]
    return float(np.linalg.norm(ga - gpa)) / n**2


def rank_k_frobenius_check(g, gp, k: int, spectral: float | None = None) -> tuple[float, float]:
    """Check ||G - G'_k||_F <= ||G - G_k||_F + ||G - G'||_2 * sqrt(k).

    Uses the measured spectral norm of the difference (pass `spectral` to
    reuse a value already computed), so the inequality is deterministic
    given that measurement. Returns (lhs, rhs) and raises
    NumericalFailureError if the inequality fails beyond 1e-6 * n slack.
    """
    ga, gpa = _check_pair(g, gp, symmetric=True)
    n = ga.shape[0]
    check_rank(k, n)
    if spectral is None:
        spectral = sym_spectral_norm(_sym_diff(ga, gpa))
    wp, vk = sym_eig_top(gpa, k)
    lhs = float(np.linalg.norm(ga - (vk * wp) @ vk.T))
    return lhs, _rank_k_rhs(lhs, _spectrum(ga), spectral, k)


def _score_factor(
    g_exact: np.ndarray, spectrum: np.ndarray | None, f: np.ndarray, k: int | None
) -> tuple[float, float, float | None]:
    """(spectral, Frobenius, rank-k Frobenius) errors of G' = F F^T, normalized.

    G is symmetric by construction and F F^T is symmetrized, so the
    difference is scored without the dense API's symmetry scans. G'_k =
    U_k S_k^2 U_k^T from the thin SVD F = U S V^T, with k capped at the
    factor's width r; these are the top-k eigenpairs of the PSD G'. The
    rank-k score is computed when the run's `spectrum` is given.
    """
    n = g_exact.shape[0]
    diff = g_exact - factor_gram(f)
    spectral = sym_spectral_norm(diff)
    frobenius = float(np.linalg.norm(diff))
    rank_k = None
    if spectrum is not None:
        u, s, _ = thin_svd(f)
        t = u[:, :k] * s[:k]
        lhs = float(np.linalg.norm(g_exact - t @ t.T))
        _rank_k_rhs(lhs, spectrum, spectral, k)
        rank_k = lhs / n**2
    return spectral / n, frobenius / n**2, rank_k


@dataclass(frozen=True)
class BenchmarkCell:
    """One (method, config) grid cell.

    skpca needs (m, ell); rnca needs m; nystrom needs c. k, optional, is the
    rank of the scored reconstruction (and nystrom's model rank); it
    defaults to ell, m and c.
    """

    method: str
    m: int | None = None
    ell: int | None = None
    c: int | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigurationError(f"unknown method {self.method!r}; expected one of {METHODS}")
        self.sizes()

    def sizes(self) -> dict:
        """The final sizes the cell's method fits with."""
        model_cls = MODELS[self.method]
        return model_cls.resolve({name: getattr(self, name) for name in model_cls.sizes})

    @property
    def sample_size(self) -> int:
        return getattr(self, MODELS[self.method].sizes[0])


@dataclass
class ErrorReport:
    """Scores and provenance for one benchmark cell."""

    method: str
    sample_size: int
    space_entries: int
    spectral_err: float
    frobenius_err: float
    rank_k_frobenius: float | None
    train_seconds: float
    test_seconds: float
    seed: int
    n: int
    d: int
    k: int | None
    sigma: float
    m: int | None
    ell: int | None
    c: int | None


REPORT_COLUMNS = [
    "method",
    "n",
    "d",
    "sigma",
    "seed",
    "sample_size",
    "m",
    "ell",
    "c",
    "k",
    "space_entries",
    "spectral_err",
    "frobenius_err",
    "rank_k_frobenius",
    "train_seconds",
    "test_seconds",
]

# wall-clock fields are the only nondeterministic report columns
TIMING_COLUMNS = ("train_seconds", "test_seconds")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_reports_csv(reports: Sequence[ErrorReport], path) -> None:
    lines = [",".join(REPORT_COLUMNS)]
    for rep in reports:
        lines.append(",".join(_fmt(getattr(rep, col)) for col in REPORT_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_reports_jsonl(reports: Sequence[ErrorReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rep in reports:
            record = {col: getattr(rep, col) for col in REPORT_COLUMNS}
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_reports_csv(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _median_time(fn: Callable[[], object], reps: int) -> tuple[float, object]:
    times = []
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2], result


def _run_cell(
    cell: BenchmarkCell,
    data: np.ndarray,
    test_set: np.ndarray,
    g_exact: np.ndarray,
    g_spectrum: np.ndarray | None,
    k: int | None,
    kernel: KernelSpec,
    cell_seed: int,
    timing_reps: int,
) -> ErrorReport:
    n, d = data.shape
    fit, sizes = MODELS[cell.method].fit, cell.sizes()
    train_seconds, model = _median_time(lambda: fit(kernel, cell_seed, data, **sizes), timing_reps)
    # the benchmark's rank where the model answers at it, else its default
    k_test = k if k in model.ranks else model.ranks[-1]

    def test_pass():
        for row in test_set:
            model.answer(row, k_test)

    factor = model.gram_factor(data, k=cell.k)
    test_seconds, _ = _median_time(test_pass, timing_reps)
    spec_err, frob_err, rank_k = _score_factor(g_exact, g_spectrum, factor, k)

    return ErrorReport(
        method=cell.method,
        sample_size=cell.sample_size,
        space_entries=model.space,
        spectral_err=spec_err,
        frobenius_err=frob_err,
        rank_k_frobenius=rank_k,
        train_seconds=train_seconds,
        test_seconds=test_seconds,
        seed=cell_seed,
        n=n,
        d=d,
        k=k,
        sigma=kernel.sigma,
        m=cell.m,
        ell=cell.ell,
        c=cell.c,
    )


def run_benchmark(
    grid: Sequence[BenchmarkCell],
    data,
    test_set,
    k: int | None = None,
    *,
    kernel: KernelSpec | None = None,
    seed: int = 0,
    jobs: int = 1,
    timing_reps: int = TIMING_REPS,
) -> list[ErrorReport]:
    """Score every grid cell against the exact gram oracle.

    Each cell owns an RNG stream derived from (seed, cell index), so the
    grid is reproducible cell-by-cell regardless of execution order; cells
    are independent and fan out over `jobs` worker threads with an
    order-preserving merge. The oracle gram and, when a rank k is scored,
    its spectrum are computed once, before the cells fan out.
    """
    if not grid:
        return []
    kernel = kernel if kernel is not None else KernelSpec()
    arr = as_matrix(data, "data matrix")
    tst = as_matrix(test_set, "test set")
    if tst.shape[1] != arr.shape[1]:
        raise ContractViolationError(
            f"test set has {tst.shape[1]} columns, data has {arr.shape[1]}"
        )
    n = arr.shape[0]
    if k is not None and not 1 <= k <= n:
        raise ConfigurationError(f"k must be in [1, {n}], got {k}")
    guard = oracle_max_n()
    if n > guard:
        raise ConfigurationError(
            f"n={n} exceeds the exact-oracle guard ({guard}); use a smaller n "
            f"or raise {ORACLE_MAX_N_ENV}"
        )
    g_exact = gram(kernel, arr)
    g_spectrum = _spectrum(g_exact) if k is not None else None

    def job(item):
        idx, cell = item
        cell_seed = substream_seed(seed, "benchmark_cell", idx)
        return _run_cell(
            cell, arr, tst, g_exact, g_spectrum, k, kernel, cell_seed, timing_reps
        )

    items = list(enumerate(grid))
    if jobs <= 1:
        return [job(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(job, items))
