"""Error measures and the benchmark harness.

The two gram-error measures follow the normalization that makes them
comparable across data sets: spectral error ||G - G'||_2 / n (worst case)
and Frobenius error ||G - G'||_F / n^2 (global). The benchmark grid trains
each (method, config) cell on the data, times train and per-point test
work, and scores the cell's gram approximation G' = F F^T against the exact
gram oracle G from its thin (n, r) factor F: the spectral error is a
Lanczos iteration on G - F F^T, the best rank-k part of G' comes from a
thin SVD of F, and the oracle's rank-k tail ||G - G_k||_F, which the
rank-k bound needs, is computed once per run from G's top k eigenpairs.

The exact oracle materializes an n x n matrix, so the harness refuses
n > 5000 by default; the STREAM_KPCA_ORACLE_MAX_N environment variable
overrides the guard.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolationError, NumericalFailureError
from .kernels import KernelSpec, gram
from .numerics import PAIR_SYM_TOL, as_matrix, check_rank, factor_gram, sym_eig_top
from .numerics import sym_spectral_norm, symmetrized, thin_svd
from .methods import METHODS, MODELS
from .seeds import substream_seed

ORACLE_MAX_N_DEFAULT = 5000
ORACLE_MAX_N_ENV = "STREAM_KPCA_ORACLE_MAX_N"

TIMING_REPS = 3


def _check_pair(g, gp, symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
    check = partial(symmetrized, tol=PAIR_SYM_TOL) if symmetric else as_matrix
    ga, gpa = check(g, "exact gram"), check(gp, "approximate gram")
    if ga.shape != gpa.shape:
        raise ContractViolationError(f"shape mismatch: {ga.shape} vs {gpa.shape}")
    if ga.shape[0] != ga.shape[1]:
        raise ContractViolationError(f"gram matrices must be square, got {ga.shape}")
    return ga, gpa


def _rank_k_gap(g: np.ndarray, x: np.ndarray, k: int) -> float:
    """||G - X_k||_F, where X_k keeps the k algebraically largest eigenpairs of X.

    With x = g this is G's tail sqrt(sum_{i>k} lambda_i^2), formed as the
    norm of the difference rather than ||G||_F^2 - sum_{i<=k} lambda_i^2,
    which cancels when the tail is small.
    """
    w, v = sym_eig_top(x, k)
    return float(np.linalg.norm(g - (v * w) @ v.T))


def _rank_k_rhs(lhs: float, tail: float, spectral: float, k: int, n: int) -> float:
    """The bound ||G - G_k||_F + ||G - G'||_2 * sqrt(k) on lhs = ||G - G'_k||_F.

    `tail` is ||G - G_k||_F and `spectral` the measured ||G - G'||_2.
    Raises NumericalFailureError if lhs exceeds the bound beyond 1e-6 * n
    slack.
    """
    rhs = tail + spectral * math.sqrt(k)
    if lhs > rhs + 1e-6 * n:
        raise NumericalFailureError(
            f"rank-{k} Frobenius bound violated: lhs={lhs:.6e} > rhs={rhs:.6e}"
        )
    return rhs


def spectral_error(g, gp) -> float:
    """Worst-case error ||G - G'||_2 / n."""
    ga, gpa = _check_pair(g, gp, symmetric=True)
    n = ga.shape[0]
    return sym_spectral_norm(ga - gpa) / n


def frobenius_error(g, gp) -> float:
    """Global error ||G - G'||_F / n^2."""
    ga, gpa = _check_pair(g, gp, symmetric=False)
    n = ga.shape[0]
    return float(np.linalg.norm(ga - gpa)) / n**2


def rank_k_frobenius_check(g, gp, k: int) -> tuple[float, float]:
    """Check ||G - G'_k||_F <= ||G - G_k||_F + ||G - G'||_2 * sqrt(k).

    Uses the measured spectral norm of the difference, so the inequality is
    deterministic given that measurement. Both rank-k parts come from top-k
    eigenpairs only. Returns (lhs, rhs) and raises NumericalFailureError if
    the inequality fails beyond 1e-6 * n slack.
    """
    ga, gpa = _check_pair(g, gp, symmetric=True)
    n = ga.shape[0]
    check_rank(k, n)
    lhs = _rank_k_gap(ga, gpa, k)
    return lhs, _rank_k_rhs(lhs, _rank_k_gap(ga, ga, k), sym_spectral_norm(ga - gpa), k, n)


def _score_factor(
    g_exact: np.ndarray, tail: float | None, f: np.ndarray, k: int | None
) -> tuple[float, float, float | None]:
    """(spectral, Frobenius, rank-k Frobenius) errors of G' = F F^T, normalized.

    G is symmetric by construction and F F^T is symmetrized, so the
    difference is scored without the dense API's symmetry scans. G'_k =
    U_k S_k^2 U_k^T from the thin SVD F = U S V^T, with k capped at the
    factor's width r; these are the top-k eigenpairs of the PSD G'. The
    rank-k score is computed when the run's `tail` ||G - G_k||_F is given.
    """
    n = g_exact.shape[0]
    diff = g_exact - factor_gram(f)
    spectral = sym_spectral_norm(diff)
    frobenius = float(np.linalg.norm(diff))
    rank_k = None
    if tail is not None:
        u, s, _ = thin_svd(f)
        t = u[:, :k] * s[:k]
        lhs = float(np.linalg.norm(g_exact - t @ t.T))
        _rank_k_rhs(lhs, tail, spectral, k, n)
        rank_k = lhs / n**2
    return spectral / n, frobenius / n**2, rank_k


@dataclass(frozen=True)
class BenchmarkCell:
    """One (method, config) grid cell.

    skpca needs (m, ell); rnca needs m; nystrom needs c. k, optional, is the
    rank of the scored reconstruction (and nystrom's model rank); it
    defaults to ell, m and c. When the cell is built, before any data is
    read, `resolve` checks the sizes and the cell checks k against the last.
    """

    method: str
    m: int | None = None
    ell: int | None = None
    c: int | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigurationError(f"unknown method {self.method!r}; expected one of {METHODS}")
        top = list(self.sizes().values())[-1]  # ell, m, or nystrom's checked k
        if self.k is not None:
            try:
                check_rank(self.k, top)
            except ContractViolationError as exc:
                raise ConfigurationError(str(exc)) from None

    def sizes(self) -> dict:
        """The final sizes the cell's method fits with."""
        model_cls = MODELS[self.method]
        return model_cls.resolve({name: getattr(self, name) for name in model_cls.sizes})

    @property
    def sample_size(self) -> int:
        return getattr(self, MODELS[self.method].sizes[0])


@dataclass
class ErrorReport:
    """Scores and provenance for one benchmark cell, in report column order."""

    method: str
    n: int
    d: int
    sigma: float
    seed: int
    sample_size: int
    m: int | None
    ell: int | None
    c: int | None
    k: int | None
    space_entries: int
    spectral_err: float
    frobenius_err: float
    rank_k_frobenius: float | None
    train_seconds: float
    test_seconds: float


REPORT_COLUMNS = [field.name for field in fields(ErrorReport)]

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

    Every argument is checked first, then the oracle gram and, when a rank
    k is scored, its rank-k tail are computed once. Each cell owns an RNG
    stream derived from (seed, cell index), so the grid is reproducible
    cell-by-cell regardless of execution order; cells are independent and
    fan out over `jobs` worker threads with an order-preserving merge.
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
    n, d = arr.shape
    if k is not None:
        if not 1 <= k <= n:
            raise ConfigurationError(f"k must be in [1, {n}], got {k}")
        check_rank(k, n)  # a bool or non-integer k, before any n x n work
    raw = os.environ.get(ORACLE_MAX_N_ENV)
    try:
        guard = ORACLE_MAX_N_DEFAULT if raw is None else int(raw)
    except ValueError:
        raise ConfigurationError(f"{ORACLE_MAX_N_ENV} must be an integer, got {raw!r}") from None
    if n > guard:
        raise ConfigurationError(
            f"n={n} exceeds the exact-oracle guard ({guard}); use a smaller n "
            f"or raise {ORACLE_MAX_N_ENV}"
        )
    g_exact = gram(kernel, arr)
    g_tail = _rank_k_gap(g_exact, g_exact, k) if k is not None else None

    def run_cell(idx: int, cell: BenchmarkCell) -> ErrorReport:
        cell_seed = substream_seed(seed, "benchmark_cell", idx)
        fit, sizes = MODELS[cell.method].fit, cell.sizes()
        train = partial(fit, kernel, cell_seed, arr, **sizes)
        train_seconds, model = _median_time(train, timing_reps)
        # the benchmark's rank where the model answers at it, else its default
        k_test = k if k in model.ranks else model.ranks[-1]

        def test_pass():
            for row in tst:
                model.answer(row, k_test)

        factor = model.gram_factor(arr, k=cell.k)
        test_seconds, _ = _median_time(test_pass, timing_reps)
        spec_err, frob_err, rank_k = _score_factor(g_exact, g_tail, factor, k)
        return ErrorReport(
            method=cell.method,
            n=n,
            d=d,
            sigma=kernel.sigma,
            seed=cell_seed,
            sample_size=cell.sample_size,
            m=cell.m,
            ell=cell.ell,
            c=cell.c,
            k=k,
            space_entries=model.space,
            spectral_err=spec_err,
            frobenius_err=frob_err,
            rank_k_frobenius=rank_k,
            train_seconds=train_seconds,
            test_seconds=test_seconds,
        )

    if jobs <= 1:
        return [run_cell(idx, cell) for idx, cell in enumerate(grid)]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run_cell, range(len(grid)), grid))
