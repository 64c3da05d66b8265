"""Error measures and the benchmark harness.

The two gram-error measures follow the normalization that makes them
comparable across data sets: spectral error ||G - G'||_2 / n (worst case)
and Frobenius error ||G - G'||_F / n^2 (global). The benchmark grid trains
each (method, config) cell on the data, times train and per-point test
work, and scores the cell's gram approximation G' = F F^T against the exact
gram oracle G from its thin (n, r) factor F: the spectral error is a
Lanczos iteration on G - F F^T, and the rank-k error ||G - G'_k||_F takes
the best rank-k part of G' from a thin SVD of F. The harness measures; it
asserts no bound. The rank-k inequality rank_k_frobenius_check reports is
not a theorem for every pair, so the acceptance tests assert it on the
paper's runs only.

The exact oracle materializes an n x n matrix, so the harness refuses
n > 5000 by default; the STREAM_KPCA_ORACLE_MAX_N environment variable
overrides the guard.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .dataio import atomic_text
from .errors import ConfigurationError, ContractViolationError
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
    """Both sides of ||G - G'_k||_F <= ||G - G_k||_F + ||G - G'||_2 * sqrt(k).

    Returns (lhs, rhs), with rhs from the measured spectral norm of the
    difference; both rank-k parts come from top-k eigenpairs only. Nothing
    is asserted: the inequality is not a theorem for every pair (the 2 x 2
    PSD pair in the README breaks it), so callers compare the two sides.
    """
    ga, gpa = _check_pair(g, gp, symmetric=True)
    check_rank(k, ga.shape[0])
    lhs = _rank_k_gap(ga, gpa, k)
    return lhs, _rank_k_gap(ga, ga, k) + sym_spectral_norm(ga - gpa) * math.sqrt(k)


def _score_factor(
    g_exact: np.ndarray, f: np.ndarray, k: int | None
) -> tuple[float, float, float | None]:
    """(spectral, Frobenius, rank-k Frobenius) errors of G' = F F^T, normalized.

    G and F F^T are exactly symmetric by construction, so the
    difference is scored without the dense API's symmetry scans. The
    rank-k error ||G - G'_k||_F / n^2 is scored when k is given: G'_k =
    U_k S_k^2 U_k^T from the thin SVD F = U S V^T, with k capped at the
    factor's width r; these are the top-k eigenpairs of the PSD G'.
    """
    n = g_exact.shape[0]
    diff = g_exact - factor_gram(f)
    spectral = sym_spectral_norm(diff)
    frobenius = float(np.linalg.norm(diff))
    rank_k = None
    if k is not None:
        u, s, _ = thin_svd(f)
        t = u[:, :k] * s[:k]
        rank_k = float(np.linalg.norm(g_exact - t @ t.T)) / n**2
    return spectral / n, frobenius / n**2, rank_k


@dataclass(frozen=True)
class BenchmarkCell:
    """One (method, config) grid cell.

    skpca needs (m, ell); rnca needs m; nystrom needs c. k, optional, is the
    rank of the scored reconstruction; it defaults to ell, m and c. When the
    cell is built, before any data is read, `resolve` checks the sizes and
    the cell checks k against the last.
    """

    method: str
    m: int | None = None
    ell: int | None = None
    c: int | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigurationError(f"unknown method {self.method!r}; expected one of {METHODS}")
        top = list(self.sizes().values())[-1]  # ell, m or c
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
    with atomic_text(path) as fh:
        fh.write("\n".join(lines) + "\n")


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

    Every argument is checked first, then the oracle gram is computed once;
    each cell's rank-k error is scored when k is given. Each cell owns an
    RNG stream derived from (seed, cell index), so the grid is reproducible
    cell-by-cell regardless of execution order; cells are independent and
    fan out over `jobs` worker threads with an order-preserving merge.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if timing_reps < 1:
        raise ConfigurationError(f"timing_reps must be >= 1, got {timing_reps}")
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

    def run_cell(idx: int, cell: BenchmarkCell) -> ErrorReport:
        cell_seed = substream_seed(seed, "benchmark_cell", idx)
        fit, sizes = MODELS[cell.method].fit, cell.sizes()
        train = partial(fit, kernel, cell_seed, arr, **sizes)
        train_seconds, model = _median_time(train, timing_reps)
        # the benchmark's rank, capped at the basis width
        k_test = model.basis.shape[1] if k is None else min(k, model.basis.shape[1])

        def test_pass():
            for row in tst:
                model.answer(row, k_test)

        factor = model.gram_factor(arr, k=cell.k)
        test_seconds, _ = _median_time(test_pass, timing_reps)
        spec_err, frob_err, rank_k = _score_factor(g_exact, factor, k)
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
