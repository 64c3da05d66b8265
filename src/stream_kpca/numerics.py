"""Dense linear-algebra kernel: thin SVD, symmetric eigendecomposition
(full or top-k), Moore-Penrose pseudoinverse, a Lanczos spectral norm for
symmetric matrices and a power-iteration spectral norm for general ones.

Factorizations delegate to LAPACK (via numpy and scipy). The symmetric
spectral norm runs ARPACK's Lanczos iteration to machine precision, which
is what the error measures use; the power iteration stays available for
non-symmetric inputs and as an independent cross-check.

All functions are pure: no shared mutable state, safe to call concurrently.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

from .errors import ContractViolationError, NumericalFailureError

MACHINE_EPS = float(np.finfo(np.float64).eps)

POWER_ITER_TOL = 1e-6
POWER_ITER_CAP = 10_000

LANCZOS_SEED = 0  # seeds the fixed Lanczos start vector, so results repeat


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a 2-D float64 array with finite entries."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ContractViolationError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ContractViolationError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ContractViolationError(f"{name} contains non-finite entries")
    return arr


def check_rank(k: int, r: int) -> None:
    """Raise unless the rank k is in [1, r]."""
    if not 1 <= k <= r:
        raise ContractViolationError(f"k must be in [1, {r}], got {k}")


def as_vector(x, name: str = "vector") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size < 1:
        raise ContractViolationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ContractViolationError(f"{name} contains non-finite entries")
    return arr


class SvdResult(NamedTuple):
    """Thin SVD `a = u @ diag(s) @ v.T` with r = min(rows, cols).

    u: (n, r) orthonormal columns
    s: (r,) non-increasing, non-negative
    v: (d, r) orthonormal columns
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def thin_svd(a) -> SvdResult:
    """Thin singular value decomposition of a dense matrix.

    Raises NumericalFailureError if the LAPACK iteration does not converge
    (never returns silent garbage).
    """
    arr = as_matrix(a, "svd input")
    try:
        u, s, vt = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD did not converge: {exc}") from exc
    return SvdResult(u=u, s=s, v=vt.T)


def _symmetrized(g, name: str) -> np.ndarray:
    """(g + g.T) / 2 after checking g is square and symmetric to 1e-10 * ||g||_F."""
    arr = as_matrix(g, f"{name} input")
    n, m = arr.shape
    if n != m:
        raise ContractViolationError(f"{name} needs a square matrix, got {arr.shape}")
    scale = float(np.linalg.norm(arr))
    asym = float(np.linalg.norm(arr - arr.T))
    if asym > 1e-10 * max(scale, 1e-300):
        raise ContractViolationError(
            f"matrix is not symmetric: ||g - g.T||_F = {asym:.3e} vs ||g||_F = {scale:.3e}"
        )
    return (arr + arr.T) / 2.0


def sym_eig(g) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues non-increasing and
    eigenvectors as orthonormal columns. The input must be square and
    symmetric to within 1e-10 * ||g||_F; it is symmetrized as (g + g.T)/2
    before decomposing, since floating-point construction of gram matrices
    breaks exact symmetry.
    """
    sym = _symmetrized(g, "sym_eig")
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition did not converge: {exc}") from exc
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def sym_eig_top(g, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k algebraically largest eigenpairs of a symmetric matrix.

    Same contract as `sym_eig` (symmetry check, non-increasing signed
    eigenvalues, orthonormal eigenvector columns), but LAPACK computes only
    the requested eigenpairs, which costs far less than the full
    decomposition when k is small.
    """
    sym = _symmetrized(g, "sym_eig_top")
    n = sym.shape[0]
    check_rank(k, n)
    try:
        w, v = scipy.linalg.eigh(sym, subset_by_index=[n - k, n - 1])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition did not converge: {exc}") from exc
    return w[::-1], v[:, ::-1]


def factor_gram(f) -> np.ndarray:
    """F F^T for an (n, r) factor, symmetrized so the result is exactly symmetric."""
    arr = as_matrix(f, "gram factor")
    g = arr @ arr.T
    return (g + g.T) / 2.0


def pinv(a, rtol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff.

    Singular values sigma_i <= rtol * sigma_1 are treated as zero. The
    default rtol = max(rows, cols) * machine epsilon is the standard
    rank-revealing choice.
    """
    arr = as_matrix(a, "pinv input")
    if rtol is None:
        rtol = max(arr.shape) * MACHINE_EPS
    if rtol < 0:
        raise ContractViolationError(f"pinv cutoff must be >= 0, got {rtol}")
    u, s, v = thin_svd(arr)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((arr.shape[1], arr.shape[0]))
    cutoff = rtol * s[0]
    inv_s = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (v * inv_s) @ u.T


def spectral_norm(a) -> float:
    """Largest singular value via power iteration on the normal matrix.

    Iterates v <- A.T (A v) from the deterministic all-ones start vector so
    runs are reproducible. The Rayleigh quotient rho = ||A v||^2 increases
    geometrically toward sigma_1^2; the raw step-to-step change understates
    the remaining error when the spectral gap is small, so the stopping
    rule extrapolates the geometric tail (ratio of successive changes) and
    stops once the estimated remaining change is below 1e-6 relative.
    Symmetric inputs work unchanged: +/- lambda_1 both fold onto
    lambda_1^2.
    """
    arr = as_matrix(a, "spectral_norm input")
    v = np.ones(arr.shape[1]) / np.sqrt(arr.shape[1])
    rho_prev = None
    delta_prev = None
    stalled = 0
    for _ in range(POWER_ITER_CAP):
        av = arr @ v
        rho = float(av @ av)
        if rho == 0.0:
            return 0.0
        w = arr.T @ av
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        if rho_prev is not None:
            delta = rho - rho_prev
            if delta <= 0.0:
                return float(np.sqrt(rho))  # monotone sequence hit fp resolution
            if delta <= MACHINE_EPS * rho:
                stalled += 1
                if stalled >= 2:
                    return float(np.sqrt(rho))
            else:
                stalled = 0
            if delta_prev is not None and delta_prev > 0.0:
                ratio = delta / delta_prev
                if ratio < 1.0 and delta * ratio / (1.0 - ratio) <= POWER_ITER_TOL * rho:
                    return float(np.sqrt(rho))
            delta_prev = delta
        rho_prev = rho
    raise NumericalFailureError(
        f"power iteration did not converge within {POWER_ITER_CAP} iterations"
    )


def sym_spectral_norm(a) -> float:
    """Largest |eigenvalue| of a symmetric matrix, by Lanczos iteration.

    The caller guarantees symmetry: ARPACK reads the whole matrix through
    matrix-vector products and assumes a = a.T. The iteration runs to
    machine precision (tol=0) from a fixed seeded Gaussian start vector, so
    the result repeats exactly and does not read low the way a stopped power
    iteration can. A zero matrix returns 0.0; n = 1, which ARPACK refuses,
    takes the dense eigensolver.
    """
    arr = as_matrix(a, "sym_spectral_norm input")
    n = arr.shape[0]
    if float(np.linalg.norm(arr)) == 0.0:
        return 0.0
    if n < 2:
        return float(np.max(np.abs(np.linalg.eigvalsh(arr))))
    v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(n)
    try:
        w = eigsh(arr, k=1, which="LM", tol=0, v0=v0, return_eigenvectors=False)
    except (ArpackNoConvergence, ArpackError) as exc:
        raise NumericalFailureError(f"Lanczos iteration failed: {exc}") from exc
    return abs(float(w[0]))
