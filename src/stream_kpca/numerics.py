"""Dense linear-algebra kernel: thin SVD, symmetric eigendecomposition
(full or top-k), and spectral norms of symmetric and general matrices.

Factorizations delegate to LAPACK (via numpy and scipy). The top-k
eigenpairs and the symmetric spectral norm, which the error measures use,
run ARPACK's Lanczos iteration to machine precision from a fixed seeded
start vector, so results repeat exactly. The general spectral norm is the
exact largest singular value from LAPACK's SVD.

All functions are pure: no shared mutable state, safe to call concurrently.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

from .errors import ContractViolationError, NumericalFailureError

MACHINE_EPS = float(np.finfo(np.float64).eps)

LANCZOS_SEED = 0  # seeds the fixed Lanczos start vector, so results repeat
# symmetry tolerances (x ||g||_F): eigensolver inputs; the dense error measures' gram pairs
SYM_TOL, PAIR_SYM_TOL = 1e-10, 1e-8


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
    """Raise unless the rank k is an integer (not a bool) in [1, r]."""
    if type(k) is bool or not isinstance(k, (int, np.integer)) or not 1 <= k <= r:
        raise ContractViolationError(f"k must be in [1, {r}], got {k}")


def check_shape(a, shape: tuple, name: str) -> np.ndarray:
    """Return `a`; raise unless it is an array of exactly this shape."""
    if not isinstance(a, np.ndarray) or a.shape != shape:
        got = a.shape if isinstance(a, np.ndarray) else type(a).__name__
        raise ContractViolationError(f"{name} must be an array of shape {shape}, got {got}")
    return a


def as_vector(x, name: str = "vector") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size < 1:
        raise ContractViolationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ContractViolationError(f"{name} contains non-finite entries")
    return arr


def thin_svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD `a = u @ diag(s) @ v.T` of a dense (n, d) matrix, as (u, s, v)
    with r = min(n, d): u (n, r) and v (d, r) have orthonormal columns, and
    s (r,) is non-increasing and non-negative.

    Raises NumericalFailureError if the LAPACK iteration does not converge
    (never returns silent garbage).
    """
    arr = as_matrix(a, "svd input")
    try:
        u, s, vt = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD did not converge: {exc}") from exc
    return u, s, vt.T


def symmetrized(g, name: str, tol: float = SYM_TOL) -> np.ndarray:
    """(g + g.T) / 2 after checking g is square and symmetric to tol * ||g||_F.

    An exactly symmetric g is returned as it is, which is the same value.
    """
    arr = as_matrix(g, name)
    n, m = arr.shape
    if n != m:
        raise ContractViolationError(f"{name} must be square, got shape {arr.shape}")
    scale = float(np.linalg.norm(arr))
    asym = float(np.linalg.norm(arr - arr.T))
    if asym > tol * max(scale, 1e-300):
        raise ContractViolationError(
            f"{name} is not symmetric: ||g - g.T||_F = {asym:.3e} vs ||g||_F = {scale:.3e}"
        )
    return (arr + arr.T) / 2.0 if asym else arr


def sym_eig(g) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues non-increasing and
    eigenvectors as orthonormal columns. The input must be square and
    symmetric to within 1e-10 * ||g||_F; it is symmetrized as (g + g.T)/2
    before decomposing, since floating-point construction of gram matrices
    breaks exact symmetry.
    """
    sym = symmetrized(g, "sym_eig input")
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition did not converge: {exc}") from exc
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def sym_eig_top(g, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k algebraically largest eigenpairs of a symmetric matrix.

    Same contract as `sym_eig` (symmetry check, non-increasing signed
    eigenvalues, orthonormal eigenvector columns), but only the requested
    eigenpairs are computed: by Lanczos iteration (`_lanczos`) when k is a
    small share of n, else by LAPACK's subset eigensolver. The subset
    solver also takes k = n, which ARPACK refuses, and the zero matrix,
    which ARPACK cannot start from.
    """
    sym = symmetrized(g, "sym_eig_top input")
    n = sym.shape[0]
    check_rank(k, n)
    if 4 * k < n and sym.any():
        w, v = _lanczos(sym, k, "LA")
        return w[::-1], v[:, ::-1]
    try:
        w, v = scipy.linalg.eigh(sym, subset_by_index=[n - k, n - 1])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition did not converge: {exc}") from exc
    return w[::-1], v[:, ::-1]


def _lanczos(sym: np.ndarray, k: int, which: str, return_eigenvectors: bool = True):
    """ARPACK `eigsh` to machine precision (tol=0) from a fixed seeded start vector.

    The caller guarantees symmetry: ARPACK reads the matrix only through
    matrix-vector products and assumes sym = sym.T. The seeded Gaussian
    start vector makes results repeat exactly. Eigenvalues come back in
    ascending order.
    """
    v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(sym.shape[0])
    try:
        return eigsh(
            sym, k=k, which=which, tol=0, v0=v0, return_eigenvectors=return_eigenvectors
        )
    except (ArpackNoConvergence, ArpackError) as exc:
        raise NumericalFailureError(f"Lanczos iteration failed: {exc}") from exc


def factor_gram(f) -> np.ndarray:
    """F F^T for an (n, r) factor. numpy forms `A @ A.T` of a factor whose
    rows or columns are unit-stride with one symmetric BLAS update and copies
    its triangle across, so the result is exactly symmetric, as the Lanczos
    iteration needs; the factors here are fresh C-ordered arrays."""
    arr = as_matrix(f, "gram factor")
    return arr @ arr.T


def spectral_norm(a) -> float:
    """Largest singular value of a dense matrix, from LAPACK's full SVD."""
    return float(np.linalg.norm(as_matrix(a, "spectral_norm input"), 2))


def sym_spectral_norm(a) -> float:
    """Largest |eigenvalue| of a symmetric matrix, by Lanczos iteration.

    The caller guarantees symmetry (see `_lanczos`). The iteration runs to
    machine precision, so the result does not read low the way a stopped
    power iteration can. A zero matrix returns 0.0; n = 1, which ARPACK
    refuses, takes the dense eigensolver.
    """
    arr = as_matrix(a, "sym_spectral_norm input")
    if float(np.linalg.norm(arr)) == 0.0:
        return 0.0
    if arr.shape[0] < 2:
        return float(np.max(np.abs(np.linalg.eigvalsh(arr))))
    w = _lanczos(arr, 1, "LM", return_eigenvectors=False)
    return abs(float(w[0]))
