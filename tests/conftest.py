"""Shared test helpers."""

from __future__ import annotations

import errno

import numpy as np
import pytest

from stream_kpca import ContractViolationError, dataio, sym_eig
from stream_kpca.numerics import as_vector


def gaussian_mixture(
    n: int,
    d: int,
    n_clusters: int = 5,
    center_scale: float = 3.0,
    noise: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Points drawn from a random mixture of spherical Gaussians."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, center_scale, (n_clusters, d))
    idx = rng.integers(0, n_clusters, n)
    return centers[idx] + rng.normal(0.0, noise, (n, d))


def eval_kernel(spec, x, y) -> float:
    """The pointwise reference K(x, y) = exp(-||x - y||^2 / (2 sigma^2)) for one pair."""
    xv = as_vector(x, "x")
    yv = as_vector(y, "y")
    if xv.size != yv.size:
        raise ContractViolationError(
            f"dimension mismatch: x has {xv.size} entries, y has {yv.size}"
        )
    diff = xv - yv
    return float(np.exp(-float(diff @ diff) / (2.0 * spec.sigma**2)))


def exact_phi(g: np.ndarray) -> np.ndarray:
    """Explicit factor Phi with Phi @ Phi.T = G, from the eigendecomposition.

    Negative round-off eigenvalues clamp to zero.
    """
    w, v = sym_eig(g)
    return v * np.sqrt(np.maximum(w, 0.0))


def dense_wk_pinv(w: np.ndarray, k: int) -> np.ndarray:
    """pinv(W_k) for a c x c kernel matrix W, by numpy's own routes.

    W_k keeps the k leading eigenpairs of `np.linalg.eigh(W)`; the hermitian
    pinv then drops eigenvalues at or below c * machine epsilon * lambda_1,
    the cutoff the Nystrom model uses.
    """
    lam, v = np.linalg.eigh(w)
    vk = v[:, ::-1][:, :k]
    wk = (vk * lam[::-1][:k]) @ vk.T
    return np.linalg.pinv(wk, rcond=w.shape[0] * np.finfo(np.float64).eps, hermitian=True)


def reference_csv(rows, header: bool = False) -> str:
    """CSV text formatted one value at a time, the way `dataio` once wrote it."""
    lines = [",".join(f"c{j}" for j in range(len(rows[0])))] if header else []
    lines += [",".join(format(v, ".17g") for v in row) for row in rows]
    return "".join(line + "\n" for line in lines)


@pytest.fixture
def second_chunk_fails(monkeypatch):
    """`dataio.format_rows` raises a disk-full OSError on its second call."""
    real = dataio.format_rows
    calls = []

    def format_rows(a):
        calls.append(len(a))
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(a)

    monkeypatch.setattr(dataio, "format_rows", format_rows)
    return calls
