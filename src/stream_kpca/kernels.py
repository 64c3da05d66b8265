"""Shift-invariant kernels and exact gram-matrix construction.

The gram matrix here is the evaluation oracle the approximate methods are
measured against. The Gaussian kernel is normalized so K(x, x) = 1, which
keeps trace(G) = n; every spectral bound in this package relies on that
normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import ConfigurationError, ContractViolationError
from .numerics import as_matrix, as_vector

KERNEL_FAMILIES = ("gaussian",)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth; K(x, y) = exp(-||x-y||^2 / (2 sigma^2))."""

    family: str = "gaussian"
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in KERNEL_FAMILIES:
            raise ConfigurationError(
                f"unknown kernel family {self.family!r}; supported: {KERNEL_FAMILIES}"
            )
        if not (0 < self.sigma < math.inf):  # also refuses nan
            raise ConfigurationError(f"kernel bandwidth must be finite and > 0, got {self.sigma}")


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Evaluate K(x, y) for a single pair of points."""
    xv = as_vector(x, "x")
    yv = as_vector(y, "y")
    if xv.size != yv.size:
        raise ContractViolationError(
            f"dimension mismatch: x has {xv.size} entries, y has {yv.size}"
        )
    diff = xv - yv
    return float(np.exp(-float(diff @ diff) / (2.0 * spec.sigma**2)))


def gram(spec: KernelSpec, a) -> np.ndarray:
    """Exact n x n gram matrix of the rows of `a`.

    Each off-diagonal pair is evaluated once and mirrored, so the result is
    exactly symmetric; the diagonal is exactly 1.
    """
    arr = as_matrix(a, "data matrix")
    sq = pdist(arr, "sqeuclidean")
    g = squareform(np.exp(-sq / (2.0 * spec.sigma**2)))
    np.fill_diagonal(g, 1.0)
    return g


def cross_gram(spec: KernelSpec, a, b) -> np.ndarray:
    """Kernel evaluations between the rows of `a` and the rows of `b`."""
    am = as_matrix(a, "left matrix")
    bm = as_matrix(b, "right matrix")
    if am.shape[1] != bm.shape[1]:
        raise ContractViolationError(
            f"dimension mismatch: {am.shape[1]} vs {bm.shape[1]} columns"
        )
    sq = cdist(am, bm, "sqeuclidean")
    return np.exp(-sq / (2.0 * spec.sigma**2))
