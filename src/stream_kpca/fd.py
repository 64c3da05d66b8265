"""Modified Frequent Directions sketch over streamed rows.

The sketch keeps an ell x m matrix B. Incoming rows fill zero rows; once
all ell rows are occupied the sketch shrinks. In SVD terms the shrink is

    [Y, Sigma, W] = svd(B)
    B <- sqrt(max{0, Sigma^2 - sigma_{ell/2}^2 I}) @ W.T

where sigma_{ell/2} is the (ell/2)-th largest singular value. Subtracting
that value zeroes at least half the rows, so the stream always has room,
and guarantees for every unit direction x

    0 <= ||A x||^2 - ||B x||^2 <= ||A - A_k||^2_F / (ell/2 - k)

with A the stacked input rows. Memory never exceeds the ell x m buffer.

The shrink is computed through the ell x ell Gram matrix instead of the
ell x m SVD (the fast variant of Ghashami, Liberty, Phillips & Woodruff
2016, "Frequent Directions: Simple and Deterministic Matrix Sketching"):

    B B^T = U diag(lambda) U^T,   lambda descending,
    delta = max(lambda_{ell/2}, 0),
    B <- C U^T B,   C = diag(sqrt(max(lambda - delta, 0) / lambda)).

With lambda = Sigma^2 and U = Y, U^T B = Sigma W^T, so in exact arithmetic
this is the SVD formula row for row. In floating point the shrink still
never adds mass in any direction, whatever the accuracy of U: as long as
U is orthonormal,

    B^T B - B'^T B' = B^T U (I - C^2) U^T B,

and 0 <= C <= I makes the right side positive semidefinite.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dsyevd

from .errors import ConfigurationError, ContractViolationError, NumericalFailureError
from .numerics import thin_svd


class FdSketch:
    """Single-writer streaming sketch; reads are safe once writing stops.

    `filled` is an occupancy counter, not a numerical scan: a genuinely
    zero input row still consumes a slot, matching the algorithm's
    structural zero-row bookkeeping.
    """

    def __init__(self, ell: int, m: int):
        if ell % 2 != 0:
            raise ConfigurationError(f"sketch size ell must be even, got {ell}")
        if not 2 <= ell <= m:
            raise ConfigurationError(
                f"sketch size ell must satisfy 2 <= ell <= m, got ell={ell}, m={m}"
            )
        self.ell = ell
        self.m = m
        self.b = np.zeros((ell, m))
        self.filled = 0
        self.inserted = 0
        self.shrinks = 0

    def insert(self, z) -> None:
        """Check one row, or each row of a 2-D block, then `insert_rows` it."""
        rows = np.asarray(z, dtype=np.float64)
        if rows.ndim != 2:
            rows = rows.reshape(1, -1)
        if rows.shape[1] != self.m:
            raise ContractViolationError(
                f"row has length {rows.shape[1]}, sketch expects {self.m}"
            )
        if not np.all(np.isfinite(rows)):
            raise ContractViolationError("row contains non-finite entries")
        self.insert_rows(rows)

    def insert_rows(self, rows: np.ndarray) -> None:
        """Write an (n, m) block of finite float64 rows into zero slots,
        unchecked. The sketch shrinks every time its buffer fills, so any split
        of a stream into blocks gives the same sketch as one row at a time."""
        start = 0
        while start < rows.shape[0]:
            take = min(self.ell - self.filled, rows.shape[0] - start)
            self.b[self.filled : self.filled + take] = rows[start : start + take]
            self.filled += take
            self.inserted += take
            start += take
            if self.filled == self.ell:
                self._shrink()

    def _shrink(self) -> None:
        gram = self.b @ self.b.T
        # the trace, a sum of squares, is finite iff every row is and none overflows
        if not math.isfinite(gram.trace()):
            raise NumericalFailureError("sketch rows hold non-finite or overflowing entries")
        # the LAPACK routine np.linalg.eigh calls, without the wrapper's cost
        lam, u, info = dsyevd(gram, lower=1)
        if info:
            raise NumericalFailureError(f"sketch eigendecomposition did not converge: {info=}")
        lam = lam.tolist()[::-1]  # descending, as ell plain floats, cheaper than arrays here
        delta = max(lam[self.ell // 2 - 1], 0.0)
        scale = [math.sqrt((v - delta) / v) for v in lam if v > delta]  # a prefix, as lam descends
        kept = len(scale)
        self.b[:kept] = (u[:, ::-1][:, :kept] * scale).T @ self.b
        self.b[kept:] = 0.0
        self.filled = kept
        self.shrinks += 1

    def basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Fresh thin SVD of the current sketch.

        Returns (W, S): W is m x ell with orthonormal columns (LAPACK pads
        null directions deterministically when rank < ell), S the ell
        singular values. Never mutates B, so rows inserted since the last
        shrink are always reflected.
        """
        if self.inserted == 0:
            raise ContractViolationError("sketch is empty: insert at least one row first")
        _, s, v = thin_svd(self.b)
        # contiguous copy so persisted-and-reloaded bases take the same BLAS
        # paths as freshly trained ones
        return np.ascontiguousarray(v), s
