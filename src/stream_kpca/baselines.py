"""Streaming baselines: RNCA and reservoir-sampled Nystrom.

Both read the stream through `dataio.row_blocks`, the ingest path SKPCA
also uses: RNCA in blocks of `RNCA_BLOCK_ROWS` rows, the reservoir one
checked point at a time.

RNCA performs exact linear PCA on the random-feature lift of the stream by
lifting each block Z and adding Z^T Z to the m x m covariance, then
eigendecomposing once at the end of training. Test projection and the gram
factor are `rff.FeatureMapModel`'s, on the covariance eigenvectors.

The Nystrom baseline keeps c independent single-slot reservoir samplers
(slot i replaces its content at stream step t with probability 1/t, so
every slot holds a uniform sample of the stream, with-replacement across
slots). Reconstruction is C @ pinv(W_k) @ C.T from the kernel matrix W of
the sampled points, formed through the model's (n, k) gram factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

import numpy as np

from .dataio import first_point, row_blocks
from .errors import ConfigurationError, ContractViolationError
from .kernels import KernelSpec, cross_gram, gram
from .numerics import (
    MACHINE_EPS,
    as_matrix,
    as_vector,
    check_rank,
    check_shape,
    sym_eig,
)
from .rff import (
    FeatureMap,
    FeatureMapModel,
    ProjectionModel,
    sample_feature_map,
    stored_feature_map,
)
from .skpca import derive_feature_count, eps_delta_given, log_term, settle_size

RNCA_BLOCK_ROWS = 64  # rows RNCA lifts and adds to its covariance at a time (at most m)


@dataclass(frozen=True)
class RncaModel(FeatureMapModel):
    """Feature-space covariance plus its eigendecomposition; immutable after training."""

    fm: FeatureMap
    cov: np.ndarray  # (m, m) sum of outer products z_i z_i^T
    n_seen: int
    eigvals: np.ndarray  # (m,) non-increasing
    eigvecs: np.ndarray  # (m, m) orthonormal columns
    peak_entries: int

    method = "rnca"
    sizes = ("m",)

    @staticmethod
    def resolve(sizes: dict, eps=None, delta=None, n=None) -> dict:
        """Final m >= 1, given or derived from (eps, delta) at stream length n."""
        derived = derive_feature_count(eps, delta, n) if eps_delta_given(eps, delta) else None
        return {"m": settle_size("m", sizes["m"], derived)}

    @staticmethod
    def fit(kernel: KernelSpec, seed: int, rows: Iterable, m: int) -> "RncaModel":
        """Train on a row stream; the feature map takes d from the first row."""
        first, rows = first_point(rows)
        return rnca_train(sample_feature_map(kernel, m, first.size, seed), rows)

    @classmethod
    def from_record(cls, kernel: KernelSpec, record: dict) -> "RncaModel":
        fm = stored_feature_map(kernel, record)
        cov = check_shape(record["cov"], (fm.m, fm.m), "cov")
        return cls(fm, cov, record["n_seen"], *sym_eig(cov), record["peak_entries"])

    def record_fields(self) -> dict:
        return {"m": self.m, "rff_sha256": self.fm.checksum(), "cov": self.cov}

    @property
    def m(self) -> int:
        return self.fm.m

    @property
    def basis(self) -> np.ndarray:
        return self.eigvecs

    @property
    def space(self) -> int:
        return rnca_space_entries(self.m, self.d)

    def test(self, x, k: int) -> tuple[np.ndarray, np.ndarray, float]:
        return self.project_test(x, k)  # RNCA's name for it, which perfbench calls and traces


def rnca_train(fm: FeatureMap, stream: Iterable) -> RncaModel:
    """Accumulate Cov = sum_i z_i z_i^T in one pass; eigendecompose once at the end.

    Each block of b = min(RNCA_BLOCK_ROWS, m) rows is lifted to Z and Z^T Z
    is added to `cov`. numpy forms Z^T Z of a fresh contiguous Z with one
    symmetric BLAS call and copies its triangle across, so `cov` is
    C-contiguous and exactly symmetric.
    """
    m = fm.m
    b = min(RNCA_BLOCK_ROWS, m)
    cov = np.zeros((m, m))
    n_seen = 0
    for block in row_blocks(stream, b, fm.d):
        z = fm.lift_rows(block)  # row_blocks has checked the block
        cov += z.T @ z
        n_seen += block.shape[0]
        del z  # each lift goes before the next one is made
    del block  # as does the last block, before the eigendecomposition
    eigvals, eigvecs = sym_eig(cov)
    # peak logical entries: the frequencies and cov (the space formula), the
    # phases, then the block step: its m x m product, one input block and its
    # lift. The lift step, b*d + 2*b*m with its phase transient, is no larger
    # (b <= m); the eigendecomposition (m*m + m) runs once the block is gone.
    peak = rnca_space_entries(m, fm.d) + m + m * m + b * (fm.d + m)
    return RncaModel(
        fm=fm,
        cov=cov,
        n_seen=n_seen,
        eigvals=eigvals,
        eigvecs=eigvecs,
        peak_entries=peak,
    )


@dataclass(frozen=True)
class NystromModel(ProjectionModel):
    """Reservoir-sampled Nystrom approximation; immutable after training.

    Stores the sampled points and the eigendecomposition of their kernel
    matrix W (W itself is recomputable from the samples on demand, keeping
    peak memory at the c^2 + cd budget). Its projection lifts a point to
    its kernel row against the samples; the rank k is fixed at train time.
    """

    kernel: KernelSpec
    samples: np.ndarray  # (c, d)
    k: int
    eigvals: np.ndarray  # (c,) non-increasing
    eigvecs: np.ndarray  # (c, c)
    seed: int | None = None
    n_seen: int = 0
    replacements: int = 0
    peak_entries: int = 0

    method = "nystrom"
    sizes = ("c", "k")
    seed_stream = "reservoir"

    @staticmethod
    def resolve(sizes: dict, eps=None, delta=None, n=None) -> dict:
        """Final c >= 1, given or derived from (eps, delta) at length n; k in [1, c], or c."""
        derived = derive_sample_count(eps, delta, n) if eps_delta_given(eps, delta) else None
        c = settle_size("c", sizes["c"], derived)
        k = settle_size("k", c if sizes["k"] is None else sizes["k"], None)
        if k > c:
            raise ConfigurationError(f"k must be in [1, c], got k={k}, c={c}")
        return {"c": c, "k": k}

    @staticmethod
    def fit(kernel: KernelSpec, seed: int, rows: Iterable, c: int, k: int) -> "NystromModel":
        """Stream through c independent reservoir samplers, then build the model."""
        if c >= 1:  # k is checked before any row is read; reservoir_sample refuses c < 1
            check_rank(k, c)
        samples, n_seen, slot_replacements = reservoir_sample(c, seed, rows)
        return NystromModel.from_samples(
            kernel,
            samples,
            k,
            seed=seed,
            n_seen=n_seen,
            replacements=int(slot_replacements.sum()),
        )

    @classmethod
    def from_record(cls, kernel: KernelSpec, record: dict) -> "NystromModel":
        samples = check_shape(record["samples"], (record["c"], record["d"]), "samples")
        counts = {name: record[name] for name in ("seed", "n_seen", "replacements")}
        model = cls.from_samples(kernel, samples, record["k"], **counts)
        return replace(model, peak_entries=record["peak_entries"])

    def record_fields(self) -> dict:
        fields = {"c": self.c, "k": self.k, "replacements": self.replacements}
        return {**fields, "samples": self.samples}

    @property
    def c(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]

    @property
    def ranks(self) -> range:
        return range(self.k, self.k + 1)

    @property
    def space(self) -> int:
        return nystrom_space_entries(self.c, self.d)

    @classmethod
    def from_samples(
        cls,
        kernel: KernelSpec,
        samples,
        k: int,
        *,
        seed: int | None = None,
        n_seen: int = 0,
        replacements: int = 0,
    ) -> "NystromModel":
        """Build the model for a fixed set of sampled points."""
        pts = as_matrix(samples, "samples")
        c = pts.shape[0]
        check_rank(k, c)
        eigvals, eigvecs = sym_eig(gram(kernel, pts))
        return cls(
            kernel=kernel,
            samples=pts,
            k=k,
            eigvals=eigvals,
            eigvecs=eigvecs,
            seed=seed,
            n_seen=n_seen,
            replacements=replacements,
            # peak logical entries: the samples and W (the space formula), then
            # W's eigendecomposition
            peak_entries=nystrom_space_entries(c, pts.shape[1]) + (c * c + c),
        )

    def answer(self, x, k: int) -> tuple[np.ndarray, float]:
        if k != self.k:
            raise ConfigurationError(f"nystrom rank is fixed at train time (k={self.k})")
        return super().answer(x, k)

    def test(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Kernel row against the samples and rank-k loading, no residual; O(cd + ck)."""
        c_row = self.lift(x)
        return c_row, self._loading(self._coords(c_row, self.k))

    def residual(self, c_row: np.ndarray) -> float:
        """Norm of the kernel row outside the rank-k eigenspace of W."""
        return self._residual(c_row, self._coords(c_row, self.k))

    @property
    def basis(self) -> np.ndarray:
        return self.eigvecs

    @cached_property
    def loading_scale(self) -> np.ndarray:
        """sqrt(inv): loadings sqrt(inv) * (V_k^T c_row) have inner products C pinv(W_k) C^T."""
        return np.sqrt(_truncated_inverse(self.eigvals))

    def lift(self, x) -> np.ndarray:
        """The kernel row of one checked point against the samples."""
        xv = as_vector(x, "point")
        if xv.size != self.d:
            raise ContractViolationError(
                f"point has dimension {xv.size}, samples have {self.d}"
            )
        return self.lift_batch(xv[None, :])[0]

    def lift_batch(self, a) -> np.ndarray:
        """The kernel rows C of the rows of `a` against the samples."""
        return cross_gram(self.kernel, a, self.samples)


def _truncated_inverse(eigvals: np.ndarray) -> np.ndarray:
    """1/lambda_i for the eigenvalues of a c x c kernel matrix.

    Eigenvalues at or below the relative cutoff c * machine epsilon *
    lambda_1 invert to zero, the rank-revealing cutoff of a pseudoinverse.
    """
    cutoff = eigvals.size * MACHINE_EPS * max(eigvals[0], 0.0)
    return np.where(eigvals > cutoff, 1.0 / np.where(eigvals > cutoff, eigvals, 1.0), 0.0)


def reservoir_sample(c: int, seed: int, stream: Iterable) -> tuple[np.ndarray, int, np.ndarray]:
    """Run c independent single-slot reservoir samplers over a stream.

    Slot i replaces its content at step t with probability 1/t, so each
    slot ends up holding a uniform sample of the stream; slots draw
    independently, giving with-replacement semantics across slots.
    Returns (samples, n_seen, per-slot replacement counts).
    """
    if c < 1:
        raise ContractViolationError(f"sample count c must be >= 1, got {c}")
    rng = np.random.default_rng(seed)
    slot_replacements = np.zeros(c, dtype=np.int64)
    t = 0
    for block in row_blocks(stream, 1):
        t += 1
        if t == 1:
            samples = np.repeat(block, c, axis=0)
        else:
            replace = rng.random(c) < (1.0 / t)
            if replace.any():
                samples[replace] = block[0]
                slot_replacements[replace] += 1
    return samples, t, slot_replacements


def derive_sample_count(eps: float, delta: float, n: int) -> int:
    """Nystrom sample count c = ceil(ln(2n / delta) / eps^2)."""
    return math.ceil(log_term(eps, delta, n) / eps**2)


def rnca_space_entries(m: int, d: int) -> int:
    """RNCA space formula m^2 + m*d in logical entries."""
    return m * m + m * d


def nystrom_space_entries(c: int, d: int) -> int:
    """Nystrom space formula c^2 + c*d in logical entries."""
    return c * c + c * d
