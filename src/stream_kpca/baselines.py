"""Streaming baselines: RNCA and reservoir-sampled Nystrom.

Both read the stream one checked point at a time through
`dataio.row_blocks`, the ingest path SKPCA also uses.

RNCA performs exact linear PCA on the random-feature lift of the stream by
accumulating the m x m covariance with one in-place symmetric rank-one
update per point (BLAS `dsyr`, on one triangle, mirrored once at the end),
then eigendecomposing once at the end of training. Test projection and the
gram factor are `rff.FeatureMapModel`'s, on the covariance eigenvectors.

The Nystrom baseline keeps c independent single-slot reservoir samplers
(slot i replaces its content at stream step t with probability 1/t, so
every slot holds a uniform sample of the stream, with-replacement across
slots). Reconstruction is C @ pinv(W_k) @ C.T from the kernel matrix W of
the sampled points, formed through the model's (n, k) gram factor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

import numpy as np
from scipy.linalg.blas import dsyr

from .dataio import row_blocks
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
        rows = iter(rows)
        first = next(rows, None)
        if first is None:
            raise ContractViolationError("training stream is empty")
        fm = sample_feature_map(kernel, m, np.size(first), seed)
        return rnca_train(fm, itertools.chain([first], rows))

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

    Each point is one in-place `dsyr` update of one triangle; the triangle
    is mirrored once at the end, so `cov` is C-contiguous and exactly
    symmetric.
    """
    m = fm.m
    cov = np.zeros((m, m))
    acc = cov.T  # F-contiguous view of cov; dsyr updates its upper triangle in place
    n_seen = 0
    for block in row_blocks(stream, 1):  # one rank-one update per point
        if block.shape[1] != fm.d:  # only point 0 can differ: row_blocks holds the rest to it
            raise ContractViolationError(
                f"stream point {n_seen} has dimension {block.shape[1]}, expected {fm.d}"
            )
        # rebound, so the sum stays right even if the wrapper ever copies
        acc = dsyr(1.0, fm.apply(block[0]), a=acc, lower=0, overwrite_a=1)
        n_seen += 1
    cov = acc.T  # C-contiguous again; the sums sit in its lower triangle
    for j in range(1, m):  # mirror it, one column at a time
        cov[:j, j] = cov[j, :j]
    eigvals, eigvecs = sym_eig(cov)
    # peak logical entries: the frequencies and cov (the space formula), the
    # phases, one lifted row, then the eigendecomposition; the lift's phase
    # transient (m) is gone before the eigendecomposition, which is larger
    peak = rnca_space_entries(m, fm.d) + m + m + (m * m + m)
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

    @property
    def w(self) -> np.ndarray:
        """Kernel matrix of the samples, recomputed on demand."""
        return gram(self.kernel, self.samples)

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
