"""Random Fourier feature maps.

A feature map is m frozen random cosine functions
    z(x)_i = sqrt(2/m) * cos(r_i . x + gamma_i)
whose inner products are unbiased estimates of the kernel value. For the
Gaussian kernel with bandwidth sigma the frequencies r_i are i.i.d.
N(0, (1/sigma^2) I).

RNG stream discipline (fixed so maps regenerate identically from their
seed): one PCG64 generator seeded with `seed`, frequencies drawn first in
row-major order, phases second.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError
from .kernels import KernelSpec
from .numerics import as_matrix, as_vector, check_rank, factor_gram

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FeatureMap:
    """Frozen random feature functions; immutable and thread-safe after construction."""

    r: np.ndarray  # (m, d) frequency matrix, row i is r_i
    gamma: np.ndarray  # (m,) phases, each in (0, 2*pi]
    m: int
    d: int
    sigma: float
    seed: int
    scale: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", math.sqrt(2.0 / self.m))

    def apply(self, x) -> np.ndarray:
        """Lift a single d-vector to the m-dimensional feature space."""
        xv = as_vector(x, "point")
        if xv.size != self.d:
            raise ContractViolationError(
                f"point has dimension {xv.size}, feature map expects {self.d}"
            )
        return self.scale * np.cos(self.r @ xv + self.gamma)

    def apply_batch(self, a) -> np.ndarray:
        """Lift each row of an (n, d) matrix; returns (n, m).

        Validates the block once and works in place on its own product, so
        the (n, m) result is the only array it allocates.
        """
        arr = as_matrix(a, "data matrix")
        if arr.shape[1] != self.d:
            raise ContractViolationError(
                f"data has {arr.shape[1]} columns, feature map expects {self.d}"
            )
        out = arr @ self.r.T
        out += self.gamma
        np.cos(out, out=out)
        out *= self.scale
        return out

    def project_batch(self, a, basis: np.ndarray, chunk: int = 256) -> np.ndarray:
        """Lift each row of an (n, d) matrix and project it onto the columns of
        an (m, r) basis; returns Z @ basis, shape (n, r).

        Lifts `chunk` rows at a time, so the n x m lift never exists whole.
        """
        arr = as_matrix(a, "data matrix")
        n = arr.shape[0]
        out = np.empty((n, basis.shape[1]))
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            out[start:stop] = self.apply_batch(arr[start:stop]) @ basis
        return out

    def checksum(self) -> str:
        """SHA-256 of the frequency and phase bytes."""
        return hashlib.sha256(self.r.tobytes() + self.gamma.tobytes()).hexdigest()


class FeatureMapModel:
    """The models built on a feature map `fm` (SKPCA and RNCA): a point's lift
    projected onto the leading columns of an (m, r) orthonormal `basis` (the
    sketch basis W for SKPCA, the covariance eigenvectors V for RNCA). The
    model protocol is described in `stream_kpca.methods`."""

    seed_stream = "feature_map"  # the named sub-stream of the CLI seed that seeds `fm`

    @property
    def kernel(self) -> KernelSpec:
        return KernelSpec(sigma=self.fm.sigma)

    @property
    def seed(self) -> int:
        return self.fm.seed

    @property
    def d(self) -> int:
        return self.fm.d

    @property
    def ranks(self) -> range:
        return range(1, self.basis.shape[1] + 1)

    def answer(self, x, k: int) -> tuple[np.ndarray, float]:
        _, loading, residual = self.project_test(x, k)
        return loading, residual

    def project_test(self, x, k: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Lift a point and project it onto the first k basis directions.

        Returns (lifted, loading, residual): the m-dimensional lift, its k
        loading coordinates, and the norm of the part of the lift outside
        the k-dimensional subspace. Costs O(dm + mk).
        """
        check_rank(k, self.basis.shape[1])
        lifted = self.fm.apply(x)
        bk = self.basis[:, :k]
        loading = bk.T @ lifted
        residual = float(np.linalg.norm(lifted - bk @ loading))
        return lifted, loading, residual

    def gram_factor(self, a, k: int | None = None, chunk: int = 256) -> np.ndarray:
        """The (n, k) factor Z B_k of the rank-k reconstructed gram, B the
        basis; k defaults to the basis width (ZW for SKPCA, Z V with
        (ZV)(ZV)^T = Z Z^T for RNCA).

        Lifts `chunk` rows at a time, so the n x m lift never exists whole.
        """
        if k is not None:
            check_rank(k, self.basis.shape[1])
        return self.fm.project_batch(a, self.basis[:, :k], chunk)

    def reconstruct(self, a, k: int | None = None, chunk: int = 256) -> np.ndarray:
        """Evaluation-only gram reconstruction Z B_k B_k^T Z^T."""
        return factor_gram(self.gram_factor(a, k, chunk))


def stored_feature_map(spec: KernelSpec, record: dict) -> FeatureMap:
    """Redraw a model record's feature map; raise unless it matches the stored checksum.

    NumPy does not promise that its random streams stay the same across
    versions, so a redrawn map may differ from the one the model was trained with.
    """
    fm = sample_feature_map(spec, record["m"], record["d"], record["seed"])
    if fm.checksum() != record["rff_sha256"]:
        raise ContractViolationError(
            "the feature map drawn from the stored seed does not match the stored "
            "checksum: the record was edited or numpy's random stream has changed"
        )
    return fm


def sample_feature_map(spec: KernelSpec, m: int, d: int, seed: int) -> FeatureMap:
    """Draw a fresh feature map for the given kernel.

    Same (seed, m, d, sigma) always produces a bit-identical map.
    """
    if m < 1:
        raise ContractViolationError(f"feature count m must be >= 1, got {m}")
    if d < 1:
        raise ContractViolationError(f"dimension d must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((m, d)) / spec.sigma
    # 1 - U maps [0, 1) draws onto (0, 1], keeping every phase in (0, 2*pi]
    gamma = TWO_PI * (1.0 - rng.random(m))
    return FeatureMap(r=r, gamma=gamma, m=m, d=d, sigma=spec.sigma, seed=int(seed))
