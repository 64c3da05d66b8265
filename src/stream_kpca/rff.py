"""Random Fourier feature maps.

A feature map is m frozen random cosine functions
    z(x)_i = sqrt(2/m) * cos(r_i . x + gamma_i)
whose inner products are unbiased estimates of the kernel value. For the
Gaussian kernel with bandwidth sigma the frequencies r_i are i.i.d.
N(0, (1/sigma^2) I).

Precision: the phase r_i . x + gamma_i is formed and reduced to [-pi, pi]
in f64, and its cosine is taken in f32. Rounding the reduced phase to f32
moves it by at most pi * 2^-24 ~ 1.9e-7, the f32 cosine adds at most ~1.5
ulp (~0.9e-7), and the f64 reduction adds ~|phase| * 2^-52, so for any
phase below ~1e6 (that is, any ||x|| ||r_i|| below it) each coordinate obeys

    |z~(x)_i - z(x)_i| <= 3e-7 * sqrt(2/m).

Per row ||z~ - z|| <= 3e-7 * sqrt(2) and ||z||, ||z~|| <= sqrt(2), so over
n rows ||Z~ - Z||_2 <= 3e-7 * sqrt(2n) and ||Z||_2, ||Z~||_2 <= sqrt(2n),
and ||Z~ Z~^T - Z Z^T||_2 / n <= ||Z~ - Z||_2 (||Z~||_2 + ||Z||_2) / n
<= 4 * 3e-7 = 1.2e-6, which adds to the eps of the feature-count bound.

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
LIFT_CHUNK = 256  # rows `ProjectionModel.gram_factor` lifts at a time


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
        return self.lift_rows(xv[None, :])[0]

    def apply_batch(self, a) -> np.ndarray:
        """Lift each row of an (n, d) matrix; returns (n, m)."""
        arr = as_matrix(a, "data matrix")
        if arr.shape[1] != self.d:
            raise ContractViolationError(
                f"data has {arr.shape[1]} columns, feature map expects {self.d}"
            )
        return self.lift_rows(arr)

    def lift_rows(self, arr: np.ndarray) -> np.ndarray:
        """Lift finite (n, d) float64 rows in place on their phase product,
        unchecked: the trainers pass the checked blocks of `dataio.row_blocks`.

        The phase is reduced to [-pi, pi] in f64, which allocates the one
        transient of the lift's size (the caller counts it), and its cosine
        is taken in f32 through numpy's fixed-size cast buffers; the module
        docstring bounds the error.
        """
        out = arr @ self.r.T
        out += self.gamma
        turns = out / TWO_PI
        np.rint(turns, out=turns)
        turns *= TWO_PI
        out -= turns
        np.cos(out, out=out, dtype=np.float32)
        out *= self.scale
        return out

    def checksum(self) -> str:
        """SHA-256 of the frequency and phase bytes."""
        return hashlib.sha256(self.r.tobytes() + self.gamma.tobytes()).hexdigest()


class ProjectionModel:
    """The projection all three models share (the model protocol is in
    `stream_kpca.methods`): a point's lift projected onto the first k
    columns of an orthonormal `basis`, scaled by `loading_scale` unless that
    is None. A subclass supplies `lift(x)`, `lift_batch(a)`, `basis`,
    `ranks` and `loading_scale`."""

    loading_scale: np.ndarray | None = None

    def answer(self, x, k: int) -> tuple[np.ndarray, float]:
        _, loading, residual = self.project_test(x, k)
        return loading, residual

    def project_test(self, x, k: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Lift a point and project it onto the first k basis directions.

        Returns (lifted, loading, residual): the lift, its k loading
        coordinates, and the norm of the part of the lift outside the
        k-dimensional subspace. Costs one lift plus O(mk) for an m-entry lift.
        """
        check_rank(k, self.basis.shape[1])
        lifted = self.lift(x)
        p = self._coords(lifted, k)
        return lifted, self._loading(p), self._residual(lifted, p)

    def _coords(self, lifted: np.ndarray, k: int) -> np.ndarray:
        """p = B_k^T lift, the lift's coordinates on the first k basis directions."""
        return self.basis[:, :k].T @ lifted

    def _loading(self, p: np.ndarray) -> np.ndarray:
        scale = self.loading_scale
        return p if scale is None else scale[: p.size] * p

    def _residual(self, lifted: np.ndarray, p: np.ndarray) -> float:
        return float(np.linalg.norm(lifted - self.basis[:, : p.size] @ p))

    def gram_factor(self, a, k: int | None = None) -> np.ndarray:
        """The (n, k) factor F of the rank-k reconstructed gram F F^T, one
        loading per row of `a`; k defaults to `ranks[-1]`. Lifts `LIFT_CHUNK`
        rows at a time, so the whole lift of `a` never exists at once."""
        k = self.ranks[-1] if k is None else k
        check_rank(k, self.basis.shape[1])
        basis = self.basis[:, :k]
        if self.loading_scale is not None:
            basis = basis * self.loading_scale[:k]
        arr = as_matrix(a, "data matrix")
        out = np.empty((arr.shape[0], k))
        for start in range(0, arr.shape[0], LIFT_CHUNK):
            stop = start + LIFT_CHUNK
            out[start:stop] = self.lift_batch(arr[start:stop]) @ basis
        return out

    def reconstruct(self, a, k: int | None = None) -> np.ndarray:
        """Evaluation-only gram reconstruction F F^T from `gram_factor`."""
        return factor_gram(self.gram_factor(a, k))


class FeatureMapModel(ProjectionModel):
    """The models built on a feature map `fm` (SKPCA and RNCA): the lift is
    z(x), the basis is an (m, r) orthonormal one (the sketch basis W for
    SKPCA, the covariance eigenvectors V for RNCA), and the loading is
    unscaled, so the gram factor is Z B_k."""

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

    def lift(self, x) -> np.ndarray:
        return self.fm.apply(x)

    def lift_batch(self, a) -> np.ndarray:
        return self.fm.apply_batch(a)


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
