"""Streaming kernel PCA: lift each point with a random Fourier feature map
and feed it to a Frequent Directions sketch, in one pass and bounded memory.

Training gathers the stream into blocks of ell rows, lifts and inserts each
block at once, and keeps only the feature functions (d*m entries), the
sketch (ell*m entries) and one block (ell*d input and ell*m lifted
entries). The returned model holds the ell-dimensional basis W of the
sketch's row space, which spans an approximate kernel eigenspace:
reconstructing G~ = (ZW)(ZW)^T stays within eps*n of the exact gram matrix
in spectral norm at the derived (m, ell).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .counters import EntryCounter
from .errors import ConfigurationError, ContractViolationError
from .fd import FdSketch
from .kernels import KernelSpec
from .numerics import as_vector, factor_gram
from .rff import FeatureMap, FeatureMapModel, sample_feature_map, stored_feature_map


def derive_feature_count(eps: float, delta: float, n: int) -> int:
    """Feature count m = ceil(((9 + 8*eps) / eps^2) * ln(2n / delta))."""
    check_eps_delta(eps, delta)
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    return math.ceil((9.0 + 8.0 * eps) / eps**2 * math.log(2.0 * n / delta))


def derive_sketch_size(eps: float) -> int:
    """Sketch size ell = ceil(4 / eps), rounded up to even."""
    if not 0 < eps < 1:
        raise ConfigurationError(f"eps must be in (0, 1), got {eps}")
    ell = math.ceil(4.0 / eps)
    return ell if ell % 2 == 0 else ell + 1


def check_eps_delta(eps: float, delta: float) -> None:
    if not 0 < eps < 1:
        raise ConfigurationError(f"eps must be in (0, 1), got {eps}")
    if not 0 < delta < 1:
        raise ConfigurationError(f"delta must be in (0, 1), got {delta}")


def settle_size(name: str, given: int | None, derived: int | None) -> int:
    """The derived size when there is one (a given one must equal it), else the given one."""
    if given is None and derived is None:
        raise ConfigurationError(f"{name} must be given, or derived from (eps, delta)")
    if given is not None and derived is not None and given != derived:
        raise ConfigurationError(f"given {name}={given} conflicts with derived {name}={derived}")
    return given if derived is None else derived


@dataclass
class SkpcaConfig:
    """Training parameters; (m, ell) may be given directly or derived from (eps, delta)."""

    kernel: KernelSpec
    seed: int
    m: int | None = None
    ell: int | None = None
    eps: float | None = None
    delta: float | None = None

    def __post_init__(self) -> None:
        if (self.eps is None) != (self.delta is None):
            raise ConfigurationError("eps and delta must be given together")
        if self.eps is not None:
            check_eps_delta(self.eps, self.delta)
        if self.eps is None and (self.m is None or self.ell is None):
            raise ConfigurationError("either (m, ell) or (eps, delta) must be set")
        if self.m is not None and self.ell is not None:
            if not 2 <= self.ell <= self.m:
                raise ConfigurationError(
                    f"need m >= ell >= 2, got m={self.m}, ell={self.ell}"
                )

    def resolve(self, n: int) -> tuple[int, int]:
        """Final (m, ell) for a stream of length n.

        Explicit values win; with (eps, delta) set, a missing m or ell is
        derived, and explicit values must agree with the derivation.
        """
        m, ell = self.m, self.ell
        if self.eps is not None:
            m = settle_size("m", m, derive_feature_count(self.eps, self.delta, n))
            ell = settle_size("ell", ell, derive_sketch_size(self.eps))
        if not 2 <= ell <= m:
            raise ConfigurationError(f"need m >= ell >= 2, got m={m}, ell={ell}")
        return m, ell


@dataclass(frozen=True)
class SkpcaModel(FeatureMapModel):
    """Trained model: feature map plus the sketch's orthonormal basis.

    Immutable after training; project_test may be called concurrently.
    """

    fm: FeatureMap
    w: np.ndarray  # (m, ell), orthonormal columns
    s: np.ndarray  # (ell,) retained singular values of the sketch
    n_seen: int
    peak_entries: int

    method = "skpca"
    sizes = ("m", "ell")

    @staticmethod
    def resolve(sizes: dict, eps=None, delta=None, n=None) -> dict:
        """Final (m, ell), given or derived from (eps, delta) at stream length n."""
        # the sizes depend on neither the kernel nor the seed
        config = SkpcaConfig(KernelSpec(), 0, sizes["m"], sizes["ell"], eps, delta)
        return dict(zip(("m", "ell"), config.resolve(n)))

    @staticmethod
    def fit(kernel: KernelSpec, seed: int, rows: Iterable, m: int, ell: int) -> "SkpcaModel":
        return train(SkpcaConfig(kernel=kernel, seed=seed, m=m, ell=ell), rows)

    @classmethod
    def from_record(cls, kernel: KernelSpec, record: dict) -> "SkpcaModel":
        fm, ell = stored_feature_map(kernel, record), record["ell"]
        w = np.asarray(record["w"], dtype=np.float64).reshape(fm.m, ell)
        s = np.asarray(record["s"], dtype=np.float64).reshape(ell)
        return cls(fm, w, s, record["n_seen"], record["peak_entries"])

    def record_fields(self) -> dict:
        fields = {"m": self.fm.m, "ell": self.ell, "rff_sha256": self.fm.checksum()}
        return {**fields, "w": self.w.tolist(), "s": self.s.tolist()}

    @property
    def ell(self) -> int:
        return self.w.shape[1]

    @property
    def ranks(self) -> range:
        return range(1, self.ell + 1)

    @property
    def space(self) -> int:
        return space_entries(self.fm.m, self.ell, self.fm.d)

    def answer(self, x, k: int) -> tuple[np.ndarray, float]:
        _, loading, residual = self.project_test(x, k)
        return loading, residual

    def project_test(self, x, k: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Lift a point and project it onto the first k basis directions.

        Returns (lifted, loading, residual): the m-dimensional lift, its k
        loading coordinates, and the norm of the part of the lift outside
        the k-dimensional subspace. Costs O(dm + mk).
        """
        if not 1 <= k <= self.ell:
            raise ContractViolationError(f"k must be in [1, {self.ell}], got {k}")
        lifted = self.fm.apply(x)
        wk = self.w[:, :k]
        loading = wk.T @ lifted
        residual = float(np.linalg.norm(lifted - wk @ loading))
        return lifted, loading, residual

    def gram_factor(self, a, k: int | None = None, chunk: int = 256) -> np.ndarray:
        """The (n, k) factor Z W_k of the reconstructed gram; k = ell (the
        default) gives (ZW)(ZW)^T.

        Lifts `chunk` rows at a time, so the n x m lift never exists whole.
        """
        if k is not None and not 1 <= k <= self.ell:
            raise ContractViolationError(f"k must be in [1, {self.ell}], got {k}")
        return self.fm.project_batch(a, self.w[:, :k], chunk)

    def reconstruct_gram(self, a, chunk: int = 256) -> np.ndarray:
        """Evaluation-only gram reconstruction G~ = (ZW)(ZW)^T."""
        return factor_gram(self.gram_factor(a, chunk=chunk))


def train(config: SkpcaConfig, stream: Iterable) -> SkpcaModel:
    """Run the streaming pipeline over an ordered sequence of d-vectors.

    Single pass; working memory stays at O(dm + ell*m) logical entries
    regardless of stream length. When (m, ell) must be derived from
    (eps, delta), the stream has to have a known length (len()), since the
    feature-count bound depends on n.
    """
    iterator = iter(stream)
    try:
        first = next(iterator)
    except StopIteration:
        raise ContractViolationError("training stream is empty") from None

    first = as_vector(first, "stream point 0")
    d = first.size
    n_hint = len(stream) if hasattr(stream, "__len__") else None
    if config.eps is not None and n_hint is None:
        raise ConfigurationError(
            "the (eps, delta) parameterization needs the stream length; "
            "pass a sized sequence or set (m, ell) explicitly"
        )
    m, ell = config.resolve(n_hint if n_hint is not None else 1)

    counter = EntryCounter()
    fm = sample_feature_map(config.kernel, m, d, config.seed)
    counter.alloc(m * d + m)  # frequencies + phases
    counter.alloc(ell * d + ell * m)  # input block + its lift
    sketch = FdSketch(ell, m, counter=counter)

    block = np.empty((ell, d))
    block[0] = first
    held = 1
    for i, row in enumerate(iterator, start=1):
        vec = np.asarray(row, dtype=np.float64).ravel()
        if vec.size != d:
            # report errors in stream order: earlier rows, then this one
            _check_finite(block[:held], sketch.inserted)
            as_vector(row, f"stream point {i}")
            raise ContractViolationError(
                f"stream point {i} has dimension {vec.size}, expected {d}"
            )
        block[held] = vec
        held += 1
        if held == ell:
            _check_finite(block, sketch.inserted)
            sketch.insert(fm.apply_batch(block))
            held = 0
    if held:
        _check_finite(block[:held], sketch.inserted)
        sketch.insert(fm.apply_batch(block[:held]))

    counter.alloc(ell * m + ell**2 + ell)  # final basis SVD temporaries
    w, s = sketch.basis()
    return SkpcaModel(fm=fm, w=w, s=s, n_seen=sketch.inserted, peak_entries=counter.peak)


def _check_finite(block: np.ndarray, first_index: int) -> None:
    """Name the first stream point of a block that has a non-finite entry."""
    bad = ~np.isfinite(block).all(axis=1)
    if bad.any():
        i = first_index + int(np.argmax(bad))
        raise ContractViolationError(f"stream point {i} contains non-finite entries")


def space_entries(m: int, ell: int, d: int) -> int:
    """The sketch's space formula m*d + m*ell in logical entries."""
    return m * d + m * ell
