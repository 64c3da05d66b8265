"""Streaming kernel PCA: lift each point with a random Fourier feature map
and feed it to a Frequent Directions sketch, in one pass and bounded memory.

Training reads the stream through `dataio.row_blocks` in checked blocks of
ell rows, lifts and inserts each block at once, and keeps only the feature
functions (d*m entries), the sketch (ell*m entries) and one block (ell*d
input and ell*m lifted entries). The returned model holds the
ell-dimensional basis W of the sketch's row space, which spans an
approximate kernel eigenspace: reconstructing G~ = (ZW)(ZW)^T stays within
eps*n of the exact gram matrix in spectral norm at the derived (m, ell).
Test projection and the gram factor are `rff.FeatureMapModel`'s, on W.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .counters import EntryCounter
from .dataio import row_blocks
from .errors import ConfigurationError
from .fd import FdSketch
from .kernels import KernelSpec
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
    def basis(self) -> np.ndarray:
        return self.w

    @property
    def space(self) -> int:
        return space_entries(self.fm.m, self.ell, self.fm.d)

    # an entry of this class too, where perfbench's tracer wraps it by name
    project_test = FeatureMapModel.project_test

    def reconstruct_gram(self, a, chunk: int = 256) -> np.ndarray:
        """Evaluation-only gram reconstruction G~ = (ZW)(ZW)^T."""
        return self.reconstruct(a, chunk=chunk)


def train(config: SkpcaConfig, stream: Iterable) -> SkpcaModel:
    """Run the streaming pipeline over an ordered sequence of d-vectors.

    Single pass; working memory stays at O(dm + ell*m) logical entries
    regardless of stream length. When (m, ell) must be derived from
    (eps, delta), the stream has to have a known length (len()), since the
    feature-count bound depends on n.
    """
    n_hint = len(stream) if hasattr(stream, "__len__") else None
    if config.eps is not None and n_hint is None:
        raise ConfigurationError(
            "the (eps, delta) parameterization needs the stream length; "
            "pass a sized sequence or set (m, ell) explicitly"
        )
    m, ell = config.resolve(n_hint or 1)  # an empty stream fails in row_blocks
    blocks = row_blocks(stream, ell)
    first = next(blocks)

    counter = EntryCounter()
    fm = sample_feature_map(config.kernel, m, first.shape[1], config.seed)
    counter.alloc(m * fm.d + m)  # frequencies + phases
    counter.alloc(ell * fm.d + ell * m)  # input block + its lift
    sketch = FdSketch(ell, m, counter=counter)
    for block in itertools.chain([first], blocks):
        sketch.insert(fm.apply_batch(block))

    counter.alloc(ell * m + ell**2 + ell)  # final basis SVD temporaries
    w, s = sketch.basis()
    return SkpcaModel(fm=fm, w=w, s=s, n_seen=sketch.inserted, peak_entries=counter.peak)


def space_entries(m: int, ell: int, d: int) -> int:
    """The sketch's space formula m*d + m*ell in logical entries."""
    return m * d + m * ell
