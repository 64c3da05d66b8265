"""Streaming kernel PCA: lift each point with a random Fourier feature map
and feed it to a Frequent Directions sketch, in one pass and bounded memory.

Training reads the stream through `dataio.row_blocks` in checked blocks of
ell rows, lifts and inserts each block at once, and keeps only the feature
functions (d*m + m entries), the sketch (ell*m entries) and one block (ell*d
input and ell*m lifted entries). Two transients come and go: the lift's
phase reduction (ell*m entries) and, larger, the sketch's shrink
(ell*m + 2*ell^2 + ell entries). The returned model holds the
ell-dimensional basis W of the sketch's row space, which spans an
approximate kernel eigenspace: reconstructing G~ = (ZW)(ZW)^T stays within
eps*n of the exact gram matrix in spectral norm at the derived (m, ell).
Test projection and the gram factor are `rff.FeatureMapModel`'s, on W.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dataio import row_blocks
from .errors import ConfigurationError
from .fd import FdSketch
from .kernels import KernelSpec
from .numerics import check_shape
from .rff import FeatureMap, FeatureMapModel, sample_feature_map, stored_feature_map


def derive_feature_count(eps: float, delta: float, n: int) -> int:
    """Feature count m = ceil(((9 + 8*eps) / eps^2) * ln(2n / delta))."""
    return math.ceil((9.0 + 8.0 * eps) / eps**2 * log_term(eps, delta, n))


def derive_sketch_size(eps: float) -> int:
    """Sketch size ell = ceil(4 / eps), rounded up to even."""
    check_unit(eps=eps)
    ell = math.ceil(4.0 / eps)
    return ell if ell % 2 == 0 else ell + 1


def log_term(eps: float, delta: float, n: int) -> float:
    """ln(2n / delta), the factor the (eps, delta) sample counts share."""
    check_unit(eps=eps, delta=delta)
    if n is None or n < 1:
        raise ConfigurationError(f"deriving sizes from (eps, delta) needs n >= 1 rows, got {n}")
    return math.log(2.0 * n / delta)


def eps_delta_given(eps: float | None, delta: float | None) -> bool:
    """Whether (eps, delta) is given; raises unless both or neither are, each in (0, 1)."""
    if (eps is None) != (delta is None):
        raise ConfigurationError("eps and delta must be given together")
    if eps is not None:
        check_unit(eps=eps, delta=delta)
    return eps is not None


def check_unit(**values: float) -> None:
    """Raise unless every named value lies in (0, 1)."""
    for name, value in values.items():
        if not 0 < value < 1:
            raise ConfigurationError(f"{name} must be in (0, 1), got {value}")


def settle_size(name: str, given: int | None, derived: int | None, low: int = 1) -> int:
    """The derived size when there is one (a given one must equal it), else the
    given one; raises unless it is an integer of at least `low`."""
    if given is None and derived is None:
        raise ConfigurationError(f"{name} must be given, or derived from (eps, delta)")
    if given is not None and derived is not None and given != derived:
        raise ConfigurationError(f"given {name}={given} conflicts with derived {name}={derived}")
    size = given if derived is None else derived
    if not isinstance(size, numbers.Integral) or size < low:
        raise ConfigurationError(f"{name} must be an integer >= {low}, got {size!r}")
    return size


@dataclass(frozen=True)
class SkpcaConfig:
    """Training parameters, checked by `SkpcaModel.resolve` when built."""

    kernel: KernelSpec
    seed: int
    m: int
    ell: int

    def __post_init__(self) -> None:
        SkpcaModel.resolve({"m": self.m, "ell": self.ell})


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
        """Final (m, ell), given or derived from (eps, delta) at stream length n.

        ell must be even (the FD shrink halves at ell/2) and in [2, m].
        """
        derive = eps_delta_given(eps, delta)
        m = settle_size("m", sizes["m"], derive_feature_count(eps, delta, n) if derive else None)
        ell = settle_size("ell", sizes["ell"], derive_sketch_size(eps) if derive else None, 2)
        if ell > m or ell % 2:
            raise ConfigurationError(f"need an even ell in [2, m], got m={m}, ell={ell}")
        return {"m": m, "ell": ell}

    @staticmethod
    def fit(kernel: KernelSpec, seed: int, rows: Iterable, m: int, ell: int) -> "SkpcaModel":
        return train(SkpcaConfig(kernel=kernel, seed=seed, m=m, ell=ell), rows)

    @classmethod
    def from_record(cls, kernel: KernelSpec, record: dict) -> "SkpcaModel":
        fm, ell = stored_feature_map(kernel, record), record["ell"]
        w = check_shape(record["w"], (fm.m, ell), "w")
        s = check_shape(record["s"], (ell,), "s")
        return cls(fm, w, s, record["n_seen"], record["peak_entries"])

    def record_fields(self) -> dict:
        fields = {"m": self.fm.m, "ell": self.ell, "rff_sha256": self.fm.checksum()}
        return {**fields, "w": self.w, "s": self.s}

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

    def reconstruct_gram(self, a) -> np.ndarray:
        """Evaluation-only gram reconstruction G~ = (ZW)(ZW)^T."""
        return self.reconstruct(a)


def train(config: SkpcaConfig, stream: Iterable) -> SkpcaModel:
    """Run the streaming pipeline over an ordered sequence of d-vectors.

    Single pass; working memory stays at O(dm + ell*m) logical entries
    regardless of stream length.
    """
    m, ell = config.m, config.ell
    blocks = row_blocks(stream, ell)
    first = next(blocks)

    fm = sample_feature_map(config.kernel, m, first.shape[1], config.seed)
    sketch = FdSketch(ell, m)
    for block in itertools.chain([first], blocks):
        sketch.insert(fm.apply_batch(block))
    w, s = sketch.basis()

    # Peak logical entries: the matrix and vector entries the run itself
    # materializes. This is bookkeeping, not an allocator hook: LAPACK's
    # scratch is not counted. The last term is the larger transient, FD's
    # shrink once the sketch has shrunk, else the final basis SVD; the lift's
    # phase reduction (ell*m) is smaller than either.
    peak = (
        (m * fm.d + m)  # feature map: frequencies and phases
        + (ell * fm.d + ell * m)  # one input block and its lift
        + ell * m  # the sketch
        + (
            ell * m + 2 * ell**2 + ell  # shrink: rebuilt rows, Gram and eigenvectors, eigenvalues
            if sketch.shrinks
            else ell * m + ell**2 + ell  # basis SVD: right factor, left factor, singular values
        )
    )
    return SkpcaModel(fm=fm, w=w, s=s, n_seen=sketch.inserted, peak_entries=peak)


def space_entries(m: int, ell: int, d: int) -> int:
    """The sketch's space formula m*d + m*ell in logical entries."""
    return m * d + m * ell
