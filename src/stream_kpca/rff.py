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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError
from .kernels import KernelSpec
from .numerics import as_matrix, as_vector

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
