"""Property tests for RNCA's covariance accumulator.

`rnca_train` lifts the stream in blocks of b = min(64, m) rows and adds
each block's `Z^T Z` to the covariance. The streams span up to four full
blocks and a partial last one, so the sum crosses block boundaries. The
result must be exactly symmetric, C-contiguous, and agree with the whole
stream's `Z^T Z` and with the per-point sum of outer products.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stream_kpca import KernelSpec, rnca_train, sample_feature_map
from stream_kpca.baselines import RNCA_BLOCK_ROWS

PROPERTY = settings(max_examples=60, deadline=None, database=None)

KINDS = ("random", "duplicated", "zero")


def make_stream(kind: str, n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((n, d))
    if kind == "duplicated":
        distinct = rng.standard_normal((int(rng.integers(1, 4)), d))
        return distinct[rng.integers(0, distinct.shape[0], size=n)]
    return rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0)


@PROPERTY
@given(
    m=st.sampled_from([1, 2, 3, 40, 257]),
    d=st.integers(min_value=1, max_value=5),
    full_blocks=st.integers(min_value=0, max_value=4),
    rest=st.integers(min_value=1, max_value=RNCA_BLOCK_ROWS - 1),
    kind=st.sampled_from(KINDS),
    sigma=st.floats(min_value=0.25, max_value=4.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_accumulator_matches_references(m, d, full_blocks, rest, kind, sigma, seed):
    # rest < b ends the stream on a partial block, for every m whose block holds more than rest
    n = full_blocks * min(RNCA_BLOCK_ROWS, m) + rest
    x = make_stream(kind, n, d, seed)
    fm = sample_feature_map(KernelSpec(sigma=sigma), m, d, seed)
    cov = rnca_train(fm, x).cov
    assert np.array_equal(cov, cov.T)
    assert cov.flags["C_CONTIGUOUS"]

    z = fm.apply_batch(x)
    assert np.linalg.norm(cov - z.T @ z) <= 1e-12 * float(np.sum(z**2))

    per_point = np.zeros((m, m))
    for row in x:
        zi = fm.apply(row)
        per_point += np.outer(zi, zi)
    assert np.linalg.norm(cov - per_point) <= 1e-14 * np.linalg.norm(per_point)
