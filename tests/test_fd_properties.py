"""Property tests for the Frequent Directions sketch.

Streams are drawn from a numpy seed that hypothesis chooses, so each
example is cheap and every failure replays from the printed seed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stream_kpca import FdSketch

PROPERTY = settings(max_examples=60, deadline=None, database=None)

ells = st.sampled_from([2, 4, 6, 8])
seeds = st.integers(min_value=0, max_value=2**32 - 1)
exponents = st.integers(min_value=-8, max_value=8)
KINDS = ("random", "rank-deficient", "duplicated", "row-scaled")


def make_stream(kind: str, n: int, m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "rank-deficient":
        rank = int(rng.integers(1, max(min(n, m), 1) + 1))
        return rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))
    if kind == "duplicated":
        distinct = rng.standard_normal((int(rng.integers(1, 4)), m))
        return distinct[rng.integers(0, distinct.shape[0], size=n)]
    a = rng.standard_normal((n, m))
    if kind == "row-scaled":
        a *= 10.0 ** rng.uniform(-8.0, 8.0, size=(n, 1))
    return a


def sketch_of(a: np.ndarray, ell: int, cuts=()) -> FdSketch:
    """Insert `a` as blocks split at `cuts` (row indices)."""
    sk = FdSketch(ell, a.shape[1])
    bounds = [0, *sorted(cuts), a.shape[0]]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sk.insert(a[lo:hi])
    return sk


def shrink_by_svd(b: np.ndarray) -> np.ndarray:
    """The textbook SVD shrink, B <- sqrt(max(Sigma^2 - sigma_{ell/2}^2, 0)) W^T."""
    _, s, vt = np.linalg.svd(b, full_matrices=False)
    delta = s[b.shape[0] // 2 - 1] ** 2
    return np.sqrt(np.maximum(s**2 - delta, 0.0))[:, None] * vt


@PROPERTY
@given(
    ell=ells,
    extra_m=st.integers(min_value=0, max_value=6),
    n=st.integers(min_value=0, max_value=60),
    kind=st.sampled_from(KINDS),
    seed=seeds,
    data=st.data(),
)
def test_split_invariance(ell, extra_m, n, kind, seed, data):
    a = make_stream(kind, n, ell + extra_m, seed)
    cuts = data.draw(st.lists(st.integers(min_value=0, max_value=n), max_size=8))
    by_row = FdSketch(ell, a.shape[1])
    for row in a:
        by_row.insert(row)
    for sk in (sketch_of(a, ell), sketch_of(a, ell, cuts)):
        assert np.array_equal(sk.b, by_row.b)
        assert (sk.filled, sk.shrinks, sk.inserted) == (by_row.filled, by_row.shrinks, n)


@PROPERTY
@given(
    ell=ells,
    extra_m=st.integers(min_value=0, max_value=10),
    n=st.integers(min_value=1, max_value=80),
    kind=st.sampled_from(KINDS),
    exponent=exponents,
    seed=seeds,
)
def test_covariance_guarantee(ell, extra_m, n, kind, exponent, seed):
    # A^T A - B^T B is PSD and its top eigenvalue is <= ||A||_F^2 / (ell/2)
    a = make_stream(kind, n, ell + extra_m, seed) * 10.0**exponent
    b = sketch_of(a, ell).b
    mass = float(np.sum(a**2))
    diff = a.T @ a - b.T @ b
    w = np.linalg.eigvalsh((diff + diff.T) / 2.0)
    assert w[0] >= -1e-9 * mass
    assert w[-1] <= 2.0 * mass / ell + 1e-9 * mass


@PROPERTY
@given(
    ell=ells,
    extra_m=st.integers(min_value=0, max_value=10),
    kind=st.sampled_from(KINDS),
    exponent=exponents,
    seed=seeds,
)
def test_gram_shrink_matches_svd_formula(ell, extra_m, kind, exponent, seed):
    # inserting exactly ell rows runs one shrink on B = those rows
    b = make_stream(kind, ell, ell + extra_m, seed) * 10.0**exponent
    sk = sketch_of(b, ell)
    assert sk.shrinks == 1
    expected = shrink_by_svd(b)
    gap = np.linalg.norm(sk.b.T @ sk.b - expected.T @ expected)
    assert gap <= 1e-10 * np.linalg.norm(b.T @ b)
    assert sk.filled == int(np.count_nonzero(np.any(sk.b != 0.0, axis=1)))
