"""Property tests for the top-k eigensolver and the norms built on it.

`sym_eig_top` switches between ARPACK Lanczos (4k < n) and LAPACK's subset
eigensolver (4k >= n); both sides must agree with a dense `eigh`. The rank-k
tail `_rank_k_gap(G, G, k)` must agree with the tail of a dense `eigvalsh`,
also where the tail is zero. `spectral_norm` must be the exact largest
singular value.
"""

import numpy as np
from conftest import gaussian_mixture
from hypothesis import given, settings
from hypothesis import strategies as st

from stream_kpca import KernelSpec, gram, spectral_norm, sym_eig_top
from stream_kpca.evaluation import _rank_k_gap

KINDS = ("psd", "rank_deficient", "rank_k", "indefinite", "gram")


def _symmetric(kind: str, n: int, k: int, seed: int) -> np.ndarray:
    """A symmetric n x n matrix of the given kind; "rank_k" has rank exactly k."""
    rng = np.random.default_rng(seed)
    if kind == "gram":
        return gram(KernelSpec(sigma=2.0), gaussian_mixture(n, 3, seed=seed))
    lam = rng.uniform(-1.0, 1.0, n) if kind == "indefinite" else rng.exponential(1.0, n)
    if kind == "rank_deficient":
        lam[rng.permutation(n)[: rng.integers(1, n + 1)]] = 0.0
    elif kind == "rank_k":
        lam[k:] = 0.0
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * lam) @ q.T
    return (a + a.T) / 2.0


@st.composite
def cases(draw, side: str | None = None):
    """(kind, n, k, seed); `side` pins k to one side of the 4k >= n switch."""
    n = draw(st.integers(min_value=5 if side == "lanczos" else 2, max_value=200))
    if side == "lanczos":
        k = draw(st.integers(min_value=1, max_value=(n - 1) // 4))
    elif side == "subset":
        k = draw(st.integers(min_value=-(-n // 4), max_value=n))
    else:
        k = draw(st.integers(min_value=1, max_value=n))
    return draw(st.sampled_from(KINDS)), n, k, draw(st.integers(min_value=0, max_value=2**16))


@settings(max_examples=150, deadline=None, database=None)
@given(case=cases())
def test_rank_k_tail_matches_dense_spectrum(case):
    kind, n, k, seed = case
    g = _symmetric(kind, n, k, seed)
    dense = np.linalg.eigvalsh(g)[::-1]
    tail = float(np.sqrt(np.sum(dense[k:] ** 2)))
    assert abs(_rank_k_gap(g, g, k) - tail) <= 1e-12 * np.linalg.norm(g)


def _check_top_k(case):
    kind, n, k, seed = case
    g = _symmetric(kind, n, k, seed)
    w_all, v_all = np.linalg.eigh(g)
    w_all, v_all = w_all[::-1], v_all[:, ::-1]
    w, v = sym_eig_top(g, k)
    scale = max(float(np.max(np.abs(w_all))), 1e-300)
    assert w.shape == (k,) and v.shape == (n, k)
    assert np.all(np.diff(w) <= 0)
    assert np.max(np.abs(w - w_all[:k])) <= 1e-12 * scale
    assert np.allclose(v.T @ v, np.eye(k), atol=1e-12)
    if k < n and w_all[k - 1] > w_all[k]:
        # same subspace, to within the perturbation bound eps-level / gap
        gap = (w_all[k - 1] - w_all[k]) / scale
        dist = np.linalg.norm(v @ v.T - v_all[:, :k] @ v_all[:, :k].T, 2)
        assert dist <= 1e-12 / gap


@settings(max_examples=100, deadline=None, database=None)
@given(case=cases(side="lanczos"))
def test_sym_eig_top_lanczos_side_matches_eigh(case):
    _check_top_k(case)


@settings(max_examples=100, deadline=None, database=None)
@given(case=cases(side="subset"))
def test_sym_eig_top_subset_side_matches_eigh(case):
    _check_top_k(case)


@settings(max_examples=100, deadline=None, database=None)
@given(
    rows=st.one_of(st.just(1), st.integers(min_value=1, max_value=60)),
    cols=st.integers(min_value=1, max_value=60),
    kind=st.sampled_from(["dense", "zero", "rank_one"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_spectral_norm_is_largest_singular_value(rows, cols, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        a = np.zeros((rows, cols))
    elif kind == "rank_one":
        a = np.outer(rng.standard_normal(rows), rng.standard_normal(cols))
    else:
        a = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-8, 8)
    want = float(np.linalg.svd(a, compute_uv=False)[0])
    assert abs(spectral_norm(a) - want) <= 1e-14 * want
