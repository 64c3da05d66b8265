import numpy as np
import pytest
from conftest import gaussian_mixture

from stream_kpca import (
    BenchmarkCell,
    ContractViolationError,
    KernelSpec,
    NumericalFailureError,
    gram,
    rank_k_frobenius_check,
    rnca_train,
    run_benchmark,
    sample_feature_map,
    spectral_norm,
    sym_eig,
    sym_eig_top,
    sym_spectral_norm,
    thin_svd,
)
from stream_kpca import evaluation, numerics


class TestCheckRank:
    @pytest.mark.parametrize("k", [1, 4, np.int64(4), np.int32(2)])
    def test_integers_in_range_accepted(self, k):
        numerics.check_rank(k, 4)

    @pytest.mark.parametrize("k", [0, 5, 2.5, 2.0, np.float64(2.0), True, "2", None])
    def test_others_refused(self, k):
        with pytest.raises(ContractViolationError, match=r"k must be in \[1, 4\]"):
            numerics.check_rank(k, 4)

    # each public entry point that takes a rank refuses a non-integer one
    # before it reaches ARPACK or a slice
    @pytest.mark.parametrize("k", [2.5, True])
    def test_rank_k_frobenius_check(self, k):
        g = gram(KernelSpec(), gaussian_mixture(20, 3, seed=0))
        with pytest.raises(ContractViolationError, match="k must be in"):
            rank_k_frobenius_check(g, g, k)

    def test_run_benchmark(self, monkeypatch):
        # refused before the n x n oracle is built
        def no_oracle(*args):
            raise AssertionError("the oracle gram was built")

        monkeypatch.setattr(evaluation, "gram", no_oracle)
        data = gaussian_mixture(30, 3, seed=1)
        for k in (2.5, True):
            with pytest.raises(ContractViolationError, match="k must be in"):
                run_benchmark([BenchmarkCell(method="rnca", m=8)], data, data[:3], k=k,
                              timing_reps=1)

    def test_answer(self):
        data = gaussian_mixture(30, 3, seed=2)
        model = rnca_train(sample_feature_map(KernelSpec(), 8, 3, seed=0), data)
        assert model.answer(data[0], np.int64(2))[0].shape == (2,)
        with pytest.raises(ContractViolationError, match="k must be in"):
            model.answer(data[0], 2.5)


class TestThinSvd:
    def test_identity(self):
        _, s, _ = thin_svd(np.eye(3))
        assert np.allclose(s, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        u, s, v = thin_svd(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(s, [3.0, 2.0, 1.0])
        # singular vectors of a diagonal matrix are signed permutations
        assert np.allclose(np.abs(u), np.eye(3), atol=1e-12)
        assert np.allclose(np.abs(v), np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((20, 7))
        u, s, v = thin_svd(a)
        recon = (u * s) @ v.T
        assert np.linalg.norm(recon - a) <= 1e-8 * np.linalg.norm(a)

    @pytest.mark.parametrize("shape", [(5, 9), (9, 5), (6, 6), (1, 4)])
    def test_result_invariants(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        a = rng.standard_normal(shape)
        u, s, v = thin_svd(a)
        r = min(shape)
        assert u.shape == (shape[0], r)
        assert v.shape == (shape[1], r)
        assert np.allclose(u.T @ u, np.eye(r), atol=1e-8)
        assert np.allclose(v.T @ v, np.eye(r), atol=1e-8)
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)

    def test_rejects_non_finite(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ContractViolationError):
            thin_svd(bad)

    def test_rejects_empty(self):
        with pytest.raises(ContractViolationError):
            thin_svd(np.zeros((0, 3)))


class TestSymEig:
    def test_diagonal(self):
        w, _ = sym_eig(np.diag([5.0, 1.0]))
        assert np.allclose(w, [5.0, 1.0])

    def test_all_ones_rank_one(self):
        # hand eigendecomposition: ones(3,3) = 3 * (1/sqrt(3))^T(1/sqrt(3))
        w, v = sym_eig(np.ones((3, 3)))
        assert np.allclose(w, [3.0, 0.0, 0.0], atol=1e-12)
        top = v[:, 0]
        assert np.allclose(np.abs(top), 1.0 / np.sqrt(3.0))

    @pytest.mark.parametrize("seed", [3, 4])
    def test_psd_from_gram(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((15, 8))
        g = a.T @ a
        w, v = sym_eig(g)
        assert np.all(w >= -1e-9 * w[0])
        # eigenpair residual within 1e-7 * ||G||_2
        for i in range(w.size):
            assert np.linalg.norm(g @ v[:, i] - w[i] * v[:, i]) <= 1e-7 * w[0]
        assert np.allclose(v.T @ v, np.eye(8), atol=1e-8)

    def test_rejects_non_square(self):
        with pytest.raises(ContractViolationError):
            sym_eig(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ContractViolationError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-14)

    def test_rank_one(self):
        rng = np.random.default_rng(8)
        u = rng.standard_normal(6)
        v = rng.standard_normal(9)
        u *= 2.0 / np.linalg.norm(u)
        v *= 5.0 / np.linalg.norm(v)
        a = np.outer(u, v)
        assert spectral_norm(a) == pytest.approx(10.0, rel=1e-14)
        # for rank-1 inputs the spectral norm equals the Frobenius norm
        assert spectral_norm(a) == pytest.approx(np.linalg.norm(a), rel=1e-14)

    @pytest.mark.parametrize("seed", [9, 10, 11])
    def test_matches_dense_eigensolver(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((30, 30))
        a = (a + a.T) / 2.0
        w, _ = sym_eig(a)
        oracle = np.max(np.abs(w))
        assert spectral_norm(a) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("seed", [12, 13])
    def test_bounded_by_frobenius(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((12, 20))
        assert 0.0 <= spectral_norm(a) <= np.linalg.norm(a) * (1 + 1e-9)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0


class TestSymEigTop:
    @pytest.mark.parametrize("k", [1, 3, 12])
    def test_matches_full_decomposition(self, k):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((12, 12))
        a = (a + a.T) / 2.0  # indefinite: order is signed, not by magnitude
        w_all, v_all = sym_eig(a)
        w, v = sym_eig_top(a, k)
        assert w.shape == (k,) and v.shape == (12, k)
        assert np.allclose(w, w_all[:k], atol=1e-12)
        assert np.all(np.diff(w) <= 0)
        # eigenvectors agree up to sign
        assert np.allclose(np.abs(v.T @ v_all[:, :k]), np.eye(k), atol=1e-8)

    def test_rejects_asymmetric(self):
        with pytest.raises(ContractViolationError):
            sym_eig_top(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_out_of_range(self, k):
        with pytest.raises(ContractViolationError):
            sym_eig_top(np.eye(3), k)

    def test_lapack_failure_is_numerical(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(numerics.scipy.linalg, "eigh", fail)
        with pytest.raises(NumericalFailureError):
            sym_eig_top(np.eye(3), 2)

    def test_arpack_failure_is_numerical(self, monkeypatch):
        def fail(*args, **kwargs):
            raise numerics.ArpackError(-9999)

        monkeypatch.setattr(numerics, "eigsh", fail)
        with pytest.raises(NumericalFailureError):
            sym_eig_top(np.eye(8) + 1.0, 1)

    @pytest.mark.parametrize("n,k", [(12, 2), (12, 3), (12, 12)])
    def test_zero_matrix(self, n, k):
        # ARPACK cannot start on the zero matrix; the subset solver takes it
        w, v = sym_eig_top(np.zeros((n, n)), k)
        assert np.array_equal(w, np.zeros(k))
        assert np.allclose(v.T @ v, np.eye(k), atol=1e-12)

    def test_lanczos_repeats_exactly(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((40, 40))
        a = a + a.T
        w, v = sym_eig_top(a, 3)
        w2, v2 = sym_eig_top(a.copy(), 3)
        assert np.array_equal(w, w2) and np.array_equal(v, v2)


class TestSymSpectralNorm:
    @pytest.mark.parametrize("n", [1, 2, 3, 30])
    def test_matches_dense_eigensolver(self, n):
        rng = np.random.default_rng(15 + n)
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2.0
        dense = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        assert sym_spectral_norm(a) == pytest.approx(dense, rel=1e-12)

    def test_clustered_top_of_both_signs(self):
        # eigenvalues 1, -0.999, 0.998 on top of a dense spread: an iteration
        # stopped before machine precision reads low here
        rng = np.random.default_rng(17)
        n = 300
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.concatenate([[1.0, -0.999, 0.998], rng.uniform(-0.99, 0.99, n - 3)])
        a = (q * lam) @ q.T
        a = (a + a.T) / 2.0
        dense = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        assert sym_spectral_norm(a) >= dense * (1 - 1e-12)

    def test_negative_dominant_eigenvalue(self):
        assert sym_spectral_norm(np.diag([1.0, -4.0, 2.0])) == pytest.approx(4.0, rel=1e-14)

    def test_zero_matrix(self):
        assert sym_spectral_norm(np.zeros((5, 5))) == 0.0

    def test_start_vector_not_annihilated(self):
        # the all-ones vector is in this matrix's null space
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert sym_spectral_norm(a) == pytest.approx(2.0, rel=1e-14)

    def test_repeats_exactly(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((40, 40))
        a = a + a.T
        assert sym_spectral_norm(a) == sym_spectral_norm(a.copy())

    def test_arpack_failure_is_numerical(self, monkeypatch):
        def fail(*args, **kwargs):
            raise numerics.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(numerics, "eigsh", fail)
        with pytest.raises(NumericalFailureError):
            sym_spectral_norm(np.eye(3) + 1.0)
