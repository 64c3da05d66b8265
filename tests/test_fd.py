import numpy as np
import pytest

from stream_kpca import (
    ConfigurationError,
    ContractViolationError,
    FdSketch,
    NumericalFailureError,
)


def e(i, m):
    v = np.zeros(m)
    v[i] = 1.0
    return v


class TestConstruction:
    def test_new_sketch_is_zero(self):
        sk = FdSketch(4, 10)
        assert sk.b.shape == (4, 10)
        assert np.all(sk.b == 0.0)
        assert sk.filled == 0

    def test_rejects_odd_ell(self):
        with pytest.raises(ConfigurationError):
            FdSketch(3, 10)

    def test_rejects_ell_above_m(self):
        with pytest.raises(ConfigurationError):
            FdSketch(12, 10)

    def test_rejects_tiny_ell(self):
        with pytest.raises(ConfigurationError):
            FdSketch(0, 10)


class TestInsert:
    def test_passthrough_before_shrink(self):
        sk = FdSketch(6, 8)
        rows = [e(i, 8) * (i + 1) for i in range(5)]
        for r in rows:
            sk.insert(r)
        assert sk.filled == 5
        assert np.array_equal(sk.b[:5], np.vstack(rows))
        assert np.all(sk.b[5] == 0.0)

    def test_ell2_shrink_zeroes_everything(self):
        # sigma = (3, 1); subtracting sigma_1^2 = 9 kills both rows
        sk = FdSketch(2, 10)
        sk.insert(3.0 * e(0, 10))
        sk.insert(e(1, 10))
        assert np.allclose(sk.b, 0.0, atol=1e-12)
        assert sk.filled == 0

    def test_ell4_shrink_hand_case(self):
        # sigma = (3, 2, 1, 1); delta = sigma_2^2 = 4 leaves spectrum (5, 0, 0, 0)
        sk = FdSketch(4, 10)
        for i, scale in enumerate([3.0, 2.0, 1.0, 1.0]):
            sk.insert(scale * e(i, 10))
        assert sk.filled == 1
        row = sk.b[0]
        assert np.linalg.norm(row) == pytest.approx(np.sqrt(5.0), abs=1e-12)
        assert abs(row[0]) == pytest.approx(np.sqrt(5.0), abs=1e-12)
        assert np.allclose(sk.b[1:], 0.0, atol=1e-12)

    def test_dimension_mismatch(self):
        sk = FdSketch(2, 4)
        with pytest.raises(ContractViolationError):
            sk.insert(np.ones(5))

    def test_rejects_non_finite(self):
        sk = FdSketch(2, 4)
        with pytest.raises(ContractViolationError):
            sk.insert(np.array([1.0, np.inf, 0.0, 0.0]))

    def test_block_rejects_wrong_width(self):
        sk = FdSketch(2, 4)
        with pytest.raises(ContractViolationError):
            sk.insert(np.ones((3, 5)))

    def test_block_rejects_non_finite(self):
        sk = FdSketch(2, 4)
        block = np.ones((3, 4))
        block[2, 1] = np.nan
        with pytest.raises(ContractViolationError):
            sk.insert(block)
        assert sk.inserted == 0  # validated before any row is written

    def test_eigensolver_failure_is_numerical_failure(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        sk = FdSketch(2, 4)
        sk.insert(np.ones(4))
        with pytest.raises(NumericalFailureError):
            sk.insert(np.ones(4))

    def test_zero_row_consumes_slot(self):
        sk = FdSketch(4, 6)
        sk.insert(np.zeros(6))
        assert sk.filled == 1

    @pytest.mark.parametrize("seed", [0, 1])
    def test_mass_never_exceeds_input(self, seed):
        rng = np.random.default_rng(seed)
        sk = FdSketch(6, 12)
        total = 0.0
        for _ in range(100):
            row = rng.standard_normal(12)
            total += float(row @ row)
            sk.insert(row)
            assert sk.frobenius_sq() <= total + 1e-9
            assert sk.filled <= sk.ell
        assert sk.shrinks > 0

    def test_shrink_strictly_reduces_mass_when_full_rank(self):
        rng = np.random.default_rng(2)
        sk = FdSketch(4, 8)
        for _ in range(3):
            sk.insert(rng.standard_normal(8))
        row = rng.standard_normal(8)
        before = sk.frobenius_sq() + float(row @ row)
        sk.insert(row)  # triggers a full-rank shrink
        assert sk.frobenius_sq() < before - 1e-9

    def test_rank_deficient_shrink_is_spectrum_noop(self):
        # four copies of one direction: rank 1 < ell/2, so sigma_{ell/2} = 0
        sk = FdSketch(4, 8)
        v = np.arange(1.0, 9.0)
        for _ in range(4):
            sk.insert(v)
        mass_in = 4.0 * float(v @ v)
        assert sk.frobenius_sq() == pytest.approx(mass_in, rel=1e-12)
        assert sk.filled == 1  # rewritten in the SVD basis


class TestBasis:
    def test_single_row_direction(self):
        sk = FdSketch(4, 6)
        z = np.array([1.0, 2.0, 0.0, -1.0, 0.5, 0.0])
        sk.insert(z)
        w, s = sk.basis()
        assert w.shape == (6, 4)
        assert s[0] == pytest.approx(np.linalg.norm(z), rel=1e-12)
        # first basis column spans the inserted direction (sign is a gauge)
        assert abs(w[:, 0] @ (z / np.linalg.norm(z))) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_orthonormal_and_spans_row_space(self, seed):
        rng = np.random.default_rng(seed)
        sk = FdSketch(6, 20)
        for _ in range(50):
            sk.insert(rng.standard_normal(20))
        w, s = sk.basis()
        assert np.allclose(w.T @ w, np.eye(6), atol=1e-8)
        b = sk.b
        assert np.linalg.norm(b - b @ w @ w.T) <= 1e-8 * np.linalg.norm(b)
        assert np.all(np.diff(s) <= 1e-12)

    def test_basis_does_not_mutate(self):
        sk = FdSketch(2, 4)
        sk.insert(np.array([1.0, 0.0, 1.0, 0.0]))
        before = sk.b.copy()
        sk.basis()
        assert np.array_equal(sk.b, before)

    def test_empty_sketch_rejected(self):
        sk = FdSketch(2, 4)
        with pytest.raises(ContractViolationError):
            sk.basis()


def fd_run(rows, ell):
    sk = FdSketch(ell, rows.shape[1])
    for row in rows:
        sk.insert(row)
    return sk


class TestCovarianceGuarantee:
    @pytest.mark.parametrize("ell", [4, 8])
    @pytest.mark.parametrize("seed", [6, 7])
    def test_directional_bound(self, ell, seed):
        # 0 <= ||A x||^2 - ||B x||^2 <= ||A - A_k||_F^2 / (ell - k)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((120, 25))
        sk = fd_run(a, ell)
        diff = a.T @ a - sk.b.T @ sk.b
        svals = np.linalg.svd(a, compute_uv=False)
        w = np.linalg.eigvalsh((diff + diff.T) / 2.0)  # ascending
        assert w[0] >= -1e-8 * max(w[-1], 1.0)  # B^T B <= A^T A
        probes = rng.standard_normal((200, 25))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        gaps = np.einsum("ij,jk,ik->i", probes, diff, probes)
        worst = max(float(np.max(gaps)), float(w[-1]))
        for k in (0, 2):
            if k >= ell:
                continue
            tail = float(np.sum(svals[k:] ** 2))
            assert worst <= tail / (ell - k) + 1e-8

    def test_left_null_space_bound(self):
        # unit y with y^T A B'B = 0 has ||y^T A||^2 <= ||A - A_k||_F^2 / (ell - k)
        rng = np.random.default_rng(8)
        n, m, ell = 40, 12, 4
        a = rng.standard_normal((n, m))
        sk = fd_run(a, ell)
        b = sk.b
        b_pinv = np.linalg.pinv(b)
        proj = a @ b_pinv @ b  # pi_B(A)
        u, s, _ = np.linalg.svd(proj, full_matrices=True)
        rank = int(np.sum(s > 1e-10))
        null_basis = u[:, rank:]  # orthogonal complement of range(pi_B(A))
        # pick the null direction with the largest response through A
        un, sn, _ = np.linalg.svd(null_basis.T @ a, full_matrices=False)
        y = null_basis @ un[:, 0]
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(y @ proj) <= 1e-8
        response = float(np.linalg.norm(y @ a) ** 2)
        svals = np.linalg.svd(a, compute_uv=False)
        for k in (0, 1, 2):
            tail = float(np.sum(svals[k:] ** 2))
            assert response <= tail / (ell - k) + 1e-8
