import dataclasses
import math

import numpy as np
import pytest
from conftest import eval_kernel

from stream_kpca import (
    ConfigurationError,
    ContractViolationError,
    KernelSpec,
    cross_gram,
    gram,
    sample_feature_map,
    sym_eig,
)
from stream_kpca.evaluation import _rank_k_gap


@pytest.fixture
def spec():
    return KernelSpec(sigma=1.0)


class TestKernelSpec:
    def test_rejects_bad_sigma(self):
        for sigma in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ConfigurationError, match="finite and > 0"):
                KernelSpec(sigma=sigma)

    def test_rejects_unknown_family(self):
        with pytest.raises(ConfigurationError):
            KernelSpec(family="polynomial")


class TestEvalKernel:
    def test_zero_distance(self, spec):
        x = np.array([0.3, -1.2])
        assert eval_kernel(spec, x, x) == 1.0

    def test_closed_form(self, spec):
        assert eval_kernel(spec, [0.0], [2.0]) == pytest.approx(math.exp(-2.0), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetric_and_in_range(self, spec, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        kxy = eval_kernel(spec, x, y)
        assert kxy == eval_kernel(spec, y, x)
        assert 0.0 < kxy < 1.0  # equality with 1 only at x == y

    def test_dimension_mismatch(self, spec):
        with pytest.raises(ContractViolationError):
            eval_kernel(spec, [1.0, 2.0], [1.0])


class TestGram:
    def test_single_point(self, spec):
        g = gram(spec, [[4.2, 0.1]])
        assert g.dtype == np.float64 and g.tobytes() == np.ones((1, 1)).tobytes()

    def test_duplicate_points(self, spec):
        g = gram(spec, [[1.0, 2.0], [1.0, 2.0]])
        assert np.array_equal(g, np.ones((2, 2)))
        w, _ = sym_eig(g)
        assert np.allclose(w, [2.0, 0.0], atol=1e-12)

    def test_gram_invariants(self, spec):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((50, 6))
        g = gram(spec, a)
        n = 50
        assert np.array_equal(g, g.T)  # mirrored construction is exactly symmetric
        assert np.all(np.diag(g) == 1.0)
        assert np.trace(g) == float(n)
        w, _ = sym_eig(g)
        assert w[-1] >= -1e-8 * n
        assert abs(np.sum(w) - n) <= 1e-8 * n
        assert w[0] <= n + 1e-9  # ||G||_2 <= trace(G) = n

    def test_matches_eval_kernel(self, spec):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((6, 3))
        g = gram(spec, a)
        for i in range(6):
            for j in range(6):
                assert g[i, j] == pytest.approx(eval_kernel(spec, a[i], a[j]), abs=1e-12)

    def test_cross_gram_against_gram(self, spec):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((5, 3))
        assert np.allclose(cross_gram(spec, a, a), gram(spec, a), atol=1e-12)


class TestBestRankK:
    """The best rank-k part G_k of a gram matrix, as the rank-k bound forms it:
    `_rank_k_gap(G, G, k)` is ||G - G_k||_F, G_k from the top-k eigenpairs."""

    def test_full_rank_is_identity_map(self, spec):
        rng = np.random.default_rng(24)
        g = gram(spec, rng.standard_normal((8, 3)))
        assert _rank_k_gap(g, g, 8) <= 1e-8 * np.linalg.norm(g)

    def test_rank_one_input(self):
        ones = np.ones((3, 3))
        assert _rank_k_gap(ones, ones, 1) <= 1e-12

    def test_optimality_against_random_rank2(self, spec):
        rng = np.random.default_rng(25)
        g = gram(spec, rng.standard_normal((12, 4)))
        best = _rank_k_gap(g, g, 2)
        for _ in range(100):
            c = rng.standard_normal((12, 2)) @ rng.standard_normal((2, 12))
            assert best <= np.linalg.norm(g - c) + 1e-12

    def test_k_out_of_range(self, spec):
        g = gram(spec, np.eye(3))
        for bad in (0, 4):
            with pytest.raises(ContractViolationError):
                _rank_k_gap(g, g, bad)


class TestShiftInvariance:
    """K(x, y) = k(x - y), so shifting every point by one offset changes no gram
    entry; in the lift the shift moves only the phases, to gamma - r . mu."""

    @pytest.mark.parametrize("mu", [1.0, 100.0])
    def test_gram_unchanged_by_a_shift(self, shift_data, mu):
        spec = KernelSpec(sigma=3.5)
        assert np.max(np.abs(gram(spec, shift_data + mu) - gram(spec, shift_data))) <= 1e-13

    @pytest.mark.parametrize("mu", [1.0, 100.0])
    def test_shifted_points_lift_as_shifted_phases(self, shift_data, mu):
        fm = sample_feature_map(KernelSpec(sigma=3.5), m=256, d=20, seed=3)
        offset = np.full(20, mu)
        moved = dataclasses.replace(fm, gamma=fm.gamma - fm.r @ offset)
        # twice the per-coordinate bound the rff docstring gives each lift
        bound = 2 * 3e-7 * math.sqrt(2 / fm.m)
        gap = fm.apply_batch(shift_data - offset) - moved.apply_batch(shift_data)
        assert np.max(np.abs(gap)) <= bound
