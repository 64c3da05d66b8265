import math

import numpy as np
import pytest
from conftest import exact_phi, gaussian_mixture

from stream_kpca import (
    ContractViolationError,
    KernelSpec,
    SkpcaConfig,
    eval_kernel,
    gram,
    rnca_train,
    sample_feature_map,
    spectral_norm,
    train,
)
from stream_kpca.numerics import factor_gram

TWO_PI = 2.0 * math.pi


class TestSampling:
    def test_shapes_and_phase_range(self):
        fm = sample_feature_map(KernelSpec(), m=4, d=3, seed=0)
        assert fm.r.shape == (4, 3)
        assert fm.gamma.shape == (4,)
        assert np.all(fm.gamma > 0.0) and np.all(fm.gamma <= TWO_PI)

    def test_frequency_moments(self):
        # Monte Carlo: r ~ N(0, 1/sigma^2) for the Gaussian kernel
        fm = sample_feature_map(KernelSpec(sigma=1.0), m=20000, d=1, seed=1)
        r = fm.r.ravel()
        assert abs(r.mean()) <= 3.5 / math.sqrt(20000)
        assert abs(r.var() - 1.0) <= 0.05

    def test_frequency_moments_scale_with_bandwidth(self):
        fm = sample_feature_map(KernelSpec(sigma=2.0), m=20000, d=1, seed=2)
        assert abs(fm.r.var() - 0.25) <= 0.05 * 0.25

    def test_deterministic_regeneration(self):
        a = sample_feature_map(KernelSpec(sigma=1.5), m=64, d=7, seed=99)
        b = sample_feature_map(KernelSpec(sigma=1.5), m=64, d=7, seed=99)
        assert np.array_equal(a.r, b.r)
        assert np.array_equal(a.gamma, b.gamma)

    def test_rejects_bad_counts(self):
        with pytest.raises(ContractViolationError):
            sample_feature_map(KernelSpec(), m=0, d=3, seed=0)
        with pytest.raises(ContractViolationError):
            sample_feature_map(KernelSpec(), m=3, d=0, seed=0)


class TestApply:
    def test_coordinate_bound(self):
        fm = sample_feature_map(KernelSpec(), m=50, d=4, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(20):
            z = fm.apply(rng.standard_normal(4) * 10)
            assert np.max(z**2) <= 2.0 / 50 + 1e-15
            assert z @ z <= 2.0 + 1e-12

    def test_zero_argument(self):
        fm = sample_feature_map(KernelSpec(), m=8, d=2, seed=5)
        z = fm.apply(np.zeros(2))
        assert np.allclose(z, math.sqrt(2.0 / 8) * np.cos(fm.gamma))

    def test_dimension_mismatch(self):
        fm = sample_feature_map(KernelSpec(), m=8, d=2, seed=5)
        with pytest.raises(ContractViolationError):
            fm.apply(np.zeros(3))

    def test_unbiasedness_against_kernel(self):
        # mean over independent maps converges to the exact kernel value
        spec = KernelSpec(sigma=1.0)
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal(5) * 0.7, rng.standard_normal(5) * 0.7
        k_exact = eval_kernel(spec, x, y)
        vals = []
        for seed in range(50):
            fm = sample_feature_map(spec, m=2000, d=5, seed=seed)
            vals.append(float(fm.apply(x) @ fm.apply(y)))
        assert abs(np.mean(vals) - k_exact) <= 0.01


class TestApplyBatch:
    def test_single_row_matches_apply(self):
        fm = sample_feature_map(KernelSpec(), m=16, d=3, seed=7)
        x = np.array([0.1, -2.0, 0.5])
        assert np.allclose(fm.apply_batch(x[None, :])[0], fm.apply(x), atol=1e-14)

    def test_in_place_batch_is_the_closed_form(self):
        # the in-place steps give bit for bit scale * cos(A R^T + gamma)
        fm = sample_feature_map(KernelSpec(sigma=2.0), m=64, d=4, seed=7)
        a = np.random.default_rng(8).standard_normal((33, 4))
        assert np.array_equal(fm.apply_batch(a), fm.scale * np.cos(a @ fm.r.T + fm.gamma))

    def test_frobenius_mass_bound(self):
        fm = sample_feature_map(KernelSpec(), m=32, d=5, seed=8)
        rng = np.random.default_rng(9)
        z = fm.apply_batch(rng.standard_normal((100, 5)))
        assert np.sum(z**2) <= 2.0 * 100 + 1e-9

    def test_gram_approximation_across_seeds(self):
        # n=300, m=6000: ||G - Z Z^T||_2 / n <= 0.1 in at least 18 of 20 runs
        spec = KernelSpec(sigma=3.0)
        data = gaussian_mixture(300, 5, seed=10)
        g = gram(spec, data)
        passes = 0
        for seed in range(20):
            fm = sample_feature_map(spec, m=6000, d=5, seed=seed)
            z = fm.apply_batch(data)
            err = spectral_norm(g - z @ z.T) / 300
            passes += err <= 0.1
        assert passes >= 18


class TestForEachConcentration:
    def test_fixed_direction_bound(self):
        # for a fixed unit x: | ||Phi^T x||^2 - ||Z^T x||^2 | <= eps*n
        # with m = ceil(ln(2/delta) / (2 eps^2)); failure rate <= 0.2 over 40 trials
        eps, delta = 0.2, 0.1
        m = math.ceil(math.log(2.0 / delta) / (2.0 * eps**2))
        n, d = 40, 3
        spec = KernelSpec(sigma=1.0)
        data = gaussian_mixture(n, d, seed=11)
        g = gram(spec, data)
        phi = exact_phi(g)
        rng = np.random.default_rng(12)
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        target = float(np.linalg.norm(phi.T @ x) ** 2)
        failures = 0
        for seed in range(40):
            fm = sample_feature_map(spec, m=m, d=d, seed=seed)
            z = fm.apply_batch(data)
            failures += abs(target - float(np.linalg.norm(z.T @ x) ** 2)) > eps * n
        assert failures <= 0.2 * 40


def _feature_map_models():
    spec = KernelSpec(sigma=2.0)
    data = gaussian_mixture(40, 3, seed=31)
    skpca = train(SkpcaConfig(kernel=spec, seed=4, m=24, ell=6), data)
    rnca = rnca_train(sample_feature_map(spec, 24, 3, 4), data)
    return data, {"skpca": (skpca, skpca.w), "rnca": (rnca, rnca.eigvecs)}


class TestFeatureMapModel:
    @pytest.mark.parametrize("method", ["skpca", "rnca"])
    def test_projection_on_each_basis(self, method):
        data, models = _feature_map_models()
        model, basis = models[method]
        assert model.basis is basis
        assert model.ranks == range(1, basis.shape[1] + 1)
        for k in (1, basis.shape[1]):
            lifted, loading, residual = model.project_test(data[0], k)
            assert np.array_equal(lifted, model.fm.apply(data[0]))
            assert np.array_equal(loading, basis[:, :k].T @ lifted)
            assert residual == float(np.linalg.norm(lifted - basis[:, :k] @ loading))
            assert np.array_equal(model.answer(data[0], k)[0], loading)
            factor = model.gram_factor(data, k, chunk=7)
            assert np.array_equal(factor, model.fm.project_batch(data, basis[:, :k], 7))
        assert np.array_equal(model.gram_factor(data), model.gram_factor(data, basis.shape[1]))
        assert np.array_equal(model.reconstruct(data, 2), factor_gram(model.gram_factor(data, 2)))

    def test_named_entry_points(self):
        data, models = _feature_map_models()
        skpca, rnca = models["skpca"][0], models["rnca"][0]
        gram_5 = skpca.reconstruct(data, chunk=5)
        assert np.array_equal(skpca.reconstruct_gram(data, chunk=5), gram_5)
        _, loading, _ = rnca.test(data[1], 3)
        assert np.array_equal(loading, rnca.project_test(data[1], 3)[1])
        # each is a separate entry of its own class, so wrapping one on its
        # class (as perfbench's tracer does) leaves the other model's calls alone
        skpca_entry = type(skpca).__dict__["project_test"]
        assert type(rnca).__dict__["test"] is not skpca_entry
