import math

import numpy as np
import pytest
from conftest import eval_kernel, exact_phi, gaussian_mixture
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stream_kpca import (
    ContractViolationError,
    KernelSpec,
    NystromModel,
    SkpcaConfig,
    cross_gram,
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
        # the in-place steps give bit for bit scale * f32 cos of the f64 phase
        # reduced to [-pi, pi]
        fm = sample_feature_map(KernelSpec(sigma=2.0), m=64, d=4, seed=7)
        a = np.random.default_rng(8).standard_normal((33, 4))
        phase = a @ fm.r.T + fm.gamma
        reduced = phase - TWO_PI * np.rint(phase / TWO_PI)
        expected = fm.scale * np.cos(reduced.astype(np.float32)).astype(np.float64)
        assert np.array_equal(fm.apply_batch(a), expected)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        m=st.integers(min_value=1, max_value=96),
        d=st.integers(min_value=1, max_value=8),
        n=st.integers(min_value=1, max_value=12),
        sigma=st.floats(min_value=0.05, max_value=20.0),
        log_norm=st.floats(min_value=-2.0, max_value=5.5),
    )
    # always run the largest phases, where an unreduced f32 phase alone would be off by ~0.03
    @example(seed=9, m=256, d=6, n=12, sigma=0.05, log_norm=5.5)
    def test_cosine_error_bound(self, seed, m, d, n, sigma, log_norm):
        # |z~ - z_f64| <= 3e-7 * sqrt(2/m) entrywise, for ||x||/sigma up to ~1e5.5
        # and so phases up to ~1e6; apply gives apply_batch's row bit for bit
        fm = sample_feature_map(KernelSpec(sigma=sigma), m=m, d=d, seed=seed)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, d))
        a *= 10.0**log_norm * sigma / np.linalg.norm(a, axis=1, keepdims=True)
        z = fm.apply_batch(a)
        exact = fm.scale * np.cos(a @ fm.r.T + fm.gamma)
        assert np.max(np.abs(z - exact)) <= 3e-7 * fm.scale
        for x in a:
            assert np.array_equal(fm.apply(x), fm.apply_batch(x[None, :])[0])

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


def _projection_models():
    # 600 rows, so every gram factor crosses the 256-row lift boundary
    spec = KernelSpec(sigma=2.0)
    data = gaussian_mixture(600, 3, seed=31)
    skpca = train(SkpcaConfig(kernel=spec, seed=4, m=24, ell=6), data)
    rnca = rnca_train(sample_feature_map(spec, 24, 3, 4), data)
    nystrom = NystromModel.fit(spec, 4, data, c=10)
    return data, {
        "skpca": (skpca, skpca.w, skpca.fm.apply),
        "rnca": (rnca, rnca.eigvecs, rnca.fm.apply),
        "nystrom": (nystrom, nystrom.eigvecs, lambda x: cross_gram(spec, [x], nystrom.samples)[0]),
    }


class TestFeatureMapModel:
    """The projection every model shares, `rff.ProjectionModel`, on each basis."""

    @pytest.mark.parametrize("method", ["skpca", "rnca", "nystrom"])
    def test_projection_on_each_basis(self, method):
        data, models = _projection_models()
        model, basis, lift = models[method]
        width = basis.shape[1]
        assert model.basis is basis
        full = model.transform(data)[0]
        assert full.shape == (600, width)
        # width // 2 + 1 is the first k at which a square basis takes the
        # coordinates past k instead of subtracting the reconstruction
        for k in (1, width // 2 + 1, width):
            scale = np.ones(width) if model.loading_scale is None else model.loading_scale
            lifted, loading, residual = model.project_test(data[0], k)
            assert np.array_equal(lifted, lift(data[0]))
            coords = basis[:, :k].T @ lifted
            assert np.array_equal(loading, scale[:k] * coords)
            subtracted = float(np.linalg.norm(lifted - basis[:, :k] @ coords))
            if basis.shape[0] == width and 2 * k > width:
                rest = basis[:, k:].T @ lifted
            else:
                rest = lifted - basis[:, :k] @ coords
            assert abs(residual - np.linalg.norm(rest)) <= 1e-15 * np.linalg.norm(lifted)
            assert abs(residual - subtracted) <= 1e-13 * np.linalg.norm(lifted)
            assert np.array_equal(model.answer(data[0], k)[0], loading)
            loadings, residuals = model.transform(data, k)
            assert loadings.shape == (600, k) and residuals.shape == (600,)
            lifts = model.lift_batch(data)
            coords = lifts @ basis[:, :k]
            assert np.allclose(loadings, coords * scale[:k], rtol=0, atol=1e-13)
            # a rank-k answer is the first k columns of the full-width one
            head = full[:, :k]
            assert np.all(np.abs(loadings - head) <= 1e-13 * np.maximum(1.0, np.abs(head)))
            subtracted = np.linalg.norm(lifts - coords @ basis[:, :k].T, axis=1)
            assert np.all(np.abs(residuals - subtracted) <= 1e-13 * np.linalg.norm(lifts, axis=1))
            assert np.array_equal(model.gram_factor(data, k), loadings)
        assert np.array_equal(model.gram_factor(data), model.gram_factor(data, width))
        assert np.array_equal(model.reconstruct(data), factor_gram(model.gram_factor(data)))

    @pytest.mark.parametrize("method", ["skpca", "rnca", "nystrom"])
    def test_every_entry_refuses_a_rank_outside_ranks(self, method):
        data, models = _projection_models()
        model = models[method][0]
        width = model.basis.shape[1]
        entries = [model.answer, model.project_test, model.transform, model.gram_factor]
        for k in (0, width + 1, 2.0, True):
            for entry in entries:
                x = data if entry in (model.transform, model.gram_factor) else data[0]
                with pytest.raises(ContractViolationError, match=rf"k must be in \[1, {width}\]"):
                    entry(x, k)

    @pytest.mark.parametrize("method", ["rnca", "nystrom"])
    def test_full_rank_residual_is_zero(self, method):
        data, models = _projection_models()
        model, basis, _ = models[method]
        for x in data[:20]:
            assert model.answer(x, basis.shape[1])[1] == 0.0

    def test_nystrom_residual_at_full_rank_needs_no_coordinates(self, monkeypatch):
        data, models = _projection_models()
        nystrom = models["nystrom"][0]
        c_row, _ = nystrom.test(data[2])

        def refuse(*args):
            raise AssertionError("the residual at k = c needs no coordinates")

        monkeypatch.setattr(NystromModel, "_project", refuse)
        assert nystrom.residual(c_row) == 0.0

    def test_residual_does_not_increase_with_k(self):
        data, models = _projection_models()
        rnca = models["rnca"][0]
        for x in data[:5]:
            lifted = rnca.lift(x)
            residuals = [rnca.project_test(x, k)[2] for k in range(1, rnca.basis.shape[1] + 1)]
            slack = 1e-13 * np.linalg.norm(lifted)
            assert all(b <= a + slack for a, b in zip(residuals, residuals[1:]))

    def test_named_entry_points(self):
        data, models = _projection_models()
        skpca, rnca, nystrom = (models[method][0] for method in ("skpca", "rnca", "nystrom"))
        assert np.array_equal(skpca.reconstruct_gram(data), skpca.reconstruct(data))
        _, loading, _ = rnca.test(data[1], 3)
        assert np.array_equal(loading, rnca.project_test(data[1], 3)[1])
        c_row, loading = nystrom.test(data[1])
        want_loading, want_residual = nystrom.answer(data[1], 10)
        assert np.array_equal(loading, want_loading)
        assert nystrom.residual(c_row) == want_residual
        # each is a separate entry of its own class, so wrapping one on its
        # class (as perfbench's tracer does) leaves the other model's calls alone
        skpca_entry = type(skpca).__dict__["project_test"]
        assert type(rnca).__dict__["test"] is not skpca_entry
        assert {"test", "residual"} <= set(type(nystrom).__dict__)
