import dataclasses
import math

import numpy as np
import pytest
from conftest import gaussian_mixture

from stream_kpca import (
    ConfigurationError,
    ContractViolationError,
    FdSketch,
    KernelSpec,
    SkpcaConfig,
    SkpcaModel,
    derive_feature_count,
    derive_sketch_size,
    gram,
    sample_feature_map,
    space_entries,
    spectral_norm,
    train,
)


UNSIZED = {"m": None, "ell": None}


def make_config(m=64, ell=8, sigma=1.0, seed=0):
    return SkpcaConfig(kernel=KernelSpec(sigma=sigma), seed=seed, m=m, ell=ell)


class TestConfig:
    def test_derived_feature_count(self):
        # ceil(((9 + 8*0.25) / 0.25^2) * ln(2*2000 / 0.1)) = ceil(176 * ln 40000)
        assert derive_feature_count(0.25, 0.1, 2000) == 1866
        assert derive_feature_count(0.25, 0.1, 300) == 1532

    def test_derived_sketch_size_rounds_to_even(self):
        assert derive_sketch_size(0.25) == 16
        assert derive_sketch_size(0.45) == 10  # ceil(8.89) = 9, rounded up

    def test_eps_requires_delta(self):
        with pytest.raises(ConfigurationError, match="eps and delta must be given together"):
            SkpcaModel.resolve({"m": 8, "ell": 4}, eps=0.5)

    def test_requires_some_parameterization(self):
        with pytest.raises(ConfigurationError, match="m must be given"):
            SkpcaModel.resolve(UNSIZED)
        with pytest.raises(ConfigurationError, match="ell must be given"):
            SkpcaModel.resolve({"m": 8, "ell": None})

    def test_rejects_ell_above_m(self):
        with pytest.raises(ConfigurationError):
            make_config(m=4, ell=8)

    def test_config_holds_only_kernel_seed_and_sizes(self):
        names = [field.name for field in dataclasses.fields(SkpcaConfig)]
        assert names == ["kernel", "seed", "m", "ell"]

    def test_resolve_conflict(self):
        with pytest.raises(ConfigurationError, match="conflicts with derived"):
            SkpcaModel.resolve({"m": 100, "ell": None}, 0.25, 0.1, 2000)
        with pytest.raises(ConfigurationError, match="conflicts with derived"):
            SkpcaModel.resolve({"m": None, "ell": 8}, 0.25, 0.1, 2000)

    def test_resolve_derives_both(self):
        assert SkpcaModel.resolve(UNSIZED, 0.25, 0.1, 2000) == {"m": 1866, "ell": 16}
        assert SkpcaModel.resolve({"m": 1866, "ell": 16}, 0.25, 0.1, 2000) == {
            "m": 1866, "ell": 16}


class TestTrain:
    def test_single_point_rank_one_basis(self):
        cfg = make_config(m=32, ell=4)
        data = np.array([[0.5, -1.0, 2.0]])
        model = train(cfg, data)
        z = model.fm.apply(data[0])
        direction = z / np.linalg.norm(z)
        assert abs(model.w[:, 0] @ direction) == pytest.approx(1.0, abs=1e-10)
        assert model.n_seen == 1

    def test_deterministic_replay(self):
        data = gaussian_mixture(80, 4, seed=1)
        a = train(make_config(seed=3), data)
        b = train(make_config(seed=3), list(data))
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.s, b.s)

    def test_empty_stream(self):
        with pytest.raises(ContractViolationError):
            train(make_config(), iter([]))

    def test_dimension_drift_names_index(self):
        rows = [np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(4)]
        with pytest.raises(ContractViolationError, match="stream point 3"):
            train(make_config(m=16, ell=4), iter(rows))

    @pytest.mark.parametrize("bad", [1, 3, 4, 6])
    def test_non_finite_point_names_index(self, bad):
        # ell=4: points 1 and 3 fall in the first block, 4 and 6 in the last, partial one
        rows = [np.ones(3) for _ in range(7)]
        rows[bad] = np.array([1.0, np.nan, 0.0])
        with pytest.raises(ContractViolationError, match=f"stream point {bad} contains"):
            train(make_config(m=16, ell=4), iter(rows))

    def test_earlier_non_finite_point_reported_before_dimension_drift(self):
        rows = [np.ones(3), np.array([np.inf, 0.0, 0.0]), np.ones(4)]
        with pytest.raises(ContractViolationError, match="stream point 1 contains"):
            train(make_config(m=16, ell=4), iter(rows))

    def test_train_is_blockwise_lift_into_sketch(self):
        # 37 points = 9 full blocks of ell=4 and a partial one
        data = gaussian_mixture(37, 3, seed=13)
        cfg = make_config(m=32, ell=4)
        model = train(cfg, iter(list(data)))
        fm = sample_feature_map(cfg.kernel, 32, 3, cfg.seed)
        sk = FdSketch(4, 32)
        for lo in range(0, 37, 4):
            sk.insert(fm.apply_batch(data[lo : lo + 4]))
        w, s = sk.basis()
        assert np.array_equal(model.w, w) and np.array_equal(model.s, s)

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 9])
    def test_n_seen_counts_partial_blocks(self, n):
        model = train(make_config(m=16, ell=4), gaussian_mixture(n, 3, seed=12))
        assert model.n_seen == n

    def test_eps_mode_needs_sized_stream(self):
        # sizes derived from (eps, delta) need the stream length n
        for n in (None, 0):
            with pytest.raises(ConfigurationError, match="needs n >= 1 rows"):
                SkpcaModel.resolve(UNSIZED, 0.5, 0.1, n)

    def test_eps_mode_with_sized_stream(self):
        data = gaussian_mixture(60, 3, seed=4)
        sizes = SkpcaModel.resolve(UNSIZED, 0.45, 0.2, len(data))
        model = SkpcaModel.fit(KernelSpec(), 0, iter(data), **sizes)
        assert model.ell == derive_sketch_size(0.45)
        assert model.fm.m == derive_feature_count(0.45, 0.2, 60)

    def test_model_is_immutable(self):
        model = train(make_config(m=16, ell=4), gaussian_mixture(20, 3, seed=5))
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.n_seen = 7

    def test_basis_orthonormal(self):
        model = train(make_config(m=48, ell=6), gaussian_mixture(100, 4, seed=6))
        assert np.allclose(model.w.T @ model.w, np.eye(6), atol=1e-8)

    def test_space_accounting(self):
        m, ell, d = 96, 8, 5
        model = train(make_config(m=m, ell=ell), gaussian_mixture(200, d, seed=7))
        assert model.peak_entries <= 3 * space_entries(m, ell, d)

    @pytest.mark.parametrize(
        "m, ell, d, expected", [(1024, 16, 20, 71_504), (64, 8, 5, 2_096)]
    )
    def test_peak_entries_itemized(self, m, ell, d, expected):
        # 2*ell rows, so the sketch shrinks; the lift's transient (ell*m) is
        # smaller than the shrink's temporaries and never sets the peak
        model = train(make_config(m=m, ell=ell), gaussian_mixture(2 * ell, d, seed=8))
        # map, one block and its lift, sketch, shrink temporaries
        itemized = (m * d + m) + (ell * d + ell * m) + ell * m + (ell * m + 2 * ell**2 + ell)
        assert model.peak_entries == itemized == expected
        assert model.peak_entries <= 3 * space_entries(m, ell, d)


class TestProjectTest:
    def test_training_point_of_rank_one_stream(self):
        point = np.array([1.0, -0.5, 0.25])
        data = np.tile(point, (10, 1))
        model = train(make_config(m=32, ell=4), data)
        lifted, loading, residual = model.project_test(point, 1)
        assert residual <= 1e-6 * np.linalg.norm(lifted)
        assert loading.shape == (1,)

    @pytest.mark.parametrize("seed", [8, 9])
    def test_loading_norm_chain(self, seed):
        model = train(make_config(m=64, ell=8), gaussian_mixture(60, 4, seed=seed))
        rng = np.random.default_rng(seed)
        for _ in range(10):
            x = rng.standard_normal(4)
            lifted, loading, _ = model.project_test(x, 5)
            assert np.linalg.norm(loading) <= np.linalg.norm(lifted) + 1e-12
            assert np.linalg.norm(lifted) <= math.sqrt(2.0) + 1e-12

    def test_residual_shrinks_with_k(self):
        model = train(make_config(m=64, ell=8), gaussian_mixture(60, 4, seed=10))
        x = np.array([0.1, 0.2, -0.3, 0.4])
        _, _, r_full = model.project_test(x, 8)
        _, _, r_one = model.project_test(x, 1)
        assert r_full <= r_one + 1e-12

    def test_k_out_of_range(self):
        model = train(make_config(m=16, ell=4), gaussian_mixture(20, 3, seed=11))
        for bad in (0, 5):
            with pytest.raises(ContractViolationError):
                model.project_test(np.zeros(3), bad)


class TestReconstructGram:
    def test_single_point(self):
        data = np.array([[2.0, 1.0]])
        model = train(make_config(m=16, ell=4), data)
        z = model.fm.apply(data[0])
        expected = float(np.linalg.norm(model.w.T @ z) ** 2)
        assert model.reconstruct_gram(data)[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_psd_and_low_rank(self):
        data = gaussian_mixture(50, 3, seed=12)
        model = train(make_config(m=32, ell=4), data)
        gt = model.reconstruct_gram(data)
        assert np.array_equal(gt, gt.T)
        w = np.linalg.eigvalsh(gt)
        assert w[0] >= -1e-9 * 50
        assert np.all(w[:-4] <= 1e-9 * max(w[-1], 1.0))  # rank <= ell

    def test_chunking_matches_direct(self):
        data = gaussian_mixture(600, 3, seed=13)  # crosses the 256-row lift boundary
        model = train(make_config(m=32, ell=4), data)
        z = model.fm.apply_batch(data)
        direct = (z @ model.w) @ (z @ model.w).T
        assert np.allclose(model.reconstruct_gram(data), direct, atol=1e-12)


class TestSketchVsFeatureBound:
    @pytest.mark.parametrize("ell", [4, 8])
    @pytest.mark.parametrize("seed", [14, 15])
    def test_deterministic_sketch_step_bound(self, ell, seed):
        # || Z Z^T - Z W W^T Z^T ||_2 <= (2/ell) ||Z||_F^2, no probability involved
        data = gaussian_mixture(200, 5, seed=seed)
        model = train(make_config(m=50, ell=ell, seed=seed), data)
        z = model.fm.apply_batch(data)
        zw = z @ model.w
        gap = spectral_norm(z @ z.T - zw @ zw.T)
        assert gap <= (2.0 / ell) * float(np.sum(z**2)) + 1e-9

    def test_triangle_consistency(self):
        spec = KernelSpec(sigma=2.0)
        data = gaussian_mixture(120, 4, seed=16)
        model = train(SkpcaConfig(kernel=spec, seed=17, m=64, ell=8), data)
        g = gram(spec, data)
        z = model.fm.apply_batch(data)
        zz = z @ z.T
        gt = model.reconstruct_gram(data)
        total = spectral_norm(g - gt)
        assert total <= spectral_norm(g - zz) + spectral_norm(zz - gt) + 1e-9
