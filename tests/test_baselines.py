import numpy as np
import pytest
from conftest import dense_wk_pinv, gaussian_mixture

from stream_kpca import (
    ConfigurationError,
    ContractViolationError,
    KernelSpec,
    NystromModel,
    SkpcaConfig,
    baselines,
    cross_gram,
    eval_kernel,
    gram,
    nystrom_space_entries,
    nystrom_train,
    reservoir_sample,
    rnca_space_entries,
    rnca_train,
    sample_feature_map,
    train,
)
from stream_kpca.methods import METHODS, MODELS
from stream_kpca.seeds import substream_seed


@pytest.fixture
def spec():
    return KernelSpec(sigma=2.0)


class TestRnca:
    def test_single_point(self, spec):
        fm = sample_feature_map(spec, m=16, d=3, seed=0)
        point = np.array([1.0, 0.0, -1.0])
        model = rnca_train(fm, [point])
        z = fm.apply(point)
        assert np.allclose(model.cov, np.outer(z, z), atol=1e-14)
        assert np.linalg.matrix_rank(model.cov) == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_streamed_cov_matches_batch(self, spec, seed):
        fm = sample_feature_map(spec, m=24, d=4, seed=seed)
        data = gaussian_mixture(60, 4, seed=seed)
        model = rnca_train(fm, data)
        z = fm.apply_batch(data)
        mass = float(np.sum(z**2))
        assert np.linalg.norm(model.cov - z.T @ z) <= 1e-10 * mass

    def test_trace_bound(self, spec):
        fm = sample_feature_map(spec, m=24, d=4, seed=4)
        data = gaussian_mixture(50, 4, seed=4)
        model = rnca_train(fm, data)
        assert np.trace(model.cov) <= 2.0 * 50 + 1e-9

    def test_full_rank_reconstruct_equals_zzt(self, spec):
        fm = sample_feature_map(spec, m=20, d=3, seed=5)
        data = gaussian_mixture(40, 3, seed=5)
        model = rnca_train(fm, data)
        z = fm.apply_batch(data)
        mass = float(np.sum(z**2))
        assert np.linalg.norm(model.reconstruct(data, k=20) - z @ z.T) <= 1e-8 * mass

    def test_reconstruct_rank_bounded(self, spec):
        fm = sample_feature_map(spec, m=20, d=3, seed=6)
        data = gaussian_mixture(40, 3, seed=6)
        model = rnca_train(fm, data)
        gk = model.reconstruct(data, k=3)
        w = np.linalg.eigvalsh(gk)
        assert np.all(w[:-3] <= 1e-9 * max(w[-1], 1.0))

    def test_k_out_of_range(self, spec):
        fm = sample_feature_map(spec, m=8, d=2, seed=7)
        model = rnca_train(fm, np.zeros((3, 2)))
        with pytest.raises(ContractViolationError):
            model.reconstruct(np.zeros((3, 2)), k=9)

    def test_dimension_drift(self, spec):
        fm = sample_feature_map(spec, m=8, d=2, seed=8)
        with pytest.raises(ContractViolationError, match="stream point 1"):
            rnca_train(fm, iter([np.zeros(2), np.zeros(3)]))

    def test_test_projection(self, spec):
        fm = sample_feature_map(spec, m=16, d=3, seed=9)
        data = gaussian_mixture(30, 3, seed=9)
        model = rnca_train(fm, data)
        lifted, loading, residual = model.test(data[0], k=4)
        assert loading.shape == (4,)
        assert residual >= 0.0
        _, _, r_full = model.test(data[0], k=16)
        assert r_full <= residual + 1e-12

    def test_space_accounting(self, spec):
        m, d = 32, 4
        fm = sample_feature_map(spec, m=m, d=d, seed=10)
        model = rnca_train(fm, gaussian_mixture(50, d, seed=10))
        assert model.peak_entries <= 3 * rnca_space_entries(m, d)

    @pytest.mark.parametrize("m, d, expected", [(1024, 20, 2_120_704), (7, 3, 140)])
    def test_peak_entries_itemized(self, spec, m, d, expected):
        fm = sample_feature_map(spec, m=m, d=d, seed=11)
        model = rnca_train(fm, gaussian_mixture(5, d, seed=11))
        # map, cov, lifted row, eigendecomposition
        assert model.peak_entries == (m * d + m) + m * m + m + (m * m + m) == expected
        assert model.peak_entries <= 3 * rnca_space_entries(m, d)

    def test_rank_one_update_is_in_place(self, spec, monkeypatch):
        fm = sample_feature_map(spec, m=16, d=3, seed=12)
        dsyr, calls = baselines.dsyr, []

        def spy(*args, **kwargs):
            calls.append(dsyr(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(baselines, "dsyr", spy)
        model = rnca_train(fm, gaussian_mixture(6, 3, seed=12))
        # a silent copy per point would return arrays that share no memory with cov
        assert len(calls) == 6
        assert all(np.shares_memory(out, model.cov) for out in calls)


class TestReservoir:
    def test_single_point_stream(self):
        samples, n_seen, _ = reservoir_sample(1, 0, [np.array([4.0, 2.0])])
        assert n_seen == 1
        assert np.array_equal(samples, [[4.0, 2.0]])

    def test_slot_marginals_uniform(self):
        # n=10, c=1, 20000 runs: every point sampled with frequency 0.1 +/- 0.01
        stream = [np.array([float(i)]) for i in range(10)]
        counts = np.zeros(10)
        for run in range(20000):
            samples, _, _ = reservoir_sample(1, run, stream)
            counts[int(samples[0, 0])] += 1
        freqs = counts / 20000
        assert np.all(np.abs(freqs - 0.1) <= 0.01)

    def test_deterministic(self):
        stream = gaussian_mixture(50, 3, seed=11)
        a, _, ra = reservoir_sample(4, 123, stream)
        b, _, rb = reservoir_sample(4, 123, list(stream))
        assert np.array_equal(a, b)
        assert np.array_equal(ra, rb)

    def test_per_slot_replacement_counts(self):
        stream = gaussian_mixture(200, 2, seed=21)
        _, n_seen, slot_replacements = reservoir_sample(8, 5, stream)
        assert n_seen == 200
        assert slot_replacements.shape == (8,)
        # each slot replaces sum_{t=2}^{n} 1/t ~ ln(n) times in expectation
        assert np.all(slot_replacements >= 0)
        assert np.all(slot_replacements < 200)

    def test_empty_stream(self):
        with pytest.raises(ContractViolationError):
            reservoir_sample(2, 0, iter([]))


class TestNystrom:
    def test_single_point_single_slot(self, spec):
        model = nystrom_train(spec, c=1, k=1, seed=0, stream=[np.array([1.0, 2.0])])
        assert np.array_equal(model.samples, [[1.0, 2.0]])
        assert np.array_equal(model.w, [[1.0]])

    def test_duplicate_slots_handled_by_pinv(self, spec):
        # two distinct points into five slots: W is rank-deficient by design
        stream = [np.array([0.0, 0.0]), np.array([1.0, 1.0])]
        model = nystrom_train(spec, c=5, k=5, seed=1, stream=stream)
        recon = model.reconstruct(np.vstack(stream))
        assert np.all(np.isfinite(recon))

    def test_kernel_row_at_sample(self, spec):
        data = gaussian_mixture(20, 3, seed=12)
        model = nystrom_train(spec, c=6, k=6, seed=2, stream=data)
        c_row, loading = model.test(model.samples[3])
        assert c_row[3] == pytest.approx(1.0, abs=1e-12)
        assert loading.shape == (6,)

    def test_loading_length_k(self, spec):
        data = gaussian_mixture(20, 3, seed=13)
        model = nystrom_train(spec, c=8, k=3, seed=3, stream=data)
        _, loading = model.test(data[0])
        assert loading.shape == (3,)

    def test_full_sampling_reconstructs_exactly(self, spec):
        # all n distinct points sampled, k = c: the Nystrom identity is exact
        data = gaussian_mixture(15, 3, seed=14)
        model = NystromModel.from_samples(spec, data, k=15)
        g = gram(spec, data)
        recon = model.reconstruct(data)
        assert np.max(np.abs(recon - g)) <= 1e-6 * 15

    def test_full_sampling_gram_column(self, spec):
        data = gaussian_mixture(12, 3, seed=15)
        model = NystromModel.from_samples(spec, data, k=12)
        g = gram(spec, data)
        c_row, _ = model.test(data[4])
        c_mat = np.array([[eval_kernel(spec, x, s) for s in model.samples] for x in data])
        column = c_mat @ dense_wk_pinv(g, 12) @ c_row
        assert np.linalg.norm(column - g[:, 4]) <= 1e-6 * 12

    def test_wk_pinv_matches_dense_route(self, spec):
        # reconstruct applies pinv(W_k) through its factor; oracle: C pinv(W_k) C^T
        # with pinv(W_k) from numpy's dense eigh and pinv
        data = gaussian_mixture(10, 3, seed=16)
        model = NystromModel.from_samples(spec, data, k=4)
        points = gaussian_mixture(15, 3, seed=24)
        c_mat = cross_gram(spec, points, data)
        dense = c_mat @ dense_wk_pinv(gram(spec, data), 4) @ c_mat.T
        assert np.allclose(model.reconstruct(points), dense, rtol=0, atol=1e-8)

    def test_reconstruct_symmetric_low_rank(self, spec):
        data = gaussian_mixture(25, 3, seed=17)
        model = nystrom_train(spec, c=10, k=4, seed=4, stream=data)
        recon = model.reconstruct(data)
        assert np.linalg.norm(recon - recon.T) <= 1e-10
        w = np.linalg.eigvalsh(recon)
        assert np.sum(np.abs(w) > 1e-8 * max(abs(w[-1]), 1.0)) <= 4

    def test_only_final_samples_matter(self, spec):
        data = gaussian_mixture(30, 3, seed=18)
        model = nystrom_train(spec, c=5, k=5, seed=5, stream=data)
        rebuilt = NystromModel.from_samples(spec, model.samples, k=5)
        assert np.allclose(
            model.reconstruct(data[:10]), rebuilt.reconstruct(data[:10]), atol=1e-12
        )

    @pytest.mark.parametrize("k", [3, 8])
    def test_loadings_reproduce_reconstructed_gram(self, spec, k):
        # 5 distinct points in 8 slots: W has 3 eigenvalues under the pinv cutoff
        distinct = gaussian_mixture(5, 3, seed=22)
        model = NystromModel.from_samples(spec, distinct[[0, 1, 1, 2, 3, 3, 3, 4]], k=k)
        cutoff = 8 * np.finfo(np.float64).eps * model.eigvals[0]
        assert np.sum(model.eigvals <= cutoff) == 3
        points = np.vstack([gaussian_mixture(30, 3, seed=23), distinct])
        loadings = np.vstack([model.test(x)[1] for x in points])
        c_mat = cross_gram(spec, points, model.samples)
        want = c_mat @ dense_wk_pinv(model.w, k) @ c_mat.T
        assert np.max(np.abs(loadings @ loadings.T - want)) <= 1e-9 * np.max(np.abs(want))

    def test_k_out_of_range(self, spec):
        with pytest.raises(ContractViolationError):
            nystrom_train(spec, c=4, k=5, seed=0, stream=gaussian_mixture(10, 2, seed=19))

    def test_space_accounting(self, spec):
        c, d = 12, 3
        data = gaussian_mixture(40, d, seed=20)
        model = nystrom_train(spec, c=c, k=c, seed=6, stream=data)
        assert model.peak_entries <= 3 * nystrom_space_entries(c, d)


SIZES = {"skpca": {"m": 24, "ell": 6}, "rnca": {"m": 20}, "nystrom": {"c": 10, "k": 4}}


def _direct(method, spec, seed, data):
    """The method's trainer called directly, and the arrays that define its model."""
    if method == "skpca":
        model = train(SkpcaConfig(kernel=spec, seed=seed, **SIZES["skpca"]), data)
        return model, ("w", "s")
    if method == "rnca":
        model = rnca_train(sample_feature_map(spec, SIZES["rnca"]["m"], data.shape[1], seed), data)
        return model, ("cov", "eigvals", "eigvecs")
    model = nystrom_train(spec, **SIZES["nystrom"], seed=seed, stream=data)
    return model, ("samples", "eigvals", "eigvecs")


class TestRegistry:
    @pytest.mark.parametrize("method", METHODS)
    def test_fit_matches_direct_trainer(self, method, spec):
        data = gaussian_mixture(50, 3, seed=21)
        model_cls = MODELS[method]
        seed = substream_seed(4, model_cls.seed_stream)
        sizes = model_cls.resolve(SIZES[method])
        fitted = model_cls.fit(spec, seed, iter(data), **sizes)
        direct, names = _direct(method, spec, seed, data)
        assert type(fitted) is model_cls and fitted.method == method
        for name in names:
            assert np.array_equal(getattr(fitted, name), getattr(direct, name)), name
        assert (fitted.n_seen, fitted.d) == (50, 3)
        assert fitted.peak_entries == direct.peak_entries
        assert fitted.space == {"skpca": 24 * 3 + 24 * 6, "rnca": 20 * 20 + 20 * 3,
                                "nystrom": 10 * 10 + 10 * 3}[method]

    @pytest.mark.parametrize(
        "method,given,eps,delta,want",
        [
            ("skpca", {"m": None, "ell": None}, 0.45, 0.2, {"m": 416, "ell": 10}),
            ("rnca", {"m": None}, 0.45, 0.2, {"m": 416}),
            ("nystrom", {"c": None, "k": None}, 0.5, 0.2, {"c": 27, "k": 27}),
            ("nystrom", {"c": 12, "k": None}, None, None, {"c": 12, "k": 12}),
            ("nystrom", {"c": 12, "k": 3}, None, None, {"c": 12, "k": 3}),
        ],
    )
    def test_resolve(self, method, given, eps, delta, want):
        assert MODELS[method].resolve(given, eps, delta, 80) == want

    @pytest.mark.parametrize("method", ["rnca", "nystrom"])
    def test_resolve_rejects_missing_and_conflicting_sizes(self, method):
        name = MODELS[method].sizes[0]
        missing = dict.fromkeys(MODELS[method].sizes)
        with pytest.raises(ConfigurationError, match=f"{name} must be given"):
            MODELS[method].resolve(missing)
        with pytest.raises(ConfigurationError, match="conflicts with derived"):
            MODELS[method].resolve({**missing, name: 3}, 0.45, 0.2, 80)
        with pytest.raises(ConfigurationError, match="delta must be in"):
            MODELS[method].resolve(missing, 0.45, 1.5, 80)

    @pytest.mark.parametrize("method", METHODS)
    def test_resolve_needs_eps_and_delta_together(self, method):
        unsized = dict.fromkeys(MODELS[method].sizes)
        for eps, delta, sizes in ((0.45, None, unsized), (None, 0.2, unsized),
                                  (None, 0.2, SIZES[method])):
            with pytest.raises(ConfigurationError, match="eps and delta must be given together"):
                MODELS[method].resolve(sizes, eps, delta, 80)

    def test_nystrom_answers_only_at_its_rank(self, spec):
        model = nystrom_train(spec, c=6, k=3, seed=0, stream=gaussian_mixture(20, 2, seed=1))
        assert model.ranks == range(3, 4)
        loading, residual = model.answer(np.zeros(2), 3)
        assert loading.shape == (3,) and residual >= 0.0
        with pytest.raises(ConfigurationError, match="fixed at train time"):
            model.answer(np.zeros(2), 2)
