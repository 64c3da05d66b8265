import numpy as np
import pytest
from conftest import dense_wk_pinv, eval_kernel, gaussian_mixture
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stream_kpca import (
    ConfigurationError,
    ContractViolationError,
    KernelSpec,
    NystromModel,
    SkpcaConfig,
    baselines,
    cross_gram,
    gram,
    nystrom_space_entries,
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

    @pytest.mark.parametrize("m, d, expected", [(1024, 20, 2_185_472), (7, 3, 196)])
    def test_peak_entries_itemized(self, spec, m, d, expected):
        fm = sample_feature_map(spec, m=m, d=d, seed=11)
        model = rnca_train(fm, gaussian_mixture(5, d, seed=11))
        b = min(baselines.RNCA_BLOCK_ROWS, m)
        # map, cov, the block's m x m product, one input block and its lift
        assert model.peak_entries == (m * d + m) + m * m + m * m + b * (d + m) == expected
        assert model.peak_entries <= 3 * rnca_space_entries(m, d)


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
        model = NystromModel.fit(spec, 0, [np.array([1.0, 2.0])], c=1)
        assert np.array_equal(model.samples, [[1.0, 2.0]])
        assert np.array_equal(gram(spec, model.samples), [[1.0]])

    def test_duplicate_slots_handled_by_pinv(self, spec):
        # two distinct points into five slots: W is rank-deficient by design
        stream = [np.array([0.0, 0.0]), np.array([1.0, 1.0])]
        model = NystromModel.fit(spec, 1, stream, c=5)
        recon = model.reconstruct(np.vstack(stream))
        assert np.all(np.isfinite(recon))

    def test_kernel_row_at_sample(self, spec):
        data = gaussian_mixture(20, 3, seed=12)
        model = NystromModel.fit(spec, 2, data, c=6)
        c_row, loading = model.test(model.samples[3])
        assert c_row[3] == pytest.approx(1.0, abs=1e-12)
        assert loading.shape == (6,)

    @pytest.mark.parametrize("k", [1, 8])
    def test_answer_is_test_and_residual(self, spec, k):
        # test and residual answer at the full rank c = 8, where the residual is 0;
        # answer's rank-k loading is the first k of test's
        data = gaussian_mixture(30, 3, seed=16)
        model = NystromModel.fit(spec, 4, data, c=8)
        for x in data:
            c_row, full = model.test(x)
            loading, residual = model.answer(x, k)
            if k == 8:
                assert loading.tobytes() == full.tobytes()
            else:
                # a narrower product may round differently
                assert np.all(np.abs(loading - full[:k]) <= 1e-13 * np.maximum(1.0, np.abs(full[:k])))
            assert model.residual(c_row) == 0.0
            assert residual == 0.0 if k == 8 else residual > 0.0

    def test_loading_length_k(self, spec):
        data = gaussian_mixture(20, 3, seed=13)
        model = NystromModel.fit(spec, 3, data, c=8)
        assert model.answer(data[0], 3)[0].shape == (3,)
        assert model.test(data[0])[1].shape == (8,)

    def test_full_sampling_reconstructs_exactly(self, spec):
        # all n distinct points sampled, k = c: the Nystrom identity is exact
        data = gaussian_mixture(15, 3, seed=14)
        model = NystromModel.from_samples(spec, data)
        g = gram(spec, data)
        recon = model.reconstruct(data)
        assert np.max(np.abs(recon - g)) <= 1e-6 * 15

    def test_full_sampling_gram_column(self, spec):
        data = gaussian_mixture(12, 3, seed=15)
        model = NystromModel.from_samples(spec, data)
        g = gram(spec, data)
        c_row, _ = model.test(data[4])
        c_mat = np.array([[eval_kernel(spec, x, s) for s in model.samples] for x in data])
        column = c_mat @ dense_wk_pinv(g, 12) @ c_row
        assert np.linalg.norm(column - g[:, 4]) <= 1e-6 * 12

    def test_wk_pinv_matches_dense_route(self, spec):
        # reconstruct applies pinv(W_k) through its factor; oracle: C pinv(W_k) C^T
        # with pinv(W_k) from numpy's dense eigh and pinv
        data = gaussian_mixture(10, 3, seed=16)
        model = NystromModel.from_samples(spec, data)
        points = gaussian_mixture(15, 3, seed=24)
        c_mat = cross_gram(spec, points, data)
        dense = c_mat @ dense_wk_pinv(gram(spec, data), 4) @ c_mat.T
        assert np.allclose(model.reconstruct(points, 4), dense, rtol=0, atol=1e-8)

    def test_reconstruct_symmetric_low_rank(self, spec):
        data = gaussian_mixture(25, 3, seed=17)
        model = NystromModel.fit(spec, 4, data, c=10)
        recon = model.reconstruct(data, 4)
        assert np.linalg.norm(recon - recon.T) <= 1e-10
        w = np.linalg.eigvalsh(recon)
        assert np.sum(np.abs(w) > 1e-8 * max(abs(w[-1]), 1.0)) <= 4

    def test_only_final_samples_matter(self, spec):
        data = gaussian_mixture(30, 3, seed=18)
        model = NystromModel.fit(spec, 5, data, c=5)
        rebuilt = NystromModel.from_samples(spec, model.samples)
        assert np.allclose(
            model.reconstruct(data[:10]), rebuilt.reconstruct(data[:10]), atol=1e-12
        )

    @pytest.mark.parametrize("k", [3, 8])
    def test_loadings_reproduce_reconstructed_gram(self, spec, k):
        # 5 distinct points in 8 slots: W has 3 eigenvalues under the pinv cutoff
        distinct = gaussian_mixture(5, 3, seed=22)
        model = NystromModel.from_samples(spec, distinct[[0, 1, 1, 2, 3, 3, 3, 4]])
        cutoff = 8 * np.finfo(np.float64).eps * model.eigvals[0]
        assert np.sum(model.eigvals <= cutoff) == 3
        points = np.vstack([gaussian_mixture(30, 3, seed=23), distinct])
        loadings = np.vstack([model.answer(x, k)[0] for x in points])
        c_mat = cross_gram(spec, points, model.samples)
        want = c_mat @ dense_wk_pinv(gram(spec, model.samples), k) @ c_mat.T
        assert np.max(np.abs(loadings @ loadings.T - want)) <= 1e-9 * np.max(np.abs(want))

    def test_k_out_of_range(self, spec):
        model = NystromModel.fit(spec, 0, gaussian_mixture(10, 2, seed=19), c=4)
        for k in (0, 5):
            with pytest.raises(ContractViolationError, match=r"k must be in \[1, 4\]"):
                model.answer(np.zeros(2), k)

    @pytest.mark.parametrize("c, d, expected", [(1024, 20, 2_118_656), (8, 3, 160)])
    def test_peak_entries_itemized(self, spec, c, d, expected):
        model = NystromModel.fit(spec, 13, gaussian_mixture(5, d, seed=13), c=c)
        # sample buffer, W, eigendecomposition; the sample buffer is counted once
        assert model.peak_entries == c * d + c * c + (c * c + c) == expected
        assert model.peak_entries <= 3 * nystrom_space_entries(c, d)

    def test_space_accounting(self, spec):
        c, d = 12, 3
        data = gaussian_mixture(40, d, seed=20)
        model = NystromModel.fit(spec, 6, data, c=c)
        assert model.peak_entries <= 3 * nystrom_space_entries(c, d)


class TestNystromShiftInvariance:
    """The reservoir picks rows without looking at them, and the kernel sees only
    differences, so a model fit on shifted points holds the shifted samples and
    answers each shifted point as the unshifted model answers the point."""

    @pytest.mark.parametrize("k", [10, 256])
    @pytest.mark.parametrize("mu", [1.0, 100.0])
    def test_shifted_fit_answers_as_the_unshifted(self, shift_data, mu, k):
        spec = KernelSpec(sigma=3.5)
        model = NystromModel.fit(spec, 5, shift_data, c=256)
        moved = NystromModel.fit(spec, 5, shift_data + mu, c=256)
        assert np.array_equal(moved.samples, model.samples + mu)
        for x in shift_data[::15]:
            (a_load, a_res), (b_load, b_res) = model.answer(x, k), moved.answer(x + mu, k)
            assert np.max(np.abs(b_load - a_load)) <= 1e-11
            assert abs(b_res - a_res) <= 1e-11


SIZES = {"skpca": {"m": 24, "ell": 6}, "rnca": {"m": 20}, "nystrom": {"c": 10}}


def _direct(method, spec, seed, data):
    """The method's trainer called directly (Nystrom's building blocks, reservoir
    then from_samples), and the arrays that define its model."""
    if method == "skpca":
        model = train(SkpcaConfig(kernel=spec, seed=seed, **SIZES["skpca"]), data)
        return model, ("w", "s")
    if method == "rnca":
        model = rnca_train(sample_feature_map(spec, SIZES["rnca"]["m"], data.shape[1], seed), data)
        return model, ("cov", "eigvals", "eigvecs")
    samples, n_seen, slot_replacements = reservoir_sample(SIZES["nystrom"]["c"], seed, data)
    model = NystromModel.from_samples(
        spec,
        samples,
        seed=seed,
        n_seen=n_seen,
        replacements=int(slot_replacements.sum()),
    )
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

    # literal peaks, so a change to any term of a model's count shows here; the
    # SKPCA rows with n < ell never shrink, so their transient is the basis SVD's
    @pytest.mark.parametrize(
        "method, sizes, d, n, expected",
        [
            ("skpca", {"m": 8, "ell": 4}, 3, 3, 160),
            ("skpca", {"m": 8, "ell": 4}, 3, 4, 176),
            ("skpca", {"m": 64, "ell": 8}, 20, 7, 3_112),
            ("skpca", {"m": 64, "ell": 8}, 20, 8, 3_176),
            ("skpca", {"m": 2, "ell": 2}, 1, 1, 24),
            ("rnca", {"m": 7}, 3, 1, 196),
            ("rnca", {"m": 64}, 20, 40, 14_912),
            ("nystrom", {"c": 33}, 20, 2, 2_871),
            ("nystrom", {"c": 1}, 1, 40, 4),
            ("rnca", {"m": 64}, 20, 150, 14_912),  # three blocks: each lift goes before the next
        ],
    )
    def test_peak_entries_pinned(self, spec, method, sizes, d, n, expected):
        model = MODELS[method].fit(spec, 3, gaussian_mixture(n, d, seed=22), **sizes)
        assert model.peak_entries == expected

    @pytest.mark.parametrize(
        "method,given,eps,delta,want",
        [
            ("skpca", {"m": None, "ell": None}, 0.45, 0.2, {"m": 416, "ell": 10}),
            ("rnca", {"m": None}, 0.45, 0.2, {"m": 416}),
            ("nystrom", {"c": None}, 0.5, 0.2, {"c": 27}),
            ("nystrom", {"c": 12}, None, None, {"c": 12}),
            ("nystrom", {"c": 1}, None, None, {"c": 1}),
        ],
    )
    def test_resolve(self, method, given, eps, delta, want):
        assert MODELS[method].resolve(given, eps, delta, 80) == want

    @pytest.mark.parametrize("method", METHODS)
    def test_resolve_rejects_missing_and_conflicting_sizes(self, method):
        name = MODELS[method].sizes[0]
        missing = dict.fromkeys(MODELS[method].sizes)
        with pytest.raises(ConfigurationError, match=f"{name} must be given"):
            MODELS[method].resolve(missing)
        with pytest.raises(ConfigurationError, match="conflicts with derived"):
            MODELS[method].resolve({**missing, name: 3}, 0.45, 0.2, 80)
        with pytest.raises(ConfigurationError, match="delta must be in"):
            MODELS[method].resolve(missing, 0.45, 1.5, 80)

    @pytest.mark.parametrize(
        "method,sizes,match",
        [
            ("skpca", {"m": 64, "ell": 7}, "even ell"),
            ("skpca", {"m": 4, "ell": 8}, "even ell"),
            ("skpca", {"m": 64, "ell": 0}, "ell must be an integer >= 2"),
            ("skpca", {"m": 64.0, "ell": 8}, "m must be an integer >= 1"),
            ("rnca", {"m": 0}, "m must be an integer >= 1"),
            ("nystrom", {"c": 0}, "c must be an integer >= 1"),
        ],
    )
    def test_resolve_rejects_sizes_out_of_range(self, method, sizes, match):
        with pytest.raises(ConfigurationError, match=match):
            MODELS[method].resolve(sizes)

    @pytest.mark.parametrize("method", METHODS)
    def test_resolve_needs_eps_and_delta_together(self, method):
        unsized = dict.fromkeys(MODELS[method].sizes)
        for eps, delta, sizes in ((0.45, None, unsized), (None, 0.2, unsized),
                                  (None, 0.2, SIZES[method])):
            with pytest.raises(ConfigurationError, match="eps and delta must be given together"):
                MODELS[method].resolve(sizes, eps, delta, 80)


# a valid eps is kept >= 0.5 and a valid delta >= 0.05, so a derived m stays
# near 300 and RNCA's m x m covariance small
SIZE_VALUES = st.one_of(st.none(), st.integers(-2, 40), st.sampled_from([4.0, 8.5]))
EPS_VALUES = st.one_of(st.none(), st.sampled_from([-0.25, 0.0]), st.floats(0.5, 1.5))
DELTA_VALUES = st.one_of(st.none(), st.sampled_from([-0.25, 0.0]), st.floats(0.05, 1.5))
UNSIZED = dict.fromkeys(("m", "ell", "c"))


@settings(max_examples=150, deadline=None, database=None)
@given(
    method=st.sampled_from(METHODS),
    raw=st.fixed_dictionaries({name: SIZE_VALUES for name in UNSIZED}),
    eps_delta=st.one_of(st.just((None, None)), st.tuples(EPS_VALUES, DELTA_VALUES)),
)
# random sizes are mostly refused; these pin one accepted case per method and path
@example("skpca", {**UNSIZED, "m": 16, "ell": 4}, (None, None))
@example("skpca", UNSIZED, (0.5, 0.05))
@example("rnca", {**UNSIZED, "m": 1}, (None, None))
@example("rnca", UNSIZED, (0.99, 0.9))
@example("nystrom", {**UNSIZED, "c": 40}, (None, None))
@example("nystrom", UNSIZED, (0.6, 0.3))
def test_resolve_is_the_only_size_gate(method, raw, eps_delta):
    """Sizes `resolve` accepts never fail in `fit`; those it refuses, it refuses
    with ConfigurationError, before any row is read."""
    model_cls = MODELS[method]
    given_sizes = {name: raw[name] for name in model_cls.sizes}
    try:
        sizes = model_cls.resolve(given_sizes, *eps_delta, 12)
    except ConfigurationError:
        return
    assert all(sizes[name] == value for name, value in given_sizes.items() if value is not None)
    model = model_cls.fit(KernelSpec(), 0, iter(gaussian_mixture(12, 3, seed=0)), **sizes)
    assert model.n_seen == 12
