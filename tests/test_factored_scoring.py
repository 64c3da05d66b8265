"""Factored scoring: the grid scores each cell from its thin gram factor F.

The grid's report must agree with the dense public error measures applied
to the same model's reconstructed gram, and the Lanczos spectral error must
never read below a dense eigensolver on G - G'.
"""

import numpy as np
import pytest
from conftest import gaussian_mixture
from hypothesis import given, settings
from hypothesis import strategies as st

from stream_kpca import (
    BenchmarkCell,
    ContractViolationError,
    KernelSpec,
    NystromModel,
    SkpcaConfig,
    cross_gram,
    frobenius_error,
    gram,
    load_model,
    nystrom_train,
    rank_k_frobenius_check,
    rnca_train,
    run_benchmark,
    sample_feature_map,
    save_model,
    spectral_error,
    train,
)
from stream_kpca import evaluation
from stream_kpca.numerics import MACHINE_EPS
from stream_kpca.seeds import substream_seed

SPEC = KernelSpec(sigma=2.0)


def _model(method: str, data: np.ndarray, seed: int):
    if method == "skpca":
        return train(SkpcaConfig(kernel=SPEC, seed=seed, m=24, ell=4), data)
    if method == "rnca":
        return rnca_train(sample_feature_map(SPEC, 16, data.shape[1], seed), data)
    return nystrom_train(SPEC, c=8, k=5, seed=seed, stream=data)


def _reconstruct(model, data):
    if hasattr(model, "reconstruct_gram"):
        return model.reconstruct_gram(data)
    return model.reconstruct(data)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=200),
    kind=st.sampled_from(["skpca", "rnca", "nystrom", "zero", "rank_one"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_spectral_error_never_reads_low(n, kind, seed):
    data = gaussian_mixture(n, 3, seed=seed)
    g = gram(SPEC, data)
    if kind == "zero":
        gp = g.copy()
    elif kind == "rank_one":
        u = np.random.default_rng(seed).standard_normal(n)
        gp = g - np.outer(u, u)
    else:
        gp = _reconstruct(_model(kind, data, seed), data)
    dense = float(np.max(np.abs(np.linalg.eigvalsh(g - gp)))) / n
    assert spectral_error(g, gp) >= dense * (1 - 1e-12)


def _grid_case(cell: BenchmarkCell, data, k: int, seed: int):
    """The grid's report for one cell, and the same cell's model retrained."""
    [report] = run_benchmark(
        [cell], data, data[:5], k=k, kernel=SPEC, seed=seed, timing_reps=1
    )
    cell_seed = substream_seed(seed, "benchmark_cell", 0)
    if cell.method == "skpca":
        model = train(SkpcaConfig(kernel=SPEC, seed=cell_seed, m=cell.m, ell=cell.ell), data)
        gp = model.reconstruct_gram(data)
    elif cell.method == "rnca":
        model = rnca_train(sample_feature_map(SPEC, cell.m, data.shape[1], cell_seed), data)
        gp = model.reconstruct(data, k=cell.k)
    else:
        model = nystrom_train(SPEC, cell.c, cell.k or cell.c, cell_seed, data)
        gp = model.reconstruct(data)
    return report, model, gp


def _assert_grid_matches_dense(report, g, gp, k):
    n = g.shape[0]
    assert report.spectral_err == pytest.approx(spectral_error(g, gp), rel=1e-12)
    assert report.frobenius_err == pytest.approx(frobenius_error(g, gp), rel=1e-9)
    lhs, _ = rank_k_frobenius_check(g, gp, k)
    assert report.rank_k_frobenius == pytest.approx(lhs / n**2, rel=1e-9)


class TestGridMatchesDense:
    @pytest.mark.parametrize("k", [3, 10])  # 10 > ell = rank(F)
    def test_skpca(self, k):
        data = gaussian_mixture(150, 4, seed=1)
        cell = BenchmarkCell(method="skpca", m=48, ell=6)
        report, _, gp = _grid_case(cell, data, k, seed=2)
        _assert_grid_matches_dense(report, gram(SPEC, data), gp, k)

    @pytest.mark.parametrize("k", [3, 8])  # 8 > cell k = rank(F)
    def test_rnca_with_k_below_m(self, k):
        data = gaussian_mixture(140, 4, seed=3)
        cell = BenchmarkCell(method="rnca", m=32, k=5)
        report, _, gp = _grid_case(cell, data, k, seed=4)
        _assert_grid_matches_dense(report, gram(SPEC, data), gp, k)

    @pytest.mark.parametrize("k", [4, 50])
    def test_nystrom_with_eigenvalues_under_cutoff(self, k):
        # 80 reservoir slots over 60 points hold duplicates, so W is exactly
        # rank-deficient: some leading eigenvalues invert to zero, and the
        # factor's rank (~44 distinct points) is below k = 50
        data = gaussian_mixture(60, 2, seed=5)
        cell = BenchmarkCell(method="nystrom", c=80)
        report, model, gp = _grid_case(cell, data, k, seed=6)
        cutoff = model.c * MACHINE_EPS * model.eigvals[0]
        rank = int(np.sum(model.eigvals[: model.k] > cutoff))
        assert rank < model.k
        assert rank < 50
        _assert_grid_matches_dense(report, gram(SPEC, data), gp, k)


def _loaded(model, tmp_path):
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded, _ = load_model(path)
    return loaded


def _reference_gram(model, data):
    """The reconstructed gram by each method's direct formula, not through F."""
    if isinstance(model, NystromModel):
        c_mat = cross_gram(SPEC, data, model.samples)
        return c_mat @ model.wk_pinv @ c_mat.T
    basis = model.w if hasattr(model, "w") else model.eigvecs
    t = model.fm.apply_batch(data) @ basis
    return t @ t.T


class TestGramFactor:
    @pytest.mark.parametrize("method", ["skpca", "rnca", "nystrom"])
    def test_outer_product_is_reconstruction(self, method, tmp_path):
        data = gaussian_mixture(40, 3, seed=7)
        model = _model(method, data, seed=8)
        expected = _reconstruct(model, data)
        assert np.allclose(expected, _reference_gram(model, data), rtol=0, atol=1e-12)
        for m in (model, _loaded(model, tmp_path)):
            f = m.gram_factor(data)
            assert np.allclose(f @ f.T, expected, rtol=0, atol=1e-12)

    def test_nystrom_factor_drops_eigenvalues_under_cutoff(self):
        # near-duplicate samples put eigenvalues of W under the cutoff; their
        # directions must contribute nothing, as in wk_pinv
        data = gaussian_mixture(12, 2, seed=14)
        near = data[:3] + 1e-8 * np.random.default_rng(15).standard_normal((3, 2))
        model = NystromModel.from_samples(SPEC, np.vstack([data[:5], near]), k=8)
        cutoff = model.c * MACHINE_EPS * model.eigvals[0]
        assert np.sum(model.eigvals <= cutoff) >= 3
        f = model.gram_factor(data)
        assert np.allclose(f @ f.T, _reference_gram(model, data), rtol=0, atol=1e-10)

    def test_factor_widths(self):
        data = gaussian_mixture(30, 3, seed=9)
        assert _model("skpca", data, 1).gram_factor(data).shape == (30, 4)
        rnca = _model("rnca", data, 1)
        assert rnca.gram_factor(data).shape == (30, 16)
        assert rnca.gram_factor(data, k=3).shape == (30, 3)
        assert _model("nystrom", data, 1).gram_factor(data).shape == (30, 5)

    @pytest.mark.parametrize("method", ["skpca", "rnca", "nystrom"])
    def test_rank_k_factor_is_leading_columns(self, method):
        # a rank-k factor is the first k columns of the default factor; for
        # nystrom it equals the factor of a rank-k model on the same samples
        data = gaussian_mixture(30, 3, seed=9)
        model = _model(method, data, 1)
        full = model.gram_factor(data)
        assert np.allclose(model.gram_factor(data, k=2), full[:, :2], rtol=0, atol=1e-12)
        if method == "nystrom":
            rank2 = NystromModel.from_samples(SPEC, model.samples, k=2)
            assert np.allclose(rank2.gram_factor(data), full[:, :2], rtol=0, atol=1e-12)
        for bad in (0, model.ranks[-1] + 100):
            with pytest.raises(ContractViolationError, match="k must be in"):
                model.gram_factor(data, k=bad)

    def test_nystrom_factor_rows_are_test_loadings(self):
        # pairwise loading inner products reproduce the reconstructed gram
        data = gaussian_mixture(20, 3, seed=10)
        model = NystromModel.from_samples(SPEC, data[:6], k=4)
        f = model.gram_factor(data)
        for i in (0, 7, 19):
            _, loading = model.test(data[i])
            assert np.allclose(f[i], loading, rtol=0, atol=1e-12)


class TestOracleSpectrumOnce:
    def test_one_eigensolve_per_run(self, monkeypatch):
        calls = []
        real = evaluation._spectrum

        def counting(g):
            calls.append(g.shape)
            return real(g)

        monkeypatch.setattr(evaluation, "_spectrum", counting)
        grid = [
            BenchmarkCell(method="skpca", m=24, ell=4),
            BenchmarkCell(method="rnca", m=16),
            BenchmarkCell(method="nystrom", c=8),
        ]
        data = gaussian_mixture(60, 3, seed=11)
        run_benchmark(grid, data, data[:5], k=3, kernel=SPEC, seed=0, timing_reps=1, jobs=2)
        assert calls == [(60, 60)]

    def test_no_eigensolve_without_k(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_spectrum", None)
        data = gaussian_mixture(30, 3, seed=12)
        [report] = run_benchmark(
            [BenchmarkCell(method="rnca", m=8)], data, data[:5], kernel=SPEC, timing_reps=1
        )
        assert report.rank_k_frobenius is None

    def test_error_columns_identical_across_jobs(self):
        grid = [
            BenchmarkCell(method="skpca", m=24, ell=4),
            BenchmarkCell(method="rnca", m=16, k=4),
            BenchmarkCell(method="nystrom", c=8),
        ]
        data = gaussian_mixture(80, 3, seed=13)
        runs = [
            run_benchmark(grid, data, data[:5], k=3, kernel=SPEC, seed=5, timing_reps=1,
                          jobs=jobs)
            for jobs in (1, 2, 1)
        ]
        cols = [
            [(r.spectral_err, r.frobenius_err, r.rank_k_frobenius) for r in reports]
            for reports in runs
        ]
        assert cols[0] == cols[1] == cols[2]
