"""Factored scoring: the grid scores each cell from its thin gram factor F.

The grid's report must agree with the dense public error measures applied
to the same model's reconstructed gram (and the factor scorer with them for
any factor), and the Lanczos spectral error must never read below a dense
eigensolver on G - G'.
"""

import numpy as np
import pytest
from conftest import dense_wk_pinv, gaussian_mixture
from hypothesis import example, given, settings
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
    rank_k_frobenius_check,
    rnca_train,
    run_benchmark,
    sample_feature_map,
    save_model,
    spectral_error,
    train,
)
from stream_kpca import evaluation
from stream_kpca.numerics import MACHINE_EPS, factor_gram
from stream_kpca.seeds import substream_seed

SPEC = KernelSpec(sigma=2.0)


def _model(method: str, data: np.ndarray, seed: int):
    if method == "skpca":
        return train(SkpcaConfig(kernel=SPEC, seed=seed, m=24, ell=4), data)
    if method == "rnca":
        return rnca_train(sample_feature_map(SPEC, 16, data.shape[1], seed), data)
    return NystromModel.fit(SPEC, seed, data, c=8, k=5)


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
        model = NystromModel.fit(SPEC, cell_seed, data, c=cell.c, k=cell.k or cell.c)
        gp = model.reconstruct(data)
    return report, model, gp


def _assert_grid_matches_dense(report, g, gp, k):
    n = g.shape[0]
    assert report.spectral_err == pytest.approx(spectral_error(g, gp), rel=1e-12)
    assert report.frobenius_err == pytest.approx(frobenius_error(g, gp), rel=1e-9)
    lhs, _ = rank_k_frobenius_check(g, gp, k)
    assert report.rank_k_frobenius == pytest.approx(lhs / n**2, rel=1e-9)


@settings(max_examples=80, deadline=None, database=None)
@given(
    n=st.integers(min_value=2, max_value=150),
    width=st.integers(min_value=1, max_value=12),
    kind=st.sampled_from(["random", "zero", "repeated"]),
    k=st.integers(min_value=1, max_value=150),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(n=150, width=3, kind="random", k=9, seed=0)  # k above the width, Lanczos solves
@example(n=12, width=12, kind="repeated", k=12, seed=1)  # k = n, rank below the width
@example(n=20, width=4, kind="zero", k=6, seed=2)
# lhs 1.764 > tail 0.303 + spectral 1.337: the pair breaks criterion 6's inequality
@example(n=2, width=6, kind="random", k=1, seed=18271)
def test_score_factor_matches_dense(n, width, kind, k, seed):
    # the scorer the grid and criteria 5-6 use, against the dense public
    # measures on the same G' = F F^T. It only measures, so a pair that
    # breaks the rank-k inequality of criterion 6 is scored too
    k = min(k, n)
    data = gaussian_mixture(n, 3, seed=seed)
    g = gram(SPEC, data)
    f = 0.3 * np.random.default_rng(seed).standard_normal((n, width))
    if kind == "zero":
        f[:] = 0.0
    elif kind == "repeated":
        f[:, 1::2] = f[:, :1]
    gp = factor_gram(f)
    spectral, frobenius, rank_k = evaluation._score_factor(g, f, k)
    # both paths subtract the same array, so the first two agree bit for bit
    assert spectral == spectral_error(g, gp)
    assert frobenius == frobenius_error(g, gp)
    lhs, _ = rank_k_frobenius_check(g, gp, k)
    floor = 1e-12 * float(np.linalg.norm(g)) / n**2
    assert rank_k == pytest.approx(lhs / n**2, rel=1e-9, abs=floor)
    # Eckart-Young: no rank-k matrix is nearer the PSD G than G_k, its top k
    # eigenpairs, so the score must not read below G's tail. A G' whose
    # rank-k part is G_k sits at equality, hence the rounding slack floor
    tail = evaluation._rank_k_gap(g, g, k)
    assert rank_k >= tail / n**2 - floor


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
        return c_mat @ dense_wk_pinv(gram(SPEC, model.samples), model.k) @ c_mat.T
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
        # directions must contribute nothing, as in pinv(W_k)
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

    @pytest.mark.parametrize("method", ["skpca", "rnca", "nystrom"])
    def test_factor_rows_are_answer_loadings(self, method):
        # pairwise loading inner products reproduce the reconstructed gram;
        # 600 rows cross the 256-row lift boundary
        data = gaussian_mixture(600, 3, seed=10)
        model = _model(method, data, 1)
        k = model.ranks[-1]
        f = model.gram_factor(data)
        for i in (0, 255, 256, 599):
            loading, _ = model.answer(data[i], k)
            assert np.allclose(f[i], loading, rtol=0, atol=1e-12)


class TestOracleSpectrumOnce:
    def test_one_eigensolve_per_run(self, monkeypatch):
        # the rank-k error needs only each cell's factor: the oracle is never
        # eigensolved, neither once per run nor per cell
        calls = []
        real = evaluation._rank_k_gap

        def counting(g, x, k):
            calls.append(g.shape)
            return real(g, x, k)

        monkeypatch.setattr(evaluation, "_rank_k_gap", counting)
        grid = [
            BenchmarkCell(method="skpca", m=24, ell=4),
            BenchmarkCell(method="rnca", m=16),
            BenchmarkCell(method="nystrom", c=8),
        ]
        data = gaussian_mixture(60, 3, seed=11)
        run_benchmark(grid, data, data[:5], k=3, kernel=SPEC, seed=0, timing_reps=1, jobs=2)
        assert calls == []

    def test_no_eigensolve_without_k(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_rank_k_gap", None)
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
