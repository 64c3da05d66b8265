import numpy as np
import pytest
from conftest import exact_phi, gaussian_mixture

from stream_kpca import (
    BenchmarkCell,
    ConfigurationError,
    ContractViolationError,
    KernelSpec,
    SkpcaConfig,
    SyntheticSpec,
    frobenius_error,
    gen_random_noisy,
    gram,
    rank_k_frobenius_check,
    run_benchmark,
    spectral_error,
    sym_eig,
    train,
    write_reports_csv,
)
from stream_kpca.evaluation import ORACLE_MAX_N_ENV, read_reports_csv
from stream_kpca.synthetic import signal_diagonal


@pytest.fixture
def spec():
    return KernelSpec(sigma=2.0)


@pytest.fixture
def small_gram(spec):
    data = gaussian_mixture(40, 3, seed=0)
    return gram(spec, data), data


class TestSpectralError:
    def test_zero_for_identical(self, small_gram):
        g, _ = small_gram
        assert spectral_error(g, g) == 0.0

    def test_rank_one_perturbation(self, small_gram):
        g, _ = small_gram
        rng = np.random.default_rng(1)
        u = rng.standard_normal(40)
        u /= np.linalg.norm(u)
        assert spectral_error(g, g - np.outer(u, u)) == pytest.approx(1.0 / 40, rel=1e-6)

    def test_matches_dense_eigensolver(self, small_gram, spec):
        g, data = small_gram
        model = train(SkpcaConfig(kernel=spec, seed=2, m=32, ell=4), data)
        gp = model.reconstruct_gram(data)
        w, _ = sym_eig(g - gp)
        oracle = float(np.max(np.abs(w))) / 40
        assert spectral_error(g, gp) == pytest.approx(oracle, rel=1e-6, abs=1e-12)

    def test_shape_mismatch(self, small_gram):
        g, _ = small_gram
        with pytest.raises(ContractViolationError):
            spectral_error(g, g[:10, :10])

    def test_rejects_asymmetric(self, small_gram):
        g, _ = small_gram
        bad = g.copy()
        bad[0, 1] += 1.0
        with pytest.raises(ContractViolationError):
            spectral_error(g, bad)


class TestSymmetryTolerance:
    """The dense API accepts asymmetry up to 1e-8 ||G||_F in either matrix and
    hands the eigensolvers the symmetrized pair."""

    @staticmethod
    def _skewed(g, rel):
        # ||m - m.T||_F = rel * ||g||_F
        rng = np.random.default_rng(9)
        r = rng.standard_normal(g.shape)
        skew = (r - r.T) / 2.0
        return g + skew * (rel * np.linalg.norm(g) / (2.0 * np.linalg.norm(skew)))

    @pytest.mark.parametrize("which", [0, 1])
    def test_small_asymmetry_accepted_by_all(self, small_gram, spec, which):
        g, data = small_gram
        gp = train(SkpcaConfig(kernel=spec, seed=2, m=32, ell=4), data).reconstruct_gram(data)
        pair = [g, gp]
        pair[which] = self._skewed(pair[which], 1e-9)
        assert spectral_error(*pair) > 0.0
        assert frobenius_error(*pair) > 0.0
        lhs, rhs = rank_k_frobenius_check(*pair, 3)
        assert lhs <= rhs

    @pytest.mark.parametrize("which", [0, 1])
    def test_large_asymmetry_rejected(self, small_gram, which):
        g, _ = small_gram
        pair = [g, g.copy()]
        pair[which] = self._skewed(pair[which], 1e-7)
        with pytest.raises(ContractViolationError, match="not symmetric"):
            spectral_error(*pair)
        with pytest.raises(ContractViolationError, match="not symmetric"):
            rank_k_frobenius_check(*pair, 3)


class TestFrobeniusError:
    def test_zero_for_identical(self, small_gram):
        g, _ = small_gram
        assert frobenius_error(g, g) == 0.0

    def test_hand_case(self):
        g = np.eye(2)
        gp = g - np.ones((2, 2))
        # ||ones(2,2)||_F = 2, divided by n^2 = 4
        assert frobenius_error(g, gp) == pytest.approx(0.5)

    def test_norm_ordering(self, small_gram, spec):
        g, data = small_gram
        model = train(SkpcaConfig(kernel=spec, seed=3, m=32, ell=4), data)
        gp = model.reconstruct_gram(data)
        n = 40
        assert spectral_error(g, gp) * n <= frobenius_error(g, gp) * n**2 + 1e-12


class TestRankKFrobeniusCheck:
    def test_identical_matrices(self, small_gram):
        g, _ = small_gram
        lhs, rhs = rank_k_frobenius_check(g, g, 3)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_skpca_output_satisfies_bound(self, spec):
        data = gaussian_mixture(300, 5, seed=4)
        g = gram(spec, data)
        model = train(SkpcaConfig(kernel=spec, seed=5, m=256, ell=8), data)
        gp = model.reconstruct_gram(data)
        for k in (2, 5):
            lhs, rhs = rank_k_frobenius_check(g, gp, k)
            assert lhs <= rhs + 1e-6 * 300

    def test_full_rank_consistency(self, small_gram, spec):
        # k = n: lhs = ||G - G'||_F <= measured ||G - G'||_2 * sqrt(n)
        g, data = small_gram
        model = train(SkpcaConfig(kernel=spec, seed=6, m=32, ell=4), data)
        gp = model.reconstruct_gram(data)
        lhs, rhs = rank_k_frobenius_check(g, gp, 40)
        measured = spectral_error(g, gp) * 40
        assert lhs <= measured * np.sqrt(40) + 1e-9

    def test_k_out_of_range(self, small_gram):
        g, _ = small_gram
        with pytest.raises(ContractViolationError):
            rank_k_frobenius_check(g, g, 41)


class TestGtoPhiIdentity:
    def test_spectral_norm_as_direction_maximum(self, spec):
        # ||G - G'||_2 equals the largest |  ||Phi^T v||^2 - ||Y^T v||^2  |
        # over the eigenvectors v of the difference
        data = gaussian_mixture(50, 4, seed=7)
        g = gram(spec, data)
        model = train(SkpcaConfig(kernel=spec, seed=8, m=40, ell=6), data)
        z = model.fm.apply_batch(data)
        y = z @ model.w
        gp = y @ y.T
        phi = exact_phi(g)
        diff = g - (gp + gp.T) / 2.0
        w, v = sym_eig(diff)
        gaps = [
            abs(np.linalg.norm(phi.T @ v[:, i]) ** 2 - np.linalg.norm(y.T @ v[:, i]) ** 2)
            for i in range(50)
        ]
        measured = spectral_error(g, (gp + gp.T) / 2.0) * 50
        assert max(gaps) == pytest.approx(measured, abs=1e-6 * 50)


class TestRandomNoisy:
    def test_shape(self):
        a = gen_random_noisy(SyntheticSpec(n=30, d=8, s=3, seed=0))
        assert a.shape == (30, 8)

    def test_noise_free_limit_is_low_rank(self):
        a = gen_random_noisy(SyntheticSpec(n=40, d=12, s=4, zeta=1e15, seed=1))
        svals = np.linalg.svd(a, compute_uv=False)
        assert np.all(svals[4:] <= 1e-8 * svals[0])

    def test_signal_diagonal_values(self):
        d = signal_diagonal(50, 1000)
        assert d[0] == 1.0
        assert d[1] == pytest.approx(0.999)

    def test_rejects_s_at_least_d(self):
        with pytest.raises(ConfigurationError):
            SyntheticSpec(n=10, d=5, s=5)

    def test_rejects_bad_zeta(self):
        with pytest.raises(ConfigurationError):
            SyntheticSpec(n=10, d=5, s=2, zeta=0.0)

    def test_deterministic(self):
        a = gen_random_noisy(SyntheticSpec(n=20, d=7, s=2, seed=9))
        b = gen_random_noisy(SyntheticSpec(n=20, d=7, s=2, seed=9))
        assert np.array_equal(a, b)


def small_noisy(n=120, d=10, seed=0):
    return gen_random_noisy(SyntheticSpec(n=n, d=d, s=4, seed=seed))


class TestRunBenchmark:
    def test_empty_grid(self):
        assert run_benchmark([], small_noisy(), small_noisy(20), seed=0) == []

    def test_single_skpca_cell_smoke(self, spec):
        reports = run_benchmark(
            [BenchmarkCell(method="skpca", m=48, ell=6)],
            small_noisy(500),
            small_noisy(20, seed=1),
            k=3,
            kernel=spec,
            seed=0,
            timing_reps=1,
        )
        assert len(reports) == 1
        rep = reports[0]
        assert rep.method == "skpca"
        assert rep.spectral_err >= 0.0
        assert rep.frobenius_err >= 0.0
        assert rep.rank_k_frobenius is not None and rep.rank_k_frobenius >= 0.0
        assert rep.space_entries == 48 * 10 + 48 * 6
        assert rep.train_seconds >= 0.0 and rep.test_seconds >= 0.0
        assert rep.n == 500 and rep.d == 10

    def test_train_time_ordering_skpca_vs_rnca(self, spec):
        # cost model O(n m ell) vs O(n m^2) at equal m with ell << m
        reports = run_benchmark(
            [
                BenchmarkCell(method="skpca", m=384, ell=4),
                BenchmarkCell(method="rnca", m=384),
            ],
            small_noisy(600, seed=2),
            small_noisy(30, seed=3),
            kernel=spec,
            seed=0,
            timing_reps=1,
        )
        assert reports[0].train_seconds < reports[1].train_seconds

    def test_determinism_up_to_wall_clock(self, spec):
        grid = [
            BenchmarkCell(method="skpca", m=32, ell=4),
            BenchmarkCell(method="rnca", m=32),
            BenchmarkCell(method="nystrom", c=16),
        ]
        a = run_benchmark(grid, small_noisy(), small_noisy(20, seed=4),
                          kernel=spec, seed=7, timing_reps=1)
        b = run_benchmark(grid, small_noisy(), small_noisy(20, seed=4),
                          kernel=spec, seed=7, timing_reps=1)
        for ra, rb in zip(a, b):
            assert ra.spectral_err == rb.spectral_err
            assert ra.frobenius_err == rb.frobenius_err
            assert ra.seed == rb.seed

    def test_jobs_preserve_order_and_values(self, spec):
        grid = [
            BenchmarkCell(method="nystrom", c=12),
            BenchmarkCell(method="skpca", m=24, ell=4),
        ]
        serial = run_benchmark(grid, small_noisy(), small_noisy(20, seed=5),
                               kernel=spec, seed=3, timing_reps=1)
        threaded = run_benchmark(grid, small_noisy(), small_noisy(20, seed=5),
                                 kernel=spec, seed=3, timing_reps=1, jobs=2)
        assert [r.method for r in threaded] == [r.method for r in serial]
        for ra, rb in zip(serial, threaded):
            assert ra.spectral_err == rb.spectral_err

    @pytest.mark.parametrize("k", [0, -3, 41])
    def test_k_outside_one_to_n(self, spec, k):
        with pytest.raises(ConfigurationError, match=r"k must be in \[1, 40\]"):
            run_benchmark([BenchmarkCell(method="nystrom", c=8)], small_noisy(40),
                          small_noisy(5, seed=1), k=k, kernel=spec, timing_reps=1)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one(self, spec, jobs):
        with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
            run_benchmark([BenchmarkCell(method="nystrom", c=8)], small_noisy(40),
                          small_noisy(5, seed=1), kernel=spec, jobs=jobs, timing_reps=1)

    def test_oracle_guard(self, spec, monkeypatch):
        monkeypatch.setenv(ORACLE_MAX_N_ENV, "50")
        with pytest.raises(ConfigurationError, match="ORACLE_MAX_N"):
            run_benchmark(
                [BenchmarkCell(method="rnca", m=8)],
                small_noisy(60, seed=6),
                small_noisy(10, seed=7),
                kernel=spec,
                seed=0,
            )

    def test_sketch_size_monotonicity(self, spec):
        # skpca spectral error is non-increasing in ell at fixed m (median of 5 seeds)
        data = gaussian_mixture(150, 4, seed=8)
        tst = gaussian_mixture(20, 4, seed=9)
        errs = {4: [], 16: []}
        for seed in range(5):
            reports = run_benchmark(
                [
                    BenchmarkCell(method="skpca", m=128, ell=4),
                    BenchmarkCell(method="skpca", m=128, ell=16),
                ],
                data,
                tst,
                kernel=spec,
                seed=seed,
                timing_reps=1,
            )
            errs[4].append(reports[0].spectral_err)
            errs[16].append(reports[1].spectral_err)
        assert np.median(errs[16]) <= np.median(errs[4]) + 1e-12


class TestCellValidation:
    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            BenchmarkCell(method="kpca")

    def test_skpca_needs_m_and_ell(self):
        with pytest.raises(ConfigurationError):
            BenchmarkCell(method="skpca", m=32)

    def test_nystrom_needs_c(self):
        with pytest.raises(ConfigurationError):
            BenchmarkCell(method="nystrom")

    @pytest.mark.parametrize(
        "sizes",
        [
            {"method": "skpca", "m": 64, "ell": 7},
            {"method": "nystrom", "c": 8, "k": 20},
            {"method": "rnca", "m": 0},
            # the scored rank k must be an integer in [1, ell] or [1, m]
            {"method": "skpca", "m": 64, "ell": 8, "k": 20},
            {"method": "rnca", "m": 16, "k": 40},
            {"method": "rnca", "m": 16, "k": 0},
            {"method": "rnca", "m": 16, "k": 2.5},
        ],
    )
    def test_bad_sizes_refused_when_built(self, sizes):
        with pytest.raises(ConfigurationError):
            BenchmarkCell(**sizes)


class TestReportWriters:
    def make_reports(self, spec):
        return run_benchmark(
            [BenchmarkCell(method="rnca", m=16), BenchmarkCell(method="nystrom", c=8)],
            small_noisy(40, seed=10),
            small_noisy(10, seed=11),
            k=2,
            kernel=spec,
            seed=0,
            timing_reps=1,
        )

    def test_csv_round_trip(self, spec, tmp_path):
        reports = self.make_reports(spec)
        path = tmp_path / "report.csv"
        write_reports_csv(reports, path)
        rows = read_reports_csv(path)
        assert len(rows) == 2
        assert rows[0]["method"] == "rnca"
        assert float(rows[0]["spectral_err"]) == reports[0].spectral_err
        assert rows[1]["c"] == "8"
        assert rows[0]["c"] == ""
