"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Heavy shared artifacts (the n=2000 runs, the cost
benchmark at n=20000) are session fixtures so related criteria reuse them.
"""

import math
import time

import numpy as np
import pytest
from conftest import eval_kernel, gaussian_mixture, read_reports_csv

import stream_kpca as sk
from stream_kpca import evaluation
from stream_kpca.cli import main as cli_main
from stream_kpca.evaluation import TIMING_COLUMNS

SIGMA = 3.0  # bandwidth for the mixture data sets (recorded here, fixed)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} ({name}): {status} [{detail}]")


# ----------------------------------------------------------------------
# criterion 1: RFF unbiasedness
# ----------------------------------------------------------------------


def test_criterion_01_rff_unbiasedness():
    spec = sk.KernelSpec(sigma=1.0)
    rng = np.random.default_rng(2024)
    pairs = [(rng.standard_normal(5) * 0.7, rng.standard_normal(5) * 0.7) for _ in range(10)]
    start = time.perf_counter()
    worst = 0.0
    for x, y in pairs:
        exact = eval_kernel(spec, x, y)
        estimates = []
        for seed in range(50):
            fm = sk.sample_feature_map(spec, m=2000, d=5, seed=seed)
            estimates.append(float(fm.apply(x) @ fm.apply(y)))
        worst = max(worst, abs(float(np.mean(estimates)) - exact))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.01 and elapsed < 30.0
    report(1, "rff unbiasedness", ok, f"worst |mean-K|={worst:.5f}, {elapsed:.1f}s")
    assert worst <= 0.01
    assert elapsed < 30.0


# ----------------------------------------------------------------------
# criterion 2: for-all spectral bound for the feature matrix
# ----------------------------------------------------------------------


def test_criterion_02_for_all_spectral_bound():
    eps, delta, n = 0.25, 0.1, 300
    m = sk.derive_feature_count(eps, delta, n)
    assert m == 1532  # ceil(((9 + 8 eps)/eps^2) ln(2n/delta))
    spec = sk.KernelSpec(sigma=SIGMA)
    data = gaussian_mixture(n, 10, seed=7)
    g = sk.gram(spec, data)
    start = time.perf_counter()
    passes = 0
    worst = 0.0
    for seed in range(20):
        fm = sk.sample_feature_map(spec, m=m, d=10, seed=seed)
        z = fm.apply_batch(data)
        err = sk.spectral_error(g, z @ z.T)
        worst = max(worst, err)
        passes += err <= eps
    elapsed = time.perf_counter() - start
    ok = passes >= 18 and elapsed < 300.0
    report(2, "for-all spectral bound", ok,
           f"{passes}/20 runs <= {eps}, worst={worst:.4f}, {elapsed:.1f}s")
    assert passes >= 18
    assert elapsed < 300.0


# ----------------------------------------------------------------------
# criteria 3 + 4: deterministic sketch guarantees on shared streams
# ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def fd_streams():
    streams = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        a = rng.standard_normal((500, 60))
        sketches = {}
        for ell in (8, 16):
            fd = sk.FdSketch(ell, 60)
            for row in a:
                fd.insert(row)
            sketches[ell] = fd
        streams.append((seed, a, sketches))
    return streams


def test_criterion_03_fd_deterministic_guarantee(fd_streams):
    start = time.perf_counter()
    failures = 0
    worst_ratio = 0.0
    for seed, a, sketches in fd_streams:
        svals = np.linalg.svd(a, compute_uv=False)
        probe_rng = np.random.default_rng(2000 + seed)
        for ell, fd in sketches.items():
            diff = a.T @ a - fd.b.T @ fd.b
            diff = (diff + diff.T) / 2.0
            w, v = np.linalg.eigh(diff)
            probes = probe_rng.standard_normal((200, 60))
            probes /= np.linalg.norm(probes, axis=1, keepdims=True)
            probes = np.vstack([probes, v[:, -5:].T])  # top-5 eigendirections
            gaps = np.einsum("ij,jk,ik->i", probes, diff, probes)
            worst = float(np.max(gaps))
            for k in (0, 2, 4):
                bound = float(np.sum(svals[k:] ** 2)) / (ell - k)
                worst_ratio = max(worst_ratio, worst / bound)
                if worst > bound + 1e-8:
                    failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 120.0
    report(3, "fd deterministic guarantee", ok,
           f"{failures} failures, worst gap/bound={worst_ratio:.3f}, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 120.0


def test_criterion_04_sketch_step_bound(fd_streams):
    start = time.perf_counter()
    failures = 0
    worst_ratio = 0.0
    for _, a, sketches in fd_streams:
        mass = float(np.sum(a**2))
        zz = a @ a.T
        for ell, fd in sketches.items():
            w, _ = fd.basis()
            zw = a @ w
            gap = sk.spectral_norm(zz - zw @ zw.T)
            bound = (2.0 / ell) * mass
            worst_ratio = max(worst_ratio, gap / bound)
            if gap > bound:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 120.0
    report(4, "sketch step bound", ok,
           f"{failures} failures, worst gap/bound={worst_ratio:.3f}, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 120.0


# ----------------------------------------------------------------------
# criteria 5 + 6: end-to-end pipeline runs at n=2000
# ----------------------------------------------------------------------

EPS5, DELTA5, N5, D5, ELL5 = 0.25, 0.1, 2000, 10, 16


@pytest.fixture(scope="session")
def skpca_runs():
    """20 seeded runs scored as the benchmark grid scores a cell: from the
    model's thin gram factor F against the oracle G. Criterion 6's right-hand
    side needs G's rank-k tail ||G - G_k||_F, solved here once per k."""
    m = sk.derive_feature_count(EPS5, DELTA5, N5)
    assert m == 1866
    assert sk.derive_sketch_size(EPS5) == ELL5
    spec = sk.KernelSpec(sigma=SIGMA)
    data = gaussian_mixture(N5, D5, seed=42)
    g = sk.gram(spec, data)
    runs = []
    start = time.perf_counter()
    tails = {k: evaluation._rank_k_gap(g, g, k) for k in (5, 10)}
    for seed in range(20):
        config = sk.SkpcaConfig(kernel=spec, seed=seed, m=m, ell=ELL5)
        f = sk.train(config, data).gram_factor(data)
        checks = {}
        for k, tail in tails.items():
            spectral_err, _, rank_k = evaluation._score_factor(g, f, k)
            spectral = spectral_err * N5
            checks[k] = (rank_k * N5**2, tail + spectral * math.sqrt(k))
        runs.append({"seed": seed, "spectral": spectral, "checks": checks})
    elapsed = time.perf_counter() - start
    return {"runs": runs, "elapsed": elapsed}


def test_criterion_05_end_to_end_spectral(skpca_runs):
    runs, elapsed = skpca_runs["runs"], skpca_runs["elapsed"]
    errs = [run["spectral"] / N5 for run in runs]
    passes = sum(err <= EPS5 for err in errs)
    ok = passes >= 18 and elapsed < 900.0
    report(5, "end-to-end spectral bound", ok,
           f"{passes}/20 runs <= {EPS5}, worst={max(errs):.4f}, {elapsed:.1f}s shared")
    assert passes >= 18
    assert elapsed < 900.0


def test_criterion_06_rank_k_frobenius_bound(skpca_runs):
    failures = 0
    worst_ratio = 0.0
    for run in skpca_runs["runs"]:
        for k, (lhs, rhs) in run["checks"].items():
            worst_ratio = max(worst_ratio, lhs / rhs)
            if lhs > rhs + 1e-6 * N5:
                failures += 1
    ok = failures == 0
    report(6, "rank-k frobenius bound", ok,
           f"{failures} failures over 20 runs x k in {{5,10}}, worst lhs/rhs={worst_ratio:.3f}")
    assert failures == 0


# ----------------------------------------------------------------------
# criterion 7: Nystrom parity on the same data
# ----------------------------------------------------------------------


def test_criterion_07_nystrom_parity():
    c = math.ceil(math.log(2.0 * N5 / DELTA5) / EPS5**2)
    assert c == 170
    spec = sk.KernelSpec(sigma=SIGMA)
    data = gaussian_mixture(N5, D5, seed=42)
    g = sk.gram(spec, data)
    passes = 0
    worst = 0.0
    start = time.perf_counter()
    for seed in range(20):
        model = sk.NystromModel.fit(spec, seed, data, c=c, k=c)
        err = sk.spectral_error(g, model.reconstruct(data))
        worst = max(worst, err)
        passes += err <= EPS5
    elapsed = time.perf_counter() - start

    # full-sampling exactness at n <= 20: every point sampled once, k = c
    small = gaussian_mixture(18, 4, seed=9)
    g_small = sk.gram(spec, small)
    exact_model = sk.NystromModel.from_samples(spec, small, k=18)
    exact_gap = float(np.max(np.abs(exact_model.reconstruct(small) - g_small)))
    exact_ok = exact_gap <= 1e-6 * 18

    ok = passes >= 18 and exact_ok
    report(7, "nystrom parity", ok,
           f"{passes}/20 runs <= {EPS5}, worst={worst:.4f}; "
           f"full-sampling gap={exact_gap:.2e}, {elapsed:.1f}s")
    assert passes >= 18
    assert exact_ok


# ----------------------------------------------------------------------
# criterion 8: RNCA oracle equivalence
# ----------------------------------------------------------------------


def test_criterion_08_rnca_oracle_equivalence():
    spec = sk.KernelSpec(sigma=SIGMA)
    worst_cov = 0.0
    worst_rec = 0.0
    for seed in range(20):
        data = gaussian_mixture(60, 5, seed=300 + seed)
        fm = sk.sample_feature_map(spec, m=40, d=5, seed=seed)
        model = sk.rnca_train(fm, data)
        z = fm.apply_batch(data)
        mass = float(np.sum(z**2))
        worst_cov = max(worst_cov, float(np.linalg.norm(model.cov - z.T @ z)) / mass)
        rec = model.reconstruct(data, k=40)
        worst_rec = max(worst_rec, float(np.linalg.norm(rec - z @ z.T)) / mass)
    ok = worst_cov <= 1e-10 and worst_rec <= 1e-8
    report(8, "rnca oracle equivalence", ok,
           f"worst cov gap={worst_cov:.2e} (<=1e-10), worst recon gap={worst_rec:.2e} (<=1e-8)")
    assert worst_cov <= 1e-10
    assert worst_rec <= 1e-8


# ----------------------------------------------------------------------
# criteria 9 + 10: cost orderings and the space audit at scale
# ----------------------------------------------------------------------

N9, D9, M9, ELL9, C9 = 20000, 20, 1024, 16, 1024


@pytest.fixture(scope="session")
def cost_runs():
    spec = sk.KernelSpec(sigma=SIGMA)
    data = gaussian_mixture(N9, D9, seed=0)
    test_pts = gaussian_mixture(200, D9, seed=1)
    out = {}
    start = time.perf_counter()

    t0 = time.perf_counter()
    skpca_model = sk.train(sk.SkpcaConfig(kernel=spec, seed=2, m=M9, ell=ELL9), data)
    out["skpca_train"] = time.perf_counter() - t0
    out["skpca_peak"] = skpca_model.peak_entries

    fm = sk.sample_feature_map(spec, M9, D9, seed=2)
    t0 = time.perf_counter()
    rnca_model = sk.rnca_train(fm, data)
    out["rnca_train"] = time.perf_counter() - t0
    out["rnca_peak"] = rnca_model.peak_entries
    del rnca_model

    t0 = time.perf_counter()
    nystrom_model = sk.NystromModel.fit(spec, 3, data, c=C9, k=C9)
    out["nystrom_train"] = time.perf_counter() - t0
    out["nystrom_peak"] = nystrom_model.peak_entries

    t0 = time.perf_counter()
    for x in test_pts:
        skpca_model.project_test(x, ELL9)
    out["skpca_test_pp"] = (time.perf_counter() - t0) / len(test_pts)

    t0 = time.perf_counter()
    for x in test_pts:
        nystrom_model.test(x)
    out["nystrom_test_pp"] = (time.perf_counter() - t0) / len(test_pts)

    out["elapsed"] = time.perf_counter() - start
    return out


def test_criterion_09_cost_orderings(cost_runs):
    train_ratio = cost_runs["rnca_train"] / cost_runs["skpca_train"]
    test_ratio = cost_runs["nystrom_test_pp"] / cost_runs["skpca_test_pp"]
    elapsed = cost_runs["elapsed"]
    ok = train_ratio >= 1.5 and test_ratio >= 1.5 and elapsed < 1200.0
    report(9, "cost orderings", ok,
           f"rnca/skpca train={train_ratio:.1f}x (>=1.5), "
           f"nystrom/skpca per-point test={test_ratio:.1f}x (>=1.5), {elapsed:.1f}s")
    assert cost_runs["skpca_train"] < cost_runs["rnca_train"]
    assert train_ratio >= 1.5
    assert cost_runs["skpca_test_pp"] < cost_runs["nystrom_test_pp"]
    assert test_ratio >= 1.5
    assert elapsed < 1200.0


def test_criterion_10_space_audit(cost_runs):
    budgets = {
        "skpca": (cost_runs["skpca_peak"], 3 * sk.space_entries(M9, ELL9, D9)),
        "rnca": (cost_runs["rnca_peak"], 3 * sk.rnca_space_entries(M9, D9)),
        "nystrom": (cost_runs["nystrom_peak"], 3 * sk.nystrom_space_entries(C9, D9)),
    }
    ok = all(peak <= budget for peak, budget in budgets.values())
    detail = ", ".join(
        f"{name} {peak}/{budget}" for name, (peak, budget) in budgets.items()
    )
    report(10, "space-formula audit", ok, detail)
    for name, (peak, budget) in budgets.items():
        assert peak <= budget, f"{name}: peak {peak} exceeds 3x budget {budget}"


# ----------------------------------------------------------------------
# criterion 11: CLI round trip, byte-identical at fixed seed
# ----------------------------------------------------------------------


def _pipeline(workdir) -> dict:
    data = workdir / "data.csv"
    model = workdir / "model.json"
    loadings = workdir / "loadings.csv"
    rep = workdir / "report.csv"
    assert cli_main(["gen-data", "--output", str(data), "--n", "500", "--d", "20",
                     "--s", "10", "--seed", "13"]) == 0
    assert cli_main(["train", "--input", str(data), "--output", str(model),
                     "--method", "skpca", "--m", "128", "--ell", "8", "--seed", "13"]) == 0
    assert cli_main(["test", "--model", str(model), "--input", str(data),
                     "--output", str(loadings), "--k", "4"]) == 0
    assert cli_main(["benchmark", "--input", str(data), "--output", str(rep),
                     "--method", "skpca,rnca,nystrom", "--m", "32,64", "--ell", "6",
                     "--k", "3", "--seed", "13", "--jobs", "1"]) == 0
    return {"data": data, "model": model, "loadings": loadings, "report": rep}


def _strip_timing(report_path) -> list[str]:
    lines = report_path.read_text().strip().split("\n")
    header = lines[0].split(",")
    keep = [i for i, col in enumerate(header) if col not in TIMING_COLUMNS]
    return [",".join(line.split(",")[i] for i in keep) for line in lines]


def test_criterion_11_cli_round_trip(tmp_path):
    run1 = tmp_path / "run1"
    run2 = tmp_path / "run2"
    run1.mkdir()
    run2.mkdir()
    out1 = _pipeline(run1)
    out2 = _pipeline(run2)

    identical = all(
        out1[name].read_bytes() == out2[name].read_bytes()
        for name in ("data", "model", "loadings")
    )
    reports_match = _strip_timing(out1["report"]) == _strip_timing(out2["report"])

    rows = read_reports_csv(out1["report"])
    errors_ok = len(rows) == 6 and all(
        np.isfinite(float(row[col])) and float(row[col]) >= 0.0
        for row in rows
        for col in ("spectral_err", "frobenius_err", "rank_k_frobenius")
    )
    ok = identical and reports_match and errors_ok
    report(11, "cli round trip", ok,
           f"byte-identical={identical}, reports-match={reports_match}, "
           f"errors-ok={errors_ok} over {len(rows)} cells")
    assert identical
    assert reports_match
    assert errors_ok
