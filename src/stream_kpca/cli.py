"""Command-line front end: data generation, training, testing, benchmarks.

Every command is deterministic given its flags and --seed (wall-clock
output aside); all randomness flows through named sub-streams derived from
the single seed.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time

import numpy as np

from . import evaluation
from .dataio import (
    atomic_text,
    count_csv_rows,
    iter_csv_rows,
    read_matrix_csv,
    row_template,
    write_matrix_csv,
)
from .errors import ConfigurationError, ContractViolationError, NumericalFailureError
from .kernels import KernelSpec
from .methods import METHODS, MODELS
from .persist import load_model, save_model
from .seeds import substream_seed
from .skpca import eps_delta_given
from .synthetic import SyntheticSpec, gen_random_noisy


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stream-kpca",
        description="Streaming kernel PCA, baselines, and benchmarks over CSV data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    g = sub.add_parser(
        "gen-data",
        help="generate a synthetic low-rank-plus-noise dataset",
        formatter_class=fmt,
    )
    g.add_argument("--output", required=True, help="destination CSV path")
    g.add_argument("--n", type=int, required=True, help="number of points")
    g.add_argument("--d", type=int, required=True, help="ambient dimension")
    g.add_argument("--s", type=int, default=50, help="signal dimension (< d)")
    g.add_argument("--zeta", type=float, default=10.0, help="noise divisor")
    g.add_argument("--seed", type=int, default=0, help="master RNG seed")
    g.add_argument("--header", action="store_true", help="write a c0..c{d-1} header row")

    t = sub.add_parser("train", help="train a model from a CSV stream", formatter_class=fmt)
    t.add_argument("--input", required=True, help="training CSV path")
    t.add_argument("--output", required=True, help="model file to write")
    t.add_argument("--method", choices=METHODS, default="skpca", help="training method")
    t.add_argument("--m", type=int, default=None, help="feature count (skpca/rnca)")
    t.add_argument("--ell", type=int, default=None, help="sketch size (skpca)")
    t.add_argument("--c", type=int, default=None, help="sample count (nystrom)")
    t.add_argument("--k", type=int, default=None, help="rank (nystrom; defaults to c)")
    t.add_argument("--sigma", type=float, default=1.0, help="kernel bandwidth")
    t.add_argument("--eps", type=float, default=None, help="error parameter in (0,1)")
    t.add_argument("--delta", type=float, default=None, help="failure probability in (0,1)")
    t.add_argument("--seed", type=int, default=0, help="master RNG seed")
    t.add_argument("--header", action="store_true", help="input has a header row")
    t.add_argument("--drop-first-col", action="store_true", help="skip a leading label column")
    t.add_argument(
        "--center",
        action="store_true",
        help="subtract the column means (costs an extra pass over the input)",
    )

    s = sub.add_parser("test", help="project test points through a model", formatter_class=fmt)
    s.add_argument("--model", required=True, help="model file from train")
    s.add_argument("--input", required=True, help="test CSV path")
    s.add_argument("--output", required=True, help="loadings CSV to write")
    s.add_argument("--k", type=int, default=None, help="number of loading coordinates")
    s.add_argument("--header", action="store_true", help="input has a header row")
    s.add_argument("--drop-first-col", action="store_true", help="skip a leading label column")

    b = sub.add_parser(
        "benchmark",
        help="run a (method x sample-size) grid against the exact gram oracle",
        formatter_class=fmt,
    )
    b.add_argument("--input", required=True, help="data CSV path")
    b.add_argument("--output", required=True, help="report CSV to write")
    b.add_argument("--method", default="skpca,rnca,nystrom", help="comma-separated methods")
    b.add_argument("--m", default="64,128", help="comma-separated sample sizes")
    b.add_argument("--ell", default="10", help="comma-separated sketch sizes (skpca)")
    b.add_argument("--c", default=None, help="comma-separated nystrom sizes (default: --m)")
    b.add_argument("--k", type=int, default=None, help="rank for rank-k error column")
    b.add_argument("--sigma", type=float, default=1.0, help="kernel bandwidth")
    b.add_argument("--seed", type=int, default=0, help="master RNG seed")
    b.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker threads; above 1, timed cells run at once and their timings inflate",
    )
    b.add_argument("--header", action="store_true", help="input has a header row")
    b.add_argument("--drop-first-col", action="store_true", help="skip a leading label column")
    b.add_argument("--center", action="store_true", help="subtract column means before the run")
    return parser


def cmd_gen_data(args) -> int:
    spec = SyntheticSpec(
        n=args.n,
        d=args.d,
        s=args.s,
        zeta=args.zeta,
        seed=substream_seed(args.seed, "data_gen"),
    )
    data = gen_random_noisy(spec)
    write_matrix_csv(args.output, data, header=args.header)
    print(f"wrote {args.n} x {args.d} synthetic points to {args.output}")
    return 0


def _input_rows(args):
    return iter_csv_rows(args.input, drop_first_col=args.drop_first_col, header=args.header)


def _mean_pass(args) -> tuple[np.ndarray, int]:
    total = None
    count = 0
    for row in _input_rows(args):
        total = row.copy() if total is None else total + row
        count += 1
    if count == 0:
        raise ContractViolationError(f"{args.input}: no data rows")
    return total / count, count


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def cmd_train(args) -> int:
    kernel = KernelSpec(sigma=args.sigma)
    model_cls = MODELS[args.method]
    for name in ("m", "ell", "c", "k"):
        if name not in model_cls.sizes:
            _require(getattr(args, name) is None, f"--{name} does not apply to {args.method}")
    given = {name: getattr(args, name) for name in model_cls.sizes}
    # every size and the seed are checked before the input is read, but sizes derived from
    # (eps, delta) depend on n, so they are settled after the mean or a counting pass
    derive = eps_delta_given(args.eps, args.delta)
    sizes = None if derive else model_cls.resolve(given)
    seed = substream_seed(args.seed, model_cls.seed_stream)

    center = n = None
    if args.center:
        center, n = _mean_pass(args)
    elif derive:
        n = count_csv_rows(args.input, header=args.header)
        _require(n > 0, f"{args.input}: no data rows")
    if derive:
        sizes = model_cls.resolve(given, args.eps, args.delta, n)

    rows = _input_rows(args)
    if center is not None:
        rows = (row - center for row in rows)
    start = time.perf_counter()
    model = model_cls.fit(kernel, seed, rows, **sizes)
    elapsed = time.perf_counter() - start
    save_model(model, args.output, center=center)
    shown = " ".join(f"{name}={value}" for name, value in sizes.items())
    print(
        f"trained method={args.method} n={model.n_seen} d={model.d} {shown} "
        f"seconds={elapsed:.6f} space_entries={model.space}"
    )
    return 0


def cmd_test(args) -> int:
    model, center = load_model(args.model)
    k = model.ranks[-1] if args.k is None else args.k
    # a k outside the model's ranks is refused by answer() before any write,
    # so it gets no template (one for a huge --k would not fit in memory)
    template = row_template(k + 1) if k in model.ranks else ""
    # each row is written as it is answered; the timer covers reading and answering
    with atomic_text(args.output) as fh:
        count, elapsed = 0, 0.0
        start = time.perf_counter()
        for count, row in enumerate(_input_rows(args), 1):
            if row.size != model.d:
                raise ContractViolationError(
                    f"{args.input}: row {count - 1} has dimension {row.size}, "
                    f"model expects {model.d}"
                )
            loading, residual = model.answer(row if center is None else row - center, k)
            elapsed += time.perf_counter() - start
            fh.write(template % (*loading.tolist(), residual))
            start = time.perf_counter()
        elapsed += time.perf_counter() - start
        if not count:
            raise ContractViolationError(f"{args.input}: no data rows")
    print(
        f"tested n={count} k={k} total_seconds={elapsed:.6f} "
        f"per_point_seconds={elapsed / count:.9f}"
    )
    return 0


def _parse_int_list(raw: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigurationError(f"{flag} expects comma-separated integers, got {raw!r}") from None
    if not values:
        raise ConfigurationError(f"{flag} lists no values")
    return values


def cmd_benchmark(args) -> int:
    methods = [part.strip() for part in args.method.split(",") if part.strip()]
    for method in methods:
        if method not in METHODS:
            raise ConfigurationError(f"unknown method {method!r}; expected one of {METHODS}")
    sizes = _parse_int_list(args.m, "--m")
    ells = _parse_int_list(args.ell, "--ell")
    even_ells = [ell + ell % 2 for ell in ells]
    csizes = _parse_int_list(args.c, "--c") if args.c is not None else sizes
    kernel = KernelSpec(sigma=args.sigma)
    # k's upper bound, the training row count, is checked once the data is read
    _require(args.k is None or args.k >= 1, f"k must be in [1, n] for n rows, got {args.k}")
    _require(args.jobs >= 1, f"jobs must be >= 1, got {args.jobs}")

    # a method's cells: every combination of its sizes' values; k takes its default
    values = {"m": sizes, "ell": even_ells, "c": csizes, "k": [None]}
    grid = [
        evaluation.BenchmarkCell(method=method, **dict(zip(MODELS[method].sizes, combo)))
        for method in methods
        for combo in itertools.product(*(values[name] for name in MODELS[method].sizes))
    ]

    rng = np.random.default_rng(substream_seed(args.seed, "test_split"))
    data = read_matrix_csv(args.input, drop_first_col=args.drop_first_col, header=args.header)
    if args.center:
        data = data - data.mean(axis=0)
    n = data.shape[0]
    _require(n >= 2, "benchmark needs at least 2 rows")
    test_size = min(1000, max(1, n // 5))
    perm = rng.permutation(n)
    test_set = data[perm[:test_size]]
    train_set = data[perm[test_size:]]

    reports = evaluation.run_benchmark(
        grid,
        train_set,
        test_set,
        k=args.k,
        kernel=kernel,
        seed=args.seed,
        jobs=args.jobs,
    )
    evaluation.write_reports_csv(reports, args.output)
    for ell in ells:
        if ell % 2:
            print(f"note: odd sketch size ell={ell} rounded up to {ell + 1}")
    print(
        f"benchmarked {len(reports)} cells on n={train_set.shape[0]} train / "
        f"{test_set.shape[0]} test points; report at {args.output}"
    )
    return 0


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "test": cmd_test,
    "benchmark": cmd_benchmark,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = COMMANDS[args.command]
    try:
        return handler(args)
    except (ContractViolationError, ConfigurationError, NumericalFailureError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: OSError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
