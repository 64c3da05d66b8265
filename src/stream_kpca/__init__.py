"""Streaming kernel PCA with random Fourier features and a Frequent
Directions sketch, plus RNCA and Nystrom baselines and a benchmark harness.
"""

from .baselines import (
    NystromModel,
    RncaModel,
    nystrom_space_entries,
    reservoir_sample,
    rnca_space_entries,
    rnca_train,
)
from .errors import ConfigurationError, ContractViolationError, NumericalFailureError
from .evaluation import (
    BenchmarkCell,
    ErrorReport,
    frobenius_error,
    rank_k_frobenius_check,
    run_benchmark,
    spectral_error,
    write_reports_csv,
)
from .fd import FdSketch
from .kernels import KernelSpec, cross_gram, eval_kernel, gram
from .numerics import (
    spectral_norm,
    sym_eig,
    sym_eig_top,
    sym_spectral_norm,
    thin_svd,
)
from .persist import load_model, save_model
from .rff import FeatureMap, sample_feature_map
from .skpca import (
    SkpcaConfig,
    SkpcaModel,
    derive_feature_count,
    derive_sketch_size,
    space_entries,
    train,
)
from .synthetic import SyntheticSpec, gen_random_noisy

__version__ = "0.1.0"

__all__ = [
    "BenchmarkCell",
    "ConfigurationError",
    "ContractViolationError",
    "ErrorReport",
    "FdSketch",
    "FeatureMap",
    "KernelSpec",
    "NumericalFailureError",
    "NystromModel",
    "RncaModel",
    "SkpcaConfig",
    "SkpcaModel",
    "SyntheticSpec",
    "cross_gram",
    "derive_feature_count",
    "derive_sketch_size",
    "eval_kernel",
    "frobenius_error",
    "gen_random_noisy",
    "gram",
    "load_model",
    "nystrom_space_entries",
    "rank_k_frobenius_check",
    "reservoir_sample",
    "rnca_space_entries",
    "rnca_train",
    "run_benchmark",
    "sample_feature_map",
    "save_model",
    "space_entries",
    "spectral_error",
    "spectral_norm",
    "sym_eig",
    "sym_eig_top",
    "sym_spectral_norm",
    "thin_svd",
    "train",
    "write_reports_csv",
]
