"""Versioned flat-file model persistence.

A model serializes to a single JSON record: an envelope (format, version,
method, kernel, seed, d, n_seen, peak_entries, center) plus the fields its
class writes with `record_fields` and reads back with `from_record`.
Feature maps are regenerated from their recorded (family, sigma, m, d,
seed) rather than storing the frequency matrix, so the persisted size stays
O(1) in m*d while the logical object keeps its full space accounting; the
record keeps a SHA-256 of the map's (r, gamma) bytes, and a load that draws
a different map fails. Serialization is byte-stable: identical training
inputs produce identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ContractViolationError
from .kernels import KernelSpec
from .methods import MODELS

MODEL_FORMAT = "stream-kpca-model"
MODEL_VERSION = 2


def save_model(model, path, center=None) -> None:
    record = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "method": model.method,
        "family": model.kernel.family,
        "sigma": model.kernel.sigma,
        "seed": model.seed,
        "d": model.d,
        "n_seen": model.n_seen,
        "peak_entries": model.peak_entries,
        "center": None if center is None else [float(v) for v in center],
        **model.record_fields(),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


def load_model(path):
    """Load a persisted model; returns (model, center-or-None).

    Any malformed record raises ContractViolationError naming the path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("format") != MODEL_FORMAT:
            raise ContractViolationError(f"not a {MODEL_FORMAT} file")
        if record["version"] != MODEL_VERSION:
            raise ContractViolationError(f"unsupported model version {record['version']!r}")
        if record["method"] not in MODELS:
            raise ContractViolationError(f"unknown method {record['method']!r}")
        kernel = KernelSpec(family=record["family"], sigma=record["sigma"])
        model = MODELS[record["method"]].from_record(kernel, record)
        center = record["center"]
        if center is not None:
            center = np.asarray(center, dtype=np.float64).reshape(model.d)
        return model, center
    except ContractViolationError as exc:
        raise ContractViolationError(f"{path}: {exc}") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ContractViolationError(
            f"{path}: malformed model record: {type(exc).__name__}: {exc}"
        ) from None
