"""Versioned flat-file model persistence.

A model serializes to a single JSON record: an envelope (format, version,
method, kernel, seed, d, n_seen, peak_entries) plus the fields its
class writes with `record_fields` and reads back with `from_record`.
Feature maps are regenerated from their recorded (family, sigma, m, d,
seed) rather than storing the frequency matrix, so the persisted size stays
O(1) in m*d while the logical object keeps its full space accounting; the
record keeps a SHA-256 of the map's (r, gamma) bytes, and a load that draws
a different map fails.

Every float array in a record (SKPCA's w and s, RNCA's cov and Nystrom's
samples) goes through one codec:
{"shape": [...], "f8le": base64 of its little-endian float64 C-order bytes}.
Raw bytes keep every value bit for bit and let the m x m RNCA covariance
encode and decode at memory speed, where decimal text took seconds and
twice the space. A decoded array is a writable, C-contiguous float64 array
with finite entries; any other payload is refused. Serialization is
byte-stable: identical training inputs produce identical files. A file
is written through `dataio.atomic_text`, so a cut-off write leaves any
earlier model at its path as it was.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

from .dataio import atomic_text
from .errors import ContractViolationError
from .kernels import KernelSpec
from .methods import MODELS

MODEL_FORMAT = "stream-kpca-model"
MODEL_VERSION = 5

# integer fields of the envelope and of the class records; a Nystrom model
# built from given samples has no seed, so "seed" may also be null
INT_FIELDS = ("d", "n_seen", "peak_entries", "seed", "m", "ell", "c", "k", "replacements")


def encode_array(a: np.ndarray) -> dict:
    """A float array as its shape plus base64 of its little-endian float64 C-order bytes."""
    raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return {"shape": list(a.shape), "f8le": base64.b64encode(raw).decode("ascii")}


def decode_array(value: dict, name: str) -> np.ndarray:
    """The array `encode_array` wrote; raises ContractViolationError naming the
    field for any other keys, a bad shape, invalid base64, a byte length that
    does not match the shape, or a non-finite entry."""
    if set(value) != {"f8le", "shape"}:
        raise ContractViolationError(f"array field {name!r} needs exactly the keys f8le and shape")
    shape = value["shape"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ContractViolationError(f"array field {name!r} has invalid shape {shape!r}")
    try:
        raw = base64.b64decode(value["f8le"], validate=True)
    except (TypeError, ValueError):
        raise ContractViolationError(f"array field {name!r} is not valid base64") from None
    need = 8 * math.prod(shape)
    if len(raw) != need:
        raise ContractViolationError(
            f"array field {name!r} holds {len(raw)} bytes, shape {shape} needs {need}"
        )
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(arr).all():
        raise ContractViolationError(f"array field {name!r} contains non-finite entries")
    return arr


def save_model(model, path) -> None:
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
        **model.record_fields(),
    }
    record = {
        key: encode_array(value) if isinstance(value, np.ndarray) else value
        for key, value in record.items()
    }
    with atomic_text(path) as fh:
        fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


def load_model(path):
    """Load a persisted model; returns (model, None).

    The None is a placeholder kept so that callers unpacking a pair still
    work: perfbench's loader and tracer read `load_model(...)[0]`.

    Any malformed record, an integer field that is not a JSON integer among
    them, raises ContractViolationError naming the path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("format") != MODEL_FORMAT:
            raise ContractViolationError(f"not a {MODEL_FORMAT} file")
        if record["version"] != MODEL_VERSION:
            raise ContractViolationError(
                f"unsupported model version {record['version']!r} (this build reads "
                f"version {MODEL_VERSION}; retrain the model)"
            )
        if record["method"] not in MODELS:
            raise ContractViolationError(f"unknown method {record['method']!r}")
        for key in INT_FIELDS:
            value = record.get(key)
            if key in record and type(value) is not int and not (key == "seed" and value is None):
                raise ContractViolationError(f"field {key!r} must be an integer, got {value!r}")
        # only encoded arrays are JSON objects in a record
        record = {
            key: decode_array(value, key) if isinstance(value, dict) else value
            for key, value in record.items()
        }
        kernel = KernelSpec(family=record["family"], sigma=record["sigma"])
        return MODELS[record["method"]].from_record(kernel, record), None
    except ContractViolationError as exc:
        raise ContractViolationError(f"{path}: {exc}") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ContractViolationError(
            f"{path}: malformed model record: {type(exc).__name__}: {exc}"
        ) from None
