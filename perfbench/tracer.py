"""Span tracer that wraps the public functions of each stream_kpca layer.

Modules bind names at import (`from .numerics import thin_svd`), so a
function is wrapped by rebinding the attribute in every stream_kpca module
that holds it, which is where its callers look it up. Class methods are
wrapped on the class. Spans (name, tag, start, end, parent) are kept in
memory; every attribute is restored when the `active()` block exits.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict

import stream_kpca.cli  # noqa: F401  (loads every module whose bindings get patched)
from stream_kpca import baselines, fd, rff, skpca

NAME, TAG, START, END, PARENT = range(5)

# span name -> (defining module, attribute) for module-level functions
FUNCTIONS = {
    "dataio.iter_csv_rows": ("stream_kpca.dataio", "iter_csv_rows"),
    "numerics.thin_svd": ("stream_kpca.numerics", "thin_svd"),
    "numerics.sym_eig": ("stream_kpca.numerics", "sym_eig"),
    "numerics.spectral_norm": ("stream_kpca.numerics", "spectral_norm"),
    "kernels.gram": ("stream_kpca.kernels", "gram"),
    "kernels.cross_gram": ("stream_kpca.kernels", "cross_gram"),
    "skpca.train": ("stream_kpca.skpca", "train"),
    "baselines.rnca_train": ("stream_kpca.baselines", "rnca_train"),
    "baselines.reservoir_sample": ("stream_kpca.baselines", "reservoir_sample"),
    "evaluation.run_benchmark": ("stream_kpca.evaluation", "run_benchmark"),
    "evaluation.spectral_error": ("stream_kpca.evaluation", "spectral_error"),
    "evaluation.frobenius_error": ("stream_kpca.evaluation", "frobenius_error"),
    "evaluation.rank_k_frobenius_check": ("stream_kpca.evaluation", "rank_k_frobenius_check"),
    "persist.save_model": ("stream_kpca.persist", "save_model"),
    "persist.load_model": ("stream_kpca.persist", "load_model"),
}

# span name -> (class, attribute) for methods
METHODS = {
    "rff.apply": (rff.FeatureMap, "apply"),
    "rff.apply_batch": (rff.FeatureMap, "apply_batch"),
    "fd.insert": (fd.FdSketch, "insert"),
    "fd.basis": (fd.FdSketch, "basis"),
    "skpca.project_test": (skpca.SkpcaModel, "project_test"),
    "skpca.reconstruct_gram": (skpca.SkpcaModel, "reconstruct_gram"),
    "baselines.rnca.test": (baselines.RncaModel, "test"),
    "baselines.nystrom.test": (baselines.NystromModel, "test"),
    "baselines.nystrom_from_samples": (baselines.NystromModel, "from_samples"),
}

METHOD_NAMES = ("skpca", "rnca", "nystrom")


def _model_method(model) -> str:
    if isinstance(model, skpca.SkpcaModel):
        return "skpca"
    return "rnca" if isinstance(model, baselines.RncaModel) else "nystrom"


def _save_tag(args, kwargs, result):
    model, path = args[0], args[1]
    return {
        "method": _model_method(model),
        "bytes": os.path.getsize(path),
        "replacements": getattr(model, "replacements", 0),
    }


def _load_tag(args, kwargs, result):
    return {"method": _model_method(result[0])}


TAGS = {"persist.save_model": _save_tag, "persist.load_model": _load_tag}


def patch_sites() -> list[tuple[object, str, object]]:
    """Every (owner, attribute, original value) the tracer rebinds."""
    sites = []
    for module_name, attr in FUNCTIONS.values():
        original = getattr(sys.modules[module_name], attr)
        for name, module in sorted(sys.modules.items()):
            if name.split(".")[0] != "stream_kpca" or module is None:
                continue
            if vars(module).get(attr) is original:
                sites.append((module, attr, original))
    for cls, attr in METHODS.values():
        sites.append((cls, attr, cls.__dict__[attr]))
    return sites


class Tracer:
    """In-memory span recorder; single-threaded, like the runs it traces."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, None, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tag = TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if tag is not None:
                span[TAG] = tag(args, kwargs, result)
            return result

        return traced

    def _wrap_rows(self, fn):
        """Wrap a row generator: each next() is one `dataio.next` span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = fn(*args, **kwargs)
            while True:
                span = self._open("dataio.next")
                try:
                    row = next(rows)
                except StopIteration:
                    span[TAG] = "end"
                    return
                finally:
                    self._close(span)
                yield row

        return traced

    def _replacement(self, name: str, original):
        if name == "dataio.iter_csv_rows":
            return self._wrap_rows(original)
        if isinstance(original, classmethod):
            return classmethod(self._wrap(name, original.__func__))
        return self._wrap(name, original)

    @contextlib.contextmanager
    def active(self):
        """Rebind every traced attribute; restore all of them on exit."""
        by_original = {}
        for name, (module_name, attr) in FUNCTIONS.items():
            by_original[id(getattr(sys.modules[module_name], attr))] = name
        for name, (cls, attr) in METHODS.items():
            by_original[id(cls.__dict__[attr])] = name
        sites = patch_sites()
        wrappers = {}
        patched = []
        try:
            for owner, attr, original in sites:
                name = by_original[id(original)]
                if name not in wrappers:
                    wrappers[name] = self._replacement(name, original)
                setattr(owner, attr, wrappers[name])
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times over every span recorded."""
        spans = self.spans
        child_s = defaultdict(float)
        for span in spans:
            if span[PARENT] >= 0:
                child_s[span[PARENT]] += span[END] - span[START]
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        for i, span in enumerate(spans):
            key = span[NAME]
            parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None
            if key == "numerics.thin_svd" and parent == "fd.insert":
                _add(calls, total, self_s, "fd.shrink_svd", span, child_s[i])
            if key == "kernels.gram" and parent == "evaluation.run_benchmark":
                _add(calls, total, self_s, "evaluation.oracle_gram", span, child_s[i])
            if key == "dataio.next":
                # the call that ends the file parses nothing but still costs time
                total["dataio.parse"] += span[END] - span[START]
                if span[TAG] == "end":
                    continue
            if isinstance(span[TAG], dict):
                key = f"{key}.{span[TAG]['method']}"
            _add(calls, total, self_s, key, span, child_s[i])

        out = {
            "dataio.rows": calls["dataio.next"],
            "dataio.parse_s": total["dataio.parse"],
            "fd.insert.calls": calls["fd.insert"],
            "fd.insert.self_s": self_s["fd.insert"],
            "fd.shrink_svd.calls": calls["fd.shrink_svd"],
            "fd.shrink_svd.s": total["fd.shrink_svd"],
            "fd.rows_per_svd": calls["fd.insert"] / max(calls["fd.shrink_svd"], 1),
            "fd.basis.s": total["fd.basis"],
            "skpca.train.s": total["skpca.train"],
            "skpca.train.self_s": self_s["skpca.train"],
            "skpca.project_test.s": total["skpca.project_test"],
            "skpca.reconstruct_gram.s": total["skpca.reconstruct_gram"],
            "baselines.rnca_train.s": total["baselines.rnca_train"],
            "baselines.rnca_train.self_s": self_s["baselines.rnca_train"],
            "baselines.reservoir_sample.s": total["baselines.reservoir_sample"],
            "baselines.nystrom_from_samples.s": total["baselines.nystrom_from_samples"],
            "baselines.rnca.test.s": total["baselines.rnca.test"],
            "baselines.nystrom.test.s": total["baselines.nystrom.test"],
            "evaluation.oracle_gram.s": total["evaluation.oracle_gram"],
        }
        for name in ("rff.apply", "rff.apply_batch", "numerics.thin_svd",
                     "numerics.sym_eig", "numerics.spectral_norm",
                     "kernels.gram", "kernels.cross_gram"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
        for name in ("spectral_error", "frobenius_error", "rank_k_frobenius_check"):
            out[f"evaluation.{name}.s"] = total[f"evaluation.{name}"]
        saved = {}
        for span in spans:
            if span[NAME] == "persist.save_model":
                saved[span[TAG]["method"]] = span[TAG]
        for method in METHOD_NAMES:
            out[f"persist.save_model.s.{method}"] = total[f"persist.save_model.{method}"]
            out[f"persist.load_model.s.{method}"] = total[f"persist.load_model.{method}"]
            out[f"persist.model_bytes.{method}"] = saved.get(method, {}).get("bytes", 0)
        out["baselines.nystrom.replacements"] = saved.get("nystrom", {}).get("replacements", 0)
        return out


def _add(calls, total, self_s, key, span, children_s) -> None:
    duration = span[END] - span[START]
    calls[key] += 1
    total[key] += duration
    self_s[key] += duration - children_s
