"""Spans around calls into the layers of jpjica, recorded from outside.

The traced run replaces module attributes with timing wrappers at the
place where each name is looked up at call time: ``cli`` binds
``run_jpji_ica``, ``label_decomposition``, ``generate_dataset`` and the
metric functions at import, ``engine`` binds ``preprocess_subject`` and
``resolve_orders``, and both ``engine`` and ``classify`` bind
``cumulant_vectors_ring``.  A target whose module or attribute no longer
exists is recorded as missing and skipped, so the traced run survives
refactors that merge or delete wrapped functions.

Spans are kept in memory as ``[id, name, parent, start, end, extra]``
and written out once, when the run ends.  Per-layer metrics are derived
from the span files afterwards (see :func:`layer_metrics`).
"""
from __future__ import annotations

import importlib
import json
import os
import time
from contextlib import contextmanager


def _ring_cost(args, kwargs):
    """Computed work of one ``cumulant_vectors_ring(zc, partners)`` call.

    With zc of shape (C, V) and n partner rows: three (C x V) @ (V x n)
    products (6 C n V flops), three ring inner products (6 n V) and the
    order-3/4 elementwise partner products (3 n V).  Bytes count every
    operand pass over a V-long array: 3 C V + 22 n V doubles.
    """
    zc = args[0] if args else kwargs["zc"]
    partners = args[1] if len(args) > 1 else kwargs["partners"]
    (c, v), n = zc.shape, partners.shape[0]
    return {"flops": 6 * c * n * v + 9 * n * v, "bytes": 8 * (3 * c * v + 22 * n * v)}


def _file_size(args, kwargs, result=None):
    path = args[0] if args else kwargs["path"]
    try:
        return {"bytes": os.path.getsize(path)}
    except OSError:
        return {"bytes": 0}


# (module, attribute, span name, hook before the call, hook after it)
TARGETS = [
    ("jpjica.cli", "generate_dataset", "simulate.generate_dataset", None, None),
    ("jpjica.io", "save_dataset", "io.save_dataset", None, None),
    ("jpjica.io", "load_dataset", "io.load_dataset", None, None),
    ("jpjica.io", "save_decomposition", "io.save_decomposition", None, None),
    ("jpjica.io", "load_decomposition", "io.load_decomposition", None, None),
    ("jpjica.io", "save_report", "io.save_report", None, None),
    ("jpjica.io", "save_matrix", "io.save_matrix", None, _file_size),
    ("jpjica.io", "load_matrix", "io.load_matrix", _file_size, None),
    ("jpjica.cli", "run_jpji_ica", "engine.run_jpji_ica", None, None),
    ("jpjica.engine", "resolve_orders", "preprocess.resolve_orders", None, None),
    ("jpjica.engine", "preprocess_subject", "preprocess.preprocess_subject", None, None),
    ("jpjica.engine", "build_cost_matrix", "engine.build_cost_matrix", None, None),
    ("jpjica.engine", "inner_extract", "engine.inner_extract", None, None),
    ("jpjica.engine", "_align_rows", "engine.align_rows", None, None),
    ("jpjica.engine", "_order_slots", "engine.order_slots", None, None),
    ("jpjica.engine", "dominant_eigenvector", "numerics.dominant_eigenvector", None, None),
    ("jpjica.engine", "cumulant_vectors_ring", "numerics.ring", _ring_cost, None),
    ("jpjica.classify", "cumulant_vectors_ring", "numerics.ring", _ring_cost, None),
    ("jpjica.cli", "label_decomposition", "classify.label_decomposition", None, None),
    ("jpjica.classify", "build_features", "classify.build_features", None, None),
    ("jpjica.classify", "detect_joint_slots", "classify.detect_joint_slots", None, None),
    ("jpjica.classify", "select_sigma_opt", "classify.select_sigma_opt", None, None),
    ("jpjica.classify", "cluster_subjects", "classify.cluster_subjects", None, None),
    ("jpjica.classify", "kmeans", "numerics.kmeans", None, None),
    ("jpjica.classify", "silhouette", "numerics.silhouette", None, None),
    ("jpjica.cli", "match_sources", "metrics.match_sources", None, None),
    ("jpjica.cli", "jsir", "metrics.jsir", None, None),
    ("jpjica.cli", "acc_counts_run", "metrics.acc_counts", None, None),
    ("jpjica.cli", "acc_peer_sets_run", "metrics.acc_peer_sets", None, None),
    ("numpy.linalg", "eigh", "numpy.eigh", None, None),
]


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [len(self.spans), name, parent, 0.0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        rec[3] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, before, after):
        def traced(*args, **kwargs):
            rec = self._open(name)
            if before is not None:
                rec[5] = before(args, kwargs)
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                rec[5] = after(args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name, before, after in targets:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, before, after))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)


# Per-layer metrics: name -> (unit, how it is derived from the spans).
# "sum:<span>" sums durations, "count:<span>" counts spans, "self:<span>"
# sums durations minus those of direct child spans, "extra:<span>:<key>"
# sums a computed quantity recorded with the span, and "eigh_in:<prefix>"
# counts numpy.eigh spans nested in a span whose name starts with prefix.
LAYER_METRICS = {
    "io.save_dataset_s": ("s", "sum:io.save_dataset"),
    "io.load_dataset_s": ("s", "sum:io.load_dataset"),
    "io.load_dataset_calls": ("count", "count:io.load_dataset"),
    "io.save_decomposition_s": ("s", "sum:io.save_decomposition"),
    "io.load_decomposition_s": ("s", "sum:io.load_decomposition"),
    "io.bytes_written": ("B", "extra:io.save_matrix:bytes"),
    "io.bytes_read": ("B", "extra:io.load_matrix:bytes"),
    "simulate.generate_dataset_s": ("s", "sum:simulate.generate_dataset"),
    "preprocess.resolve_orders_s": ("s", "sum:preprocess.resolve_orders"),
    "preprocess.preprocess_subject_s": ("s", "sum:preprocess.preprocess_subject"),
    "preprocess.eigh_calls": ("count", "eigh_in:preprocess."),
    "engine.run_jpji_ica_s": ("s", "sum:engine.run_jpji_ica"),
    "engine.self_s": ("s", "self:engine.run_jpji_ica"),
    "engine.build_cost_matrix_s": ("s", "sum:engine.build_cost_matrix"),
    "engine.cost_matrix_builds": ("count", "count:engine.build_cost_matrix"),
    "engine.inner_extract_s": ("s", "sum:engine.inner_extract"),
    "engine.align_rows_s": ("s", "sum:engine.align_rows"),
    "engine.order_slots_s": ("s", "sum:engine.order_slots"),
    "numerics.ring_s": ("s", "sum:numerics.ring"),
    "numerics.ring_calls": ("count", "count:numerics.ring"),
    "numerics.ring_flops_computed": ("flop", "extra:numerics.ring:flops"),
    "numerics.ring_bytes_computed": ("B", "extra:numerics.ring:bytes"),
    "numerics.dominant_eigenvector_s": ("s", "sum:numerics.dominant_eigenvector"),
    "numerics.dominant_eigenvector_calls": ("count", "count:numerics.dominant_eigenvector"),
    "numerics.kmeans_calls": ("count", "count:numerics.kmeans"),
    "classify.label_decomposition_s": ("s", "sum:classify.label_decomposition"),
    "classify.build_features_s": ("s", "sum:classify.build_features"),
    "classify.detect_joint_slots_s": ("s", "sum:classify.detect_joint_slots"),
    "classify.select_sigma_opt_s": ("s", "sum:classify.select_sigma_opt"),
    "classify.cluster_subjects_s": ("s", "sum:classify.cluster_subjects"),
    "metrics.match_sources_s": ("s", "sum:metrics.match_sources"),
    "cli.simulate_self_s": ("s", "self:cli.simulate"),
    "cli.decompose_self_s": ("s", "self:cli.decompose"),
    "cli.evaluate_self_s": ("s", "self:cli.evaluate"),
}


def _derive(spans: list[list], rule: str) -> float:
    kind, _, arg = rule.partition(":")
    if kind == "sum":
        return sum(s[4] - s[3] for s in spans if s[1] == arg)
    if kind == "count":
        return sum(1 for s in spans if s[1] == arg)
    if kind == "extra":
        name, _, key = arg.partition(":")
        return sum((s[5] or {}).get(key, 0) for s in spans if s[1] == name)
    if kind == "self":
        child_time: dict[int, float] = {}
        for s in spans:
            if s[2] >= 0:
                child_time[s[2]] = child_time.get(s[2], 0.0) + s[4] - s[3]
        return sum(s[4] - s[3] - child_time.get(s[0], 0.0) for s in spans if s[1] == arg)
    if kind == "eigh_in":
        total = 0
        for s in spans:
            if s[1] != "numpy.eigh":
                continue
            parent = s[2]
            while parent >= 0 and not spans[parent][1].startswith(arg):
                parent = spans[parent][2]
            total += parent >= 0
        return total
    raise ValueError(f"unknown rule {rule!r}")


def layer_metrics(span_files: list[str]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Sum every per-layer metric over the span files of one traced run."""
    values = {name: 0 for name in LAYER_METRICS}
    missing: set[str] = set()
    for path in span_files:
        with open(path) as fh:
            data = json.load(fh)
        missing.update(data["missing"])
        for name, (_, rule) in LAYER_METRICS.items():
            values[name] += _derive(data["spans"], rule)
    return {n: (values[n], LAYER_METRICS[n][0]) for n in LAYER_METRICS}, sorted(missing)
