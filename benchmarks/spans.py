"""Outside-in span tracer for the benchmark's traced runs.

Nothing in the package is edited.  A traced op replaces, for its duration,
the attribute through which a caller looks a boundary function up: the name
in the *calling* module (``rsddl.joint.somp_rows``, not
``rsddl.sparse.somp_rows``), since ``from .sparse import somp_rows`` copied
the reference there.  Each call through a replaced name records a span
``(label, start, end, parent span, op id, extra)``; spans stay in memory and
are written once, when the run ends.  A boundary that no longer exists is
recorded as unmeasured instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np


def _omp_columns_cols(args, kwargs, result):
    return int(result.shape[1])


def _omp_fill(args, kwargs, result):
    s = kwargs.get("s", args[2] if len(args) > 2 else None)
    return (int(np.count_nonzero(result)), int(s))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


# (module, attribute looked up there, span label, extra recorder).  The
# module ``workloads`` is the benchmark's own call site into the package.
POINTS = [
    ("workloads", "joint_train", "joint.train", None),
    ("rsddl.cli", "joint_train", "joint.train", None),
    ("rsddl.joint", "layerwise_factorize", "greedy.warm_start", None),
    ("rsddl.greedy", "dict_learn", "greedy.dict_learn", None),
    ("rsddl.greedy", "ridge_solve", "greedy.ridge_solve", None),
    ("rsddl.greedy", "omp_columns", "greedy.omp_columns", _omp_columns_cols),
    ("rsddl.sparse", "omp", "sparse.omp", _omp_fill),
    ("rsddl.sparse", "somp", "sparse.somp", None),
    ("rsddl.joint", "prox_push", "sparse.prox_push", None),
    ("rsddl.joint", "solve_P1", "joint.P1", None),
    ("rsddl.joint", "solve_P2", "joint.P2", None),
    ("rsddl.joint", "solve_P3", "joint.P3", None),
    ("rsddl.joint", "solve_P4", "joint.P4", None),
    ("rsddl.joint", "solve_P5", "joint.P5", None),
    ("rsddl.joint", "solve_P6_class", "joint.P6", None),
    ("rsddl.joint", "bregman_update", "joint.bregman", None),
    ("rsddl.joint", "objective_value", "joint.objective", None),
    ("workloads", "predict_batch", "inference.predict_batch", None),
    ("rsddl.cli", "predict_batch", "inference.predict_batch", None),
    ("rsddl.inference", "encode_test", "inference.encode", None),
    ("rsddl.inference", "omp_columns", "inference.omp_columns", _omp_columns_cols),
    ("rsddl.inference", "solve_P4", "inference.solve_P4", None),
    ("rsddl.inference", "solve_P5", "inference.solve_P5", None),
    ("rsddl.inference", "classify_l0", "inference.distance", None),
    ("rsddl.inference", "classify_l1", "inference.distance", None),
    ("rsddl.numerics", "pinv", "numerics.pinv", None),
    ("rsddl.greedy", "pinv", "numerics.pinv", None),
    ("rsddl.joint", "pinv", "numerics.pinv", None),
    ("rsddl.inference", "pinv", "numerics.pinv", None),
    ("rsddl.cli", "pinv", "numerics.pinv", None),
    ("rsddl.cli", "extract_spatial_spectral", "dataio.extract", None),
    ("rsddl.cli", "load_matrix_csv", "dataio.csv_read", None),
    ("rsddl.cli", "load_labels", "dataio.csv_read", None),
    ("workloads", "load_matrix_csv", "dataio.csv_read", None),
    ("workloads", "load_labels", "dataio.csv_read", None),
    ("rsddl.cli", "save_matrix_csv", "dataio.csv_write", None),
    ("rsddl.cli", "save_labels", "dataio.csv_write", None),
    ("workloads", "save_matrix_csv", "dataio.csv_write", None),
    ("workloads", "save_labels", "dataio.csv_write", None),
    ("rsddl.cli", "save_model", "dataio.model_save", _file_bytes),
    ("rsddl.cli", "load_model", "dataio.model_load", None),
    ("rsddl.cli", "cmd_features", "cli.features", None),
    ("rsddl.cli", "cmd_train", "cli.train", None),
    ("rsddl.cli", "cmd_classify", "cli.classify", None),
    ("rsddl.cli", "cmd_eval", "cli.eval", None),
]


class Tracer:
    """Span recorder; ``install``/``uninstall`` bracket each traced op."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [label id, start, end, parent, op, extra]
        self._stack: list[int] = []
        self.op = -1
        self.ops = 0
        self.counters: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()
        self.missing: set[str] = set()

    def _wrap(self, fn, label: str, extra):
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        lid = self._label_ids[label]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [lid, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Start a traced op: replace every boundary name that still exists."""
        self.ops += 1
        self.op = self.ops
        for module_name, attr, label, extra in POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.add(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, label, extra))
            self._patched.append((module, attr, original))
            self.installed.add(label)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self.op = -1

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"labels": self.labels, "ops": self.ops,
                       "missing_points": sorted(self.missing),
                       "counters": dict(self.counters),
                       "span_fields": ["label", "start", "end", "parent", "op", "extra"]}, fh)
            fh.write("\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    # -- aggregation -----------------------------------------------------

    def _by_label(self):
        child_time = defaultdict(float)
        for rec in self.spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        stats = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0, "extra": []})
        for i, rec in enumerate(self.spans):
            st = stats[self.labels[rec[0]]]
            dur = rec[2] - rec[1]
            st["calls"] += 1
            st["busy"] += dur
            st["self"] += dur - child_time[i]
            if rec[5] is not None:
                st["extra"].append(rec[5])
        return stats

    def metrics(self, overhead_ratio: float) -> tuple[dict, list[str]]:
        """Per-op layer metrics and the names of those left unmeasured."""
        stats = self._by_label()
        ops = max(self.ops, 1)

        def calls(*labels):
            return sum(stats[lb]["calls"] for lb in labels) / ops

        def busy(*labels):
            return sum(stats[lb]["busy"] for lb in labels) / ops

        def self_time(label):
            return stats[label]["self"] / ops

        def extra_sum(*labels):
            return sum(sum(stats[lb]["extra"]) for lb in labels) / ops

        def fill_ratio():
            pairs = stats["sparse.omp"]["extra"]
            budget = sum(s for _, s in pairs)
            return sum(n for n, _ in pairs) / budget if budget else 0.0

        def fallback_ratio():
            solves = stats["greedy.ridge_solve"]["calls"]
            return self.counters["ridge_fallbacks"] / solves if solves else 0.0

        spec = [
            # (name, unit, labels the value needs, value)
            ("greedy.warm_start_s", "s", ["greedy.warm_start"], lambda: busy("greedy.warm_start")),
            ("greedy.dict_learn_s", "s", ["greedy.dict_learn"], lambda: busy("greedy.dict_learn")),
            ("greedy.ridge_solve_calls", "count", ["greedy.ridge_solve"], lambda: calls("greedy.ridge_solve")),
            ("sparse.omp_calls", "count", ["sparse.omp"], lambda: calls("sparse.omp")),
            ("sparse.omp_s", "s", ["sparse.omp"], lambda: busy("sparse.omp")),
            ("sparse.omp_columns_calls", "count", ["greedy.omp_columns", "inference.omp_columns"],
             lambda: calls("greedy.omp_columns", "inference.omp_columns")),
            ("sparse.omp_columns_cols", "count", ["greedy.omp_columns", "inference.omp_columns"],
             lambda: extra_sum("greedy.omp_columns", "inference.omp_columns")),
            ("sparse.somp_calls", "count", ["sparse.somp"], lambda: calls("sparse.somp")),
            ("sparse.somp_s", "s", ["sparse.somp"], lambda: busy("sparse.somp")),
            ("sparse.prox_push_s", "s", ["sparse.prox_push"], lambda: busy("sparse.prox_push")),
            ("sparse.omp_fill_ratio", "ratio", ["sparse.omp"], fill_ratio),
            ("joint.P1_s", "s", ["joint.P1"], lambda: busy("joint.P1")),
            ("joint.P2_s", "s", ["joint.P2"], lambda: busy("joint.P2")),
            ("joint.P3_s", "s", ["joint.P3"], lambda: busy("joint.P3")),
            ("joint.P4_s", "s", ["joint.P4"], lambda: busy("joint.P4")),
            ("joint.P5_s", "s", ["joint.P5"], lambda: busy("joint.P5")),
            ("joint.P6_s", "s", ["joint.P6"], lambda: busy("joint.P6")),
            ("joint.P6_calls", "count", ["joint.P6"], lambda: calls("joint.P6")),
            ("joint.bregman_s", "s", ["joint.bregman"], lambda: busy("joint.bregman")),
            ("joint.objective_s", "s", ["joint.objective"], lambda: busy("joint.objective")),
            ("joint.self_s", "s", ["joint.train"], lambda: self_time("joint.train")),
            ("inference.encode_calls", "count", ["inference.encode"], lambda: calls("inference.encode")),
            ("inference.encode_s", "s", ["inference.encode"], lambda: busy("inference.encode")),
            ("inference.omp_columns_calls", "count", ["inference.omp_columns"],
             lambda: calls("inference.omp_columns")),
            ("inference.solve_P4_s", "s", ["inference.solve_P4"], lambda: busy("inference.solve_P4")),
            ("inference.solve_P5_s", "s", ["inference.solve_P5"], lambda: busy("inference.solve_P5")),
            ("inference.distance_s", "s", ["inference.distance"], lambda: busy("inference.distance")),
            ("inference.self_s", "s", ["inference.predict_batch"], lambda: self_time("inference.predict_batch")),
            ("numerics.pinv_calls", "count", ["numerics.pinv"], lambda: calls("numerics.pinv")),
            ("numerics.pinv_s", "s", ["numerics.pinv"], lambda: busy("numerics.pinv")),
            ("numerics.ridge_fallbacks", "count", [], lambda: self.counters["ridge_fallbacks"] / ops),
            ("numerics.ridge_fallback_ratio", "ratio", ["greedy.ridge_solve"], fallback_ratio),
            ("dataio.extract_s", "s", ["dataio.extract"], lambda: busy("dataio.extract")),
            ("dataio.csv_read_s", "s", ["dataio.csv_read"], lambda: busy("dataio.csv_read")),
            ("dataio.csv_write_s", "s", ["dataio.csv_write"], lambda: busy("dataio.csv_write")),
            ("dataio.model_save_s", "s", ["dataio.model_save"], lambda: busy("dataio.model_save")),
            ("dataio.model_load_s", "s", ["dataio.model_load"], lambda: busy("dataio.model_load")),
            ("dataio.model_bytes", "bytes", ["dataio.model_save"], lambda: extra_sum("dataio.model_save")),
            ("cli.features_s", "s", ["cli.features"], lambda: busy("cli.features")),
            ("cli.train_s", "s", ["cli.train"], lambda: busy("cli.train")),
            ("cli.classify_s", "s", ["cli.classify"], lambda: busy("cli.classify")),
            ("cli.eval_s", "s", ["cli.eval"], lambda: busy("cli.eval")),
            ("trace.overhead_ratio", "ratio", [], lambda: overhead_ratio),
        ]
        out, unmeasured = {}, []
        for name, unit, needs, value in spec:
            if any(lb not in self.installed for lb in needs):
                unmeasured.append(name)
                out[name] = {"value": 0.0, "unit": unit}
            else:
                out[name] = {"value": float(value()), "unit": unit}
        return out, unmeasured
