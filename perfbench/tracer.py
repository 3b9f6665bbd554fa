"""Span recording around the pgmclassifier modules, and the per-layer metrics.

Wrappers are installed from here, not from the program: every public function
defined in one of the package's modules (plus ``scipy.stats.rankdata`` as
``metrics.rankdata``) is replaced, in every ``pgmclassifier`` namespace that
holds it, by a wrapper that records one span per call. Callers that look a
function up in a module namespace (``selection.fit_pgm``, ``pgm.eig_sym``,
``metrics.rankdata``, ...) therefore hit the wrapper. References captured
before installation, such as the encoder table in ``encoding``, stay
unwrapped.

A span is ``(id, name, start, end, parent, thread, n)``: ``parent`` is the
enclosing span on the same thread (None at a thread's top level) and ``n`` an
optional work count taken at the same boundary (rows, bytes, cells). Spans
are kept in memory and written as JSON lines when the traced process ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "thread", "n")

LAYERS = ("cli", "dataio", "encoding", "operators", "pgm", "metrics", "selection")

#: Spans that make up one grid cell: the fit, the validation predict, the AUCs.
CELL_SPANS = ("pgm.fit_pgm", "pgm.predict_batch", "metrics.auc_ovr")

#: Spans whose self time is reported.
SELF_TIMED = ("cli.main", "pgm.fit_pgm", "selection.run_protocol")

#: Report-writing spans of ``dataio`` (``write_json`` counts only when the
#: command calls it directly, not from ``save_model`` or ``write_splits``).
REPORT_SPANS = (
    "dataio.protocol_report_dict",
    "dataio.evaluation_report_dict",
    "dataio.protocol_csv_rows",
    "dataio.evaluation_csv_rows",
    "dataio.write_long_csv",
)

#: Per-layer metrics in report order: (name, unit). Times are inclusive span
#: seconds summed over threads unless named ``self``; ``pgm.score_*`` are the
#: ``predict_batch`` spans.
PER_LAYER = (
    ("cli.self_s", "s"),
    ("dataio.load_dataset_s", "s"),
    ("dataio.load_dataset_rows", "rows"),
    ("dataio.read_splits_s", "s"),
    ("dataio.load_model_s", "s"),
    ("dataio.model_bytes_read", "bytes"),
    ("dataio.save_model_s", "s"),
    ("dataio.model_bytes_written", "bytes"),
    ("dataio.write_predictions_s", "s"),
    ("dataio.write_report_s", "s"),
    ("encoding.fit_encode_calls", "count"),
    ("encoding.fit_encode_s", "s"),
    ("encoding.encode_calls", "count"),
    ("encoding.encode_s", "s"),
    ("operators.eig_sym_calls", "count"),
    ("operators.eig_sym_s", "s"),
    ("operators.pinv_sqrt_s", "s"),
    ("operators.tensor_power_calls", "count"),
    ("operators.tensor_power_s", "s"),
    ("pgm.fit_calls", "count"),
    ("pgm.fit_self_s", "s"),
    ("pgm.gram_fit_calls", "count"),
    ("pgm.build_gram_s", "s"),
    ("pgm.dense_fit_calls", "count"),
    ("pgm.build_dense_s", "s"),
    ("pgm.dense_fit_share", "ratio"),
    ("pgm.stable_power_s", "s"),
    ("pgm.score_calls", "count"),
    ("pgm.score_s", "s"),
    ("pgm.rows_scored", "rows"),
    ("metrics.auc_calls", "count"),
    ("metrics.auc_s", "s"),
    ("metrics.rankdata_s", "s"),
    ("metrics.report_s", "s"),
    ("selection.grid_search_s", "s"),
    ("selection.cells", "count"),
    ("selection.cell_busy_s", "s"),
    ("selection.parallel_efficiency", "ratio"),
    ("selection.cv_metrics_s", "s"),
    ("selection.refit_share", "ratio"),
    ("selection.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


#: Work counts taken at a span boundary, from the call's bound arguments
#: (defaults applied) and its return value.
COUNTS = {
    "dataio.load_dataset": lambda args, result: result.n_samples,
    "dataio.load_model": lambda args, result: os.path.getsize(args["path"]),
    "dataio.save_model": lambda args, result: os.path.getsize(args["path"]),
    "pgm.predict_batch": lambda args, result: len(args["x_batch"]),
    "selection.grid_search": lambda args, result: (
        len(args["grid"]) * args["k"] * args["cv_repetitions"]
    ),
}


class Tracer:
    """Collects spans from wrapped functions on any thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, func):
        """Return ``func`` wrapped so that each call records a span ``name``."""
        count = COUNTS.get(name)
        signature = inspect.signature(func) if count is not None else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            n = None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                n = count(bound.arguments, result)
            self.spans.append((span_id, name, start, end, parent, threading.get_ident(), n))
            return result

        return wrapper

    def install(self, package):
        """Wrap the public functions of ``package``'s layer modules in place."""
        modules = [
            module
            for name, module in sorted(vars(package).items())
            if inspect.ismodule(module) and module.__name__.startswith(package.__name__ + ".")
        ]
        modules.append(package)
        replacements = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    replacements[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        metrics = package.metrics
        replacements[id(metrics.rankdata)] = (
            metrics.rankdata,
            self.wrap("metrics.rankdata", metrics.rankdata),
        )
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def span_sums(spans) -> dict:
    """Additive totals of one traced process's spans.

    Keys are ``<span>:s`` (inclusive seconds, summed over threads),
    ``<span>:calls``, ``<span>:n`` (work counts), ``<span>:self`` for
    :data:`SELF_TIMED` spans, plus ``cell_busy``, ``fits_outside_grid`` and
    ``report_json``.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    windows = [(s["start"], s["end"]) for s in spans if s["name"] == "selection.grid_search"]

    def in_grid_search(s):
        return any(lo <= s["start"] and s["end"] <= hi for lo, hi in windows)

    def parent_name(s):
        parent = by_id.get(s["parent"])
        return parent["name"] if parent is not None else None

    sums = defaultdict(float)
    for s in spans:
        name = s["name"]
        duration = s["end"] - s["start"]
        sums[f"{name}:s"] += duration
        sums[f"{name}:calls"] += 1
        if s["n"] is not None:
            sums[f"{name}:n"] += s["n"]
        if name in SELF_TIMED:
            sums[f"{name}:self"] += duration - child_time[s["id"]]
        if name in CELL_SPANS and parent_name(s) not in CELL_SPANS and in_grid_search(s):
            sums["cell_busy"] += duration
        if name == "pgm.fit_pgm" and not in_grid_search(s):
            sums["fits_outside_grid"] += 1
        if name == "dataio.write_json" and parent_name(s) == "cli.main":
            sums["report_json"] += duration
    return dict(sums)


def _share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(sums: dict, workers: int, overhead_ratio: float) -> dict:
    """Per-layer metric values (see :data:`PER_LAYER`) from span totals summed
    over a workload's commands."""

    def get(key):
        return float(sums.get(key, 0.0))

    dense = get("pgm.build_dense_pgm:calls")
    gram = get("pgm.build_gram_pgm:calls")
    grid_s = get("selection.grid_search:s")
    busy = get("cell_busy")
    return {
        "cli.self_s": get("cli.main:self"),
        "dataio.load_dataset_s": get("dataio.load_dataset:s"),
        "dataio.load_dataset_rows": get("dataio.load_dataset:n"),
        "dataio.read_splits_s": get("dataio.read_splits:s") + get("dataio.check_splits:s"),
        "dataio.load_model_s": get("dataio.load_model:s"),
        "dataio.model_bytes_read": get("dataio.load_model:n"),
        "dataio.save_model_s": get("dataio.save_model:s"),
        "dataio.model_bytes_written": get("dataio.save_model:n"),
        "dataio.write_predictions_s": get("dataio.write_predictions_csv:s"),
        "dataio.write_report_s": sum(get(f"{n}:s") for n in REPORT_SPANS) + get("report_json"),
        "encoding.fit_encode_calls": get("encoding.fit_encode:calls"),
        "encoding.fit_encode_s": get("encoding.fit_encode:s"),
        "encoding.encode_calls": get("encoding.encode:calls"),
        "encoding.encode_s": get("encoding.encode:s"),
        "operators.eig_sym_calls": get("operators.eig_sym:calls"),
        "operators.eig_sym_s": get("operators.eig_sym:s"),
        "operators.pinv_sqrt_s": get("operators.pinv_sqrt:s"),
        "operators.tensor_power_calls": get("operators.tensor_power:calls"),
        "operators.tensor_power_s": get("operators.tensor_power:s"),
        "pgm.fit_calls": get("pgm.fit_pgm:calls"),
        "pgm.fit_self_s": get("pgm.fit_pgm:self"),
        "pgm.gram_fit_calls": gram,
        "pgm.build_gram_s": get("pgm.build_gram_pgm:s"),
        "pgm.dense_fit_calls": dense,
        "pgm.build_dense_s": get("pgm.build_dense_pgm:s"),
        "pgm.dense_fit_share": _share(dense, dense + gram),
        "pgm.stable_power_s": get("pgm.stable_power:s"),
        "pgm.score_calls": get("pgm.predict_batch:calls"),
        "pgm.score_s": get("pgm.predict_batch:s"),
        "pgm.rows_scored": get("pgm.predict_batch:n"),
        "metrics.auc_calls": get("metrics.auc_ovr:calls"),
        "metrics.auc_s": get("metrics.auc_ovr:s"),
        "metrics.rankdata_s": get("metrics.rankdata:s"),
        "metrics.report_s": get("metrics.report_from_predictions:s"),
        "selection.grid_search_s": grid_s,
        "selection.cells": get("selection.grid_search:n"),
        "selection.cell_busy_s": busy,
        "selection.parallel_efficiency": _share(busy, grid_s * workers),
        "selection.cv_metrics_s": get("selection.cross_validated_metrics:s"),
        "selection.refit_share": _share(get("fits_outside_grid"), get("pgm.fit_pgm:calls")),
        "selection.self_s": get("selection.run_protocol:self"),
        "trace.overhead_ratio": overhead_ratio,
    }
