"""Span tracing of mvle from outside the package.

The tracer replaces public mvle functions with timing wrappers at every
module-level binding that refers to them (``mvle.cli.elm_train``,
``mvle.embedding.generalized_eig_diag``, ...), so calls are caught where
their callers look them up. Each span records its name, start, end and the
span that was open when it began; a span's self time is its duration minus
the durations of its direct children. ``restore`` puts every original
binding back.

Computed counts (matrix orders, node and cell counts, bytes of dense
arrays) are derived from call arguments and results after the call
returns. Deriving them costs time, so it runs in a ``trace.counts`` span
that :func:`summarize` takes out of every enclosing span's duration.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from contextlib import contextmanager

import numpy as np

COUNTS_SPAN = "trace.counts"


def _first_arg(args, kwargs):
    if args:
        return args[0]
    return next(iter(kwargs.values()))


def _eig_counts(args, kwargs, result):
    return {"order": int(np.shape(_first_arg(args, kwargs))[0])}


def _knn_counts(args, kwargs, result):
    n = int(np.shape(_first_arg(args, kwargs))[0])
    return {"dist_bytes": n * n * 8}


def _csv_counts(args, kwargs, result):
    return {"rows": int(result.n)}


def _array_bytes(obj) -> int:
    fields = vars(obj) if hasattr(obj, "__dict__") else {}
    return sum(v.nbytes for v in fields.values() if isinstance(v, np.ndarray))


def _graph_counts(args, kwargs, result):
    bons = args[0] if args else kwargs["bons"]
    labels = args[1] if len(args) > 1 else kwargs["labels"]
    keyed = np.vstack(
        [
            np.column_stack([np.asarray(b.counts), np.asarray(lab)])
            for b, lab in zip(bons, labels)
        ]
    )
    nodes = int(keyed.shape[0])
    cells = int(np.unique(keyed, axis=0).shape[0])
    out = {"nodes": nodes, "cells": cells, "cell_ratio": cells / nodes,
           "dense_bytes": _array_bytes(result)}
    w = getattr(result, "w", None)
    if isinstance(w, np.ndarray) and nodes > 1:
        out["edge_density"] = float(np.count_nonzero(w)) / (nodes * (nodes - 1))
    return out


# (defining module, function, span name, counter). Every module-level
# binding of the function inside the mvle package is wrapped.
TARGETS = (
    ("mvle.embedding", "fit", "embedding.fit", None),
    ("mvle.embedding", "export_embedding", "embedding.export", None),
    ("mvle.bon", "knn", "bon.knn", _knn_counts),
    ("mvle.bon", "bon_vectors", "bon.vectors", None),
    ("mvle.graph", "build_weight_graph", "graph.build", _graph_counts),
    ("mvle.linalg", "generalized_eig_diag", "linalg.eig", _eig_counts),
    ("mvle.linalg", "ridge_solve", "linalg.ridge", None),
    ("mvle.mhon", "train", "mhon.train", None),
    ("mvle.mhon", "predict", "mhon.predict", None),
    ("mvle.mhon", "save_model", "mhon.model_io", None),
    ("mvle.mhon", "load_model", "mhon.model_io", None),
    ("mvle.baselines", "elm_train", "baselines.elm_train", None),
    ("mvle.baselines", "elm_predict", "baselines.elm_predict", None),
    ("mvle.baselines", "mvda_fit", "baselines.mvda", None),
    ("mvle.baselines", "pls_fit", "baselines.pls", None),
    ("mvle.baselines", "cca_lda_fit", "baselines.cca_lda", None),
    ("mvle.dataset", "load_view_csv", "dataset.csv_load", _csv_counts),
    ("mvle.dataset", "split", "dataset.split", None),
    ("mvle.dataset", "zscore_fit", "dataset.zscore", None),
    ("mvle.dataset", "zscore_apply", "dataset.zscore", None),
    ("mvle.dataset", "zscore_normalize", "dataset.zscore", None),
    ("mvle.metrics", "s_w", "metrics.spread", None),
    ("mvle.metrics", "s_b", "metrics.spread", None),
)


def _mvle_modules() -> list:
    import mvle

    for info in pkgutil.iter_modules(mvle.__path__, "mvle."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mvle" or name.startswith("mvle."))]


class Tracer:
    """In-memory span recorder that patches mvle functions while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: set[str] = set()
        self.count_errors: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its attribute dict for computed counts."""
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield span["attrs"]
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, original, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as attrs:
                result = original(*args, **kwargs)
            if counter is not None:
                with tracer.span(COUNTS_SPAN):
                    try:
                        attrs.update(counter(args, kwargs, result))
                    except Exception as exc:  # the traced call already succeeded
                        tracer.count_errors.add(f"{name}: {exc!r}")
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        modules = _mvle_modules()
        for mod_name, func_name, span_name, counter in TARGETS:
            original = getattr(sys.modules.get(mod_name), func_name, None)
            if original is None:
                self.missing.add(f"{mod_name}.{func_name}")
                continue
            traced = self._wrap(original, span_name, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._patches.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def take(self) -> list[dict]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def problems(self) -> list[str]:
        """What made the spans since the last call incomplete: targets not
        found when installing, and counters that raised. Clears the latter."""
        found = [f"not traced, function not found: {name}" for name in sorted(self.missing)]
        found += [f"not counted: {note}" for note in sorted(self.count_errors)]
        self.count_errors.clear()
        return found


def summarize(spans: list[dict]) -> dict:
    """Per-name totals over outermost spans: seconds, self seconds, calls, counts.

    A span nested inside another of the same name (``zscore_normalize``
    calling ``zscore_fit``) is part of the outer one and not counted again.
    Computed counts keep the maximum over the calls, since memory and
    solver cost follow the largest call.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    counts_time: dict[int, float] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + dur
        if s["name"] == COUNTS_SPAN:
            parent = s["parent"]
            while parent is not None:
                counts_time[parent] = counts_time.get(parent, 0.0) + dur
                parent = by_id[parent]["parent"]
    out: dict[str, dict] = {}
    for s in spans:
        parent = s["parent"]
        nested = False
        while parent is not None:
            if by_id[parent]["name"] == s["name"]:
                nested = True
                break
            parent = by_id[parent]["parent"]
        if nested:
            continue
        dur = s["end"] - s["start"] - counts_time.get(s["id"], 0.0)
        agg = out.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0, "max": {}, "sum": {}})
        agg["s"] += dur
        agg["self_s"] += s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        agg["calls"] += 1
        for key, value in s["attrs"].items():
            agg["max"][key] = max(agg["max"].get(key, value), value)
            agg["sum"][key] = agg["sum"].get(key, 0) + value
    return out
