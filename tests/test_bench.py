"""Benchmark engine tests: one fit per (method, repeat), widths as leading
columns, and every fit of a pass before any scoring."""

import dataclasses
import importlib
import importlib.util
import json
import os

import numpy as np
import pytest

from mvle import baselines, bench, embedding, mhon
from mvle.baselines import cca_lda_fit, mvda_fit, pls_fit
from mvle.cli import merge_config, run_benchmark
from mvle.dataset import (
    MultiViewDataset,
    SyntheticSpec,
    View,
    gen_synthetic,
    split,
    zscore_normalize,
)
from mvle.metrics import aggregate_reports
from oracle import interleaved_benchmark, repeated_points


@pytest.fixture(scope="module")
def default_ds():
    return gen_synthetic(SyntheticSpec())


@pytest.mark.parametrize("case", [0, 7, 23, "repeated-points"])
def test_widths_are_leading_columns_of_the_widest_fit(default_ds, case):
    # Split seeds of the default data, and a fit whose widths from 4 up take
    # within-cell eigenpairs (the linear projectors need wider views there).
    if case == "repeated-points":
        train, k, widths, linear = repeated_points(), 4, (2, 4, 8, 16, 35), ()
    else:
        train, k, widths = split(default_ds, 2.0 / 3.0, case)[0], 10, (2, 4, 8, 16)
        linear = (mvda_fit, cca_lda_fit, pls_fit)
    normed = MultiViewDataset(
        tuple(View(zscore_normalize(v.features)[0], v.labels) for v in train.views),
        train.class_count,
    )
    widest = widths[-1]
    wide, art = embedding.fit(train, k, widest)
    if case == "repeated-points":
        assert art.graph.m <= 4  # at most 3 nontrivial quotient pairs
    projectors = {f: f(normed, widest) for f in linear}
    for dim in widths[:-1]:
        narrow, _ = embedding.fit(train, k, dim)
        for y_wide, y in zip(wide.per_view, narrow.per_view):
            assert np.array_equal(y_wide[:, :dim], y)
        for fit_linear, proj in projectors.items():
            for w_wide, w in zip(proj.projections, fit_linear(normed, dim).projections):
                assert np.array_equal(w_wide[:, :dim], w), fit_linear.__name__


def test_each_method_fits_once_per_repeat(default_ds, monkeypatch):
    calls = {}

    def spy(name, original):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(embedding, "fit", spy("embedding.fit", embedding.fit))
    for name in ("cca_lda_fit", "pls_fit", "mvda_fit"):
        monkeypatch.setattr(bench, name, spy(name, getattr(bench, name)))
    cfg = merge_config("benchmark", {}, {"repeats": 2})
    rows, runs = run_benchmark(default_ds, cfg)

    assert calls == {"embedding.fit": 2, "cca_lda_fit": 2, "pls_fit": 2, "mvda_fit": 2}
    # One record per (repeat, method, width, view), in that order.
    order = [(r.seed, cfg["methods"].index(r.method), r.dim, r.view) for r in runs]
    assert order == sorted(order)
    assert len(runs) == 2 * (4 * 4 * 2 + 2)
    assert len(rows) == 4 * 4 * 2 + 2


TIMINGS = ("wall_time", "fit_time")


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_two_phases_match_the_interleaved_loop(default_ds, seed):
    cfg = merge_config("benchmark", {}, {"seed": seed, "repeats": 2})
    rows, runs = run_benchmark(default_ds, cfg)
    expected = interleaved_benchmark(default_ds, cfg)

    def fields(run):
        return {k: v for k, v in dataclasses.asdict(run).items() if k not in TIMINGS}
    assert [fields(r) for r in runs] == [fields(r) for r in expected]
    assert rows == aggregate_reports(expected)
    # Every record of one fit carries that fit's time.
    fit_times = {}
    for run in runs:
        assert fit_times.setdefault((run.seed, run.method), run.fit_time) == run.fit_time


def test_every_eigensolve_precedes_the_first_training(default_ds, monkeypatch):
    events = []

    def spy(module, name, event):
        original = getattr(module, name)

        def logged(*args, **kwargs):
            events.append(event)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, logged)

    spy(baselines, "_top_generalized", "eigh")
    spy(bench, "elm_train", "train")
    spy(mhon, "train_view", "train")
    cfg = merge_config("benchmark", {}, {"repeats": 3})
    run_benchmark(default_ds, cfg)

    # CCA+LDA solves twice and MvDA once per repeat.
    assert events.count("eigh") == 3 * 3
    last_eigh = len(events) - 1 - events[::-1].index("eigh")
    assert last_eigh < events.index("train")


PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def load_perfbench(name):
    """The module ``perfbench/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    # perfbench/layertrace.py wraps these (module, function) pairs by name; a
    # rename in mvle would silently drop a layer from the traced benchmark.
    layertrace = load_perfbench("layertrace")
    missing = [
        f"{module}.{name}" for module, name, _, _ in layertrace.TARGETS
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert layertrace.TARGETS
    assert not missing


def test_smoke_workloads_pass_their_gates():
    # The benchmark's own gate on its small inputs, against the smoke entry
    # of perfbench/reference.json (recorded, like the pinned fixture, with
    # one BLAS build): a library change that breaks a call the workloads
    # make, or moves a gated output, fails here.
    workloads = load_perfbench("workloads")
    with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as fh:
        smoke = json.load(fh)["smoke"]
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, "", 7, smoke=True)
        assert workload.gate(workload.expected(), smoke[name]["7"]) == [], name
