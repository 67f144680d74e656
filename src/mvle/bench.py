"""Benchmark engine: the repeated split/fit/score protocol of ``mvle benchmark``.

Each method is fitted once per repeat, at the widest requested width, and
every width is scored on the leading columns of that fit. A narrower fit
would return exactly those columns: the embedding eigenvectors do not depend
on ``dim``, MvDA and the LDA stage of CCA+LDA slice one generalized
eigensolve, and PLS components are greedy. The MHON network and the ELM
classifier still train per width (MHON's default ``h1`` depends on ``dim``).

A pass runs in two phases: first every repeat's split and every fit, then
every scoring. The MvDA and CCA+LDA eigensolves run in SciPy
(``linalg._top_generalized``), whose OpenBLAS has a thread pool apart from
NumPy's. The package loads it with a short thread timeout, so its workers
no longer spin after each call (see ``mvle.linalg``), but NumPy's keep
OpenBLAS's default, and switching between the two pools once per pass
rather than once per repeat is still a little faster on few cores. On 2
vCPUs, in-process, a default pass at split seed 7 took 0.261-0.266 s so,
against 0.270-0.274 s when each repeat was fitted and then scored (medians
of two sets of 10 alternating pairs; a third set of 20 had the one loop
slower in 16, median ratio 1.07); at split seeds 0, 1, 2 and 23 the two
orders were within 3%, and on one OpenBLAS thread they tie. Each classifier
seeds its own generator from the repeat's split seed, so the order changes
no result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import embedding, mhon
from .baselines import (
    LinearProjector,
    cca_lda_fit,
    elm_predict,
    elm_train,
    mvda_fit,
    pls_fit,
)
from .dataset import MultiViewDataset, View, split, zscore_apply, zscore_fit
from .errors import ClassTooSmallError, UnknownMethodError
from .metrics import EvalReport, ReportRow, accuracy, aggregate_reports, s_b, s_w

METHODS = ("mvle", "cca-lda", "pls", "mvda", "mvda-vc", "raw")


@dataclass(frozen=True)
class _Split:
    """One repeat's split; ``norm_*`` are z-scored with the training statistics."""

    seed: int
    train: MultiViewDataset
    test: MultiViewDataset
    norm_train: MultiViewDataset
    norm_test: MultiViewDataset


def _make_split(ds: MultiViewDataset, train_fraction: float, seed: int) -> _Split:
    train, test = split(ds, train_fraction, seed)
    stats = [zscore_fit(v.features) for v in train.views]

    def normed(part):
        return MultiViewDataset(
            tuple(View(zscore_apply(v.features, s), v.labels) for v, s in zip(part.views, stats)),
            ds.class_count,
        )
    return _Split(seed, train, test, normed(train), normed(test))


def mhon_hyper(cfg: dict, seed: int) -> mhon.MhonHyper:
    """The MHON hyperparameters a merged command config selects."""
    return mhon.MhonHyper(
        h1=cfg["h1"], h2=cfg["h2"], ridge_lambda=cfg["mhon_lambda"],
        seed=seed, activation=cfg["activation"],
    )


def _fit_linear(method: str, norm_train: MultiViewDataset, dim: int, cfg: dict) -> LinearProjector:
    """Fit linear ``method``; :func:`run_benchmark` has checked its name."""
    if method == "cca-lda":
        return cca_lda_fit(norm_train, dim)
    if method == "pls":
        return pls_fit(norm_train, dim)
    vc_lambda = cfg["vc_lambda"] if method == "mvda-vc" else None
    return mvda_fit(norm_train, dim, view_consistency_lambda=vc_lambda)


def _fit(method: str, sp: _Split, cfg: dict, max_dim: int):
    """Fit ``method`` once on the split.

    Returns the view ids it reports (0: all views side by side) and
    ``score(view, dim)``, which trains the classifier on the first ``dim``
    columns of the fit and returns the held-out accuracy, representation and
    labels.
    """
    views = tuple(range(1, sp.train.view_count + 1))

    def elm_score(view, w):
        x, labels = sp.norm_train.view_data(view)
        x_test, labels_test = sp.norm_test.view_data(view)
        if w is not None:
            x, x_test = x @ w, x_test @ w
        clf = elm_train(
            x, labels, sp.train.class_count,
            hidden=cfg["elm_hidden"], ridge_lambda=cfg["elm_lambda"], seed=sp.seed,
        )
        return accuracy(elm_predict(clf, x_test), labels_test), x_test, labels_test

    if method == "raw":
        return views, lambda view, dim: elm_score(view, None)
    if method != "mvle":
        proj = _fit_linear(method, sp.norm_train, max_dim, cfg)
        return views, lambda view, dim: elm_score(view, proj.projections[view - 1][:, :dim])

    emb, art = embedding.fit(sp.train, cfg["k"], max_dim, cfg["t"])
    # Scoring may run long after the fit; keep what it reads, not the graph.
    per_view, norm_stats = emb.per_view, art.norm_stats
    hyper = mhon_hyper(cfg, sp.seed)

    def score(view, dim):
        targets = [y[:, :dim] for y in per_view]
        model = mhon.train_view(sp.train, view, targets, norm_stats, hyper)
        x_test, labels_test = sp.test.view_data(view)
        return (accuracy(mhon.predict(model, x_test), labels_test),
                mhon.embed(model, x_test), labels_test)
    return ((0,) if cfg["mhon_mode"] == "concat" else views), score


def _spread_metrics(representation: np.ndarray, labels) -> tuple[float | None, float | None]:
    try:
        return s_w(representation, labels), s_b(representation, labels)
    except ClassTooSmallError:
        return None, None


def run_benchmark(
    ds: MultiViewDataset, cfg: dict
) -> tuple[list[ReportRow], list[EvalReport]]:
    """Split/fit/evaluate every (method, dim) cell over the repeat protocol.

    Repeat r splits with seed ``cfg["seed"] + r`` and z-scores every view
    with its training statistics. Every repeat is split and every method
    fitted before any cell is scored (see the module docstring). Returns
    aggregated report rows plus the per-run evaluation records, ordered by
    repeat, method, width, view. The ``raw`` method ignores the dim sweep
    and reports dim 0 (native width).
    """
    for method in cfg["methods"]:
        if method not in METHODS:
            raise UnknownMethodError(
                f"unknown method {method!r}; valid: {', '.join(METHODS)}"
            )
    fits = []
    for rep in range(cfg["repeats"]):
        sp = _make_split(ds, cfg["train_fraction"], cfg["seed"] + rep)
        for method in cfg["methods"]:
            t0 = time.perf_counter()
            views, score = _fit(method, sp, cfg, max(cfg["dims"]))
            fits.append((sp.seed, method, views, score, time.perf_counter() - t0))
    runs: list[EvalReport] = []
    for seed, method, views, score, fit_time in fits:
        for dim in (0,) if method == "raw" else cfg["dims"]:
            for view in views:
                t0 = time.perf_counter()
                acc, representation, labels = score(view, dim)
                wall = time.perf_counter() - t0
                sw, sb = _spread_metrics(representation, labels)
                runs.append(EvalReport(
                    method=method, view=view, dim=dim, seed=seed, accuracy=acc,
                    s_w=sw, s_b=sb, wall_time=wall, fit_time=fit_time,
                ))
    return aggregate_reports(runs), runs
