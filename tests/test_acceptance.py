"""Acceptance checklist for the toolkit.

Eight numbered checks, each printing one ``[PASS]``/``[FAIL]`` line. The
benchmark checks (4 and 5) compare against the pinned-seed fixture
``tests/fixtures/benchmark_pinned.json`` within half an accuracy point. A
missing fixture fails them; ``MVLE_RECORD_FIXTURE=1`` records it afresh.
"""

import json
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from mvle import baselines as bl
from mvle import mhon
from mvle.bon import bon_vectors, knn
from mvle.cli import _dataset, merge_config, run_benchmark
from mvle.dataset import MultiViewDataset, View
from mvle.embedding import fit
from mvle.errors import DimTooLargeError, IsolatedSampleError
from mvle.graph import build_weight_graph
from mvle.linalg import generalized_eig_diag
from mvle.metrics import s_b, s_w
from oracle import degree_and_laplacian, dense_graph, layer_arrays, objective

FIXTURE_DIR = Path(__file__).parent / "fixtures"
BENCH_FIXTURE = FIXTURE_DIR / "benchmark_pinned.json"
HALF_POINT = 0.005


def _announce(capsys, num, label, fn):
    """Run one check and print exactly one pass/fail line for it."""
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] acceptance {num}/8: {label}")
        raise
    with capsys.disabled():
        print(f"[PASS] acceptance {num}/8: {label}")


def random_bon_instance(rng, sizes, c, k):
    """Per-view BON matrices and labels; retried until nothing is isolated."""
    while True:
        bons, labels = [], []
        for n in sizes:
            x = rng.normal(size=(n, 3))
            lab = rng.integers(1, c + 1, size=n)
            lab[:c] = np.arange(1, c + 1)
            bons.append(bon_vectors(knn(x, k), lab, c))
            labels.append(lab)
        try:
            build_weight_graph(bons, labels, t=float(c))
        except IsolatedSampleError:
            continue
        return bons, labels


def connected_fit_instance(rng, per_class, classes, dims, k, dim):
    """A multi-view dataset whose joint graph comes out connected."""
    labels = np.repeat(np.arange(1, classes + 1), per_class)
    while True:
        views = []
        for d in dims:
            centers = rng.normal(scale=1.6, size=(classes, d))
            feats = centers[labels - 1] + 1.4 * rng.normal(size=(labels.size, d))
            views.append(View(feats, labels))
        ds = MultiViewDataset(views=tuple(views), class_count=classes)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            try:
                emb, art = fit(ds, k=k, dim=dim)
            except IsolatedSampleError:
                continue
        if rec:
            continue
        return ds, emb, art


def d_orthonormal_competitor(rng, degrees, dim):
    """Random Y with Y'DY = I, D-orthogonal to the constant direction."""
    n = degrees.shape[0]
    ones = np.ones(n)
    ones_d = float(ones @ (degrees * ones))
    basis = []
    while len(basis) < dim:
        v = rng.normal(size=n)
        v -= (v @ (degrees * ones)) / ones_d * ones
        for u in basis:
            v -= (v @ (degrees * u)) * u
        norm = np.sqrt(v @ (degrees * v))
        if norm > 1e-8:
            basis.append(v / norm)
    return np.column_stack(basis)


@pytest.fixture(scope="module")
def pinned_benchmark():
    """The pinned-seed benchmark shared by checks 4 and 5."""
    cfg = merge_config("benchmark", {"methods": ["mvle", "mvda", "raw"]}, {})
    ds = _dataset(cfg)
    start = time.perf_counter()
    rows, _ = run_benchmark(ds, cfg)
    elapsed = time.perf_counter() - start
    cells = {f"{r.method},{r.view},{r.dim}": r.mean_accuracy for r in rows}
    return cells, elapsed


def _check_against_fixture(cells):
    """Enforce the half-point band; record the cells only when asked to."""
    if os.environ.get("MVLE_RECORD_FIXTURE") == "1":
        FIXTURE_DIR.mkdir(exist_ok=True)
        BENCH_FIXTURE.write_text(
            json.dumps({"cells": cells}, indent=2, sort_keys=True) + "\n"
        )
        return
    assert BENCH_FIXTURE.exists(), (
        f"{BENCH_FIXTURE} is missing; set MVLE_RECORD_FIXTURE=1 to record it"
    )
    recorded = json.loads(BENCH_FIXTURE.read_text())["cells"]
    assert set(recorded) == set(cells)
    for key, value in recorded.items():
        assert abs(cells[key] - value) <= HALF_POINT + 1e-12, (
            f"cell {key}: {cells[key]:.4f} drifted from recorded {value:.4f}"
        )


def test_acceptance_1_eigensolver_matches_dense_oracle(capsys):
    def body():
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        for trial in range(50):
            c = int(rng.integers(2, 4))
            n1 = int(rng.integers(c + 1, 11))
            n2 = int(rng.integers(c + 1, 21 - n1))
            bons, labels = random_bon_instance(rng, [n1, n2], c, 2)
            w = build_weight_graph(bons, labels, t=float(c))[0].dense()
            degrees, lap = degree_and_laplacian(w)
            res = generalized_eig_diag(lap.copy(), degrees)
            brute = np.sort(np.linalg.eig(np.diag(1.0 / degrees) @ lap)[0].real)
            assert np.max(np.abs(res.values - brute)) < 1e-8
            gram = res.vectors.T @ np.diag(degrees) @ res.vectors
            assert np.max(np.abs(gram - np.eye(degrees.size))) < 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s, bound is 5s"

    _announce(capsys, 1, "eigensolver matches dense oracle on 50 graphs", body)


def test_acceptance_2_fit_is_variationally_optimal(capsys):
    def body():
        rng = np.random.default_rng(1002)
        start = time.perf_counter()
        for trial in range(10):
            dim = [1, 2, 3][trial % 3]
            per_class = int(rng.integers(5, 10))
            ds, emb, art = connected_fit_instance(
                rng, per_class, 3, (4, 5), k=4, dim=dim
            )
            assert ds.n_total <= 60
            graph = dense_graph(art.graph)
            xi_fit = objective(emb.y, graph)
            assert xi_fit == pytest.approx(
                2.0 * float(emb.eigenvalues.sum()), abs=1e-8
            )
            for _ in range(1000):
                y = d_orthonormal_competitor(rng, graph.degrees, dim)
                assert xi_fit <= objective(y, graph) + 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 20.0, f"took {elapsed:.2f}s, bound is 20s"

    _announce(capsys, 2, "embedding beats 1000 random competitors x10", body)


def test_acceptance_3_neighbor_count_and_graph_invariants(capsys):
    def body():
        rng = np.random.default_rng(1003)
        checks = failures = 0

        def run_instance(bons, labels, c):
            nonlocal checks, failures
            for bon in bons:
                checks += 1
                failures += int(
                    not np.all(bon.counts.sum(axis=1) == bon.k)
                )
            w = build_weight_graph(bons, labels, t=float(c))[0].dense()
            checks += 3
            failures += int(not np.array_equal(w, w.T))
            failures += int(not (np.all(w >= 0.0) and np.all(w <= 1.0)))
            failures += int(not np.all(np.diag(w) == 0.0))
            # connection rule, entrywise, from the raw label sets
            lab_all = np.concatenate(labels)
            sets = []
            for bon in bons:
                sets.extend(set(np.flatnonzero(row) + 1) for row in bon.counts)
            n = lab_all.size
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    checks += 1
                    connected = lab_all[b] in sets[a] and lab_all[a] in sets[b]
                    ok = (w[a, b] > 0.0) == connected
                    failures += int(not ok)

        for _ in range(25):
            c = int(rng.integers(2, 5))
            k = int(rng.integers(2, 5))
            sizes = [int(rng.integers(c + k, 14)) for _ in range(2)]
            bons, labels = random_bon_instance(rng, sizes, c, k)
            run_instance(bons, labels, c)

        # adversarial layout: one view misses a class entirely, so every
        # cross edge into that view from the missing class must vanish
        x1 = rng.normal(size=(10, 2))
        lab1 = np.array([1, 2, 1, 2, 1, 2, 1, 2, 1, 2])
        x2 = rng.normal(size=(8, 2))
        lab2 = np.full(8, 1)
        bon1 = bon_vectors(knn(x1, 3), lab1, 2)
        bon2 = bon_vectors(knn(x2, 3), lab2, 2)
        run_instance([bon1, bon2], [lab1, lab2], 2)
        w = build_weight_graph([bon1, bon2], [lab1, lab2], t=2.0)[0].dense()
        class2_rows = np.flatnonzero(lab1 == 2)
        assert np.all(w[np.ix_(class2_rows, np.arange(10, 18))] == 0.0)

        # degenerate layout: identical points, one class per view
        xs = np.zeros((6, 2))
        labs = np.full(6, 1)
        bon = bon_vectors(knn(xs, 2), labs, 1)
        run_instance([bon, bon], [labs, labs], 1)

        assert checks > 1000
        assert failures == 0, f"{failures} of {checks} invariant checks failed"

    _announce(capsys, 3, "neighbor-count and graph invariants, 100% pass", body)


def test_acceptance_4_benchmark_beats_raw_on_nonlinear_view(
    capsys, pinned_benchmark
):
    def body():
        cells, elapsed = pinned_benchmark
        _check_against_fixture(cells)
        mvle_v2 = cells["mvle,2,4"]
        raw_v2 = cells["raw,2,0"]
        assert mvle_v2 - raw_v2 >= 0.05, (
            f"gap {mvle_v2 - raw_v2:+.4f} below 5 points "
            f"(mvle {mvle_v2:.4f} vs raw {raw_v2:.4f})"
        )
        assert elapsed < 60.0, f"benchmark took {elapsed:.1f}s, bound is 60s"

    _announce(capsys, 4, "pinned benchmark beats raw by 5+ points", body)


def test_acceptance_5_accuracy_range_no_wider_than_comparison(
    capsys, pinned_benchmark
):
    def body():
        cells, _ = pinned_benchmark

        def cell_range(method):
            vals = [
                cells[f"{method},{view},{dim}"]
                for view in (1, 2)
                for dim in (2, 4, 8, 16)
            ]
            return max(vals) - min(vals)

        mvle_range = cell_range("mvle")
        mvda_range = cell_range("mvda")
        assert mvle_range <= mvda_range + 1e-12, (
            f"accuracy range {mvle_range:.4f} exceeds comparison "
            f"{mvda_range:.4f}"
        )

    _announce(capsys, 5, "accuracy range across dims stays tighter", body)


def test_acceptance_6_out_of_sample_network_contracts(capsys):
    def body():
        rng = np.random.default_rng(1006)
        labels = np.repeat([1, 2, 3], 12)
        x = rng.normal(size=(3, 6))[labels - 1] * 2.0 + rng.normal(size=(36, 6))
        targets = rng.normal(size=(3, 2))[labels - 1]
        targets += 0.05 * rng.normal(size=(36, 2))

        # interpolation regime
        model = mhon.train(
            x, targets, labels, 3,
            hyper=mhon.MhonHyper(h1=64, ridge_lambda=1e-8, seed=2),
        )
        z = mhon.embed(model, x)
        rel = np.linalg.norm(z - targets) / np.linalg.norm(targets)
        assert rel < 1e-3, f"guiding residual {rel:.2e}"

        # bit-exact determinism
        again = mhon.train(
            x, targets, labels, 3,
            hyper=mhon.MhonHyper(h1=64, ridge_lambda=1e-8, seed=2),
        )
        for a, b in zip(layer_arrays(model), layer_arrays(again)):
            assert np.array_equal(a, b)

        # serialization fidelity, 1e-12 relative
        back = mhon.from_json(mhon.to_json(model))
        for a, b in zip(layer_arrays(model), layer_arrays(back)):
            scale = np.maximum(np.abs(a), 1e-300)
            assert np.max(np.abs(a - b) / scale) <= 1e-12

    _announce(capsys, 6, "network residual, determinism, JSON fidelity", body)


def test_acceptance_7_spread_metrics_hand_example(capsys):
    def body():
        x = np.array([[0.0], [2.0], [10.0], [12.0]])
        labels = np.array([1, 1, 2, 2])
        assert s_w(x, labels) == pytest.approx(2.0, abs=1e-10)
        assert s_b(x, labels) == pytest.approx(100.0 / 3.0, abs=1e-10)

        rng = np.random.default_rng(1007)
        feats = rng.normal(size=(30, 4))
        labs = np.tile([1, 2, 3], 10)
        shift = rng.normal(scale=20.0, size=4)
        assert s_w(feats + shift, labs) == pytest.approx(s_w(feats, labs), rel=1e-9)
        assert s_b(feats + shift, labs) == pytest.approx(s_b(feats, labs), rel=1e-9)
        gamma = 2.5
        assert s_b(gamma * feats, labs) == pytest.approx(
            gamma**2 * s_b(feats, labs), rel=1e-10
        )
        assert s_w(gamma * feats, labs) == pytest.approx(
            gamma**2 * s_w(feats, labs), rel=1e-10
        )

    _announce(capsys, 7, "spread metrics match hand-computed values", body)


def test_acceptance_8_comparison_method_sanity(capsys):
    def body():
        rng = np.random.default_rng(1008)

        # perfect linear relation recovers correlation 1
        x = rng.normal(size=(200, 5))
        m = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
        cca = bl.cca_fit(x, x @ m, kappa=1e-10)
        assert cca.correlations[0] >= 1.0 - 1e-6

        # deflation leaves successive scores orthogonal
        xg = rng.normal(size=(80, 6))
        yg = xg @ rng.normal(size=(6, 5)) + 0.3 * rng.normal(size=(80, 5))
        res = bl.nipals_pls(xg, yg, dim=3)
        for i in range(3):
            for j in range(i):
                assert abs(float(res.x_scores[:, i] @ res.x_scores[:, j])) <= 1e-8
                assert abs(float(res.y_scores[:, i] @ res.y_scores[:, j])) <= 1e-8

        # coupling penalty pulls the per-view maps together monotonically
        labels = np.repeat([1, 2, 3], 20)
        c1 = 3.0 * rng.normal(size=(3, 5))
        c2 = 3.0 * rng.normal(size=(3, 5))
        ds = MultiViewDataset(
            views=(
                View(c1[labels - 1] + rng.normal(size=(60, 5)), labels),
                View(c2[labels - 1] + rng.normal(size=(60, 5)), labels),
            ),
            class_count=3,
        )
        gaps = []
        for lam in (0.01, 1.0, 100.0):
            proj = bl.mvda_fit(ds, dim=2, view_consistency_lambda=lam)
            gaps.append(
                float(np.linalg.norm(proj.projections[0] - proj.projections[1]))
            )
        assert gaps[0] > gaps[1] > gaps[2]

        # discriminant rank bound enforcement
        with pytest.raises(DimTooLargeError):
            bl.lda_fit(ds.views[0].features, labels, dim=3)

    _announce(capsys, 8, "comparison methods pass sanity battery", body)
