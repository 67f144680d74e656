"""Joint embedding fit and objective tests."""

import json
import warnings

import numpy as np
import pytest

from mvle.bon import bon_vectors, knn
from mvle.dataset import (
    MultiViewDataset,
    SyntheticSpec,
    View,
    gen_synthetic,
    split,
    zscore_normalize,
)
from mvle.embedding import NEAR_TIE_TOL, Embedding, export_embedding, fit
from mvle.errors import ClassTooSmallError, DimTooLargeError
from mvle.graph import build_weight_graph
from mvle.linalg import generalized_eig_diag
from oracle import WeightGraph, degree_and_laplacian, dense_graph, objective, repeated_points


def clustered_dataset(rng, per_class=8, classes=3, dims=(4, 6), spread=1.4):
    """Overlapping class blobs; enough mixing to keep the joint graph connected."""
    labels = np.repeat(np.arange(1, classes + 1), per_class)
    n = labels.size
    views = []
    for d in dims:
        centers = rng.normal(scale=1.6, size=(classes, d))
        feats = centers[labels - 1] + spread * rng.normal(size=(n, d))
        views.append(View(feats, labels))
    return MultiViewDataset(views=tuple(views), class_count=classes)


class TestFit:
    def test_single_class_fully_symmetric_instance(self):
        # 3 identical points per view, one class: all BON rows equal, all
        # weights 1. The retained eigenvector must be D-orthonormal and the
        # objective must match the trace identity.
        feats = np.zeros((3, 2))
        labels = np.array([1, 1, 1])
        ds = MultiViewDataset(
            views=(View(feats, labels), View(feats.copy(), labels)), class_count=1
        )
        emb, art = fit(ds, k=2, dim=1)
        graph = dense_graph(art.graph)
        assert np.all(graph.w[~np.eye(6, dtype=bool)] == 1.0)
        y = emb.y
        assert abs(float(y[:, 0] @ (graph.degrees * y[:, 0])) - 1.0) < 1e-8
        xi = objective(y, graph)
        assert xi == pytest.approx(2.0 * emb.eigenvalues.sum(), abs=1e-8)

    def test_trace_identity(self):
        # holds whether or not the graph is connected, so mute that warning
        rng = np.random.default_rng(91)
        for trial in range(5):
            ds = clustered_dataset(rng, per_class=6 + trial, classes=3)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                emb, art = fit(ds, k=4, dim=3)
            graph = dense_graph(art.graph)
            xi = objective(emb.y, graph)
            trace_route = 2.0 * np.trace(emb.y.T @ graph.laplacian @ emb.y)
            assert xi == pytest.approx(trace_route, abs=1e-8)
            assert xi == pytest.approx(2.0 * emb.eigenvalues.sum(), abs=1e-8)

    def test_embedding_invariants(self):
        rng = np.random.default_rng(92)
        ds = clustered_dataset(rng, per_class=7, classes=3)
        emb, art = fit(ds, k=5, dim=4)
        gram = emb.y.T @ np.diag(dense_graph(art.graph).degrees) @ emb.y
        assert np.max(np.abs(gram - np.eye(4))) < 1e-8
        assert np.all(np.diff(emb.eigenvalues) >= -1e-12)
        assert np.all(emb.eigenvalues >= -1e-10)
        offsets = art.graph.block_offsets
        for i, block in enumerate(emb.per_view):
            start = offsets[i]
            assert np.array_equal(block, emb.y[start : start + block.shape[0]])

    def test_zero_eigenvalue_skipped_on_connected_graph(self):
        rng = np.random.default_rng(93)
        ds = clustered_dataset(rng, per_class=6, classes=2, spread=1.5)
        emb, _ = fit(ds, k=6, dim=3)
        assert np.all(emb.eigenvalues > 1e-10)

    def test_eigenvalue_prefix_nesting(self):
        rng = np.random.default_rng(94)
        ds = clustered_dataset(rng, per_class=6, classes=3)
        small, _ = fit(ds, k=4, dim=2)
        large, _ = fit(ds, k=4, dim=5)
        assert np.allclose(small.eigenvalues, large.eigenvalues[:2], atol=1e-10)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(95)
        ds = clustered_dataset(rng, per_class=6, classes=3, dims=(4, 5))
        emb, art = fit(ds, k=4, dim=3)
        perm = rng.permutation(ds.views[0].n)
        permuted = MultiViewDataset(
            views=(
                View(ds.views[0].features[perm], ds.views[0].labels[perm]),
                ds.views[1],
            ),
            class_count=3,
        )
        emb2, art2 = fit(permuted, k=4, dim=3)
        assert np.allclose(emb2.eigenvalues, emb.eigenvalues, atol=1e-8)
        assert objective(emb2.y, dense_graph(art2.graph)) == pytest.approx(
            objective(emb.y, dense_graph(art.graph)), abs=1e-8
        )
        # view-1 rows permute on the embedding; signs are fixed per vector
        assert np.allclose(
            np.abs(emb2.per_view[0]), np.abs(emb.per_view[0][perm]), atol=1e-6
        )

    def test_single_view_reduction_oracle(self):
        # Independent single-view route coded inline from the primitives.
        rng = np.random.default_rng(96)
        labels = np.repeat([1, 2, 3], 7)
        feats = rng.normal(size=(21, 5)) + 1.2 * rng.normal(size=(3, 5))[labels - 1]
        ds = MultiViewDataset(views=(View(feats, labels),), class_count=3)
        emb, art = fit(ds, k=5, dim=2)

        normed, _ = zscore_normalize(feats)
        bon = bon_vectors(knn(normed, 5), labels, 3)
        w = build_weight_graph([bon], [labels], t=3.0)[0].dense()
        degrees, lap = degree_and_laplacian(w)
        res = generalized_eig_diag(lap, degrees)
        assert np.allclose(emb.eigenvalues, res.values[1:3], atol=1e-10)
        assert np.allclose(np.abs(emb.y), np.abs(res.vectors[:, 1:3]), atol=1e-8)

    def test_dim_too_large(self):
        rng = np.random.default_rng(97)
        ds = clustered_dataset(rng, per_class=4, classes=2, dims=(3,))
        with pytest.raises(DimTooLargeError):
            fit(ds, k=3, dim=8)

    def test_missing_class_rejected(self):
        feats = np.random.default_rng(98).normal(size=(6, 3))
        ds = MultiViewDataset(
            views=(View(feats, np.array([1, 1, 1, 2, 2, 2])),), class_count=3
        )
        with pytest.raises(ClassTooSmallError):
            fit(ds, k=2, dim=1)

    @pytest.mark.parametrize("view", [1, 2])
    def test_missing_class_names_its_view_from_1(self, view):
        # The views are numbered as their files are, from 1; view 0 means
        # all views side by side.
        rng = np.random.default_rng(99)
        whole = View(rng.normal(size=(6, 3)), np.array([1, 1, 1, 2, 2, 2]))
        lacking = View(rng.normal(size=(6, 2)), np.array([1, 1, 1, 1, 1, 1]))
        views = (lacking, whole) if view == 1 else (whole, lacking)
        ds = MultiViewDataset(views=views, class_count=2)
        with pytest.raises(ClassTooSmallError, match=f"class 2 has no samples in view {view};"):
            fit(ds, k=2, dim=1)

    def test_disconnected_graph_warns(self):
        # Two far clusters with disjoint labels and tiny k: the joint graph
        # splits into components and eigenvalue 0 gains multiplicity.
        feats = np.concatenate([np.zeros((4, 2)), 100.0 + np.zeros((4, 2))])
        feats += 0.01 * np.random.default_rng(99).normal(size=(8, 2))
        labels = np.array([1, 1, 1, 1, 2, 2, 2, 2])
        ds = MultiViewDataset(views=(View(feats, labels),), class_count=2)
        with pytest.warns(UserWarning):
            fit(ds, k=2, dim=2)

    def test_near_tie_at_the_cut_warns(self):
        # Each class is the one before turned by 90 degrees, which is exact in
        # float64, so the quotient has pairs of equal eigenvalues; at cuts 1
        # and 5 roundoff picks one vector of such a pair.
        rng = np.random.default_rng(2)
        points = rng.normal(size=(6, 2)) + [3.0, 1.0]
        turns = [points]
        for _ in range(3):
            turns.append(np.column_stack([-turns[-1][:, 1], turns[-1][:, 0]]))
        labels = np.repeat([1, 2, 3, 4], 6)
        ds = MultiViewDataset(views=(View(np.vstack(turns), labels),), class_count=4)
        for dim in (1, 5):
            with pytest.warns(UserWarning, match=f"eigenvalues {dim} and {dim + 1} "):
                _, art = fit(ds, k=3, dim=dim)
            assert art.eigengap < NEAR_TIE_TOL
        for dim in (2, 3, 4):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, art = fit(ds, k=3, dim=dim)
            assert art.eigengap > 1e-2

    def test_tie_within_one_cell_does_not_warn(self):
        # Pairs 3 and 4 are Helmert contrasts of one cell: an exact tie whose
        # order is the documented choice.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, art = fit(repeated_points(), k=4, dim=3)
        assert art.eigengap == 0.0

    @pytest.mark.parametrize("split_seed", [0, 7, 23])
    def test_default_data_does_not_warn(self, split_seed):
        ds, _ = split(gen_synthetic(SyntheticSpec()), 2.0 / 3.0, split_seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, art = fit(ds, k=10, dim=16)
        assert art.eigengap > 100 * NEAR_TIE_TOL


class TestObjective:
    def test_constant_embedding_zero(self):
        rng = np.random.default_rng(101)
        ds = clustered_dataset(rng, per_class=5, classes=2)
        _, art = fit(ds, k=3, dim=1)
        y = np.ones((art.graph.n, 2))
        assert objective(y, dense_graph(art.graph)) == pytest.approx(0.0, abs=1e-12)

    def test_two_node_hand_sum(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        degrees, lap = degree_and_laplacian(w)
        g = WeightGraph(w=w, block_offsets=(0,), degrees=degrees, laplacian=lap)
        y = np.array([[0.0], [1.0]])
        assert objective(y, g) == pytest.approx(2.0, abs=1e-12)

    def test_trace_identity_random(self):
        rng = np.random.default_rng(102)
        ds = clustered_dataset(rng, per_class=6, classes=3)
        _, art = fit(ds, k=4, dim=2)
        graph = dense_graph(art.graph)
        for _ in range(10):
            y = rng.normal(size=(graph.n, 3))
            direct = objective(y, graph)
            trace_route = 2.0 * np.trace(y.T @ graph.laplacian @ y)
            assert direct == pytest.approx(trace_route, abs=1e-10 * max(1.0, direct))


class TestExport:
    def test_export_files(self, tmp_path):
        rng = np.random.default_rng(103)
        ds = clustered_dataset(rng, per_class=5, classes=2)
        emb, art = fit(ds, k=3, dim=2)
        export_embedding(emb, art, tmp_path, seed=42)
        for i in range(2):
            rows = (tmp_path / f"embedding_view{i + 1}.csv").read_text().strip().split("\n")
            assert len(rows) == ds.views[i].n
            assert len(rows[0].split(",")) == 2
        meta = json.loads((tmp_path / "embedding_meta.json").read_text())
        assert meta["dim"] == 2
        assert meta["k"] == 3
        assert meta["seed"] == 42
        assert np.allclose(meta["eigenvalues"], emb.eigenvalues)
        assert meta["eigenvalues"] == sorted(meta["eigenvalues"])
        # the first joint row of each view, and the distinct (BON, label) pairs
        assert meta["view_offsets"] == [0, ds.views[0].n]
        keyed = np.vstack([
            np.column_stack([
                bon_vectors(knn(zscore_normalize(v.features)[0], 3), v.labels, 2).counts,
                v.labels,
            ])
            for v in ds.views
        ])
        assert meta["bon_cells"] == len({tuple(row) for row in keyed.tolist()})
        assert meta["eig_solver"] == "dense"
        assert meta["eigengap"] == art.eigengap > 0.0

    def test_export_eigengap_null_at_full_width(self, tmp_path):
        rng = np.random.default_rng(104)
        ds = clustered_dataset(rng, per_class=5, classes=2)
        emb, art = fit(ds, k=3, dim=ds.n_total - 1)
        export_embedding(emb, art, tmp_path)
        meta = json.loads((tmp_path / "embedding_meta.json").read_text())
        assert meta["eigengap"] is None and meta["eig_solver"] == "dense"
