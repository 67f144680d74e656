"""Joint weight graph, degree, and Laplacian tests."""

import numpy as np
import pytest

import mvle.graph
import mvle.linalg
from mvle.bon import BonMatrix, bon_vectors, knn
from mvle.errors import ClassCountMismatchError, IsolatedSampleError, OrderTooLargeError
from mvle.graph import build_weight_graph
from oracle import degree_and_laplacian, dense_graph, label_set


def random_instance(rng, sizes, c, k):
    """Random per-view BON matrices and labels for the given block sizes."""
    bons, labels = [], []
    for n in sizes:
        x = rng.normal(size=(n, 3))
        lab = rng.integers(1, c + 1, size=n)
        # every class present to keep neighborhoods label-diverse
        lab[: c] = np.arange(1, c + 1)
        bons.append(bon_vectors(knn(x, k), lab, c))
        labels.append(lab)
    return bons, labels


def random_connected_instance(rng, sizes, c, k):
    """Like random_instance but retried until no sample is isolated."""
    while True:
        bons, labels = random_instance(rng, sizes, c, k)
        try:
            build_weight_graph(bons, labels, t=float(c))
        except IsolatedSampleError:
            continue
        return bons, labels


class TestBuildWeightGraph:
    def test_zero_distance_weight_one(self):
        # Two single-sample views, same label: BON rows equal, mutual
        # membership, so the cross weight is exp(0) = 1.
        x = np.array([[0.0], [1.0]])
        lab = np.array([1, 1])
        bon = bon_vectors(knn(x, 1), lab, 2)
        w = build_weight_graph([bon, bon], [lab, lab], t=2.0)[0].dense()
        assert w[0, 2] == pytest.approx(1.0, abs=1e-15)

    def test_stated_formula_value(self):
        # BON difference [1,-1,0,0] at t = c = 4 gives exp(-2/4).
        bon1 = BonMatrix(np.array([[2, 1, 0, 0], [1, 2, 0, 0]]), k=3)
        bon2 = BonMatrix(np.array([[1, 2, 0, 0], [2, 1, 0, 0]]), k=3)
        lab1 = np.array([1, 2])
        lab2 = np.array([2, 1])
        w = build_weight_graph([bon1, bon2], [lab1, lab2], t=4.0)[0].dense()
        # sample 0 of view 1 vs sample 0 of view 2: counts differ by [1,-1,0,0]
        assert w[0, 2] == pytest.approx(np.exp(-2.0 / 4.0), abs=1e-15)
        assert w[0, 2] == pytest.approx(0.60653, abs=5e-6)

    def test_disconnection_rule_zero(self):
        # label_a not in label set of b forces weight 0 even at distance 0.
        x = np.array([[0.0], [0.1], [10.0], [10.1]])
        lab = np.array([1, 1, 2, 2])
        bon = bon_vectors(knn(x, 1), lab, 2)
        w = build_weight_graph([bon], [lab], t=2.0)[0].dense()
        assert w[0, 2] == 0.0
        assert w[2, 0] == 0.0
        assert w[0, 1] == pytest.approx(1.0)

    def test_exact_symmetry_and_range(self):
        rng = np.random.default_rng(81)
        for _ in range(10):
            bons, labels = random_connected_instance(rng, [12, 9], 3, 4)
            w = build_weight_graph(bons, labels, t=3.0)[0].dense()
            assert np.array_equal(w, w.T)
            assert np.all(w >= 0.0)
            assert np.all(w <= 1.0)
            assert np.all(np.diag(w) == 0.0)

    def test_block_offsets(self):
        rng = np.random.default_rng(82)
        bons, labels = random_instance(rng, [7, 11, 5], 3, 3)
        g = build_weight_graph(bons, labels, t=3.0)[0]
        assert g.block_offsets == (0, 7, 18)
        assert g.n == 23

    def test_connection_rule_honored_everywhere(self):
        # Oracle: re-evaluate the rule and the heat kernel entrywise.
        rng = np.random.default_rng(83)
        bons, labels = random_instance(rng, [10, 8], 4, 3)
        t = 4.0
        w = build_weight_graph(bons, labels, t=t)[0].dense()
        counts = np.vstack([b.counts for b in bons])
        stacked = np.concatenate(labels)
        sets = [label_set(bons[0], a) for a in range(10)]
        sets += [label_set(bons[1], a) for a in range(8)]
        for a in range(18):
            for b in range(18):
                if a == b:
                    continue
                connected = stacked[a] in sets[b] and stacked[b] in sets[a]
                if connected:
                    diff = counts[a].astype(float) - counts[b]
                    expect = np.exp(-float(diff @ diff) / t)
                    assert w[a, b] == pytest.approx(expect, abs=1e-14)
                else:
                    assert w[a, b] == 0.0

    def test_adversarial_label_layouts(self):
        # Single-label view against a view missing that label entirely:
        # all cross-view weights must vanish.
        x1 = np.array([[0.0], [0.2], [0.4]])
        lab1 = np.array([1, 1, 1])
        bon1 = bon_vectors(knn(x1, 2), lab1, 3)
        x2 = np.array([[0.0], [0.2], [0.4], [0.6]])
        lab2 = np.array([2, 2, 3, 3])
        bon2 = bon_vectors(knn(x2, 2), lab2, 3)
        w = build_weight_graph([bon1, bon2], [lab1, lab2], t=3.0)[0].dense()
        assert np.all(w[:3, 3:] == 0.0)
        assert np.all(w[3:, :3] == 0.0)

    def test_single_view_all_classes_pure_heat_kernel(self):
        # When every sample's neighborhood contains every class, the rule
        # connects everything and the graph is the plain heat kernel.
        x = np.array([[0.0], [0.01], [0.02], [0.03]])
        lab = np.array([1, 2, 1, 2])
        bon = bon_vectors(knn(x, 3), lab, 2)
        w = build_weight_graph([bon], [lab], t=2.0)[0].dense()
        counts = bon.counts.astype(float)
        for a in range(4):
            for b in range(4):
                if a == b:
                    continue
                diff = counts[a] - counts[b]
                assert w[a, b] == pytest.approx(np.exp(-float(diff @ diff) / 2.0))

    def test_class_count_mismatch(self):
        x = np.array([[0.0], [1.0], [2.0]])
        lab_small = np.array([1, 2, 2])
        bon2 = bon_vectors(knn(x, 1), lab_small, 2)
        bon3 = bon_vectors(knn(x, 1), lab_small, 3)
        with pytest.raises(ClassCountMismatchError):
            build_weight_graph([bon2, bon3], [lab_small, lab_small], t=2.0)

    def test_class_count_mismatch_names_views_from_1(self):
        x = np.array([[0.0], [1.0], [2.0]])
        lab = np.array([1, 2, 2])
        bon2 = bon_vectors(knn(x, 1), lab, 2)
        bon3 = bon_vectors(knn(x, 1), lab, 3)
        with pytest.raises(ClassCountMismatchError, match="^view 2 has 3 classes, view 1 has 2$"):
            build_weight_graph([bon2, bon3], [lab, lab], t=2.0)

    def test_cells_beyond_the_order_limit_are_refused_before_any_weight(self, monkeypatch):
        bon = BonMatrix(np.array([[2, 1], [1, 2], [2, 1]]), k=3)
        lab = np.array([1, 2, 1])
        assert build_weight_graph([bon], [lab], t=2.0)[0].m == 2

        def no_weights(*args):
            raise AssertionError("cell weights evaluated")

        monkeypatch.setattr(mvle.graph, "_cell_weights", no_weights)
        monkeypatch.setattr(mvle.linalg, "MAX_ORDER", 1)
        refused = "^eigenproblem order m = 2 exceeds the limit 1: "
        with pytest.raises(OrderTooLargeError, match=refused):
            build_weight_graph([bon], [lab], t=2.0)

    def test_t_must_be_positive(self):
        x = np.array([[0.0], [1.0]])
        lab = np.array([1, 1])
        bon = bon_vectors(knn(x, 1), lab, 1)
        with pytest.raises(ValueError):
            build_weight_graph([bon], [lab], t=0.0)


class TestDegreeAndLaplacian:
    def test_two_node_example(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        degrees, lap = degree_and_laplacian(w)
        assert np.array_equal(degrees, [1.0, 1.0])
        assert np.array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])

    def test_all_zero_isolated(self):
        with pytest.raises(IsolatedSampleError):
            degree_and_laplacian(np.zeros((3, 3)))

    def test_quadratic_form_oracle(self):
        # Oracle: x^T L x = 1/2 sum_ab W_ab (x_a - x_b)^2, direct double sum.
        rng = np.random.default_rng(84)
        w = rng.uniform(0.0, 1.0, size=(12, 12))
        w = (w + w.T) / 2.0
        np.fill_diagonal(w, 0.0)
        _, lap = degree_and_laplacian(w)
        for _ in range(100):
            x = rng.normal(size=12)
            direct = 0.0
            for a in range(12):
                for b in range(12):
                    direct += w[a, b] * (x[a] - x[b]) ** 2
            assert x @ lap @ x == pytest.approx(direct / 2.0, abs=1e-10)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(85)
        w = rng.uniform(0.0, 1.0, size=(9, 9))
        w = (w + w.T) / 2.0
        np.fill_diagonal(w, 0.0)
        _, lap = degree_and_laplacian(w)
        assert np.max(np.abs(lap.sum(axis=1))) < 1e-12

    def test_psd_on_random_graphs(self):
        rng = np.random.default_rng(86)
        for _ in range(10):
            w = rng.uniform(0.0, 1.0, size=(8, 8))
            w = (w + w.T) / 2.0
            np.fill_diagonal(w, 0.0)
            _, lap = degree_and_laplacian(w)
            assert np.linalg.eigvalsh(lap).min() > -1e-10


class TestGraphInvariantsEndToEnd:
    def test_degrees_match_w_and_l(self):
        rng = np.random.default_rng(87)
        bons, labels = random_instance(rng, [14, 10], 3, 5)
        g = dense_graph(build_weight_graph(bons, labels, t=3.0)[0])
        assert np.allclose(g.degrees, g.w.sum(axis=0), atol=1e-12)
        assert np.allclose(g.laplacian, np.diag(g.degrees) - g.w, atol=1e-15)
        assert np.max(np.abs(g.laplacian.sum(axis=1))) < 1e-12
