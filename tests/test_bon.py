"""Neighbor search and bag-of-neighbors tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from mvle import bon as bon_mod
from mvle.bon import bon_vectors, knn
from mvle.errors import KTooLargeError, LabelOutOfRangeError
from oracle import label_set, pairwise_distance


def argsort_knn(x, k):
    """Reference: full distance matrix and a stable argsort per row."""
    dist = cdist(x, x)
    np.fill_diagonal(dist, np.inf)
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


def _ulp_pairs(x, rng):
    # Every odd row repeats the even row before it, one feature 1 ulp away.
    x[1::2] = x[: x.shape[0] // 2 * 2 : 2]
    feature = rng.integers(0, x.shape[1], size=x.shape[0] // 2)
    odd = np.arange(1, x.shape[0], 2)
    x[odd, feature] = np.nextafter(x[odd, feature], np.inf)
    return x


# Each maps standard normal data of a seeded generator to a hard case for
# the expanded-distance filter.
KNN_DATA = {
    "normal": lambda x, rng: x,
    "integer-grid": lambda x, rng: np.round(1.5 * x),
    "duplicate-rows": lambda x, rng: x[rng.integers(0, max(1, x.shape[0] // 3), x.shape[0])],
    "offset-1e6": lambda x, rng: x + 1e6,
    "scaled-1e-6": lambda x, rng: x * 1e-6,
    "scaled-1e6": lambda x, rng: x * 1e6,
    "ulp-pairs": _ulp_pairs,
    "ulp-pairs-offset": lambda x, rng: _ulp_pairs(x + 1e6, rng),
}


@st.composite
def knn_cases(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.sampled_from([1, 1, 2, 3, 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = KNN_DATA[draw(st.sampled_from(sorted(KNN_DATA)))](rng.normal(size=(n, d)), rng)
    k = draw(st.sampled_from([1, n - 1]) | st.integers(1, n - 1))
    chunk = draw(st.sampled_from([1, 3 * n, 1 << 22]))
    return x, k, chunk


class TestPairwiseDistance:
    def test_identical_rows(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert pairwise_distance(x, 0, 1) == 0.0

    def test_three_four_five(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert pairwise_distance(x, 0, 1) == pytest.approx(5.0, abs=1e-12)

    def test_scalar_loop_oracle(self):
        # Oracle: per-component squared difference summed in a plain loop.
        rng = np.random.default_rng(61)
        x = rng.normal(size=(10, 7))
        for a in range(10):
            for b in range(10):
                total = 0.0
                for j in range(7):
                    total += (x[a, j] - x[b, j]) ** 2
                expect = total**0.5
                assert pairwise_distance(x, a, b) == pytest.approx(expect, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(62)
        x = rng.normal(size=(6, 3))
        for a in range(6):
            for b in range(6):
                assert pairwise_distance(x, a, b) == pairwise_distance(x, b, a)


class TestKnn:
    def test_forced_ordering(self):
        x = np.array([[0.0], [1.0], [2.0], [10.0]])
        table = knn(x, 2)
        assert set(table[0].tolist()) == {1, 2}
        assert table[0].tolist() == [1, 2]
        assert table[3].tolist() == [2, 1]

    def test_all_identical_tie_break(self):
        x = np.zeros((5, 3))
        table = knn(x, 2)
        assert table[0].tolist() == [1, 2]
        assert table[3].tolist() == [0, 1]

    def test_self_excluded(self):
        rng = np.random.default_rng(63)
        x = rng.normal(size=(20, 4))
        table = knn(x, 5)
        for a in range(20):
            assert a not in table[a]
            assert len(table[a]) == 5

    def test_exhaustive_sort_oracle(self):
        # Oracle: full distance sort per sample with explicit tie handling.
        rng = np.random.default_rng(64)
        x = rng.normal(size=(50, 5))
        table = knn(x, 7)
        for a in range(50):
            dists = [
                (pairwise_distance(x, a, b), b) for b in range(50) if b != a
            ]
            dists.sort()
            expect = [b for _, b in dists[:7]]
            assert table[a].tolist() == expect

    def test_neighbors_sorted_by_distance(self):
        rng = np.random.default_rng(65)
        x = rng.normal(size=(30, 3))
        table = knn(x, 6)
        for a in range(30):
            seq = [pairwise_distance(x, a, b) for b in table[a]]
            assert all(seq[i] <= seq[i + 1] + 1e-15 for i in range(len(seq) - 1))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(66)
        x = rng.normal(size=(15, 4))
        perm = rng.permutation(15)
        inverse = np.argsort(perm)
        base = knn(x, 4)
        shuffled = knn(x[perm], 4)
        for new_idx, old_idx in enumerate(perm):
            mapped = [inverse[b] for b in base[old_idx]]
            assert shuffled[new_idx].tolist() == mapped

    def test_rotation_invariance(self):
        rng = np.random.default_rng(67)
        x = rng.normal(size=(25, 6))
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        base = knn(x, 5)
        rotated = knn(x @ q, 5)
        assert np.array_equal(base, rotated)

    @pytest.mark.parametrize("chunk_entries", [1, 97, 1 << 22])
    def test_tie_heavy_matches_stable_argsort(self, monkeypatch, chunk_entries):
        # Integer-rounded features make many exactly equal distances; small
        # chunks split the rows into many blocks, down to one row each.
        monkeypatch.setattr(bon_mod, "KNN_CHUNK_ENTRIES", chunk_entries)
        rng = np.random.default_rng(68)
        for n, d, k in [(40, 1, 5), (60, 2, 9), (33, 3, 32), (50, 2, 1)]:
            x = np.round(rng.normal(scale=1.5, size=(n, d)))
            assert np.array_equal(knn(x, k), argsort_knn(x, k))

    @settings(max_examples=300, deadline=None)
    @given(knn_cases())
    def test_matches_cdist_argsort(self, case):
        # Chunks of one row, of a few rows, and of all rows.
        x, k, chunk = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bon_mod, "KNN_CHUNK_ENTRIES", chunk)
            got = knn(x, k)
        assert np.array_equal(got, argsort_knn(x, k))

    def test_memory_stays_within_the_chunk_budget(self):
        # A filter that kept whole rows of candidates, or a copy of a whole
        # block of distances, would pass 1.5 times the budget here.
        x = np.random.default_rng(69).normal(size=(2000, 8)) + 1e6
        tracemalloc.start()
        try:
            knn(x, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * bon_mod.KNN_CHUNK_ENTRIES

    def test_non_finite_rejected(self):
        x = np.zeros((4, 2))
        x[2, 1] = np.nan
        with pytest.raises(ValueError):
            knn(x, 2)

    def test_rows_too_large_to_square_rejected(self):
        # Finite, so the matrix rule passes them, but |row|^2 overflows.
        x = np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="too large to square"):
            knn(x, 1)

    def test_k_too_large(self):
        x = np.zeros((4, 2))
        with pytest.raises(KTooLargeError):
            knn(x, 4)
        with pytest.raises(KTooLargeError):
            knn(x, 0)


class TestBonVectors:
    def test_direct_count(self):
        x = np.array([[0.0], [0.1], [0.2], [5.0]])
        table = knn(x, 3)
        labels = np.array([1, 1, 2, 3])
        bon = bon_vectors(table, labels, 3)
        # Neighbors of sample 3 are all of 0,1,2: labels 1,1,2.
        assert bon.counts[3].tolist() == [2, 1, 0]
        assert label_set(bon, 3) == {1, 2}

    def test_degenerate_single_class_neighborhood(self):
        x = np.array([[0.0], [0.1], [0.2], [0.3]])
        labels = np.array([2, 2, 2, 2])
        bon = bon_vectors(knn(x, 3), labels, 3)
        for a in range(4):
            assert bon.counts[a].tolist() == [0, 3, 0]

    def test_row_sum_conservation(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            n = int(rng.integers(8, 40))
            k = int(rng.integers(1, n - 1))
            c = int(rng.integers(2, 6))
            x = rng.normal(size=(n, 3))
            labels = rng.integers(1, c + 1, size=n)
            bon = bon_vectors(knn(x, k), labels, c)
            assert np.all(bon.counts.sum(axis=1) == k)
            assert np.all(bon.counts >= 0)
            assert np.all(bon.counts <= k)

    def test_label_presence_matches_counts(self):
        rng = np.random.default_rng(72)
        x = rng.normal(size=(20, 2))
        labels = rng.integers(1, 4, size=20)
        bon = bon_vectors(knn(x, 5), labels, 3)
        for a in range(20):
            expect = {t + 1 for t in range(3) if bon.counts[a, t] > 0}
            assert label_set(bon, a) == expect

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(73)
        x = rng.normal(size=(18, 3))
        labels = rng.integers(1, 4, size=18)
        perm = rng.permutation(18)
        base = bon_vectors(knn(x, 4), labels, 3)
        shuffled = bon_vectors(knn(x[perm], 4), labels[perm], 3)
        for new_idx, old_idx in enumerate(perm):
            assert shuffled.counts[new_idx].tolist() == base.counts[old_idx].tolist()

    def test_label_above_class_count(self):
        x = np.zeros((4, 2))
        labels = np.array([1, 2, 3, 4])
        with pytest.raises(LabelOutOfRangeError):
            bon_vectors(knn(x, 2), labels, 3)
