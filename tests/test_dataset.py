"""Dataset container, CSV, normalization, split, and generator tests."""

import numpy as np
import pytest

import mvle.dataset as dataset
from mvle.dataset import (
    MultiViewDataset,
    SyntheticSpec,
    View,
    gen_synthetic,
    load_view_csv,
    split,
    write_view_csv,
    zscore_apply,
    zscore_fit,
    zscore_normalize,
)
from mvle.errors import (
    ClassTooSmallError,
    LabelOutOfRangeError,
    LengthMismatchError,
    NonNumericCellError,
    RaggedRowsError,
)


def make_dataset(rng, counts, class_count, dims=(3, 4)):
    labels = np.concatenate(
        [np.full(cnt, cls + 1, dtype=np.int64) for cls, cnt in enumerate(counts)]
    )
    views = tuple(View(rng.normal(size=(labels.size, d)), labels) for d in dims)
    return MultiViewDataset(views=views, class_count=class_count)


class TestContainers:
    def test_view_validates_shapes(self):
        with pytest.raises(ValueError):
            View(np.zeros(3), np.array([1, 1, 1]))
        with pytest.raises(LengthMismatchError):
            View(np.zeros((3, 2)), np.array([1, 1]))
        with pytest.raises(ValueError):
            View(np.array([[1.0, np.inf]]), np.array([1]))

    def test_labels_must_be_positive(self):
        with pytest.raises(LabelOutOfRangeError):
            View(np.zeros((2, 2)), np.array([0, 1]))

    def test_dataset_label_range_checked(self):
        v = View(np.zeros((2, 2)), np.array([1, 3]))
        with pytest.raises(LabelOutOfRangeError):
            MultiViewDataset(views=(v,), class_count=2)


class TestZscore:
    def test_two_point_column(self):
        normed, stats = zscore_normalize(np.array([[0.0], [2.0]]))
        assert np.allclose(normed, [[-1.0], [1.0]], atol=1e-12)
        assert np.allclose(stats.mean, [1.0]) and np.allclose(stats.std, [1.0])

    def test_constant_column_maps_to_zeros(self):
        normed, _ = zscore_normalize(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        assert np.allclose(normed[:, 0], 0.0, atol=1e-15)

    def test_columns_standardized(self):
        rng = np.random.default_rng(41)
        x = rng.normal(loc=3.0, scale=2.5, size=(50, 6))
        normed, _ = zscore_normalize(x)
        assert np.max(np.abs(normed.mean(axis=0))) < 1e-10
        assert np.max(np.abs(normed.std(axis=0) - 1.0)) < 1e-10

    def test_idempotence(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(30, 4))
        once, _ = zscore_normalize(x)
        twice, _ = zscore_normalize(once)
        assert np.max(np.abs(twice - once)) < 1e-10

    def test_train_stats_applied_to_train_equals_normalize(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(20, 5))
        normed, stats = zscore_normalize(x)
        assert np.array_equal(zscore_apply(x, stats), normed)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            zscore_fit(np.array([[1.0, 2.0]]))


class TestCsv:
    def test_direct_parse(self, tmp_path):
        fp = tmp_path / "features.csv"
        lp = tmp_path / "labels.csv"
        fp.write_text("1.0,2.0\n3.0,4.0\n")
        lp.write_text("1\n2\n")
        view = load_view_csv(fp, lp)
        assert np.array_equal(view.features, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(view.labels, [1, 2])

    def test_ragged_rows(self, tmp_path):
        fp = tmp_path / "features.csv"
        lp = tmp_path / "labels.csv"
        fp.write_text("1,2\n3\n")
        lp.write_text("1\n2\n")
        with pytest.raises(RaggedRowsError):
            load_view_csv(fp, lp)

    def test_non_numeric_cell(self, tmp_path):
        fp = tmp_path / "features.csv"
        lp = tmp_path / "labels.csv"
        fp.write_text("1,abc\n3,4\n")
        lp.write_text("1\n2\n")
        with pytest.raises(NonNumericCellError):
            load_view_csv(fp, lp)

    def test_non_finite_cell(self, tmp_path):
        fp = tmp_path / "features.csv"
        lp = tmp_path / "labels.csv"
        fp.write_text("1,inf\n3,4\n")
        lp.write_text("1\n2\n")
        with pytest.raises(NonNumericCellError):
            load_view_csv(fp, lp)

    def test_label_count_mismatch(self, tmp_path):
        fp = tmp_path / "features.csv"
        lp = tmp_path / "labels.csv"
        fp.write_text("1,2\n3,4\n")
        lp.write_text("1\n")
        with pytest.raises(LengthMismatchError):
            load_view_csv(fp, lp)

    def test_bad_label_value(self, tmp_path):
        fp = tmp_path / "features.csv"
        lp = tmp_path / "labels.csv"
        fp.write_text("1,2\n3,4\n")
        lp.write_text("1\n0\n")
        with pytest.raises(LabelOutOfRangeError):
            load_view_csv(fp, lp)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_view_csv(tmp_path / "nope.csv", tmp_path / "nope2.csv")

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(44)
        view = View(rng.normal(size=(12, 5)) * 1e3, rng.integers(1, 4, size=12))
        fp = tmp_path / "f.csv"
        lp = tmp_path / "l.csv"
        write_view_csv(view, fp, lp)
        back = load_view_csv(fp, lp)
        assert np.array_equal(back.features, view.features)
        assert np.array_equal(back.labels, view.labels)


class TestSplit:
    def test_six_sample_example(self):
        ds = make_dataset(np.random.default_rng(51), [3, 3], 2)
        train, test = split(ds, 2.0 / 3.0, seed=0)
        for part, size in ((train, 4), (test, 2)):
            for view in part.views:
                assert view.n == size
                assert set(view.labels.tolist()) == {1, 2}

    def test_determinism(self):
        ds = make_dataset(np.random.default_rng(52), [5, 7, 6], 3)
        a_train, a_test = split(ds, 0.5, seed=9)
        b_train, b_test = split(ds, 0.5, seed=9)
        for a, b in zip(a_train.views + a_test.views, b_train.views + b_test.views):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)

    def test_99_sample_ceiling_arithmetic(self):
        # Oracle: per-class ceiling sum, computed by hand: 3 * ceil(2/3 * 33).
        ds = make_dataset(np.random.default_rng(53), [33, 33, 33], 3, dims=(2,))
        train, test = split(ds, 2.0 / 3.0, seed=1)
        assert train.views[0].n == 66
        assert test.views[0].n == 33

    def test_partition_per_view(self):
        rng = np.random.default_rng(54)
        ds = make_dataset(rng, [8, 5, 9], 3)
        train, test = split(ds, 0.6, seed=3)
        for i, view in enumerate(ds.views):
            combined = np.vstack([train.views[i].features, test.views[i].features])
            original = view.features
            order = np.lexsort(combined.T)
            base = np.lexsort(original.T)
            assert np.allclose(combined[order], original[base])

    def test_paired_views_stay_paired(self):
        # Same labels in both views: row k of each view is the same sample,
        # so the split must pick identical row indices in both views.
        rng = np.random.default_rng(55)
        labels = np.repeat([1, 2, 3], 10)
        marker = np.arange(30, dtype=np.float64)
        v1 = View(np.column_stack([marker, rng.normal(size=30)]), labels)
        v2 = View(np.column_stack([marker, rng.normal(size=30), marker]), labels)
        ds = MultiViewDataset(views=(v1, v2), class_count=3)
        train, _ = split(ds, 2.0 / 3.0, seed=6)
        assert np.array_equal(train.views[0].features[:, 0], train.views[1].features[:, 0])

    def test_class_too_small(self):
        ds = make_dataset(np.random.default_rng(56), [4, 1], 2)
        with pytest.raises(ClassTooSmallError):
            split(ds, 0.5, seed=0)

    def test_no_test_sample_left_in_a_view(self):
        # ceil(0.7 * 2) = 2 and ceil(0.7 * 3) = 3: every class trains whole.
        ds = make_dataset(np.random.default_rng(58), [2, 3], 2)
        with pytest.raises(ClassTooSmallError, match=r"0\.7 .* view 0: .* sizes \[2, 3\]"):
            split(ds, 0.7, seed=0)
        # ceil(0.7 * 4) = 3: class 1 has no test sample, but its view has one.
        ds = make_dataset(np.random.default_rng(58), [2, 4], 2)
        _, test = split(ds, 0.7, seed=0)
        assert [view.labels.tolist() for view in test.views] == [[2], [2]]

    def test_fraction_bounds(self):
        ds = make_dataset(np.random.default_rng(57), [4, 4], 2)
        with pytest.raises(ValueError):
            split(ds, 0.0, seed=0)
        with pytest.raises(ValueError):
            split(ds, 1.0, seed=0)


class TestGenSynthetic:
    def test_default_shapes_and_balance(self):
        ds = gen_synthetic(SyntheticSpec())
        assert ds.class_count == 4
        assert len(ds.views) == 2
        assert ds.views[0].features.shape == (240, 20)
        assert ds.views[1].features.shape == (240, 15)
        for view in ds.views:
            values, counts = np.unique(view.labels, return_counts=True)
            assert np.array_equal(values, [1, 2, 3, 4])
            assert np.all(counts == 60)

    def test_same_seed_identical(self):
        a = gen_synthetic(SyntheticSpec(seed=123))
        b = gen_synthetic(SyntheticSpec(seed=123))
        for va, vb in zip(a.views, b.views):
            assert np.array_equal(va.features, vb.features)
            assert np.array_equal(va.labels, vb.labels)

    def test_different_seed_differs(self):
        a = gen_synthetic(SyntheticSpec(seed=1))
        b = gen_synthetic(SyntheticSpec(seed=2))
        assert not np.array_equal(a.views[0].features, b.views[0].features)

    def test_latent_separation_two_classes(self):
        # The anchor draw guarantees a minimum angular gap; with the latent
        # spread used by the generator, every within-class pair must sit
        # closer than every between-class pair.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            anchors = dataset._latent_anchors(rng, 2)
            latent = np.repeat(anchors, 60, axis=0) + dataset._LATENT_SIGMA * rng.normal(
                size=(120, 2)
            )
            labels = np.repeat([0, 1], 60)
            dist = np.linalg.norm(latent[:, None, :] - latent[None, :, :], axis=2)
            same = labels[:, None] == labels[None, :]
            np.fill_diagonal(same, False)
            within_max = dist[same].max()
            between_min = dist[~same & ~np.eye(120, dtype=bool)].min()
            assert within_max < between_min

    def test_noise_free_linear_views_class_separable(self):
        spec = SyntheticSpec(
            class_count=2, samples_per_class=40, noise_sigma=0.0, nonlinearity="linear", seed=5
        )
        ds = gen_synthetic(spec)
        for view in ds.views:
            centroids = np.stack(
                [view.features[view.labels == cls].mean(axis=0) for cls in (1, 2)]
            )
            assigned = np.argmin(
                np.linalg.norm(view.features[:, None, :] - centroids[None], axis=2), axis=1
            ) + 1
            assert np.array_equal(assigned, view.labels)

    def test_anchor_min_gap(self):
        for seed in range(20):
            anchors = dataset._latent_anchors(np.random.default_rng(seed), 4)
            angles = np.sort(np.arctan2(anchors[:, 1], anchors[:, 0]))
            gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * np.pi]]))
            assert gaps.min() >= (2.0 * np.pi / 4) * dataset._MIN_GAP_FACTOR - 1e-12

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(class_count=1)
        with pytest.raises(ValueError):
            SyntheticSpec(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            SyntheticSpec(nonlinearity="cubic")
        with pytest.raises(ValueError):
            SyntheticSpec(view_dims=(4,))
