"""Dataset container, CSV, normalization, split, and generator tests."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvle.dataset as dataset
from mvle.cli import main
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


def test_matrix_csv_is_the_repr_of_each_float(tmp_path):
    # Two whole blocks and a part of one, with every kind of float, against
    # the per-scalar reference; an integer matrix is written as floats too.
    rng = np.random.default_rng(46)
    m = rng.normal(size=(2 * dataset._CSV_BLOCK_ROWS + 5, 6)) * 10.0 ** rng.integers(-300, 300, 6)
    m[3] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.0**53 + 2]
    for matrix in (m, np.arange(12).reshape(4, 3), m[:0]):
        dataset.write_matrix_csv(matrix, tmp_path / "m.csv")
        want = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in matrix)
        assert (tmp_path / "m.csv").read_text(encoding="utf-8") == want


def csv_outcome(directory, features, labels):
    """What :func:`load_view_csv` makes of the two file texts (str or bytes).

    Labels None leave the labels file missing. A parsed view comes back as
    (shape, feature bytes, labels); an error as (type, message).
    """
    fp, lp = Path(directory) / "features.csv", Path(directory) / "labels.csv"
    for path, text in ((fp, features), (lp, labels)):
        if text is not None:
            path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    try:
        view = load_view_csv(fp, lp)
    except Exception as exc:
        return type(exc), str(exc)
    return view.features.shape, view.features.tobytes(), view.labels.tolist()


def assert_matches_scanner(directory, features, labels):
    got = csv_outcome(directory, features, labels)
    with mock.patch.object(dataset, "_loadtxt_view", return_value=None):
        assert got == csv_outcome(directory, features, labels)


GOOD_LABELS = "1\n2\n"

# (features text, labels text) pairs where numpy's reader and the strict
# scanner could part ways: whitespace, line ends, cell syntax and label syntax.
CSV_CASES = {
    "plain": ("1,2\n3,4\n", GOOD_LABELS),
    "blank_line": ("1,2\n\n3,4\n", GOOD_LABELS),
    "spaces_only_line": ("1,2\n   \n3,4\n", GOOD_LABELS),
    "tab_only_line": ("1,2\n\t\n3,4\n", GOOD_LABELS),
    "padded_cells": (" 1 , 2 \n3,4\n", GOOD_LABELS),
    "tab_padded_cells": ("\t1,2\t\n3,4\n", GOOD_LABELS),
    "crlf": ("1,2\r\n3,4\r\n", "1\r\n2\r\n"),
    "lone_cr": ("1,2\r3,4\r", "1\r2\r"),
    "no_final_newline": ("1,2\n3,4", "1\n2"),
    "trailing_commas": ("1,2,\n3,4,\n", GOOD_LABELS),
    "empty_cell": ("1,,2\n3,4,5\n", GOOD_LABELS),
    "ragged": ("1,2\n3\n", GOOD_LABELS),
    "underscore": ("1_0,2\n3,4\n", GOOD_LABELS),
    "nan": ("nan,2\n3,4\n", GOOD_LABELS),
    "inf": ("1,inf\n3,4\n", GOOD_LABELS),
    "minus_infinity": ("-Infinity,2\n3,4\n", GOOD_LABELS),
    "overflow": ("1e999,2\n3,4\n", GOOD_LABELS),
    "underflow": ("1e-400,2\n3,4\n", GOOD_LABELS),
    "extremes": ("4.9e-324,1.7976931348623157e308\n3,4\n", GOOD_LABELS),
    "signs_and_exponents": ("-0,+1.5e3\n.5,1.E-2\n", GOOD_LABELS),
    "bom": ("\ufeff1,2\n3,4\n", GOOD_LABELS),
    "arabic_indic_digit": ("\u0661,2\n3,4\n", GOOD_LABELS),
    "no_break_space": ("\u00a01,2\n3,4\n", GOOD_LABELS),
    "line_separator": ("1,2\n\u20283,4\n", GOOD_LABELS),
    "file_separator": ("1,2\n3,4\x1c\n", GOOD_LABELS),
    "quoted": ('"1",2\n3,4\n', GOOD_LABELS),
    "hash_cell": ("#1,2\n3,4\n", GOOD_LABELS),
    "hash_line": ("1,2\n#c\n3,4\n", GOOD_LABELS),
    "trailing_hash": ("1,2\n3,4 # note\n", GOOD_LABELS),
    "inner_space": ("1 2,3\n4,5\n", GOOD_LABELS),
    "hex": ("0x10,2\n3,4\n", GOOD_LABELS),
    "not_utf8": (b"1,\xff\n3,4\n", GOOD_LABELS),
    "empty_files": ("", ""),
    "blank_files": ("\n \n", "\n"),
    "too_few_labels": ("1,2\n3,4\n", "1\n"),
    "missing_labels": ("1,2\n3,4\n", None),
    "missing_labels_after_nan": ("nan,2\n3,4\n", None),
    "missing_labels_after_empty": ("", None),
    "label_float": ("1,2\n3,4\n", "1.0\n2\n"),
    "label_plus": ("1,2\n3,4\n", "+1\n2\n"),
    "label_zero": ("1,2\n3,4\n", "0\n2\n"),
    "label_negative": ("1,2\n3,4\n", "-1\n2\n"),
    "label_beyond_int64": ("1,2\n3,4\n", "99999999999999999999\n2\n"),
    "label_int64_max_plus_one": ("1,2\n3,4\n", "9223372036854775808\n2\n"),
    "labels_on_one_line": ("1,2\n3,4\n", "1,2\n"),
    "labels_padded": ("1,2\n3,4\n", " 1 \n\n2\r\n"),
    "label_underscore": ("1,2\n3,4\n", "1_0\n2\n"),
    "label_arabic_indic_digit": ("1,2\n3,4\n", "\u0661\n2\n"),
    "label_bom": ("1,2\n3,4\n", "\ufeff1\n2\n"),
    "label_hash": ("1,2\n3,4\n", "#1\n2\n"),
}


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_csv_cases_match_scanner(tmp_path, case):
    assert_matches_scanner(tmp_path, *CSV_CASES[case])


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
)
ODD_CELLS = st.one_of(
    st.sampled_from(["nan", "-inf", "1e999"]),
    st.sampled_from(["1e-400", "1_0", "\u0661", '"1"', "#1", "", "0x1"]),
    st.text(alphabet="0123456789+-.eE_ \t", max_size=6),
)
ODD_LABELS = st.sampled_from(
    ["1.0", "+1", "0", "-1", "99999999999999999999", "1_0", "\u0661", "#1", "1,2", ""]
)
PADS = st.sampled_from(["", "", " ", "\t", "\u00a0"])
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])
# At most two kinds of defect per example, so that files with one defect,
# the ones numpy's reader gets to parse, stay common.
DEFECTS = st.sets(st.sampled_from([
    "bom", "trailing_comma", "blank_lines", "ragged", "label_count", "labels_on_one_line",
    "odd_cell", "odd_label",
]), max_size=2)


def csv_text(draw, rows, defects):
    """Rows of cell texts as file text: padded cells, blank lines, mixed line ends."""
    text = "\ufeff" if "bom" in defects and draw(st.booleans()) else ""
    fillers = ["", " ", "\t"] if "blank_lines" in defects else [""]
    for cells in rows:
        text += ",".join(draw(PADS) + cell + draw(PADS) for cell in cells)
        if "trailing_comma" in defects and draw(st.booleans()):
            text += ","
        text += draw(ENDINGS)
        if draw(st.booleans()):
            text += draw(st.sampled_from(fillers)) + draw(ENDINGS)
    return text


def with_odd_entry(draw, rows, odd):
    """``rows`` with one entry replaced by a draw from ``odd``."""
    if rows and rows[0]:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(odd)
    return rows


@st.composite
def csv_pairs(draw):
    """Feature and label file texts, well-formed or carrying a few defects."""
    defects = draw(DEFECTS)
    n = draw(st.integers(1, 4))
    width = draw(st.integers(1, 3))
    widths = [draw(st.integers(1, 3)) if "ragged" in defects else width for _ in range(n)]
    rows = [draw(st.lists(NUMBERS, min_size=w, max_size=w)) for w in widths]
    label_count = draw(st.integers(0, 5)) if "label_count" in defects else n
    labels = [str(draw(st.integers(1, 4))) for _ in range(label_count)]
    label_rows = [labels] if "labels_on_one_line" in defects else [[label] for label in labels]
    if "odd_cell" in defects:
        rows = with_odd_entry(draw, rows, ODD_CELLS)
    if "odd_label" in defects:
        label_rows = with_odd_entry(draw, label_rows, ODD_LABELS)
    return csv_text(draw, rows, defects), csv_text(draw, label_rows, defects)


@settings(max_examples=300, deadline=None)
@given(csv_pairs())
def test_csv_matches_scanner(pair):
    with tempfile.TemporaryDirectory() as directory:
        assert_matches_scanner(directory, *pair)


def test_well_formed_files_skip_the_scanner(tmp_path, capsys, monkeypatch):
    # A numpy release that warns inside loadtxt would send every file to the
    # slow scanner without changing any result; only a spy sees that.
    scanned = []
    scan = dataset._scan_view
    monkeypatch.setattr(dataset, "_scan_view", lambda *paths: scanned.append(paths) or scan(*paths))
    rng = np.random.default_rng(45)
    view = View(rng.normal(size=(2000, 20)), rng.integers(1, 5, size=2000))
    write_view_csv(view, tmp_path / "f.csv", tmp_path / "l.csv")
    back = load_view_csv(tmp_path / "f.csv", tmp_path / "l.csv")
    assert np.array_equal(back.features, view.features)
    assert np.array_equal(back.labels, view.labels)
    assert main(["gen", "--out-dir", str(tmp_path / "gen")]) == 0
    capsys.readouterr()
    for i in (1, 2):
        load_view_csv(tmp_path / "gen" / f"view{i}_features.csv",
                      tmp_path / "gen" / f"view{i}_labels.csv")
    assert scanned == []


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

    def test_class_too_small_names_its_view_from_1(self):
        rng = np.random.default_rng(59)
        v1 = View(rng.normal(size=(4, 2)), np.array([1, 1, 2, 2]))
        v2 = View(rng.normal(size=(3, 2)), np.array([1, 1, 2]))
        ds = MultiViewDataset(views=(v1, v2), class_count=2)
        with pytest.raises(ClassTooSmallError, match=r"class 2 has 1 sample\(s\) in view 2;"):
            split(ds, 0.5, seed=0)

    def test_no_test_sample_left_in_a_view(self):
        # ceil(0.7 * 2) = 2 and ceil(0.7 * 3) = 3: every class trains whole.
        ds = make_dataset(np.random.default_rng(58), [2, 3], 2)
        with pytest.raises(ClassTooSmallError, match=r"0\.7 .* view 1: .* sizes \[2, 3\]"):
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
