"""Scatter diagnostics, accuracy, and report aggregation tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvle.baselines import _class_scatters
from mvle.errors import ClassTooSmallError, LengthMismatchError
from mvle.metrics import (
    REPORT_HEADER,
    EvalReport,
    ReportRow,
    accuracy,
    aggregate_reports,
    render_report_csv,
    s_b,
    s_w,
)
from oracle import mask_s_b, mask_s_w, mask_scatters


class TestScatter:
    def test_hand_example(self):
        x = np.array([[0.0], [2.0], [10.0], [12.0]])
        labels = np.array([1, 1, 2, 2])
        assert s_w(x, labels) == pytest.approx(2.0, abs=1e-10)
        assert s_b(x, labels) == pytest.approx(100.0 / 3.0, abs=1e-10)

    def test_zero_within_spread(self):
        x = np.array([[1.0, 5.0], [1.0, 5.0], [3.0, 0.0], [3.0, 0.0]])
        labels = np.array([1, 1, 2, 2])
        assert s_w(x, labels) == 0.0
        assert s_b(x, labels) > 0.0

    def test_singleton_class_rejected(self):
        x = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(ClassTooSmallError):
            s_w(x, np.array([1, 1, 2]))
        # s_b has no such floor
        assert s_b(x, np.array([1, 1, 2])) >= 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(60)
        x = rng.normal(size=(30, 4))
        labels = np.tile([1, 2, 3], 10)
        shift = rng.normal(scale=50.0, size=4)
        assert s_w(x + shift, labels) == pytest.approx(s_w(x, labels), rel=1e-9)
        assert s_b(x + shift, labels) == pytest.approx(s_b(x, labels), rel=1e-9)

    def test_scaling_quadratic(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(24, 3))
        labels = np.tile([1, 2], 12)
        gamma = 3.7
        assert s_b(gamma * x, labels) == pytest.approx(
            gamma**2 * s_b(x, labels), rel=1e-10
        )
        assert s_w(gamma * x, labels) == pytest.approx(
            gamma**2 * s_w(x, labels), rel=1e-10
        )

    def test_row_label_mismatch(self):
        with pytest.raises(LengthMismatchError):
            s_w(np.zeros((4, 2)), np.array([1, 2]))
        with pytest.raises(LengthMismatchError):
            s_b(np.zeros((4, 2)), np.array([1, 1, 2]))


@st.composite
def grouped_cases(draw):
    """A matrix and unsorted labels over up to 5 class ids drawn from 1..12,
    so ids have gaps and small draws leave one-row classes."""
    classes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=5, unique=True))
    n = draw(st.integers(2, 30))
    labels = draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))
    width = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(scale=scale, size=(n, width)) + rng.normal(scale=10 * scale, size=width)
    return x, np.array(labels, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(grouped_cases())
@example((np.arange(12.0).reshape(6, 2) ** 1.5, np.array([9, 2, 5, 2, 9, 9])))
def test_grouped_pass_matches_mask_loops_bit_for_bit(case):
    # The grouped pass keeps each class's rows in order, so every sum runs
    # in the same order as the per-class boolean-mask loops it replaced.
    x, labels = case
    got, want = _class_scatters(x, labels), mask_scatters(x, labels)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert s_b(x, labels) == mask_s_b(x, labels)
    try:
        expected = mask_s_w(x, labels)
    except ClassTooSmallError as exc:
        with pytest.raises(ClassTooSmallError) as err:
            s_w(x, labels)
        assert str(err.value) == str(exc)
    else:
        assert s_w(x, labels) == expected


class TestAccuracy:
    def test_identical(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert accuracy([1, 1, 1], [2, 2, 2]) == 0.0

    def test_three_quarters(self):
        assert accuracy([1, 2, 2, 3], [1, 2, 3, 3]) == 0.75

    def test_permutation_invariance(self):
        rng = np.random.default_rng(62)
        pred = rng.integers(1, 4, size=50)
        truth = rng.integers(1, 4, size=50)
        perm = rng.permutation(50)
        assert accuracy(pred[perm], truth[perm]) == accuracy(pred, truth)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            accuracy([1, 2], [1, 2, 3])


class TestEvalReport:
    def test_valid(self):
        r = EvalReport(
            method="mvle", view=1, dim=4, seed=7,
            accuracy=0.5, s_w=1.0, s_b=2.0, wall_time=0.1, fit_time=0.2,
        )
        assert r.accuracy == 0.5

    def test_none_scatters_allowed(self):
        r = EvalReport(
            method="raw", view=2, dim=0, seed=7,
            accuracy=1.0, s_w=None, s_b=None, wall_time=0.0, fit_time=0.0,
        )
        assert r.s_w is None

    def test_accuracy_range_enforced(self):
        with pytest.raises(ValueError):
            EvalReport(
                method="m", view=1, dim=1, seed=0,
                accuracy=1.5, s_w=None, s_b=None, wall_time=0.0, fit_time=0.0,
            )

    def test_negative_scatter_rejected(self):
        with pytest.raises(ValueError):
            EvalReport(
                method="m", view=1, dim=1, seed=0,
                accuracy=0.5, s_w=-0.1, s_b=None, wall_time=0.0, fit_time=0.0,
            )


def report(method, view, dim, acc, seed=0):
    return EvalReport(
        method=method, view=view, dim=dim, seed=seed,
        accuracy=acc, s_w=None, s_b=None, wall_time=0.0, fit_time=0.0,
    )


class TestAggregation:
    def test_mean_std_repeats(self):
        rows = aggregate_reports(
            [
                report("mvle", 1, 4, 0.8, seed=0),
                report("mvle", 1, 4, 0.6, seed=1),
                report("raw", 1, 0, 1.0),
            ]
        )
        assert len(rows) == 2
        mv = next(r for r in rows if r.method == "mvle")
        assert mv.mean_accuracy == pytest.approx(0.7)
        # population std over the repeats
        assert mv.std_accuracy == pytest.approx(0.1)
        assert mv.repeats == 2

    def test_sorted_by_method_view_dim(self):
        rows = aggregate_reports(
            [
                report("pls", 2, 4, 0.5),
                report("mvle", 2, 2, 0.5),
                report("mvle", 1, 8, 0.5),
                report("mvle", 1, 2, 0.5),
            ]
        )
        keys = [(r.method, r.view, r.dim) for r in rows]
        assert keys == sorted(keys)
        assert keys[0] == ("mvle", 1, 2)

    def test_csv_rendering(self):
        rows = [
            ReportRow(
                method="mvle", view=1, dim=4,
                mean_accuracy=0.987654321, std_accuracy=0.0123456789, repeats=5,
            )
        ]
        text = render_report_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == REPORT_HEADER
        assert lines[0] == "method,view,dim,mean_accuracy,std_accuracy,repeats"
        assert lines[1] == "mvle,1,4,0.987654,0.012346,5"
