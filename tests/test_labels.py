"""The one label rule, ``dataset.check_labels``, and the one pairing rule,
``MultiViewDataset.paired_labels``, as every function taking them sees them."""

import numpy as np
import pytest

from mvle import mhon
from mvle.baselines import cca_lda_fit, elm_train, lda_fit, one_hot
from mvle.bon import bon_vectors, knn
from mvle.dataset import MultiViewDataset, View, check_labels
from mvle.errors import LabelOutOfRangeError, LengthMismatchError, UnpairedViewsError
from mvle.graph import build_weight_graph
from mvle.metrics import accuracy, s_b, s_w

C = 3
GOOD = np.array([1, 2, 3, 1, 2, 3, 1, 2])
X = np.random.default_rng(5).normal(size=(GOOD.size, 2))
Y = np.random.default_rng(6).normal(size=(GOOD.size, 2))
NEIGHBORS = knn(X, 2)

#: Each label-taking function, called on X's rows with the labels given, and
#: whether it knows the class count C.
CALLS = {
    "View": (lambda lab: View(X, lab), False),
    "MultiViewDataset": (lambda lab: MultiViewDataset((View(X, lab),), C), True),
    "bon_vectors": (lambda lab: bon_vectors(NEIGHBORS, lab, C), True),
    "build_weight_graph": (
        lambda lab: build_weight_graph([bon_vectors(NEIGHBORS, GOOD, C)], [lab], 3.0), True),
    "one_hot": (lambda lab: one_hot(lab, C), True),
    "elm_train": (lambda lab: elm_train(X, lab, C, hidden=4), True),
    "lda_fit": (lambda lab: lda_fit(X, lab, 1), False),
    "mhon.train": (lambda lab: mhon.train(X, Y, lab, C), True),
    "s_w": (lambda lab: s_w(X, lab), False),
    "s_b": (lambda lab: s_b(X, lab), False),
    "accuracy-predicted": (lambda lab: accuracy(lab, GOOD), False),
    "accuracy-truth": (lambda lab: accuracy(GOOD, lab), False),
}


def _with_first(value):
    lab = GOOD.astype(type(value))
    lab[0] = value
    return lab


#: Each bad label vector and the error the rule names for it.
BAD = {
    "fraction": (_with_first(1.5), LabelOutOfRangeError),
    "zero": (_with_first(0), LabelOutOfRangeError),
    "above-class-count": (_with_first(C + 1), LabelOutOfRangeError),
    "wrong-length": (GOOD[:-1], LengthMismatchError),
    "inf": (_with_first(np.inf), LabelOutOfRangeError),
    "boolean": (np.ones(GOOD.size, dtype=bool), LabelOutOfRangeError),
}


def _cases():
    for name, (_, bounded) in CALLS.items():
        for bad in BAD:
            # Only a function that knows C can reject C + 1, and one_hot has
            # no rows for its labels to disagree with.
            if (bad == "above-class-count" and not bounded) or (
                    bad == "wrong-length" and name == "one_hot"):
                continue
            yield pytest.param(name, bad, id=f"{name}-{bad}")


@pytest.mark.parametrize("name", sorted(CALLS))
def test_good_labels_pass(name):
    CALLS[name][0](GOOD)


@pytest.mark.parametrize("name,bad", list(_cases()))
def test_bad_labels_raise_the_rules_error(name, bad):
    labels, error = BAD[bad]
    with pytest.raises(error) as info:
        CALLS[name][0](labels)
    assert type(info.value) is error


class TestCheckLabels:
    @pytest.mark.parametrize("labels", [
        [1, 2, 3], np.array([1, 2, 3], dtype=np.uint8), np.array([1.0, 2.0, 3.0]),
    ], ids=["list", "uint8", "whole-floats"])
    def test_integers_come_back_as_int64(self, labels):
        got = check_labels(labels, 3, C)
        assert got.dtype == np.int64 and got.tolist() == [1, 2, 3]

    def test_no_upper_bound_without_class_count(self):
        top = np.iinfo(np.int64).max
        assert check_labels([top, 1], 2).tolist() == [top, 1]
        with pytest.raises(LabelOutOfRangeError):
            check_labels(np.array([2**64 - 1, 1], dtype=np.uint64), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e20, 2.0**63, -1.0, 2.5])
    def test_floats_that_are_not_labels(self, bad):
        # Casting these to int64 would warn or wrap; the rule rejects them first.
        with pytest.raises(LabelOutOfRangeError):
            View(np.zeros((2, 1)), [bad, 1.0])

    @pytest.mark.parametrize("bad", [[True, True], ["1", "2"], np.array([1, 2], dtype=object)],
                             ids=["bool", "str", "object"])
    def test_non_numeric_dtypes(self, bad):
        with pytest.raises(LabelOutOfRangeError, match="must be integers"):
            View(np.zeros((2, 1)), bad)

    def test_two_dimensional_labels(self):
        with pytest.raises(LengthMismatchError):
            View(np.zeros((2, 1)), [[1], [2]])

    def test_message_names_the_label_and_range(self):
        with pytest.raises(LabelOutOfRangeError, match=r"label 4 is not an integer in 1\.\.3"):
            check_labels([1, 4], 2, 3)


def _two_views(rows2, labels2=None):
    labels2 = GOOD[:rows2] if labels2 is None else labels2
    return MultiViewDataset((View(X, GOOD), View(Y[:rows2], labels2)), C)


class TestPairing:
    def test_paired_labels_is_the_shared_sequence(self):
        ds = _two_views(GOOD.size)
        assert ds.paired_labels().tolist() == GOOD.tolist()
        assert ds.view_data(0)[1].tolist() == GOOD.tolist()

    @pytest.mark.parametrize("fit", [lambda ds: ds.view_data(0), lambda ds: cca_lda_fit(ds, 1)],
                             ids=["view_data-0", "cca_lda_fit"])
    @pytest.mark.parametrize("ds", [
        _two_views(GOOD.size - 2), _two_views(GOOD.size, GOOD[::-1].copy()),
    ], ids=["unequal-counts", "unequal-labels"])
    def test_views_must_be_paired(self, fit, ds):
        with pytest.raises(UnpairedViewsError):
            fit(ds)
