"""The one feature-matrix rule, ``dataset.check_matrix``, as every function
taking a feature or target matrix sees it."""

import re

import numpy as np
import pytest

from mvle import mhon
from mvle.baselines import cca_fit, elm_predict, elm_train, lda_fit, nipals_pls
from mvle.bon import knn
from mvle.dataset import View, check_matrix, zscore_apply, zscore_fit
from mvle.errors import DimMismatchError
from mvle.linalg import ridge_solve
from mvle.metrics import s_b, s_w

C = 3
LABELS = np.array([1, 2, 3, 1, 2, 3, 1, 2])
X = np.random.default_rng(7).normal(size=(LABELS.size, 2))
Y = np.random.default_rng(8).normal(size=(LABELS.size, 2))
HYPER = mhon.MhonHyper(h2=4)
STATS = zscore_fit(X)
PROJECTOR = lda_fit(X, LABELS, 1)
CLASSIFIER = elm_train(X, LABELS, C, hidden=4)
MODEL = mhon.train(X, Y, LABELS, C, hyper=HYPER)

#: Each fit-side function, called with the matrix given in the place of the
#: argument its name ends in, and X, Y or LABELS in the others.
FIT = {
    "View": lambda x: View(x, LABELS),
    "zscore_fit": zscore_fit,
    "ridge_solve-h": lambda x: ridge_solve(x, Y, 1e-2),
    "ridge_solve-t": lambda x: ridge_solve(X, x, 1e-2),
    "knn": lambda x: knn(x, 2),
    "s_w": lambda x: s_w(x, LABELS),
    "s_b": lambda x: s_b(x, LABELS),
    "lda_fit": lambda x: lda_fit(x, LABELS, 1),
    "cca_fit-x": lambda x: cca_fit(x, Y),
    "cca_fit-y": lambda x: cca_fit(X, x),
    "nipals_pls-x": lambda x: nipals_pls(x, Y, 1),
    "nipals_pls-y": lambda x: nipals_pls(X, x, 1),
    "elm_train": lambda x: elm_train(x, LABELS, C, hidden=4),
    "mhon.train-x": lambda x: mhon.train(x, Y, LABELS, C, hyper=HYPER),
    "mhon.train-y_view": lambda x: mhon.train(X, x, LABELS, C, hyper=HYPER),
}

#: Each apply-side function, called on new rows of X's width.
APPLY = {
    "zscore_apply": lambda x: zscore_apply(x, STATS),
    "transform": lambda x: PROJECTOR.transform(0, x),
    "elm_predict": lambda x: elm_predict(CLASSIFIER, x),
    "mhon.embed": lambda x: mhon.embed(MODEL, x),
    "mhon.predict": lambda x: mhon.predict(MODEL, x),
}


def _with_first(value):
    x = X.copy()
    x[0, 0] = value
    return x


#: Each bad matrix and the error the rule names for it on each side where it
#: is bad: an empty matrix is bad only on the fit side, and a narrow one only
#: where a width is expected.
BAD = {
    "1-D": (X[:, 0], {"fit": ValueError, "apply": DimMismatchError}),
    "empty": (np.zeros((0, X.shape[1])), {"fit": ValueError}),
    "nan": (_with_first(np.nan), {"fit": ValueError, "apply": ValueError}),
    "inf": (_with_first(-np.inf), {"fit": ValueError, "apply": ValueError}),
    "narrow": (X[:, :-1], {"apply": DimMismatchError}),
}


def _cases():
    for side, calls in (("fit", FIT), ("apply", APPLY)):
        for name in calls:
            for bad, (_, errors) in BAD.items():
                # A vector is a valid target of ridge_solve.
                if side in errors and (name, bad) != ("ridge_solve-t", "1-D"):
                    yield pytest.param(side, name, bad, id=f"{name}-{bad}")


def _call(side, name, x):
    return (FIT if side == "fit" else APPLY)[name](x)


@pytest.mark.parametrize("side,name", [("fit", name) for name in FIT]
                         + [("apply", name) for name in APPLY],
                         ids=list(FIT) + list(APPLY))
def test_good_matrices_pass(side, name):
    _call(side, name, X)


@pytest.mark.parametrize("side,name,bad", list(_cases()))
def test_bad_matrices_raise_the_rules_error(side, name, bad):
    x, errors = BAD[bad]
    with pytest.raises(errors[side]) as info:
        _call(side, name, x)
    assert type(info.value) is errors[side]


@pytest.mark.parametrize("name", list(APPLY))
def test_apply_side_takes_zero_rows(name):
    assert len(APPLY[name](np.zeros((0, X.shape[1])))) == 0


class TestCheckMatrix:
    def test_returns_a_float64_matrix(self):
        got = check_matrix([[1, 2], [3, 4]], "x")
        assert got.dtype == np.float64 and got.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_float64_input_is_not_copied(self):
        assert check_matrix(X, "x") is X

    @pytest.mark.parametrize("shape", [(3,), (0, 2), (2, 0), ()])
    def test_fit_side_names_the_matrix_and_shape(self, shape):
        message = f"x must be a nonempty 2-D array, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_matrix(np.zeros(shape), "x")

    @pytest.mark.parametrize("shape", [(3,), (3, 21), (0, 19), (2, 3, 20)])
    def test_apply_side_names_the_width(self, shape):
        with pytest.raises(DimMismatchError) as err:
            check_matrix(np.zeros(shape), "model", 20)
        assert str(err.value) == f"model expects 20 features, got shape {shape}"

    def test_apply_side_takes_zero_rows(self):
        assert check_matrix(np.zeros((0, 20)), "model", 20).shape == (0, 20)

    @pytest.mark.parametrize("cols", [None, 2])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_names_the_matrix(self, cols, value):
        with pytest.raises(ValueError, match=r"^x: NaN or Inf in a matrix of shape \(8, 2\)$"):
            check_matrix(_with_first(value), "x", cols)
