"""The cell-form (quotient) eigensolve against the dense N×N problem."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from mvle import embedding as embedding_mod
from mvle.bon import bon_vectors, knn
from mvle.dataset import (
    MultiViewDataset,
    SyntheticSpec,
    View,
    gen_synthetic,
    split,
    zscore_normalize,
)
from mvle.embedding import fit
from mvle.errors import IsolatedSampleError
from mvle.graph import degree_and_laplacian
from mvle.linalg import generalized_eig_diag

EIG_TOL = 1e-10
GAP_MIN = 1e-6


def dense_weights(bons, labels, t):
    """Reference: the N×N weight matrix built entry for entry from the rule."""
    counts = np.vstack([b.counts for b in bons]).astype(np.float64)
    lab = np.concatenate(labels)
    has_label = (counts > 0)[:, lab - 1]
    w = np.where(has_label & has_label.T, np.exp(-cdist(counts, counts, "sqeuclidean") / t), 0.0)
    np.fill_diagonal(w, 0.0)
    return w


def fit_bons(ds, k):
    """The BON matrices ``fit`` builds, by the same route."""
    return [
        bon_vectors(knn(zscore_normalize(v.features)[0], k), v.labels, ds.class_count)
        for v in ds.views
    ]


@st.composite
def instances(draw):
    """Views of few distinct integer points, so many samples share a cell."""
    c = draw(st.integers(1, 4))
    views = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(c + 1, 12))
        d = draw(st.integers(1, 3))
        base = draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=1, max_size=n
        ))
        rows = draw(st.lists(st.integers(0, len(base) - 1), min_size=n, max_size=n))
        labels = draw(st.lists(st.integers(1, c), min_size=n, max_size=n))
        labels[:c] = range(1, c + 1)
        views.append(View(np.array(base, dtype=np.float64)[rows], np.array(labels)))
    ds = MultiViewDataset(views=tuple(views), class_count=c)
    k = draw(st.integers(1, min(v.n for v in views) - 1))
    t = draw(st.floats(0.05, 20.0))
    n_total = ds.n_total
    dim = draw(st.one_of(st.integers(1, min(3, n_total - 1)),
                         st.integers(max(1, n_total - 3), n_total - 1)))
    return ds, k, t, dim


def fit_spying(ds, k, dim, t):
    """``fit`` plus the orders of the eigenproblems it solved."""
    with mock.patch.object(
        embedding_mod, "generalized_eig_diag", wraps=generalized_eig_diag
    ) as spy:
        emb, art = fit(ds, k, dim, t)
    return emb, art, [call.args[0].shape[0] for call in spy.call_args_list]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instances())
def test_quotient_matches_dense(instance):
    ds, k, t, dim = instance
    bons = fit_bons(ds, k)
    labels = [v.labels for v in ds.views]
    w = dense_weights(bons, labels, t)
    try:
        degrees, lap = degree_and_laplacian(w)
    except IsolatedSampleError as dense_err:
        with pytest.raises(IsolatedSampleError) as err:
            fit(ds, k, dim, t)
        assert str(err.value) == str(dense_err)
        return
    dense = generalized_eig_diag(lap, degrees)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # disconnected graphs
        emb, art, orders = fit_spying(ds, k, dim, t)
    graph = art.graph
    assert np.array_equal(graph.dense().w, w)

    # Full spectrum: quotient eigenvalues plus c_q - 1 copies of 1 + w_qq/d_q.
    quotient = generalized_eig_diag(*graph.quotient()).values
    band = 1.0 + np.diagonal(graph.wq) / graph.cell_degrees
    spectrum = np.sort(np.concatenate([quotient, np.repeat(band, graph.sizes - 1)]))
    assert np.max(np.abs(spectrum - dense.values)) < EIG_TOL
    assert np.max(np.abs(emb.eigenvalues - dense.values[1 : dim + 1])) < EIG_TOL

    fell_back = orders == [graph.m, graph.n]
    if dense.values[dim] >= graph.within_cell_band() - 1e-8:
        assert fell_back
    if fell_back:
        assert np.array_equal(emb.y, dense.vectors[:, 1 : dim + 1])
        return
    assert orders == [graph.m]
    # The sign convention holds on the expanded rows.
    lead = np.argmax(np.abs(emb.y), axis=0)
    assert np.all(emb.y[lead, np.arange(dim)] > 0.0)
    gaps = np.diff(np.append(dense.values, np.inf)[: dim + 2])
    if gaps[0] > GAP_MIN and gaps[-1] > GAP_MIN:
        # Compared at unit scale, where D^(1/2) Y has orthonormal columns.
        # Entries scale as d^(-1/2), and the degrees of a tiny t span hundreds
        # of decades, so roundoff may pick the lead entry; columns are
        # compared up to sign here and with their signs in the tests below.
        root_d = np.sqrt(degrees)[:, None]
        got, want = root_d * emb.y, root_d * dense.vectors[:, 1 : dim + 1]
        assert np.max(np.abs(got @ got.T - want @ want.T)) < EIG_TOL
        separated = np.minimum(gaps[:-1], gaps[1:]) > GAP_MIN
        got = got * np.sign(np.sum(got * want, axis=0))
        assert np.max(np.abs(got - want)[:, separated], initial=0.0) < EIG_TOL


@pytest.mark.parametrize("split_seed", [0, 7, 23])
def test_synthetic_fit_equals_dense_solve(split_seed):
    # The generator's views at the default settings, with signs compared.
    ds, _ = split(gen_synthetic(SyntheticSpec(samples_per_class=150)), 2.0 / 3.0, split_seed)
    emb, art, orders = fit_spying(ds, 10, 8, None)
    graph = art.graph
    assert orders == [graph.m] and graph.m < graph.n / 2
    dense = graph.dense()
    want = generalized_eig_diag(dense.laplacian, dense.degrees)
    assert np.max(np.abs(emb.eigenvalues - want.values[1:9])) < EIG_TOL
    assert np.max(np.abs(emb.y - want.vectors[:, 1:9])) < EIG_TOL


def test_dim_in_within_cell_band_falls_back_to_dense():
    # Three copies of each of six points per view: every cell holds several
    # samples, so dim = N - 1 asks for within-cell eigenvalues.
    rng = np.random.default_rng(5)
    labels = np.repeat([1, 2], 9)
    views = []
    for width in (2, 3):
        points = rng.normal(size=(6, width))
        views.append(View(np.repeat(points, 3, axis=0), labels))
    ds = MultiViewDataset(views=tuple(views), class_count=2)
    emb, art, orders = fit_spying(ds, 4, ds.n_total - 1, None)
    graph = art.graph
    assert graph.m < graph.n and orders == [graph.m, graph.n]
    dense = graph.dense()
    want = generalized_eig_diag(dense.laplacian, dense.degrees)
    assert np.array_equal(emb.y, want.vectors[:, 1:])
    assert np.array_equal(emb.eigenvalues, want.values[1:])


def test_sign_tie_between_cells_breaks_by_sample_index():
    # Mirror-image cells give the quotient eigenvector (s, -s) exactly. Cell 0
    # is class 2, the later samples; the dense convention makes the first
    # sample of largest magnitude positive, which is sample 0, of class 1.
    features = np.repeat([[0.0], [1.0]], 3, axis=0)
    ds = MultiViewDataset(views=(View(features, np.repeat([1, 2], 3)),), class_count=2)
    emb, art = fit(ds, 3, 1)
    assert art.graph.cell_index.tolist() == [1, 1, 1, 0, 0, 0]
    assert emb.y[0, 0] > 0.0
    assert np.array_equal(emb.y[:, 0], np.repeat([1.0, -1.0], 3) * emb.y[0, 0])
