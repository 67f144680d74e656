"""The cell-form eigensolve against the dense N×N problem.

Where the dense spectrum has a block of eigenvalues closer than ``GAP_MIN``
(a within-cell eigenvalue of multiplicity two or more, a tie, or a gap too
small for float64 to resolve), the fit's basis of that eigenspace is one
valid choice among many, so the fit and the dense solve are compared by the
unit-scale spectral projector over each block, which is equal between any
two correct solves. A single-column block reduces to comparing the column
up to sign.
"""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from mvle import embedding as embedding_mod
from mvle import graph as graph_mod
from mvle import linalg as linalg_mod
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
from mvle.graph import CellGraph, build_weight_graph
from mvle.linalg import LANCZOS_MIN_ORDER, _fix_signs, generalized_eig_diag
from oracle import cell_weights, degree_and_laplacian, dense_graph, repeated_points

EIG_TOL = 1e-10
# A float64 eigensolver places an eigenspace to about eps * ||A|| / gap (the
# Davis-Kahan sin theta bound on its backward error), for the gap that
# separates the eigenspace from the rest of the spectrum. Here A is the
# whitened D^(-1/2) L D^(-1/2), whose spectrum lies in [0, 2]. Blocks are cut
# only at gaps where that error is 100 times below EIG_TOL; eigenvalues any
# closer are compared as one eigenspace.
GAP_MIN = 100 * 2 * np.finfo(np.float64).eps / EIG_TOL


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
    """``fit`` plus the orders of the eigenproblems it solved and the number
    of times it built the dense graph."""
    with mock.patch.object(
        embedding_mod, "generalized_eig_diag", wraps=generalized_eig_diag
    ) as eig_spy, mock.patch.object(
        CellGraph, "dense", autospec=True, side_effect=CellGraph.dense
    ) as dense_spy:
        emb, art = fit(ds, k, dim, t)
    orders = [call.args[0].shape[0] for call in eig_spy.call_args_list]
    return emb, art, orders, dense_spy.call_count


def assert_same_eigenspaces(emb, w, dense, dim):
    """Each block of the dense spectrum inside 1..dim, cut where neighbouring
    eigenvalues differ by more than GAP_MIN, has the same unit-scale spectral
    projector in the fit as in the dense solve."""
    values = dense.values
    n = values.shape[0]
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(values) > GAP_MIN) + 1, [n]])
    root_d = np.sqrt(w.sum(axis=1))[:, None]
    got = root_d * emb.y
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo < 1 or hi > dim + 1:
            continue
        want = root_d * dense.vectors[:, lo:hi]
        block = got[:, lo - 1 : hi - 1]
        assert np.max(np.abs(block @ block.T - want @ want.T)) < EIG_TOL, (lo, hi)


# Fourteen samples whose dense gap at the cut, 1.65e-6 with degrees from
# 4.6e-9 to 5, leaves the float64 dense solve 1.5e-10 off at unit scale: the
# two eigenvalues form one block across the cut, whose vectors no float64
# solve can place within EIG_TOL.
NEAR_TIE_AT_CUT = (
    MultiViewDataset(
        views=(
            View(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])[[0, 0, 1, 0, 1, 0, 1, 0, 0, 1]],
                 np.array([1, 2, 3, 1, 3, 1, 1, 1, 1, 2])),
            View(np.zeros((4, 1)), np.array([1, 2, 3, 2])),
        ),
        class_count=3,
    ),
    2, 0.3125, 3,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instances())
@example(NEAR_TIE_AT_CUT)
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
        emb, art, orders, dense_calls = fit_spying(ds, k, dim, t)
    graph = art.graph
    # One m×m solve, whatever dim asks for, and no N×N graph.
    assert orders == [graph.m] and dense_calls == 0
    assert np.array_equal(graph.dense(), w)

    # Full spectrum: quotient eigenvalues plus c_q - 1 copies of 1 + w_qq/d_q.
    _, built = build_weight_graph(bons, labels, t)
    quotient = generalized_eig_diag(*built).values
    self_weights = np.diagonal(cell_weights(graph))
    assert np.array_equal(graph.self_weights, self_weights)
    band = 1.0 + self_weights / graph.cell_degrees
    spectrum = np.sort(np.concatenate([quotient, np.repeat(band, graph.sizes - 1)]))
    assert np.max(np.abs(spectrum - dense.values)) < EIG_TOL
    assert np.max(np.abs(emb.eigenvalues - dense.values[1 : dim + 1])) < EIG_TOL
    if dim == ds.n_total - 1:
        assert art.eigengap is None
    else:
        assert abs(art.eigengap - (dense.values[dim + 1] - dense.values[dim])) < 2 * EIG_TOL
    # The sign convention holds on the expanded rows.
    lead = np.argmax(np.abs(emb.y), axis=0)
    assert np.all(emb.y[lead, np.arange(dim)] > 0.0)
    # Entries scale as d^(-1/2), and the degrees of a tiny t span hundreds of
    # decades, so roundoff may pick the lead entry; the spaces are compared
    # without signs here and with them in the tests below.
    assert_same_eigenspaces(emb, w, dense, dim)


@pytest.mark.parametrize("split_seed", [0, 7, 23])
def test_synthetic_fit_equals_dense_solve(split_seed):
    # The generator's views at the default settings, with signs compared.
    ds, _ = split(gen_synthetic(SyntheticSpec(samples_per_class=150)), 2.0 / 3.0, split_seed)
    emb, art, orders, dense_calls = fit_spying(ds, 10, 8, None)
    graph = art.graph
    assert orders == [graph.m] and dense_calls == 0 and graph.m < graph.n / 2
    dense = dense_graph(graph)
    want = generalized_eig_diag(dense.laplacian, dense.degrees)
    assert np.max(np.abs(emb.eigenvalues - want.values[1:9])) < EIG_TOL
    assert np.max(np.abs(emb.y - want.vectors[:, 1:9])) < EIG_TOL


def helmert_column(graph, q, j):
    """The j-th Helmert contrast over cell q's samples, scaled by d_q^(-1/2),
    with the sign convention applied."""
    members = np.flatnonzero(graph.cell_index == q)
    col = np.zeros(graph.n)
    col[members[:j]] = 1.0
    col[members[j]] = -j
    col /= np.sqrt(j * (j + 1)) * np.sqrt(graph.cell_degrees[q])
    lead = np.argmax(np.abs(col))
    return col * np.sign(col[lead])


def test_dim_in_within_cell_band_uses_closed_form_pairs():
    # Every cell holds several samples, so dim = N - 1 takes every
    # within-cell eigenpair; all come from the one m×m solve.
    ds = repeated_points()
    emb, art, orders, dense_calls = fit_spying(ds, 4, ds.n_total - 1, None)
    graph = art.graph
    assert graph.m < graph.n and orders == [graph.m] and dense_calls == 0
    dense = dense_graph(graph)
    want = generalized_eig_diag(dense.laplacian, dense.degrees)
    assert np.max(np.abs(emb.eigenvalues - want.values[1:])) < EIG_TOL
    assert_same_eigenspaces(emb, dense.w, want, ds.n_total - 1)

    # The within-cell columns, each zero outside one cell, are that cell's
    # closed-form contrasts in order j = 1 .. c_q - 1.
    within = {}
    for col in emb.y.T:
        cells = np.unique(graph.cell_index[col != 0.0])
        if cells.size == 1:
            within.setdefault(int(cells[0]), []).append(col)
    assert sum(map(len, within.values())) == graph.n - graph.m
    for q, cols in within.items():
        want = [helmert_column(graph, q, j) for j in range(1, graph.sizes[q])]
        assert np.max(np.abs(np.array(cols) - np.array(want))) < EIG_TOL


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


def test_eigensolve_bits_match_the_out_of_place_formulas():
    # The built quotient and its dense solve work in place; on a
    # protocol-sized and a c4-sized quotient they give the bits of the plain
    # formulas, with the cell weights recomputed out of place.
    for spec in (SyntheticSpec(samples_per_class=150), SyntheticSpec(samples_per_class=500)):
        ds, _ = split(gen_synthetic(spec), 2.0 / 3.0, 7)
        graph, (lq, dq) = build_weight_graph(fit_bons(ds, 10), [v.labels for v in ds.views],
                                             float(ds.class_count))
        want = cell_weights(graph) * -np.outer(graph.sizes, graph.sizes)
        np.fill_diagonal(want, 0.0)
        np.fill_diagonal(want, -want.sum(axis=1))
        assert np.array_equal(lq, want)
        inv_sqrt = 1.0 / np.sqrt(dq)
        white = lq * np.multiply.outer(inv_sqrt, inv_sqrt)
        assert np.array_equal(white, white.T)
        values, vectors = np.linalg.eigh(white)
        got = generalized_eig_diag(lq, dq, count=10)
        assert got.solver == "dense" and graph.m < LANCZOS_MIN_ORDER
        assert np.array_equal(got.values, values)
        assert np.array_equal(got.vectors, _fix_signs(inv_sqrt[:, None] * vectors))


def fit_solver(ds, k, dim, min_order=None):
    """``fit``, the solver its quotient solve took, and whether Lanczos ran;
    ``min_order`` overrides the Lanczos threshold."""
    with mock.patch.object(linalg_mod, "_lanczos", wraps=linalg_mod._lanczos) as spy:
        if min_order is not None:
            with mock.patch.object(linalg_mod, "LANCZOS_MIN_ORDER", min_order):
                emb, art = fit(ds, k, dim)
        else:
            emb, art = fit(ds, k, dim)
    return emb, art, spy.called


def test_large_quotient_fit_takes_lanczos_and_matches_dense():
    # 16 overlapping classes leave most BON cells distinct, as in the
    # pipeline-c16 benchmark.
    ds = gen_synthetic(SyntheticSpec(class_count=16, samples_per_class=50, noise_sigma=1.0))
    emb, art, called = fit_solver(ds, 10, 8)
    assert art.graph.m >= LANCZOS_MIN_ORDER
    assert called and art.eig_solver == "lanczos"
    want, want_art, called = fit_solver(ds, 10, 8, min_order=art.graph.m + 1)
    assert not called and want_art.eig_solver == "dense"
    assert np.max(np.abs(emb.eigenvalues - want.eigenvalues)) < EIG_TOL
    assert abs(art.eigengap - want_art.eigengap) < 2 * EIG_TOL
    assert np.max(np.abs(emb.y - want.y)) < EIG_TOL


def test_fit_evaluates_the_cell_weights_once():
    ds = gen_synthetic(SyntheticSpec(class_count=16, samples_per_class=50, noise_sigma=1.0))
    with mock.patch.object(graph_mod, "_cell_weights", wraps=graph_mod._cell_weights) as spy:
        _, art = fit(ds, 10, 8)
    assert art.eig_solver == "lanczos" and spy.call_count == 1


def test_protocol_sized_fit_stays_dense():
    ds, _ = split(gen_synthetic(SyntheticSpec(samples_per_class=60)), 2.0 / 3.0, 7)
    _, art, called = fit_solver(ds, 10, 16)
    assert art.graph.m < LANCZOS_MIN_ORDER
    assert not called and art.eig_solver == "dense"


def separated_groups(groups, per_class=55, seed=3):
    """Two views of ``groups`` far-apart blobs, each with its own four
    classes, so the joint graph has ``groups`` components."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(1, 4 * groups + 1), per_class)
    group = (labels - 1) // 4
    views = []
    for width in (6, 5):
        feats = 1e3 * group[:, None] + rng.normal(size=(labels.size, width))
        views.append(View(feats, labels))
    return MultiViewDataset(views=tuple(views), class_count=4 * groups)


@pytest.mark.parametrize("dim", [1, 4])
def test_disconnected_large_quotient_warns_as_dense(dim):
    # Four components: dim = 1 asks for three quotient pairs, fewer than the
    # zero eigenvalues, so the certificate fails and the dense solve runs;
    # dim = 4 asks for six, and Lanczos finds all four.
    ds = separated_groups(4)
    runs = []
    for min_order in (None, 10**9):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            emb, art, _ = fit_solver(ds, 10, dim, min_order)
        runs.append(([str(w.message) for w in caught], emb, art))
    (got_warn, got, got_art), (want_warn, want, want_art) = runs
    assert got_art.graph.m >= LANCZOS_MIN_ORDER
    assert got_art.eig_solver == ("dense" if dim == 1 else "lanczos")
    assert want_art.eig_solver == "dense"
    assert got_warn == want_warn and len(got_warn) == 1
    assert "4 near-zero eigenvalues" in got_warn[0]
    if dim == 1:
        # The fallback solves the whitened matrix the failed certificate
        # restored, so it gives the forced dense solve's bits.
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.y, want.y)
    assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) < EIG_TOL


def test_large_fit_holds_about_one_quotient_array():
    # c16-style data at N = 4000 gives m of about 2700 cells; the fit builds
    # the quotient Laplacian as its one m×m array and keeps none of that size.
    ds = gen_synthetic(SyntheticSpec(class_count=16, samples_per_class=125, noise_sigma=1.0))
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _, art = fit(ds, 10, 8)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    m = art.graph.m
    assert ds.n_total == 4000 and art.eig_solver == "lanczos"
    assert peak <= 1.4 * m * m * 8, peak / (m * m * 8)
    held = [v.size for v in vars(art.graph).values() if isinstance(v, np.ndarray)]
    assert max(held) < m * m
