"""Comparison-method tests: LDA, CCA(+LDA), PLS, MvDA, ELM."""

import numpy as np
import pytest
import scipy.linalg

from mvle import baselines as bl
from mvle.dataset import (
    MultiViewDataset,
    SyntheticSpec,
    View,
    gen_synthetic,
    split,
    zscore_normalize,
)
from mvle.errors import (
    DimMismatchError,
    DimTooLargeError,
    LengthMismatchError,
    UnpairedViewsError,
    VcDimMismatchError,
)
from mvle.linalg import SCATTER_REG, _fix_signs
from oracle import nipals_weights


def blob_views(seed, classes=3, per_class=20, d1=5, d2=5, sep=3.0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(1, classes + 1), per_class)
    c1 = sep * rng.normal(size=(classes, d1))
    c2 = sep * rng.normal(size=(classes, d2))
    n = labels.size
    v1 = View(c1[labels - 1] + rng.normal(size=(n, d1)), labels)
    v2 = View(c2[labels - 1] + rng.normal(size=(n, d2)), labels)
    return MultiViewDataset(views=(v1, v2), class_count=classes)


class TestLda:
    def test_two_far_classes_stay_far(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        labels = np.array([1, 1, 2, 2])
        proj = bl.lda_fit(x, labels, dim=1)
        assert abs(np.linalg.norm(proj.projections[0][:, 0]) - 1.0) < 1e-12
        z = proj.transform(0, x)[:, 0]
        assert abs(z[2:].mean() - z[:2].mean()) >= 9.0

    def test_scatter_improvement_on_blobs(self):
        ds = blob_views(24)
        view = ds.views[0]
        proj = bl.lda_fit(view.features, view.labels, dim=2)
        z = proj.transform(0, view.features)
        grand = z.mean(axis=0)
        sw = sb = 0.0
        for cls in (1, 2, 3):
            rows = z[view.labels == cls]
            mu = rows.mean(axis=0)
            sw += float(((rows - mu) ** 2).sum())
            sb += rows.shape[0] * float(((mu - grand) ** 2).sum())
        assert sw < sb

    def test_rank_bound(self):
        ds = blob_views(25)
        view = ds.views[0]
        with pytest.raises(DimTooLargeError):
            bl.lda_fit(view.features, view.labels, dim=3)

    def test_global_scaling_keeps_class_order(self):
        ds = blob_views(26)
        view = ds.views[0]
        proj = bl.lda_fit(view.features, view.labels, dim=2)
        proj_scaled = bl.lda_fit(7.5 * view.features, view.labels, dim=2)
        z = proj.transform(0, view.features)
        zs = proj_scaled.transform(0, 7.5 * view.features)
        for col in range(2):
            means = [z[view.labels == cls, col].mean() for cls in (1, 2, 3)]
            means_s = [zs[view.labels == cls, col].mean() for cls in (1, 2, 3)]
            assert np.array_equal(np.argsort(means), np.argsort(means_s))

    def test_label_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            bl.lda_fit(np.zeros((4, 2)), np.array([1, 2]), dim=1)


class TestCca:
    def test_perfect_linear_map(self):
        rng = np.random.default_rng(27)
        x = rng.normal(size=(200, 5))
        m = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
        res = bl.cca_fit(x, x @ m, kappa=1e-10)
        assert res.correlations[0] >= 1.0 - 1e-6
        assert np.all(res.correlations >= 1.0 - 1e-4)

    def test_independent_views_low_correlation(self):
        x = np.random.default_rng(28).normal(size=(500, 5))
        y = np.random.default_rng(29).normal(size=(500, 5))
        res = bl.cca_fit(x, y)
        assert res.correlations[0] < 0.3

    def test_correlations_in_range(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            x = rng.normal(size=(40, 4))
            y = x @ rng.normal(size=(4, 6)) + 0.5 * rng.normal(size=(40, 6))
            res = bl.cca_fit(x, y)
            assert np.all(res.correlations >= 0.0)
            assert np.all(res.correlations <= 1.0 + 1e-8)
            assert np.all(np.diff(res.correlations) <= 1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(60, 4))
        y = x @ rng.normal(size=(4, 3)) + 0.2 * rng.normal(size=(60, 3))
        ab = bl.cca_fit(x, y)
        ba = bl.cca_fit(y, x)
        assert np.allclose(ab.correlations, ba.correlations, atol=1e-10)
        assert np.allclose(ab.wx, ba.wy, atol=1e-8)
        assert np.allclose(ab.wy, ba.wx, atol=1e-8)

    def test_unpaired_views(self):
        with pytest.raises(UnpairedViewsError):
            bl.cca_fit(np.zeros((5, 2)), np.zeros((6, 2)))

    def test_cca_lda_pipeline_separates(self):
        ds = blob_views(32)
        proj = bl.cca_lda_fit(ds, dim=2)
        assert proj.method == "cca-lda"
        assert len(proj.projections) == 2
        assert proj.projections[0].shape == (5, 2)
        z = proj.transform(0, ds.views[0].features)
        labels = ds.views[0].labels
        grand = z.mean(axis=0)
        sw = sb = 0.0
        for cls in (1, 2, 3):
            rows = z[labels == cls]
            mu = rows.mean(axis=0)
            sw += float(((rows - mu) ** 2).sum())
            sb += rows.shape[0] * float(((mu - grand) ** 2).sum())
        assert sb > sw

    def test_cca_lda_swap_symmetry(self):
        ds = blob_views(33)
        swapped = MultiViewDataset(views=(ds.views[1], ds.views[0]), class_count=3)
        p = bl.cca_lda_fit(ds, dim=2)
        q = bl.cca_lda_fit(swapped, dim=2)
        assert np.allclose(p.projections[0], q.projections[1], atol=1e-8)
        assert np.allclose(p.projections[1], q.projections[0], atol=1e-8)

    def test_cca_lda_caps_at_class_rank(self):
        ds = blob_views(34)
        proj = bl.cca_lda_fit(ds, dim=4)
        assert proj.dim == 2

    def test_cca_lda_one_class_names_the_class_rank(self):
        v1, v2 = blob_views(35).views
        one = MultiViewDataset(
            views=tuple(View(v.features, np.ones(v.n, dtype=np.int64)) for v in (v1, v2)),
            class_count=1,
        )
        with pytest.raises(DimTooLargeError, match=r"class_count - 1 = 0"):
            bl.cca_lda_fit(one, dim=16)


def zscored_train(seed):
    """Training part of the default synthetic data at split seed ``seed``,
    each view z-scored by its own statistics, as the benchmark fits it."""
    train, _ = split(gen_synthetic(SyntheticSpec()), 2.0 / 3.0, seed)
    return MultiViewDataset(
        tuple(View(zscore_normalize(v.features)[0], v.labels) for v in train.views),
        train.class_count,
    )


class TestPls:
    def test_identical_views_first_direction_is_pc1(self):
        rng = np.random.default_rng(35)
        x = rng.normal(size=(120, 6)) @ np.diag([3.0, 2.0, 1.5, 1.0, 0.7, 0.4])
        res = bl.nipals_pls(x, x.copy(), dim=2)
        xc = x - x.mean(axis=0)
        _, vecs = np.linalg.eigh(xc.T @ xc)
        pc1 = vecs[:, -1]
        assert abs(abs(float(pc1 @ res.x_weights[:, 0])) - 1.0) < 1e-6

    def test_rank_one_cross_covariance_deflates_exactly(self):
        # carrier aligned with the top right-singular direction of centered
        # X, so one deflation removes the entire cross-covariance
        rng = np.random.default_rng(36)
        x = rng.normal(size=(100, 4))
        xd = x - x.mean(axis=0)
        _, _, vt = np.linalg.svd(xd, full_matrices=False)
        b = np.array([1.0, 0.5, -0.25])
        c = np.array([0.5, -1.0, 0.0])
        assert b @ c == 0.0
        z = rng.normal(size=100)
        q, _ = np.linalg.qr(np.column_stack([xd, np.ones(100)]))
        zperp = z - q @ (q.T @ z)
        y = np.outer(xd @ vt[0], b) + np.outer(zperp, c)
        assert np.linalg.matrix_rank(xd.T @ (y - y.mean(axis=0)), tol=1e-8) == 1

        res = bl.nipals_pls(x, y, dim=1)
        yd = y - y.mean(axis=0)
        xd2 = xd - np.outer(res.x_scores[:, 0], res.x_loadings[:, 0])
        yd2 = yd - np.outer(res.y_scores[:, 0], res.y_loadings[:, 0])
        assert np.linalg.norm(xd2.T @ yd2) <= 1e-8

    def test_successive_scores_orthogonal(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=(80, 6))
        y = x @ rng.normal(size=(6, 5)) + 0.3 * rng.normal(size=(80, 5))
        res = bl.nipals_pls(x, y, dim=3)
        for i in range(3):
            for j in range(i):
                assert abs(float(res.x_scores[:, i] @ res.x_scores[:, j])) <= 1e-8
                assert abs(float(res.y_scores[:, i] @ res.y_scores[:, j])) <= 1e-8

    def test_weights_unit_norm(self):
        rng = np.random.default_rng(38)
        x = rng.normal(size=(50, 5))
        y = x @ rng.normal(size=(5, 4)) + 0.1 * rng.normal(size=(50, 4))
        res = bl.nipals_pls(x, y, dim=3)
        assert np.allclose(np.linalg.norm(res.x_weights, axis=0), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(res.y_weights, axis=0), 1.0, atol=1e-12)

    def test_unpaired(self):
        with pytest.raises(UnpairedViewsError):
            bl.nipals_pls(np.zeros((4, 2)), np.zeros((5, 2)), dim=1)

    def test_rotations_map_centered_features_to_scores(self):
        rng = np.random.default_rng(44)
        x = rng.normal(size=(60, 6))
        y = x @ rng.normal(size=(6, 5)) + 0.2 * rng.normal(size=(60, 5))
        res = bl.nipals_pls(x, y, dim=4)
        assert np.allclose((x - x.mean(axis=0)) @ res.x_rotations, res.x_scores, atol=1e-10)
        assert np.allclose((y - y.mean(axis=0)) @ res.y_rotations, res.y_scores, atol=1e-10)

    def test_width_capped_by_view_at_split_seed_28(self):
        proj = bl.pls_fit(zscored_train(28), dim=16)
        assert [w.shape for w in proj.projections] == [(20, 15), (15, 15)]

    @pytest.mark.parametrize("seed", [0, 7, 23, 28])
    def test_weights_match_nipals_on_split_seeds(self, seed):
        x, y = (v.features for v in zscored_train(seed).views)
        self.assert_matches_nipals(x, y, 16)

    def test_weights_match_nipals_on_random_instances(self):
        rng = np.random.default_rng(45)
        for n, p, q, dim in [(40, 5, 4, 4), (80, 8, 6, 6), (25, 3, 7, 3), (120, 10, 10, 10)]:
            x = rng.normal(size=(n, p))
            y = x @ rng.normal(size=(p, q)) + 0.5 * rng.normal(size=(n, q))
            self.assert_matches_nipals(x, y, dim)

    @staticmethod
    def assert_matches_nipals(x, y, dim):
        # Equal within 1e-6 on unit columns, so also equal in sign.
        res = bl.nipals_pls(x, y, dim)
        wx, wy = nipals_weights(x, y, dim)
        assert res.x_weights.shape == wx.shape and res.y_weights.shape == wy.shape
        assert np.abs(res.x_weights - wx).max() <= 1e-6
        assert np.abs(res.y_weights - wy).max() <= 1e-6

    @pytest.mark.parametrize("instance", ["near_tie", "orthogonal_start"])
    def test_first_pair_reaches_top_singular_value(self, instance):
        # Y = Q M for centred orthonormal columns Q, so xd^T yd = M. Power
        # iteration stalls on M's near-tie 100 : 99.9, and from the Y column
        # of largest norm it never leaves M's third pair in the second case.
        rng = np.random.default_rng(46)
        n = 60
        q, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, 4))]))
        q = q[:, 1:]
        if instance == "near_tie":
            u, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            v, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            m = u @ np.diag([100.0, 99.9, 50.0, 10.0]) @ v.T
            x, y = q, q @ m
        else:
            x, y = q @ np.diag([25.0, 100.0, 75.0, 10.0]), q @ np.diag([2.0, 1.0, 1.0, 1.0])
        xd, yd = x - x.mean(axis=0), y - y.mean(axis=0)
        top = np.linalg.svd(xd.T @ yd, compute_uv=False)[0]
        res = bl.nipals_pls(x, y, dim=1)
        reached = res.x_weights[:, 0] @ xd.T @ yd @ res.y_weights[:, 0]
        assert abs(reached - top) <= 1e-10 * top

    def test_pls_fit_projector(self):
        ds = blob_views(40)
        proj = bl.pls_fit(ds, dim=2)
        assert proj.method == "pls"
        assert proj.projections[0].shape == (5, 2)
        assert proj.projections[1].shape == (5, 2)


class TestMvda:
    def test_identical_views_share_projection(self):
        rng = np.random.default_rng(41)
        labels = np.repeat([1, 2, 3], 15)
        feats = 3.0 * rng.normal(size=(3, 4))[labels - 1] + rng.normal(size=(45, 4))
        ds = MultiViewDataset(
            views=(View(feats, labels), View(feats.copy(), labels)), class_count=3
        )
        proj = bl.mvda_fit(ds, dim=2)
        assert np.allclose(proj.projections[0], proj.projections[1], atol=1e-10)
        for lam in (0.01, 1.0, 100.0):
            vc = bl.mvda_fit(ds, dim=2, view_consistency_lambda=lam)
            assert vc.method == "mvda-vc"
            assert np.allclose(vc.projections[0], proj.projections[0], atol=1e-5)
            assert np.allclose(vc.projections[1], proj.projections[1], atol=1e-5)

    def test_consistency_gap_monotone_in_lambda(self):
        ds = blob_views(42)
        gaps = []
        for lam in (0.01, 1.0, 100.0):
            proj = bl.mvda_fit(ds, dim=2, view_consistency_lambda=lam)
            gaps.append(
                float(np.linalg.norm(proj.projections[0] - proj.projections[1]))
            )
        assert gaps[0] > gaps[1] > gaps[2]

    def test_projection_improves_scatter_ratio(self):
        ds = blob_views(43)
        v1, v2 = ds.views
        labels = v1.labels
        proj = bl.mvda_fit(ds, dim=2)

        def trace_ratio(blocks):
            rows = np.vstack(blocks)
            lab = np.concatenate([labels, labels])
            grand = rows.mean(axis=0)
            sw = sb = 0.0
            for cls in (1, 2, 3):
                r = rows[lab == cls]
                mu = r.mean(axis=0)
                sw += float(((r - mu) ** 2).sum())
                sb += r.shape[0] * float(((mu - grand) ** 2).sum())
            return sb / sw

        projected = trace_ratio(
            [v1.features @ proj.projections[0], v2.features @ proj.projections[1]]
        )
        raw = trace_ratio(
            [
                np.concatenate([v1.features, np.zeros((v1.n, v2.dim))], axis=1),
                np.concatenate([np.zeros((v2.n, v1.dim)), v2.features], axis=1),
            ]
        )
        assert projected > raw

    def test_vc_needs_equal_dims(self):
        ds = blob_views(44, d1=5, d2=7)
        bl.mvda_fit(ds, dim=2)
        with pytest.raises(VcDimMismatchError):
            bl.mvda_fit(ds, dim=2, view_consistency_lambda=1.0)

    def test_dim_above_stacked_rejected(self):
        ds = blob_views(45, d1=3, d2=4)
        with pytest.raises(DimTooLargeError):
            bl.mvda_fit(ds, dim=8)

    def test_dim_may_exceed_class_rank(self):
        ds = blob_views(46)
        proj = bl.mvda_fit(ds, dim=4)
        assert proj.dim == 4


def lapack_directions(numer, denom, dim):
    """The top ``dim`` columns of LAPACK's generalized symmetric driver on
    ``(numer, denom + reg I)``, unit-norm and sign-fixed."""
    d = denom.shape[0]
    reg = SCATTER_REG * np.trace(denom) / d
    _, vecs = scipy.linalg.eigh(numer, denom + reg * np.eye(d))
    top = vecs[:, ::-1][:, :dim]
    return _fix_signs(top / np.linalg.norm(top, axis=0))


@pytest.mark.parametrize("split_seed", [0, 7, 23])
def test_directions_are_lapacks_generalized_driver(split_seed):
    # The generalized spectrum of (s_b, s_w) has c - 1 nonzero values, and
    # MvDA's columns beyond c - 1 are the driver's arbitrary choice within a
    # degenerate eigenspace. perfbench/reference.json recorded that choice,
    # so a change of solver must change this test in the same change that
    # re-records the benchmark references.
    train, _ = split(gen_synthetic(SyntheticSpec()), 2.0 / 3.0, split_seed)
    views = [View(zscore_normalize(v.features)[0], v.labels) for v in train.views]
    ds = MultiViewDataset(views=tuple(views), class_count=train.class_count)
    c = ds.class_count

    for view in views:
        s_w, s_b = bl._class_scatters(view.features, view.labels)
        got = bl.lda_fit(view.features, view.labels, c - 1).projections[0]
        assert np.array_equal(got, lapack_directions(s_b, s_w, c - 1))

    # The stacked space: each view in its own row and column block.
    stacked = np.zeros((sum(v.n for v in views), sum(v.dim for v in views)))
    stacked[: views[0].n, : views[0].dim] = views[0].features
    stacked[views[0].n :, views[0].dim :] = views[1].features
    s_w, s_b = bl._class_scatters(stacked, np.concatenate([v.labels for v in views]))
    got = np.vstack(bl.mvda_fit(ds, 16).projections)
    assert np.array_equal(got, lapack_directions(s_b, s_w, 16))


class TestElm:
    def test_single_class(self):
        rng = np.random.default_rng(47)
        x = rng.normal(size=(15, 3))
        clf = bl.elm_train(x, np.full(15, 1), class_count=1, seed=0)
        probes = rng.normal(scale=4.0, size=(30, 3))
        assert np.all(bl.elm_predict(clf, probes) == 1)

    def test_only_one_class_present(self):
        rng = np.random.default_rng(48)
        x = rng.normal(size=(15, 3))
        clf = bl.elm_train(x, np.full(15, 2), class_count=3, seed=0)
        assert np.all(bl.elm_predict(clf, x) == 2)

    def test_separable_blobs_accuracy(self):
        rng = np.random.default_rng(49)
        lab_tr = np.repeat([1, 2, 3], 40)
        lab_te = np.repeat([1, 2, 3], 20)
        centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        x_tr = centers[lab_tr - 1] + rng.normal(size=(120, 2))
        x_te = centers[lab_te - 1] + rng.normal(size=(60, 2))
        clf = bl.elm_train(x_tr, lab_tr, class_count=3, seed=0)
        acc = float(np.mean(bl.elm_predict(clf, x_te) == lab_te))
        assert acc >= 0.98

    def test_same_seed_reproducible(self):
        rng = np.random.default_rng(50)
        x = rng.normal(size=(30, 4))
        labels = np.tile([1, 2, 3], 10)
        c1 = bl.elm_train(x, labels, class_count=3, seed=5)
        c2 = bl.elm_train(x, labels, class_count=3, seed=5)
        assert np.array_equal(c1.a, c2.a)
        assert np.array_equal(c1.beta, c2.beta)
        c3 = bl.elm_train(x, labels, class_count=3, seed=6)
        assert not np.array_equal(c1.a, c3.a)

    def test_is_a_sigmoid_layer_fitted_onto_one_hot_labels(self):
        rng = np.random.default_rng(52)
        x = rng.normal(size=(20, 3))
        labels = np.tile([1, 2, 3, 4], 5)
        clf = bl.elm_train(x, labels, class_count=4, hidden=9, ridge_lambda=0.5, seed=3)
        want = bl.fit_layer(x, bl.one_hot(labels, 4), 9, 0.5, np.random.default_rng(3), "sigmoid")
        assert clf.activation == want.activation == "sigmoid"
        for part in ("a", "b", "beta"):
            assert np.array_equal(getattr(clf, part), getattr(want, part))
        out = bl.layer_output(clf, x)
        assert np.array_equal(out, bl.ACTIVATIONS["sigmoid"](x @ clf.a + clf.b) @ clf.beta)
        assert np.array_equal(bl.elm_predict(clf, x), np.argmax(out, axis=1) + 1)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(51)
        clf = bl.elm_train(rng.normal(size=(10, 4)), np.tile([1, 2], 5), 2)
        with pytest.raises(DimMismatchError):
            bl.elm_predict(clf, np.zeros((3, 5)))


class TestProjectorCommon:
    def test_centering_invariant(self):
        # fitted on z-scored features, every method's projection of those
        # same features is mean-zero within 1e-8
        ds = blob_views(52)
        normed = MultiViewDataset(
            views=tuple(
                View(zscore_normalize(v.features)[0], v.labels) for v in ds.views
            ),
            class_count=3,
        )
        fits = [
            bl.cca_lda_fit(normed, dim=2),
            bl.pls_fit(normed, dim=2),
            bl.mvda_fit(normed, dim=2),
        ]
        lda = bl.lda_fit(
            zscore_normalize(ds.views[0].features)[0], ds.views[0].labels, dim=2
        )
        for proj in fits:
            for i, view in enumerate(normed.views):
                z = proj.transform(i, view.features)
                assert np.max(np.abs(z.mean(axis=0))) < 1e-8
        z = lda.transform(0, zscore_normalize(ds.views[0].features)[0])
        assert np.max(np.abs(z.mean(axis=0))) < 1e-8

    def test_deterministic_fits(self):
        ds = blob_views(53)
        for fitter in (
            lambda: bl.cca_lda_fit(ds, dim=2),
            lambda: bl.pls_fit(ds, dim=2),
            lambda: bl.mvda_fit(ds, dim=2),
        ):
            p, q = fitter(), fitter()
            for a, b in zip(p.projections, q.projections):
                assert np.array_equal(a, b)

    def test_transform_checks_width(self):
        ds = blob_views(54)
        proj = bl.mvda_fit(ds, dim=2)
        with pytest.raises(DimMismatchError):
            proj.transform(0, np.zeros((3, 9)))
