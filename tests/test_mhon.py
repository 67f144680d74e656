"""Out-of-sample network tests: activations, training, fidelity, JSON."""

import json
import tracemalloc

import numpy as np
import pytest

from mvle import mhon
from mvle.dataset import NormStats, SyntheticSpec, gen_synthetic
from mvle.embedding import fit
from mvle.errors import DimMismatchError, LabelOutOfRangeError, LengthMismatchError
from mvle.baselines import one_hot
from mvle.mhon import MhonHyper, decision_values, embed, predict, train


def small_problem(seed=0, n_per=10, classes=3, d=6, dim=2, spread=1.0):
    """Raw features plus synthetic guiding targets for direct train() tests."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(1, classes + 1), n_per)
    centers = rng.normal(scale=2.0, size=(classes, d))
    x = centers[labels - 1] + spread * rng.normal(size=(labels.size, d))
    targets = rng.normal(size=(classes, dim))[labels - 1]
    targets += 0.05 * rng.normal(size=(labels.size, dim))
    return x, targets, labels, classes


class TestActivation:
    def test_softsign_zero(self):
        assert mhon.ACTIVATIONS["softsign"](np.array(0.0)) == 0.0

    def test_softsign_one(self):
        assert mhon.ACTIVATIONS["softsign"](np.array(1.0)) == 0.5

    def test_softsign_monotone_and_bounded(self):
        rng = np.random.default_rng(5)
        f = mhon.ACTIVATIONS["softsign"]
        pairs = rng.normal(scale=10.0, size=(1000, 2))
        lo = np.minimum(pairs[:, 0], pairs[:, 1] - 1e-9)
        hi = np.maximum(pairs[:, 0] + 1e-9, pairs[:, 1])
        assert np.all(f(lo) < f(hi))
        assert np.all(np.abs(f(pairs)) < 1.0)

    def test_registry_names(self):
        assert set(mhon.ACTIVATIONS) >= {"softsign", "sigmoid", "tanh"}
        with pytest.raises(ValueError):
            MhonHyper(activation="relu6")


class TestOneHot:
    def test_direct(self):
        got = one_hot([2, 1, 3], 3)
        assert np.array_equal(
            got, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        )

    def test_out_of_range(self):
        with pytest.raises(LabelOutOfRangeError):
            one_hot([0, 1], 2)
        with pytest.raises(LabelOutOfRangeError):
            one_hot([1, 3], 2)


class TestTrain:
    def test_interpolation_residual(self):
        # enough random features to interpolate: relative residual < 1e-3
        x, targets, labels, c = small_problem(seed=1, n_per=20)
        h = MhonHyper(h1=80, ridge_lambda=1e-8, seed=3)
        model = train(x, targets, labels, c, hyper=h)
        z = embed(model, x)
        rel = np.linalg.norm(z - targets) / np.linalg.norm(targets)
        assert rel < 1e-3

    def test_same_seed_bit_identical(self):
        x, targets, labels, c = small_problem(seed=2)
        h = MhonHyper(seed=11)
        m1 = train(x, targets, labels, c, hyper=h)
        m2 = train(x, targets, labels, c, hyper=h)
        for name in ("a1", "b1", "g", "a2", "b2", "b_out"):
            assert np.array_equal(getattr(m1, name), getattr(m2, name))
        assert np.array_equal(m1.guide_stats.mean, m2.guide_stats.mean)
        assert np.array_equal(m1.guide_stats.std, m2.guide_stats.std)

    def test_random_stream_order(self):
        # a1, b1, a2, b2 are consecutive uniform(-1, 1) draws on one stream
        x, targets, labels, c = small_problem(seed=2, d=6, dim=2)
        model = train(x, targets, labels, c, hyper=MhonHyper(h1=7, h2=5, seed=13))
        rng = np.random.default_rng(13)
        for name, shape in (("a1", (6, 7)), ("b1", (7,)), ("a2", (2, 5)), ("b2", (5,))):
            assert np.array_equal(getattr(model, name), rng.uniform(-1.0, 1.0, size=shape))

    def test_train_view_equals_train_on_that_views_data(self):
        ds = gen_synthetic(SyntheticSpec(samples_per_class=15))
        emb, art = fit(ds, k=6, dim=3)
        hyper = MhonHyper(seed=5)
        for view in (0, 1, 2):
            got = mhon.train_view(ds, view, emb.per_view, art.norm_stats, hyper)
            x, labels = ds.view_data(view)
            if view == 0:
                y = np.hstack(emb.per_view)
                stats = NormStats(
                    mean=np.concatenate([s.mean for s in art.norm_stats]),
                    std=np.concatenate([s.std for s in art.norm_stats]),
                )
            else:
                y, stats = emb.per_view[view - 1], art.norm_stats[view - 1]
            want = train(x, y, labels, ds.class_count, stats, hyper, view_id=view)
            assert got.view_id == want.view_id == view
            assert got.hyper == want.hyper
            for name in ("a1", "b1", "g", "a2", "b2", "b_out"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            for name in ("norm_stats", "guide_stats"):
                for part in ("mean", "std"):
                    assert np.array_equal(
                        getattr(getattr(got, name), part), getattr(getattr(want, name), part)
                    )

    def test_different_seed_differs(self):
        x, targets, labels, c = small_problem(seed=2)
        m1 = train(x, targets, labels, c, hyper=MhonHyper(seed=0))
        m2 = train(x, targets, labels, c, hyper=MhonHyper(seed=1))
        assert not np.array_equal(m1.a1, m2.a1)

    def test_training_accuracy_on_synthetic(self):
        # wide embedding + light ridge: the network fits its training set
        ds = gen_synthetic(SyntheticSpec())
        emb, art = fit(ds, k=10, dim=16)
        for i, view in enumerate(ds.views):
            model = train(
                view.features,
                emb.per_view[i],
                view.labels,
                ds.class_count,
                norm_stats=art.norm_stats[i],
                hyper=MhonHyper(ridge_lambda=1e-4, seed=0),
                view_id=i,
            )
            acc = float(np.mean(predict(model, view.features) == view.labels))
            assert acc >= 0.95

    def test_training_accuracy_default_hyper_linear_view(self):
        ds = gen_synthetic(SyntheticSpec())
        emb, art = fit(ds, k=10, dim=4)
        model = train(
            ds.views[0].features,
            emb.per_view[0],
            ds.views[0].labels,
            ds.class_count,
            norm_stats=art.norm_stats[0],
            hyper=MhonHyper(seed=0),
        )
        acc = float(np.mean(predict(model, ds.views[0].features) == ds.views[0].labels))
        assert acc >= 0.95

    def test_default_h1_resolution(self):
        x, targets, labels, c = small_problem(d=6, dim=2)
        model = train(x, targets, labels, c)
        assert model.hyper.h1 == 4 * 6
        assert model.a1.shape == (6, 24)

    def test_row_mismatch(self):
        x, targets, labels, c = small_problem()
        with pytest.raises(LengthMismatchError):
            train(x[:-1], targets, labels, c)
        with pytest.raises(LengthMismatchError):
            train(x, targets, labels[:-1], c)

    def test_hyper_validation(self):
        with pytest.raises(ValueError):
            MhonHyper(ridge_lambda=0.0)
        with pytest.raises(ValueError):
            MhonHyper(ridge_lambda=-1.0)
        with pytest.raises(ValueError):
            MhonHyper(h1=0)
        with pytest.raises(ValueError):
            MhonHyper(h2=0)


class TestEmbedPredict:
    def test_duplicated_row_duplicated_output(self):
        x, targets, labels, c = small_problem(seed=4)
        model = train(x, targets, labels, c)
        test = np.vstack([x[:5], x[2:3]])
        # same input row, same output row (up to BLAS blocking noise)
        z = embed(model, test)
        np.testing.assert_allclose(z[5], z[2], rtol=0, atol=1e-12)
        scores = decision_values(model, test)
        np.testing.assert_allclose(scores[5], scores[2], rtol=0, atol=1e-12)
        assert np.array_equal(predict(model, test)[:5], predict(model, x[:5]))

    def test_perturbed_training_point_stays_close(self):
        # near-zero noise: a barely perturbed training row must embed next
        # to that row, nearer than to any other training embedding
        ds = gen_synthetic(SyntheticSpec(noise_sigma=0.01, samples_per_class=30))
        emb, art = fit(ds, k=8, dim=3)
        view = ds.views[1]
        model = train(
            view.features,
            emb.per_view[1],
            view.labels,
            ds.class_count,
            norm_stats=art.norm_stats[1],
            hyper=MhonHyper(seed=0),
        )
        z_train = embed(model, view.features)
        rng = np.random.default_rng(6)
        for j in (0, 17, 55, 101):
            probe = view.features[j] + 1e-6 * rng.normal(size=view.dim)
            z = embed(model, probe[None, :])[0]
            dists = np.linalg.norm(z_train - z, axis=1)
            assert np.argmin(dists) == j
            assert dists[j] < 1e-4

    def test_single_class_predicts_that_class(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(12, 4))
        targets = rng.normal(size=(12, 2))
        labels = np.full(12, 1)
        model = train(x, targets, labels, class_count=1)
        probes = rng.normal(scale=5.0, size=(20, 4))
        assert np.all(predict(model, probes) == 1)

    def test_absent_class_never_predicted_on_train(self):
        # two-class model, only class 1 present: the class-2 readout column
        # solves a ridge with all-zero targets, so it is exactly zero
        rng = np.random.default_rng(8)
        x = rng.normal(size=(12, 4))
        targets = rng.normal(size=(12, 2))
        labels = np.full(12, 1)
        model = train(x, targets, labels, class_count=2)
        assert np.all(model.b_out[:, 1] == 0.0)
        assert np.all(predict(model, x) == 1)

    def test_dim_mismatch(self):
        x, targets, labels, c = small_problem(d=6)
        model = train(x, targets, labels, c)
        with pytest.raises(DimMismatchError):
            embed(model, np.zeros((3, 5)))
        with pytest.raises(DimMismatchError):
            predict(model, np.zeros((3, 7)))

    def test_tie_breaks_to_lowest_class(self):
        x, targets, labels, c = small_problem(seed=9)
        model = train(x, targets, labels, c)
        scores = decision_values(model, x[:4])
        ranked = np.argsort(-scores, axis=1)
        manual = []
        for row in scores:
            best = np.flatnonzero(row == row.max())
            manual.append(best.min() + 1)
        assert np.array_equal(predict(model, x[:4]), manual)
        assert np.array_equal(ranked[:, 0] + 1, manual)


class TestBlockedPredict:
    @pytest.fixture(scope="class")
    def model(self):
        x, targets, labels, c = small_problem(seed=12, n_per=40, classes=4, d=20, dim=8)
        return train(x, targets, labels, c)

    def test_blocks_equal_one_full_argmax(self, model):
        x = np.random.default_rng(13).normal(size=(2 * mhon.PREDICT_BLOCK_ROWS + 17, 20))
        full = np.argmax(decision_values(model, x), axis=1).astype(np.int64) + 1
        got = predict(model, x)
        assert got.dtype == np.int64
        assert np.array_equal(got, full)

    def test_zero_rows_give_empty_labels(self, model):
        got = predict(model, np.zeros((0, 20)))
        assert got.dtype == np.int64 and got.shape == (0,)

    @pytest.mark.parametrize("shape", [(5000, 7), (5000,), (3, 21)])
    def test_bad_shape_names_the_whole_input(self, model, shape):
        with pytest.raises(DimMismatchError) as err:
            predict(model, np.zeros(shape))
        assert str(err.value) == f"model expects 20 features, got shape {shape}"

    def test_peak_memory_bounded_by_block(self, model):
        # One 20000-row pass would hold several 20000 x h2 float arrays at once,
        # about 83 MB; a 4096-row block keeps the peak near 17 MB.
        x = np.random.default_rng(14).normal(size=(20000, 20))
        tracemalloc.start()
        try:
            predict(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25e6


class TestFidelityProperties:
    def test_residual_nonincreasing_in_h1(self):
        x, targets, labels, c = small_problem(seed=10, n_per=25, d=8, dim=3)
        means = []
        for h1 in (32, 64, 128, 256):
            residuals = []
            for seed in range(5):
                model = train(
                    x, targets, labels, c, hyper=MhonHyper(h1=h1, seed=seed)
                )
                z = embed(model, x)
                residuals.append(
                    np.linalg.norm(z - targets) / np.linalg.norm(targets)
                )
            means.append(np.mean(residuals))
        assert all(b <= a + 1e-12 for a, b in zip(means, means[1:]))

    def test_guide_norm_shrinks_with_lambda(self):
        x, targets, labels, c = small_problem(seed=12)
        norms = []
        for lam in (1e-3, 1.0, 1e3):
            model = train(x, targets, labels, c, hyper=MhonHyper(ridge_lambda=lam, seed=0))
            norms.append(np.linalg.norm(model.g))
        assert norms[0] > norms[1] > norms[2]


class TestJson:
    def test_round_trip_exact(self):
        x, targets, labels, c = small_problem(seed=13)
        model = train(x, targets, labels, c, hyper=MhonHyper(seed=21), view_id=1)
        doc = mhon.to_json(model)
        back = mhon.from_json(doc)
        assert back.view_id == model.view_id
        assert back.class_count == model.class_count
        assert back.hyper == model.hyper
        for name in ("a1", "b1", "g", "a2", "b2", "b_out"):
            assert np.array_equal(getattr(back, name), getattr(model, name))
        for stats in ("norm_stats", "guide_stats"):
            assert np.array_equal(getattr(back, stats).mean, getattr(model, stats).mean)
            assert np.array_equal(getattr(back, stats).std, getattr(model, stats).std)

    def test_round_trip_behavior(self):
        x, targets, labels, c = small_problem(seed=14)
        model = train(x, targets, labels, c)
        back = mhon.from_json(mhon.to_json(model))
        probes = np.random.default_rng(15).normal(size=(9, x.shape[1]))
        assert np.array_equal(embed(back, probes), embed(model, probes))
        assert np.array_equal(predict(back, probes), predict(model, probes))

    def test_document_shape(self):
        x, targets, labels, c = small_problem(seed=16)
        model = train(x, targets, labels, c)
        doc = json.loads(mhon.to_json(model))
        assert doc["format"] == mhon.FORMAT_NAME
        assert doc["version"] == mhon.FORMAT_VERSION
        assert doc["weights"]["a1"]["shape"] == list(model.a1.shape)
        assert "guide_stats" in doc and "norm_stats" in doc

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            mhon.from_json(json.dumps({"format": "something-else", "version": 1}))
