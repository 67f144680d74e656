"""Two-stage random-feature network for out-of-sample embedding and labels.

Stage one maps normalized view features through a fixed random layer and
ridge-solves a "guiding" readout onto the view's training embedding block,
so new samples can be dropped into the learned space without rebuilding
the graph. Stage two standardizes the guided coordinates (their numeric
scale is an artifact of the eigenvector normalization, not a signal) and
trains the ELM classifier of :mod:`mvle.baselines` on them: a random sigmoid
layer with a ridge-solved readout onto one-hot class targets. Both random
layers draw from uniform(-1, 1) on one seeded stream (a1, b1, then a2, b2),
so training is fully deterministic given (inputs, hyper).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .baselines import ElmClassifier, elm_scores, elm_train
from .dataset import MultiViewDataset, NormStats, zscore_apply, zscore_fit
from .errors import DimMismatchError, LengthMismatchError, ModelFormatError
from .linalg import ridge_solve


def _softsign(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.abs(x))


#: First-layer activations selectable by name; the second layer is always
#: sigmoid. "softsign" is the default rectified-style saturating unit.
ACTIVATIONS = {
    "softsign": _softsign,
    "sigmoid": expit,
    "tanh": np.tanh,
}


@dataclass(frozen=True)
class MhonHyper:
    """Training hyperparameters. ``h1=None`` derives ``4 * max(d, dim)``."""

    h1: int | None = None
    h2: int = 256
    ridge_lambda: float = 1e-2
    seed: int = 0
    activation: str = "softsign"

    def __post_init__(self):
        if self.h1 is not None and self.h1 < 1:
            raise ValueError(f"h1 must be >= 1, got {self.h1}")
        if self.h2 < 1:
            raise ValueError(f"h2 must be >= 1, got {self.h2}")
        # lambda = 0 would expose the ridge solve to rank deficiency; the
        # training contract demands a strictly positive regularizer.
        if self.ridge_lambda <= 0:
            raise ValueError(f"ridge_lambda must be positive, got {self.ridge_lambda}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {sorted(ACTIVATIONS)}, got {self.activation!r}"
            )


@dataclass(frozen=True)
class MhonModel:
    """Trained per-view network; all arrays are float64."""

    view_id: int
    class_count: int
    norm_stats: NormStats
    a1: np.ndarray
    b1: np.ndarray
    g: np.ndarray
    guide_stats: NormStats
    a2: np.ndarray
    b2: np.ndarray
    b_out: np.ndarray
    hyper: MhonHyper

    @property
    def input_dim(self) -> int:
        return self.a1.shape[0]


def train(
    x,
    y_view,
    labels,
    class_count: int,
    norm_stats: NormStats | None = None,
    hyper: MhonHyper = MhonHyper(),
    view_id: int = 0,
) -> MhonModel:
    """Train the network for one view.

    Parameters
    ----------
    x : array_like, shape (n, d)
        Raw training features of the view.
    y_view : array_like, shape (n, dim)
        The view's block of the fitted embedding (guiding targets).
    labels : array_like, shape (n,)
        Training labels, 1-based.
    norm_stats : NormStats, optional
        Normalization statistics from the embedding fit. When omitted they
        are computed from ``x`` itself.
    """
    xm = np.asarray(x, dtype=np.float64)
    ym = np.asarray(y_view, dtype=np.float64)
    lab = np.asarray(labels, dtype=np.int64)
    if xm.ndim != 2 or ym.ndim != 2:
        raise ValueError("x and y_view must be 2-D")
    if xm.shape[0] != ym.shape[0] or xm.shape[0] != lab.shape[0]:
        raise LengthMismatchError(
            f"rows disagree: x has {xm.shape[0]}, y_view has {ym.shape[0]}, "
            f"labels has {lab.shape[0]}"
        )
    stats = zscore_fit(xm) if norm_stats is None else norm_stats
    xn = zscore_apply(xm, stats)
    d = xn.shape[1]
    dim = ym.shape[1]
    h1 = hyper.h1 if hyper.h1 is not None else 4 * max(d, dim)
    resolved = replace(hyper, h1=h1)
    act1 = ACTIVATIONS[resolved.activation]

    rng = np.random.default_rng(resolved.seed)
    a1 = rng.uniform(-1.0, 1.0, size=(d, h1))
    b1 = rng.uniform(-1.0, 1.0, size=h1)
    h1_out = act1(xn @ a1 + b1)
    g = ridge_solve(h1_out, ym, resolved.ridge_lambda)
    z = h1_out @ g
    # The guiding coordinates inherit an arbitrary overall scale from the
    # eigenvector normalization. Rescale by one shared factor (global RMS of
    # the centered block, times sqrt(dim) fan-in so the sigmoid pre-activation
    # scale does not grow with embedding width). A single factor, not per-
    # coordinate stds: the regression attenuates coordinates it cannot
    # predict, and re-inflating those would feed the classifier noise.
    col_means = z.mean(axis=0)
    rms = float(np.sqrt(np.mean((z - col_means) ** 2)))
    guide_stats = NormStats(
        mean=col_means, std=np.full(dim, rms * np.sqrt(dim), dtype=np.float64)
    )

    head = elm_train(
        zscore_apply(z, guide_stats), lab, class_count, resolved.h2, resolved.ridge_lambda,
        seed=rng,
    )

    return MhonModel(
        view_id=view_id,
        class_count=class_count,
        norm_stats=stats,
        a1=a1,
        b1=b1,
        g=g,
        guide_stats=guide_stats,
        a2=head.a,
        b2=head.b,
        b_out=head.beta,
        hyper=resolved,
    )


def train_view(
    ds: MultiViewDataset, view: int, targets, norm_stats, hyper: MhonHyper = MhonHyper()
) -> MhonModel:
    """Train the network of 1-based ``view``; view 0 is all views side by side.

    ``targets`` and ``norm_stats`` hold every view's embedding block and
    normalization statistics in view order; view 0 joins them.

    Raises
    ------
    UnpairedViewsError
        If ``view`` is 0 and the views differ in sample count or label
        sequence.
    """
    x, labels = ds.view_data(view)
    if view:
        y, stats = targets[view - 1], norm_stats[view - 1]
    else:
        y = np.hstack(list(targets))
        stats = NormStats(
            mean=np.concatenate([s.mean for s in norm_stats]),
            std=np.concatenate([s.std for s in norm_stats]),
        )
    return train(x, y, labels, ds.class_count, stats, hyper, view_id=view)


def _check_width(model: MhonModel, xm: np.ndarray) -> None:
    if xm.ndim != 2 or xm.shape[1] != model.input_dim:
        raise DimMismatchError(
            f"model expects {model.input_dim} features, got shape {xm.shape}"
        )


def embed(model: MhonModel, x) -> np.ndarray:
    """Out-of-sample embedding: guided coordinates for new raw samples."""
    xm = np.asarray(x, dtype=np.float64)
    _check_width(model, xm)
    xn = zscore_apply(xm, model.norm_stats)
    h1_out = ACTIVATIONS[model.hyper.activation](xn @ model.a1 + model.b1)
    return h1_out @ model.g


def decision_values(model: MhonModel, x) -> np.ndarray:
    """Per-class scores for new raw samples."""
    zn = zscore_apply(embed(model, x), model.guide_stats)
    return elm_scores(ElmClassifier(model.a2, model.b2, model.b_out), zn)


#: Rows :func:`predict` scores at a time, so its hidden-layer temporaries stay
#: a few MB however many rows it is given.
PREDICT_BLOCK_ROWS = 4096


def predict(model: MhonModel, x) -> np.ndarray:
    """Predicted 1-based labels; score ties resolve to the lowest class id."""
    xm = np.asarray(x, dtype=np.float64)
    _check_width(model, xm)
    # max(n, 1): zero rows still make one (empty) block.
    labels = [
        np.argmax(decision_values(model, xm[start:start + PREDICT_BLOCK_ROWS]), axis=1)
        for start in range(0, max(xm.shape[0], 1), PREDICT_BLOCK_ROWS)
    ]
    return np.concatenate(labels).astype(np.int64) + 1


def _array_payload(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "data": [float(v) for v in a.ravel()]}


def _array_restore(payload: dict) -> np.ndarray:
    return np.array(payload["data"], dtype=np.float64).reshape(payload["shape"])


def _stats_payload(stats: NormStats) -> dict:
    return {"mean": [float(v) for v in stats.mean], "std": [float(v) for v in stats.std]}


def _stats_restore(payload: dict) -> NormStats:
    return NormStats(
        mean=np.array(payload["mean"], dtype=np.float64),
        std=np.array(payload["std"], dtype=np.float64),
    )


FORMAT_NAME = "mhon-model"
FORMAT_VERSION = 1


def to_json(model: MhonModel) -> str:
    """Serialize a model to JSON; floats round-trip exactly."""
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "view_id": model.view_id,
        "class_count": model.class_count,
        "activation": model.hyper.activation,
        "hyper": {
            "h1": model.hyper.h1,
            "h2": model.hyper.h2,
            "ridge_lambda": model.hyper.ridge_lambda,
            "seed": model.hyper.seed,
        },
        "norm_stats": _stats_payload(model.norm_stats),
        "guide_stats": _stats_payload(model.guide_stats),
        "weights": {
            "a1": _array_payload(model.a1),
            "b1": _array_payload(model.b1),
            "g": _array_payload(model.g),
            "a2": _array_payload(model.a2),
            "b2": _array_payload(model.b2),
            "b_out": _array_payload(model.b_out),
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def from_json(text: str | bytes) -> MhonModel:
    """Rebuild a model from :func:`to_json` output.

    Raises
    ------
    ModelFormatError
        If ``text`` is not JSON, not a version-1 ``mhon-model`` document,
        lacks or mistypes one of its fields, holds arrays whose shapes
        disagree with each other or with ``h1``, ``h2`` and
        ``class_count``, or holds a NaN or Inf.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise ModelFormatError(f"model is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ModelFormatError(f"not a {FORMAT_NAME} document")
    if doc.get("version") != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported {FORMAT_NAME} version {doc.get('version')!r}")
    try:
        return _model_from_doc(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(
            f"malformed {FORMAT_NAME} document: {type(exc).__name__}: {exc}"
        ) from None


def _model_from_doc(doc: dict) -> MhonModel:
    hyper = MhonHyper(
        h1=doc["hyper"]["h1"],
        h2=doc["hyper"]["h2"],
        ridge_lambda=doc["hyper"]["ridge_lambda"],
        seed=doc["hyper"]["seed"],
        activation=doc["activation"],
    )
    w = doc["weights"]
    model = MhonModel(
        view_id=int(doc["view_id"]),
        class_count=int(doc["class_count"]),
        norm_stats=_stats_restore(doc["norm_stats"]),
        a1=_array_restore(w["a1"]),
        b1=_array_restore(w["b1"]),
        g=_array_restore(w["g"]),
        guide_stats=_stats_restore(doc["guide_stats"]),
        a2=_array_restore(w["a2"]),
        b2=_array_restore(w["b2"]),
        b_out=_array_restore(w["b_out"]),
        hyper=hyper,
    )
    _check_consistent(model)
    return model


def _check_consistent(model: MhonModel) -> None:
    # Every array's shape follows from d = rows of a1, the hidden widths h1
    # and h2, dim = columns of g, and the class count.
    if model.a1.ndim != 2 or model.g.ndim != 2:
        raise ModelFormatError(
            f"a1 and g must be 2-D, got shapes {model.a1.shape} and {model.g.shape}"
        )
    if model.class_count < 1 or not math.isfinite(model.hyper.ridge_lambda):
        raise ModelFormatError(
            f"class_count must be >= 1 and ridge_lambda finite, got "
            f"{model.class_count} and {model.hyper.ridge_lambda}"
        )
    d, dim = model.a1.shape[0], model.g.shape[1]
    h1, h2, c = model.hyper.h1, model.hyper.h2, model.class_count
    expected = {
        "norm_stats.mean": (model.norm_stats.mean, (d,)),
        "norm_stats.std": (model.norm_stats.std, (d,)),
        "a1": (model.a1, (d, h1)),
        "b1": (model.b1, (h1,)),
        "g": (model.g, (h1, dim)),
        "guide_stats.mean": (model.guide_stats.mean, (dim,)),
        "guide_stats.std": (model.guide_stats.std, (dim,)),
        "a2": (model.a2, (dim, h2)),
        "b2": (model.b2, (h2,)),
        "b_out": (model.b_out, (h2, c)),
    }
    for name, (array, shape) in expected.items():
        if array.shape != shape:
            raise ModelFormatError(
                f"{name} has shape {array.shape}, expected {shape} "
                f"(d={d}, h1={h1}, dim={dim}, h2={h2}, class_count={c})"
            )
        if not np.all(np.isfinite(array)):
            raise ModelFormatError(f"{name} contains NaN or Inf")


def save_model(model: MhonModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(model))
        fh.write("\n")


def load_model(path) -> MhonModel:
    with open(path, "rb") as fh:
        return from_json(fh.read())
