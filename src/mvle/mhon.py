"""Two-stage random-feature network for out-of-sample embedding and labels.

Both stages are the random-feature layer of :mod:`mvle.baselines`. The guide
layer maps normalized view features through a fixed random layer whose
readout is ridge-solved onto the view's training embedding block, so new
samples can be dropped into the learned space without rebuilding the graph.
The head standardizes the guided coordinates (their numeric scale is an
artifact of the eigenvector normalization, not a signal) and is the ELM
classifier trained on them: a random sigmoid layer with a ridge-solved
readout onto one-hot class targets. :func:`predict` labels new samples by
``baselines.elm_predict`` on the head, block by block. Both layers draw from
uniform(-1, 1) on one seeded stream (guide ``a``, ``b``, then head ``a``,
``b``), so training is fully deterministic given (inputs, hyper). The model
file names these arrays ``a1``, ``b1``, ``g`` and ``a2``, ``b2``, ``b_out``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from .baselines import (
    ACTIVATIONS, ELM_ACTIVATION, ElmClassifier, elm_predict, elm_train, fit_layer, layer_output,
)
from .dataset import (
    MultiViewDataset, NormStats, check_labels, check_matrix, zscore_apply, zscore_fit,
)
from .errors import LengthMismatchError, ModelFormatError


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
    """Trained per-view network; all arrays are float64. ``guide`` uses
    ``hyper.activation`` and ``head`` is the sigmoid ELM."""

    view_id: int
    class_count: int
    norm_stats: NormStats
    guide: ElmClassifier
    guide_stats: NormStats
    head: ElmClassifier
    hyper: MhonHyper

    @property
    def input_dim(self) -> int:
        return self.guide.a.shape[0]


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

    Raises
    ------
    ValueError
        Unless ``x`` and ``y_view`` pass :func:`~mvle.dataset.check_matrix`
        on the fit side.
    LengthMismatchError, LabelOutOfRangeError
        If ``x`` and ``y_view`` differ in row count, or unless ``labels``
        pass :func:`~mvle.dataset.check_labels` with one label per row of
        ``x`` and classes 1..``class_count``.
    DimMismatchError
        If ``norm_stats`` are of another width than ``x``.
    """
    xm = check_matrix(x, "x")
    ym = check_matrix(y_view, "y_view")
    if xm.shape[0] != ym.shape[0]:
        raise LengthMismatchError(
            f"rows disagree: x has {xm.shape[0]}, y_view has {ym.shape[0]}"
        )
    lab = check_labels(labels, xm.shape[0], class_count)
    stats = zscore_fit(xm) if norm_stats is None else norm_stats
    xn = zscore_apply(xm, stats)
    d = xn.shape[1]
    dim = ym.shape[1]
    h1 = hyper.h1 if hyper.h1 is not None else 4 * max(d, dim)
    resolved = replace(hyper, h1=h1)

    rng = np.random.default_rng(resolved.seed)
    guide = fit_layer(xn, ym, h1, resolved.ridge_lambda, rng, resolved.activation)
    z = layer_output(guide, xn)
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

    return MhonModel(view_id, class_count, stats, guide, guide_stats, head, resolved)


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


def embed(model: MhonModel, x) -> np.ndarray:
    """Out-of-sample embedding: guided coordinates for new raw samples.

    Raises
    ------
    DimMismatchError
        Unless ``x`` is 2-D with the model's input width.
    ValueError
        If ``x`` holds NaN or Inf (:func:`~mvle.dataset.check_matrix`,
        apply side).
    """
    xm = check_matrix(x, "model", model.input_dim)
    return layer_output(model.guide, zscore_apply(xm, model.norm_stats))


#: Hidden entries (rows times the wider layer's units) :func:`predict`
#: evaluates at a time, so its hidden matrices stay 2 MB each whatever the
#: width: 1024 rows at the default h2 = 256, fewer for a wider model.
PREDICT_BLOCK_ENTRIES = 1 << 18


def predict(model: MhonModel, x) -> np.ndarray:
    """Predicted 1-based labels: the head's :func:`~mvle.baselines.elm_predict`
    on the standardized guided coordinates, one block of rows at a time.

    A block holds ``PREDICT_BLOCK_ENTRIES // max(h1, h2)`` rows (at least
    one), so memory is bounded by the layers' width as well as the rows.

    Raises
    ------
    DimMismatchError
        Unless ``x`` is 2-D with the model's input width.
    ValueError
        If ``x`` holds NaN or Inf (:func:`~mvle.dataset.check_matrix`,
        apply side).
    """
    xm = check_matrix(x, "model", model.input_dim)
    rows = max(1, PREDICT_BLOCK_ENTRIES // max(model.guide.a.shape[1], model.head.a.shape[1]))
    # max(n, 1): zero rows still make one (empty) block.
    labels = []
    for start in range(0, max(xm.shape[0], 1), rows):
        z = embed(model, xm[start:start + rows])
        labels.append(elm_predict(model.head, zscore_apply(z, model.guide_stats)))
    return np.concatenate(labels)


FORMAT_NAME = "mhon-model"
FORMAT_VERSION = 1
#: The model file, declared once for :func:`to_json`, :func:`from_json` and
#: its check. Each weight array sits under "weights" as {"shape", "data"};
#: the table gives its layer, the layer's field and its shape in the sizes
#: d (view features), h1, dim (embedding width), h2 and c (class count).
_WEIGHTS = {
    "a1": ("guide", "a", ("d", "h1")),
    "b1": ("guide", "b", ("h1",)),
    "g": ("guide", "beta", ("h1", "dim")),
    "a2": ("head", "a", ("dim", "h2")),
    "b2": ("head", "b", ("h2",)),
    "b_out": ("head", "beta", ("h2", "c")),
}
#: Each statistics block holds a "mean" and a "std" list of the length named.
_STATS = {"norm_stats": "d", "guide_stats": "dim"}
#: The keys under "hyper"; the activation is a top-level key.
_HYPER = ("h1", "h2", "ridge_lambda", "seed")
#: The integer scalars and the least value each may hold.
_INTS = {"view_id": 0, "class_count": 1, "h1": 1, "h2": 1, "seed": 0}


def _floats(array: np.ndarray) -> list[float]:
    # JSON writes each float's repr, which reads back to the same float64.
    return array.ravel().tolist()


def _model_arrays(model: MhonModel):
    """(name, array, shape) of each array in ``model``, weights first."""
    for key, (layer, field, shape) in _WEIGHTS.items():
        yield key, getattr(getattr(model, layer), field), shape
    for block, size in _STATS.items():
        for field in ("mean", "std"):
            yield f"{block}.{field}", getattr(getattr(model, block), field), (size,)


def to_json(model: MhonModel) -> str:
    """Serialize a model to JSON; floats round-trip exactly."""
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "view_id": model.view_id,
        "class_count": model.class_count,
        "activation": model.hyper.activation,
        "hyper": {key: getattr(model.hyper, key) for key in _HYPER},
        "weights": {},
    }
    for key, (layer, field, _) in _WEIGHTS.items():
        array = getattr(getattr(model, layer), field)
        doc["weights"][key] = {"shape": list(array.shape), "data": _floats(array)}
    for block in _STATS:
        stats = getattr(model, block)
        doc[block] = {"mean": _floats(stats.mean), "std": _floats(stats.std)}
    return json.dumps(doc, indent=2, sort_keys=True)


def from_json(text: str | bytes) -> MhonModel:
    """Rebuild a model from :func:`to_json` output.

    Raises
    ------
    ModelFormatError
        If ``text`` is not JSON, not a version-1 ``mhon-model`` document,
        lacks or mistypes one of its fields, holds a ``view_id`` or ``seed``
        that is not an integer >= 0, a ``class_count``, ``h1`` or ``h2``
        that is not an integer >= 1, a ``ridge_lambda`` that is not a finite
        positive number, arrays whose shapes disagree with each other or
        with ``h1``, ``h2`` and ``class_count``, a NaN or Inf, or a
        negative ``std`` entry.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise ModelFormatError(f"model is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ModelFormatError(f"not a {FORMAT_NAME} document")
    version = doc.get("version")
    # JSON true and 1.0 equal 1 in Python; the version is the integer itself.
    if type(version) is not int or version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported {FORMAT_NAME} version {version!r}")
    try:
        model = _model_from_doc(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(
            f"malformed {FORMAT_NAME} document: {type(exc).__name__}: {exc}"
        ) from None
    _check_shapes(model)
    return model


def _model_from_doc(doc: dict) -> MhonModel:
    scalars = {"view_id": doc["view_id"], "class_count": doc["class_count"]}
    scalars.update((key, doc["hyper"][key]) for key in _HYPER)
    for name, least in _INTS.items():
        value = scalars[name]
        # JSON true and false load as bools, which isinstance counts as ints.
        if type(value) is not int or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    lam = scalars["ridge_lambda"]
    # A bound, not math.isfinite: a JSON integer can be too large for a float.
    if type(lam) not in (int, float) or not 0 < lam <= sys.float_info.max:
        raise ValueError(f"ridge_lambda must be a finite positive number, got {lam!r}")
    hyper = MhonHyper(**{key: scalars[key] for key in _HYPER}, activation=doc["activation"])
    layers = {"guide": {"activation": hyper.activation}, "head": {"activation": ELM_ACTIVATION}}
    for key, (layer, field, _) in _WEIGHTS.items():
        payload = doc["weights"][key]
        data = np.array(payload["data"], dtype=np.float64)
        layers[layer][field] = data.reshape(payload["shape"])
    stats = {}
    for block in _STATS:
        mean, std = (np.array(doc[block][key], dtype=np.float64) for key in ("mean", "std"))
        stats[block] = NormStats(mean, std)
    return MhonModel(
        view_id=scalars["view_id"],
        class_count=scalars["class_count"],
        hyper=hyper,
        guide=ElmClassifier(**layers["guide"]),
        head=ElmClassifier(**layers["head"]),
        **stats,
    )


def _check_shapes(model: MhonModel) -> None:
    # d and dim are read off the first arrays that name them (a1's rows and
    # g's columns); every later array must agree with them.
    sizes = {"h1": model.hyper.h1, "h2": model.hyper.h2, "c": model.class_count}
    for name, array, shape in _model_arrays(model):
        sizes.update((size, n) for size, n in zip(shape, array.shape) if size not in sizes)
        expected = tuple(sizes.get(size, size) for size in shape)
        if array.shape != expected:
            raise ModelFormatError(
                f"{name} has shape {array.shape}, expected ({', '.join(shape)}) = {expected}"
            )
        if not np.all(np.isfinite(array)):
            raise ModelFormatError(f"{name} contains NaN or Inf")
    for block in _STATS:
        # zscore_apply divides by a zero std's 1, but by a negative one as is.
        if np.any(getattr(model, block).std < 0):
            raise ModelFormatError(f"{block}.std holds a negative entry")


def save_model(model: MhonModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(model))
        fh.write("\n")


def load_model(path) -> MhonModel:
    with open(path, "rb") as fh:
        return from_json(fh.read())
