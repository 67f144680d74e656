"""Comparison methods: LDA, CCA+LDA, PLS, MvDA, and the ELM classifier.

All projector-producing fits share one output type, :class:`LinearProjector`,
whose ``transform`` applies the per-view projection matrix. The fits take
features as given, already z-scored by the caller, and center internally
only where the underlying covariances require it.

:class:`ElmClassifier` is the package's one random-feature layer: a fixed
random hidden layer whose linear readout is ridge-solved onto targets.
:func:`fit_layer` draws and solves one, and :func:`layer_output` applies it.
The ELM classifier (:func:`elm_train`) is such a layer of sigmoid units
fitted onto one-hot labels; the benchmark scores every representation with
it. The MHON network (:mod:`mvle.mhon`) fits one onto the embedding as its
guide layer and trains the ELM on the guided coordinates as its head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import MultiViewDataset, check_labels
from .errors import (
    DimMismatchError,
    DimTooLargeError,
    LengthMismatchError,
    NoConvergenceError,
    UnpairedViewsError,
    VcDimMismatchError,
)
from .linalg import _fix_signs, _top_generalized, ridge_solve

CCA_KAPPA = 1e-4


@dataclass(frozen=True)
class LinearProjector:
    """Per-view linear maps produced by one of the subspace fits."""

    method: str
    projections: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.projections[0].shape[1]

    def transform(self, view_index: int, x) -> np.ndarray:
        xm = np.asarray(x, dtype=np.float64)
        w = self.projections[view_index]
        if xm.ndim != 2 or xm.shape[1] != w.shape[0]:
            raise DimMismatchError(
                f"view {view_index} expects {w.shape[0]} features, got shape {xm.shape}"
            )
        return xm @ w


def _class_scatters(x: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    classes = np.unique(labels)
    d = x.shape[1]
    mu = x.mean(axis=0)
    s_w = np.zeros((d, d))
    s_b = np.zeros((d, d))
    for cls in classes:
        block = x[labels == cls]
        mu_c = block.mean(axis=0)
        centered = block - mu_c
        s_w += centered.T @ centered
        diff = (mu_c - mu)[:, None]
        s_b += block.shape[0] * (diff @ diff.T)
    return s_w, s_b


def _lda_directions(x: np.ndarray, labels: np.ndarray, dim: int) -> np.ndarray:
    s_w, s_b = _class_scatters(x, labels)
    return _top_generalized(s_b, s_w, dim)


def lda_fit(x, labels, dim: int) -> LinearProjector:
    """Fisher discriminant directions, unit-norm columns.

    Raises
    ------
    LengthMismatchError, LabelOutOfRangeError
        Unless ``labels`` pass :func:`~mvle.dataset.check_labels` with one
        label per row of ``x``.
    DimTooLargeError
        If ``dim`` exceeds ``class_count - 1``, the discriminant rank.
    """
    xm = np.asarray(x, dtype=np.float64)
    lab = check_labels(labels, xm.shape[0])
    c = np.unique(lab).size
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if dim > c - 1:
        raise DimTooLargeError(
            f"dim {dim} exceeds class_count - 1 = {c - 1}; Fisher scatter rank caps there"
        )
    if dim > xm.shape[1]:
        raise DimTooLargeError(f"dim {dim} exceeds feature dimension {xm.shape[1]}")
    return LinearProjector(method="lda", projections=(_lda_directions(xm, lab, dim),))


@dataclass(frozen=True)
class CcaResult:
    """Canonical directions (columns) and their correlations, descending."""

    wx: np.ndarray
    wy: np.ndarray
    correlations: np.ndarray


def _inv_sqrt_psd(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(a)
    vals = np.clip(vals, 1e-12, None)
    return (vecs / np.sqrt(vals)) @ vecs.T


def _paired_blocks(x, y) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and ``y`` as float arrays; ``UnpairedViewsError`` unless their
    row counts agree."""
    xm = np.asarray(x, dtype=np.float64)
    ym = np.asarray(y, dtype=np.float64)
    if xm.shape[0] != ym.shape[0]:
        raise UnpairedViewsError(
            f"paired blocks required: {xm.shape[0]} vs {ym.shape[0]} samples"
        )
    return xm, ym


def cca_fit(x, y, kappa: float = CCA_KAPPA) -> CcaResult:
    """Regularized canonical correlation analysis of two paired blocks.

    Autocovariances are ridged with ``kappa * I`` before whitening; the
    whitened cross-covariance is then decomposed by SVD. Directions satisfy
    ``w^T (S + kappa I) w = 1`` per block.

    Raises
    ------
    UnpairedViewsError
        If the blocks disagree on sample count.
    """
    xm, ym = _paired_blocks(x, y)
    n = xm.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples")
    xc = xm - xm.mean(axis=0)
    yc = ym - ym.mean(axis=0)
    sxx = xc.T @ xc / (n - 1) + kappa * np.eye(xm.shape[1])
    syy = yc.T @ yc / (n - 1) + kappa * np.eye(ym.shape[1])
    sxy = xc.T @ yc / (n - 1)
    wx_white = _inv_sqrt_psd(sxx)
    wy_white = _inv_sqrt_psd(syy)
    u, s, vt = np.linalg.svd(wx_white @ sxy @ wy_white)
    r = min(xm.shape[1], ym.shape[1])
    wx = _fix_signs(wx_white @ u[:, :r])
    wy = _fix_signs(wy_white @ vt.T[:, :r])
    return CcaResult(wx=wx, wy=wy, correlations=s[:r].copy())


def cca_lda_fit(ds: MultiViewDataset, dim: int) -> LinearProjector:
    """CCA to the full canonical space, then per-view LDA on canonical scores.

    The discriminant stage is capped at ``class_count - 1`` columns, so the
    resulting projector may be narrower than ``dim``.

    Raises
    ------
    UnpairedViewsError
        If the views are not paired (:meth:`MultiViewDataset.paired_labels`).
    DimTooLargeError
        If ``class_count - 1`` is 0: one class has no discriminant direction.
    """
    if ds.view_count != 2:
        raise ValueError(f"needs exactly 2 views, got {ds.view_count}")
    labels = ds.paired_labels()
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if ds.class_count < 2:
        raise DimTooLargeError(f"dim {dim} exceeds class_count - 1 = {ds.class_count - 1}")
    v1, v2 = ds.views
    cca = cca_fit(v1.features, v2.features)
    lda_dim = min(dim, ds.class_count - 1)
    projections = []
    for view, w_cca in ((v1, cca.wx), (v2, cca.wy)):
        scores = (view.features - view.features.mean(axis=0)) @ w_cca
        w_lda = _lda_directions(scores, labels, lda_dim)
        projections.append(w_cca @ w_lda)
    return LinearProjector(method="cca-lda", projections=tuple(projections))


@dataclass(frozen=True)
class PlsResult:
    """PLS outputs: unit-norm weights, loadings, scores, and rotations."""

    x_weights: np.ndarray
    y_weights: np.ndarray
    x_loadings: np.ndarray
    y_loadings: np.ndarray
    x_scores: np.ndarray
    y_scores: np.ndarray
    x_rotations: np.ndarray
    y_rotations: np.ndarray


def nipals_pls(x, y, dim: int) -> PlsResult:
    """Two-block partial least squares with symmetric deflation (PLS-W2A).

    Each component's weights are the leading singular pair of the deflated
    cross-covariance ``xd^T yd`` from one SVD: the fixed point NIPALS power
    iteration approaches, with the sign it reaches from its start ``u0``,
    the Y column of largest norm (``wx . xd^T u0 >= 0``).

    Raises
    ------
    NoConvergenceError
        If no component can be extracted.
    UnpairedViewsError
        If the blocks disagree on sample count.
    """
    xm, ym = _paired_blocks(x, y)
    n = xm.shape[0]
    cap = min(dim, xm.shape[1], ym.shape[1], n - 1)
    if cap < 1:
        raise ValueError(f"cannot extract any component for dim {dim}")
    xd = xm - xm.mean(axis=0)
    yd = ym - ym.mean(axis=0)

    wx_list, wy_list, px_list, qy_list, tx_list, uy_list = [], [], [], [], [], []
    for _ in range(cap):
        if np.linalg.norm(xd) < 1e-12 or np.linalg.norm(yd) < 1e-12:
            break
        u, _, vt = np.linalg.svd(xd.T @ yd, full_matrices=False)
        u0 = yd[:, int(np.argmax(np.einsum("ij,ij->j", yd, yd)))]
        sign = 1.0 if u[:, 0] @ (xd.T @ u0) >= 0 else -1.0
        wx, wy = sign * u[:, 0], sign * vt[0]
        t_scores = xd @ wx
        u_scores = yd @ wy
        tt = float(t_scores @ t_scores)
        uu = float(u_scores @ u_scores)
        if tt < 1e-15 or uu < 1e-15:
            break
        px = xd.T @ t_scores / tt
        qy = yd.T @ u_scores / uu
        xd = xd - np.outer(t_scores, px)
        yd = yd - np.outer(u_scores, qy)
        wx_list.append(wx)
        wy_list.append(wy)
        px_list.append(px)
        qy_list.append(qy)
        tx_list.append(t_scores)
        uy_list.append(u_scores)

    if not wx_list:
        raise NoConvergenceError("no PLS component could be extracted")
    return PlsResult(
        x_weights=np.column_stack(wx_list),
        y_weights=np.column_stack(wy_list),
        x_loadings=np.column_stack(px_list),
        y_loadings=np.column_stack(qy_list),
        x_scores=np.column_stack(tx_list),
        y_scores=np.column_stack(uy_list),
        x_rotations=_rotations(wx_list, px_list),
        y_rotations=_rotations(wy_list, qy_list),
    )


def _rotations(weights: list[np.ndarray], loadings: list[np.ndarray]) -> np.ndarray:
    # R = W (P^T W)^{-1}. Deflation makes P^T W unit upper triangular, so
    # R (P^T W) = W is solved column by column, and column j uses only the
    # first j + 1 components: rotations nest exactly across widths.
    rot: list[np.ndarray] = []
    for w, p in zip(weights, loadings):
        r = w.copy()
        for r_i, p_i in zip(rot, loadings):
            r -= (p_i @ w) * r_i
        rot.append(r / (p @ w))
    return np.column_stack(rot)


def pls_fit(ds: MultiViewDataset, dim: int) -> LinearProjector:
    """Paired-view PLS projector; rotations map features to scores."""
    if ds.view_count != 2:
        raise ValueError(f"needs exactly 2 views, got {ds.view_count}")
    v1, v2 = ds.views
    result = nipals_pls(v1.features, v2.features, dim)
    return LinearProjector(method="pls", projections=(result.x_rotations, result.y_rotations))


def mvda_fit(
    ds: MultiViewDataset,
    dim: int,
    view_consistency_lambda: float | None = None,
) -> LinearProjector:
    """Multi-view discriminant analysis over the stacked view space.

    Class means pool samples from every view, so the projections of all
    views are driven toward one shared discriminant layout. With
    ``view_consistency_lambda`` set, a coupling penalty proportional to
    the pairwise differences of the per-view projections joins the
    denominator scatter; that variant requires equal view dimensions.

    Raises
    ------
    DimTooLargeError
        If ``dim`` exceeds the stacked dimension.
    VcDimMismatchError
        If the coupling variant sees views of different widths.
    """
    dims = [v.dim for v in ds.views]
    # Each view's features sit in its own row and column block of the
    # stacked space, zeros elsewhere.
    cols = np.cumsum([0] + dims)
    rows = np.cumsum([0] + [v.n for v in ds.views])
    stacked = np.zeros((rows[-1], cols[-1]))
    for v, r, c in zip(ds.views, rows, cols):
        stacked[r : r + v.n, c : c + v.dim] = v.features
    s_w, s_b = _class_scatters(stacked, np.concatenate([v.labels for v in ds.views]))
    total = s_b.shape[0]
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if dim > total:
        raise DimTooLargeError(f"dim {dim} exceeds stacked dimension {total}")

    denom = s_w
    if view_consistency_lambda is not None:
        if view_consistency_lambda < 0:
            raise ValueError(
                f"view_consistency_lambda must be >= 0, got {view_consistency_lambda}"
            )
        if len(set(dims)) != 1:
            raise VcDimMismatchError(
                f"view-consistency coupling needs equal view dimensions, got {dims}"
            )
        # Block (i, j) is (v - 1) I on the diagonal and -I elsewhere.
        v = len(dims)
        coupling = np.kron(v * np.eye(v) - 1.0, np.eye(dims[0]))
        denom = s_w + view_consistency_lambda * coupling

    beta = _top_generalized(s_b, denom, dim)
    projections = tuple(block.copy() for block in np.split(beta, np.cumsum(dims)[:-1]))
    method = "mvda-vc" if view_consistency_lambda is not None else "mvda"
    return LinearProjector(method=method, projections=projections)


def one_hot(labels, class_count: int) -> np.ndarray:
    """0/1 target matrix of shape (n, class_count) for 1-based labels.

    Raises
    ------
    LengthMismatchError, LabelOutOfRangeError
        Unless ``labels`` pass :func:`~mvle.dataset.check_labels` as a 1-D
        array of classes 1..``class_count``.
    """
    lab = check_labels(labels, np.size(labels), class_count)
    targets = np.zeros((lab.shape[0], class_count), dtype=np.float64)
    targets[np.arange(lab.shape[0]), lab - 1] = 1.0
    return targets


def _softsign(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x / (1 + |x|)`` with one temporary, written into ``out`` when given
    (``out=x`` overwrites the input)."""
    d = np.abs(x, out=np.empty(np.shape(x)))
    d += 1.0
    return np.divide(x, d, out=d if out is None else out)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``1 / (1 + exp(-x))``, the formula of ``scipy.special.expit``, in one
    buffer: a new one, or ``out`` when given (``out=x`` overwrites the
    input). Below x = -709.78, ``exp(-x)`` overflows to inf and the result
    is exactly 0, as there."""
    y = np.negative(x, out=np.empty(np.shape(x)) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(y, out=y)
    y += 1.0
    return np.reciprocal(y, out=y)


#: Hidden-layer activations selectable by name. The ELM uses sigmoid; MHON's
#: guide layer takes ``MhonHyper.activation``, softsign by default. Each takes
#: ``out=`` as a ufunc does, so :func:`_hidden` evaluates a layer in place.
ACTIVATIONS = {
    "softsign": _softsign,
    "sigmoid": _sigmoid,
    "tanh": np.tanh,
}


@dataclass(frozen=True)
class ElmClassifier:
    """One random hidden layer ``activation(x @ a + b)`` with a ridge-solved
    linear readout ``beta``; ``activation`` names an :data:`ACTIVATIONS` entry."""

    a: np.ndarray
    b: np.ndarray
    beta: np.ndarray
    activation: str


def _hidden(x: np.ndarray, a: np.ndarray, b: np.ndarray, activation: str) -> np.ndarray:
    """The hidden matrix ``activation(x @ a + b)``, evaluated in the one
    buffer ``x @ a`` allocates: the same operations in the same order as
    the plain formula, so the same bits."""
    h = x @ a
    h += b
    return ACTIVATIONS[activation](h, out=h)


def fit_layer(
    x: np.ndarray, targets: np.ndarray, hidden: int, ridge_lambda: float,
    rng: np.random.Generator, activation: str,
) -> ElmClassifier:
    """Draw ``a`` then ``b`` from uniform(-1, 1) on ``rng``, and ridge-solve
    the readout of the hidden layer (:func:`_hidden`) onto ``targets``."""
    a = rng.uniform(-1.0, 1.0, size=(x.shape[1], hidden))
    b = rng.uniform(-1.0, 1.0, size=hidden)
    h = _hidden(x, a, b, activation)
    return ElmClassifier(a, b, ridge_solve(h, targets, ridge_lambda), activation)


def layer_output(layer: ElmClassifier, x: np.ndarray) -> np.ndarray:
    """``activation(x @ a + b) @ beta``, the hidden matrix evaluated in one
    buffer by :func:`_hidden`."""
    return _hidden(x, layer.a, layer.b, layer.activation) @ layer.beta


def elm_train(
    x,
    labels,
    class_count: int,
    hidden: int = 256,
    ridge_lambda: float = 1e-2,
    seed: int | np.random.Generator = 0,
) -> ElmClassifier:
    """Train the classifier on any feature representation: a sigmoid layer
    fitted onto ``one_hot(labels)``.

    ``a`` then ``b`` are drawn from uniform(-1, 1) on ``default_rng(seed)``;
    a ``Generator`` passed as ``seed`` is drawn from as it stands.

    Raises
    ------
    LengthMismatchError, LabelOutOfRangeError
        If ``x`` is not 2-D, or unless ``labels`` pass
        :func:`~mvle.dataset.check_labels` with one label per row of ``x``
        and classes 1..``class_count``.
    """
    xm = np.asarray(x, dtype=np.float64)
    if xm.ndim != 2:
        raise LengthMismatchError(f"x must be 2-D, got shape {xm.shape}")
    lab = check_labels(labels, xm.shape[0], class_count)
    if hidden < 1:
        raise ValueError(f"hidden must be >= 1, got {hidden}")
    return fit_layer(xm, one_hot(lab, class_count), hidden, ridge_lambda,
                     np.random.default_rng(seed), "sigmoid")


def elm_predict(clf: ElmClassifier, x) -> np.ndarray:
    """Predicted 1-based labels: the argmax of the layer output; ties
    resolve to the lowest class id."""
    xm = np.asarray(x, dtype=np.float64)
    if xm.ndim != 2 or xm.shape[1] != clf.a.shape[0]:
        raise DimMismatchError(
            f"classifier expects {clf.a.shape[0]} features, got shape {xm.shape}"
        )
    return np.argmax(layer_output(clf, xm), axis=1).astype(np.int64) + 1
