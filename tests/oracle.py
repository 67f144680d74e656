"""Dense N×N reference operators for checking the cell-form fit.

The package keeps the joint graph in cell form and never forms N×N
operators beyond the weight matrix that ``--dump-graph`` writes. Tests
rebuild the dense degrees and Laplacian from that matrix here, recompute
the m×m cell weights by the plain out-of-place formula, and sum the
smoothness cost literally, so that cell-form results can be checked
against a route that shares no algebra with them. ``repeated_points`` is a
data set whose wide fits take within-cell eigenpairs, shared by the
quotient and benchmark tests. ``nipals_weights`` is the two-block NIPALS
power iteration that PLS weights are checked against. ``pairwise_distance``
and ``label_set`` restate single entries of the kNN and BON rules, and
``layer_arrays`` lists a network's weights for comparisons.
``interleaved_benchmark`` is the benchmark loop that scores each repeat
right after fitting it, against which the two-phase engine is checked.
``mask_scatters``, ``mask_s_w`` and ``mask_s_b`` compute class scatter with
one boolean mask per class, the loops the grouped class pass replaced.
"""

import time
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from mvle import bench
from mvle.dataset import MultiViewDataset, View
from mvle.errors import ClassTooSmallError
from mvle.graph import CellGraph, _require_edges
from mvle.metrics import EvalReport


@dataclass(frozen=True)
class WeightGraph:
    """Dense joint graph with per-view block offsets and derived operators."""

    w: np.ndarray
    block_offsets: tuple[int, ...]
    degrees: np.ndarray
    laplacian: np.ndarray

    @property
    def n(self) -> int:
        return self.w.shape[0]


def degree_and_laplacian(w) -> tuple[np.ndarray, np.ndarray]:
    """Row-sum degrees and the combinatorial Laplacian ``L = diag(d) - W``.

    Raises ``IsolatedSampleError`` with the package's message if some row of
    ``W`` sums to zero.
    """
    m = np.asarray(w, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"W must be square, got shape {m.shape}")
    degrees = m.sum(axis=1)
    _require_edges(degrees)
    return degrees, np.diag(degrees) - m


def dense_graph(graph: CellGraph) -> WeightGraph:
    """The N×N graph a cell graph stands for, with dense degrees and Laplacian."""
    w = graph.dense()
    degrees, laplacian = degree_and_laplacian(w)
    return WeightGraph(
        w=w, block_offsets=graph.block_offsets, degrees=degrees, laplacian=laplacian
    )


def cell_weights(graph: CellGraph) -> np.ndarray:
    """The m×m weights between the cells of ``graph``, from the rule in one
    out-of-place expression."""
    has_label = (graph.counts > 0)[:, graph.cell_labels - 1]
    connected = has_label & has_label.T
    distances = cdist(graph.counts, graph.counts, "sqeuclidean")
    return np.where(connected, np.exp(-distances / graph.t), 0.0)


def objective(y, graph: WeightGraph) -> float:
    """Graph smoothness cost: sum over all ordered pairs of ``||y_a - y_b||^2 W_ab``.

    Computed as the literal double sum over the dense graph, not through the
    Laplacian, so it can serve as an independent check of
    ``2 * trace(Y^T L Y)``.
    """
    ym = np.asarray(y, dtype=np.float64)
    if ym.ndim == 1:
        ym = ym[:, None]
    if ym.shape[0] != graph.n:
        raise ValueError(f"y has {ym.shape[0]} rows, graph has {graph.n} nodes")
    return float((cdist(ym, ym, "sqeuclidean") * graph.w).sum())


def repeated_points(copies: int = 3, seed: int = 5) -> MultiViewDataset:
    """Two views of six random points, each repeated ``copies`` times.

    Classes 1 and 2 hold three points each, so every (BON vector, label)
    cell holds several samples and wide fits reach the within-cell
    eigenvalues.
    """
    rng = np.random.default_rng(seed)
    labels = np.repeat([1, 2], 3 * copies)
    views = []
    for width in (2, 3):
        points = rng.normal(size=(6, width))
        views.append(View(np.repeat(points, copies, axis=0), labels))
    return MultiViewDataset(views=tuple(views), class_count=2)


def nipals_weights(x, y, dim: int, max_iter: int = 2000, tol: float = 1e-10):
    """X and Y weight columns of two-block NIPALS PLS with symmetric deflation.

    Each component alternates ``wx ∝ xd^T u``, ``wy ∝ yd^T xd wx``,
    ``u = yd wy`` from ``u`` = the Y column of largest norm, until ``wx``
    moves by less than ``tol``; a power iteration toward the leading
    singular pair of ``xd^T yd``. Raises ``RuntimeError`` if a component
    needs more than ``max_iter`` steps or a weight vector vanishes.
    """
    xd = np.asarray(x, dtype=np.float64)
    yd = np.asarray(y, dtype=np.float64)
    xd = xd - xd.mean(axis=0)
    yd = yd - yd.mean(axis=0)
    cap = min(dim, xd.shape[1], yd.shape[1], xd.shape[0] - 1)
    wx_list, wy_list = [], []
    for _ in range(cap):
        if np.linalg.norm(xd) < 1e-12 or np.linalg.norm(yd) < 1e-12:
            break
        u = yd[:, int(np.argmax(np.einsum("ij,ij->j", yd, yd)))].copy()
        wx = np.zeros(xd.shape[1])
        for _ in range(max_iter):
            wx_new = xd.T @ u
            nrm = np.linalg.norm(wx_new)
            if nrm < 1e-15:
                raise RuntimeError("X weights collapsed to zero")
            wx_new /= nrm
            wy = yd.T @ (xd @ wx_new)
            nrm = np.linalg.norm(wy)
            if nrm < 1e-15:
                raise RuntimeError("Y weights collapsed to zero")
            wy /= nrm
            u = yd @ wy
            converged = np.linalg.norm(wx_new - wx) < tol
            wx = wx_new
            if converged:
                break
        else:
            raise RuntimeError(f"NIPALS did not converge within {max_iter} iterations")
        t_scores = xd @ wx
        u_scores = yd @ wy
        tt = float(t_scores @ t_scores)
        uu = float(u_scores @ u_scores)
        if tt < 1e-15 or uu < 1e-15:
            break
        xd = xd - np.outer(t_scores, xd.T @ t_scores / tt)
        yd = yd - np.outer(u_scores, yd.T @ u_scores / uu)
        wx_list.append(wx)
        wy_list.append(wy)
    return np.column_stack(wx_list), np.column_stack(wy_list)


def pairwise_distance(x, a: int, b: int) -> float:
    """Euclidean distance between rows ``a`` and ``b`` of ``x``."""
    m = np.asarray(x, dtype=np.float64)
    return float(np.linalg.norm(m[a] - m[b]))


def label_set(bon, i: int) -> set[int]:
    """Classes (1-based) that appear among sample ``i``'s neighbors in ``bon``."""
    return {int(t) + 1 for t in np.flatnonzero(bon.counts[i] > 0)}


def layer_arrays(model) -> list[np.ndarray]:
    """``a``, ``b`` and ``beta`` of an MHON model's guide layer, then of its head."""
    return [getattr(layer, part) for layer in (model.guide, model.head)
            for part in ("a", "b", "beta")]


def interleaved_benchmark(ds: MultiViewDataset, cfg: dict) -> list:
    """``bench.run_benchmark``'s per-run records, each repeat split, fitted
    and scored before the next is split.

    Built from the engine's own split, fit and spread steps, so the only
    difference is the order; the timing fields are measured the same way.
    """
    runs = []
    for rep in range(cfg["repeats"]):
        sp = bench._make_split(ds, cfg["train_fraction"], cfg["seed"] + rep)
        for method in cfg["methods"]:
            t0 = time.perf_counter()
            views, score = bench._fit(method, sp, cfg, max(cfg["dims"]))
            fit_time = time.perf_counter() - t0
            for dim in (0,) if method == "raw" else cfg["dims"]:
                for view in views:
                    t1 = time.perf_counter()
                    acc, representation, labels = score(view, dim)
                    wall = time.perf_counter() - t1
                    sw, sb = bench._spread_metrics(representation, labels)
                    runs.append(EvalReport(
                        method=method, view=view, dim=dim, seed=sp.seed, accuracy=acc,
                        s_w=sw, s_b=sb, wall_time=wall, fit_time=fit_time,
                    ))
    return runs


def mask_scatters(x, labels) -> tuple[np.ndarray, np.ndarray]:
    """Within- and between-class scatter matrices, one boolean mask per class."""
    d = x.shape[1]
    mu = x.mean(axis=0)
    s_w = np.zeros((d, d))
    s_b = np.zeros((d, d))
    for cls in np.unique(labels):
        block = x[labels == cls]
        mu_c = block.mean(axis=0)
        centered = block - mu_c
        s_w += centered.T @ centered
        diff = (mu_c - mu)[:, None]
        s_b += block.shape[0] * (diff @ diff.T)
    return s_w, s_b


def mask_s_w(x, labels) -> float:
    """``metrics.s_w`` by one boolean mask per class, with its error."""
    classes = np.unique(labels)
    total = 0.0
    for cls in classes:
        block = x[labels == cls]
        if block.shape[0] < 2:
            raise ClassTooSmallError(
                f"class {cls} has {block.shape[0]} sample(s); need >= 2"
            )
        mu = block.mean(axis=0)
        total += float(((block - mu) ** 2).sum()) / (block.shape[0] - 1)
    return total / classes.size


def mask_s_b(x, labels) -> float:
    """``metrics.s_b`` by one boolean mask per class, for at least 2 rows."""
    grand = x.mean(axis=0)
    total = 0.0
    for cls in np.unique(labels):
        block = x[labels == cls]
        mu = block.mean(axis=0)
        total += block.shape[0] * float(((mu - grand) ** 2).sum())
    return total / (x.shape[0] - 1)
