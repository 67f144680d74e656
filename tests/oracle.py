"""Dense N×N reference operators for checking the cell-form fit.

The package keeps the joint graph in cell form and never forms N×N
operators beyond the weight matrix that ``--dump-graph`` writes. Tests
rebuild the dense degrees and Laplacian from that matrix here, and sum the
smoothness cost literally, so that cell-form results can be checked
against a route that shares no algebra with them. ``repeated_points`` is a
data set whose wide fits take within-cell eigenpairs, shared by the
quotient and benchmark tests.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from mvle.dataset import MultiViewDataset, View
from mvle.graph import CellGraph, _require_edges


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
