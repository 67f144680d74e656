"""Joint weight graph over all samples of all views, in cell form.

Nodes are samples; views contribute contiguous index blocks. Two samples
a and b (same view or not) are connected when each one's label occurs in
the other's bag-of-neighbors label set. Connected pairs get heat-kernel
weight exp(-||bon_a - bon_b||^2 / t); everything else, the diagonal
included, is zero. Because BON vectors share the class axis across views,
this single rule couples views of different feature dimensions.

The weight W_ab depends only on the (BON vector, label) pairs of a and b,
so the samples sharing such a pair form a cell of an equitable partition
(Godsil & Royle, *Algebraic Graph Theory*, §9.3). :func:`build_weight_graph`
returns the graph in that form, :class:`CellGraph`: the m distinct cells
(their BON counts and labels), their sizes c, the cell of every sample, the
weight w_qq between two samples of the same cell q, and the degrees. The
m×m weights Wq between cells are not stored in it. The spectrum of
``L y = λ D y`` is then the union of

- the m eigenvalues of the quotient problem ``Lq z = λ Dq z``, whose
  eigenvectors are constant on cells,
  ``y = z[cell_index]``, with ``Y^T D Y = Z^T Dq Z``;
- the within-cell eigenvalues ``1 + w_qq / d_q``, c_q - 1 of them for each
  cell q, whose eigenvectors live on one cell and sum to zero there. D is
  d_q on the whole cell, so any orthonormal zero-sum basis of the cell,
  scaled by d_q^(-1/2), is a D-orthonormal eigenbasis.

Building the graph evaluates Wq once: it sums the degrees from that array
and then overwrites it with ``Lq``, the one m×m array it returns beside the
graph, so :func:`build_weight_graph` is the one builder of the quotient
problem. Only :meth:`CellGraph.dense` recomputes Wq from the cells, to build
the one N×N array, the weight matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bon import BonMatrix
from .dataset import check_labels
from .errors import ClassCountMismatchError, IsolatedSampleError, LengthMismatchError
from .linalg import _BLOCK, check_order


@dataclass(frozen=True)
class CellGraph:
    """Joint graph over the distinct (BON vector, label) cells.

    ``counts[q]`` and ``cell_labels[q]`` are the BON vector and the label of
    cell q, ``sizes[q]`` its sample count, ``cell_index[a]`` the cell of
    sample a, ``self_weights[q]`` the weight w_qq between two samples of
    cell q, ``cell_degrees[q]`` the degree of every sample of cell q, and
    ``t`` the heat-kernel bandwidth. No m×m array is kept: :meth:`dense`
    recomputes the weights between cells from the cells.
    """

    counts: np.ndarray
    cell_labels: np.ndarray
    sizes: np.ndarray
    cell_index: np.ndarray
    self_weights: np.ndarray
    cell_degrees: np.ndarray
    t: float
    block_offsets: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.cell_index.shape[0]

    @property
    def m(self) -> int:
        return self.sizes.shape[0]

    @property
    def block_slices(self) -> tuple[slice, ...]:
        bounds = list(self.block_offsets) + [self.n]
        return tuple(slice(bounds[i], bounds[i + 1]) for i in range(len(self.block_offsets)))

    def dense(self) -> np.ndarray:
        """The N×N weight matrix, entry for entry the weights the cells stand
        for, recomputed from the cells."""
        wq = _cell_weights(self.counts, self.cell_labels, self.t)
        w = wq[np.ix_(self.cell_index, self.cell_index)]
        np.fill_diagonal(w, 0.0)
        return w


def _cell_weights(counts: np.ndarray, cell_labels: np.ndarray, t: float) -> np.ndarray:
    """The m×m cell weights Wq, in one new array, built a block of rows at a
    time without m×m temporaries.

    BON counts are integers, so ``2 a·b - |a|^2 - |b|^2`` is computed exactly
    and equals ``-cdist(counts, counts, "sqeuclidean")``; the connection
    rule enters as two exact 0/1 factors. The result has the bits of
    ``np.where(connected, np.exp(-cdist(counts, counts, "sqeuclidean") / t), 0.0)``.
    """
    m, c = counts.shape
    w = np.empty((m, m))
    squares = np.einsum("ij,ij->i", counts, counts)
    twice = 2.0 * counts
    has_class = (counts > 0).astype(np.float64)
    of_class = np.zeros((m, c))
    of_class[np.arange(m), cell_labels - 1] = 1.0
    for i in range(0, m, _BLOCK):
        rows = slice(i, i + _BLOCK)
        block = w[rows]
        np.matmul(twice[rows], counts.T, out=block)
        block -= squares[rows, None]
        block -= squares
        block /= t
        np.exp(block, out=block)
        # Cells q and r are connected when each one's class occurs among the
        # other's neighbors.
        block *= has_class[rows] @ of_class.T
        block *= of_class[rows] @ has_class.T
    return w


def _require_edges(degrees: np.ndarray) -> None:
    isolated = np.flatnonzero(degrees == 0.0)
    if isolated.size:
        raise IsolatedSampleError(
            f"sample {isolated[0]} has zero total edge weight; "
            "try a larger neighbor count K so bag-of-neighbors label sets overlap"
        )


def build_weight_graph(
    bons: Sequence[BonMatrix], labels: Sequence, t: float
) -> tuple[CellGraph, tuple[np.ndarray, np.ndarray]]:
    """Assemble the joint weight graph, in cell form, from per-view BON
    matrices, with its quotient problem ``(Lq, Dq)``, ``Dq = c⊙dq``.

    The m×m cell weights are evaluated once: their row sums give the
    degrees, and the same array is then overwritten by ``Lq``, the one m×m
    array returned. The graph keeps no m×m array.

    Parameters
    ----------
    bons : sequence of BonMatrix
        One per view, all sharing the same class axis.
    labels : sequence of 1-D int arrays
        Label vector per view, aligned with the BON rows.
    t : float
        Heat-kernel bandwidth; positive.

    Raises
    ------
    ClassCountMismatchError
        If the BON matrices disagree on the number of classes.
    LengthMismatchError, LabelOutOfRangeError
        Unless each view's labels pass :func:`~mvle.dataset.check_labels`
        with one label per BON row and classes 1..c of the BON matrices;
        also if ``bons`` and ``labels`` differ in length.
    OrderTooLargeError
        If the m cells exceed ``linalg.MAX_ORDER``
        (:func:`~mvle.linalg.check_order`), before any m×m array is made.
    IsolatedSampleError
        If a sample ends up with zero total edge weight; names the first.
    """
    if len(bons) != len(labels):
        raise LengthMismatchError(
            f"{len(bons)} BON matrices but {len(labels)} label vectors"
        )
    if not bons:
        raise ValueError("need at least one view")
    if t <= 0:
        raise ValueError(f"heat bandwidth t must be positive, got {t}")
    class_count = bons[0].class_count
    for i, b in enumerate(bons, start=1):
        if b.class_count != class_count:
            raise ClassCountMismatchError(
                f"view {i} has {b.class_count} classes, view 1 has {class_count}"
            )

    label_parts = [check_labels(lab, b.counts.shape[0], class_count)
                   for b, lab in zip(bons, labels)]

    keyed = np.column_stack(
        [np.vstack([b.counts for b in bons]), np.concatenate(label_parts)]
    )
    view_sizes = [b.counts.shape[0] for b in bons]
    offsets = tuple(int(v) for v in np.concatenate([[0], np.cumsum(view_sizes)[:-1]]))
    cells, cell_index, sizes = np.unique(
        keyed, axis=0, return_inverse=True, return_counts=True
    )
    # m is known here, and no m×m array exists yet.
    check_order(cells.shape[0])
    counts = cells[:, :-1].astype(np.float64)
    cell_labels = cells[:, -1].astype(np.int64)

    # d_q = sum over the other cells r of c_r w_qr, plus (c_q - 1) w_qq;
    # summed without the diagonal, so no term cancels another. The same
    # array then becomes Lq.
    lq = _cell_weights(counts, cell_labels, t)
    self_w = np.diagonal(lq).copy()
    np.fill_diagonal(lq, 0.0)
    cell_degrees = lq @ sizes + (sizes - 1) * self_w
    cell_index = cell_index.reshape(-1)
    _require_edges(cell_degrees[cell_index])
    graph = CellGraph(
        counts=counts,
        cell_labels=cell_labels,
        sizes=sizes,
        cell_index=cell_index,
        self_weights=self_w,
        cell_degrees=cell_degrees,
        t=float(t),
        block_offsets=offsets,
    )
    # The weights become Lq = diag(c⊙(dq+wqq)) - C·Wq·C in place. Edges
    # within a cell cancel in Lq, so it is built as the Laplacian of C·Wq·C
    # with its diagonal dropped: the same matrix without the cancellation.
    c = sizes.astype(np.float64)
    for i in range(0, lq.shape[0], _BLOCK):
        lq[i : i + _BLOCK] *= np.multiply.outer(-c[i : i + _BLOCK], c)
    np.fill_diagonal(lq, 0.0)
    np.fill_diagonal(lq, -lq.sum(axis=1))
    return graph, (lq, sizes * cell_degrees)
