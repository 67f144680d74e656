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
returns the graph in that form, :class:`CellGraph`: the m distinct cells,
their sizes c, the cell of every sample, and the m×m weights Wq between
cells (diagonal entry w_qq: the weight between two samples of cell q). The
spectrum of ``L y = λ D y`` is then the union of

- the m eigenvalues of the quotient problem ``Lq z = λ Dq z`` from
  :meth:`CellGraph.quotient`, whose eigenvectors are constant on cells,
  ``y = z[cell_index]``, with ``Y^T D Y = Z^T Dq Z``;
- the within-cell eigenvalues ``1 + w_qq / d_q``, c_q - 1 of them for each
  cell q, whose eigenvectors live on one cell and sum to zero there. D is
  d_q on the whole cell, so any orthonormal zero-sum basis of the cell,
  scaled by d_q^(-1/2), is a D-orthonormal eigenbasis.

Only :meth:`CellGraph.dense` builds an N×N array, the weight matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .bon import BonMatrix
from .errors import ClassCountMismatchError, IsolatedSampleError, LengthMismatchError


@dataclass(frozen=True)
class CellGraph:
    """Joint graph over the distinct (BON vector, label) cells.

    ``sizes[q]`` is the sample count of cell q, ``cell_index[a]`` the cell of
    sample a, ``wq[q, r]`` the weight between a sample of cell q and another
    of cell r, and ``cell_degrees[q]`` the degree of every sample of cell q.
    """

    sizes: np.ndarray
    cell_index: np.ndarray
    wq: np.ndarray
    cell_degrees: np.ndarray
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

    def quotient(self) -> tuple[np.ndarray, np.ndarray]:
        """Laplacian and diagonal metric of the m×m quotient problem.

        ``Lq = diag(c⊙(dq+wqq)) - C·Wq·C`` and ``Dq = c⊙dq``. Edges within a
        cell cancel in ``Lq``, so it is built as the Laplacian of ``C·Wq·C``
        with its diagonal dropped, which is the same matrix without the
        cancellation.
        """
        sizes = self.sizes.astype(np.float64)
        lq = np.multiply.outer(-sizes, sizes)
        lq *= self.wq
        np.fill_diagonal(lq, 0.0)
        np.fill_diagonal(lq, -lq.sum(axis=1))
        return lq, self.sizes * self.cell_degrees

    def dense(self) -> np.ndarray:
        """The N×N weight matrix, entry for entry the weights the cells stand for."""
        w = self.wq[np.ix_(self.cell_index, self.cell_index)]
        np.fill_diagonal(w, 0.0)
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
) -> CellGraph:
    """Assemble the joint weight graph, in cell form, from per-view BON matrices.

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
    for i, b in enumerate(bons):
        if b.class_count != class_count:
            raise ClassCountMismatchError(
                f"view {i} has {b.class_count} classes, view 0 has {class_count}"
            )

    label_parts = []
    for i, (b, lab) in enumerate(zip(bons, labels)):
        lab = np.asarray(lab, dtype=np.int64)
        if lab.shape[0] != b.counts.shape[0]:
            raise LengthMismatchError(
                f"view {i}: {b.counts.shape[0]} BON rows but {lab.shape[0]} labels"
            )
        label_parts.append(lab)

    keyed = np.column_stack(
        [np.vstack([b.counts for b in bons]), np.concatenate(label_parts)]
    )
    view_sizes = [b.counts.shape[0] for b in bons]
    offsets = tuple(int(v) for v in np.concatenate([[0], np.cumsum(view_sizes)[:-1]]))
    cells, cell_index, sizes = np.unique(
        keyed, axis=0, return_inverse=True, return_counts=True
    )
    counts = cells[:, :-1].astype(np.float64)

    # has_label[q, r]: does r's class occur among q's neighbors?
    presence = counts > 0
    has_label = presence[:, cells[:, -1].astype(np.int64) - 1]
    connected = has_label & has_label.T
    wq = np.where(connected, np.exp(-cdist(counts, counts, "sqeuclidean") / t), 0.0)

    # d_q = sum over the other cells r of c_r w_qr, plus (c_q - 1) w_qq;
    # summed without the diagonal, so no term cancels another.
    self_w = np.diagonal(wq).copy()
    np.fill_diagonal(wq, 0.0)
    cell_degrees = wq @ sizes + (sizes - 1) * self_w
    np.fill_diagonal(wq, self_w)
    cell_index = cell_index.reshape(-1)
    _require_edges(cell_degrees[cell_index])
    return CellGraph(
        sizes=sizes,
        cell_index=cell_index,
        wq=wq,
        cell_degrees=cell_degrees,
        block_offsets=offsets,
    )
