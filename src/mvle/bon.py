"""K-nearest neighbors and bag-of-neighbors label counts within one view.

A sample's bag-of-neighbors (BON) vector counts, per class, how many of its
K nearest same-view neighbors carry that class label. Row sums therefore
always equal K, and the vector lives on the scaled simplex regardless of
the view's feature dimension, which is what lets views of different widths
share one weight graph downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ClassCountMismatchError, KTooLargeError, LabelOutOfRangeError

# Distance entries computed at a time by ``knn``: its working memory stays
# near 8 * KNN_CHUNK_ENTRIES bytes whatever the sample count.
KNN_CHUNK_ENTRIES = 1 << 22


@dataclass(frozen=True)
class BonMatrix:
    """Per-sample label counts over the k nearest neighbors."""

    counts: np.ndarray
    k: int

    @property
    def class_count(self) -> int:
        return self.counts.shape[1]

    def label_set(self, i: int) -> set[int]:
        """Classes (1-based) that appear among sample ``i``'s neighbors."""
        return {int(t) + 1 for t in np.flatnonzero(self.counts[i] > 0)}


def pairwise_distance(x, a: int, b: int) -> float:
    """Euclidean distance between rows ``a`` and ``b`` of ``x``."""
    m = np.asarray(x, dtype=np.float64)
    return float(np.linalg.norm(m[a] - m[b]))


def knn(x, k: int) -> np.ndarray:
    """Indices of the K nearest neighbors of every row of ``x``, nearest
    first, by Euclidean distance: an (n, k) integer array.

    The sample itself is excluded. Distance ties break deterministically
    toward the lower row index. Distances are computed a block of rows at a
    time, so memory grows with ``n``, not ``n**2``.

    Raises
    ------
    KTooLargeError
        Unless ``1 <= k <= n - 1``.
    """
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"need a nonempty 2-D array, got shape {m.shape}")
    n = m.shape[0]
    if not 1 <= k <= n - 1:
        raise KTooLargeError(f"k must satisfy 1 <= k <= {n - 1}, got {k}")
    indices = np.empty((n, k), dtype=np.int64)
    step = max(1, KNN_CHUNK_ENTRIES // n)
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        dist = cdist(m[rows], m)
        dist[np.arange(rows.size), rows] = np.inf
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
        # Every candidate at or below the k-th distance, ordered by row, then
        # distance, then index; each row has at least k of them.
        r, c = np.nonzero(dist <= kth[:, None])
        order = np.lexsort((c, dist[r, c], r))
        first = np.searchsorted(r, np.arange(rows.size))
        indices[rows] = c[order][first[:, None] + np.arange(k)]
    return indices


def bon_vectors(indices, labels, class_count: int) -> BonMatrix:
    """Count, per class, the labels of every sample's neighbors ``indices``
    (the (n, k) array from :func:`knn`).

    Raises
    ------
    ClassCountMismatchError
        If a label exceeds ``class_count``.
    """
    lab = np.asarray(labels, dtype=np.int64)
    if lab.ndim != 1 or lab.shape[0] != indices.shape[0]:
        raise ValueError(
            f"labels shape {lab.shape} does not match {indices.shape[0]} samples"
        )
    if lab.min() < 1:
        raise LabelOutOfRangeError(f"labels must be >= 1, found {lab.min()}")
    if lab.max() > class_count:
        raise ClassCountMismatchError(
            f"label {lab.max()} exceeds class_count {class_count}"
        )
    neighbor_labels = lab[indices]
    counts = np.zeros((lab.shape[0], class_count), dtype=np.int64)
    for cls in range(1, class_count + 1):
        counts[:, cls - 1] = (neighbor_labels == cls).sum(axis=1)
    return BonMatrix(counts=counts, k=indices.shape[1])
