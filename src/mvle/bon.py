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

from .dataset import check_labels
from .errors import KTooLargeError

# Distance entries held at a time by ``knn``: its working memory stays near
# 8 * KNN_CHUNK_ENTRIES bytes whatever the sample count. Kept small because
# glibc's malloc, once it has unmapped a block, serves blocks of that size
# from its heap and keeps up to twice that size resident after they are
# freed, so a long-running process holds more the larger the block. On
# 2 vCPUs, 30 s pipeline-c16 benchmark runs peaked at about 183 MB with
# 1 << 22 entries and at about 158 MB with 1 << 20, which is no slower.
KNN_CHUNK_ENTRIES = 1 << 20
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class BonMatrix:
    """Per-sample label counts over the k nearest neighbors."""

    counts: np.ndarray
    k: int

    @property
    def class_count(self) -> int:
        return self.counts.shape[1]


def knn(x, k: int) -> np.ndarray:
    """Indices of the K nearest neighbors of every row of ``x``, nearest
    first, by Euclidean distance: an (n, k) integer array.

    The sample itself is excluded. Distance ties break deterministically
    toward the lower row index. The lists equal those of a stable argsort
    of ``scipy.spatial.distance.cdist(x, x)`` with the diagonal excluded.

    A block of rows at a time, so memory grows with ``n``, not ``n**2``:

    - Filter. Squared distances are ranked by the BLAS expansion
      ``|a|^2 + |b|^2 - 2 a.b`` of the mean-centred rows. Each of these
      differs from the squared distance ``cdist`` sums by at most
      ``E = (d + 4) eps (|a| + R)^2``, with ``R`` the largest centred row
      norm: the rounding of the centring, of the expansion and of
      ``cdist``'s own sum. So with ``t`` the row's k-th smallest expanded
      value, at least k ``cdist`` sums are at most ``t + E``, and every
      column above ``t + 2E`` has a larger sum than the k-th. The bound
      ``t + 2E`` is widened by ``8 eps`` relative, so that no sum the final
      ``sqrt`` rounds to the k-th distance falls outside it either.
    - Refine. The distances of the columns kept are recomputed as ``cdist``
      computes them: squared differences summed feature by feature in
      order, then ``sqrt``. They are bit-equal to ``cdist``'s, and every
      column at or below the k-th distance is among them, so selecting by
      (distance, index) among the kept columns gives ``cdist``'s lists.

    Raises
    ------
    KTooLargeError
        Unless ``1 <= k <= n - 1``.
    ValueError
        If ``x`` holds NaN or Inf, or rows so large their squared norms
        overflow.
    """
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"need a nonempty 2-D array, got shape {m.shape}")
    n, d = m.shape
    if not 1 <= k <= n - 1:
        raise KTooLargeError(f"k must satisfy 1 <= k <= {n - 1}, got {k}")
    centred = m - m.mean(axis=0)
    norms2 = np.einsum("ij,ij->i", centred, centred)
    if not np.all(np.isfinite(norms2)):
        raise ValueError("x contains NaN or Inf, or rows too large to square")
    norms = np.sqrt(norms2)
    slack = (d + 4) * _EPS * (norms + norms.max()) ** 2
    features = m.T.copy()
    indices = np.empty((n, k), dtype=np.int64)
    step = max(1, KNN_CHUNK_ENTRIES // n)
    # ``np.partition`` copies what it partitions, so it takes a sixteenth of
    # a block at a time.
    part_rows = max(1, step // 16)
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        approx = centred[rows] @ centred.T
        approx *= -2.0
        approx += norms2[rows, None]
        approx += norms2
        approx[np.arange(rows.size), rows] = np.inf
        bound = np.empty(rows.size)
        for i in range(0, rows.size, part_rows):
            part = np.partition(approx[i : i + part_rows], k - 1, axis=1)
            bound[i : i + part_rows] = part[:, k - 1]
        bound += 2.0 * slack[rows]
        bound *= 1.0 + 8.0 * _EPS
        # In row-major order, as 2-D ``np.nonzero`` gives them, but faster.
        r, c = np.divmod(np.flatnonzero(approx <= bound[:, None]), n)
        del approx, part  # before the next block is made
        a = rows[r]
        dist = np.zeros(r.size)
        for f in features:
            diff = f[a] - f[c]
            diff *= diff
            dist += diff
        np.sqrt(dist, out=dist)
        # Kept columns ordered by row, then distance, then index; each row
        # has at least k of them.
        order = np.lexsort((c, dist, r))
        first = np.searchsorted(r, np.arange(rows.size))
        indices[rows] = c[order][first[:, None] + np.arange(k)]
    return indices


def bon_vectors(indices, labels, class_count: int) -> BonMatrix:
    """Count, per class, the labels of every sample's neighbors ``indices``
    (the (n, k) array from :func:`knn`).

    Raises
    ------
    LengthMismatchError, LabelOutOfRangeError
        Unless ``labels`` pass :func:`~mvle.dataset.check_labels` with one
        label per row of ``indices`` and classes 1..``class_count``.
    """
    lab = check_labels(labels, indices.shape[0], class_count)
    neighbor_labels = lab[indices]
    counts = np.zeros((lab.shape[0], class_count), dtype=np.int64)
    for cls in range(1, class_count + 1):
        counts[:, cls - 1] = (neighbor_labels == cls).sum(axis=1)
    return BonMatrix(counts=counts, k=indices.shape[1])
