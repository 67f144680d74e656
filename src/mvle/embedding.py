"""Multi-view Laplacian eigenmap over the joint BON-weighted graph.

The fit normalizes each view, builds per-view K-nearest-neighbor tables
and bag-of-neighbors vectors, assembles the joint weight graph in cell form
(see :mod:`mvle.graph`), and solves the generalized eigenproblem
L y = lambda D y. The all-ones direction (eigenvalue 0) is dropped and the
next ``dim`` eigenvectors, scaled so Y^T D Y = I, become the embedding. Row
blocks of Y map back to the views in input order.

The eigenproblem is solved exactly on the m×m quotient over the
(BON vector, label) cells, whose eigenvectors are expanded to samples
through the cell index. The quotient misses only the within-cell
eigenpairs, which are known in closed form (see :mod:`mvle.graph`): each
cell q of c_q samples adds c_q - 1 copies of ``1 + w_qq / d_q``, with the
Helmert contrasts over the cell's samples, scaled by d_q^(-1/2), as
eigenvectors. The fit merges both lists and keeps the lowest; no N×N
problem is ever formed. It asks the quotient solve for its lowest dim + 2
pairs, which cover the kept pairs and the gap λ_dim+1 - λ_dim after them;
on a large quotient they come from certified Lanczos (see
:mod:`mvle.linalg`), and the fit records which solver ran.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import bon as bon_mod
from .dataset import MultiViewDataset, NormStats, write_matrix_csv, zscore_normalize
from .errors import ClassTooSmallError, DimTooLargeError
from .graph import CellGraph, build_weight_graph
from .linalg import RESULT_TOL, EigenResult, _fix_signs, generalized_eig_diag

ZERO_EIGENVALUE_TOL = 1e-8
# Two correct float64 solves of one quotient differ by a backward error E and
# so place the lowest eigenvectors within |E| / gap of each other (the
# Davis-Kahan sin theta bound). Measured against a solve of the input scaled
# by 1 + 2.2e-16 noise, and against Lanczos, on the default data (split seeds
# 0-9) and on the pipeline-c4 and -c16 training sets (split seed 7), at every
# cut up to 20: sin theta * gap <= 1.0e-15. Below this gap at the dim cut,
# ten times that error leaves the kept directions unsettled at RESULT_TOL.
NEAR_TIE_TOL = 10 * 1e-15 / RESULT_TOL


@dataclass(frozen=True)
class Embedding:
    """Joint embedding rows with the per-view partition."""

    y: np.ndarray
    per_view: tuple[np.ndarray, ...]
    eigenvalues: np.ndarray
    dim: int


@dataclass(frozen=True)
class FitArtifacts:
    """What the fit derived along the way that later stages reuse."""

    graph: CellGraph
    norm_stats: tuple[NormStats, ...]
    k: int
    t: float
    eigengap: float | None
    eig_solver: str


def fit(
    ds: MultiViewDataset, k: int, dim: int, t: float | None = None
) -> tuple[Embedding, FitArtifacts]:
    """Fit the multi-view embedding.

    Parameters
    ----------
    ds : MultiViewDataset
        Every class must appear in every view.
    k : int
        Neighbor count for the BON stage; ``1 <= k <= n_i - 1`` per view.
    dim : int
        Embedding dimension; ``1 <= dim <= N - 1`` for N total samples.
    t : float, optional
        Heat-kernel bandwidth. Defaults to the class count.

    Raises
    ------
    ClassTooSmallError
        If some class is missing from some view.
    DimTooLargeError
        If ``dim`` exceeds ``N - 1``.
    KTooLargeError, IsolatedSampleError, SingularDegreeError
        Propagated from the neighbor, graph, and eigen stages.
    """
    for view_id, view in enumerate(ds.views):
        sizes = np.bincount(view.labels, minlength=ds.class_count + 1)[1:]
        if not sizes.all():
            raise ClassTooSmallError(
                f"class {np.argmin(sizes) + 1} has no samples in view {view_id}; "
                "every class must appear in every view"
            )
    n_total = ds.n_total
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if dim > n_total - 1:
        raise DimTooLargeError(
            f"dim {dim} exceeds N - 1 = {n_total - 1} for {n_total} total samples"
        )
    heat_t = float(ds.class_count) if t is None else float(t)

    stats = []
    bons = []
    for view in ds.views:
        normalized, st = zscore_normalize(view.features)
        stats.append(st)
        indices = bon_mod.knn(normalized, k)
        bons.append(bon_mod.bon_vectors(indices, view.labels, ds.class_count))

    graph, quotient = build_weight_graph(bons, [v.labels for v in ds.views], heat_t)
    # dim + 2 quotient pairs cover the kept pairs and the one after the cut.
    # The solve overwrites Lq, the fit's one m×m array, which is then dropped.
    eig = generalized_eig_diag(*quotient, count=min(dim + 2, graph.m))
    del quotient
    # Within-cell eigenvalues are at least 1, and any quotient eigenvalue the
    # solve left out is at least 2e-8, so the count covers the spectrum.
    near_zero = int(np.count_nonzero(eig.values < ZERO_EIGENVALUE_TOL))
    if near_zero > 1:
        warnings.warn(
            f"joint graph has {near_zero} near-zero eigenvalues (disconnected "
            "components); dropping only the first trivial direction",
            UserWarning,
            stacklevel=2,
        )

    values, eigengap, y = _lowest_pairs(graph, eig, dim)
    per_view = tuple(y[sl].copy() for sl in graph.block_slices)
    embedding = Embedding(y=y, per_view=per_view, eigenvalues=values, dim=dim)
    artifacts = FitArtifacts(
        graph=graph,
        norm_stats=tuple(stats),
        k=k,
        t=heat_t,
        eigengap=eigengap,
        eig_solver=eig.solver,
    )
    return embedding, artifacts


def _lowest_pairs(
    graph: CellGraph, eig: EigenResult, dim: int
) -> tuple[np.ndarray, float | None, np.ndarray]:
    """Eigenpairs 1..dim of the full problem from the quotient pairs ``eig``,
    with the gap λ_dim+1 - λ_dim (``None`` when dim = N - 1).

    A gap below ``NEAR_TIE_TOL`` gives a ``UserWarning``, except where the
    pairs at the cut tie exactly by construction: two within-cell pairs of
    one cell, whose Helmert order is the documented choice, or two near-zero
    pairs, which the disconnected-graph warning reports.

    ``eig`` holds the lowest quotient pairs, at least dim + 2 of them or
    all m. The quotient values come first and the within-cell values
    follow, cell by cell; a stable sort keeps that order on exact ties. Only
    the kept columns are built, and the sign convention is applied to the N
    rows.
    """
    solved = eig.values.shape[0]
    pair_cell = np.repeat(np.arange(graph.m), graph.sizes - 1)
    band = 1.0 + graph.self_weights / graph.cell_degrees
    spectrum = np.concatenate([eig.values, band[pair_cell]])
    order = np.argsort(spectrum, kind="stable")
    keep = order[1 : dim + 1]
    eigengap = None
    if dim + 1 < order.size:
        below, above = order[dim], order[dim + 1]
        eigengap = float(spectrum[above] - spectrum[below])
        one_cell = (below >= solved and above >= solved
                    and pair_cell[below - solved] == pair_cell[above - solved])
        if (eigengap < NEAR_TIE_TOL and not one_cell
                and spectrum[above] >= ZERO_EIGENVALUE_TOL):
            warnings.warn(
                f"eigenvalues {dim} and {dim + 1} of the joint graph differ by "
                f"only {eigengap:.3g} (a near-tie at the dim cut); roundoff "
                "decides which directions the embedding keeps",
                UserWarning,
                stacklevel=3,
            )
    from_quotient = keep < solved
    y = np.zeros((graph.n, dim))
    y[:, from_quotient] = eig.vectors[:, keep[from_quotient]][graph.cell_index]
    # Pair p of cell q is its j-th Helmert contrast: 1 on the cell's first j
    # samples, -j on sample j + 1, over sqrt(j (j + 1) d_q).
    first_pair = np.cumsum(graph.sizes - 1) - (graph.sizes - 1)
    for col in np.flatnonzero(~from_quotient):
        q = pair_cell[keep[col] - solved]
        j = keep[col] - solved - first_pair[q] + 1
        members = np.flatnonzero(graph.cell_index == q)
        y[members[:j], col] = 1.0
        y[members[j], col] = -float(j)
        y[:, col] /= np.sqrt(j * (j + 1) * graph.cell_degrees[q])
    return spectrum[keep], eigengap, _fix_signs(y)


def export_embedding(
    embedding: Embedding,
    artifacts: FitArtifacts,
    out_dir,
    seed: int | None = None,
) -> list[str]:
    """Write per-view embedding CSVs plus a JSON sidecar of fit metadata.

    The sidecar ``embedding_meta.json`` holds dim, k, t, seed, the kept
    eigenvalues ascending, ``view_offsets`` (the first joint row of each
    view), ``bon_cells`` (the number m of distinct (BON vector, label)
    cells of the joint graph), ``eigengap`` (λ_dim+1 - λ_dim, null when
    dim = N - 1) and ``eig_solver`` (``"lanczos"`` or ``"dense"``).

    Returns the list of paths written, views first, sidecar last.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, block in enumerate(embedding.per_view, start=1):
        path = os.path.join(out_dir, f"embedding_view{i}.csv")
        write_matrix_csv(block, path)
        paths.append(path)
    meta = {
        "eigenvalues": [float(v) for v in embedding.eigenvalues],
        "k": int(artifacts.k),
        "t": float(artifacts.t),
        "dim": int(embedding.dim),
        "seed": seed,
        "view_offsets": [int(v) for v in artifacts.graph.block_offsets],
        "bon_cells": int(artifacts.graph.m),
        "eigengap": artifacts.eigengap,
        "eig_solver": artifacts.eig_solver,
    }
    meta_path = os.path.join(out_dir, "embedding_meta.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths.append(meta_path)
    return paths
