"""Dense symmetric eigensolver and ridge regression.

All routines work on float64 ``numpy`` arrays and are deterministic:
eigenvalues come back in ascending order and every eigenvector has its
largest-magnitude entry forced positive. Backed by LAPACK's symmetric
driver via ``numpy.linalg``; the generalized problem with a diagonal
metric is reduced to a standard symmetric one by whitening, never by
forming a nonsymmetric product. A unit diagonal gives the standard
symmetric eigenproblem.

Tolerances are fixed module-wide: inputs are validated at 1e-10
(relative), results are certified at 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergenceError,
    NonSymmetricError,
    SingularDegreeError,
    SingularMatrixError,
)

INPUT_TOL = 1e-10
RESULT_TOL = 1e-8


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues in ascending order with column-aligned eigenvectors.

    ``vectors[:, j]`` belongs to ``values[j]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert ``a`` to a 2-D finite float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf")
    return m


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # Largest-magnitude entry of each column made positive; argmax breaks
    # magnitude ties by lowest row index, so the convention is total.
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def generalized_eig_diag(l, d) -> EigenResult:
    """Solve ``L y = lambda D y`` for symmetric ``L`` and positive diagonal ``D``.

    ``d`` may be the diagonal as a 1-D vector or as a full diagonal
    matrix. The problem is whitened to ``D^{-1/2} L D^{-1/2}``, which must
    be symmetric within 1e-10 relative to its own largest entry; it is
    averaged with its transpose so roundoff-level asymmetry cannot leak into
    the result. The eigenvectors are mapped back so that ``Y^T D Y = I``.

    Raises
    ------
    NonSymmetricError
        If the symmetry check fails.
    SingularDegreeError
        If any diagonal entry of ``D`` is zero or negative.
    NoConvergenceError
        If the underlying iteration does not converge.
    """
    lm = as_matrix(l, "l")
    if lm.shape[0] != lm.shape[1]:
        raise ValueError(f"l must be square, got shape {lm.shape}")
    dv = np.asarray(d, dtype=np.float64)
    if dv.ndim == 2:
        dv = np.diagonal(dv).copy()
    if dv.ndim != 1 or dv.shape[0] != lm.shape[0]:
        raise ValueError(
            f"d must be a diagonal of length {lm.shape[0]}, got shape {dv.shape}"
        )
    if not np.all(np.isfinite(dv)):
        raise ValueError("d contains NaN or Inf")
    bad = np.flatnonzero(dv <= 0.0)
    if bad.size:
        raise SingularDegreeError(
            f"diagonal entry {bad[0]} is {dv[bad[0]]:.6g}; all degrees must be positive"
        )
    inv_sqrt = 1.0 / np.sqrt(dv)
    white = as_matrix(inv_sqrt[:, None] * lm * inv_sqrt[None, :], "whitened l")
    scale = max(float(np.abs(white).max()), 1e-300)
    asym = float(np.abs(white - white.T).max())
    if asym > INPUT_TOL * scale:
        raise NonSymmetricError(
            f"matrix is not symmetric: max |A - A^T| = {asym:.3e} "
            f"exceeds {INPUT_TOL:.0e} * {scale:.3e}"
        )
    try:
        values, vectors = np.linalg.eigh(0.5 * (white + white.T))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(f"eigendecomposition failed: {exc}") from exc
    # The sign convention is applied once, to the mapped-back vectors.
    return EigenResult(values=values, vectors=_fix_signs(inv_sqrt[:, None] * vectors))


def ridge_solve(h, t, lam: float) -> np.ndarray:
    """Ridge-regularized least squares ``argmin ||H b - T||^2 + lam ||b||^2``.

    Solves the smaller of the two normal-equation systems. With ``n`` rows
    and ``p`` columns in ``H``, the primal ``(H^T H + lam I) b = H^T T`` is
    p×p; when ``lam > 0`` and ``n < p``, the dual ``(H H^T + lam I) a = T``
    is n×n and gives the same ``b = H^T a``, because
    ``(H^T H + lam I)^{-1} H^T = H^T (H H^T + lam I)^{-1}``. The choice
    follows from the shape of ``h`` alone. ``lam == 0`` always takes the
    primal form and its rank check. ``t`` may be a vector or a matrix of
    stacked targets; the result has the matching shape.

    Raises
    ------
    SingularMatrixError
        If ``lam == 0`` and ``H^T H`` is rank-deficient.
    """
    hm = as_matrix(h, "h")
    tv = np.asarray(t, dtype=np.float64)
    single = tv.ndim == 1
    tm = tv[:, None] if single else as_matrix(tv, "t")
    if tm.shape[0] != hm.shape[0]:
        raise ValueError(
            f"h has {hm.shape[0]} rows but t has {tm.shape[0]}"
        )
    if not np.all(np.isfinite(tm)):
        raise ValueError("t contains NaN or Inf")
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    n, p = hm.shape
    dual = lam > 0.0 and n < p
    gram = hm @ hm.T if dual else hm.T @ hm
    gram = 0.5 * (gram + gram.T)
    if lam == 0.0:
        rank = np.linalg.matrix_rank(gram, hermitian=True)
        if rank < p:
            raise SingularMatrixError(
                f"H^T H has rank {rank} < {p} and lam = 0; "
                "supply a positive ridge parameter"
            )
    else:
        gram = gram + lam * np.eye(gram.shape[0])
    rhs = tm if dual else hm.T @ tm
    try:
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"normal equations are singular: {exc}") from exc
    if dual:
        beta = hm.T @ beta
    return beta[:, 0] if single else beta
