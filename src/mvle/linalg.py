"""Symmetric eigensolver and ridge regression.

All routines work on float64 ``numpy`` arrays and are deterministic:
eigenvalues come back in ascending order and every eigenvector has its
largest-magnitude entry forced positive. The generalized problem with a
diagonal metric is reduced to a standard symmetric one by whitening, never
by forming a nonsymmetric product. A unit diagonal gives the standard
symmetric eigenproblem.

The full spectrum comes from LAPACK's symmetric driver via
``numpy.linalg``. When only the lowest ``count`` pairs are asked for and the
order is at least ``LANCZOS_MIN_ORDER``, they come from ARPACK's Lanczos
iteration via ``scipy.sparse.linalg.eigsh`` with a fixed start vector, and
are certified before use: every residual must be small, and a Cholesky
factorisation of the shifted, deflated matrix must prove that no eigenvalue
below the cut was skipped. If ARPACK fails or either check does, the full
solve runs instead, so no uncertified pair is ever returned.

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
# Smallest order solved by Lanczos when fewer than all pairs are asked for.
# Measured on graph quotients with 2 vCPUs: at order 518 Lanczos saves about
# 0.025 s, which the slower NumPy BLAS calls after SciPy's BLAS threads wake
# give back; at 1000 it saves about 0.1 s, and at 2665 it is 4x faster.
LANCZOS_MIN_ORDER = 1000
# Rows or columns per block where m×m work is done in pieces.
_BLOCK = 512


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues in ascending order with column-aligned eigenvectors.

    ``vectors[:, j]`` belongs to ``values[j]``. ``solver`` names the path
    that produced them, ``"dense"`` or ``"lanczos"``.
    """

    values: np.ndarray
    vectors: np.ndarray
    solver: str


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


def _lead_signs(vectors: np.ndarray) -> np.ndarray:
    # The sign of each column's largest-magnitude entry, zero read as +1;
    # argmax breaks magnitude ties by lowest row index, so the convention is
    # total. Column blocks bound the temporary ``abs`` copy.
    cols = vectors.shape[1]
    lead = np.concatenate([
        np.argmax(np.abs(vectors[:, j : j + _BLOCK]), axis=0)
        for j in range(0, max(cols, 1), _BLOCK)
    ])
    signs = np.sign(vectors[lead, np.arange(cols)])
    signs[signs == 0] = 1.0
    return signs


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """``vectors`` with the largest-magnitude entry of each column positive."""
    return vectors * _lead_signs(vectors)


def generalized_eig_diag(l, d, count: int | None = None) -> EigenResult:
    """Solve ``L y = lambda D y`` for symmetric ``L`` and positive diagonal ``D``.

    ``d`` is the diagonal as a 1-D vector. The problem is whitened to
    ``D^{-1/2} L D^{-1/2}``, which must be symmetric within 1e-10 relative
    to its own largest entry; it is averaged with its transpose so
    roundoff-level asymmetry cannot leak into the result. The eigenvectors
    are mapped back so that ``Y^T D Y = I``.

    The whitening is done in place, so a float64 array ``l`` is overwritten
    (other input is converted to a new array first); pass a copy to keep
    it. No other m×m float array is made on the Lanczos path, and a failed
    certificate restores the whitened matrix bit for bit, so the dense
    solve that follows needs no copy either.

    ``count`` asks for the lowest ``count`` pairs only. On an order of at
    least ``LANCZOS_MIN_ORDER`` they come from certified Lanczos and the
    result holds exactly ``count`` pairs (``solver == "lanczos"``);
    otherwise, and whenever a certificate fails, the full dense solve runs
    and the result holds every pair (``solver == "dense"``).

    Raises
    ------
    ValueError
        If ``l`` is not a nonempty square matrix, or ``l`` or ``d`` holds
        NaN or Inf.
    NonSymmetricError
        If the symmetry check fails.
    SingularDegreeError
        If any diagonal entry of ``D`` is zero or negative.
    NoConvergenceError
        If LAPACK reports the eigendecomposition failed.
    """
    # No finiteness pass here: ``_whiten`` rejects NaN and Inf without an
    # m×m temporary.
    lm = np.asarray(l, dtype=np.float64)
    if lm.ndim != 2 or lm.size == 0 or lm.shape[0] != lm.shape[1]:
        raise ValueError(f"l must be a nonempty square matrix, got shape {lm.shape}")
    m = lm.shape[0]
    dv = np.asarray(d, dtype=np.float64)
    if dv.ndim != 1 or dv.shape[0] != m:
        raise ValueError(
            f"d must be a diagonal of length {m}, got shape {dv.shape}"
        )
    if not np.all(np.isfinite(dv)):
        raise ValueError("d contains NaN or Inf")
    bad = np.flatnonzero(dv <= 0.0)
    if bad.size:
        raise SingularDegreeError(
            f"diagonal entry {bad[0]} is {dv[bad[0]]:.6g}; all degrees must be positive"
        )
    if count is not None and not 1 <= count <= m:
        raise ValueError(f"count must be in [1, {m}], got {count}")
    inv_sqrt = 1.0 / np.sqrt(dv)
    white, scale = _whiten(lm, inv_sqrt)
    if count is not None and count < m and m >= LANCZOS_MIN_ORDER:
        found = _certified_lanczos(white, count, np.sqrt(dv), scale)
        if found is not None:
            values, vectors = found
            vectors *= inv_sqrt[:, None]
            return EigenResult(values, _fix_signs(vectors), "lanczos")
    try:
        values, vectors = np.linalg.eigh(white)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(f"eigendecomposition failed: {exc}") from exc
    # The sign convention is applied once, to the mapped-back vectors.
    vectors *= inv_sqrt[:, None]
    vectors *= _lead_signs(vectors)
    return EigenResult(values, vectors, "dense")


def _whiten(lm: np.ndarray, inv_sqrt: np.ndarray) -> tuple[np.ndarray, float]:
    """``lm`` overwritten by ``D^{-1/2} L D^{-1/2}`` averaged with its
    transpose, and the largest magnitude of that matrix."""
    lm *= inv_sqrt[:, None]
    lm *= inv_sqrt
    # max and min propagate NaN, so one finite scale means a finite matrix.
    scale = max(float(lm.max()), -float(lm.min()))
    if not np.isfinite(scale):
        raise ValueError("whitened l contains NaN or Inf")
    scale = max(scale, 1e-300)
    asym = _symmetrize(lm)
    if asym > INPUT_TOL * scale:
        raise NonSymmetricError(
            f"matrix is not symmetric: max |A - A^T| = {asym:.3e} "
            f"exceeds {INPUT_TOL:.0e} * {scale:.3e}"
        )
    return lm, scale


def _symmetrize(a: np.ndarray) -> float:
    """Set square ``a`` to ``(a + a^T) / 2`` in place, block by block, and
    return the largest ``|a - a^T|`` it had. Float addition commutes, so the
    result is exactly symmetric and equals ``0.5 * (a + a.T)`` bit for bit."""
    n = a.shape[0]
    asym = 0.0
    for i in range(0, n, _BLOCK):
        for j in range(i, n, _BLOCK):
            upper = a[i : i + _BLOCK, j : j + _BLOCK]
            lower = a[j : j + _BLOCK, i : i + _BLOCK].T
            asym = max(asym, float(np.abs(upper - lower).max()))
            mean = upper + lower
            mean *= 0.5
            upper[...] = mean
            lower[...] = mean
    return asym


def _certified_lanczos(
    white: np.ndarray, count: int, root_d: np.ndarray, scale: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``count`` lowest eigenpairs of symmetric ``white`` by ARPACK
    Lanczos, or ``None`` unless both certificates hold.

    Accuracy: the residuals ``W V - V diag(lambda)`` have Frobenius norm at
    most ``tol = RESULT_TOL * scale`` and ``V^T V = I`` within RESULT_TOL.
    Completeness: with ``sigma = lambda_count + 2 max(tol, RESULT_TOL)``,
    ``S = W - sigma I + V diag(c) V^T`` with ``c > sigma - lambda`` lifts
    the found pairs above zero. A rank-``count`` update removes at most
    ``count`` negative eigenvalues, so if ``S`` is positive definite (its
    Cholesky factorisation succeeds), ``W`` has at most ``count``
    eigenvalues below ``sigma``; the residual bound puts ``count`` of them
    within ``tol`` of the found values. Every eigenvalue left out is then
    at least ``sigma``.

    ``S`` is formed and factored in the lower triangle of ``white`` only.
    When the certificate holds, ``white`` is left holding the factor; when
    it fails, the lower triangle is copied back from the untouched upper one
    and the diagonal restored, so ``white`` holds W again, bit for bit.
    """
    # Imported here: loading SciPy's sparse and dense linear algebra takes
    # about 0.33 s on 2 vCPUs, which only a process that solves a quotient
    # of order LANCZOS_MIN_ORDER or more pays.
    from scipy.linalg.lapack import dpotrf
    from scipy.sparse.linalg import ArpackError, eigsh

    try:
        values, vectors = eigsh(
            white, k=count, which="SA", tol=0, v0=root_d / np.linalg.norm(root_d)
        )
    except ArpackError:
        return None
    order = np.argsort(values)
    values, vectors = values[order], vectors[:, order]
    tol = RESULT_TOL * scale
    residual = white @ vectors
    residual -= vectors * values
    gram = vectors.T @ vectors
    np.fill_diagonal(gram, np.diagonal(gram) - 1.0)
    # Written so that a NaN anywhere fails the check.
    if not (np.linalg.norm(residual) <= tol and np.abs(gram).max() <= RESULT_TOL):
        return None
    sigma = values[-1] + 2.0 * max(tol, RESULT_TOL)
    lifted = vectors * (sigma - values + max(scale, 1.0))
    diagonal = np.diagonal(white).copy()
    white[np.diag_indices_from(white)] -= sigma
    for i, j, block in _lower_blocks(white):
        update = lifted[i : i + _BLOCK] @ vectors[j : j + _BLOCK].T
        if i == j:
            below = np.tril_indices(block.shape[0])
            block[below] += update[below]
        else:
            block += update
    # ``white.T`` is the Fortran-ordered view LAPACK factors without a copy;
    # its upper triangle is the lower triangle of ``white``.
    _, info = dpotrf(white.T, lower=False, clean=False, overwrite_a=True)
    if info == 0:
        return values, vectors
    for i, j, block in _lower_blocks(white):
        mirror = white[j : j + _BLOCK, i : i + _BLOCK].T
        if i == j:
            below = np.tril_indices(block.shape[0], -1)
            block[below] = mirror[below]
        else:
            block[...] = mirror
    white[np.diag_indices_from(white)] = diagonal
    return None


def _lower_blocks(a: np.ndarray):
    """``(i, j, a[i:i+B, j:j+B])`` for the blocks of square ``a`` on or below
    the diagonal, B = ``_BLOCK``."""
    n = a.shape[0]
    for i in range(0, n, _BLOCK):
        for j in range(0, i + 1, _BLOCK):
            yield i, j, a[i : i + _BLOCK, j : j + _BLOCK]


def ridge_solve(h, t, lam: float) -> np.ndarray:
    """Ridge-regularized least squares ``argmin ||H b - T||^2 + lam ||b||^2``.

    Solves the smaller of the two normal-equation systems. With ``n`` rows
    and ``p`` columns in ``H``, the primal ``(H^T H + lam I) b = H^T T`` is
    p×p; when ``n < p``, the dual ``(H H^T + lam I) a = T`` is n×n and
    gives the same ``b = H^T a``, because
    ``(H^T H + lam I)^{-1} H^T = H^T (H H^T + lam I)^{-1}``. The choice
    follows from the shape of ``h`` alone. ``t`` may be a vector or a matrix
    of stacked targets; the result has the matching shape.

    Raises
    ------
    ValueError
        Unless ``lam > 0``; a NaN ``lam`` is rejected too.
    SingularMatrixError
        If LAPACK finds the regularized system singular.
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
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    n, p = hm.shape
    dual = n < p
    gram = hm @ hm.T if dual else hm.T @ hm
    gram = 0.5 * (gram + gram.T)
    gram = gram + lam * np.eye(gram.shape[0])
    rhs = tm if dual else hm.T @ tm
    try:
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"normal equations are singular: {exc}") from exc
    if dual:
        beta = hm.T @ beta
    return beta[:, 0] if single else beta
