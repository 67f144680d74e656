"""Symmetric eigensolvers and ridge regression.

All routines work on float64 ``numpy`` arrays and are deterministic:
eigenvalues come back in ascending order and every eigenvector has its
largest-magnitude entry forced positive. The generalized problem with a
diagonal metric is reduced to a standard symmetric one by whitening, never
by forming a nonsymmetric product. A unit diagonal gives the standard
symmetric eigenproblem.

Symmetry is built, not repaired: the whitening scales entry (i, j) by the
one product ``d_i^{-1/2} d_j^{-1/2}``, so a symmetric input stays exactly
symmetric. The package has one symmetry rule, the input check of
``generalized_eig_diag``: an input asymmetric beyond 1e-10 is rejected, and
one asymmetric within it is replaced by its average with its transpose.

The full spectrum comes from LAPACK's symmetric driver via
``numpy.linalg``. When only the lowest ``count`` pairs are asked for and the
order is at least ``LANCZOS_MIN_ORDER``, they come from ARPACK's Lanczos
iteration via ``scipy.sparse.linalg.eigsh`` with a fixed start vector, and
are certified before use: every residual must be small, and a Cholesky
factorisation of the shifted, deflated matrix must prove that no eigenvalue
below the cut was skipped. If ARPACK fails or either check does, the full
solve runs instead, so no uncertified pair is ever returned.

That solve runs on one BLAS thread pool, SciPy's, and reads one triangle.
NumPy and SciPy each load their own OpenBLAS, and on few cores the idle
pool's spinning threads slow the busy one, so ARPACK's products, the
residuals, the lift and the factorisation all call SciPy's symmetric BLAS
and LAPACK routines on the lower triangle of the whitened matrix; NumPy
does only elementwise work there.

This is the package's one SciPy user, and it loads SciPy lazily, inside the
two solvers that need it: the certified Lanczos solve above, and
``_top_generalized``, the ridged generalized eigensolve of the linear
baselines (LDA, the LDA stage of CCA+LDA, MvDA), which calls LAPACK's
generalized symmetric driver through ``scipy.linalg.eigh``.

Tolerances are fixed module-wide: inputs are validated at 1e-10
(relative), results are certified at 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import check_matrix
from .errors import (
    NoConvergenceError,
    NonSymmetricError,
    OrderTooLargeError,
    SingularDegreeError,
    SingularMatrixError,
)

INPUT_TOL = 1e-10
RESULT_TOL = 1e-8
# Smallest order solved by Lanczos when fewer than all pairs are asked for.
# Measured on c16-style graph quotients with 2 vCPUs, 10 pairs, median of 5,
# each solver in its own warm process: certified Lanczos overtakes the dense
# solve between orders 334 and 412, takes 0.045 s against 0.163 s at 1038,
# and 0.24 s against 2.4 s at 2661. Below 1000 it saves at most about 0.1 s,
# which the slower NumPy BLAS calls after SciPy's BLAS threads wake give
# back (about 0.08 s per pipeline pass). A fresh process also pays
# 0.2-0.33 s to import SciPy at its first Lanczos solve: a fresh
# `train-mhon` on 1038 cells took 0.83 s through Lanczos against 0.58 s
# through the dense solve.
LANCZOS_MIN_ORDER = 1000
# Rows or columns per block where m×m work is done in pieces, here and in
# the graph's cell weights.
_BLOCK = 512
# Ridge of the baselines' scatter denominator, relative to its mean diagonal.
SCATTER_REG = 1e-6
# Largest order of an eigenproblem the package solves. OpenBLAS 0.3.31's
# threaded Cholesky (`dpotrf`, which certifies every Lanczos solve) dies
# with a segmentation fault at large order. On an m×m Fortran-ordered SPD
# matrix with 2 OpenBLAS threads, SciPy's `dpotrf` passed at m = 12,000 to
# 15,500 and faulted at 16,000 and 17,099; on one thread it passed at
# 16,000, and a larger stack limit did not help. NumPy's own ILP64 build
# (`np.linalg.cholesky`) faulted at 16,000 too. The order at which it faults
# depends on the OpenBLAS build and its thread count, so the limit stays
# below the smallest order seen to fault.
MAX_ORDER = 15_000


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues in ascending order with column-aligned eigenvectors.

    ``vectors[:, j]`` belongs to ``values[j]``. ``solver`` names the path
    that produced them, ``"dense"`` or ``"lanczos"``.
    """

    values: np.ndarray
    vectors: np.ndarray
    solver: str


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


def check_order(m: int) -> None:
    """Raise ``OrderTooLargeError`` if an m×m eigenproblem exceeds
    ``MAX_ORDER``; it costs one comparison, so callers run it before they
    build any m×m array."""
    if m > MAX_ORDER:
        raise OrderTooLargeError(
            f"eigenproblem order m = {m} exceeds the limit {MAX_ORDER}: OpenBLAS's "
            "threaded Cholesky, which certifies the solve, crashed from order 16,000; "
            "fit fewer samples"
        )


def generalized_eig_diag(l, d, count: int | None = None) -> EigenResult:
    """Solve ``L y = lambda D y`` for symmetric ``L`` and positive diagonal ``D``.

    ``d`` is the diagonal as a 1-D vector. The problem is whitened to
    ``D^{-1/2} L D^{-1/2}``, which stays exactly symmetric when ``l`` is.
    This is the package's one symmetry rule: the whitened matrix must be
    symmetric within 1e-10 relative to its own largest entry, and where it
    is not exactly symmetric it is averaged with its transpose, so
    roundoff-level asymmetry of the input cannot leak into the result. The
    eigenvectors are mapped back so that ``Y^T D Y = I``.

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
    OrderTooLargeError
        If the order exceeds ``MAX_ORDER`` (:func:`check_order`).
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
    check_order(m)
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
    found = None
    if count is not None and count < m and m >= LANCZOS_MIN_ORDER:
        found = _certified_lanczos(white, count, np.sqrt(dv), scale)
    solver = "dense" if found is None else "lanczos"
    if found is None:
        try:
            found = np.linalg.eigh(white)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NoConvergenceError(f"eigendecomposition failed: {exc}") from exc
    values, vectors = found
    # Both solvers end here: map back, then apply the sign convention once.
    vectors *= inv_sqrt[:, None]
    vectors *= _lead_signs(vectors)
    return EigenResult(values, vectors, solver)


def _whiten(lm: np.ndarray, inv_sqrt: np.ndarray) -> tuple[np.ndarray, float]:
    """``lm`` overwritten by ``D^{-1/2} L D^{-1/2}``, and the largest
    magnitude of that matrix.

    Entry (i, j) is multiplied by ``inv_sqrt[i] * inv_sqrt[j]``, one product
    whatever the order of i and j, so a symmetric ``lm`` stays exactly
    symmetric and the check in ``_symmetrize`` only reads it. The products
    are made a ``_BLOCK``-row piece at a time, no larger than the pieces the
    quotient is built in.
    """
    for i in range(0, lm.shape[0], _BLOCK):
        lm[i : i + _BLOCK] *= np.multiply.outer(inv_sqrt[i : i + _BLOCK], inv_sqrt)
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
    """The largest ``|a - a^T|`` of square ``a``, with ``a`` made symmetric.

    Block pairs are compared first and left untouched when their two
    triangles are equal, so an exactly symmetric ``a`` is only read. A pair
    that differs is set to ``(upper + lower) / 2``; float addition commutes,
    so the result is exactly symmetric and equals ``0.5 * (a + a.T)`` bit
    for bit.
    """
    n = a.shape[0]
    asym = 0.0
    for i in range(0, n, _BLOCK):
        for j in range(i, n, _BLOCK):
            upper = a[i : i + _BLOCK, j : j + _BLOCK]
            lower = a[j : j + _BLOCK, i : i + _BLOCK].T
            if np.array_equal(upper, lower):
                continue
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
    ``S = W - sigma I + R R^T`` with ``R = V diag(sqrt(c))`` and
    ``c > sigma - lambda`` lifts the found pairs above zero. A
    rank-``count`` update removes at most ``count`` negative eigenvalues, so
    if ``S`` is positive definite (its Cholesky factorisation succeeds),
    ``W`` has at most ``count`` eigenvalues below ``sigma``; the residual
    bound puts ``count`` of them within ``tol`` of the found values. Every
    eigenvalue left out is then at least ``sigma``.

    Every product with ``white`` goes through SciPy's symmetric BLAS
    kernels on the Fortran-ordered view ``white.T``, which they read
    without a copy: ``dsymv`` for ARPACK's steps, ``dsymm`` for the
    residuals, and one ``dsyrk`` that adds ``R R^T`` to the triangle that
    ``dpotrf`` then factors, the lower triangle of ``white``. So the solve
    runs on SciPy's BLAS threads alone, and NumPy's work here is elementwise.
    When the certificate holds, ``white`` is left holding the factor; when
    it fails, the lower triangle is copied back from the untouched upper one
    and the diagonal restored, so ``white`` holds W again, bit for bit, for
    the dense solve that follows.
    """
    # Imported here: loading SciPy's sparse and dense linear algebra takes
    # about 0.33 s on 2 vCPUs, which only a process that solves a quotient
    # of order LANCZOS_MIN_ORDER or more pays.
    from scipy.linalg.blas import dnrm2, dsymm, dsymv, dsyrk
    from scipy.linalg.lapack import dpotrf
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    # The upper triangle of ``upper`` is the lower triangle of ``white``.
    upper = white.T
    operator = LinearOperator(
        white.shape, matvec=lambda x: dsymv(1.0, upper, x), dtype=np.float64
    )
    try:
        values, vectors = eigsh(
            operator, k=count, which="SA", tol=0, v0=root_d / np.linalg.norm(root_d)
        )
    except ArpackError:
        return None
    order = np.argsort(values)
    values, vectors = values[order], vectors[:, order]
    tol = RESULT_TOL * scale
    residual = dsymm(1.0, upper, vectors)
    residual -= vectors * values
    # V^T V in the upper triangle; the lower one is zero.
    gram = dsyrk(1.0, vectors, trans=1)
    np.fill_diagonal(gram, np.diagonal(gram) - 1.0)
    # Written so that a NaN anywhere fails the check.
    if not (dnrm2(residual.ravel(order="K")) <= tol and np.abs(gram).max() <= RESULT_TOL):
        return None
    sigma = values[-1] + 2.0 * max(tol, RESULT_TOL)
    lift = vectors * np.sqrt(sigma - values + max(scale, 1.0))
    diagonal = np.diagonal(white).copy()
    white[np.diag_indices_from(white)] -= sigma
    shifted = dsyrk(1.0, lift, beta=1.0, c=upper, overwrite_c=True)
    _, info = dpotrf(shifted, lower=False, clean=False, overwrite_a=True)
    if info == 0:
        return values, vectors
    for i in range(1, white.shape[0]):
        white[i, :i] = white[:i, i]
    white[np.diag_indices_from(white)] = diagonal
    return None


def _top_generalized(numer: np.ndarray, denom: np.ndarray, dim: int) -> np.ndarray:
    """The ``dim`` leading directions of ``numer w = lambda denom w``,
    unit-norm and sign-fixed, for symmetric ``numer`` and ``denom``.

    ``denom`` gets a ridge of ``SCATTER_REG`` times its mean diagonal, so
    rank deficiency cannot break the solve. LAPACK's generalized symmetric
    driver reads one triangle of each matrix, and both are symmetric as the
    baselines build them. Eigenvalues come back ascending, so the columns are
    sliced from the top.

    Raises
    ------
    NoConvergenceError
        If LAPACK reports the generalized eigensolve failed.
    """
    d = denom.shape[0]
    reg = SCATTER_REG * np.trace(denom) / d
    denom_reg = denom + reg * np.eye(d)
    # Imported here, so that only the commands that fit a baseline pay the
    # 0.3 s that loading SciPy takes.
    import scipy.linalg

    try:
        _, vecs = scipy.linalg.eigh(numer, denom_reg)
    except scipy.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"generalized eigensolve failed: {exc}") from exc
    w = vecs[:, ::-1][:, :dim]
    norms = np.linalg.norm(w, axis=0)
    norms[norms == 0] = 1.0
    return _fix_signs(w / norms)


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
        Unless ``h`` and ``t`` (as a column when a vector) pass
        :func:`~mvle.dataset.check_matrix` on the fit side with equal row
        counts, and unless ``lam > 0``; a NaN ``lam`` is rejected too.
    SingularMatrixError
        If LAPACK finds the regularized system singular.
    """
    hm = check_matrix(h, "h")
    tv = np.asarray(t, dtype=np.float64)
    single = tv.ndim == 1
    tm = check_matrix(tv[:, None] if single else tv, "t")
    if tm.shape[0] != hm.shape[0]:
        raise ValueError(
            f"h has {hm.shape[0]} rows but t has {tm.shape[0]}"
        )
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    n, p = hm.shape
    dual = n < p
    gram = hm @ hm.T if dual else hm.T @ hm
    gram[np.diag_indices_from(gram)] += lam
    rhs = tm if dual else hm.T @ tm
    try:
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"normal equations are singular: {exc}") from exc
    if dual:
        beta = hm.T @ beta
    return beta[:, 0] if single else beta
