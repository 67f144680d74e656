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
order is at least ``LANCZOS_MIN_ORDER``, they come from Lanczos iteration
with full reorthogonalisation and a fixed start vector, and are certified
before use: every residual must be small, and a Cholesky factorisation of
the shifted, deflated matrix must prove that no eigenvalue below the cut was
skipped. If Lanczos does not converge or either check fails, the full solve
runs instead, so no uncertified pair is ever returned.

That solve runs on NumPy alone, on NumPy's one BLAS thread pool. SciPy
loads its own OpenBLAS, about 30 MB of memory and a second pool whose
spinning threads slow NumPy's on few cores, so the products with the
whitened matrix, the residuals, the lift and a blocked Cholesky factor are
all NumPy calls.

The package's one SciPy user is ``_top_generalized``, the ridged generalized
eigensolve of the linear baselines (LDA, the LDA stage of CCA+LDA, MvDA),
which calls LAPACK's generalized symmetric driver through
``scipy.linalg.eigh`` and imports SciPy inside its body, so only
``benchmark`` loads it. SciPy's OpenBLAS keeps a thread pool of its own,
whose workers by default busy-wait about 2^28 cycles after every call: on 2
vCPUs they burned 0.13 s of CPU in a 0.3 s sleep after one order-35 solve,
time taken from NumPy's ridge solves beside them. That OpenBLAS reads
``OPENBLAS_THREAD_TIMEOUT`` once, when it is loaded, so the first import
sets it to 4 (workers sleep after 2^4 cycles) for the import alone, unless
the user has set it or ``GOTO_THREAD_TIMEOUT``. NumPy's OpenBLAS, loaded
before, keeps its own timeout, and no routine, input or thread count
changes.

Tolerances are fixed module-wide: inputs are validated at 1e-10
(relative), results are certified at 1e-8.
"""

from __future__ import annotations

import os
import sys
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
# Measured on c16-style graph quotients with 2 vCPUs, 10 pairs, median of 5.
# Warm, both solvers in one process, certified Lanczos ties the dense solve
# near order 290 (0.013 s against 0.012 s) and wins above it: 0.019 s
# against 0.029 s at 435, 0.08 against 0.26 s at 1045 and 0.39 against
# 2.5 s at 2661. Fresh, a whole `train-mhon` process took 0.41 s either way
# at 435 cells and 0.53 s against 0.70 s at 1045. So the cut could be lower;
# it stays at 1000, which keeps the pipeline-c4 benchmark (about 520 cells)
# on the dense path its reference outputs were recorded with.
LANCZOS_MIN_ORDER = 1000
# Rows or columns per block where m×m work is done in pieces, here and in
# the graph's cell weights.
_BLOCK = 512
# Ridge of the baselines' scatter denominator, relative to its mean diagonal.
SCATTER_REG = 1e-6
# Largest order of an eigenproblem the package solves. It was set from
# OpenBLAS 0.3.31's threaded Cholesky (`dpotrf`, which certified every
# Lanczos solve before the blocked factor `_cholesky_lower`): on an m×m SPD
# matrix with 2 OpenBLAS threads, SciPy's `dpotrf` passed at m = 12,000 to
# 15,500 and died with a segmentation fault at 16,000 and 17,099, and
# NumPy's `np.linalg.cholesky` faulted at 16,000 too. The blocked factor
# calls LAPACK only at block order, but its GEMMs run to order m and it has
# not been run above 15,000, so the limit stays.
MAX_ORDER = 15_000
# Columns per block of the certificate's Cholesky factor.
_FACTOR_BLOCK = 256
# Lanczos: Ritz residual, relative to the largest entry of the matrix, at
# which a pair counts as converged; steps between convergence checks; and
# the most steps taken beyond twice the pairs asked for, which bounds the
# basis.
_RITZ_TOL = 1e-14
_CHECK_STEPS = 10
_LANCZOS_STEPS = 500
# SciPy's OpenBLAS: log2 of the cycles a worker waits for work before it
# sleeps, and the variables through which a user sets that wait.
_SCIPY_THREAD_TIMEOUT = "4"
_THREAD_TIMEOUT_VARS = frozenset({"OPENBLAS_THREAD_TIMEOUT", "GOTO_THREAD_TIMEOUT"})


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
            f"eigenproblem order m = {m} exceeds the limit {MAX_ORDER}: the Cholesky "
            "factor that certifies the solve has been run only up to that order "
            "(OpenBLAS's threaded Cholesky crashed from order 16,000); fit fewer samples"
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
    """The ``count`` lowest eigenpairs of symmetric ``white`` by Lanczos
    iteration (:func:`_lanczos`), or ``None`` unless both certificates hold.

    Accuracy: the residuals ``W V - V diag(lambda)`` have Frobenius norm at
    most ``tol = RESULT_TOL * scale`` and ``V^T V = I`` within RESULT_TOL.
    Completeness: with ``sigma = lambda_count + 2 max(tol, RESULT_TOL)``,
    ``S = W - sigma I + R R^T`` with ``R = V diag(sqrt(c))`` and
    ``c > sigma - lambda`` lifts the found pairs above zero. A
    rank-``count`` update removes at most ``count`` negative eigenvalues, so
    if ``S`` is positive definite (its Cholesky factorisation,
    :func:`_cholesky_lower`, succeeds), ``W`` has at most ``count``
    eigenvalues below ``sigma``; the residual bound puts ``count`` of them
    within ``tol`` of the found values. Every eigenvalue left out is then at
    least ``sigma``, up to the factor's rounding (see :func:`_cholesky_lower`).

    The start vector is ``root_d``, normalised: ``D^{1/2} 1`` is a null
    vector of a whitened graph Laplacian. Everything runs on NumPy. The shift
    and the lift are written to the lower triangle of ``white`` only, and
    the factor overwrites that triangle. When the certificate holds,
    ``white`` is left holding the factor; when it fails, the lower triangle
    is copied back from the untouched upper one and the diagonal restored,
    so ``white`` holds W again, bit for bit, for the dense solve that
    follows.
    """
    found = _lanczos(white, count, root_d / np.linalg.norm(root_d), scale)
    if found is None:
        return None
    values, vectors = found
    tol = RESULT_TOL * scale
    residual = white @ vectors
    residual -= vectors * values
    gram = vectors.T @ vectors
    np.fill_diagonal(gram, np.diagonal(gram) - 1.0)
    # Written so that a NaN anywhere fails the check.
    if not (np.linalg.norm(residual) <= tol and np.abs(gram).max() <= RESULT_TOL):
        return None
    sigma = values[-1] + 2.0 * max(tol, RESULT_TOL)
    lift = vectors * np.sqrt(sigma - values + max(scale, 1.0))
    diagonal = np.diagonal(white).copy()
    white[np.diag_indices_from(white)] -= sigma
    m = white.shape[0]
    for i in range(0, m, _FACTOR_BLOCK):
        rows = lift[i : i + _FACTOR_BLOCK]
        white[i : i + _FACTOR_BLOCK, :i] += rows @ lift[:i].T
        block = white[i : i + _FACTOR_BLOCK, i : i + _FACTOR_BLOCK]
        np.add(block, rows @ rows.T, out=block, where=np.tri(len(rows), dtype=bool))
    if _cholesky_lower(white):
        return values, vectors
    for i in range(1, m):
        white[i, :i] = white[:i, i]
    white[np.diag_indices_from(white)] = diagonal
    return None


def _lanczos(
    white: np.ndarray, count: int, start: np.ndarray, scale: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``count`` lowest Ritz pairs of symmetric ``white``, values
    ascending, or ``None`` if they do not converge within
    ``_LANCZOS_STEPS + 2 * count`` steps.

    Lanczos with full reorthogonalisation (Parlett, *The Symmetric
    Eigenvalue Problem*): every new direction is orthogonalised twice
    against the whole basis, so no copy of a converged pair appears. The
    iteration starts at unit ``start``. When the basis spans an invariant
    subspace (the new direction's norm is at most ``_RITZ_TOL * scale``),
    it continues from a direction drawn from a fixed-seed generator and
    orthogonalised against the basis, so the result is repeatable. Every
    ``_CHECK_STEPS`` steps the tridiagonal projection is solved; the pairs
    count as converged when each of the lowest ``count`` Ritz residuals,
    ``beta * |last entry of the Ritz vector|``, is at most
    ``_RITZ_TOL * scale``.
    """
    m = white.shape[0]
    steps = min(m, _LANCZOS_STEPS + 2 * count)
    tol = _RITZ_TOL * scale
    basis = np.empty((steps, m))
    alpha = np.empty(steps)
    beta = np.zeros(steps)
    rng = np.random.default_rng(0)
    q = start
    for j in range(steps):
        basis[j] = q
        known = basis[: j + 1]
        w = white @ q
        alpha[j] = q @ w
        for _ in range(2):
            w -= known.T @ (known @ w)
        norm = np.linalg.norm(w)
        k = j + 1
        if k >= count and (k % _CHECK_STEPS == 0 or k == steps):
            theta, ritz = np.linalg.eigh(
                np.diag(alpha[:k]) + np.diag(beta[: k - 1], 1) + np.diag(beta[: k - 1], -1)
            )
            if np.all(norm * np.abs(ritz[-1, :count]) <= tol):
                return theta[:count], known.T @ ritz[:, :count]
        if norm > tol:
            beta[j] = norm
        else:
            w = rng.standard_normal(m)
            for _ in range(2):
                w -= known.T @ (known @ w)
            norm = np.linalg.norm(w)
        q = w / norm
    return None


def _cholesky_lower(a: np.ndarray) -> bool:
    """Overwrite the lower triangle of symmetric ``a`` with its Cholesky
    factor; ``False`` if ``a`` is not positive definite.

    Left-looking and blocked by ``_FACTOR_BLOCK``: each block column is
    updated by one GEMM with the columns already factored, its diagonal
    block factored by ``np.linalg.cholesky`` (whose ``LinAlgError`` is the
    failure), and the panel below it solved by one GEMM with the inverse of
    that factor. Only the lower triangle is read or written, and no array
    larger than a ``_FACTOR_BLOCK``-column panel is made, so the strict
    upper triangle stays bit for bit what it was, whatever the outcome.

    Rounding. When a Cholesky factorisation whose triangular solves are
    substitutions runs to completion, ``L L^T = A + dA`` with
    ``|dA| <= g |L| |L^T|``, ``g = (m + 1) u / (1 - (m + 1) u)``,
    ``u = 2^-53`` (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., ch. 10, Thm 10.3). As ``(|L| |L^T|)_ij <= sqrt(a_ii a_jj)`` to
    first order, ``||dA||_2 <= g tr(A)``, so success proves
    ``lambda_min(A) > -g tr(A)``, not ``> 0``. The panels here are solved by
    an explicit inverse, which has a weaker bound: a panel's residual is
    bounded through ``|P| |L_kk^-T| |L_kk^T|`` instead of ``|X| |L_kk^T|``,
    larger by up to the condition number of ``L_kk``, which is at most
    ``cond_2(A)^(1/2)``.

    In the certificate ``A = S``, whose diagonal is at most about 1 since
    W's is, so ``g tr(S)`` is about ``m^2 u``. It stays below the 2e-8
    margin up to m of about 13,500 when lambda_count is small: the margin
    does not cover the substitution bound for every m up to ``MAX_ORDER``,
    and it covers the explicit inverse's extra factor, which is not
    measured at run time, for no m a priori. Measured on c16-style
    quotients at m = 2661 and 9026: ``g tr(S)`` 6.4e-10 and 7.6e-9, the
    largest ``cond_2(L_kk)`` 2.7 and 2.0, and ``||L L^T - S||_2`` 1.2e-15
    and 1.5e-15.
    """
    m = a.shape[0]
    for k in range(0, m, _FACTOR_BLOCK):
        e = min(k + _FACTOR_BLOCK, m)
        done = a[k:, :k]
        block = a[k:e, k:e] - done[: e - k] @ done[: e - k].T
        try:
            factor = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            return False
        np.copyto(a[k:e, k:e], factor, where=np.tri(e - k, dtype=bool))
        if e < m:
            panel = a[e:, k:e]
            panel -= done[e - k :] @ done[: e - k].T
            panel[...] = panel @ np.linalg.inv(factor).T
    return True


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
    # 0.14-0.24 s that loading SciPy takes. Its OpenBLAS reads the thread
    # timeout when it is loaded (see the module docstring).
    if "scipy.linalg" not in sys.modules and not _THREAD_TIMEOUT_VARS & os.environ.keys():
        os.environ["OPENBLAS_THREAD_TIMEOUT"] = _SCIPY_THREAD_TIMEOUT
        try:
            import scipy.linalg
        finally:
            del os.environ["OPENBLAS_THREAD_TIMEOUT"]
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
