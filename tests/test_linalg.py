"""Dense symmetric kernel tests.

Derived-value checks go through independent oracles (explicit
reconstruction, a nonsymmetric dense solve, finite differences) rather
than re-calling the code under test.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import mvle.linalg
from mvle.errors import NonSymmetricError, OrderTooLargeError, SingularDegreeError
from mvle.linalg import (
    LANCZOS_MIN_ORDER,
    _FACTOR_BLOCK,
    _cholesky_lower,
    _fix_signs,
    generalized_eig_diag,
    ridge_solve,
)


def unit_metric_eig(a):
    """The standard symmetric eigenproblem: ``generalized_eig_diag`` with D = I."""
    a = np.asarray(a)
    return generalized_eig_diag(a, np.ones(a.shape[0]))


def random_symmetric(rng, n):
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2.0


def random_laplacian(rng, n):
    # Random connected-ish weighted graph Laplacian: PSD with D_ii > 0.
    w = rng.uniform(0.0, 1.0, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    d = w.sum(axis=1)
    return np.diag(d) - w, d


def assert_stationary(h, t, lam, b):
    # Oracle: central finite differences of the ridge objective vanish at b.
    t2 = t.reshape(t.shape[0], -1)
    b2 = b.reshape(h.shape[1], -1)

    def objective(mat):
        return np.sum((h @ mat - t2) ** 2) + lam * np.sum(mat**2)

    eps = 1e-6
    scale = max(1.0, abs(objective(b2)))
    for i in range(b2.shape[0]):
        for j in range(b2.shape[1]):
            plus = b2.copy()
            plus[i, j] += eps
            minus = b2.copy()
            minus[i, j] -= eps
            grad = (objective(plus) - objective(minus)) / (2.0 * eps)
            assert abs(grad) < 1e-8 * scale


class TestSymEig:
    def test_identity_eigenvalues(self):
        res = unit_metric_eig(np.eye(3))
        assert np.allclose(res.values, [1.0, 1.0, 1.0], atol=1e-12)

    def test_two_by_two_closed_form(self):
        res = unit_metric_eig(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(res.values, [0.0, 2.0], atol=1e-12)
        v0 = res.vectors[:, 0]
        v1 = res.vectors[:, 1]
        assert abs(abs(v0 @ np.array([1.0, 1.0]) / np.sqrt(2.0)) - 1.0) < 1e-12
        assert abs(abs(v1 @ np.array([1.0, -1.0]) / np.sqrt(2.0)) - 1.0) < 1e-12

    def test_reconstruction_oracle(self):
        # Oracle: rebuild A from the spectral factorization entry by entry.
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_symmetric(rng, 10)
            res = unit_metric_eig(a)
            rebuilt = res.vectors @ np.diag(res.values) @ res.vectors.T
            assert np.max(np.abs(rebuilt - a)) < 1e-8

    def test_eigen_residual_and_orthonormality(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = random_symmetric(rng, 8)
            res = unit_metric_eig(a)
            scale = np.max(np.abs(a)) + 1.0
            for j in range(8):
                resid = a @ res.vectors[:, j] - res.values[j] * res.vectors[:, j]
                assert np.max(np.abs(resid)) < 1e-8 * scale
            gram = res.vectors.T @ res.vectors
            assert np.max(np.abs(gram - np.eye(8))) < 1e-8

    def test_values_ascending(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            res = unit_metric_eig(random_symmetric(rng, 9))
            assert np.all(np.diff(res.values) >= -1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            a = random_symmetric(rng, 7)
            res = unit_metric_eig(a)
            scale = max(abs(np.trace(a)), 1.0)
            assert abs(res.values.sum() - np.trace(a)) < 1e-8 * scale

    def test_one_ulp_asymmetry_tolerated(self, monkeypatch):
        # Within the tolerance, the input is replaced by its average with its
        # transpose: the dense solve returns that matrix's bits.
        a = random_symmetric(np.random.default_rng(15), 6)
        a[0, 1] += 1e-13
        res = unit_metric_eig(a.copy())
        assert res.values.shape == (6,)
        values, vectors = np.linalg.eigh(0.5 * (a + a.T))
        assert np.array_equal(res.values, values)
        assert np.array_equal(res.vectors, _fix_signs(vectors))
        # Lanczos solves the averaged matrix too, and a failed certificate
        # restores it for the dense solve that follows.
        n, count = LANCZOS_MIN_ORDER, 4
        a, _ = sparse_laplacian(np.random.default_rng(16), n)
        a[0, 1] += 1e-13
        values, vectors = np.linalg.eigh(0.5 * (a + a.T))
        got = generalized_eig_diag(a.copy(), np.ones(n), count=count)
        assert got.solver == "lanczos"
        assert np.abs(got.values - values[:count]).max() < 1e-12
        assert np.abs(got.vectors - _fix_signs(vectors[:, :count])).max() < 1e-12

        def skipping_lanczos(white, count, start, scale):
            values, vectors = np.linalg.eigh(white)
            return values[1 : count + 1], vectors[:, 1 : count + 1]

        monkeypatch.setattr(mvle.linalg, "_lanczos", skipping_lanczos)
        got = generalized_eig_diag(a.copy(), np.ones(n), count=count)
        assert got.solver == "dense"
        assert np.array_equal(got.values, values)
        assert np.array_equal(got.vectors, _fix_signs(vectors))

    def test_nonsymmetric_rejected(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NonSymmetricError):
            unit_metric_eig(a)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            unit_metric_eig(np.zeros((2, 3)))

    def test_nonfinite_rejected(self):
        a = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError):
            unit_metric_eig(a)


class TestGeneralizedEigDiag:
    def test_order_beyond_the_limit_is_refused(self, monkeypatch):
        lap = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        monkeypatch.setattr(mvle.linalg, "MAX_ORDER", 3)
        assert generalized_eig_diag(lap.copy(), np.ones(3)).values.shape == (3,)
        monkeypatch.setattr(mvle.linalg, "MAX_ORDER", 2)
        refused = "^eigenproblem order m = 3 exceeds the limit 2: "
        with pytest.raises(OrderTooLargeError, match=refused):
            generalized_eig_diag(lap.copy(), np.ones(3))

    def test_identity_degree_reduces_to_sym_eig(self):
        res = generalized_eig_diag(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.ones(2))
        assert np.allclose(res.values, [0.0, 2.0], atol=1e-12)

    def test_scaling_identity(self):
        lap = np.array([[2.0, -2.0], [-2.0, 2.0]])
        res = generalized_eig_diag(lap, np.array([2.0, 2.0]))
        assert np.allclose(res.values, [0.0, 2.0], atol=1e-12)
        v0 = res.vectors[:, 0]
        assert abs(v0[0] - v0[1]) < 1e-12

    def test_brute_force_oracle(self):
        # Oracle: dense nonsymmetric eig of D^-1 L, a different math route
        # from the whitening used inside generalized_eig_diag.
        rng = np.random.default_rng(21)
        for _ in range(15):
            lap, d = random_laplacian(rng, 15)
            res = generalized_eig_diag(lap.copy(), d)
            brute = np.sort(np.linalg.eig(np.diag(1.0 / d) @ lap)[0].real)
            assert np.max(np.abs(res.values - brute)) < 1e-8

    def test_d_orthonormality(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            lap, d = random_laplacian(rng, 12)
            res = generalized_eig_diag(lap, d)
            gram = res.vectors.T @ np.diag(d) @ res.vectors
            assert np.max(np.abs(gram - np.eye(12))) < 1e-8

    def test_generalized_residual(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            lap, d = random_laplacian(rng, 10)
            res = generalized_eig_diag(lap.copy(), d)
            scale = np.max(np.abs(lap)) + 1.0
            for j in range(10):
                resid = lap @ res.vectors[:, j] - res.values[j] * (d * res.vectors[:, j])
                assert np.max(np.abs(resid)) < 1e-8 * scale

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 2)])
    def test_nonfinite_l_rejected(self, bad, where):
        lap, d = random_laplacian(np.random.default_rng(24), 4)
        lap[where] = lap[where[::-1]] = bad
        with pytest.raises(ValueError):
            generalized_eig_diag(lap, d)

    def test_nonpositive_degree_rejected(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(SingularDegreeError):
            generalized_eig_diag(lap, np.array([1.0, 0.0]))
        with pytest.raises(SingularDegreeError):
            generalized_eig_diag(lap, np.array([1.0, -2.0]))


def sparse_laplacian(rng, n, components=1):
    """Laplacian and degrees of a random weighted graph on ``n`` nodes: each
    of ``components`` contiguous blocks is a ring plus about four random
    chords per node, so it is connected and every degree is positive."""
    w = np.zeros((n, n))
    for block in np.array_split(np.arange(n), components):
        ring = np.roll(block, 1)
        w[block, ring] = rng.uniform(0.1, 1.0, size=block.size)
        for _ in range(2):
            w[block, rng.permutation(block)] += rng.uniform(0.0, 1.0, size=block.size)
    np.fill_diagonal(w, 0.0)
    w = w + w.T
    d = w.sum(axis=1)
    return np.diag(d) - w, d


def unit_projector(vectors, d):
    """The spectral projector of D-orthonormal ``vectors`` at unit scale."""
    unit = np.sqrt(d)[:, None] * vectors
    return unit @ unit.T


class TestCertifiedLanczos:
    # Blocks of the full spectrum are cut where neighbours differ by more than
    # this; each block's projector is then fixed to about eps / GAP.
    GAP = 1e-4

    # No shrinking: a shrunk seed draws no simpler graph, and shrinking a
    # failure at this size took minutes and 2.6 GB before pytest ran out of
    # memory formatting it.
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        phases=[Phase.explicit, Phase.reuse, Phase.generate],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        extra=st.integers(0, 200),
        count=st.integers(1, 12),
        dense_weights=st.booleans(),
    )
    def test_matches_full_solve(self, seed, extra, count, dense_weights):
        rng = np.random.default_rng(seed)
        n = LANCZOS_MIN_ORDER + extra
        lap, d = random_laplacian(rng, n) if dense_weights else sparse_laplacian(rng, n)
        got = generalized_eig_diag(lap.copy(), d, count=count)
        want = generalized_eig_diag(lap, d)
        assert got.solver == "lanczos" and want.solver == "dense"
        assert got.values.shape == (count,) and got.vectors.shape == (n, count)
        assert np.abs(got.values - want.values[:count]).max() < 1e-10
        bounds = np.concatenate([[0], np.flatnonzero(np.diff(want.values) > self.GAP) + 1])
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi > count:
                break
            err = unit_projector(got.vectors[:, lo:hi], d) - unit_projector(want.vectors[:, lo:hi], d)
            assert np.abs(err).max() < 1e-10, (lo, hi)
        # The sign convention holds on the Lanczos columns too.
        lead = np.argmax(np.abs(got.vectors), axis=0)
        assert np.all(got.vectors[lead, np.arange(count)] > 0.0)

    def test_below_threshold_stays_dense(self):
        lap, d = sparse_laplacian(np.random.default_rng(41), LANCZOS_MIN_ORDER - 1)
        got = generalized_eig_diag(lap.copy(), d, count=5)
        want = generalized_eig_diag(lap, d)
        assert got.solver == "dense"
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.vectors, want.vectors)

    def assert_falls_back(self, lap, d, count):
        got = generalized_eig_diag(lap.copy(), d, count=count)
        want = generalized_eig_diag(lap.copy(), d)
        assert got.solver == "dense"
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.vectors, want.vectors)

    def test_skipped_lowest_pair_rejected(self, monkeypatch):
        # Pairs 2..k+1 are exact eigenpairs with tiny residuals; only the
        # completeness check can see that the lowest one is missing.
        def skipping_lanczos(white, count, start, scale):
            values, vectors = np.linalg.eigh(white)
            return values[1 : count + 1], vectors[:, 1 : count + 1]

        monkeypatch.setattr(mvle.linalg, "_lanczos", skipping_lanczos)
        lap, d = sparse_laplacian(np.random.default_rng(42), LANCZOS_MIN_ORDER)
        self.assert_falls_back(lap, d, 6)

    def test_inaccurate_pairs_rejected(self, monkeypatch):
        # The lowest pairs with their first two vectors rotated by 1e-4 rad:
        # still orthonormal and complete, but the residuals fail.
        def rotated_lanczos(white, count, start, scale):
            values, vectors = np.linalg.eigh(white)
            c, s = np.cos(1e-4), np.sin(1e-4)
            vectors = vectors[:, :count].copy()
            vectors[:, :2] = vectors[:, :2] @ np.array([[c, -s], [s, c]])
            return values[:count], vectors

        monkeypatch.setattr(mvle.linalg, "_lanczos", rotated_lanczos)
        lap, d = sparse_laplacian(np.random.default_rng(46), LANCZOS_MIN_ORDER)
        self.assert_falls_back(lap, d, 5)

    def test_repeated_pair_rejected(self, monkeypatch):
        # The lowest pair twice, then the next ones: every residual is tiny
        # and the lift covers every eigenvalue below the cut, so only the
        # orthonormality check sees that one value is reported twice.
        def repeating_lanczos(white, count, start, scale):
            values, vectors = np.linalg.eigh(white)
            index = np.r_[0, 0 : count - 1]
            return values[index], vectors[:, index]

        monkeypatch.setattr(mvle.linalg, "_lanczos", repeating_lanczos)
        lap, d = sparse_laplacian(np.random.default_rng(48), LANCZOS_MIN_ORDER)
        self.assert_falls_back(lap, d, 5)

    @pytest.mark.parametrize("gap", [0.0, 1e-9])
    def test_tie_at_the_cut_falls_back(self, gap):
        # Eigenvalues 0.1, 0.2, 0.25, 0.3 and then 0.3 + gap: with four pairs
        # asked for, the fifth lies within the certificate's 2e-8 margin.
        rng = np.random.default_rng(47)
        n = LANCZOS_MIN_ORDER
        spectrum = np.concatenate([[0.1, 0.2, 0.25, 0.3, 0.3 + gap], np.linspace(1.0, 2.0, n - 5)])
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        a = (q * spectrum) @ q.T
        a = (a + a.T) / 2.0
        self.assert_falls_back(a, np.ones(n), 4)

    def test_more_components_than_count(self):
        # Four components give eigenvalue 0 four times; three pairs cannot
        # certify that nothing lies below the cut.
        lap, d = sparse_laplacian(np.random.default_rng(43), LANCZOS_MIN_ORDER, components=4)
        self.assert_falls_back(lap, d, 3)
        assert np.count_nonzero(generalized_eig_diag(lap, d).values < 1e-8) == 4

    def test_no_convergence_falls_back(self, monkeypatch):
        def failing_lanczos(white, count, start, scale):
            return None

        monkeypatch.setattr(mvle.linalg, "_lanczos", failing_lanczos)
        lap, d = sparse_laplacian(np.random.default_rng(44), LANCZOS_MIN_ORDER)
        self.assert_falls_back(lap, d, 4)

    def test_count_out_of_range_rejected(self):
        lap, d = random_laplacian(np.random.default_rng(45), 5)
        for count in (0, 6):
            with pytest.raises(ValueError):
                generalized_eig_diag(lap, d, count=count)


class TestCholeskyLower:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        order=st.sampled_from([1, 2, _FACTOR_BLOCK - 1, _FACTOR_BLOCK, _FACTOR_BLOCK + 1,
                               2 * _FACTOR_BLOCK, 2 * _FACTOR_BLOCK + 3])
        | st.integers(1, 2 * _FACTOR_BLOCK + 8),
        definite=st.booleans(),
    )
    def test_matches_numpy_and_leaves_the_upper_triangle(self, seed, order, definite):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(order, order)))
        spectrum = rng.uniform(0.5, 2.0, order)
        if not definite:
            spectrum[rng.integers(order)] = -0.1
        a = (q * spectrum) @ q.T
        # Unrelated values in the strict upper triangle: a factor that read
        # them would be wrong, and one that wrote them would change their bits.
        upper = np.triu(rng.normal(size=(order, order)), 1)
        work = np.tril(a) + upper
        assert _cholesky_lower(work) is definite
        assert np.array_equal(np.triu(work, 1).view(np.int64), upper.view(np.int64))
        if definite:
            want = np.linalg.cholesky(a)
            assert np.abs(np.tril(work) - want).max() <= 1e-12 * np.abs(want).max()


class TestRidgeSolve:
    def test_identity_design_lambda_one(self):
        t = np.random.default_rng(32).normal(size=(5, 2))
        b = ridge_solve(np.eye(5), t, 1.0)
        assert np.allclose(b, t / 2.0, atol=1e-10)

    def test_gradient_oracle(self):
        rng = np.random.default_rng(33)
        h = rng.normal(size=(20, 5))
        t = rng.normal(size=(20, 3))
        assert_stationary(h, t, 0.1, ridge_solve(h, t, 0.1))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 24),
        p=st.integers(1, 24),
        targets=st.sampled_from([None, 1, 3]),
        lam=st.floats(1e-3, 10.0),
    )
    def test_matches_primal_oracle_in_both_shapes(self, seed, n, p, targets, lam):
        # n < p takes the dual n×n system, n >= p the primal p×p one; both
        # must give the primal normal-equation solution.
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(n, p))
        t = rng.normal(size=n if targets is None else (n, targets))
        b = ridge_solve(h, t, lam)
        oracle = np.linalg.solve(h.T @ h + lam * np.eye(p), h.T @ t)
        assert b.shape == oracle.shape
        assert np.abs(b - oracle).max() <= 1e-9 * max(1.0, np.abs(oracle).max())
        assert_stationary(h, t, lam, b)

    def test_solution_is_local_minimum(self):
        rng = np.random.default_rng(34)
        h = rng.normal(size=(15, 4))
        t = rng.normal(size=(15, 2))
        b = ridge_solve(h, t, 0.5)
        base = np.sum((h @ b - t) ** 2) + 0.5 * np.sum(b**2)
        for _ in range(100):
            pert = b + 1e-4 * rng.normal(size=b.shape)
            value = np.sum((h @ pert - t) ** 2) + 0.5 * np.sum(pert**2)
            assert base <= value + 1e-12

    def test_one_dim_target(self):
        rng = np.random.default_rng(35)
        h = rng.normal(size=(10, 3))
        t = rng.normal(size=10)
        b = ridge_solve(h, t, 0.2)
        assert b.shape == (3,)
        b2 = ridge_solve(h, t[:, None], 0.2)
        assert np.allclose(b, b2[:, 0], atol=1e-12)

    def test_rank_deficient_with_ridge_succeeds(self):
        h = np.ones((6, 3))
        t = np.ones((6, 2))
        b = ridge_solve(h, t, 1e-2)
        assert np.all(np.isfinite(b))

    def test_negative_lambda_rejected(self):
        for lam in (-1.0, 0.0, float("nan")):
            with pytest.raises(ValueError):
                ridge_solve(np.eye(2), np.eye(2), lam)


THREAD_TIMEOUT_VARS = ("OPENBLAS_THREAD_TIMEOUT", "GOTO_THREAD_TIMEOUT")


def run_fresh(script: str, **env_vars) -> dict:
    """Run ``script`` in a fresh interpreter whose environment has neither
    OpenBLAS timeout variable except as ``env_vars`` sets it; its last
    stdout line, read as JSON.

    The test process has loaded ``scipy.linalg`` already, so what happens
    when it is first loaded shows only in a new one.
    """
    src = os.path.dirname(os.path.dirname(mvle.linalg.__file__))
    env = {k: v for k, v in os.environ.items() if k not in THREAD_TIMEOUT_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(env_vars)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestScipyThreadTimeout:
    """SciPy's OpenBLAS is loaded with a short thread timeout, and the
    environment is left as it was."""

    @pytest.mark.parametrize("user", [
        {}, {"OPENBLAS_THREAD_TIMEOUT": "28"}, {"GOTO_THREAD_TIMEOUT": "28"},
    ])
    def test_set_for_the_first_import_only(self, user):
        seen = run_fresh(
            "import importlib.abc, json, os, sys\n"
            f"VARS = {THREAD_TIMEOUT_VARS!r}\n"
            "seen = []\n"
            "class Probe(importlib.abc.MetaPathFinder):\n"
            "    def find_spec(self, name, path, target=None):\n"
            "        if name == 'scipy.linalg' and not seen:\n"
            "            seen.append({v: os.environ.get(v) for v in VARS})\n"
            "sys.meta_path.insert(0, Probe())\n"
            "from mvle.baselines import mvda_fit\n"
            "from mvle.dataset import SyntheticSpec, gen_synthetic\n"
            "ds = gen_synthetic(SyntheticSpec(samples_per_class=8))\n"
            "before = dict(os.environ)\n"
            "mvda_fit(ds, 2)\n"
            "print(json.dumps({'seen': seen, 'restored': dict(os.environ) == before}))\n",
            **user,
        )
        want = dict.fromkeys(THREAD_TIMEOUT_VARS)
        want.update(user or {"OPENBLAS_THREAD_TIMEOUT": "4"})
        assert seen == {"seen": [want], "restored": True}

    def test_workers_sleep_after_a_solve(self):
        # With OpenBLAS's default timeout, SciPy's workers spun through
        # 0.13 s of this sleep on 2 threads; on one thread there are none.
        cpu = run_fresh(
            "import json, time\n"
            "import numpy as np\n"
            "from mvle.linalg import _top_generalized\n"
            "rng = np.random.default_rng(0)\n"
            "a, b = rng.normal(size=(35, 35)), rng.normal(size=(35, 70))\n"
            "_top_generalized(a @ a.T, b @ b.T, 4)\n"
            "start = time.process_time()\n"
            "time.sleep(0.3)\n"
            "print(json.dumps(time.process_time() - start))\n"
        )
        assert cpu < 0.02
