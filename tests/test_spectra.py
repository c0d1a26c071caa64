import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

from odnsparse import (
    DenseLimitExceededError,
    DimensionMismatchError,
    FactorizationError,
    InvalidEpsilonError,
    OdnMatrix,
    PairSpectra,
    adjacency_norm_check,
    center_diagonal,
    davis_kahan,
    decompose,
    effective_resistances,
    eigen_decompose,
    eigenvalue_deviation_bound,
    generate_odn,
    reconstruct,
    sparsify_laplacian,
    spectral_norm,
    spectral_report,
    validate_odn,
    verify_sparsifier,
    weyl_check,
)
from odnsparse import spectra as spectra_module

from conftest import random_odn, random_symmetric


class TestEigenDecompose:
    def test_identity(self):
        sys = eigen_decompose(np.eye(3))
        np.testing.assert_array_equal(sys.values, np.ones(3))
        np.testing.assert_allclose(sys.vectors.T @ sys.vectors, np.eye(3), atol=1e-12)
        defect = np.eye(3) @ sys.vectors - sys.vectors * sys.values
        assert np.linalg.norm(defect, axis=0).max() <= 1e-12

    def test_two_by_two_closed_form(self):
        # char poly of [[2,1],[1,2]]: (2-l)^2 = 1 -> l in {3, 1}
        sys = eigen_decompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(sys.values, [3.0, 1.0], rtol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(sys.vectors[:, 0], [s, s], rtol=1e-12)
        np.testing.assert_allclose(sys.vectors[:, 1], [s, -s], rtol=1e-12)

    def test_path_laplacian_values(self):
        lap = decompose(generate_odn("path", 3, weight=1.0)).laplacian_dense()
        np.testing.assert_allclose(
            eigen_decompose(lap).values, [3.0, 1.0, 0.0], atol=1e-12
        )

    def test_descending_and_sign_convention(self, rng):
        m = random_symmetric(rng, 12)
        sys = eigen_decompose(m)
        assert np.all(np.diff(sys.values) <= 1e-12)
        for col in sys.vectors.T:
            assert col[np.argmax(np.abs(col))] >= 0

    def test_top_k_dense(self, rng):
        m = random_symmetric(rng, 9)
        full = eigen_decompose(m)
        top = eigen_decompose(m, k=3)
        np.testing.assert_array_equal(top.values, full.values[:3])

    # The iterative solver, ARPACK (`_arpack`, which solves the top and
    # bottom blocks of `PairSpectra.live_vectors`), against the dense solve.
    def test_iterative_matches_dense(self, rng):
        for _ in range(5):
            m = random_odn(rng, 30, density=0.5)
            dense = eigen_decompose(m, k=4)
            operand = spectra_module._sparse(m)
            values, vectors = _arpack_top(operand, 4)
            np.testing.assert_allclose(values, dense.values, rtol=1e-6)
            rho = max(abs(dense.values[0]), 1.0)
            assert spectra_module._residuals(operand, values, vectors).max() <= 1e-7 * rho

    def test_iterative_handles_multiplicity(self):
        eq = generate_odn("equicorrelation", 20, correlation=0.5)
        values, _ = _arpack_top(spectra_module._sparse(eq), 3)
        np.testing.assert_allclose(values, [10.5, 0.5, 0.5], rtol=1e-9)

    def test_iterative_identity_breakdowns(self):
        values, _ = _arpack_top(sp.eye(6).tocsr(), 2)
        np.testing.assert_allclose(values, [1.0, 1.0], rtol=1e-12)

    @pytest.mark.parametrize(
        "model,kwargs",
        [
            ("complete", dict(n=24)),
            ("erdos-renyi", dict(n=40, density=0.3)),
            ("path", dict(n=30)),
            ("grid", dict(rows=5, cols=6)),
            ("equicorrelation", dict(n=20)),
        ],
    )
    def test_iterative_dense_agreement_per_model(self, model, kwargs):
        m = generate_odn(model, seed=77, diag=("uniform", 0.0, 1.0), **kwargs)
        dense = eigen_decompose(m.to_dense(), k=3)
        values, vectors = _arpack_top(spectra_module._sparse(m), 3)
        scale = max(1.0, np.abs(dense.values).max())
        assert np.all(np.abs(values - dense.values) <= 1e-6 * scale)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(3), atol=1e-8)


def _arpack_top(operand, k):
    """The top k eigenpairs of `operand` by `_arpack(which="LA")`, descending."""
    values, vectors = spectra_module._arpack(operand, k, "LA")
    order = np.argsort(values)[::-1]
    return values[order], vectors[:, order]


class TestSpectralNorm:
    def test_matches_dense(self, rng):
        m = random_symmetric(rng, 20)
        np.testing.assert_allclose(
            spectral_norm(m), np.abs(np.linalg.eigvalsh(m)).max(), rtol=1e-12
        )

    def test_iterative_path(self, rng):
        m = random_symmetric(rng, 40)
        exact = np.abs(np.linalg.eigvalsh(m)).max()
        np.testing.assert_allclose(spectral_norm(m, dense_limit=10), exact, rtol=1e-12)

    def test_zero(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_no_arpack_operand_above_dense_limit(self):
        # ARPACK fails on an operand with no nonzero entry and on n = 1.
        assert spectral_norm(sp.csr_matrix((50, 50)), dense_limit=10) == 0.0
        assert spectral_norm(np.array([[-2.0]]), dense_limit=0) == 2.0


@pytest.fixture
def scipy_pool():
    """(get, set) of scipy's bundled OpenBLAS pool, set to 2 threads for the
    test and put back afterwards; skipped where scipy has no such pool."""
    if spectra_module._SCIPY_BLAS is None:
        pytest.skip("scipy has no bundled OpenBLAS to hold")
    get_threads, set_threads, _ = spectra_module._SCIPY_BLAS
    prior = get_threads()
    set_threads(2)
    yield get_threads, set_threads
    set_threads(prior)


def _thread_reading_operator(get_threads, seen, fail=False):
    """A 20 x 20 diagonal LinearOperator whose matvec records the pool's
    thread count, and with `fail` raises ArpackNoConvergence from inside."""
    diagonal = np.arange(1.0, 21.0)

    def matvec(x):
        seen.append(get_threads())
        if fail:
            raise ArpackNoConvergence("gave up", np.zeros(0), np.zeros((20, 0)))
        return diagonal * np.ravel(x)

    return LinearOperator((20, 20), matvec=matvec, dtype=np.float64)


class TestArpackThreads:
    """`_arpack` and the grounded factor hold scipy's OpenBLAS to one thread
    during their scipy calls only."""

    def test_one_thread_inside_prior_count_after(self, scipy_pool):
        get_threads, _ = scipy_pool
        seen = []
        values, _ = spectra_module._arpack(_thread_reading_operator(get_threads, seen),
                                           k=2, which="LA")
        np.testing.assert_allclose(np.sort(values), [19.0, 20.0], rtol=1e-12)
        assert seen and set(seen) == {1}
        assert get_threads() == 2

    def test_prior_count_restored_after_no_convergence(self, scipy_pool):
        get_threads, _ = scipy_pool
        seen = []
        with pytest.raises(ArpackNoConvergence):
            spectra_module._arpack(_thread_reading_operator(get_threads, seen, fail=True),
                                   k=2, which="LA")
        assert seen == [1]
        assert get_threads() == 2

    def test_no_op_without_the_symbols(self, scipy_pool, monkeypatch):
        get_threads, _ = scipy_pool
        monkeypatch.setattr(spectra_module, "_SCIPY_BLAS", None)
        seen = []
        spectra_module._arpack(_thread_reading_operator(get_threads, seen), k=2, which="LA")
        assert seen and set(seen) == {2}
        assert get_threads() == 2

    def test_threads_restore_the_prior_count(self, scipy_pool):
        """Concurrent calls from more threads than cores leave the pool at the
        count found before the first one."""
        get_threads, _ = scipy_pool
        matrix = sp.diags(np.arange(1.0, 41.0)).tocsr()
        workers = [threading.Thread(target=lambda: [
            spectra_module._arpack(matrix, k=2, which="LA") for _ in range(5)])
            for _ in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
        assert get_threads() == 2

    @staticmethod
    def _recording(monkeypatch, get_threads, seen):
        """Wrap the scipy LAPACK and BLAS routines the factor and the pencil
        call so that each records the pool's thread count."""
        from types import SimpleNamespace

        def wrap(module, name):
            def call(*args, _routine=getattr(module, name), **kwargs):
                seen.append((name, get_threads()))
                return _routine(*args, **kwargs)

            return call

        for attr, names in (("lapack", ("dpotrf", "dtrtri", "dpbtrf", "dtbtrs")),
                            ("blas", ("dtrmm", "dsbmv", "dtbsv"))):
            module = getattr(spectra_module, attr)
            monkeypatch.setattr(spectra_module, attr, SimpleNamespace(
                **{name: wrap(module, name) for name in names}))

    def test_factor_and_pencil_run_on_one_thread(self, scipy_pool, monkeypatch):
        get_threads, _ = scipy_pool
        monkeypatch.setattr(spectra_module, "_BAND_SHARE", 0.0)  # the dense factor
        d = decompose(generate_odn("grid", rows=6, cols=6, seed=1))
        pair = PairSpectra(d, sparsify_laplacian(d, 0.3, seed=1))
        seen = []
        self._recording(monkeypatch, get_threads, seen)
        pair.pencil
        assert seen == [("dpotrf", 1), ("dtrtri", 1), ("dtrmm", 1), ("dtrmm", 1)]
        assert get_threads() == 2

    def test_band_factor_resistances_and_pencil_run_on_one_thread(self, scipy_pool,
                                                                  monkeypatch):
        """The band path: `dpbtrf`, one `dsbmv` per column but the last in the
        resistances, and the `dtbsv` pairs of the pencil's products, also those
        of the Ritz residuals outside ARPACK's own hold; then the dense
        fallback's two `dtbtrs`."""
        get_threads, _ = scipy_pool
        d = decompose(generate_odn("grid", rows=6, cols=6, seed=1))
        hat = sparsify_laplacian(d, 0.3, seed=1)
        seen = []
        self._recording(monkeypatch, get_threads, seen)
        pair = PairSpectra(d, hat)
        effective_resistances(pair)
        pair.pencil
        assert pair.paths["factor"] == "band kd=6" and pair.paths["pencil"] == "arpack"
        names = [name for name, _ in seen]
        assert names[:35] == ["dpbtrf"] + ["dsbmv"] * 34
        assert set(names[35:]) == {"dtbsv"} and len(names) % 2 == 1
        assert {threads for _, threads in seen} == {1}
        seen.clear()
        PairSpectra(d, hat).grounded_factor.reduced(hat.laplacian).toarray()
        assert seen == [("dpbtrf", 1), ("dtbtrs", 1), ("dtbtrs", 1)]
        assert get_threads() == 2

    def test_a_lone_worker_solve_uses_one_cpu(self, scipy_pool):
        """The band worker takes no hold, so its `dsbevd` runs with scipy's
        pool at 2 threads; values only, it still runs on one CPU: on a 60 x 60
        grid (kd = 60) process CPU time is at most 1.1 x wall time."""
        get_threads, _ = scipy_pool
        band = spectra_module._band(_grid(60, 60), 1 / 20)[1]
        worker = spectra_module._BandWorker(-1)
        try:
            wall, cpu = time.perf_counter(), time.process_time()
            worker.submit(band).result(timeout=120)
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        finally:
            worker.close()
            worker.thread.join(timeout=60)
        assert not worker.thread.is_alive()
        assert get_threads() == 2
        assert cpu <= 1.1 * wall, (cpu, wall)

    def test_prior_count_restored_after_a_failed_factor(self, scipy_pool, monkeypatch):
        get_threads, _ = scipy_pool
        seen = []
        self._recording(monkeypatch, get_threads, seen)
        # Rows sum to zero, but the weight -1 on (0, 2) makes it indefinite.
        lap = np.array([[0.0, 1.0, -1.0], [1.0, -2.0, 1.0], [-1.0, 1.0, 0.0]])
        with pytest.raises(FactorizationError, match="dpotrf failed at pivot 1 "):
            PairSpectra(lap).grounded_factor
        assert seen == [("dpotrf", 1)]
        assert get_threads() == 2

    def test_hold_is_reentrant(self, scipy_pool):
        """ARPACK called inside a held block neither waits on the hold forever
        nor leaves the pool at one thread."""
        get_threads, _ = scipy_pool
        matrix = sp.diags(np.arange(1.0, 41.0)).tocsr()

        def nested():
            with spectra_module._one_scipy_thread():
                spectra_module._arpack(matrix, k=2, which="LA")

        worker = threading.Thread(target=nested, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert get_threads() == 2

    def test_missing_symbols_find_no_pool(self):
        # A suffix that no bundled OpenBLAS uses, and a module that does not exist.
        assert spectra_module._openblas("numpy._core._multiarray_umath", "_no_such") is None
        assert spectra_module._openblas("odnsparse.no_such_module") is None


class TestWeyl:
    def test_identical(self, rng):
        m = random_symmetric(rng, 8)
        check = weyl_check(m, m)
        assert check.passed
        assert check.max_deviation == 0.0
        assert check.norm == 0.0

    def test_shift_equality_case(self, rng):
        m = random_symmetric(rng, 8)
        check = weyl_check(m, m + 0.7 * np.eye(8))
        assert check.passed
        np.testing.assert_allclose(check.max_deviation, 0.7, rtol=1e-12)
        np.testing.assert_allclose(check.norm, 0.7, rtol=1e-12)

    def test_random_pairs(self, rng):
        for _ in range(100):
            a = random_symmetric(rng, 30)
            b = random_symmetric(rng, 30)
            assert weyl_check(a, b).passed

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            weyl_check(np.eye(2), np.eye(3))


class TestAdjacencyNormCheck:
    def test_identical(self, rng):
        g = decompose(random_odn(rng, 10))
        check = adjacency_norm_check(g, g)
        assert check.passed
        assert check.lhs == 0.0

    def test_single_edge_closed_form(self):
        g = decompose(generate_odn("complete", 2, weight=1.0))
        h = decompose(generate_odn("complete", 2, weight=2.0))
        check = adjacency_norm_check(g, h)
        np.testing.assert_allclose(check.lhs, 1.0, rtol=1e-12)
        np.testing.assert_allclose(check.rhs, 2.0 * np.sqrt(2.0), rtol=1e-12)
        assert check.passed

    def test_random_pairs_including_disconnected(self, rng):
        for n in (5, 20, 50):
            for _ in range(34):
                g = decompose(random_odn(rng, n, density=float(rng.uniform(0.05, 0.9))))
                h = decompose(random_odn(rng, n, density=float(rng.uniform(0.05, 0.9))))
                assert adjacency_norm_check(g, h).passed


class TestLaplacianDiffNorm:
    """||L - L_hat|| <= eps * rho(L), the sparsifier inequality's corollary,
    read from the pair's roles: the high end of the difference's bracket
    against eps times rho(L)'s high end."""

    def test_identical(self):
        lap = decompose(generate_odn("complete", 6, weight=1.0)).laplacian
        assert PairSpectra(lap, lap).laplacian_diff_norm == (0.0, 0.0)

    def test_scaled_saturates(self):
        lap = decompose(generate_odn("complete", 6, weight=1.0)).laplacian_dense()
        eps = 0.25
        pair = PairSpectra(lap, (1 + eps) * lap)
        np.testing.assert_allclose(pair.laplacian_diff_norm[1], eps * pair.laplacian_norm,
                                   rtol=1e-12)

    def test_pipeline_k5(self):
        d = decompose(generate_odn("complete", 5, weight=1.0))
        res = sparsify_laplacian(d, 0.3, seed=7)
        pair = PairSpectra(d.laplacian, res.laplacian)
        assert verify_sparsifier(pair, epsilon=0.3).passed
        assert pair.laplacian_diff_norm[1] <= 0.3 * pair.laplacian_norm * (1 + 1e-9)


class TestDavisKahan:
    def test_identical_systems(self, rng):
        sys = eigen_decompose(random_symmetric(rng, 7))
        for angle in davis_kahan(sys, sys, 0.0):
            assert angle.sin_theta <= 1e-12
            assert angle.passed

    def test_two_by_two_family(self):
        a_sys = eigen_decompose(np.diag([2.0, 1.0]))
        for delta in (0.001, 0.01, 0.1):
            b = np.array([[2.0, delta], [delta, 1.0]])
            b_sys = eigen_decompose(b)
            r_norm = float(np.abs(np.linalg.eigvalsh(b - np.diag([2.0, 1.0]))).max())
            np.testing.assert_allclose(r_norm, delta, rtol=1e-12)
            angles = davis_kahan(a_sys, b_sys, r_norm)
            # exact rotation angle: tan(2 phi) = 2 delta / (2 - 1)
            phi = 0.5 * np.arctan2(2.0 * delta, 1.0)
            np.testing.assert_allclose(angles[0].sin_theta, np.sin(phi), atol=1e-6)
            assert angles[0].passed
            assert angles[0].sin_theta <= angles[0].bound

    def test_degenerate_gap_undefined(self):
        sys_a = eigen_decompose(np.eye(3))
        sys_b = eigen_decompose(np.eye(3) * (1 + 1e-12))
        for angle in davis_kahan(sys_a, sys_b, 1e-12):
            assert angle.bound is None
            assert angle.passed

    def test_vacuous_bound_passes(self):
        a_sys = eigen_decompose(np.diag([1.0, 0.9]))
        b_sys = eigen_decompose(np.array([[0.95, 0.3], [0.3, 0.95]]))
        angles = davis_kahan(a_sys, b_sys, 5.0)
        assert all(a.passed for a in angles if a.bound is not None and a.bound >= 1)

    def test_mismatch(self, rng):
        a = eigen_decompose(random_symmetric(rng, 3))
        b = eigen_decompose(random_symmetric(rng, 4))
        with pytest.raises(DimensionMismatchError):
            davis_kahan(a, b, 1.0)

    @pytest.mark.parametrize("make", [
        lambda: generate_odn("grid", rows=30, cols=30, seed=1, diag=("uniform", 0, 1)),
        lambda: generate_odn("complete", 400, seed=3, diag=("uniform", 0, 1)),
    ], ids=["grid", "complete"])
    def test_matches_per_index_loop(self, make):
        m = make()
        d = decompose(m)
        m_hat = sparsify_laplacian(d, 0.25, seed=7).matrix(d.center)
        a_sys, b_sys = eigen_decompose(m), eigen_decompose(m_hat)
        r_norm = spectral_norm(m.to_dense() - m_hat.to_dense())
        for pair in ((a_sys, b_sys), (b_sys, a_sys)):
            _assert_same_angles(davis_kahan(*pair, r_norm), _davis_kahan_loop(*pair, r_norm))

    def test_matches_per_index_loop_on_repeated_eigenvalue(self, rng):
        # Same spectrum (3, 1, 1, 0.5) in two bases: the repeated eigenvalue's
        # mixed gaps are rounding noise, below the gap tolerance.
        a = np.diag([3.0, 1.0, 1.0, 0.5])
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a_sys, b_sys = eigen_decompose(a), eigen_decompose(q @ a @ q.T)
        angles = davis_kahan(a_sys, b_sys, 0.05)
        assert [a.bound is None for a in angles] == [False, True, True, False]
        _assert_same_angles(angles, _davis_kahan_loop(a_sys, b_sys, 0.05))


def _davis_kahan_loop(a_sys, b_sys, r_norm, gap_tol=None):
    """The former per-index implementation of `davis_kahan`, as a reference."""
    alphas, betas = a_sys.values, b_sys.values
    k = len(alphas)
    if gap_tol is None:
        gap_tol = 1e-8 * (float(np.abs(alphas).max()) if k else 0.0)
    out = []
    for i in range(k):
        a_vec = a_sys.vectors[:, i]
        b_vec = b_sys.vectors[:, i]
        inner = float(a_vec @ b_vec)
        sin_theta = min(1.0, float(np.linalg.norm(b_vec - inner * a_vec)))
        above = betas[i - 1] if i > 0 else np.inf
        below = betas[i + 1] if i + 1 < k else -np.inf
        gap = min(abs(above - alphas[i]), abs(alphas[i] - below))
        if gap <= gap_tol:
            out.append((i, sin_theta, None, True))
            continue
        bound = r_norm / gap
        out.append((i, sin_theta, float(bound), bool(sin_theta <= bound + 1e-9 or bound >= 1.0)))
    return out


def _assert_same_angles(angles, reference):
    assert len(angles) == len(reference)
    for angle, (index, sin_theta, bound, passed) in zip(angles, reference):
        assert angle.index == index
        assert abs(angle.sin_theta - sin_theta) <= 1e-14
        assert angle.bound == bound
        assert angle.passed is passed


class TestDeviationBound:
    def test_diagonal_matrix(self):
        m = validate_odn(np.diag([0.0, 10.0]))
        for eps in (0.05, 0.25, 0.9):
            assert eigenvalue_deviation_bound(m, eps) == 5.0

    def test_constant_diagonal(self):
        m = center_diagonal(validate_odn([[2.0, 1.0], [1.0, 3.0]]))
        # rho(L) = 2 for the single unit edge on n=2
        np.testing.assert_allclose(
            eigenvalue_deviation_bound(m, 0.1), 0.1 * np.sqrt(2) * 2.0, rtol=1e-12
        )

    def test_example_value(self):
        m = validate_odn([[2.0, 1.0], [1.0, 3.0]])
        np.testing.assert_allclose(
            eigenvalue_deviation_bound(m, 0.1),
            0.1 * np.sqrt(2.0) * 2.0 + 0.5,
            rtol=1e-12,
        )

    def test_invalid_epsilon(self):
        m = validate_odn(np.eye(2))
        with pytest.raises(InvalidEpsilonError):
            eigenvalue_deviation_bound(m, 1.2)


class TestSpectralReport:
    def test_identical(self, rng):
        m = random_odn(rng, 8, density=0.6)
        rep = spectral_report(m, m, 0.2)
        assert rep.passed
        assert rep.max_deviation == 0.0
        assert all(a.sin_theta <= 1e-12 for a in rep.angles)
        assert rep.inertia_match

    def test_diagonal_exactness(self):
        m = validate_odn(np.diag([0.0, 10.0]))
        d = decompose(m)
        res = sparsify_laplacian(d, 0.25, seed=3)
        m_hat = reconstruct(res.adjacency, d.center)
        rep = spectral_report(m, m_hat, 0.25)
        np.testing.assert_array_equal(rep.deviations, [5.0, 5.0])
        assert rep.bound == 5.0
        assert rep.passed

    def test_pipeline_k5(self):
        m = generate_odn("complete", 5, weight=1.0, diag=("uniform", 0.0, 1.0), seed=9)
        d = decompose(m)
        res = sparsify_laplacian(d, 0.25, seed=7)
        m_hat = reconstruct(res.adjacency, d.center)
        rep = spectral_report(m, m_hat, 0.25)
        assert rep.eigenvalue_bound_passed
        assert rep.max_deviation <= rep.bound * (1 + 1e-9)
        assert rep.nnz_before == m.nnz
        assert rep.nnz_after == m_hat.nnz

    def test_triangle_decomposition_of_deviation(self, rng):
        # |l_i - l_hat_i| <= |l_i - l_bar_i| + |l_bar_i - l_hat_i| with the
        # first term within the diagonal spread and the second within
        # eps*sqrt(n)*rho(L), checked term by term.
        for _ in range(5):
            m = random_odn(rng, 15, density=0.7)
            d = decompose(m)
            eps = 0.2
            res = sparsify_laplacian(d, eps, seed=int(rng.integers(1 << 30)))
            centered = center_diagonal(m)
            m_hat = reconstruct(res.adjacency, d.center)
            lam = np.linalg.eigvalsh(m.to_dense())[::-1]
            lam_bar = np.linalg.eigvalsh(centered.to_dense())[::-1]
            lam_hat = np.linalg.eigvalsh(m_hat.to_dense())[::-1]
            spread = (d.delta_max - d.delta_min) / 2.0
            rho = spectral_norm(d.laplacian)
            step1 = np.abs(lam - lam_bar)
            step2 = np.abs(lam_bar - lam_hat)
            assert np.all(step1 <= spread * (1 + 1e-9) + 1e-12)
            assert np.all(step2 <= eps * np.sqrt(m.n) * rho * (1 + 1e-9) + 1e-12)
            assert np.all(
                np.abs(lam - lam_hat) <= step1 + step2 + 1e-12
            )

    def test_inertia_guarantee_implies_match(self, rng):
        for _ in range(10):
            m = random_odn(rng, 10, density=0.5, diag_low=-2.0, diag_high=3.0)
            d = decompose(m)
            res = sparsify_laplacian(d, 0.1, seed=int(rng.integers(1 << 30)))
            m_hat = reconstruct(res.adjacency, d.center)
            rep = spectral_report(m, m_hat, 0.1)
            if rep.inertia_guaranteed:
                assert rep.inertia_match


def _fix_signs_reference(vectors):
    """The former sign rule, with its two n x n temporaries, as a reference."""
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def _assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


class TestFixSigns:
    def test_matches_former_rule_on_ties_and_signed_zeros(self, rng):
        columns = np.array([
            [0.5, -0.5, 0.1],   # magnitude tie, positive first: kept
            [-0.5, 0.5, 0.1],   # magnitude tie, negative first: negated
            [0.0, -0.0, 0.0],
            [-0.0, 0.0, -0.0],
            [-0.0, -0.0, -0.0],
            [-1.0, -2.0, -0.5],
            [1.0, 2.0, 0.5],
            [-0.3, 0.0, 0.2],
            [0.2, -0.0, -0.3],
        ]).T
        # Small integers tie often; -0.0 and 0.0 both appear.
        rounded = np.round(rng.standard_normal((7, 200))) * rng.choice([-1.0, 1.0], 200)
        for block in (columns, rounded, rng.standard_normal((30, 30))):
            expected = _fix_signs_reference(block)
            _assert_same_bits(spectra_module._fix_signs(block.copy()), expected)

    def test_eigen_decompose_matches_former_rule(self, rng):
        m = random_symmetric(rng, 40)
        vecs = np.linalg.eigh(m)[1][:, ::-1]
        for k in (None, 7):
            got = eigen_decompose(m, k=k).vectors
            assert got.flags.c_contiguous
            _assert_same_bits(got, _fix_signs_reference(vecs[:, :k]))

    def test_sin_theta_reads_either_sign_to_the_bit(self, rng):
        """`live_vectors` leaves each column's sign as its solver gave it: the
        angles come out bit-identical with and without `_fix_signs`, and for
        every flip of a column of either side."""
        for n, k in ((2, 1), (9, 4), (80, 6), (400, 3)):
            a = rng.standard_normal((n, k))
            a /= np.linalg.norm(a, axis=0)
            for b in (rng.standard_normal((n, k)), a + 1e-6 * rng.standard_normal((n, k))):
                b = b / np.linalg.norm(b, axis=0)
                expected = spectra_module._sin_theta(a, b)
                fixed = spectra_module._sin_theta(spectra_module._fix_signs(a.copy()),
                                                  spectra_module._fix_signs(b.copy()))
                _assert_same_bits(fixed, expected)
                for _ in range(4):
                    flip_a, flip_b = rng.choice([-1.0, 1.0], (2, k))
                    _assert_same_bits(spectra_module._sin_theta(a * flip_a, b * flip_b),
                                      expected)

    def test_no_square_temporaries(self, rng):
        vectors = np.linalg.eigh(random_symmetric(rng, 600))[1]
        tracemalloc.start()
        try:
            spectra_module._fix_signs(vectors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= vectors.nbytes / 20


class TestSwappedAngleBounds:
    @pytest.mark.parametrize("make", [
        lambda: generate_odn("grid", rows=30, cols=30, seed=1, diag=("uniform", 0, 1)),
        lambda: generate_odn("complete", 400, seed=3, diag=("uniform", 0, 1)),
    ], ids=["grid", "complete"])
    def test_equal_to_davis_kahan_swapped(self, make):
        m = make()
        d = decompose(m)
        spectra = PairSpectra(d, matrix_hat=sparsify_laplacian(d, 0.25, seed=7).matrix(d.center))
        report = spectral_report(spectra, epsilon=0.25)
        sys_a, sys_b = _full_systems(spectra.matrix, spectra.matrix_hat)
        expected = [a.bound for a in davis_kahan(sys_b, sys_a, report.r_norm)]
        # The report's values come from eigvalsh, davis_kahan's here from eigh.
        _assert_bounds_close(report.dk_bounds_swapped, expected, report.r_norm,
                             np.abs(sys_a.values).max())

    @pytest.mark.parametrize("gap_tol", [None, 0.05])
    def test_equal_on_repeated_eigenvalue(self, gap_tol):
        # Spectrum 0.4 * 19 + 0.6, then 0.6 nineteen times: the swapped gaps of
        # the repeated eigenvalue are zero, below any tolerance.
        m = generate_odn("equicorrelation", 20, correlation=0.4)
        report = spectral_report(m, m, 0.25, gap_tol=gap_tol)
        sys_a = eigen_decompose(m)
        expected = [a.bound for a in davis_kahan(sys_a, sys_a, report.r_norm, gap_tol)]
        assert report.dk_bounds_swapped == expected
        assert expected.count(None) >= 18


def _full_systems(m, m_hat):
    """Every eigenpair of M and of M_hat, by dense eigh: the reference the
    value-only report is checked against."""
    return eigen_decompose(m.to_dense()), eigen_decompose(m_hat.to_dense())


def _assert_bounds_close(got, expected, r_norm, scale):
    """Davis-Kahan bounds r_norm / gap: None (undefined) at the same indices,
    and the gaps equal to 1e-12 of the spectral scale. The gaps, not the
    bounds: eigvalsh and eigh agree to the last bits of each eigenvalue, and
    a bound over a tiny gap magnifies that difference (a vacuous bound of
    1491 differed by 9e-12 relative)."""
    assert [b is None for b in got] == [b is None for b in expected]
    for x, y in zip(got, expected):
        if y is not None and x != y:
            assert abs(r_norm / x - r_norm / y) <= 1e-12 * max(1.0, scale)


def _sparsified(m, seed=7, epsilon=0.25):
    d = decompose(m)
    return sparsify_laplacian(d, epsilon, seed=seed).matrix(d.center)


class TestLiveAngles:
    """spectral_report solves angles only at live indices (bound defined and
    below 1 - 1e-9), by ARPACK's top and bottom blocks or a dense fallback."""

    def _check_against_full(self, m, m_hat, epsilon=0.25, gap_tol=None):
        spectra = PairSpectra(decompose(m), matrix_hat=m_hat)
        report = spectral_report(spectra, epsilon=epsilon, gap_tol=gap_tol)
        sys_a, sys_b = _full_systems(m, m_hat)
        full = davis_kahan(sys_a, sys_b, report.r_norm, gap_tol)
        _assert_bounds_close([a.bound for a in report.angles], [a.bound for a in full],
                             report.r_norm, np.abs(sys_a.values).max())
        # sin_theta <= 1 passes a bound from 1 - 1e-9 up; below 1 only by
        # rounding, such a bound sits over a tie of M_hat's eigenvalues,
        # where no eigenvector is unique.
        live = [a.index for a in full if a.bound is not None and a.bound < 1.0 - 1e-9]
        for angle, expected in zip(report.angles, full):
            if angle.index in live:
                assert abs(angle.sin_theta - expected.sin_theta) <= 1e-12
                assert angle.passed == expected.passed
            else:
                assert angle.sin_theta is None and angle.passed
        assert report.vacuous_angles == m.n - len(live)
        assert report.angles_passed == all(a.passed for a in full)
        deviation = float(np.abs(sys_a.values - sys_b.values).max())
        assert report.eigenvalue_bound_passed == (deviation <= report.bound * (1 + 1e-9))
        np.testing.assert_allclose(report.values, sys_a.values, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(report.values_hat, sys_b.values, rtol=1e-12, atol=1e-12)
        return spectra, report, live

    def test_perron_angle_by_arpack(self):
        m = generate_odn("complete", 60, seed=4, diag=("uniform", 0, 1))
        spectra, report, live = self._check_against_full(m, _sparsified(m))
        assert live == [0]
        assert report.angles[0].sin_theta > 0
        assert spectra.paths["matrix_vectors"] == "arpack"
        assert spectra.paths["matrix_hat_vectors"] == "arpack"

    def test_vacuous_everywhere_solves_no_vectors(self, monkeypatch):
        # The premise needs every bound above 1: sampler seed 0's least is 1.09.
        m = generate_odn("grid", rows=6, cols=7, seed=1, diag=("uniform", 0, 1))
        m_hat = _sparsified(m, seed=0)

        def no_vectors(*args, **kwargs):
            raise AssertionError("an eigenvector was solved")

        monkeypatch.setattr(PairSpectra, "live_vectors", no_vectors)
        spectra, report, live = self._check_against_full(m, m_hat)
        assert live == [] and report.vacuous_angles == m.n
        assert "matrix_vectors" not in spectra.paths

    def test_dense_fallback_without_convergence(self, monkeypatch):
        def not_converged(operand, *args, **kwargs):
            raise ArpackNoConvergence("0 of 1", np.zeros(0), np.zeros((operand.shape[0], 0)))

        m = generate_odn("complete", 60, seed=4, diag=("uniform", 0, 1))
        m_hat = _sparsified(m)
        spectra = PairSpectra(decompose(m), matrix_hat=m_hat)
        monkeypatch.setattr(spectra_module, "eigsh", not_converged)
        vectors_a, vectors_b = spectra.live_vectors(1)
        assert spectra.paths["matrix_vectors"] == spectra.paths["matrix_hat_vectors"] == "dense"
        full_a, full_b = _full_systems(m, m_hat)
        # The same columns up to sign: live_vectors leaves each as eigh gave it.
        for got, full in ((vectors_a, full_a), (vectors_b, full_b)):
            assert got.shape == (m.n, 1)
            assert (np.array_equal(got, full.vectors[:, :1])
                    or np.array_equal(-got, full.vectors[:, :1]))

    def test_bottom_angle_by_arpack(self):
        """K_(40,40) has isolated top and bottom eigenvalues, both live: a top
        and a bottom block of one vector each, not all n = 80 columns."""
        i, j = np.meshgrid(np.arange(40), np.arange(40, 80), indexing="ij")
        rng = np.random.default_rng(3)
        m = OdnMatrix(80, i.ravel(), j.ravel(), rng.uniform(0.5, 1.0, 1600),
                      rng.uniform(0.0, 0.1, 80))
        spectra, report, live = self._check_against_full(m, _sparsified(m))
        assert live == [0, 79]
        assert spectra.paths["matrix_vectors"] == spectra.paths["matrix_hat_vectors"] == "arpack"

    def test_tie_within_rounding_of_one_solves_no_vectors(self, monkeypatch):
        """No edges (case 4 below): M_hat = cI, whose eigenvectors are not
        unique, and the extreme indices' bounds fall short of 1 by rounding
        alone (r_norm is a low estimate). They are vacuous, and no
        eigenvector is solved."""
        rng = np.random.default_rng(1004)
        m = random_odn(rng, int(rng.integers(4, 90)), density=0.0)

        def no_vectors(*args, **kwargs):
            raise AssertionError("an eigenvector was solved")

        monkeypatch.setattr(PairSpectra, "live_vectors", no_vectors)
        report = spectral_report(PairSpectra(decompose(m), matrix_hat=_sparsified(m)),
                                 epsilon=0.25)
        near = [a for a in report.angles if a.bound is not None and a.bound < 1.0]
        assert m.n == 66 and [a.index for a in near] == [0, 65]
        assert all(a.bound >= 1.0 - 1e-12 and a.sin_theta is None and a.passed for a in near)
        assert report.vacuous_angles == m.n

    def test_dense_above_break_even(self):
        # Identical sides: r_norm is 0, so every defined bound is 0 and live,
        # and k = n takes the dense solve.
        m = random_odn(np.random.default_rng(2), 30, density=0.5)
        spectra, report, live = self._check_against_full(m, m)
        assert len(live) == m.n and report.vacuous_angles == 0
        assert spectra.paths["matrix_vectors"] == "dense"

    @pytest.mark.parametrize("case", range(24))
    def test_verdicts_match_full_eigh(self, case):
        """Random ODN pairs, among them n <= 3, no edges, disconnected graphs
        and a zero diagonal: every verdict and live angle as with full eigh."""
        rng = np.random.default_rng(1000 + case)
        n = [1, 2, 3][case] if case < 3 else int(rng.integers(4, 90))
        density = [0.0, 0.05, 0.3, 1.0][case % 4]
        diag = (0.0, 0.0) if case % 3 == 0 else (-1.0, 2.0)
        m = random_odn(rng, n, density=density, diag_low=diag[0], diag_high=diag[1])
        epsilon = float(rng.choice([0.1, 0.25, 0.5]))
        self._check_against_full(m, _sparsified(m, int(rng.integers(1 << 30)), epsilon),
                                 epsilon)


def _grid(rows, cols, diag=("uniform", 0, 1)):
    return generate_odn("grid", rows=rows, cols=cols, seed=1, diag=diag)


def _cut_grid():
    """A 10 x 20 grid cut between columns 9 and 10: two components."""
    g = _grid(10, 20)
    keep = ~((g.cols == g.rows + 1) & (g.rows % 20 == 9))
    return OdnMatrix(g.n, g.rows[keep], g.cols[keep], g.vals[keep], g.diag)


def _with_isolated_vertex():
    g = _grid(10, 10)
    return OdnMatrix(g.n + 1, g.rows, g.cols, g.vals, np.append(g.diag, 0.5))


def _negative_diagonal():
    g = _grid(12, 12)
    return OdnMatrix(g.n, g.rows, g.cols, g.vals,
                     np.random.default_rng(3).uniform(-3.0, -1.0, g.n))


BAND_INPUTS = {
    "path-8": lambda: generate_odn("path", 8, seed=1, diag=("uniform", 0, 1)),
    "path-300": lambda: generate_odn("path", 300, seed=1, diag=("uniform", 0, 1)),
    "grid-30x30": lambda: _grid(30, 30),
    "grid-10x90": lambda: _grid(10, 90),
    "grid-3x300": lambda: _grid(3, 300),
    "grid-60x60": lambda: _grid(60, 60),
    "cut-grid": _cut_grid,
    "isolated-vertex": _with_isolated_vertex,
    "negative-diagonal": _negative_diagonal,
    "no-edges": lambda: OdnMatrix(50, [], [], [], np.linspace(-1.0, 2.0, 50)),
    "n-1": lambda: OdnMatrix(1, [], [], [], [0.7]),
    "n-2": lambda: OdnMatrix(2, [0], [1], [0.5], [0.1, -0.2]),
}


class TestBandValues:
    """`PairSpectra.matrix_values` in band storage (`dsbevd`) against the dense
    path (`eigvalsh`), each forced by `_BAND_VALUES_SHARE`."""

    @pytest.mark.parametrize("name", list(BAND_INPUTS))
    def test_values_and_verdicts_match_the_dense_path(self, name, monkeypatch):
        m = BAND_INPUTS[name]()
        m_hat = _sparsified(m)
        runs = {}
        for path, share in (("band", 1.0), ("dense", 0.0)):
            monkeypatch.setattr(spectra_module, "_BAND_VALUES_SHARE", share)
            spectra = PairSpectra(decompose(m), matrix_hat=m_hat)
            runs[path] = spectra, spectral_report(spectra, epsilon=0.25)
        (band, report), (dense, expected) = runs["band"], runs["dense"]
        # The bandwidth of each side in reverse Cuthill-McKee order.
        kds = []
        for x in (m, m_hat):
            csr = sp.csr_matrix(x.adjacency() + sp.diags(x.diag))
            order = reverse_cuthill_mckee(csr, symmetric_mode=True)
            lower = sp.tril(csr[order][:, order], format="coo")
            kds.append(int((lower.row - lower.col).max(initial=0)))
        assert [band.paths[role] for role in ("matrix_values", "matrix_hat_values")] == [
            f"band kd={kd}" for kd in kds]
        assert dense.paths["matrix_values"] == dense.paths["matrix_hat_values"] == "dense"
        scale = max(np.abs(m.to_dense()).max(), np.abs(m_hat.to_dense()).max())
        for got, want in zip(band.matrix_values, dense.matrix_values):
            assert np.abs(got - want).max() <= 1e-12 * scale
        for field in ("eigenvalue_bound_passed", "angles_passed", "inertia", "inertia_hat",
                      "inertia_match", "inertia_guaranteed", "vacuous_angles"):
            assert getattr(report, field) == getattr(expected, field), field
        assert [a.passed for a in report.angles] == [a.passed for a in expected.angles]

    def test_only_narrow_bands_leave_the_dense_path(self):
        """A 30 x 30 grid, (kd + 1) / n = 0.034, takes the band; a 10 x 10 grid,
        0.11, a raw dense array and a side above the dense limit do not."""
        grid = _grid(30, 30)
        spectra = PairSpectra(matrix=grid, matrix_hat=_grid(10, 10))
        spectra.matrix_values
        assert spectra.paths == {"matrix_values": "band kd=30", "matrix_hat_values": "dense"}
        spectra = PairSpectra(matrix=grid.to_dense(), matrix_hat=grid.to_dense())
        spectra.matrix_values
        assert spectra.paths == {"matrix_values": "dense", "matrix_hat_values": "dense"}
        with pytest.raises(DenseLimitExceededError):
            PairSpectra(matrix=grid, matrix_hat=grid, dense_limit=899).matrix_values

    def test_dense_side_is_turned_down_before_reordering(self, monkeypatch):
        """A side storing more entries than any narrow band holds never reaches
        reverse Cuthill-McKee."""
        def no_reordering(*args, **kwargs):
            raise AssertionError("reverse Cuthill-McKee was run")

        monkeypatch.setattr(spectra_module, "reverse_cuthill_mckee", no_reordering)
        m = generate_odn("complete", 200, seed=2, diag=("uniform", 0, 1))
        spectra = PairSpectra(matrix=m, matrix_hat=_sparsified(m))
        spectra.matrix_values
        assert spectra.paths == {"matrix_values": "dense", "matrix_hat_values": "dense"}


def _shuffled_band(n=400, kd=6, seed=5):
    """A band graph of bandwidth kd with its vertices shuffled."""
    rng = np.random.default_rng(seed)
    low, offset = np.meshgrid(np.arange(n), np.arange(1, kd + 1))
    keep = low + offset < n
    perm = rng.permutation(n)
    a, b = perm[low[keep]], perm[(low + offset)[keep]]
    return OdnMatrix(n, np.minimum(a, b), np.maximum(a, b),
                     rng.uniform(0.1, 1.0, int(keep.sum())), rng.uniform(-1.0, 1.0, n))


CONCURRENT_INPUTS = {
    "grid-30x30": lambda: _grid(30, 30),
    "path-200": lambda: generate_odn("path", 200, seed=1, diag=("uniform", 0, 1)),
    "shuffled-band": _shuffled_band,
    "no-edges": BAND_INPUTS["no-edges"],
    "n-1": BAND_INPUTS["n-1"],
}


class TestConcurrentBandValues:
    """Both sides in band storage: the pair's worker thread and the caller
    share the two solves, through scipy's Cython export of `dsbevd`
    (`_dsbevd`)."""

    @pytest.mark.parametrize("name", list(CONCURRENT_INPUTS))
    def test_values_equal_scipy_f2py_dsbevd_bit_for_bit(self, name):
        from scipy.linalg import lapack

        m = CONCURRENT_INPUTS[name]()
        band = spectra_module._band(m, 1.0)[1]
        got = spectra_module._dsbevd(band.copy(order="F"))
        expected, _, info = lapack.dsbevd(band, compute_v=0, lower=1)  # overwrites band
        assert not info
        assert np.array_equal(got, expected)

    def test_two_threads_at_once_finish_with_the_same_values(self, scipy_pool):
        """Two callers, each with its own pair, hold the process-wide hold in
        turn while their workers run unheld: neither waits forever, and with
        a short switch interval neither side's values change."""
        get_threads, _ = scipy_pool
        pairs = [(m, _sparsified(m)) for m in (_grid(30, 30), _shuffled_band())]
        expected = [[spectra_module._dsbevd(spectra_module._band(x, 1 / 20)[1]) for x in pair]
                    for pair in pairs]
        got = [None, None]

        def solve(i):
            got[i] = PairSpectra(matrix=pairs[i][0], matrix_hat=pairs[i][1]).matrix_values

        threads = [threading.Thread(target=solve, args=(i,), daemon=True) for i in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 60
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for values, want in zip(got, expected):
            assert all(np.array_equal(a, b) for a, b in zip(values, want))
        assert get_threads() == 2

    def test_worker_failure_reaches_the_caller(self, scipy_pool, monkeypatch):
        get_threads, _ = scipy_pool
        m = _grid(30, 30)
        spectra = PairSpectra(matrix=m, matrix_hat=_sparsified(m))
        failed = threading.Event()

        def failing_on_the_worker(*args, _routine=spectra_module._LAPACK_DSBEVD):
            _routine(*args)
            if threading.current_thread() is not threading.main_thread():
                args[-1].value = 7  # info
                failed.set()

        monkeypatch.setattr(spectra_module, "_LAPACK_DSBEVD", failing_on_the_worker)
        threads, mask = threading.active_count(), os.sched_getaffinity(0)
        spectra.start_values("matrix")
        assert failed.wait(timeout=60)
        with pytest.raises(np.linalg.LinAlgError, match=r"dsbevd did not converge \(info 7\)"):
            spectra.matrix_values
        assert get_threads() == 2
        assert threading.active_count() == threads
        assert os.sched_getaffinity(0) == mask

    def test_no_thread_or_mask_outlives_the_call(self, scipy_pool):
        get_threads, _ = scipy_pool
        m = _shuffled_band()
        threads, mask = threading.active_count(), os.sched_getaffinity(0)
        PairSpectra(matrix=m, matrix_hat=_sparsified(m)).matrix_values
        assert get_threads() == 2
        assert threading.active_count() == threads
        assert os.sched_getaffinity(0) == mask

    def test_a_dense_side_solves_on_the_caller(self, monkeypatch):
        """A band M with a dense M_hat: M_hat's `eigvalsh` runs on the caller,
        M's `dsbevd` once, on whichever thread, and no thread outlives the
        call."""
        callers = {"dsbevd": [], "eigvalsh": []}

        def recording(name, routine):
            def call(*args):
                callers[name].append(threading.current_thread() is threading.main_thread())
                return routine(*args)
            return call

        monkeypatch.setattr(spectra_module, "_dsbevd", recording("dsbevd", spectra_module._dsbevd))
        monkeypatch.setattr(np.linalg, "eigvalsh", recording("eigvalsh", np.linalg.eigvalsh))
        threads = threading.active_count()
        spectra = PairSpectra(matrix=_grid(30, 30), matrix_hat=_grid(10, 10))
        spectra.matrix_values
        assert spectra.paths == {"matrix_values": "band kd=30", "matrix_hat_values": "dense"}
        assert len(callers["dsbevd"]) == 1 and callers["eigvalsh"] == [True]
        assert threading.active_count() == threads


def _reference_values(pair):
    """Each side's values by `_dsbevd` on the calling thread."""
    return [spectra_module._dsbevd(spectra_module._band(x, 1 / 20)[1]) for x in pair]


class TestStartValues:
    """`PairSpectra.start_values` hands a band side's solve to the pair's
    worker ahead of `matrix_values`, which takes back what the worker has
    not begun and collects the rest."""

    @staticmethod
    def _pair():
        m = _grid(30, 30)
        return m, _sparsified(m)

    @staticmethod
    def _recording(monkeypatch, hold=None):
        """Record (on the main thread, thread ident) for each `_dsbevd`; with
        `hold`, a worker's solve waits for it before it records."""
        solved, began = [], threading.Event()

        def recording(band, _routine=spectra_module._dsbevd):
            caller = threading.current_thread() is threading.main_thread()
            if not caller:
                began.set()
                if hold is not None:
                    assert hold.wait(timeout=60)
            solved.append((caller, threading.get_ident()))
            return _routine(band)

        monkeypatch.setattr(spectra_module, "_dsbevd", recording)
        return solved, began

    @pytest.mark.parametrize("schedule", ["ahead", "taken-back", "inside"])
    def test_values_bit_identical_whoever_solves(self, schedule, monkeypatch):
        """Both sides solved ahead on the worker, both taken back by the
        caller (the worker never begins), or both started inside
        `matrix_values`: the values are the caller's own, bit for bit."""
        pair = self._pair()
        expected = _reference_values(pair)
        spectra = PairSpectra(matrix=pair[0], matrix_hat=pair[1])
        gate = threading.Event()
        if schedule == "taken-back":
            # The worker waits until the caller has read both sides.
            monkeypatch.setattr(spectra_module, "_pin_off_cpu",
                                lambda cpu: gate.wait(timeout=60))

            def releasing(side, _values=PairSpectra._values):
                values = _values(spectra, side)
                if side == "matrix":
                    gate.set()
                return values

            monkeypatch.setattr(spectra, "_values", releasing)
        solved, began = self._recording(monkeypatch)
        if schedule != "inside":
            spectra.start_values()
        if schedule == "ahead":
            assert began.wait(timeout=60)
            deadline = time.monotonic() + 60
            while len(solved) < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert [caller for caller, _ in solved] == [False, False]
        got = spectra.matrix_values
        if schedule == "taken-back":
            assert [caller for caller, _ in solved] == [True, True]
        assert len(solved) == 2
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    def test_a_blocked_m_leaves_m_hat_to_the_caller(self, monkeypatch):
        """M's solve is begun on the worker and blocked there: M_hat, started
        behind it, is taken back and solved on the calling thread, and only
        then is M let go. No thread or affinity outlives the call."""
        threads, mask = threading.active_count(), os.sched_getaffinity(0)
        pair = self._pair()
        expected = _reference_values(pair)
        spectra = PairSpectra(matrix=pair[0], matrix_hat=pair[1])
        hold = threading.Event()
        solved, began = self._recording(monkeypatch, hold)

        def releasing(side, _values=PairSpectra._values):
            values = _values(spectra, side)
            hold.set()  # M_hat is solved: let the worker finish M
            return values

        monkeypatch.setattr(spectra, "_values", releasing)
        spectra.start_values("matrix")
        assert began.wait(timeout=60)
        spectra.start_values("matrix_hat")
        got = spectra.matrix_values
        main = threading.get_ident()
        assert [ident == main for _, ident in solved] == [True, False]
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        assert threading.active_count() == threads
        assert os.sched_getaffinity(0) == mask

    def test_the_worker_solves_while_the_caller_holds_the_pool(self, monkeypatch):
        """The worker takes no hold of scipy's pool: both started solves end
        while the caller holds it, as it does around the pencil."""
        pair = self._pair()
        spectra = PairSpectra(matrix=pair[0], matrix_hat=pair[1])
        solved, _ = self._recording(monkeypatch)
        with spectra_module._one_scipy_thread():
            spectra.start_values()
            deadline = time.monotonic() + 30
            while len(solved) < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert [caller for caller, _ in solved] == [False, False]
        spectra.matrix_values

    def test_a_dense_pair_starts_no_worker(self, monkeypatch):
        def no_worker(cpu):
            raise AssertionError("a worker was started")

        monkeypatch.setattr(spectra_module, "_BandWorker", no_worker)
        m = generate_odn("complete", 60, seed=2, diag=("uniform", 0, 1))
        spectra = PairSpectra(matrix=m, matrix_hat=_sparsified(m))
        spectra.start_values()
        spectra.matrix_values
        assert spectra.paths == {"matrix_values": "dense", "matrix_hat_values": "dense"}

    def test_nothing_starts_once_the_values_are_read(self, monkeypatch):
        pair = self._pair()
        spectra = PairSpectra(matrix=pair[0], matrix_hat=pair[1])
        spectra.matrix_values
        threads = threading.active_count()
        spectra.start_values()
        assert threading.active_count() == threads

    def test_a_pair_dropped_unread_ends_its_worker(self, monkeypatch):
        """A pair that started a solve and is dropped without reading
        `matrix_values` lets its worker end after the solve it runs."""
        hold = threading.Event()
        solved, began = self._recording(monkeypatch, hold)
        pair = self._pair()
        spectra = PairSpectra(matrix=pair[0], matrix_hat=pair[1])
        spectra.start_values()
        assert began.wait(timeout=60)
        thread = spectra._worker.thread
        del spectra
        hold.set()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(solved) == 1  # M_hat, not begun, is cancelled


class TestWorkerPlacement:
    """The worker pins itself to an allowed CPU the caller is not on
    (`_solve_off_cpu`), and nothing is placed where that is not possible."""

    @staticmethod
    def _solve(monkeypatch, allowed, cpu):
        pinned = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(allowed))
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pinned.append(
            (pid, set(cpus), threading.current_thread() is threading.main_thread())))
        monkeypatch.setattr(spectra_module, "_sched_getcpu", cpu)
        m = _grid(30, 30)
        PairSpectra(matrix=m, matrix_hat=_sparsified(m)).matrix_values
        return pinned

    @pytest.mark.parametrize("allowed,cpu", [
        ({0}, lambda: 0),
        ({3}, lambda: 3),
        ({0, 1}, lambda: -1),
        ({0, 1}, None),
    ], ids=["one-cpu", "one-other-cpu", "cpu-unknown", "no-sched_getcpu"])
    def test_nothing_placed(self, monkeypatch, allowed, cpu):
        assert self._solve(monkeypatch, allowed, cpu) == []

    @pytest.mark.parametrize("caller,other", [(0, 1), (1, 0)])
    def test_worker_takes_the_other_of_two_cpus(self, monkeypatch, caller, other):
        assert self._solve(monkeypatch, {0, 1}, lambda: caller) == [(0, {other}, False)]

    def test_worker_takes_the_lowest_other_cpu(self, monkeypatch):
        assert self._solve(monkeypatch, {2, 5, 7}, lambda: 2) == [(0, {5}, False)]

    @pytest.mark.skipif(spectra_module._sched_getcpu is None
                        or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="one CPU allowed, or no sched_getcpu")
    def test_worker_runs_off_the_callers_cpu(self, monkeypatch):
        """With the real calls: the worker's solve runs on a CPU other than
        the one the caller was on when it started the worker."""
        on = {}
        started = spectra_module._sched_getcpu

        def recording(band, _routine=spectra_module._dsbevd):
            on[threading.current_thread() is threading.main_thread()] = started()
            return _routine(band)

        def caller_cpu():
            on["start"] = started()
            return on["start"]

        monkeypatch.setattr(spectra_module, "_dsbevd", recording)
        monkeypatch.setattr(spectra_module, "_sched_getcpu", caller_cpu)
        m = _grid(30, 30)
        PairSpectra(matrix=m, matrix_hat=_sparsified(m)).matrix_values
        assert on[False] != on["start"]
