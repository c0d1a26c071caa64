import numpy as np
import pytest

from odnsparse import (
    DenseLimitExceededError,
    DimensionMismatchError,
    InvalidConstantError,
    InvalidEpsilonError,
    OdnMatrix,
    PairSpectra,
    decompose,
    effective_resistances,
    eigenvalue_ratio_check,
    generate_odn,
    sample_count,
    sparsify_laplacian,
    validate_odn,
    verify_sparsifier,
)

from conftest import random_odn


def two_component_graph():
    """K4 on {0..3} plus a 3-path on {4..6}: deliberately disconnected."""
    i4, j4 = np.triu_indices(4, k=1)
    rows = np.concatenate([i4, [4, 5]])
    cols = np.concatenate([j4, [5, 6]])
    vals = np.concatenate([np.full(6, 2.0), [1.0, 3.0]])
    return OdnMatrix(7, rows, cols, vals, np.zeros(7))


class TestEffectiveResistances:
    def test_triangle(self):
        d = decompose(generate_odn("complete", 3, weight=1.0))
        resistance, probability = effective_resistances(d)
        assert len(resistance) == len(probability) == 3
        np.testing.assert_allclose(resistance, 2.0 / 3.0, rtol=1e-12)
        np.testing.assert_allclose(probability, 1.0 / 3.0, rtol=1e-12)

    def test_path_series(self):
        d = decompose(generate_odn("path", 3, weight=1.0))
        resistance, _ = effective_resistances(d)
        np.testing.assert_allclose(resistance, 1.0, rtol=1e-12)
        foster = (d.matrix.vals * resistance).sum()
        np.testing.assert_allclose(foster, 2.0, atol=1e-8)

    def test_single_edge_closed_form(self):
        # L = [[5, -5], [-5, 5]]; pinv gives R = 1/5, leverage exactly 1.
        d = decompose(generate_odn("complete", 2, weight=5.0))
        (resistance,), (probability,) = effective_resistances(d)
        np.testing.assert_allclose(resistance, 0.2, rtol=1e-12)
        np.testing.assert_allclose(d.matrix.vals[0] * resistance, 1.0, rtol=1e-12)
        assert probability == 1.0

    def test_weighted_resistance_against_pinv(self, rng):
        m = random_odn(rng, 12, density=0.6)
        d = decompose(m)
        pinv = np.linalg.pinv(d.laplacian_dense())
        resistance, _ = effective_resistances(d)
        for i, j, r in zip(d.matrix.rows, d.matrix.cols, resistance):
            basis = np.zeros(12)
            basis[i], basis[j] = 1.0, -1.0
            np.testing.assert_allclose(r, basis @ pinv @ basis, rtol=1e-9)

    def test_leverage_bounds_and_probability_sum(self, rng):
        for _ in range(10):
            m = random_odn(rng, int(rng.integers(3, 25)), density=0.4)
            if m.stored_pairs == 0:
                continue
            resistance, probability = effective_resistances(decompose(m))
            levs = m.vals * resistance
            assert np.all(levs >= 0.0)
            assert np.all(levs <= 1.0 + 1e-9)
            np.testing.assert_allclose(probability.sum(), 1.0, atol=1e-12)

    def test_disconnected_foster(self):
        d = decompose(two_component_graph())
        resistance, _ = effective_resistances(d)
        foster = (d.matrix.vals * resistance).sum()
        # n - components = 7 - 2
        np.testing.assert_allclose(foster, 5.0, atol=1e-8)

    def test_no_edges(self):
        d = decompose(validate_odn(np.diag([1.0, 2.0, 3.0])))
        resistance, probability = effective_resistances(d)
        assert resistance.shape == probability.shape == (0,)

    def test_dense_limit(self):
        d = decompose(generate_odn("complete", 8, weight=1.0))
        with pytest.raises(DenseLimitExceededError):
            effective_resistances(PairSpectra(d, dense_limit=4))

    def test_approximate_within_quarter(self):
        d = decompose(generate_odn("erdos-renyi", 30, density=0.4, seed=3))
        exact, _ = effective_resistances(d)
        approx, _ = effective_resistances(d, mode="approximate")
        assert np.all(approx >= (1 - 0.25) * exact)
        assert np.all(approx <= (1 + 0.25) * exact)

    def test_approximate_disconnected(self):
        d = decompose(two_component_graph())
        exact, _ = effective_resistances(d)
        approx, _ = effective_resistances(d, mode="approximate")
        assert np.all(np.abs(approx - exact) <= 0.25 * exact)

    def test_approximate_deterministic(self):
        d = decompose(generate_odn("erdos-renyi", 15, density=0.5, seed=1))
        a, _ = effective_resistances(d, mode="approximate", seed=9)
        b, _ = effective_resistances(d, mode="approximate", seed=9)
        assert a.tolist() == b.tolist()


class TestSparsify:
    def test_zero_laplacian(self):
        d = decompose(validate_odn(np.diag([1.0, 2.0, 3.0])))
        res = sparsify_laplacian(d, 0.25, seed=4)
        assert res.samples_drawn == 0
        assert res.distinct_edges == 0
        assert res.laplacian.nnz == 0

    def test_n_one_sparsifies_to_itself(self):
        from odnsparse import reconstruct

        m = validate_odn([[3.5]])
        d = decompose(m)
        res = sparsify_laplacian(d, 0.25, seed=0)
        assert reconstruct(res.adjacency, d.center) == m

    def test_single_edge_exact(self):
        d = decompose(generate_odn("complete", 2, weight=5.0))
        for seed in (0, 1, 99):
            res = sparsify_laplacian(d, 0.3, seed=seed)
            np.testing.assert_array_equal(
                res.laplacian.toarray(), d.laplacian_dense()
            )

    def test_k5_ratio_corridor(self):
        # Oracle: dense eigensolver on both Laplacians.
        d = decompose(generate_odn("complete", 5, weight=1.0))
        res = sparsify_laplacian(d, 0.3, seed=7, constant=9.0)
        mu = np.linalg.eigvalsh(d.laplacian_dense())
        mu_hat = np.linalg.eigvalsh(res.laplacian.toarray())
        ratios = mu_hat[1:] / mu[1:]
        assert np.all(ratios >= 0.7)
        assert np.all(ratios <= 1.3)

    def test_invalid_epsilon(self):
        d = decompose(generate_odn("complete", 4, weight=1.0))
        for bad in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(InvalidEpsilonError):
                sparsify_laplacian(d, bad)

    def test_invalid_constant(self):
        d = decompose(generate_odn("complete", 4, weight=1.0))
        with pytest.raises(InvalidConstantError):
            sparsify_laplacian(d, 0.5, constant=0.0)

    def test_epsilon_regime_flag(self):
        d = decompose(generate_odn("complete", 4, weight=1.0))
        assert sparsify_laplacian(d, 0.25, seed=0).epsilon_above_small_regime
        assert not sparsify_laplacian(d, 1.0 / 128.0, seed=0).epsilon_above_small_regime

    def test_deterministic_bit_identical(self):
        d = decompose(generate_odn("erdos-renyi", 25, density=0.4, seed=6))
        a = sparsify_laplacian(d, 0.2, seed=42)
        b = sparsify_laplacian(d, 0.2, seed=42)
        assert a.samples_drawn == b.samples_drawn
        assert a.distinct_edges == b.distinct_edges
        assert np.array_equal(a.adjacency.toarray(), b.adjacency.toarray())
        c = sparsify_laplacian(d, 0.2, seed=43)
        assert not np.array_equal(a.adjacency.toarray(), c.adjacency.toarray())

    def test_sampled_edges_subset_and_budget(self, rng):
        for _ in range(5):
            m = random_odn(rng, 20, density=0.5)
            d = decompose(m)
            res = sparsify_laplacian(d, 0.3, seed=int(rng.integers(1 << 30)))
            q = sample_count(20, 0.3, 9.0)
            assert res.samples_drawn == q
            assert res.distinct_edges <= min(q, m.stored_pairs)
            # no new edges, nonnegative weights
            original = set(zip(m.rows.tolist(), m.cols.tolist()))
            coo = res.adjacency.tocoo()
            upper = coo.row < coo.col
            sampled = set(zip(coo.row[upper].tolist(), coo.col[upper].tolist()))
            assert sampled <= original
            assert np.all(coo.data >= 0)
            assert res.nnz_after == 2 * res.distinct_edges + 20

    def test_row_sums_zero(self, rng):
        m = random_odn(rng, 15, density=0.6)
        res = sparsify_laplacian(decompose(m), 0.25, seed=5)
        row_sums = np.asarray(res.laplacian.sum(axis=1)).ravel()
        assert np.all(np.abs(row_sums) <= 1e-10 * np.maximum(res.degrees, 1.0))


class TestVerify:
    def test_identical_passes(self):
        d = decompose(generate_odn("erdos-renyi", 12, density=0.5, seed=2))
        rec = verify_sparsifier(d.laplacian, d.laplacian, 0.1, probes=200, seed=1)
        assert rec.passed
        np.testing.assert_allclose([rec.probe_min, rec.probe_max], 1.0, rtol=1e-12)
        np.testing.assert_allclose([rec.gen_min, rec.gen_max], 1.0, rtol=1e-12)

    def test_doubled_fails_with_ratio_two(self):
        d = decompose(generate_odn("erdos-renyi", 12, density=0.5, seed=2))
        rec = verify_sparsifier(d.laplacian, 2 * d.laplacian.toarray(), 0.5, seed=1)
        assert not rec.passed
        np.testing.assert_allclose(rec.gen_max, 2.0, rtol=1e-12)

    def test_pipeline_k5(self):
        d = decompose(generate_odn("complete", 5, weight=1.0))
        res = sparsify_laplacian(d, 0.3, seed=7)
        rec = verify_sparsifier(d.laplacian, res.laplacian, 0.3, seed=7)
        assert rec.passed
        assert rec.mode == "exact"
        # probes can never exit the exact extremes
        assert rec.probe_min >= rec.gen_min - 1e-9
        assert rec.probe_max <= rec.gen_max + 1e-9

    def test_zero_pair_trivially_passes(self):
        lap = np.zeros((3, 3))
        rec = verify_sparsifier(lap, lap, 0.2)
        assert rec.passed
        assert rec.mode == "trivial-zero"

    def test_kernel_leak_fails(self):
        # candidate has an edge the reference lacks, across components
        ref = decompose(two_component_graph()).laplacian_dense()
        bad = ref.copy()
        bad[0, 6] = bad[6, 0] = -1.0
        bad[0, 0] += 1.0
        bad[6, 6] += 1.0
        rec = verify_sparsifier(ref, bad, 0.5, seed=3)
        assert not rec.passed
        assert rec.kernel_leak > 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            verify_sparsifier(np.zeros((2, 2)), np.zeros((3, 3)), 0.2)

    def test_probes_only_mode(self):
        d = decompose(generate_odn("complete", 12, weight=1.0))
        rec = verify_sparsifier(
            PairSpectra(d.laplacian, d.laplacian, dense_limit=4),
            epsilon=0.2, probes=64, seed=0,
        )
        assert rec.mode == "probes-only"
        assert rec.passed


class TestRatioCheck:
    def test_identical(self):
        d = decompose(generate_odn("complete", 6, weight=2.0))
        assert eigenvalue_ratio_check(d.laplacian, d.laplacian, 0.1).passed

    def test_scaled_boundary(self):
        d = decompose(generate_odn("complete", 6, weight=1.0))
        scaled = 1.3 * d.laplacian_dense()
        assert eigenvalue_ratio_check(d.laplacian, scaled, 0.3 + 1e-12).passed
        assert not eigenvalue_ratio_check(d.laplacian, scaled, 0.2).passed

    def test_pipeline(self):
        d = decompose(generate_odn("complete", 5, weight=1.0))
        res = sparsify_laplacian(d, 0.3, seed=7)
        assert eigenvalue_ratio_check(d.laplacian, res.laplacian, 0.3).passed
