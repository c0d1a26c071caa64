import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

from odnsparse import (
    DenseLimitExceededError,
    DimensionMismatchError,
    InvalidConstantError,
    InvalidEpsilonError,
    OdnError,
    OdnMatrix,
    PairSpectra,
    decompose,
    effective_resistances,
    eigenvalue_deviation_bound,
    generate_odn,
    sample_count,
    sparsifier_norm_check,
    sparsify_laplacian,
    validate_odn,
    verify_sparsifier,
)
from odnsparse import spectra
from odnsparse.sparsify import _draw_counts
from odnsparse.spectra import PINV_CUTOFF

from conftest import complete_with_isolated_vertex, dense_pencil, random_odn


def two_component_graph():
    """K4 on {0..3} plus a 3-path on {4..6}: deliberately disconnected."""
    i4, j4 = np.triu_indices(4, k=1)
    rows = np.concatenate([i4, [4, 5]])
    cols = np.concatenate([j4, [5, 6]])
    vals = np.concatenate([np.full(6, 2.0), [1.0, 3.0]])
    return OdnMatrix(7, rows, cols, vals, np.zeros(7))


def resistances_by_edge_differences(spectra: PairSpectra) -> np.ndarray:
    """Reference: R_e = sum_k (v_ik - v_jk)^2 / mu_k over L's eigenpairs,
    the O(m * n) formula, evaluated in blocks of edges."""
    mu, vecs = spectra.laplacian_eigh
    inv = np.zeros_like(mu)
    keep = mu > PINV_CUTOFF * max(float(mu[-1]), 0.0)
    inv[keep] = 1.0 / mu[keep]
    src = spectra.matrix
    out = np.empty(src.stored_pairs)
    for start in range(0, len(out), 2048):
        block = slice(start, start + 2048)
        diff = vecs[src.rows[block]] - vecs[src.cols[block]]
        out[block] = (diff * diff) @ inv
    return out


def log_weight_grid():
    """60 x 60 grid with weights 10**U(-4, 0): four decades of conductance."""
    grid = generate_odn("grid", rows=60, cols=60)
    weights = 10.0 ** np.random.default_rng(11).uniform(-4.0, 0.0, grid.stored_pairs)
    return OdnMatrix(grid.n, grid.rows, grid.cols, weights, grid.diag)


PSEUDOINVERSE_INPUTS = {
    "grid-30x30": lambda: generate_odn("grid", rows=30, cols=30, diag=("uniform", 0, 1)),
    "complete-300": lambda: generate_odn("complete", 300, seed=1),
    "erdos-renyi-500": lambda: generate_odn("erdos-renyi", 500, density=0.01, seed=0),
    "grid-60x60-log-weights": log_weight_grid,
}


class TestEffectiveResistances:
    @pytest.mark.parametrize("name", PSEUDOINVERSE_INPUTS)
    def test_pseudoinverse_matches_edge_differences(self, name):
        d = decompose(PSEUDOINVERSE_INPUTS[name]())
        spectra = PairSpectra(d)
        resistance, _ = effective_resistances(spectra)
        np.testing.assert_allclose(
            resistance, resistances_by_edge_differences(spectra), rtol=1e-10
        )
        # Foster: sum_e w_e R_e = n - components.
        np.testing.assert_allclose(
            (d.matrix.vals * resistance).sum(), d.n - d.components[0], rtol=1e-8
        )

    def test_exact_memory_is_quadratic_in_n(self):
        d = decompose(generate_odn("complete", 300, seed=1))
        spectra = PairSpectra(d)
        spectra.laplacian_eigh
        n, m = d.n, d.matrix.stored_pairs
        tracemalloc.start()
        try:
            effective_resistances(spectra)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * (n * n + m) * 8

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

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), None],
                             ids=["0", "-1", "nan", "inf", "None"])
    def test_constant_must_be_finite_and_positive(self, bad):
        with pytest.raises(InvalidConstantError):
            sample_count(5, 0.25, bad)
        # Checked before the resistances, also for an input with no edges.
        for matrix in (generate_odn("complete", 4, weight=1.0),
                       generate_odn("erdos-renyi", 4, density=0.0)):
            pair = PairSpectra(decompose(matrix))
            with pytest.raises(InvalidConstantError):
                sparsify_laplacian(pair, 0.25, constant=bad)
            assert "laplacian_eigh" not in vars(pair)

    @pytest.mark.parametrize("epsilon,constant", [(1e-200, 9.0), (1e-160, 9.0),
                                                  (0.25, 1e308)])
    def test_budget_not_finite_raises(self, epsilon, constant):
        with pytest.raises(OdnError, match="not finite"):
            sample_count(5, epsilon, constant)

    def test_budget_past_numpy_largest_array_raises(self, monkeypatch):
        """Without sysconf's memory size, the allocation itself is tried: past
        numpy's largest array (q = 7.2e21) it fails, and the error is typed."""
        from odnsparse import sparsify as sparsify_module

        def no_sysconf(name):
            raise ValueError(name)

        monkeypatch.setattr(sparsify_module.os, "sysconf", no_sysconf)
        d = decompose(generate_odn("complete", 5, weight=1.0))
        q = sample_count(5, 1e-10, 9.0)
        with pytest.raises(OdnError, match=f"q={q} needs {8 * q} bytes"):
            sparsify_laplacian(d, 1e-10, seed=0)

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


def reference_counts(uniforms, cumulative):
    """The per-draw sampler that `_draw_counts` replaced: one search per
    uniform, the overshoot clamped onto the last edge, then a bincount."""
    drawn = np.searchsorted(cumulative, uniforms, side="right")
    drawn = np.minimum(drawn, len(cumulative) - 1)
    return np.bincount(drawn, minlength=len(cumulative))


SAMPLER_INPUTS = {
    "grid-30x30": lambda: generate_odn("grid", rows=30, cols=30),
    "complete-400": lambda: generate_odn("complete", 400, seed=1),
    "erdos-renyi-500": lambda: generate_odn("erdos-renyi", 500, density=0.01, seed=3),
}


class TestSampler:
    @pytest.mark.parametrize("name", sorted(SAMPLER_INPUTS))
    def test_counts_and_adjacency_match_reference(self, name):
        d = decompose(SAMPLER_INPUTS[name]())
        if name.startswith("erdos"):
            assert d.components[0] > 1
        pair = PairSpectra(d)  # one eigensolve for all seeds
        _, probability = effective_resistances(pair)
        cumulative = np.cumsum(probability)
        q = sample_count(d.n, 0.25, 9.0)
        src = d.matrix
        for seed in range(5):
            uniforms = np.random.Generator(np.random.PCG64(seed)).random(q)
            expected = reference_counts(uniforms, cumulative)
            assert np.array_equal(_draw_counts(uniforms.copy(), cumulative), expected)

            keep = expected > 0
            w = (src.vals * (expected / (q * probability)))[keep]
            i, j = src.rows[keep], src.cols[keep]
            reference = sp.csr_matrix(
                (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
                shape=(d.n, d.n),
            )
            got = sparsify_laplacian(pair, 0.25, seed=seed).adjacency
            assert np.array_equal(got.indptr, reference.indptr)
            assert np.array_equal(got.indices, reference.indices)
            assert np.array_equal(got.data, reference.data)

    def test_single_edge(self):
        uniforms = np.random.default_rng(0).random(50)
        counts = _draw_counts(uniforms.copy(), np.array([1.0]))
        assert np.array_equal(counts, reference_counts(uniforms, np.array([1.0])))
        assert counts.tolist() == [50]

    def test_uniforms_on_boundaries(self):
        cumulative = np.array([0.0, 0.25, 0.25, 0.5, 0.75, 1.0])
        uniforms = np.array([0.0, 0.25, 0.25, 0.5, 0.75, 0.75, 0.1, 0.9, 0.5])
        counts = _draw_counts(uniforms.copy(), cumulative)
        assert np.array_equal(counts, reference_counts(uniforms, cumulative))
        assert counts.tolist() == [0, 2, 0, 2, 2, 3]

    def test_last_cumulative_below_one_clamps(self):
        probability = np.full(10, 0.1)
        cumulative = np.cumsum(probability)
        assert cumulative[-1] < 1.0
        cumulative[-1] = 1.0 - 2.0**-20  # force a gap below 1
        uniforms = np.concatenate([
            np.random.default_rng(1).random(200),
            np.linspace(cumulative[-1], np.nextafter(1.0, 0.0), 7),
        ])
        counts = _draw_counts(uniforms.copy(), cumulative)
        assert np.array_equal(counts, reference_counts(uniforms, cumulative))
        assert counts.sum() == len(uniforms)


EPSILON_ENTRY_POINTS = {
    "sparsify_laplacian": lambda pair, eps: sparsify_laplacian(pair, eps),
    "verify_sparsifier": lambda pair, eps: verify_sparsifier(pair, epsilon=eps),
    "sparsifier_norm_check": lambda pair, eps: sparsifier_norm_check(pair, epsilon=eps),
    "eigenvalue_deviation_bound": lambda pair, eps: eigenvalue_deviation_bound(pair, eps),
}


@pytest.mark.parametrize("bad", [None, 0.0, 1.0, 1.5, -0.2, float("nan"), float("inf")],
                         ids=["None", "0", "1", "1.5", "-0.2", "nan", "inf"])
@pytest.mark.parametrize("entry", sorted(EPSILON_ENTRY_POINTS))
def test_epsilon_outside_open_unit_interval_raises(entry, bad):
    """Every entry point that takes epsilon rejects anything outside (0, 1)
    with InvalidEpsilonError, before it builds any held Laplacian."""
    d = decompose(generate_odn("complete", 6, weight=1.0))
    pair = PairSpectra(d, d)
    with pytest.raises(InvalidEpsilonError):
        EPSILON_ENTRY_POINTS[entry](pair, bad)
    assert not {"laplacian", "laplacian_hat"} & vars(pair).keys()


class TestVerify:
    @pytest.mark.parametrize("spec", [
        dict(model="complete", n=40, seed=3),
        dict(model="grid", rows=6, cols=6, seed=3),
    ], ids=["dense", "sparse"])
    def test_laplacian_solved_before_hat_is_held(self, spec, monkeypatch):
        """verify_sparsifier solves eigh(L) while L_hat's held form does not
        exist yet, so the two dense Laplacians are never both alive in it."""
        d = decompose(generate_odn(**spec))
        res = sparsify_laplacian(d, 0.25, seed=1)
        pair = PairSpectra(d, res)
        held = []

        def solving(x, *args, _eigh=spectra.np.linalg.eigh, **kwargs):
            held.append("laplacian_hat" in vars(pair))
            return _eigh(x, *args, **kwargs)

        monkeypatch.setattr(spectra.np.linalg, "eigh", solving)
        assert verify_sparsifier(pair, epsilon=0.25).passed
        assert held == [False]

    def test_identical_passes(self):
        d = decompose(generate_odn("erdos-renyi", 12, density=0.5, seed=2))
        rec = verify_sparsifier(d.laplacian, d.laplacian, 0.1)
        assert rec.passed
        np.testing.assert_allclose([rec.gen_min, rec.gen_max], 1.0, rtol=1e-12)

    def test_doubled_fails_with_ratio_two(self):
        d = decompose(generate_odn("erdos-renyi", 12, density=0.5, seed=2))
        rec = verify_sparsifier(d.laplacian, 2 * d.laplacian.toarray(), 0.5)
        assert not rec.passed
        np.testing.assert_allclose(rec.gen_max, 2.0, rtol=1e-12)

    def test_pipeline_k5(self):
        d = decompose(generate_odn("complete", 5, weight=1.0))
        res = sparsify_laplacian(d, 0.3, seed=7)
        rec = verify_sparsifier(d.laplacian, res.laplacian, 0.3)
        assert rec.passed
        assert rec.mode == "exact"

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
        rec = verify_sparsifier(ref, bad, 0.5)
        assert not rec.passed
        assert rec.kernel_leak > 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            verify_sparsifier(np.zeros((2, 2)), np.zeros((3, 3)), 0.2)

    def test_zero_reference_against_nonzero_candidate_fails(self):
        cand = decompose(two_component_graph()).laplacian_dense()
        rec = verify_sparsifier(np.zeros((7, 7)), cand, 0.2)
        assert not rec.passed
        assert rec.mode == "trivial-zero"
        assert rec.kernel_leak == np.abs(cand).max()
        assert rec.gen_min is None and rec.gen_max is None

    def test_invalid_epsilon(self):
        lap = decompose(generate_odn("complete", 4, weight=1.0)).laplacian
        for bad in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(InvalidEpsilonError):
                verify_sparsifier(lap, lap, bad)

    @pytest.mark.parametrize("name", sorted(SAMPLER_INPUTS))
    def test_dense_and_sparse_products_agree(self, name, monkeypatch):
        d = decompose(SAMPLER_INPUTS[name]())
        res = sparsify_laplacian(d, 0.25, seed=2)
        extremes = []
        for share in (0, d.n * d.n):  # always dense, never dense
            monkeypatch.setattr(spectra, "_DENSE_PRODUCT_SHARE", share)
            rec = verify_sparsifier(d.laplacian, res.laplacian, 0.25)
            extremes.append([rec.gen_min, rec.gen_max])
        np.testing.assert_allclose(extremes[0], extremes[1], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("name,limit,dense", [
        ("grid-30x30", spectra.DENSE_LIMIT, False),
        ("complete-400", spectra.DENSE_LIMIT, True),
        ("complete-400", 399, False),
    ])
    def test_product_path(self, name, limit, dense, monkeypatch):
        lap = decompose(SAMPLER_INPUTS[name]()).laplacian
        calls = []
        toarray = sp.csr_matrix.toarray
        monkeypatch.setattr(sp.csr_matrix, "toarray",
                            lambda self, *a, **k: calls.append(1) or toarray(self, *a, **k))
        block = np.random.default_rng(0).standard_normal((lap.shape[0], 8))
        operand = PairSpectra(dense_limit=limit)._cheaper_form(
            lap, spectra._DENSE_PRODUCT_SHARE)
        got = operand @ block
        assert len(calls) == int(dense)
        np.testing.assert_allclose(got, lap @ block, rtol=1e-12, atol=1e-12)

    def test_above_dense_limit_raises(self):
        d = decompose(generate_odn("complete", 12, weight=1.0))
        with pytest.raises(DenseLimitExceededError):
            verify_sparsifier(PairSpectra(d.laplacian, d.laplacian, dense_limit=4),
                              epsilon=0.2)


class TestSparsifierMatrix:
    """M_hat straight from the sampler's edges, without validate_odn."""

    @pytest.mark.parametrize("matrix", [
        generate_odn("grid", rows=30, cols=30, seed=1, diag=("uniform", 0, 1)),
        generate_odn("complete", 400, seed=3, diag=("uniform", 0, 1)),
        generate_odn("erdos-renyi", 500, density=0.01, seed=4, diag=("uniform", 0, 1)),
        generate_odn("erdos-renyi", 50, density=0.0, diag=("uniform", 0, 1)),
        OdnMatrix(1, [], [], [], [3.5]),
    ], ids=["grid", "complete", "erdos-renyi-disconnected", "no-edges", "n-one"])
    def test_equals_reconstruct(self, matrix):
        from odnsparse import reconstruct

        d = decompose(matrix)
        if matrix.n == 500:
            assert d.components[0] > 1
        res = sparsify_laplacian(d, 0.25, seed=7)
        m_hat = res.matrix(d.center)
        assert m_hat == reconstruct(res.adjacency, d.center)
        assert m_hat.nnz <= res.nnz_after

    @pytest.fixture
    def validations(self, monkeypatch):
        from odnsparse import core

        calls = []

        def counting(*args, _validate=core._validate_sparse, **kwargs):
            calls.append(args)
            return _validate(*args, **kwargs)

        monkeypatch.setattr(core, "_validate_sparse", counting)
        return calls

    def test_sparsify_command_validates_nothing(self, validations, tmp_path, capsys):
        from odnsparse.cli import main

        code = main(["sparsify", "--gen", "grid:rows=6,cols=6,diag=uniform(0,1)",
                     "--out-matrix", str(tmp_path / "m.mtx")])
        assert code == 0
        assert validations == []

    def test_pca_compare_validates_nothing(self, validations):
        from odnsparse import pca_compare

        matrix = generate_odn("equicorrelation", 30, correlation=0.4)
        assert pca_compare(matrix, 0.25, 3, seed=2).passed
        assert validations == []


def _with_isolated_vertex():
    """A 6x6 grid plus one vertex with no edges."""
    grid = generate_odn("grid", rows=6, cols=6, seed=2, diag=("uniform", 0, 1))
    return OdnMatrix(37, grid.rows, grid.cols, grid.vals, np.append(grid.diag, 0.5))


EXACT_VERDICT_INPUTS = [
    lambda: generate_odn("complete", 60, seed=4, diag=("uniform", 0, 1)),
    lambda: generate_odn("complete", 400, seed=3, diag=("uniform", 0, 1)),
    lambda: generate_odn("erdos-renyi", 120, density=0.02, seed=5),
    _with_isolated_vertex,
    complete_with_isolated_vertex,
]
EXACT_VERDICT_IDS = ["connected", "complete-400", "disconnected", "isolated-vertex",
                     "dense-isolated-vertex"]


class TestExactVerdict:
    @pytest.mark.parametrize("make", EXACT_VERDICT_INPUTS, ids=EXACT_VERDICT_IDS)
    @pytest.mark.parametrize("raw", [False, True], ids=["decomposition", "laplacian"])
    def test_extremes_match_dense_reduction(self, make, raw):
        """The verdict's extremes bracket those of the dense pencil on L's
        range, within 1e-12 of their scale, from a decomposition or from bare
        Laplacians, and quadratic forms centred on each component of the graph
        stay inside them."""
        d = decompose(make())
        if not raw:
            assert (d.components[0] == 1) == (d.n in (60, 400))
        res = sparsify_laplacian(d, 0.3, seed=3)
        pair = PairSpectra(d.laplacian, res.laplacian) if raw else PairSpectra(d, res)
        rec = verify_sparsifier(pair, epsilon=0.3)
        assert rec.mode == "exact"
        expected = dense_pencil(d.laplacian, res.laplacian)
        # A bracket, not a match: the widening's rounding allowance n * eps
        # alone is 8.9e-14 relative at n = 400.
        assert rec.gen_min <= expected[0] and expected[-1] <= rec.gen_max
        widening = max(expected[0] - rec.gen_min, rec.gen_max - expected[-1])
        assert widening <= 1e-12 * np.abs(expected).max()
        assert rec.kernel_leak <= 1e-8 * np.linalg.norm(d.laplacian_dense(), 2)
        assert rec.passed == (rec.gen_min >= 0.7 - 1e-9 and rec.gen_max <= 1.3 + 1e-9)
        labels = connected_components(sp.csr_matrix(d.laplacian_dense() != 0),
                                      directed=False)[1]
        x = np.random.default_rng(9).standard_normal((d.n, 200))
        for c in np.unique(labels):
            x[labels == c] -= x[labels == c].mean(axis=0)
        ratios = (np.einsum("ij,ij->j", x, res.laplacian @ x)
                  / np.einsum("ij,ij->j", x, d.laplacian @ x))
        assert rec.gen_min - 1e-9 <= ratios.min() and ratios.max() <= rec.gen_max + 1e-9

    @pytest.mark.parametrize("make", EXACT_VERDICT_INPUTS, ids=EXACT_VERDICT_IDS)
    @pytest.mark.parametrize("raw", [False, True], ids=["decomposition", "laplacian"])
    def test_widened_extremes_bracket_dense_pencil(self, make, raw):
        """ARPACK's extremes, each widened by its Ritz residual and the rounding
        allowance, hold the dense pencil's extremes, within 1e-12 of scale."""
        d = decompose(make())
        res = sparsify_laplacian(d, 0.3, seed=3)
        pair = PairSpectra(d.laplacian, res.laplacian) if raw else PairSpectra(d, res)
        rec = verify_sparsifier(pair, epsilon=0.3)
        assert pair.paths["pencil"] == "arpack"
        expected = dense_pencil(d.laplacian, res.laplacian)
        assert rec.gen_min <= expected[0] and expected[-1] <= rec.gen_max
        widening = max(expected[0] - rec.gen_min, rec.gen_max - expected[-1])
        assert widening <= 1e-12 * np.abs(expected).max()

    def test_small_pencil_is_solved_dense(self):
        """A reduced pencil below 3 rows, here a path on 3 vertices (rank 2),
        is too small for ARPACK's two extremes: eigvalsh solves it."""
        d = decompose(generate_odn("path", 3, seed=1))
        pair = PairSpectra(d, sparsify_laplacian(d, 0.3, seed=3))
        rec = verify_sparsifier(pair, epsilon=0.3)
        assert pair.paths["pencil"] == "dense"
        expected = dense_pencil(d.laplacian, pair.hat.laplacian)
        np.testing.assert_allclose([rec.gen_min, rec.gen_max], expected[[0, -1]],
                                   rtol=1e-13)

    def test_pencil_falls_back_to_dense_without_convergence(self, monkeypatch):
        """When ARPACK does not converge, the pencil's extremes are those of the
        dense solve of the same reduced matrix."""
        d = decompose(generate_odn("complete", 60, seed=4, diag=("uniform", 0, 1)))
        res = sparsify_laplacian(d, 0.3, seed=3)
        reduced = []

        def not_converged(operand, *args, **kwargs):
            reduced.append(operand.copy())
            raise ArpackNoConvergence("0 of 2", np.zeros(0), np.zeros((len(operand), 0)))

        monkeypatch.setattr(spectra, "eigsh", not_converged)
        pair = PairSpectra(d, res)
        rec = verify_sparsifier(pair, epsilon=0.3)
        assert pair.paths["pencil"] == "dense"
        values = np.linalg.eigvalsh(reduced[0])
        assert (rec.gen_min, rec.gen_max) == (values[0], values[-1])

    def test_pencil_restarts_are_capped(self, monkeypatch):
        """A path on 50 vertices has a double lowest pencil eigenvalue, on which
        ARPACK did not converge in its default 10 n restarts (8354 products):
        it gets _PENCIL_RESTARTS restarts of ncv - k = 18 products after its
        first 20, and whichever solve decides, the extremes are the pencil's."""
        d = decompose(generate_odn("path", 50))
        res = sparsify_laplacian(d, 0.25, seed=0)
        products = []

        def counting(operand, *args, _eigsh=spectra.eigsh, **kwargs):
            def matvec(x):
                products.append(1)
                return operand @ x

            return _eigsh(LinearOperator(operand.shape, matvec=matvec, dtype=np.float64),
                          *args, **kwargs)

        monkeypatch.setattr(spectra, "eigsh", counting)
        rec = verify_sparsifier(PairSpectra(d, res), epsilon=0.25)
        assert 0 < len(products) <= 20 + 18 * spectra._PENCIL_RESTARTS
        expected = dense_pencil(d.laplacian, res.laplacian)
        np.testing.assert_allclose([rec.gen_min, rec.gen_max], expected[[0, -1]],
                                   rtol=1e-13)

    @pytest.mark.parametrize("make", EXACT_VERDICT_INPUTS, ids=EXACT_VERDICT_IDS)
    @pytest.mark.parametrize("raw", [False, True], ids=["decomposition", "laplacian"])
    def test_in_place_scaling_is_bit_identical(self, make, raw, monkeypatch):
        """The pencil scaled in row blocks, with V and L_hat V freed before the
        solve, hands ARPACK exactly (V' L_hat V) * outer(s, s)."""
        d = decompose(make())
        res = sparsify_laplacian(d, 0.3, seed=3)
        def make_pair():
            return PairSpectra(d.laplacian, res.laplacian) if raw else PairSpectra(d, res)

        pair, former = make_pair(), make_pair()
        mu, vecs = former.laplacian_eigh
        split = int(np.searchsorted(mu, PINV_CUTOFF * max(float(mu[-1]), 0.0), "right"))
        hat_vecs = former._cheaper_form(former.laplacian_hat, spectra._DENSE_PRODUCT_SHARE) @ vecs
        s = 1.0 / np.sqrt(mu[split:])
        expected = (vecs[:, split:].T @ hat_vecs[:, split:]) * np.outer(s, s)
        solved = []

        def recording(operand, *args, _eigsh=spectra.eigsh, **kwargs):
            solved.append(operand.copy())
            return _eigsh(operand, *args, **kwargs)

        monkeypatch.setattr(spectra, "eigsh", recording)
        pair.pencil
        assert pair.paths["pencil"] == "arpack"
        assert len(solved) == 1 and np.array_equal(solved[0], expected)
