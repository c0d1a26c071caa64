import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

from odnsparse import (
    DenseLimitExceededError,
    DimensionMismatchError,
    FactorizationError,
    InvalidConstantError,
    InvalidEpsilonError,
    InvalidSeedError,
    OdnError,
    OdnMatrix,
    PairSpectra,
    decompose,
    effective_resistances,
    eigenvalue_deviation_bound,
    generate_odn,
    sample_count,
    sparsify_laplacian,
    spectral_report,
    validate_odn,
    verify_sparsifier,
    write_matrix_market,
)
from odnsparse import spectra
from odnsparse import sparsify as sparsify_module

from conftest import (
    complete_with_isolated_vertex,
    dense_pencil,
    grounded_lowest,
    grounded_resistances,
    random_odn,
)


def two_component_graph():
    """K4 on {0..3} plus a 3-path on {4..6}: deliberately disconnected."""
    i4, j4 = np.triu_indices(4, k=1)
    rows = np.concatenate([i4, [4, 5]])
    cols = np.concatenate([j4, [5, 6]])
    vals = np.concatenate([np.full(6, 2.0), [1.0, 3.0]])
    return OdnMatrix(7, rows, cols, vals, np.zeros(7))


def log_weight_grid():
    """60 x 60 grid with weights 10**U(-4, 0): four decades of conductance."""
    grid = generate_odn("grid", rows=60, cols=60)
    weights = 10.0 ** np.random.default_rng(11).uniform(-4.0, 0.0, grid.stored_pairs)
    return OdnMatrix(grid.n, grid.rows, grid.cols, weights, grid.diag)


RESISTANCE_INPUTS = {
    "grid-30x30": lambda: generate_odn("grid", rows=30, cols=30, diag=("uniform", 0, 1)),
    "complete-300": lambda: generate_odn("complete", 300, seed=1),
    "erdos-renyi-500": lambda: generate_odn("erdos-renyi", 500, density=0.01, seed=0),
    "grid-60x60-log-weights": log_weight_grid,
}


class TestEffectiveResistances:
    @pytest.mark.parametrize("name", RESISTANCE_INPUTS)
    def test_grounded_factor_matches_grounded_solve(self, name):
        d = decompose(RESISTANCE_INPUTS[name]())
        resistance, _ = effective_resistances(PairSpectra(d))
        np.testing.assert_allclose(resistance, grounded_resistances(d.matrix), rtol=1e-10)
        # Foster: sum_e w_e R_e = n - components.
        np.testing.assert_allclose(
            (d.matrix.vals * resistance).sum(), d.n - d.components[0], rtol=1e-8
        )

    def test_exact_memory_is_quadratic_in_n(self):
        d = decompose(generate_odn("complete", 300, seed=1))
        spectra = PairSpectra(d)
        spectra.grounded_factor
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

    @pytest.mark.parametrize("bad", [-1, -4, np.int64(-2), 1.5, 2.0, "3", None, True],
                             ids=["-1", "-4", "int64-negative", "1.5", "2.0", "str", "None",
                                  "bool"])
    def test_seed_must_be_a_non_negative_integer(self, bad, monkeypatch):
        """Checked first, whatever the edge count: before any resistance on an
        input with edges, and on one without, where no draw reads the seed."""
        def no_resistances(*args, **kwargs):
            raise AssertionError("resistances computed before the seed was checked")

        monkeypatch.setattr(sparsify_module, "effective_resistances", no_resistances)
        for matrix in (generate_odn("complete", 4, weight=1.0),
                       generate_odn("erdos-renyi", 4, density=0.0)):
            pair = PairSpectra(decompose(matrix))
            with pytest.raises(InvalidSeedError, match="seed must be a non-negative integer"):
                sparsify_laplacian(pair, 0.25, seed=bad)
            assert "grounded_factor" not in vars(pair)

    def test_numpy_integer_seed_is_the_same_seed(self):
        d = decompose(generate_odn("complete", 6, seed=2))
        for seed in (0, 7):
            edges = sparsify_laplacian(d, 0.5, seed=seed).edges
            same = sparsify_laplacian(d, 0.5, seed=np.int64(seed))
            assert same.seed == seed and type(same.seed) is int
            assert np.array_equal(same.edges.vals, edges.vals)
            assert np.array_equal(same.edges.rows, edges.rows)

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
            assert "grounded_factor" not in vars(pair)

    @pytest.mark.parametrize("epsilon,constant", [(1e-200, 9.0), (1e-160, 9.0),
                                                  (0.25, 1e308)])
    def test_budget_not_finite_raises(self, epsilon, constant):
        with pytest.raises(OdnError, match="not finite"):
            sample_count(5, epsilon, constant)

    def test_budget_past_numpy_largest_array_raises(self):
        """q = 7.2e21 is past int64, numpy's largest array and the count type of
        the multinomial draw: a typed error naming q and the limit, raised
        before the resistances are read."""
        pair = PairSpectra(decompose(generate_odn("complete", 5, weight=1.0)))
        q = sample_count(5, 1e-10, 9.0)
        limit = np.iinfo(np.int64).max
        assert q > limit
        with pytest.raises(OdnError, match=f"q={q} is past the int64 limit {limit}"):
            sparsify_laplacian(pair, 1e-10, seed=0)
        assert "grounded_factor" not in vars(pair)

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


SAMPLER_INPUTS = {
    "grid-30x30": lambda: generate_odn("grid", rows=30, cols=30),
    "complete-400": lambda: generate_odn("complete", 400, seed=1),
    "erdos-renyi-500": lambda: generate_odn("erdos-renyi", 500, density=0.01, seed=3),
}
# Sampler seeds of the law tests: the means over them are compared with
# 4 standard deviations of a mean over LAW_SEEDS independent draws.
LAW_SEEDS = 200


def sampler_stream(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        [seed, sparsify_module.SAMPLER_TAG])))


def drawn_counts(result, src, probability):
    """Per-edge draw counts of a sparsifier of `src`, read back from its weights
    w_e c_e / (q p_e); 0 for an edge it dropped."""
    kept = np.isin(src.rows * src.n + src.cols, result.edges.rows * src.n + result.edges.cols)
    exact = result.edges.vals * result.samples_drawn * probability[kept] / src.vals[kept]
    counts = np.zeros(src.stored_pairs)
    counts[kept] = np.rint(exact)
    np.testing.assert_allclose(exact, counts[kept], rtol=1e-9)
    return counts


def assert_multinomial_law(counts, probability, q):
    """Rows of `counts` are independent multinomial(q, probability) draws: their
    mean kept share is within 4 sd of sum(1 - (1 - p_e)^q) / m, and their mean
    count per edge in each leverage decile within 4 sd of q p_e's mean there.
    Kept indicators are negatively correlated, so sum pi (1 - pi) bounds the
    variance of the kept count."""
    draws, m = counts.shape
    kept = 1.0 - (1.0 - probability) ** q
    sd = np.sqrt(np.sum(kept * (1.0 - kept))) / m / np.sqrt(draws)
    assert abs((counts > 0).mean() - kept.mean()) <= 4.0 * sd + 1e-12
    for decile in np.array_split(np.argsort(probability, kind="stable"), 10):
        share = probability[decile].sum()
        sd = np.sqrt(q * share * (1.0 - share)) / len(decile) / np.sqrt(draws)
        mean = counts[:, decile].sum(axis=1).mean() / len(decile)
        assert abs(mean - q * share / len(decile)) <= 4.0 * sd


class TestSampler:
    @pytest.mark.parametrize("name", sorted(SAMPLER_INPUTS))
    def test_counts_and_adjacency_match_reference(self, name):
        """The sampled adjacency is w_e c_e / (q p_e) on the drawn edges, with
        c the multinomial counts of the sampler's own stream."""
        d = decompose(SAMPLER_INPUTS[name]())
        if name.startswith("erdos"):
            assert d.components[0] > 1
        pair = PairSpectra(d)  # one eigensolve for all seeds
        _, probability = effective_resistances(pair)
        q = sample_count(d.n, 0.25, 9.0)
        src = d.matrix
        for seed in range(5):
            counts = sampler_stream(seed).multinomial(q, probability)
            assert counts.sum() == q
            keep = counts > 0
            w = (src.vals * (counts / (q * probability)))[keep]
            i, j = src.rows[keep], src.cols[keep]
            reference = sp.csr_matrix(
                (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
                shape=(d.n, d.n),
            )
            got = sparsify_laplacian(pair, 0.25, seed=seed).adjacency
            assert np.array_equal(got.indptr, reference.indptr)
            assert np.array_equal(got.indices, reference.indices)
            assert np.array_equal(got.data, reference.data)

    @pytest.mark.parametrize("name", ["complete-400", "grid-30x30"])
    def test_law_over_sampler_seeds(self, name):
        d = decompose(SAMPLER_INPUTS[name]())
        pair = PairSpectra(d)
        _, probability = effective_resistances(pair)
        q = sample_count(d.n, 0.25, 9.0)
        counts = np.array([drawn_counts(sparsify_laplacian(pair, 0.25, seed=seed), d.matrix,
                                        probability) for seed in range(LAW_SEEDS)])
        assert np.all(counts.sum(axis=1) == q)
        assert_multinomial_law(counts, probability, q)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("model", ["complete", "grid"])
    def test_law_when_generator_and_sampler_seeds_agree(self, model, seed):
        """An input drawn from PCG64(s) and sampled with seed s: the sampler's
        stream is its own, so one draw keeps the law. Read from PCG64(s), the
        multinomial keeps 0.9998 of complete n = 400's edges for s = 1."""
        if model == "complete":
            matrix = generate_odn("complete", 400, seed=seed)
        else:
            matrix = generate_odn("grid", rows=30, cols=30, seed=seed, diag=("uniform", 0, 1))
        pair = PairSpectra(decompose(matrix))
        _, probability = effective_resistances(pair)
        q = sample_count(matrix.n, 0.25, 9.0)
        counts = drawn_counts(sparsify_laplacian(pair, 0.25, seed=seed), matrix, probability)
        assert_multinomial_law(counts[None, :], probability, q)

    def test_single_edge(self):
        """A lone edge takes all q draws, whatever the seed."""
        d = decompose(generate_odn("complete", 2, weight=5.0))
        q = sample_count(2, 0.25, 9.0)
        for seed in (0, 1, 99):
            res = sparsify_laplacian(d, 0.25, seed=seed)
            assert drawn_counts(res, d.matrix, np.ones(1)).tolist() == [q]

    def test_last_cumulative_below_one_clamps(self):
        """The sampler relies on the multinomial giving its last edge 1 minus
        the other edges' sum: probabilities whose sum rounds below 1 still
        draw q in all, the last edge taking the gap."""
        probability = np.full(10, 0.1)
        assert np.cumsum(probability)[-1] < 1.0
        probability[-1] -= 2.0**-20  # force a gap below 1
        counts = sampler_stream(0).multinomial(1000, probability)
        assert counts.sum() == 1000
        assert np.array_equal(counts, sampler_stream(0).multinomial(
            1000, np.append(probability[:-1], 1.0 - probability[:-1].sum())))


@pytest.mark.skipif(np.__version__ != "2.4.6",
                    reason=f"the pin is numpy 2.4.6's multinomial stream, and numpy "
                           f"{np.__version__} is installed (NEP 19 lets it change)")
def test_sampler_stream_pinned():
    """One fixed-seed sparsifier's (rows, cols, vals) bytes, so a numpy whose
    multinomial stream moves is caught rather than silently resampled. The
    leverages' rounding to 24 bits keeps the weights' bytes the same under
    every OpenBLAS kernel tried (Prescott to SkylakeX and Zen), although the
    resistances round differently under each."""
    d = decompose(generate_odn("grid", rows=30, cols=30, seed=0))
    e = sparsify_laplacian(PairSpectra(d), 0.25, seed=0).edges
    digest = hashlib.sha256()
    for part in (e.rows.astype("<i8"), e.cols.astype("<i8"), e.vals.astype("<f8")):
        digest.update(part.tobytes())
    assert digest.hexdigest() == (
        "23f9f4b8986415cb51ffe78421a98d9d864f7e324d70632933ad99ce5f89c356")


EPSILON_ENTRY_POINTS = {
    "sparsify_laplacian": lambda pair, eps: sparsify_laplacian(pair, eps),
    "verify_sparsifier": lambda pair, eps: verify_sparsifier(pair, epsilon=eps),
    "eigenvalue_deviation_bound": lambda pair, eps: eigenvalue_deviation_bound(pair, eps),
    "spectral_report": lambda pair, eps: spectral_report(pair, epsilon=eps),
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


def _dense_norm(x: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(x)).max(initial=0.0))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 24), density=st.sampled_from([0.3, 0.7, 1.0]),
       split=st.booleans(), zero_diag=st.booleans(), spread=st.sampled_from([None, 0.1, 0.6]),
       epsilon=st.sampled_from([0.1, 0.25, 0.5]), seed=st.integers(0, 2**16))
@example(n=1, density=1.0, split=False, zero_diag=False, spread=None, epsilon=0.25, seed=0)
@example(n=3, density=1.0, split=False, zero_diag=True, spread=None, epsilon=0.25, seed=1)
@example(n=3, density=1.0, split=False, zero_diag=False, spread=0.1, epsilon=0.25, seed=2)
@example(n=9, density=0.0, split=False, zero_diag=True, spread=None, epsilon=0.25, seed=3)
@example(n=10, density=1.0, split=True, zero_diag=False, spread=None, epsilon=0.25, seed=4)
@example(n=10, density=1.0, split=True, zero_diag=True, spread=0.6, epsilon=0.5, seed=5)
def test_passing_pencil_bounds_the_dense_laplacian_difference(
        n, density, split, zero_diag, spread, epsilon, seed):
    """Wherever the sparsifier inequality passes, numpy's dense
    ||L - L_hat||_2 is at most eps * rho(L): random ODN inputs, n <= 3, a
    graph with no edges, disconnected graphs (two blocks) and zero
    diagonals. L_hat is a sampled sparsifier of L, or L's graph with each
    weight scaled by a uniform factor within 1 +- spread, whose pencil may
    fail."""
    rng = np.random.default_rng(seed)
    matrix = random_odn(rng, n, density, *((0.0, 0.0) if zero_diag else ()))
    if split and n > 1:
        keep = (matrix.rows < n // 2) == (matrix.cols < n // 2)
        matrix = OdnMatrix(n, matrix.rows[keep], matrix.cols[keep], matrix.vals[keep],
                           matrix.diag)
    decomp = decompose(matrix)
    if spread is None:
        lap_hat = sparsify_laplacian(decomp, epsilon, seed).laplacian
    else:
        scaled = matrix.vals * rng.uniform(1 - spread, 1 + spread, len(matrix.vals))
        lap_hat = decompose(OdnMatrix(n, matrix.rows, matrix.cols, scaled,
                                      matrix.diag)).laplacian
    if verify_sparsifier(decomp.laplacian, lap_hat, epsilon).passed:
        lap = decomp.laplacian_dense()
        difference = _dense_norm(lap - (lap_hat.toarray() if sp.issparse(lap_hat)
                                        else np.asarray(lap_hat)))
        assert difference <= epsilon * _dense_norm(lap) * (1 + 1e-9)


class TestVerify:
    @pytest.mark.parametrize("spec", [
        dict(model="complete", n=40, seed=3),
        dict(model="grid", rows=6, cols=6, seed=3),
    ], ids=["dense", "sparse"])
    def test_laplacian_factored_before_hat_is_held(self, spec, monkeypatch):
        """verify_sparsifier factors L while L_hat's held form does not exist
        yet, so the two dense Laplacians are never both alive with it; the
        grid's L takes the band factor."""
        d = decompose(generate_odn(**spec))
        res = sparsify_laplacian(d, 0.25, seed=1)
        pair = PairSpectra(d, res)
        held = []

        for name in ("dpotrf", "dpbtrf"):
            def factoring(*args, _factor=getattr(spectra.lapack, name), **kwargs):
                held.append("laplacian_hat" in vars(pair))
                return _factor(*args, **kwargs)

            monkeypatch.setattr(spectra.lapack, name, factoring)
        assert verify_sparsifier(pair, epsilon=0.25).passed
        assert held == [False]
        assert pair.paths["factor"] == ("dense" if spec["model"] == "complete" else "band kd=6")

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
    def test_dense_and_sparse_forms_agree(self, name):
        """The verdict is the same whether each Laplacian is held as CSR or as
        a dense array: the grounded blocks copied from either are equal."""
        d = decompose(SAMPLER_INPUTS[name]())
        res = sparsify_laplacian(d, 0.25, seed=2)
        extremes = []
        for form in (sp.csr_matrix, np.asarray):
            lap = form(d.laplacian.toarray()) if form is np.asarray else d.laplacian
            lap_hat = form(res.laplacian.toarray()) if form is np.asarray else res.laplacian
            rec = verify_sparsifier(lap, lap_hat, 0.25)
            extremes.append([rec.gen_min, rec.gen_max])
        np.testing.assert_allclose(extremes[0], extremes[1], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("name", ["grid-30x30", "complete-400"])
    @pytest.mark.parametrize("dense", [False, True], ids=["csr", "dense"])
    def test_grounded_block(self, name, dense):
        """A Laplacian's grounded block comes out as a new Fortran-ordered
        array, which LAPACK and BLAS overwrite in place, from either form."""
        lap = decompose(SAMPLER_INPUTS[name]()).laplacian
        kept = np.arange(1, lap.shape[0], 2)
        held = lap.toarray() if dense else lap
        block = spectra._grounded_block(held, kept)
        assert block.flags.f_contiguous and not np.shares_memory(block, held)
        np.testing.assert_array_equal(block, lap.toarray()[np.ix_(kept, kept)])

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

    @pytest.mark.parametrize("n", range(3, 51))
    def test_path_pencil_brackets_its_exact_extremes(self, n):
        """A path is a tree: L = B W B' and L_hat = B W_hat B' with B's n - 1
        columns independent, so the pencil's eigenvalues are exactly the
        ratios w_hat_e / w_e, 0 for an edge not drawn. The widened extremes
        hold the least and the greatest, from ARPACK or from the dense solve
        (below 3 rows or without convergence). The rounding allowance's floor
        is what covers n = 3, 4, 6 and 50."""
        for generator_seed in (0, 1):
            d = decompose(generate_odn("path", n, seed=generator_seed))
            src = d.matrix
            assert src.stored_pairs == n - 1 and np.all(np.abs(src.rows - src.cols) == 1)
            weights = np.empty(n - 1)
            weights[np.minimum(src.rows, src.cols)] = src.vals
            for seed in (0, 1):
                res = sparsify_laplacian(d, 0.25, seed=seed)
                drawn = np.zeros(n - 1)
                drawn[np.minimum(res.edges.rows, res.edges.cols)] = res.edges.vals
                ratios = drawn / weights
                pair = PairSpectra(d, res)
                rec = verify_sparsifier(pair, epsilon=0.25)
                assert rec.mode == "exact", (generator_seed, seed)
                assert rec.gen_min <= ratios.min(), (generator_seed, seed, pair.paths)
                assert ratios.max() <= rec.gen_max, (generator_seed, seed, pair.paths)

    def test_pencil_falls_back_to_dense_without_convergence(self, monkeypatch):
        """When ARPACK does not converge, the pencil's extremes are those of the
        dense solve of the same reduced matrix, each moved outward by the
        rounding allowance alone."""
        d = decompose(generate_odn("complete", 60, seed=4, diag=("uniform", 0, 1)))
        res = sparsify_laplacian(d, 0.3, seed=3)
        reduced = []

        def not_converged(operand, *args, _eigsh=spectra.eigsh, **kwargs):
            if kwargs["which"] != "BE":  # rho(L)
                return _eigsh(operand, *args, **kwargs)
            reduced.append(operand.copy())
            raise ArpackNoConvergence("0 of 2", np.zeros(0), np.zeros((len(operand), 0)))

        monkeypatch.setattr(spectra, "eigsh", not_converged)
        pair = PairSpectra(d, res)
        rec = verify_sparsifier(pair, epsilon=0.3)
        assert pair.paths["pencil"] == "dense"
        values = np.linalg.eigvalsh(reduced[0])
        assert rec.gen_min < values[0] and values[-1] < rec.gen_max
        widening = max(values[0] - rec.gen_min, rec.gen_max - values[-1])
        assert widening <= 64 * np.finfo(float).eps * np.abs(values).max()

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
    def test_reduced_matrix_matches_dense_product(self, make, raw, monkeypatch):
        """The reduced matrix handed to ARPACK, formed in place by two `dtrmm`
        calls from a dense factor or applied by two `dtbsv` from a band factor
        (the sparse graphs), is C^-1 L_hat_g C^-T by numpy's
        Cholesky and inverse in the factor's vertex order, to 1e-12 of its
        scale."""
        d = decompose(make())
        res = sparsify_laplacian(d, 0.3, seed=3)
        pair = PairSpectra(d.laplacian, res.laplacian) if raw else PairSpectra(d, res)
        kept = pair.grounded_factor.kept
        assert pair.paths["factor"].startswith("band") == (d.matrix.nnz < d.n**2 / 2)
        block = np.ix_(kept, kept)
        inv = np.linalg.inv(np.linalg.cholesky(d.laplacian_dense()[block]))
        expected = inv @ res.laplacian_dense()[block] @ inv.T
        solved = []

        def recording(operand, *args, _eigsh=spectra.eigsh, **kwargs):
            dense = isinstance(operand, np.ndarray)
            solved.append(operand.copy() if dense else operand @ np.eye(operand.shape[0]))
            return _eigsh(operand, *args, **kwargs)

        monkeypatch.setattr(spectra, "eigsh", recording)
        pair.pencil
        assert pair.paths["pencil"] == "arpack"
        assert "grounded_factor" not in vars(pair)  # released before the solve
        assert len(solved) == 1
        np.testing.assert_allclose(solved[0], expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())


def weak_path() -> OdnMatrix:
    """A path on 3 vertices with edge weights (1e-20, 1)."""
    return OdnMatrix(3, [0, 1], [1, 2], [1e-20, 1.0], np.zeros(3))


class TestWeakEdge:
    """A path whose first edge is 1e-20 times its second. Its kernel is exact
    from the graph, so the weak edge keeps its resistance 1e20; a kernel cut
    at 1e-10 rho(L) read it as 0.25, and certified a sparsifier without it."""

    def test_resistances(self):
        resistance, probability = effective_resistances(decompose(weak_path()))
        np.testing.assert_allclose(resistance, [1e20, 1.0], rtol=1e-12)
        np.testing.assert_allclose(probability, [0.5, 0.5], rtol=1e-12)

    def test_sparsify_draws_both_edges_evenly(self):
        res = sparsify_laplacian(decompose(weak_path()), 0.25, seed=0)
        q = res.samples_drawn
        counts = res.edges.vals / (weak_path().vals * 2.0 / q)
        assert res.distinct_edges == 2
        np.testing.assert_allclose(counts, np.round(counts), rtol=1e-12)
        assert counts.sum() == pytest.approx(q, rel=1e-12)

    @pytest.mark.parametrize("raw", [False, True], ids=["decomposition", "laplacian"])
    def test_verify_rejects_dropping_the_weak_edge(self, raw):
        d = decompose(weak_path())
        hat = decompose(OdnMatrix(3, [1], [2], [1.0], np.zeros(3)))
        pair = PairSpectra(d.laplacian_dense(), hat.laplacian) if raw else PairSpectra(d, hat)
        rec = verify_sparsifier(pair, epsilon=0.25)
        # x = e_0: x' L_hat x = 0 against x' L x = 1e-20.
        assert not rec.passed and rec.mode == "exact"
        assert rec.gen_min == pytest.approx(0.0, abs=1e-12)


class TestFactorErrors:
    def test_indefinite_laplacian_raises_typed_error(self):
        """Rows summing to zero with a negative weight: not positive
        semidefinite. Vertex 0 is grounded (degrees 0, -2, 0), and LAPACK's
        Cholesky stops at the first pivot left, vertex 1's -2."""
        lap = np.array([[0.0, 1.0, -1.0], [1.0, -2.0, 1.0], [-1.0, 1.0, 0.0]])
        with pytest.raises(FactorizationError) as caught:
            verify_sparsifier(lap, lap, 0.25)
        assert (caught.value.routine, caught.value.pivot, caught.value.vertex) == ("dpotrf", 1, 1)

    def test_no_edges_leave_nothing_to_factor(self):
        for base in (np.zeros((3, 3)), decompose(OdnMatrix(3, [], [], [], np.zeros(3)))):
            pair = PairSpectra(base)
            factor = pair.grounded_factor
            assert factor.kept.size == 0 and factor.factor.shape == (0, 0)
            assert pair.paths["factor"] == "dense"

    def test_not_a_laplacian_raises(self):
        """A diagonal matrix has no edges, but its rows do not sum to zero."""
        with pytest.raises(OdnError, match="not a graph Laplacian"):
            verify_sparsifier(np.eye(3), np.eye(3), 0.25)

    def test_band_factor_failure_names_the_vertex(self):
        """A path on 12 vertices held as CSR, whose edge (3, 4) weighs -1: the
        band factor's `dpbtrf` fails, and the pivot is mapped back through the
        reverse Cuthill-McKee order to the vertex's own index."""
        n = 12
        weights = np.ones(n - 1)
        weights[3] = -1.0
        adjacency = sp.coo_matrix((weights, (np.arange(n - 1), np.arange(1, n))), shape=(n, n))
        adjacency = (adjacency + adjacency.T).tocsr()
        lap = (sp.diags(np.asarray(adjacency.sum(axis=1)).ravel()) - adjacency).tocsr()
        with pytest.raises(FactorizationError) as caught:
            PairSpectra(lap).grounded_factor
        error = caught.value
        assert error.routine == "dpbtrf"
        kept = np.delete(np.arange(n), 1)  # degrees 1, 2, 2, 0, 0, 2, ...: vertex 1 grounded
        order = kept[reverse_cuthill_mckee(lap[kept][:, kept], symmetric_mode=True)]
        assert error.vertex == order[error.pivot - 1] != kept[error.pivot - 1]
        minors = [np.linalg.eigvalsh(lap[order[:p]][:, order[:p]].toarray())[0]
                  for p in (error.pivot - 1, error.pivot)]
        assert minors[0] > 0 >= minors[1]

    def test_cli_exits_one_with_one_error_line(self, tmp_path, capsys):
        """A path with weights (1, 1e-20, 1): its degrees round the weak edge
        away, so L grounded anywhere is singular in floating point."""
        from odnsparse.cli import main

        path = tmp_path / "path.mtx"
        write_matrix_market(OdnMatrix(4, [0, 1, 2], [1, 2, 3], [1.0, 1e-20, 1.0],
                                      np.zeros(4)), path)
        assert main(["sparsify", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error" in line.lower()]
        assert errors == ["error: dpotrf failed at pivot 3 (vertex 3): the Laplacian grounded "
                          "at one vertex per component is not positive definite in floating "
                          "point"]


def _cut_grid():
    """Grid 20 x 30 with the edges between columns 14 and 15 cut: two 20 x 15
    components."""
    grid = generate_odn("grid", rows=20, cols=30, seed=6)
    keep = ~((grid.cols - grid.rows == 1) & (grid.rows % 30 == 14))
    return OdnMatrix(grid.n, grid.rows[keep], grid.cols[keep], grid.vals[keep], grid.diag)


def _grid_with_isolated_vertex():
    grid = generate_odn("grid", rows=20, cols=20, seed=8, diag=("uniform", 0, 1))
    return OdnMatrix(401, grid.rows, grid.cols, grid.vals, np.append(grid.diag, 0.5))


def _log_weight_grid_30():
    grid = generate_odn("grid", rows=30, cols=30)
    weights = 10.0 ** np.random.default_rng(12).uniform(-4.0, 0.0, grid.stored_pairs)
    return OdnMatrix(grid.n, grid.rows, grid.cols, weights, grid.diag)


BAND_INPUTS = {
    "path-8": lambda: generate_odn("path", 8, seed=1),
    "path-300": lambda: generate_odn("path", 300, seed=2),
    "grid-30x30": lambda: generate_odn("grid", rows=30, cols=30, seed=3, diag=("uniform", 0, 1)),
    "grid-10x90": lambda: generate_odn("grid", rows=10, cols=90, seed=4),
    "grid-60x60": lambda: generate_odn("grid", rows=60, cols=60, seed=5),
    "disconnected-grid": _cut_grid,
    "isolated-vertex": _grid_with_isolated_vertex,
    "grid-30x30-log-weights": _log_weight_grid_30,
}


class TestBandPath:
    """The band factor of a sparse L (reverse Cuthill-McKee, `dpbtrf`,
    Takahashi's band of L_g^-1, the pencil by `dtbsv`) against the references
    and against the dense factor, forced by `_BAND_SHARE = 0`."""

    @staticmethod
    def _run(matrix, monkeypatch, dense):
        if dense:
            monkeypatch.setattr(spectra, "_BAND_SHARE", 0.0)
        pair = PairSpectra(decompose(matrix))
        resistance = effective_resistances(pair)[0]
        res = sparsify_laplacian(pair, 0.25, seed=3)
        pair.hat = res
        rec = verify_sparsifier(pair, epsilon=0.25)
        return pair.paths["factor"], resistance, res, rec

    @pytest.mark.parametrize("name", BAND_INPUTS)
    def test_band_matches_references_and_dense_factor(self, name, monkeypatch):
        """On each path: resistances equal the grounded solve's to 1e-10 with
        Foster's identity; the widened extremes bracket `dense_pencil` to
        1e-12 of scale, within 1e-12 of scale (on grid 60x60, whose dense
        generalized solve takes 8 s, they agree with the dense factor's
        bracket to that width). Both paths sample the same edges and give the
        same verdict."""
        matrix = BAND_INPUTS[name]()
        d = decompose(matrix)
        reference = grounded_resistances(matrix)
        # The band path first: the dense run's patch stays for the test.
        runs = {dense: self._run(matrix, monkeypatch, dense) for dense in (False, True)}
        assert runs[True][0] == "dense" and runs[False][0].startswith("band kd=")
        brackets = []
        for path, resistance, res, rec in runs.values():
            np.testing.assert_allclose(resistance, reference, rtol=1e-10, err_msg=path)
            np.testing.assert_allclose((matrix.vals * resistance).sum(),
                                       d.n - d.components[0], rtol=1e-8)
            assert rec.mode == "exact"
            brackets.append([rec.gen_min, rec.gen_max])
            if d.n > 2000:
                continue
            # As in test_random_inputs_match_grounded_references: on path-8
            # the dense factor's gen_min sits 1.6e-15 above the reference's,
            # more than the widening's n * eps * |theta| for n = 6 (the
            # reference's own rounding is not bounded by it).
            expected = dense_pencil(d.laplacian, res.laplacian)
            low, high = expected[0] - rec.gen_min, rec.gen_max - expected[-1]
            scale = np.abs(expected).max()
            assert -1e-12 * scale <= min(low, high) and max(low, high) <= 1e-12 * scale, path
        np.testing.assert_allclose(brackets[0], brackets[1], rtol=0,
                                   atol=1e-12 * max(map(abs, brackets[1])))
        band, dense = runs[False][2].edges, runs[True][2].edges
        assert np.array_equal(band.rows, dense.rows) and np.array_equal(band.cols, dense.cols)
        np.testing.assert_allclose(band.vals, dense.vals, rtol=1e-12)
        assert runs[False][3].passed == runs[True][3].passed


def random_graph_case(case: int) -> OdnMatrix:
    """Random ODN input `case`: n <= 3 in every fourth case, else 4 to 12;
    densities from 0 (no edges) to 1; the edges across up to three random
    vertex classes dropped, which leaves disconnected graphs and isolated
    vertices; a zero diagonal in every third case."""
    rng = np.random.default_rng(4100 + case)
    n = int(rng.integers(1, 4)) if case % 4 == 0 else int(rng.integers(4, 13))
    m = random_odn(rng, n, density=float(rng.choice([0.0, 0.3, 0.7, 1.0])))
    classes = rng.integers(0, int(rng.integers(1, 4)), n)
    same = classes[m.rows] == classes[m.cols]
    diag = np.zeros(n) if case % 3 == 0 else m.diag
    return OdnMatrix(n, m.rows[same], m.cols[same], m.vals[same], diag)


@pytest.mark.parametrize("case", range(48))
def test_random_inputs_match_grounded_references(case):
    """Resistances against a grounded `np.linalg.solve` per component, with
    Foster's identity sum_e w_e R_e = n - components; the verdict's extremes
    against `scipy.linalg.eigh(L_hat_g, L_g)`, within the widening."""
    matrix = random_graph_case(case)
    d = decompose(matrix)
    resistance, _ = effective_resistances(d)
    np.testing.assert_allclose(resistance, grounded_resistances(matrix), rtol=1e-9)
    np.testing.assert_allclose((matrix.vals * resistance).sum(), d.n - d.components[0],
                               rtol=1e-9, atol=1e-12)
    res = sparsify_laplacian(d, 0.3, seed=case)
    rec = verify_sparsifier(PairSpectra(d, res), epsilon=0.3)
    if matrix.stored_pairs == 0:
        assert rec.mode == "trivial-zero" and rec.passed and rec.eps_hat is None
        return
    expected = dense_pencil(d.laplacian, res.laplacian)
    low, high = expected[0] - rec.gen_min, rec.gen_max - expected[-1]
    scale = np.abs(expected).max()
    assert -1e-12 * scale <= min(low, high) and max(low, high) <= 1e-12 * scale
    assert rec.kernel_leak <= 1e-12 * scale
    assert not rec.passed or rec.eps_hat <= 0.3 + 1e-9
