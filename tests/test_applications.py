import tracemalloc
import warnings

import numpy as np
import pytest

from odnsparse import (
    NonFiniteError,
    NotCorrelationError,
    NotOdnError,
    ZeroVarianceColumnError,
    correlation_from_data,
    decompose,
    generate_odn,
    pca_compare,
    sparsify_laplacian,
    validate_odn,
)


def factor_data(rng, samples=200, features=10, noise=0.3):
    """All-positive loadings make every pairwise correlation nonnegative."""
    loadings = rng.uniform(0.4, 1.0, features)
    factor = rng.standard_normal(samples)
    return np.outer(factor, loadings) + noise * rng.standard_normal(
        (samples, features)
    )


class TestCorrelationFromData:
    def test_identical_columns(self, rng):
        v = rng.standard_normal(50)
        m = correlation_from_data(np.column_stack([v, v]))
        np.testing.assert_array_equal(m.diag, [1.0, 1.0])
        np.testing.assert_allclose(m.vals[0], 1.0, rtol=1e-12)

    def test_anti_correlated_rejected(self, rng):
        v = rng.standard_normal(50)
        with pytest.raises(NotOdnError) as exc:
            correlation_from_data(np.column_stack([v, -v]))
        assert exc.value.pairs[0][:2] == (0, 1)

    def test_factor_model_accepted(self, rng):
        m = correlation_from_data(factor_data(rng))
        assert m.n == 10
        np.testing.assert_array_equal(m.diag, np.ones(10))
        assert np.all(m.vals > 0)
        assert np.all(m.vals <= 1.0)
        # oracle: plain covariance arithmetic
        data = factor_data(np.random.default_rng(123))
        m2 = correlation_from_data(data)
        np.testing.assert_allclose(m2.to_dense(), np.corrcoef(data.T), atol=1e-12)

    def test_zero_variance_rejected(self, rng):
        data = rng.standard_normal((30, 3))
        data[:, 1] = 4.2
        with pytest.raises(ZeroVarianceColumnError) as exc:
            correlation_from_data(data)
        assert exc.value.column == 1

    def test_zero_variance_with_rounding_residue(self, rng):
        # constant 0.1 over an odd sample count leaves std at rounding
        # level rather than exactly zero; still a rejection
        data = rng.standard_normal((37, 2))
        data[:, 0] = 0.1
        with pytest.raises(ZeroVarianceColumnError):
            correlation_from_data(data)

    def test_unbiased_flag(self, rng):
        data = factor_data(rng, samples=40, features=4)
        a = correlation_from_data(data)
        b = correlation_from_data(data, unbiased=True)
        np.testing.assert_allclose(a.to_dense(), b.to_dense(), rtol=1e-12)


def _correlation_via_validate(data, unbiased=False):
    """The former construction, as a reference: the correlation matrix built
    densely and passed through `validate_odn`."""
    x = np.asarray(data, dtype=np.float64)
    samples = x.shape[0]
    ddof = 1 if unbiased else 0
    centered = x - x.mean(axis=0)
    std = centered.std(axis=0, ddof=ddof)
    flat = np.flatnonzero(std <= 1e-12 * np.abs(x).max(axis=0))
    if flat.size:
        raise ZeroVarianceColumnError(int(flat[0]))
    z = centered / std
    corr = (z.T @ z) / (samples - ddof)
    np.fill_diagonal(corr, 1.0)
    corr[(corr < 0) & (corr >= -1e-12)] = 0.0
    corr[(corr > 1) & (corr <= 1 + 1e-12)] = 1.0
    i, j = np.nonzero(np.triu(corr < 0, k=1))
    if i.size:
        raise NotOdnError([(int(a), int(b), float(corr[a, b])) for a, b in zip(i, j)])
    return validate_odn(corr)


def _uncorrelated_columns():
    """Columns 0 and 1 have correlation exactly 0; column 2 correlates with both."""
    a = np.tile([1.0, -1.0, 1.0, -1.0], 5)
    b = np.tile([1.0, 1.0, -1.0, -1.0], 5)
    return np.column_stack([a, b, a + b + np.arange(20) % 3])


class TestCorrelationDirect:
    @pytest.mark.parametrize("shape,unbiased", [
        ((2000, 400), False), ((5, 3), False), ((1999, 37), False), ((300, 20), True),
    ])
    def test_equals_validated_matrix(self, shape, unbiased):
        rng = np.random.default_rng(shape[1])
        data = factor_data(rng, samples=shape[0], features=shape[1])
        assert (correlation_from_data(data, unbiased=unbiased)
                == _correlation_via_validate(data, unbiased))

    @pytest.mark.parametrize("unbiased", [False, True], ids=["ddof-0", "ddof-1"])
    def test_blocked_std_and_signed_scale_equal_former_expressions(self, unbiased):
        """The standard deviations in blocks of 64 columns and max|x| taken as
        max(max x, -min x) give what `std` of the whole array and `abs` gave:
        150 columns, so the last block is partial, of many offsets and scales
        (some all-negative, so that -min x is the larger), and then one of
        them constant up to rounding."""
        rng = np.random.default_rng(8)
        data = factor_data(rng, samples=301, features=150)
        data *= rng.choice([1e-3, 1.0, 1e3, 1e5], 150)  # positive: no sign flips
        data += rng.uniform(-50.0, 50.0, 150)
        assert (correlation_from_data(data, unbiased=unbiased)
                == _correlation_via_validate(data, unbiased))
        data[:, 70] = 0.1
        with pytest.raises(ZeroVarianceColumnError) as new:
            correlation_from_data(data, unbiased=unbiased)
        with pytest.raises(ZeroVarianceColumnError) as old:
            _correlation_via_validate(data, unbiased)
        assert new.value.column == old.value.column == 70

    def test_one_samples_sized_temporary(self):
        """Only the centred copy is samples x features: the blocked standard
        deviations and the signed scale add none."""
        data = factor_data(np.random.default_rng(1), samples=2000, features=400)
        tracemalloc.start()
        try:
            correlation_from_data(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Measured: 1.20 x data.nbytes (2.01 x with `std` and `abs` of the whole).
        assert peak <= 1.5 * data.nbytes

    def test_exact_zero_correlations_dropped(self):
        data = _uncorrelated_columns()
        m = correlation_from_data(data)
        assert m == _correlation_via_validate(data)
        assert (0, 1) not in set(zip(m.rows.tolist(), m.cols.tolist()))
        assert m.stored_pairs == 2

    def test_negative_correlation_error_matches(self, rng):
        data = factor_data(rng, features=4)
        data[:, 2] = -data[:, 2]
        with pytest.raises(NotOdnError) as new:
            correlation_from_data(data)
        with pytest.raises(NotOdnError) as old:
            _correlation_via_validate(data)
        assert new.value.pairs == old.value.pairs

    def test_constant_column_error_matches(self, rng):
        data = factor_data(rng, features=5)
        data[:, 3] = 0.1
        with pytest.raises(ZeroVarianceColumnError) as new:
            correlation_from_data(data)
        with pytest.raises(ZeroVarianceColumnError) as old:
            _correlation_via_validate(data)
        assert new.value.column == old.value.column == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_reported_at_its_cell(self, rng, bad):
        data = factor_data(rng, samples=20, features=4)
        data[7, 2] = bad
        data[9, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as exc:
                correlation_from_data(data)
        assert (exc.value.i, exc.value.j) == (7, 2)

    def test_non_finite_correlation_still_raises(self):
        # Finite samples whose sums overflow: the correlation is NaN.
        data = np.array([[1e308, 1.0, 2.0], [1.7e308, 2.0, 3.0], [1.5e308, 4.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NonFiniteError) as exc:
                correlation_from_data(data)
            with pytest.raises(NonFiniteError) as old:
                _correlation_via_validate(data)
        assert (exc.value.i, exc.value.j) == (old.value.i, old.value.j) == (0, 1)

    def test_traced_peak_within_three_inputs(self):
        data = factor_data(np.random.default_rng(1), samples=2000, features=400)
        tracemalloc.start()
        try:
            correlation_from_data(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * data.nbytes


class TestPcaCompare:
    def test_identity_matrix(self):
        m = validate_odn(np.eye(12))
        cmp = pca_compare(m, 0.25, 3, seed=1)
        np.testing.assert_array_equal(cmp.variances, np.ones(3))
        np.testing.assert_allclose(cmp.variances_hat, np.ones(3), rtol=1e-12)
        assert np.all(cmp.gaps <= 1e-12)
        assert cmp.status == "pass"

    def test_equicorrelation_closed_form(self):
        # off-diagonal 0.5 on n=20: top value 1 + 0.5*19, the rest 0.5
        m = generate_odn("equicorrelation", 20, correlation=0.5)
        cmp = pca_compare(m, 0.25, 3, seed=7)
        np.testing.assert_allclose(cmp.variances, [10.5, 0.5, 0.5], rtol=1e-12)
        assert cmp.status == "pass"
        assert np.all(cmp.gaps <= cmp.per_component_bound * (1 + 1e-9))
        assert cmp.cumulative_bound == 3 * cmp.per_component_bound
        assert cmp.cumulative_bound_literal == 6 * cmp.per_component_bound
        assert cmp.paths["matrix_values"] == cmp.paths["matrix_hat_values"] == "dense"

    def test_factor_model_end_to_end(self, rng):
        m = correlation_from_data(factor_data(rng, features=30))
        cmp = pca_compare(m, 0.25, 3, seed=11)
        if cmp.verification.passed:
            assert np.all(cmp.gaps <= cmp.per_component_bound * (1 + 1e-9))
        assert abs(cmp.cumulative - cmp.cumulative_hat) <= cmp.cumulative_bound_literal

    def test_not_correlation_rejected(self):
        m = validate_odn(np.diag([1.0, 2.0]))
        with pytest.raises(NotCorrelationError):
            pca_compare(m, 0.25, 1)

    def test_p_out_of_range(self):
        m = validate_odn(np.eye(4))
        with pytest.raises(ValueError):
            pca_compare(m, 0.25, 5)
        with pytest.raises(ValueError):
            pca_compare(m, 0.25, 0)

    def test_variances_are_the_pairs_values(self):
        """The variances are the top p of `eigvalsh` of M and of M_hat, bit for
        bit: the pair's one values solve of each."""
        m = correlation_from_data(factor_data(np.random.default_rng(3), features=40))
        cmp = pca_compare(m, 0.25, 5, seed=2)
        decomp = decompose(m)
        m_hat = sparsify_laplacian(decomp, 0.25, 2).matrix(decomp.center)
        np.testing.assert_array_equal(
            cmp.variances, np.linalg.eigvalsh(m.to_dense())[::-1][:5])
        np.testing.assert_array_equal(
            cmp.variances_hat, np.linalg.eigvalsh(m_hat.to_dense())[::-1][:5])

    def test_narrow_band_values_solved_in_band_storage(self):
        """A correlation matrix of a 30 x 30 grid (bandwidth 30 after reverse
        Cuthill-McKee, n = 900) has M and M_hat solved by `dsbevd` in band
        storage, and its variances equal the dense solve's."""
        m = generate_odn("grid", rows=30, cols=30, weight=0.1, diag=1.0)
        cmp = pca_compare(m, 0.25, 4, seed=3)
        assert cmp.paths["matrix_values"] == cmp.paths["matrix_hat_values"] == "band kd=30"
        dense = np.linalg.eigvalsh(m.to_dense())[::-1][:4]
        np.testing.assert_allclose(cmp.variances, dense, rtol=1e-12)
        assert cmp.status == "pass"

    def test_p_equal_n_falls_back_dense(self):
        m = generate_odn("equicorrelation", 6, correlation=0.4)
        cmp = pca_compare(m, 0.25, 6, seed=2)
        np.testing.assert_allclose(cmp.variances, cmp.variances_hat, atol=3.0)
        assert cmp.psd_ok
