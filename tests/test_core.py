import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from odnsparse import (
    AsymmetricError,
    NegativeOffDiagonalError,
    NonFiniteError,
    OdnMatrix,
    center_diagonal,
    decompose,
    generate_odn,
    reconstruct,
    validate_odn,
)

from conftest import random_odn


class TestValidate:
    def test_accepts_basic(self):
        m = validate_odn([[2.0, 1.0], [1.0, 3.0]])
        assert m.n == 2
        assert m.stored_pairs == 1
        np.testing.assert_array_equal(m.diag, [2.0, 3.0])

    def test_identity_has_no_stored_pairs(self):
        m = validate_odn(np.eye(3))
        assert m.stored_pairs == 0
        assert m.nnz_offdiag == 0
        np.testing.assert_array_equal(m.diag, np.ones(3))

    def test_negative_offdiagonal_rejected(self):
        with pytest.raises(NegativeOffDiagonalError) as exc:
            validate_odn([[0.0, -1.0], [-1.0, 0.0]])
        assert (exc.value.i, exc.value.j) == (0, 1)
        assert exc.value.value == -1.0

    def test_asymmetric_rejected(self):
        raw = np.array([[1.0, 2.0], [2.5, 1.0]])
        with pytest.raises(AsymmetricError):
            validate_odn(raw)

    def test_small_asymmetry_averaged(self):
        base = 1.0
        raw = np.array([[0.0, base], [base * (1 + 1e-13), 0.0]])
        m = validate_odn(raw)
        assert m.vals[0] == (base + base * (1 + 1e-13)) / 2.0

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            validate_odn([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(NonFiniteError):
            validate_odn([[np.inf, 0.0], [0.0, 0.0]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            validate_odn(np.ones((2, 3)))

    def test_exact_zeros_dropped(self):
        m = validate_odn([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
        assert m.stored_pairs == 1
        assert (m.rows[0], m.cols[0]) == (0, 2)

    def test_sparse_input(self):
        import scipy.sparse as sp

        dense = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert validate_odn(sp.csr_matrix(dense)) == validate_odn(dense)

    def test_sparse_negative_rejected(self):
        import scipy.sparse as sp

        raw = sp.csr_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(NegativeOffDiagonalError):
            validate_odn(raw)

    def test_n_equal_one_accepted(self):
        m = validate_odn([[-4.0]])
        assert m.n == 1
        assert decompose(m).laplacian_dense() == np.zeros((1, 1))


class TestDecompose:
    def test_two_by_two(self):
        m = validate_odn([[2.0, 1.0], [1.0, 3.0]])
        d = decompose(m)
        np.testing.assert_array_equal(d.adjacency.toarray(), [[0, 1], [1, 0]])
        np.testing.assert_array_equal(d.degrees, [1.0, 1.0])
        np.testing.assert_array_equal(d.laplacian_dense(), [[1, -1], [-1, 1]])
        assert (d.delta_max, d.delta_min, d.center) == (3.0, 2.0, 2.5)

    def test_identity(self):
        d = decompose(validate_odn(np.eye(3)))
        assert d.adjacency.nnz == 0
        np.testing.assert_array_equal(d.degrees, np.zeros(3))
        assert d.delta_max == d.delta_min == d.center == 1.0

    def test_all_ones(self):
        d = decompose(validate_odn(np.ones((3, 3))))
        np.testing.assert_array_equal(d.adjacency.toarray(), np.ones((3, 3)) - np.eye(3))
        np.testing.assert_array_equal(d.degrees, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(
            d.laplacian_dense(), 3 * np.eye(3) - np.ones((3, 3))
        )
        assert d.center == 1.0

    def test_row_sums_zero_and_psd(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 30))
            m = random_odn(rng, n)
            d = decompose(m)
            lap = d.laplacian_dense()
            row_sums = lap.sum(axis=1)
            np.testing.assert_allclose(
                row_sums, 0.0, atol=1e-12 * max(1.0, d.degrees.max())
            )
            eigs = np.linalg.eigvalsh(lap)
            assert eigs[0] >= -1e-9 * max(eigs[-1], 1e-300)


class TestCenterDiagonal:
    def test_example(self):
        m = validate_odn([[2.0, 1.0], [1.0, 3.0]])
        np.testing.assert_array_equal(center_diagonal(m).diag, [2.5, 2.5])

    def test_constant_diagonal_unchanged(self):
        m = validate_odn([[1.0, 0.5], [0.5, 1.0]])
        assert center_diagonal(m) == m

    def test_diag_0_10(self):
        m = validate_odn(np.diag([0.0, 10.0]))
        c = center_diagonal(m)
        np.testing.assert_array_equal(c.diag, [5.0, 5.0])
        norm = np.abs(np.linalg.eigvalsh(m.to_dense() - c.to_dense())).max()
        assert norm == 5.0

    def test_norm_identity_random(self, rng):
        # ||M - M_centered|| must equal half the diagonal spread.
        for _ in range(100):
            n = int(rng.integers(1, 25))
            m = random_odn(rng, n, diag_low=-3.0, diag_high=5.0)
            c = center_diagonal(m)
            norm = np.abs(np.linalg.eigvalsh(m.to_dense() - c.to_dense())).max()
            spread = (m.diag.max() - m.diag.min()) / 2.0
            np.testing.assert_allclose(norm, spread, rtol=1e-9, atol=1e-300)

    def test_laplacian_unchanged_exactly(self, rng):
        for _ in range(20):
            m = random_odn(rng, int(rng.integers(2, 20)))
            lap_a = decompose(m).laplacian_dense()
            lap_b = decompose(center_diagonal(m)).laplacian_dense()
            assert np.array_equal(lap_a, lap_b)


class TestReconstruct:
    def test_example(self):
        r = reconstruct(np.array([[0.0, 1.0], [1.0, 0.0]]), 2.5)
        np.testing.assert_array_equal(r.to_dense(), [[2.5, 1.0], [1.0, 2.5]])

    def test_zero(self):
        r = reconstruct(np.zeros((2, 2)), 0.0)
        np.testing.assert_array_equal(r.to_dense(), np.zeros((2, 2)))

    def test_path_graph(self):
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        r = reconstruct(adj, 1.0)
        np.testing.assert_array_equal(
            r.to_dense(), [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
        )

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            reconstruct(np.eye(2), 1.0)

    def test_negative_rejected(self):
        with pytest.raises(NegativeOffDiagonalError):
            reconstruct(np.array([[0.0, -1.0], [-1.0, 0.0]]), 1.0)

    def test_round_trip(self, rng):
        for _ in range(20):
            m = random_odn(rng, int(rng.integers(1, 15)))
            centered = center_diagonal(m)
            d = decompose(centered)
            assert reconstruct(d.adjacency, d.center) == centered


@st.composite
def odn_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    return random_odn(np.random.default_rng(seed), n, density=density)


@given(odn_matrices())
@settings(max_examples=60, deadline=None)
def test_center_idempotent(m):
    once = center_diagonal(m)
    assert center_diagonal(once) == once


@given(odn_matrices())
@settings(max_examples=60, deadline=None)
def test_centering_preserves_laplacian_and_round_trips(m):
    centered = center_diagonal(m)
    d = decompose(centered)
    assert np.array_equal(
        decompose(m).laplacian_dense(), d.laplacian_dense()
    )
    assert reconstruct(d.adjacency, d.center) == centered


@given(odn_matrices())
@settings(max_examples=60, deadline=None)
def test_laplacian_kernel_contains_ones(m):
    lap = decompose(m).laplacian_dense()
    np.testing.assert_allclose(
        lap @ np.ones(m.n), 0.0, atol=1e-10 * max(1.0, np.abs(lap).max())
    )


def test_matrix_is_immutable():
    m = validate_odn([[2.0, 1.0], [1.0, 3.0]])
    with pytest.raises((ValueError, AttributeError)):
        m.vals[0] = 7.0
    with pytest.raises(AttributeError):
        m.n = 5


def test_duplicate_coordinates_rejected():
    with pytest.raises(ValueError):
        OdnMatrix(3, [0, 0], [1, 1], [1.0, 2.0], np.zeros(3))


def test_coordinates_are_sorted_and_checked_in_any_order():
    m = OdnMatrix(4, [1, 0, 0, 2], [2, 3, 1, 3], [1.0, 2.0, 3.0, 4.0], np.zeros(4))
    assert m.rows.tolist() == [0, 0, 1, 2]
    assert m.cols.tolist() == [1, 3, 2, 3]
    assert m.vals.tolist() == [3.0, 2.0, 1.0, 4.0]
    with pytest.raises(ValueError, match=r"duplicate coordinate \(0, 1\)"):
        OdnMatrix(3, [0, 0, 0], [1, 2, 1], [1.0, 2.0, 3.0], np.zeros(3))


@pytest.mark.parametrize("matrix", [
    generate_odn("complete", 400, seed=3, diag=("uniform", 0, 1)),
    generate_odn("grid", rows=30, cols=30, seed=1),
    generate_odn("erdos-renyi", 500, density=0.01, seed=4),
    OdnMatrix(1, [], [], [], [3.5]),
    OdnMatrix(6, [], [], [], np.ones(6)),
], ids=["complete", "grid", "erdos-renyi-disconnected", "n-one", "no-edges"])
def test_adjacency_equals_the_sorted_coo_build(matrix):
    """The O(m) build (upper triangle plus its transpose) against the COO
    build it replaced, which sorted both triangles."""
    i = np.concatenate([matrix.rows, matrix.cols])
    j = np.concatenate([matrix.cols, matrix.rows])
    v = np.concatenate([matrix.vals, matrix.vals])
    expected = sp.csr_matrix((v, (i, j)), shape=(matrix.n, matrix.n))
    got = matrix.adjacency()
    assert type(got) is type(expected)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert got.has_canonical_format == expected.has_canonical_format
