"""Symmetric matrices with nonnegative off-diagonal entries (ODN matrices).

An ODN matrix decomposes into a weighted graph: its off-diagonal part is
an adjacency matrix, whose weighted degrees and Laplacian follow. The
diagonal-centering transform replaces the diagonal by the midpoint of its
range, which leaves the Laplacian untouched and minimizes the spectral
norm of the change.

A graph is held as its upper-triangle coordinates and its degrees. Its
sparse adjacency is built from them, in O(m), on each read, and its sparse
Laplacian on first read, then cached; `laplacian_dense()` fills the dense
Laplacian straight from the coordinates. The degrees are summed from a
transient adjacency, which is not kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    AsymmetricError,
    NegativeOffDiagonalError,
    NonFiniteError,
)

SYMMETRY_RTOL = 1e-12


def _readonly(a: np.ndarray, dtype) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True).reshape(-1)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class OdnMatrix:
    """Symmetric real matrix whose off-diagonal entries are all >= 0.

    Off-diagonal entries are stored once as an upper-triangle coordinate
    list (rows[k] < cols[k], vals[k] > 0, sorted by (row, col)); exact
    zeros are never stored. The diagonal is a dense vector and may carry
    any sign. Instances are immutable.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    diag: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64).reshape(-1)
        cols = np.asarray(self.cols, dtype=np.int64).reshape(-1)
        vals = np.asarray(self.vals, dtype=np.float64).reshape(-1)
        diag = _readonly(self.diag, np.float64)

        if not (len(rows) == len(cols) == len(vals)):
            raise ValueError("coordinate arrays must have equal length")
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if diag.shape != (self.n,):
            raise ValueError("diagonal length does not match dimension")
        if not np.all(np.isfinite(diag)):
            i = int(np.flatnonzero(~np.isfinite(diag))[0])
            raise NonFiniteError(i, i, float(diag[i]))
        if len(vals):
            if not np.all(np.isfinite(vals)):
                k = int(np.flatnonzero(~np.isfinite(vals))[0])
                raise NonFiniteError(int(rows[k]), int(cols[k]), float(vals[k]))
            if np.any(vals <= 0):
                k = int(np.flatnonzero(vals <= 0)[0])
                raise NegativeOffDiagonalError(int(rows[k]), int(cols[k]), float(vals[k]))
            if np.any(rows >= cols) or np.any(rows < 0) or np.any(cols >= self.n):
                raise ValueError("entries must satisfy 0 <= i < j < n")
            # Coordinates already strictly ascending in (row, col) are sorted
            # and free of duplicates: only others are sorted and searched.
            row_step = np.diff(rows)
            if not np.all((row_step > 0) | ((row_step == 0) & (np.diff(cols) > 0))):
                order = np.lexsort((cols, rows))
                rows, cols, vals = rows[order], cols[order], vals[order]
                same = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
                if np.any(same):
                    k = int(np.flatnonzero(same)[0])
                    raise ValueError(f"duplicate coordinate ({rows[k]}, {cols[k]})")

        for name, arr in (("rows", rows), ("cols", cols), ("vals", vals)):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "diag", diag)

    @property
    def stored_pairs(self) -> int:
        """Number of off-diagonal entries stored (each pair counted once)."""
        return len(self.vals)

    @property
    def nnz_offdiag(self) -> int:
        """Off-diagonal nonzeros of the full symmetric matrix."""
        return 2 * self.stored_pairs

    @property
    def nnz(self) -> int:
        return self.nnz_offdiag + int(np.count_nonzero(self.diag))

    def upper(self) -> sp.csr_matrix:
        """The stored upper triangle as a sparse matrix: the coordinates are
        already in CSR order, so O(m), no sort. Canonical."""
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.rows, minlength=self.n), out=indptr[1:])
        return sp.csr_matrix((self.vals, self.cols, indptr), shape=(self.n, self.n))

    def adjacency(self) -> sp.csr_matrix:
        """Off-diagonal part as a symmetric sparse matrix with zero diagonal:
        the upper triangle plus its transpose. Canonical."""
        upper = self.upper()
        return upper + upper.T.tocsr()

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        out[self.rows, self.cols] = self.vals
        out[self.cols, self.rows] = self.vals
        out[np.arange(self.n), np.arange(self.n)] = self.diag
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, OdnMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
            and np.array_equal(self.vals, other.vals)
            and np.array_equal(self.diag, other.diag)
        )

    __hash__ = None


def _validate_dense(raw: np.ndarray, rtol: float) -> OdnMatrix:
    bad = ~np.isfinite(raw)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NonFiniteError(int(i), int(j), float(raw[i, j]))

    delta = np.abs(raw - raw.T)
    scale = np.maximum(np.abs(raw), np.abs(raw.T))
    mism = delta > rtol * scale
    if mism.any():
        i, j = np.argwhere(mism)[0]
        raise AsymmetricError(int(i), int(j), float(raw[i, j] - raw[j, i]))

    symm = (raw + raw.T) / 2.0
    n = symm.shape[0]
    off = symm.copy()
    np.fill_diagonal(off, 0.0)
    neg = off < 0
    if neg.any():
        i, j = np.argwhere(neg)[0]
        raise NegativeOffDiagonalError(int(i), int(j), float(off[i, j]))

    i, j = np.nonzero(np.triu(off, k=1))
    return OdnMatrix(n, i, j, symm[i, j], np.diagonal(symm).copy())


def _validate_sparse(raw, rtol: float) -> OdnMatrix:
    m = raw.tocsr().astype(np.float64)
    data = m.tocoo()
    bad = ~np.isfinite(data.data)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise NonFiniteError(int(data.row[k]), int(data.col[k]), float(data.data[k]))

    t = m.T.tocsr()
    delta = abs(m - t)
    scale = abs(m).maximum(abs(t))
    viol = (delta - scale.multiply(rtol)).tocoo()
    mask = viol.data > 0
    if mask.any():
        k = int(np.flatnonzero(mask)[0])
        i, j = int(viol.row[k]), int(viol.col[k])
        raise AsymmetricError(i, j, float(m[i, j] - m[j, i]))

    symm = ((m + t) * 0.5).tocoo()
    upper = symm.row < symm.col
    i, j, v = symm.row[upper], symm.col[upper], symm.data[upper]
    if np.any(v < 0):
        k = int(np.flatnonzero(v < 0)[0])
        raise NegativeOffDiagonalError(int(i[k]), int(j[k]), float(v[k]))
    keep = v > 0
    diag = np.zeros(m.shape[0])
    on_diag = symm.row == symm.col
    diag[symm.row[on_diag]] = symm.data[on_diag]
    return OdnMatrix(m.shape[0], i[keep], j[keep], v[keep], diag)


def validate_odn(raw, rtol: float = SYMMETRY_RTOL) -> OdnMatrix:
    """Check a square matrix for the ODN contract and canonicalize it.

    Accepts a dense array or scipy sparse matrix. Mirrored entries that
    agree within `rtol` (relative) are symmetrized by averaging; exact
    off-diagonal zeros are dropped from storage.

    Raises NonFiniteError, AsymmetricError, or NegativeOffDiagonalError.
    """
    if isinstance(raw, OdnMatrix):
        return raw
    if sp.issparse(raw):
        if raw.shape[0] != raw.shape[1]:
            raise ValueError(f"input must be square, got {raw.shape}")
        return _validate_sparse(raw, rtol)
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"input must be square, got shape {arr.shape}")
    return _validate_dense(arr, rtol)


def diagonal_csr(d: np.ndarray) -> sp.csr_matrix:
    """The diagonal matrix of `d` as CSR, built directly: `sp.diags` builds a
    `dia_matrix`, whose check runs `np.unique` and so imports numpy.ma. Sums
    and differences with it store what they would with `sp.diags(d)`."""
    n = len(d)
    return sp.csr_matrix((d, np.arange(n), np.arange(n + 1)), shape=(n, n))


def _degrees(edges: OdnMatrix) -> np.ndarray:
    """Weighted degrees: the row sums of a transient adjacency, which is
    released once they are taken."""
    degrees = np.asarray(edges.adjacency().sum(axis=1)).reshape(-1)
    degrees.setflags(write=False)
    return degrees


class GraphViews:
    """Adjacency and Laplacian views of the graph whose weighted edges are the
    off-diagonal coordinates of `edges`, with weighted `degrees`.

    The adjacency is built on each read, the sparse Laplacian on first read
    and then cached; nothing in the pipeline reads them for a dense graph,
    which is held as one dense Laplacian instead (`laplacian_dense`, see
    `spectra.PairSpectra`).
    """

    edges: OdnMatrix
    degrees: np.ndarray

    @property
    def n(self) -> int:
        return self.edges.n

    @property
    def adjacency(self) -> sp.csr_matrix:
        return self.edges.adjacency()

    @cached_property
    def laplacian(self) -> sp.csr_matrix:
        return diagonal_csr(self.degrees) - self.edges.adjacency()

    @property
    def laplacian_nnz(self) -> int:
        """Entries the sparse Laplacian stores: both triangles and every
        nonzero degree."""
        return self.edges.nnz_offdiag + int(np.count_nonzero(self.degrees))

    def laplacian_dense(self) -> np.ndarray:
        """The Laplacian as a dense array, filled from the coordinates and the
        degrees: bit-identical to `laplacian.toarray()`."""
        e = self.edges
        out = np.zeros((e.n, e.n))
        negated = -e.vals
        out[e.rows, e.cols] = negated
        out[e.cols, e.rows] = negated
        out.reshape(-1)[:: e.n + 1] = self.degrees
        return out

    @cached_property
    def components(self) -> tuple[int, np.ndarray]:
        """(count, labels) of connected components of the underlying graph,
        labelled on its upper triangle: a third of the work of the adjacency."""
        count, labels = connected_components(self.edges.upper(), directed=False)
        return int(count), labels


@dataclass(frozen=True, eq=False)
class LaplacianDecomposition(GraphViews):
    """Adjacency/degree/Laplacian view of an ODN matrix.

    `center` is the midpoint (delta_max + delta_min) / 2 of the source
    diagonal: replacing the whole diagonal by it minimizes the spectral
    norm of the diagonal change.
    """

    matrix: OdnMatrix
    degrees: np.ndarray
    delta_max: float
    delta_min: float
    center: float

    @property
    def edges(self) -> OdnMatrix:
        """The source matrix, whose off-diagonal coordinates are the edges."""
        return self.matrix


def decompose(matrix: OdnMatrix) -> LaplacianDecomposition:
    """Split an ODN matrix into weighted degrees and diagonal stats; the
    adjacency and Laplacian are built from it when read."""
    delta_max = float(np.max(matrix.diag))
    delta_min = float(np.min(matrix.diag))
    return LaplacianDecomposition(
        matrix=matrix,
        degrees=_degrees(matrix),
        delta_max=delta_max,
        delta_min=delta_min,
        center=(delta_max + delta_min) / 2.0,
    )


def center_diagonal(matrix: OdnMatrix) -> OdnMatrix:
    """Replace every diagonal entry by the midpoint of the diagonal range.

    The off-diagonal part, and hence the Laplacian, is unchanged; the
    spectral norm of the difference is (delta_max - delta_min) / 2.
    Idempotent.
    """
    d = (float(np.max(matrix.diag)) + float(np.min(matrix.diag))) / 2.0
    return OdnMatrix(
        matrix.n, matrix.rows, matrix.cols, matrix.vals, np.full(matrix.n, d)
    )


def reconstruct(a_hat, d: float) -> OdnMatrix:
    """Assemble an ODN matrix from a zero-diagonal adjacency and a constant diagonal.

    `a_hat` may be dense, scipy sparse, or an OdnMatrix with zero diagonal.
    """
    adj = validate_odn(a_hat)
    if np.any(adj.diag != 0.0):
        i = int(np.flatnonzero(adj.diag != 0.0)[0])
        raise ValueError(f"adjacency must have zero diagonal, entry {i} is {adj.diag[i]!r}")
    return OdnMatrix(adj.n, adj.rows, adj.cols, adj.vals, np.full(adj.n, float(d)))
