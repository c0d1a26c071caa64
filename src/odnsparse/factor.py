"""L's grounded Cholesky factor in its two forms, dense and band.

L is factored, not eigendecomposed (`PairSpectra.grounded_factor`): its
kernel is exact, the indicator vectors of its graph's components, and one
grounded vertex per component leaves a positive definite L_g = C C'. The
factor feeds the resistances, through G = L_g^-1, and the pencil
(L_hat, L), through C^-1 L_hat_g C^-T. A dense factor holds C^-1, so G is
C^-T C^-1 and the reduced matrix is formed. An L held as CSR whose grounded
block has a narrow band after reverse Cuthill-McKee keeps C in band
storage: the resistances read only G's band (Takahashi's recurrence) and
ARPACK applies the reduced matrix by two band solves, with no n x n array.
`_factor` is the one place the form is chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import LinearOperator

from . import core
from ._native import _one_scipy_thread
from .core import GraphViews, OdnMatrix
from .errors import FactorizationError

# Rows per step of a grounded block's copy, and edges per step (times n) of
# the resistance read: a step's temporaries take 32 n x 8 B, 1 MB at n = 4096,
# where one `x[np.ix_(kept, kept)]` took 3 n^2 x 8 B.
_BLOCK_ROWS = 32
# A Laplacian held as CSR is factored in band storage when its grounded block,
# reordered by reverse Cuthill-McKee, has bandwidth kd with kd + 1 <= k / 2.
# The factor, the resistances and the pencil, dense vs band, 2 BLAS threads,
# ms ((kd + 1) / k): grids 10x10 4.2 vs 4.0 (0.11), 30x30 101 vs 16 (0.03),
# 60x60 4781 vs 158, 3x300 115 vs 13, 20x45 163 vs 33; paths n = 200 12 vs
# 7, n = 3000 2466 vs 34; Erdos-Renyi n = 400 at degree 4 19 vs 14 (0.40),
# n = 1000 at 4 126 vs 56 (0.41), n = 1500 at 5 440 vs 321 (0.49), n = 2000
# at 6 878 vs 723 (0.53), n = 1000 at 20 170 vs 217 (0.80), n = 2000 at 20
# 993 vs 1314 (0.80). Below k = 250 either takes a few ms (grid 15x15 7.8 vs
# 9.5, Erdos-Renyi n = 200 at degree 3 6.6 vs 6.2 at 0.29).
_BAND_SHARE = 1 / 2


def _size(x) -> int:
    """n of an n x n `x`: an OdnMatrix, a graph side (`GraphViews`) or an array."""
    return x.n if isinstance(x, (OdnMatrix, GraphViews)) else np.shape(x)[0]


# `_dense`, `_sparse` and `_stored` read a graph side as its Laplacian.
def _dense(x) -> np.ndarray:
    if isinstance(x, GraphViews):
        return x.laplacian_dense()
    if isinstance(x, OdnMatrix):
        return x.to_dense()
    if sp.issparse(x):
        return x.toarray()
    return np.asarray(x, dtype=np.float64)


def _sparse(x) -> sp.csr_matrix:
    if isinstance(x, GraphViews):
        return x.laplacian
    if isinstance(x, OdnMatrix):
        return x.adjacency() + core.diagonal_csr(x.diag)
    return sp.csr_matrix(x)


def _stored(x) -> int:
    """Entries `x` stores: a graph side's Laplacian's, an OdnMatrix's or a
    sparse matrix's nnz, else n^2."""
    if isinstance(x, GraphViews):
        return x.laplacian_nnz
    return x.nnz if isinstance(x, OdnMatrix) or sp.issparse(x) else np.shape(x)[0] ** 2


def _grounded_block(x, kept: np.ndarray) -> np.ndarray:
    """Rows and columns `kept` of a symmetric `x`, dense or sparse, as a new
    dense array in Fortran order, which LAPACK and BLAS overwrite in place;
    copied _BLOCK_ROWS rows at a time."""
    x = sp.csr_matrix(x) if sp.issparse(x) else x
    block = np.empty((len(kept), len(kept)), order="F")
    for start in range(0, len(kept), _BLOCK_ROWS):
        rows = kept[start:start + _BLOCK_ROWS]
        block[:, start:start + len(rows)] = _dense(x[rows])[:, kept].T  # x symmetric
    return block


def _band(x, share: float) -> tuple[np.ndarray, np.ndarray] | None:
    """(order, band): the reverse Cuthill-McKee order of a symmetric `x`
    (OdnMatrix or sparse) and `x` so ordered in lower band storage, (kd + 1)
    x n in Fortran order; None when kd + 1 > share * n. A band of width kd
    holds at most n (2 kd + 1) entries: an `x` storing more is not ordered."""
    n = _size(x)
    if _stored(x) > n * (2 * share * n - 1):
        return None
    x = _sparse(x)
    order = reverse_cuthill_mckee(x, symmetric_mode=True)
    lower = sp.tril(x[order][:, order], format="coo")
    kd = int((lower.row - lower.col).max(initial=0))
    if kd + 1 > share * n:
        return None
    band = np.zeros((kd + 1, n), order="F")
    band[lower.row - lower.col, lower.col] = lower.data
    return order, band


@dataclass(frozen=True, eq=False)
class GroundedFactor:
    """L_g = C C': L with one vertex per component grounded, on the vertices
    `kept` in the factor's order. Each form (`_factor` picks it) stores C its
    own way in `factor` and has its `path`, `_inverse` and `reduced`."""

    kept: np.ndarray
    factor: np.ndarray

    def resistances(self, rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
        """G_uu + G_vv - 2 G_uv of G = L_g^-1 for each edge (rows, cols) of the
        n-vertex graph, a grounded vertex reading as 0. Read _BLOCK_ROWS * n
        edges at a time."""
        k = len(self.kept)
        index = np.full(n, k)  # a grounded vertex reads G's last row and column of 0s
        index[self.kept] = np.arange(k)
        inverse = self._inverse()
        resistance = np.empty(len(rows))
        step = _BLOCK_ROWS * n
        for start in range(0, len(resistance), step):
            r, c = index[rows[start:start + step]], index[cols[start:start + step]]
            resistance[start:start + step] = inverse(r, r) + inverse(c, c) - 2 * inverse(r, c)
        return resistance


class _DenseFactor(GroundedFactor):
    """`factor` is C^-1, k x k, from `dpotrf` and `dtrtri`."""

    path = "dense"

    def _inverse(self):
        """(r, c) -> G_rc from G = C^-T C^-1, with a last row and column of 0s."""
        k = len(self.kept)
        gram = np.zeros((k + 1, k + 1))
        np.matmul(self.factor.T, self.factor, out=gram[:k, :k])
        return lambda r, c: gram[r, c]

    def reduced(self, lap_hat) -> np.ndarray:
        """C^-1 L_hat_g C^-T by two in-place `dtrmm` on L_hat's grounded block."""
        reduced = _grounded_block(lap_hat, self.kept)
        with _one_scipy_thread():
            reduced = blas.dtrmm(1.0, self.factor, reduced, lower=1, overwrite_b=1)
            return blas.dtrmm(1.0, self.factor, reduced, side=1, lower=1, trans_a=1,
                              overwrite_b=1)


class _BandFactor(GroundedFactor):
    """`kept` is in reverse Cuthill-McKee order and `factor` is C in LAPACK's
    lower band storage, (kd + 1) x k, from `dpbtrf`."""

    @property
    def path(self) -> str:
        return f"band kd={len(self.factor) - 1}"

    def _inverse(self):
        """(r, c) -> G_rc from the band of G = L_g^-1 = C^-T C^-1, which holds
        every edge, in lower band storage with a last column of 0s:
        Takahashi, Fagan and Chin's backward recurrence (1973). Column j of
        G C = C^-T gives g = -G[j+1:, j+1:] C[j+1:, j] / c_jj for G's column j
        below its diagonal, where C[j+1:, j] is nonzero only within the band,
        so only G's band is read; then G_jj = (1 / c_jj - g . C[j+1:, j]) /
        c_jj. One `dsbmv` per column: O(k kd^2) work and no k x k array."""
        band, (kd, k) = self.factor, (len(self.factor) - 1, len(self.kept))
        inverse = np.zeros((kd + 1, k + 1), order="F")
        if not kd:  # a diagonal L_g
            inverse[0, :k] = band[0] ** -2.0
        else:
            inverse[0, k - 1] = band[0, k - 1] ** -2.0
            with _one_scipy_thread():
                for j in range(k - 2, -1, -1):
                    below, pivot = min(kd, k - 1 - j), 1.0 / band[0, j]
                    column = band[1:below + 1, j]
                    g = blas.dsbmv(kd, -pivot, inverse[:, j + 1:j + 1 + below], column, lower=1)
                    inverse[1:below + 1, j] = g
                    inverse[0, j] = pivot * (pivot - g @ column)

        def entries(r, c):  # G_rc sits at offset |r - c| in column min(r, c)
            low = np.where(np.maximum(r, c) < k, np.minimum(r, c), k)
            return inverse[np.where(low < k, np.abs(r - c), 0), low]
        return entries

    def reduced(self, lap_hat) -> _BandPencil:
        """C^-1 L_hat_g C^-T as an operator (`_BandPencil`)."""
        return _BandPencil(self.factor, _sparse(lap_hat)[self.kept][:, self.kept])


class _BandPencil(LinearOperator):
    """x -> C^-1 L_hat_g C^-T x, with C in lower band storage and L_hat_g as
    CSR: two `dtbsv` and one CSR product, and no k x k array."""

    def __init__(self, band: np.ndarray, hat: sp.csr_matrix):
        super().__init__(np.float64, hat.shape)
        self.band, self.hat = band, hat

    def _matvec(self, x):
        kd = len(self.band) - 1
        y = blas.dtbsv(kd, self.band, np.ravel(x), lower=1, trans=1)
        return blas.dtbsv(kd, self.band, self.hat @ y, lower=1, overwrite_x=1)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The reduced matrix itself, C^-1 (C^-1 L_hat_g)', by two `dtbtrs`:
        a dense solver takes this operator as the dense form's matrix."""
        with _one_scipy_thread():
            half = lapack.dtbtrs(self.band, self.hat.toarray(order="F"), uplo="L")[0]
            return lapack.dtbtrs(self.band, half.T, uplo="L", overwrite_b=1)[0]


def _factor(lap, kept: np.ndarray) -> GroundedFactor:
    """L's grounded block on `kept`, factored by `dpbtrf` in band storage
    (`_band`) where L is held as CSR and the block's RCM bandwidth kd has
    kd + 1 <= k * _BAND_SHARE, else copied dense and factored in place: C by
    `dpotrf`, then C^-1 by `dtrtri`. Raises FactorizationError if LAPACK fails."""
    if not kept.size:  # no edges: LAPACK rejects an empty matrix
        return _DenseFactor(kept, np.zeros((0, 0)))
    built = _band(sp.csr_matrix(lap)[kept][:, kept], _BAND_SHARE) if sp.issparse(lap) else None
    with _one_scipy_thread():
        if built is not None:
            kept, form, routine = kept[built[0]], _BandFactor, "dpbtrf"
            factor, info = lapack.dpbtrf(built[1], lower=1, overwrite_ab=1)
        else:
            form, routine = _DenseFactor, "dpotrf"
            factor, info = lapack.dpotrf(_grounded_block(lap, kept), lower=1, overwrite_a=1)
            if not info:
                factor, info = lapack.dtrtri(factor, lower=1, overwrite_c=1)
                routine = "dtrtri"
    if info:
        raise FactorizationError(routine, info, int(kept[info - 1]) if info > 0 else None)
    return form(kept, factor)
