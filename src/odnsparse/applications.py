"""Downstream uses of the sparsification pipeline.

Approximate PCA on nonnegative correlation matrices with per-component
and cumulative variance-deviation bounds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import OdnMatrix, decompose, validate_odn
from .errors import (
    NonFiniteError,
    NotCorrelationError,
    NotOdnError,
    ZeroVarianceColumnError,
)
from .sparsify import VerificationRecord, sparsify_laplacian, verify_sparsifier
from .spectra import DENSE_LIMIT, PairSpectra, eigen_decompose

_ROUNDING_TOL = 1e-12
# Columns per block of the standard deviations in `correlation_from_data`.
_STD_COLUMNS = 64


def correlation_from_data(data, *, unbiased: bool = False) -> OdnMatrix:
    """Correlation matrix of a samples-by-features array, as an ODN matrix.

    A NaN or infinite sample raises NonFiniteError at its (sample, column),
    the first in row-major order, before any arithmetic. Columns are
    centered and scaled to unit variance here; a zero-variance column
    raises ZeroVarianceColumnError. Normalization is by the sample count
    (rows), or rows - 1 with unbiased=True. Any genuinely negative
    correlation raises NotOdnError listing the offending pairs; magnitudes
    within 1e-12 of 0 or 1 are treated as rounding and clamped.

    The result is built from the correlation's upper triangle with a unit
    diagonal, exact zeros dropped: z'z is exactly symmetric and checked
    for signs and finiteness here, so it is not passed through
    `validate_odn` again.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"data must be 2-d (samples x features), got {x.ndim}-d")
    samples, features = x.shape
    if samples < 2 or features < 1:
        raise ValueError(f"need >= 2 samples and >= 1 feature, got {x.shape}")
    finite = np.isfinite(x)
    if not finite.all():
        i, j = divmod(int(np.argmin(finite)), features)
        raise NonFiniteError(i, j, float(x[i, j]))
    del finite

    ddof = 1 if unbiased else 0
    z = x - x.mean(axis=0)
    # In column blocks: `std` of the whole of z makes a samples x features
    # temporary. Each column's sums run down its rows either way.
    std = np.empty(features)
    for start in range(0, features, _STD_COLUMNS):
        block = slice(start, start + _STD_COLUMNS)
        std[block] = z[:, block].std(axis=0, ddof=ddof)
    # A constant column can leave std ~ machine-eps * scale instead of an
    # exact zero; treat anything at rounding level as zero variance.
    scale = np.maximum(x.max(axis=0), -x.min(axis=0))  # max |x|, without |x|
    flat = np.flatnonzero(std <= 1e-12 * scale)
    if flat.size:
        raise ZeroVarianceColumnError(int(flat[0]))

    z /= std
    corr = z.T @ z
    del z
    corr /= samples - ddof
    np.fill_diagonal(corr, 1.0)
    corr[(corr < 0) & (corr >= -_ROUNDING_TOL)] = 0.0
    corr[(corr > 1) & (corr <= 1 + _ROUNDING_TOL)] = 1.0

    i, j = np.nonzero(np.triu(corr < 0, k=1))
    if i.size:
        raise NotOdnError(
            [(int(a), int(b), float(corr[a, b])) for a, b in zip(i, j)]
        )
    # Overflow in the sums can still leave a NaN or inf here. The matrix is
    # symmetric with a unit diagonal, so the first in its upper triangle is
    # the first in row-major order.
    rows, cols = np.nonzero(np.triu(corr != 0, k=1))
    vals = corr[rows, cols]
    bad = ~np.isfinite(vals)
    if bad.any():
        k = int(np.argmax(bad))
        raise NonFiniteError(int(rows[k]), int(cols[k]), float(vals[k]))
    return OdnMatrix(features, rows, cols, vals, np.ones(features))


@dataclass(frozen=True, eq=False)
class PcaComparison:
    """Top-p principal-component variances of a correlation matrix and its
    sparsified counterpart, with the certified deviation bounds."""

    n: int
    p: int
    epsilon: float
    seed: int
    variances: np.ndarray
    variances_hat: np.ndarray
    gaps: np.ndarray
    per_component_bound: float
    cumulative: float
    cumulative_hat: float
    cumulative_bound: float
    cumulative_bound_literal: float
    rho_laplacian: float
    psd_ok: bool
    psd_hat_ok: bool
    status: str  # "pass" | "fail" | "hypothesis-unmet"
    verification: VerificationRecord
    dense_seconds: float
    iterative_seconds: float
    iterative_converged: bool
    nnz_before: int
    nnz_after: int
    paths: dict[str, str]  # `PairSpectra.paths` of the pair: the pencil's solver

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def pca_compare(
    matrix,
    epsilon: float,
    p: int,
    seed: int = 0,
    *,
    constant: float = 9.0,
    dense_limit: int = DENSE_LIMIT,
) -> PcaComparison:
    """Compare top-p component variances before and after sparsification.

    Requires a correlation matrix (constant unit diagonal), so the
    certified per-component bound is exactly eps * sqrt(n) * rho(L): the
    diagonal-spread term vanishes. The reference solve is a dense
    values-only solve of M; the sparsified solve runs the iterative
    eigensolver on M_hat's cheaper form (`PairSpectra.eigsh_operand`). Both
    solves are timed, the iterative one with the choice of form included.
    """
    m = validate_odn(matrix)
    off_unit = np.abs(m.diag - 1.0) > 1e-9
    if off_unit.any():
        i = int(np.flatnonzero(off_unit)[0])
        raise NotCorrelationError(i, float(m.diag[i]))
    if not (1 <= p <= m.n):
        raise ValueError(f"p must satisfy 1 <= p <= n, got p={p}, n={m.n}")

    decomp = decompose(m)
    spectra = PairSpectra(decomp, dense_limit=dense_limit)
    result = sparsify_laplacian(spectra, epsilon, seed, constant)
    m_hat = result.matrix(decomp.center)
    spectra.hat = result
    verification = verify_sparsifier(spectra, epsilon=epsilon)
    rho = spectra.laplacian_norm
    spectra.release_laplacians()  # nothing reads L or L_hat after rho(L)
    unit_bound = epsilon * math.sqrt(m.n) * rho

    t0 = time.perf_counter()
    variances = np.linalg.eigvalsh(m.to_dense())[::-1][:p]
    dense_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    method = "iterative" if p < m.n else "dense"
    sparse_sys = eigen_decompose(spectra.eigsh_operand(m_hat), k=p, method=method)
    iterative_seconds = time.perf_counter() - t0

    variances_hat = sparse_sys.values[:p]
    gaps = np.abs(variances - variances_hat)
    # The comparison allows the iterative (ARPACK) solve a floor of 1e-8 *
    # rho, far above its converged residual; it only matters when rho(L) = 0.
    solver_floor = 1e-8 * max(1.0, float(np.abs(variances).max(initial=0.0)))
    within = bool(np.all(gaps <= unit_bound * (1.0 + 1e-9) + solver_floor))
    if within:
        status = "pass"
    elif not verification.passed:
        status = "hypothesis-unmet"
    else:
        status = "fail"

    count = len(variances)
    return PcaComparison(
        n=m.n,
        p=p,
        epsilon=float(epsilon),
        seed=int(seed),
        variances=variances,
        variances_hat=variances_hat,
        gaps=gaps,
        per_component_bound=unit_bound,
        cumulative=float(variances.sum()),
        cumulative_hat=float(variances_hat.sum()),
        cumulative_bound=count * unit_bound,
        cumulative_bound_literal=count * (count + 1) / 2.0 * unit_bound,
        rho_laplacian=rho,
        psd_ok=bool(np.all(variances >= -1e-9 * max(1.0, rho))),
        psd_hat_ok=bool(np.all(variances_hat >= -1e-9 * max(1.0, rho))),
        status=status,
        verification=verification,
        dense_seconds=dense_seconds,
        iterative_seconds=iterative_seconds,
        iterative_converged=sparse_sys.converged,
        nnz_before=m.nnz,
        nnz_after=result.nnz_after,
        paths=spectra.paths,
    )
