"""Downstream uses of the sparsification pipeline.

Quadratic-form gap certification (|x'Mx - x'M_hat x| against
||M - M_hat|| * ||x||^2, plus inertia of both matrices) and approximate
PCA on nonnegative correlation matrices with per-component and
cumulative variance-deviation bounds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import OdnMatrix, decompose, reconstruct, validate_odn
from .errors import (
    DimensionMismatchError,
    NotCorrelationError,
    NotOdnError,
    ZeroVarianceColumnError,
)
from .sparsify import VerificationRecord, sparsify_laplacian, verify_sparsifier
from .spectra import (
    DENSE_LIMIT,
    InertiaCounts,
    PairSpectra,
    eigen_decompose,
    spectral_norm,
)

_ROUNDING_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class QuadFormRecord:
    x: np.ndarray
    value: float
    value_hat: float
    gap: float
    bound: float


@dataclass(frozen=True, eq=False)
class QuadFormReport:
    records: list[QuadFormRecord]
    norm_diff: float
    inertia: InertiaCounts
    inertia_hat: InertiaCounts

    @property
    def inertia_match(self) -> bool:
        return self.inertia == self.inertia_hat

    @property
    def max_gap(self) -> float:
        return max((r.gap for r in self.records), default=0.0)


def quadform_gap(matrix, matrix_hat, xs) -> QuadFormReport:
    """Evaluate x'Mx and x'M_hat x over probe vectors with certified gaps.

    The certified per-vector bound is ||M - M_hat||_2 * ||x||^2, which
    the measured gap can never exceed. Both matrices are densified at any
    n, so the pair's dense limit admits n.
    """
    m = validate_odn(matrix)
    m_hat = validate_odn(matrix_hat)
    if m.n != m_hat.n:
        raise DimensionMismatchError((m.n, m.n), (m_hat.n, m_hat.n))
    a = m.to_dense()
    b = m_hat.to_dense()
    spectra = PairSpectra(matrix=m, matrix_hat=m_hat, dense_limit=m.n)
    norm_diff = spectral_norm(a - b)

    records = []
    for x in xs:
        v = np.asarray(x, dtype=np.float64).reshape(-1)
        if v.shape != (m.n,):
            raise DimensionMismatchError(v.shape, (m.n,))
        q = float(v @ a @ v)
        q_hat = float(v @ b @ v)
        records.append(
            QuadFormRecord(
                x=v,
                value=q,
                value_hat=q_hat,
                gap=abs(q - q_hat),
                bound=norm_diff * float(v @ v),
            )
        )

    eig_a, eig_b = spectra.matrix_values
    tol_a = 1e-9 * max(1.0, float(np.abs(eig_a).max()))
    tol_b = 1e-9 * max(1.0, float(np.abs(eig_b).max()))
    return QuadFormReport(
        records=records,
        norm_diff=norm_diff,
        inertia=InertiaCounts.from_values(eig_a, tol_a),
        inertia_hat=InertiaCounts.from_values(eig_b, tol_b),
    )


def correlation_from_data(data, *, unbiased: bool = False) -> OdnMatrix:
    """Correlation matrix of a samples-by-features array, as an ODN matrix.

    Columns are centered and scaled to unit variance here; a zero-variance
    column raises ZeroVarianceColumnError. Normalization is by the sample
    count (rows), or rows - 1 with unbiased=True. Any genuinely negative
    correlation raises NotOdnError listing the offending pairs; magnitudes
    within 1e-12 of 0 or 1 are treated as rounding and clamped.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"data must be 2-d (samples x features), got {x.ndim}-d")
    samples, features = x.shape
    if samples < 2 or features < 1:
        raise ValueError(f"need >= 2 samples and >= 1 feature, got {x.shape}")

    ddof = 1 if unbiased else 0
    centered = x - x.mean(axis=0)
    std = centered.std(axis=0, ddof=ddof)
    # A constant column can leave std ~ machine-eps * scale instead of an
    # exact zero; treat anything at rounding level as zero variance.
    scale = np.abs(x).max(axis=0)
    flat = np.flatnonzero(std <= 1e-12 * scale)
    if flat.size:
        raise ZeroVarianceColumnError(int(flat[0]))

    z = centered / std
    corr = (z.T @ z) / (samples - ddof)
    np.fill_diagonal(corr, 1.0)
    corr[(corr < 0) & (corr >= -_ROUNDING_TOL)] = 0.0
    corr[(corr > 1) & (corr <= 1 + _ROUNDING_TOL)] = 1.0

    i, j = np.nonzero(np.triu(corr < 0, k=1))
    if i.size:
        raise NotOdnError(
            [(int(a), int(b), float(corr[a, b])) for a, b in zip(i, j)]
        )
    return validate_odn(corr)


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
    probes: int = 1000,
    dense_limit: int = DENSE_LIMIT,
) -> PcaComparison:
    """Compare top-p component variances before and after sparsification.

    Requires a correlation matrix (constant unit diagonal), so the
    certified per-component bound is exactly eps * sqrt(n) * rho(L): the
    diagonal-spread term vanishes. The sparsified solve uses the iterative
    eigensolver (it benefits from the sparsity); both solves are timed.
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
    m_hat = reconstruct(result.adjacency, decomp.center)
    spectra.hat = result
    verification = verify_sparsifier(spectra, epsilon=epsilon, probes=probes, seed=seed)
    rho = spectra.laplacian_norm
    unit_bound = epsilon * math.sqrt(m.n) * rho

    t0 = time.perf_counter()
    dense_sys = eigen_decompose(m.to_dense(), k=p)
    dense_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    method = "iterative" if p < m.n else "dense"
    sparse_sys = eigen_decompose(m_hat, k=p, method=method)
    iterative_seconds = time.perf_counter() - t0

    variances = dense_sys.values[:p]
    variances_hat = sparse_sys.values[:p]
    gaps = np.abs(variances - variances_hat)
    # The iterative solve is certified only to a 1e-8 * rho residual, so
    # the comparison carries that floor; it only matters when rho(L) = 0.
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
    )
