"""Downstream uses of the sparsification pipeline.

Approximate PCA on nonnegative correlation matrices with per-component
and cumulative variance-deviation bounds. The variances of a correlation
matrix M and of its sparsifier M_hat are the top of their spectra, which
the pair solves once each (`PairSpectra.matrix_values`), as it does for
the spectral report.
"""

from __future__ import annotations

import math
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
from .spectra import DENSE_LIMIT, PairSpectra

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
    nnz_before: int
    nnz_after: int
    paths: dict[str, str]  # `PairSpectra.paths` of the pair: each solve's form

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
    diagonal-spread term vanishes. The variances are the top p eigenvalues
    of M and of M_hat from the pair's one values solve of each
    (`PairSpectra.matrix_values`: `dsbevd` in band storage for a side with
    a narrow band, else `eigvalsh`). Each side's solve is started as soon
    as the side exists (`PairSpectra.start_values`): M's once the pair is
    built, M_hat's once the sampler has drawn it, so that a band side
    solves on the pair's worker while the pencil is certified.
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
    spectra.start_values("matrix")
    result = sparsify_laplacian(spectra, epsilon, seed, constant)
    spectra.hat, spectra.matrix_hat = result, result.matrix(decomp.center)
    spectra.start_values("matrix_hat")
    verification = verify_sparsifier(spectra, epsilon=epsilon)
    rho = spectra.laplacian_norm
    unit_bound = epsilon * math.sqrt(m.n) * rho

    values, values_hat = spectra.matrix_values
    variances, variances_hat = values[::-1][:p], values_hat[::-1][:p]
    gaps = np.abs(variances - variances_hat)
    # A floor of 1e-8 * max |variance| for the two solves' rounding; it only
    # matters when rho(L) = 0.
    solver_floor = 1e-8 * max(1.0, float(np.abs(variances).max(initial=0.0)))
    within = bool(np.all(gaps <= unit_bound * (1.0 + 1e-9) + solver_floor))
    status = "pass" if within else "fail" if verification.passed else "hypothesis-unmet"

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
        nnz_before=m.nnz,
        nnz_after=result.nnz_after,
        paths=spectra.paths,
    )
