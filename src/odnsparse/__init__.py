"""Spectral sparsification of symmetric matrices with nonnegative
off-diagonal entries.

Pipeline: validate -> decompose (adjacency/degrees/Laplacian) -> center
the diagonal -> sample an epsilon-spectral sparsifier of the Laplacian by
effective resistances -> reconstruct a sparse matrix whose spectrum
deviates from the original by at most
eps * sqrt(n) * rho(L) + (delta_max - delta_min) / 2 per eigenvalue,
with matching Davis-Kahan eigenvector angle bounds. Every bound is also
checked numerically. All randomness is numpy PCG64, seeded and portable.
"""

from .core import (
    LaplacianDecomposition,
    OdnMatrix,
    center_diagonal,
    decompose,
    reconstruct,
    validate_odn,
)
from .errors import (
    AsymmetricError,
    DenseLimitExceededError,
    DimensionMismatchError,
    DuplicateEntryError,
    FactorizationError,
    GeneratorSpecError,
    InvalidConstantError,
    InvalidEpsilonError,
    NegativeOffDiagonalError,
    NonFiniteError,
    NormNotConvergedError,
    NotCorrelationError,
    NotOdnError,
    OdnError,
    ParseError,
    ZeroVarianceColumnError,
)
from .generators import generate_odn, parse_generator_spec
from .mmio import read_matrix_market, write_matrix_market
from .sparsify import (
    SparsifierResult,
    VerificationRecord,
    effective_resistances,
    sample_count,
    sparsify_laplacian,
    verify_sparsifier,
)
from .spectra import (
    AngleBound,
    EigenSystem,
    InertiaCounts,
    NormComparison,
    PairSpectra,
    SparsifierNormCheck,
    SpectralReport,
    WeylCheck,
    adjacency_norm_check,
    davis_kahan,
    eigen_decompose,
    eigenvalue_deviation_bound,
    sparsifier_norm_check,
    spectral_norm,
    spectral_report,
    weyl_check,
)
from .applications import (
    PcaComparison,
    correlation_from_data,
    pca_compare,
)

__version__ = "0.1.0"

__all__ = [
    "AngleBound",
    "AsymmetricError",
    "DenseLimitExceededError",
    "DimensionMismatchError",
    "DuplicateEntryError",
    "EigenSystem",
    "FactorizationError",
    "GeneratorSpecError",
    "InertiaCounts",
    "InvalidConstantError",
    "InvalidEpsilonError",
    "LaplacianDecomposition",
    "NegativeOffDiagonalError",
    "NonFiniteError",
    "NormComparison",
    "NormNotConvergedError",
    "NotCorrelationError",
    "NotOdnError",
    "OdnError",
    "OdnMatrix",
    "PairSpectra",
    "ParseError",
    "PcaComparison",
    "SparsifierNormCheck",
    "SparsifierResult",
    "SpectralReport",
    "VerificationRecord",
    "WeylCheck",
    "ZeroVarianceColumnError",
    "adjacency_norm_check",
    "center_diagonal",
    "correlation_from_data",
    "davis_kahan",
    "decompose",
    "effective_resistances",
    "eigen_decompose",
    "eigenvalue_deviation_bound",
    "generate_odn",
    "parse_generator_spec",
    "pca_compare",
    "read_matrix_market",
    "reconstruct",
    "sample_count",
    "sparsifier_norm_check",
    "sparsify_laplacian",
    "spectral_norm",
    "spectral_report",
    "validate_odn",
    "verify_sparsifier",
    "weyl_check",
    "write_matrix_market",
]
