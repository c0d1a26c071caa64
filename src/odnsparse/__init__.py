"""Spectral sparsification of symmetric matrices with nonnegative
off-diagonal entries.

Pipeline: validate -> decompose (adjacency/degrees/Laplacian) -> center
the diagonal -> sample an epsilon-spectral sparsifier of the Laplacian by
effective resistances -> reconstruct a sparse matrix whose spectrum
deviates from the original by at most
eps * sqrt(n) * rho(L) + (delta_max - delta_min) / 2 per eigenvalue,
with matching Davis-Kahan eigenvector angle bounds. Every bound is also
checked numerically. All randomness is numpy PCG64 and seeded, and
bit-reproducible under one numpy version (NEP 19).
"""

import time as _time

_import_started = _time.perf_counter()

import importlib.util as _importlib_util
import sys as _sys

# numpy submodules that neither scipy nor odnsparse runs, but that scipy's
# import would: its `array_api_compat.clone_module` calls `hasattr(numpy,
# name)` for every name in `dir(numpy)`, and numpy 2's module `__getattr__`
# imports each submodule it lists. numpy.f2py and numpy.testing are about a
# third of the CLI's start-up. numpy.ma (read by `np.unique` in
# `scipy.sparse.diags`) and numpy.random (the sampler, ARPACK's start vector)
# run in every command, so deferring them would only move their import there.
_DEFERRED_NUMPY_SUBMODULES = ("numpy.f2py", "numpy.testing", "numpy.polynomial")


def _defer_numpy_submodules() -> None:
    """Make each of _DEFERRED_NUMPY_SUBMODULES not imported yet a lazy module
    (`importlib.util.LazyLoader`), which runs on its first attribute access,
    and numpy's attribute of that name: without it, numpy's `__getattr__`
    would import the module under its own name and recurse. On Python 3.10
    and 3.11 a lazy module's first access is not thread-safe."""
    import numpy

    for name in _DEFERRED_NUMPY_SUBMODULES:
        if name in _sys.modules:
            continue
        spec = _importlib_util.find_spec(name)
        if spec is None:
            continue
        loader = spec.loader = _importlib_util.LazyLoader(spec.loader)
        module = _importlib_util.module_from_spec(spec)
        _sys.modules[name] = module
        loader.exec_module(module)
        setattr(numpy, name.rpartition(".")[2], module)


_defer_numpy_submodules()

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
    InvalidSeedError,
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
    SpectralReport,
    WeylCheck,
    adjacency_norm_check,
    davis_kahan,
    eigen_decompose,
    eigenvalue_deviation_bound,
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
    "InvalidSeedError",
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
    "sparsify_laplacian",
    "spectral_norm",
    "spectral_report",
    "validate_odn",
    "verify_sparsifier",
    "weyl_check",
    "write_matrix_market",
]

# Wall time of this module's import, submodules and scipy included: read
# into the reports' timings.import_s.
_import_s = _time.perf_counter() - _import_started
