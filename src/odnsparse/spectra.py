"""Eigendecomposition and numerical verification of perturbation bounds.

Covers: the end-to-end eigenvalue deviation bound
eps * sqrt(n) * rho(L) + (delta_max - delta_min) / 2 with its per-index
Davis-Kahan angle bounds, the certificates a pair gets besides the
sparsifier inequality, and checkers of two lemmas of that bound on any
pair: Weyl's eigenvalue perturbation bound and the adjacency-vs-Laplacian
norm comparison. Every check reads from one shared `PairSpectra` for the pair
(M, M_hat), whose roles each solve once, on first use, and which owns the
dense limit: above it, a role with no iterative path raises
DenseLimitExceededError.

L is factored, not eigendecomposed (`PairSpectra.grounded_factor`): its
kernel is exact, the indicator vectors of its graph's components, and one
grounded vertex per component leaves a positive definite L_g = C C'. The
factor feeds the resistances, through G = L_g^-1, and the pencil
(L_hat, L), through C^-1 L_hat_g C^-T. A dense factor holds C^-1, so G is
C^-T C^-1 and the reduced matrix is formed. An L held as CSR whose grounded
block has a narrow band after reverse Cuthill-McKee keeps C in band
storage: the resistances read only G's band (Takahashi's recurrence) and
ARPACK applies the reduced matrix by two band solves, with no n x n array.

The one iterative eigensolver is ARPACK's (`scipy.sparse.linalg.eigsh`),
from one fixed start vector. It gives top-k eigenpairs, and the pencil's
two extremes and every 2-norm the pair reports (`_norm_bracket`) as
brackets: a Ritz value widened by its residual and by n * eps * |theta|
for rounding (the pencil's by at least 32 eps |theta|), so that the
bracket holds the dense solve's value too. A check reads whichever end
makes it stricter. Every scipy ARPACK, LAPACK and BLAS call holds scipy's
OpenBLAS to one thread (`_one_scipy_thread`): its workers, left spinning,
would take the cores from numpy's next dense solve. The hold is one
process-wide re-entrant lock. The band spectra's worker thread takes no
hold: it solves while its caller enters and leaves the hold around the
pencil, which would stall behind it. It needs none, as a values-only
`dsbevd` runs on one thread whatever the pool's count: with scipy's pool at
2 threads, one worker solve of a 60 x 60 grid (kd = 60) took 1.004-1.006 s
of process CPU time in 1.009-1.011 s of wall time.

The spectra of M and M_hat are solved for their values only
(`PairSpectra.matrix_values`): the deviations, Weyl, the inertia and every
Davis-Kahan bound r_norm / gap read them, a side with a narrow band by
`dsbevd` in band storage. That `dsbevd` is scipy's Cython export, called
through ctypes with the GIL released (`_dsbevd`), so a band side's solve
can start as soon as the side exists (`PairSpectra.start_values`): on the
pair's one worker thread, pinned to another CPU, while the caller goes on
with the sampler, the pencil and ||M - M_hat||. `matrix_values` takes back
and solves itself each solve the worker has not begun, and collects the
rest. An eigenvector is solved only for an index whose bound is below
1 - 1e-9, where the angle check can fail, by ARPACK's top or bottom block
where that block is small.

The pair holds each Laplacian in one form, read by every role: a dense
array when the graph is dense and within the limit, else its CSR
Laplacian. With a dense factor, the pencil's solve holds the reduced
matrix, which ARPACK multiplies by without a copy, besides the held
Laplacians: 3 n^2 floats for a dense pair, n^2 for a sparse one. A band
factor holds O(n kd) floats, kd its bandwidth. The pair drops the held
Laplacians itself (`release_laplacians`) before its eigensolves of M and
M_hat (`matrix_values`), after which no check reads them; the spectral stage
holds no n x n eigenvector array unless the angle check needs a dense
fallback; a grid holds no n x n array at all.
"""

from __future__ import annotations

import ctypes
import importlib
import math
import os
import re
import threading
import weakref
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, cython_lapack, lapack
from scipy.linalg import eigh_tridiagonal  # noqa: F401  (bench/tracer.py patches this name)
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .core import GraphViews, LaplacianDecomposition, OdnMatrix, decompose, validate_odn
from .errors import (
    DenseLimitExceededError,
    DimensionMismatchError,
    FactorizationError,
    InvalidConstantError,
    InvalidEpsilonError,
    NormNotConvergedError,
    OdnError,
)

DENSE_LIMIT = 4096
_ARPACK_START_SEED = 0x0D25
# ARPACK's single-vector products are memory-bound, so the dense form pays
# only where it is no larger than the CSR form: 8 n^2 <= 12 nnz bytes. Top-50
# eigsh on 2 BLAS threads, sparse vs dense: n = 400 at 12 / 44 / 74 % stored,
# 45 vs 52, 65 vs 51, 94 vs 49 ms; n = 2000, 602 vs 1312, 2142 vs 1299,
# 3758 vs 1166 ms.
_DENSE_ARPACK_SHARE = 2 / 3
# The angle check's eigenvectors of M and M_hat come from ARPACK's top and
# bottom blocks (which implies k < n - 1) when their k columns are at most
# n / 40, else from a dense `eigh` of the side. Top-k `eigsh` on the operand
# ARPACK gets against `eigh`, 2 BLAS threads, complete graphs (dense
# operands): n = 100, k = 1 1.2 vs 1.7 ms, k = 2 5.3 ms; n = 400, k = 10 22
# vs 23 ms, k = 20 27 ms; n = 900, k = 20 72 vs 104 ms, k = 50 118 ms;
# n = 2000, k = 50 0.64 vs 1.22 s, k = 100 1.39 s. Grid 30 x 30 (CSR):
# k = 20 20 vs 138 ms, k = 100 160 ms. k = 1, the Perron vector and the one
# index live on the bench inputs, is 2.5 ms at n = 400 and 22 ms at
# n = 2000.
_ARPACK_VECTOR_SHARE = 1 / 40
# ARPACK restarts allowed within the dense limit, for the pencil's two extremes
# and every 2-norm (`_norm_bracket`), before a dense solve takes over. Over 90
# pencils (paths, grids, Erdos-Renyi and complete graphs, n <= 900) a converged
# solve took at most 325 products, a norm of the bench pairs 211. On a path of
# 50 vertices (a double lowest eigenvalue) the default 10 n restarts spent 8354
# products, 0.17 s against 0.2 ms dense, without converging. 50 restarts bound
# a failure near 900 products: about 4 dense solves at n = 900, fewer above.
_PENCIL_RESTARTS = 50
# Least row count of the pencil's rounding allowance (`_rounding`): forming and
# solving the reduced pencil rounds by a few eps |theta| at any size. With n
# eps |theta| alone, paths on 3, 4, 6 and 50 vertices missed their exact
# pencil extremes by up to 3.7 eps |theta|; with the floor none of 3 to 50
# does. rho(L) and a difference norm solve their operand as given.
_ROUNDING_FLOOR = 32
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
# M or M_hat is solved in band storage when its RCM bandwidth has
# kd + 1 <= n / 20: (kd + 1) n doubles, not two n x n arrays. Its values,
# dense (`eigvalsh`) vs band (CSR, RCM, `dsbevd`), first call in a fresh
# process, 2 cores, ms ((kd + 1) / n): shuffled band graphs n = 900 at 0.02
# 55 vs 53, 0.04 64 vs 57, 0.05 60 vs 62, 0.08 56 vs 96; n = 1600 at 0.02
# 306 vs 182, 0.04 298 vs 275, 0.05 309 vs 331, 0.08 289 vs 575. Grids: 30x30
# (0.034) 50 vs 43, 60x60 (0.017) 2524 vs 1093; below n = 400 about 1 ms.
_BAND_VALUES_SHARE = 1 / 20

try:
    _LIBC = ctypes.CDLL(None)
except (OSError, TypeError):
    _LIBC = None


def _libc(name: str, argtypes: list, restype):
    """The C library's function `name`, typed, or None where it is missing."""
    function = getattr(_LIBC, name, None)
    if function is not None:
        function.argtypes, function.restype = argtypes, restype
    return function


# glibc serves an array below its adaptive mmap threshold (up to 32 MiB: an
# n x n array up to n = 2048) from the heap once any larger block was freed,
# and free() gives back only the heap's top. The held Laplacians dropped in
# `release_laplacians` can then stay resident under what a later allocation
# pins, and the next eigensolve's workspace lands on top of them: `sparsify
# --input` of a complete n = 2000 file peaked at 398 MB, not 355 MB, until
# malloc_trim handed their pages back. Other C libraries have no malloc_trim.
_malloc_trim = _libc("malloc_trim", [ctypes.c_size_t], ctypes.c_int)
# The CPU the calling thread runs on, or -1 (`matrix_values`' placement).
_sched_getcpu = _libc("sched_getcpu", [], ctypes.c_int)


def _openblas(module: str, suffix: str = ""):
    """(get_num_threads, set_num_threads, get_config) of the bundled
    `scipy_openblas` that the extension `module` links, or None where its
    symbols are missing (MKL, or a system OpenBLAS shared by numpy and scipy).
    numpy's wheels name them with the suffix `64_`, scipy's with none."""
    try:
        lib = ctypes.CDLL(importlib.import_module(module).__file__)
        functions = tuple(getattr(lib, f"scipy_openblas_{name}{suffix}")
                          for name in ("get_num_threads", "set_num_threads", "get_config"))
    except (AttributeError, ImportError, OSError, TypeError):
        return None
    for function, argtypes, restype in zip(functions, ([], [ctypes.c_int], []),
                                           (ctypes.c_int, None, ctypes.c_char_p)):
        function.argtypes, function.restype = argtypes, restype
    return functions


# numpy's and scipy's wheels each bundle an OpenBLAS with its own thread pool.
# After a BLAS call from scipy, its idle workers spin for OpenBLAS's thread
# timeout and take the cores from numpy's next dense solve: on 2 cores,
# `sparsify` of a 30 x 30 grid with ARPACK's pool left at 2 threads spent
# 0.37 s, not 0.30 s, in the dense eigensolves of M and M_hat. So every scipy
# ARPACK, LAPACK and BLAS call (ARPACK links scipy.linalg's OpenBLAS) holds
# this pool to one thread (`_one_scipy_thread`). The count is process-wide:
# calls from several threads take the re-entrant _SCIPY_HOLD in turn.
_SCIPY_BLAS = _openblas("scipy.sparse.linalg._eigen.arpack._arpacklib")
_SCIPY_HOLD = threading.RLock()


def _blas_pools() -> list[tuple[str, str, int]]:
    """(owner, library, threads) of each bundled OpenBLAS pool found: numpy's,
    and scipy's, which ARPACK and the grounded factor use."""
    pools = [("numpy", _openblas("numpy._core._multiarray_umath", "64_")),
             ("scipy (1 thread inside its calls)", _SCIPY_BLAS)]
    return [(owner, " ".join(found[2]().decode().split()), int(found[0]()))
            for owner, found in pools if found is not None]


@contextmanager
def _one_scipy_thread():
    """Hold scipy's OpenBLAS pool to one thread inside the block and put back
    the count found, also on raising; a no-op where its symbols are missing."""
    if _SCIPY_BLAS is None:
        yield
        return
    get_threads, set_threads, _ = _SCIPY_BLAS
    with _SCIPY_HOLD:
        threads = get_threads()
        set_threads(1)
        try:
            yield
        finally:
            set_threads(threads)


# scipy's f2py `lapack.dsbevd` holds the GIL through the solve, so no other
# Python thread runs beside it: a counting loop in a second thread ran 0.5-0.7
# M iterations during five n = 900 solves (0.24-0.28 s), against 1.6-3.5 M in
# 0.25 s idle, and at its idle rate beside the same solves called through
# ctypes. scipy exports the same LAPACK routines to Cython as capsules; ctypes
# calls one with the GIL released (numba binds scipy's LAPACK the same way).
_CAPSULE_NAME = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_CAPSULE_POINTER = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))
_C_NAMES = {ctypes.c_char: "char", ctypes.c_int: "int", ctypes.c_double: "double"}


def _cython_lapack(name: str, *args):
    """scipy's Cython export of the LAPACK routine `name` as a ctypes function
    of one pointer to each C type in `args`, once the export's C signature is
    checked against them."""
    capsule = cython_lapack.__pyx_capi__[name]
    signature = _CAPSULE_NAME(capsule)
    declared = "void (" + ", ".join(f"{_C_NAMES[arg]} *" for arg in args) + ")"
    if re.sub(r"\w*cython_lapack_d\b", "double", signature.decode()) != declared:
        raise ImportError(f"scipy's cython_lapack.{name} is {signature.decode()!r}, "
                          f"not {declared!r}")
    return ctypes.CFUNCTYPE(None, *map(ctypes.POINTER, args))(
        _CAPSULE_POINTER(capsule, signature))


_c, _i, _d = ctypes.c_char, ctypes.c_int, ctypes.c_double
# jobz, uplo, n, kd, ab, ldab, w, z, ldz, work, lwork, iwork, liwork, info
_LAPACK_DSBEVD = _cython_lapack("dsbevd", _c, _c, _i, _i, _d, _i, _d, _d, _i, _d, _i, _i, _i, _i)


def _dsbevd(band: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix in lower band storage,
    (kd + 1) x n in Fortran order, which the solve overwrites: LAPACK's
    `dsbevd`, values only, with the workspace scipy's `lapack.dsbevd(band,
    compute_v=0, lower=1)` gives it, and with the GIL released. It takes no
    hold of scipy's pool: the calling thread holds it (`_one_scipy_thread`),
    the band worker runs without (`_BandWorker`). Raises LinAlgError where
    `dsbevd` fails."""
    band = np.require(band, np.float64, ["F_CONTIGUOUS", "WRITEABLE"])
    (rows, n), info = band.shape, _i()
    values, work = np.empty(n), np.empty(max(1, 2 * n))
    doubles = ctypes.POINTER(_d)
    _LAPACK_DSBEVD(b"N", b"L", _i(n), _i(rows - 1), band.ctypes.data_as(doubles), _i(rows),
                   values.ctypes.data_as(doubles), work.ctypes.data_as(doubles), _i(1),
                   work.ctypes.data_as(doubles), _i(len(work)), _i(), _i(1), info)
    if info.value:
        raise np.linalg.LinAlgError(f"dsbevd did not converge (info {info.value})")
    return values


# Left to the scheduler, the two band solves of `matrix_values` (n = 900,
# kd = 30) both started and ended on one CPU of a 2-CPU VM in 7 of 12 fresh
# processes, 86-99 ms; with the worker pinned off the caller's CPU, 12 of 12
# ran apart, 42-59 ms. The pin is the worker's own and ends with its thread.
def _pin_off_cpu(cpu: int) -> None:
    """Pin the calling thread to the lowest allowed CPU other than `cpu`.
    Nothing is placed where `cpu` is unknown (-1), where the mask allows one
    CPU, or where the OS has no `sched_setaffinity`."""
    if cpu >= 0 and hasattr(os, "sched_setaffinity"):
        allowed = os.sched_getaffinity(0)
        if len(allowed) > 1:
            os.sched_setaffinity(0, {min(allowed - {cpu})})


class _BandWorker:
    """One thread that solves the bands `submit` gives it (`_dsbevd`), in
    order, each behind a Future, once pinned off `cpu`, its starter's CPU
    (`_pin_off_cpu`; a placement the OS refuses is skipped). A Future whose
    solve has not begun can be cancelled, and its caller then solves it. The
    thread is a daemon, so a process that fails before reading a result
    exits without waiting for a solve."""

    def __init__(self, cpu: int):
        # Imported here: a run that starts no band solve would load it for nothing.
        from queue import SimpleQueue

        self._queue, self._futures = SimpleQueue(), []
        self.thread = threading.Thread(target=self._run, args=(cpu,), daemon=True)
        self.thread.start()

    def submit(self, band: np.ndarray) -> Future:
        future = Future()
        self._futures.append(future)
        self._queue.put((future, band))
        return future

    def close(self) -> None:
        """Cancel every solve not begun, and end the thread after the one it
        runs, if any; `thread.join()` waits for that."""
        for future in self._futures:
            future.cancel()
        self._futures.clear()
        self._queue.put(None)

    def _run(self, cpu: int) -> None:
        try:
            _pin_off_cpu(cpu)
        except OSError:
            pass
        while (item := self._queue.get()) is not None:
            future, band = item
            if future.set_running_or_notify_cancel():
                try:
                    future.set_result(_dsbevd(band))
                except Exception as exc:  # read by the caller, from `result()`
                    future.set_exception(exc)


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
        return sp.csr_matrix(x.adjacency() + sp.diags(x.diag))
    return sp.csr_matrix(x)


def _stored(x) -> int:
    """Entries `x` stores: a graph side's Laplacian's, an OdnMatrix's or a
    sparse matrix's nnz, else n^2."""
    if isinstance(x, GraphViews):
        return x.laplacian_nnz
    return x.nnz if isinstance(x, OdnMatrix) or sp.issparse(x) else np.shape(x)[0] ** 2


def _max_abs(x) -> float:
    """max |x_ij|, without an n x n temporary for a dense x."""
    if not min(x.shape):
        return 0.0
    if sp.issparse(x):
        return float(abs(x).max())
    return float(max(x.max(), -x.min()))


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


def _band_inverse(band: np.ndarray) -> np.ndarray:
    """The band of G = L_g^-1 = C^-T C^-1, in lower band storage with a last
    column of 0s (a grounded vertex), from C in lower band storage: Takahashi,
    Fagan and Chin's backward recurrence (1973). Column j of G C = C^-T gives
    g = -G[j+1:, j+1:] C[j+1:, j] / c_jj for G's column j below its diagonal,
    where C[j+1:, j] is nonzero only within the band, so only G's band is
    read; then G_jj = (1 / c_jj - g . C[j+1:, j]) / c_jj. One `dsbmv` per
    column: O(k kd^2) work and no k x k array."""
    kd, k = len(band) - 1, band.shape[1]
    inverse = np.zeros((kd + 1, k + 1), order="F")
    if not kd:  # a diagonal L_g
        inverse[0, :k] = band[0] ** -2.0
        return inverse
    inverse[0, k - 1] = band[0, k - 1] ** -2.0
    with _one_scipy_thread():
        for j in range(k - 2, -1, -1):
            below, pivot = min(kd, k - 1 - j), 1.0 / band[0, j]
            column = band[1:below + 1, j]
            g = blas.dsbmv(kd, -pivot, inverse[:, j + 1:j + 1 + below], column, lower=1)
            inverse[1:below + 1, j] = g
            inverse[0, j] = pivot * (pivot - g @ column)
    return inverse


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

    def toarray(self) -> np.ndarray:
        """The reduced matrix itself, C^-1 (C^-1 L_hat_g)', by two `dtbtrs`."""
        with _one_scipy_thread():
            half = lapack.dtbtrs(self.band, self.hat.toarray(order="F"), uplo="L")[0]
            return lapack.dtbtrs(self.band, half.T, uplo="L", overwrite_b=1)[0]


@dataclass(frozen=True, eq=False)
class GroundedFactor:
    """L_g = C C': L with one vertex per component grounded, on the vertices
    `kept` in the factor's order. Dense (`bandwidth` None): `factor` is C^-1,
    k x k, from `dpotrf` and `dtrtri`. Band: `kept` is in reverse
    Cuthill-McKee order and `factor` is C in LAPACK's lower band storage,
    (bandwidth + 1) x k, from `dpbtrf`."""

    kept: np.ndarray
    factor: np.ndarray
    bandwidth: int | None = None

    @property
    def path(self) -> str:
        return "dense" if self.bandwidth is None else f"band kd={self.bandwidth}"

    def resistances(self, rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
        """G_uu + G_vv - 2 G_uv of G = L_g^-1 for each edge (rows, cols) of the
        n-vertex graph, a grounded vertex reading as 0: dense, G = C^-T C^-1;
        band, G's band (`_band_inverse`), which holds every edge. Read
        _BLOCK_ROWS * n edges at a time."""
        k = len(self.kept)
        index = np.full(n, k)  # a grounded vertex reads G's last row and column of 0s
        index[self.kept] = np.arange(k)
        if self.bandwidth is None:
            gram = np.zeros((k + 1, k + 1))
            np.matmul(self.factor.T, self.factor, out=gram[:k, :k])

            def inverse(r, c):
                return gram[r, c]
        else:
            band = _band_inverse(self.factor)

            def inverse(r, c):  # G_rc sits at offset |r - c| in column min(r, c)
                low = np.where(np.maximum(r, c) < k, np.minimum(r, c), k)
                return band[np.where(low < k, np.abs(r - c), 0), low]
        resistance = np.empty(len(rows))
        step = _BLOCK_ROWS * n
        for start in range(0, len(resistance), step):
            r, c = index[rows[start:start + step]], index[cols[start:start + step]]
            resistance[start:start + step] = inverse(r, r) + inverse(c, c) - 2 * inverse(r, c)
        return resistance

    def reduced(self, lap_hat):
        """C^-1 L_hat_g C^-T, for ARPACK: dense, formed by two in-place `dtrmm`
        in a copy of L_hat's grounded block; band, a `_BandPencil`."""
        if self.bandwidth is not None:
            return _BandPencil(self.factor, _sparse(lap_hat)[self.kept][:, self.kept])
        reduced = _grounded_block(lap_hat, self.kept)
        with _one_scipy_thread():
            reduced = blas.dtrmm(1.0, self.factor, reduced, lower=1, overwrite_b=1)
            return blas.dtrmm(1.0, self.factor, reduced, side=1, lower=1, trans_a=1,
                              overwrite_b=1)


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


def _band_factor(lap, kept: np.ndarray) -> GroundedFactor | None:
    """The grounded block of a sparse L in band storage (`_band`), factored by
    `dpbtrf`; None when its bandwidth kd is too wide for the band to pay,
    kd + 1 > k * _BAND_SHARE."""
    built = _band(sp.csr_matrix(lap)[kept][:, kept], _BAND_SHARE)
    if built is None:
        return None
    kept = kept[built[0]]
    with _one_scipy_thread():
        band, info = lapack.dpbtrf(built[1], lower=1, overwrite_ab=1)
    if info:
        raise FactorizationError("dpbtrf", info, int(kept[info - 1]) if info > 0 else None)
    return GroundedFactor(kept, band, len(band) - 1)


def _dense_factor(lap, kept: np.ndarray) -> GroundedFactor:
    """The grounded block of L, dense or sparse, copied dense and factored in
    place: C by `dpotrf`, then C^-1 by `dtrtri`."""
    if not kept.size:  # no edges: LAPACK rejects an empty matrix
        return GroundedFactor(kept, np.zeros((0, 0)))
    with _one_scipy_thread():
        inv, info = lapack.dpotrf(_grounded_block(lap, kept), lower=1, overwrite_a=1)
        routine = "dpotrf"
        if not info:
            inv, info = lapack.dtrtri(inv, lower=1, overwrite_c=1)
            routine = "dtrtri"
    if info:
        raise FactorizationError(routine, info, int(kept[info - 1]) if info > 0 else None)
    return GroundedFactor(kept, inv)


def _start_vector(n: int) -> np.ndarray:
    """ARPACK's fixed start vector. Not `ones`: that vector lies in the kernel
    of every Laplacian and of L - L_hat, where ARPACK breaks down."""
    return np.random.Generator(np.random.PCG64(_ARPACK_START_SEED)).standard_normal(n)


def _arpack(operand, k: int, which: str, maxiter: int | None = None):
    """`eigsh(operand, k, which=which, maxiter=maxiter)` from the fixed start
    vector, with scipy's OpenBLAS held to one thread (`_one_scipy_thread`)."""
    v0 = _start_vector(operand.shape[0])
    with _one_scipy_thread():
        return eigsh(operand, k=k, which=which, v0=v0, maxiter=maxiter)


def _residuals(operand, values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """||A q_i - theta_i q_i||_2 of each Ritz pair (theta_i, q_i)."""
    return np.linalg.norm(operand @ vectors - vectors * values, axis=0)


def _rounding(n: int, theta):
    """n * eps * |theta|: about twice the worst-case rounding of a length-n
    inner product, by which a Ritz value, its residual and a dense solve of
    the same matrix can disagree. The pencil's ARPACK extremes widened by
    their residuals alone missed numpy's `eigvalsh` by up to 1.4e-15 relative
    in the tests; at the dense limit this adds 9.1e-13 relative."""
    return n * np.finfo(np.float64).eps * np.abs(theta)


def _norm_bracket(role: str, operand, dense_limit: int) -> tuple[tuple[float, float], str]:
    """((low, high), path) of ||operand||_2, `operand` dense or sparse: the one
    rule for every 2-norm a pair reports. ARPACK's largest-magnitude Ritz pair
    (theta, q) gives low |theta| and high |theta| + ||A q - theta q||, each
    moved outward by `_rounding` ("arpack"). Within `dense_limit` ARPACK gets
    _PENCIL_RESTARTS restarts, after which `eigvalsh` gives both ends
    ("dense"); above it, NormNotConvergedError names `role`."""
    n, scale = operand.shape[0], _max_abs(operand)
    if n == 1 or not scale:  # ARPACK needs n >= 2 and a nonzero operand
        return (scale, scale), "arpack"
    try:
        theta, q = _arpack(operand, 1, "LM", _PENCIL_RESTARTS if n <= dense_limit else None)
    except ArpackNoConvergence:
        if n > dense_limit:
            raise NormNotConvergedError(role, n, dense_limit)
        norm = spectral_norm(operand, dense_limit=dense_limit)
        return (norm, norm), "dense"
    value, pad = abs(float(theta[0])), float(_rounding(n, theta[0]))
    return (value - pad, value + float(_residuals(operand, theta, q)[0]) + pad), "arpack"


def spectral_norm(matrix, *, dense_limit: int = DENSE_LIMIT) -> float:
    """2-norm of a symmetric matrix: max |eigenvalue|.

    Dense eigensolve up to dense_limit. Beyond it, the upper end of the one
    norm rule's bracket (`_norm_bracket`).
    """
    if _size(matrix) <= dense_limit:
        return float(np.abs(np.linalg.eigvalsh(_dense(matrix))).max(initial=0.0))
    return _norm_bracket("spectral_norm", _sparse(matrix), dense_limit)[0][1]


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Sorted eigenpairs of a symmetric matrix.

    `values` is descending; `vectors` holds the aligned orthonormal
    eigenvectors as columns, with each vector's largest-magnitude entry
    made nonnegative (first such entry on ties).
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def k(self) -> int:
        return len(self.values)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Negate, in place, each column of `vectors` whose largest-magnitude
    entry (the first on ties) is negative, and return it.

    The sign comes from the column's max and min, and only where they tie in
    magnitude from their first indices, so no n x n temporary is made.
    """
    if vectors.size == 0:
        return vectors
    top, low = vectors.max(axis=0), vectors.min(axis=0)
    flip = -low > top
    for c in np.flatnonzero(-low == top):
        flip[c] = np.argmin(vectors[:, c]) < np.argmax(vectors[:, c])
    vectors *= np.where(flip, -1.0, 1.0)
    return vectors


def eigen_decompose(matrix, k: int | None = None) -> EigenSystem:
    """Eigenpairs sorted descending, full spectrum or top-k, by a dense
    symmetric eigensolver (`numpy.linalg.eigh`) of `matrix`: an array, a
    sparse matrix or an OdnMatrix."""
    dense = _dense(matrix)
    if dense.shape[0] != dense.shape[1]:
        raise DimensionMismatchError(dense.shape, dense.shape)
    values, vectors = np.linalg.eigh(dense)
    values, vectors = values[::-1][:k], vectors[:, ::-1][:, :k]
    # The reversed view has a negative stride, which BLAS cannot take:
    # copy it once, then fix the signs of the copy in place.
    vectors = _fix_signs(np.ascontiguousarray(vectors))
    return EigenSystem(values=values.copy(), vectors=vectors)


def _require_below(value, high: float, error: type[OdnError]) -> None:
    """Raise `error(value)` unless 0 < value < high: also for None and NaN."""
    try:
        valid = 0.0 < value < high
    except TypeError:
        valid = False
    if not valid:
        raise error(value)


def _require_epsilon(epsilon) -> None:
    """Raise InvalidEpsilonError unless 0 < epsilon < 1: also for +-inf."""
    _require_below(epsilon, 1.0, InvalidEpsilonError)


def _require_constant(constant) -> None:
    """Raise InvalidConstantError unless the oversampling constant C is finite
    and > 0."""
    _require_below(constant, math.inf, InvalidConstantError)


def _require_same_shape(x, y) -> None:
    shapes = [(z.n, z.n) if isinstance(z, (OdnMatrix, GraphViews)) else np.shape(z)
              for z in (x, y)]
    if shapes[0] != shapes[1]:
        raise DimensionMismatchError(*shapes)


class PairSpectra:
    """Spectra of one matrix pair (M, M_hat), each solved at most once.

    `base` and `hat` are the graphs of M and M_hat (LaplacianDecomposition
    or SparsifierResult views, or raw Laplacians); a LaplacianDecomposition
    side also gives `matrix` or `matrix_hat`. A run that sparsifies sets
    `hat` and `matrix_hat` once the sparsifier exists. Every check function
    accepts an instance in place of its matrix pair. Each role is a
    cached_property. `laplacian` and `laplacian_hat` are each side's
    Laplacian in the one form every role reads (`eigsh_operand`); setting
    `hat` drops the form held for the previous one, and the first solve of M
    and M_hat (`matrix_values`) drops both (`release_laplacians`): the pair
    decides when its n x n buffers go. `start_values` starts a band side's
    values solve ahead, on the pair's worker thread, for `matrix_values` to
    collect. `paths` records the form of L's
    factor and of each side's eigenvalues ("dense" or "band kd=<kd>") and,
    for the pencil, each 2-norm (`_norm_bracket`) and each side's eigenvectors
    solved, whether they came from a "dense" solve or from "arpack".

    No role densifies an operand larger than `dense_limit` (see the module
    docstring for what runs above it).
    """

    def __init__(self, base=None, hat=None, *, matrix=None, matrix_hat=None,
                 dense_limit: int = DENSE_LIMIT):
        self.base, self.hat = base, hat
        self.matrix = base.matrix if isinstance(base, LaplacianDecomposition) else matrix
        self.matrix_hat = hat.matrix if isinstance(hat, LaplacianDecomposition) else matrix_hat
        self.dense_limit = dense_limit
        self.paths: dict[str, str] = {}
        # side -> (path, band or None, its Future or None), from `start_values`
        self._solves: dict[str, tuple[str, np.ndarray | None, Future | None]] = {}
        self._worker: _BandWorker | None = None

    @classmethod
    def of(cls, base, hat=None) -> "PairSpectra":
        """`base` itself if it is a pair already, else the pair (base, hat)."""
        return base if isinstance(base, cls) else cls(base, hat)

    @property
    def hat(self):
        return self._hat

    @hat.setter
    def hat(self, side) -> None:
        self._hat = side
        self.__dict__.pop("laplacian_hat", None)  # held for the previous side

    def release_laplacians(self) -> None:
        """Drop the held `laplacian` and `laplacian_hat`, and a CSR Laplacian
        cached on either side, once no check reads them again: a dense pair
        frees 2 n^2 x 8 B, and where anything was dropped the heap's free
        pages go back to the system (`_malloc_trim`). `spectral_report` calls
        it before ||M - M_hat||, and `matrix_values` before its solves. A
        role read later builds its form again."""
        dropped = [self.__dict__.pop(role, None) is not None
                   for role in ("laplacian", "laplacian_hat")]
        for side in (self.base, self.hat):
            if isinstance(side, GraphViews):
                dropped.append(side.__dict__.pop("laplacian", None) is not None)
        if any(dropped) and _malloc_trim is not None:
            _malloc_trim(0)

    @cached_property
    def laplacian(self):
        """L in the one form every role reads: a graph side's `eigsh_operand`,
        a raw Laplacian as it was given."""
        return self.eigsh_operand(self.base) if isinstance(self.base, GraphViews) else self.base

    @cached_property
    def laplacian_hat(self):
        """L_hat in the one form every role reads, as `laplacian`."""
        return self.eigsh_operand(self.hat) if isinstance(self.hat, GraphViews) else self.hat

    def _densify(self, x) -> np.ndarray:
        """`x` as a dense array, or DenseLimitExceededError above the limit:
        the check of every role with no sparse path."""
        if _size(x) > self.dense_limit:
            raise DenseLimitExceededError(_size(x), self.dense_limit)
        return _dense(x)

    def _dense_pays(self, x) -> bool:
        """Whether `x` is within the dense limit and its dense array no larger
        than its CSR form: at least 2/3 of n^2 stored (_DENSE_ARPACK_SHARE)."""
        n = _size(x)
        return n <= self.dense_limit and _stored(x) >= _DENSE_ARPACK_SHARE * n * n

    def eigsh_operand(self, x):
        """`x` in the form ARPACK multiplies by fastest: dense where that pays
        (`_dense_pays`), a dense graph's Laplacian filled from its
        coordinates; else sparse, an OdnMatrix or a graph side's Laplacian as
        CSR."""
        if self._dense_pays(x):
            return _dense(x)
        return _sparse(x) if isinstance(x, (OdnMatrix, GraphViews)) else x

    def _difference_norm(self, role: str, x, y, *, offdiag: bool = False
                         ) -> tuple[float, float]:
        """(low, high) estimates of ||x - y||_2 by `_norm_bracket`, its path
        in `paths[role]`; with `offdiag`, x and y are OdnMatrix and only
        their adjacencies are subtracted. `_dense_pays` picks the operand's
        form, not its solver: where it pays for either side, one n x n buffer
        holds x's dense form, and y's entries are subtracted from it in place
        (an OdnMatrix's coordinates, a sparse matrix's stored entries, else
        the array), one IEEE subtraction each, so the buffer equals the
        sparse difference entry for entry; else the sparse difference."""
        n = _size(x)
        if not (self._dense_pays(x) or self._dense_pays(y)):
            sides = (x.adjacency(), y.adjacency()) if offdiag else (x, y)
            operand = _sparse(sides[0]) - _sparse(sides[1])
        else:
            operand = np.array(x, dtype=np.float64) if isinstance(x, np.ndarray) else _dense(x)
            if isinstance(y, OdnMatrix):
                operand[y.rows, y.cols] -= y.vals
                operand[y.cols, y.rows] -= y.vals
                diag = operand.reshape(-1)[:: n + 1]
                if offdiag:
                    diag[:] = 0.0
                else:
                    diag -= y.diag
            elif sp.issparse(y):
                y = y.tocsr()
                if not y.has_canonical_format:
                    y = y.copy()
                    y.sum_duplicates()
                operand[np.repeat(np.arange(n), np.diff(y.indptr)), y.indices] -= y.data
            else:
                operand -= y
        norm, self.paths[role] = _norm_bracket(role, operand, self.dense_limit)
        return norm

    def _components(self) -> tuple[int, np.ndarray]:
        """(count, labels) of the connected components of L's graph: a graph
        side's own, else those of a raw Laplacian's pattern."""
        if isinstance(self.base, GraphViews):
            return self.base.components
        return connected_components(self.laplacian != 0, directed=False)

    def _kernel_leak(self, x) -> float:
        """||x K||_2, with K the orthonormal indicator vectors of the components
        of L's graph: exactly the kernel of L."""
        labels = self._components()[1]  # every label occurs: the shape is n x count
        basis = sp.csr_matrix((np.bincount(labels)[labels] ** -0.5,
                               (np.arange(len(labels)), labels)))
        return float(np.linalg.norm(_dense(x @ basis), 2))

    def _forest_ratios(self) -> np.ndarray:
        """w_hat_e / w_e over the edges of L's graph if it is a forest holding
        L_hat's edges, else an empty array: an edge of a forest is a bridge,
        and the indicator of its side has Rayleigh quotient w_hat_e / w_e."""
        lap, n = self.laplacian, _size(self.laplacian)
        stored = np.count_nonzero(lap) if isinstance(lap, np.ndarray) else lap.nnz
        if stored > 3 * n:  # a forest stores n + 2 (n - components)
            return np.zeros(0)
        lower = sp.tril(_sparse(lap), -1, format="csr")
        lower.eliminate_zeros()
        hat = sp.tril(_sparse(self.laplacian_hat), -1, format="csr")
        on_edges = np.asarray(hat[lower.nonzero()]).ravel()
        if (lower.nnz != n - self._components()[0]
                or np.count_nonzero(on_edges) != hat.count_nonzero()):
            return np.zeros(0)
        return on_edges / lower.data

    @cached_property
    def grounded_factor(self) -> GroundedFactor:
        """The Cholesky factor of L_g: L with the vertex of largest degree in
        each component of L's graph grounded (lowest index on ties); grounding
        an end of a path with weights (1e-20, 1) would leave L_g singular in
        floating point. An L held as CSR whose grounded block has a narrow
        band after reverse Cuthill-McKee is factored in band storage
        (`_band_factor`); any other L in a dense copy, by `dpotrf` and
        `dtrtri` in place. `paths["factor"]` records which. Raises OdnError
        for a raw L whose rows do not sum to zero on its components,
        FactorizationError where LAPACK fails, and DenseLimitExceededError
        above the limit."""
        lap = self.laplacian
        n = lap.shape[0]
        if n > self.dense_limit:
            raise DenseLimitExceededError(n, self.dense_limit)
        if not isinstance(self.base, GraphViews) and (
                self._kernel_leak(lap) > 1e-8 * _max_abs(lap)):
            raise OdnError("L is not a graph Laplacian: its rows do not sum to zero "
                           "on the connected components of its graph")
        count, labels = self._components()
        order = np.lexsort((-lap.diagonal(), labels))  # stable: lowest index on ties
        grounded = order[np.searchsorted(labels[order], np.arange(count))]
        kept = np.delete(np.arange(n), grounded)
        factor = ((_band_factor(lap, kept) if sp.issparse(lap) and kept.size else None)
                  or _dense_factor(lap, kept))
        self.paths["factor"] = factor.path
        return factor

    @cached_property
    def pencil(self) -> tuple[tuple[float, float], float]:
        """The extreme eigenvalues (low, high) of the pencil (L_hat, L) on the
        grounded complement of ker L, and the leak ||L_hat K||_2 on L's kernel
        basis K (`_kernel_leak`); with no leak, the extremes on the range of L.

        ARPACK's two extremes (`eigsh(which="BE")`) of C^-1 L_hat_g C^-T
        (`GroundedFactor.reduced`) are each moved outward by their Ritz
        residual and `_rounding`, so the interval holds the exact extremes. A
        dense factor, which no later role reads, is released before the solve.
        A reduced matrix of size below 3, or one on which ARPACK does not
        converge in _PENCIL_RESTARTS restarts, is solved dense, and its
        extremes are moved outward by `_rounding` alone (`paths["pencil"]`).
        Either allowance counts at least _ROUNDING_FLOOR rows. On a forest,
        where L_g is worst conditioned (n^2 on a path), the interval also
        holds each edge's ratio (`_forest_ratios`), moved outward likewise.
        L is factored before L_hat's held form is built: one n x n array
        fewer alive during the factorization.
        """
        factor = self.grounded_factor
        del self.grounded_factor
        leak = self._kernel_leak(self.laplacian_hat)
        reduced = factor.reduced(self.laplacian_hat)
        del factor
        size, theta, residual = reduced.shape[0], None, 0.0
        if size >= 3:
            try:
                theta, q = _arpack(reduced, k=2, which="BE", maxiter=_PENCIL_RESTARTS)
            except ArpackNoConvergence:
                pass
            else:
                with _one_scipy_thread():  # a band operator's products call BLAS
                    residual = _residuals(reduced, theta, q)
        self.paths["pencil"] = "dense" if theta is None else "arpack"
        if theta is None:
            theta = np.linalg.eigvalsh(
                reduced if isinstance(reduced, np.ndarray) else reduced.toarray())[[0, -1]]
        widen = residual + _rounding(max(size, _ROUNDING_FLOOR), theta)
        ratios = self._forest_ratios()
        pad = _rounding(_ROUNDING_FLOOR, ratios)
        low = min(theta[0] - widen[0], (ratios - pad).min(initial=np.inf))
        high = max(theta[1] + widen[1], (ratios + pad).max(initial=-np.inf))
        return (float(low), float(high)), leak

    @cached_property
    def laplacian_norm(self) -> float:
        """rho(L): the upper end of its bracket (`_norm_bracket`) on L's
        cheaper form (`eigsh_operand`), at every n, its path in `paths`."""
        norm, self.paths["laplacian_norm"] = _norm_bracket(
            "laplacian_norm", self.eigsh_operand(self.laplacian), self.dense_limit)
        return norm[1]

    def start_values(self, *sides: str) -> None:
        """Start the values solve of each side named, "matrix" or
        "matrix_hat" (default both), that is not started yet: a side in band
        storage (`_band`: an OdnMatrix within the dense limit with kd + 1 <= n *
        _BAND_VALUES_SHARE) on the pair's one worker thread (`_BandWorker`,
        pinned off the caller's CPU), while the caller goes on. A dense side
        is only recorded: it is solved in `matrix_values`, after the held
        Laplacians are dropped. Start a side once it is set; nothing is
        started once `matrix_values` is read."""
        if "matrix_values" in self.__dict__:
            return
        for side in sides or ("matrix", "matrix_hat"):
            if side in self._solves:
                continue
            x, built = getattr(self, side), None
            if isinstance(x, OdnMatrix) and x.n <= self.dense_limit:
                built = _band(x, _BAND_VALUES_SHARE)
            if built is None:
                self._solves[side] = ("dense", None, None)
                continue
            if self._worker is None:
                self._worker = _BandWorker(_sched_getcpu() if _sched_getcpu is not None else -1)
                weakref.finalize(self, self._worker.close)  # a pair dropped unread
            band = built[1]
            self._solves[side] = (f"band kd={len(band) - 1}", band, self._worker.submit(band))

    @cached_property
    def matrix_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues of M and of M_hat, the only full solve of
        either: by `dsbevd` in band storage for a band side, else `eigvalsh`
        (`start_values`, which starts here each side not started yet). M_hat
        is read first: the worker begins its solves in the order started, so
        the caller takes back a band side the worker has not begun, from the
        last, and solves it under its hold of scipy's pool; a dense side it
        solves itself. The worker's results, or its LinAlgError, are then
        collected, and its thread has ended before this returns.
        paths["matrix_values"] and ["matrix_hat_values"] say "band kd=<kd>"
        or "dense". No check reads L or L_hat after these solves, so the held
        Laplacians are dropped before them (`release_laplacians`)."""
        self.start_values()
        self.release_laplacians()
        self.paths["matrix_values"] = self._solves["matrix"][0]
        self.paths["matrix_hat_values"] = self._solves["matrix_hat"][0]
        worker, self._worker = self._worker, None
        try:
            values_hat = self._values("matrix_hat")
            return self._values("matrix"), values_hat
        finally:
            self._solves.clear()
            if worker is not None:
                worker.close()
                worker.thread.join()

    def _values(self, side: str) -> np.ndarray:
        """Ascending eigenvalues of `side` as `start_values` recorded it: the
        caller's `eigvalsh` for a dense side, its `dsbevd` for a band side it
        takes back from the worker (`Future.cancel`), else the worker's."""
        _, band, solve = self._solves[side]
        if solve is None:
            return np.linalg.eigvalsh(self._densify(getattr(self, side)))
        if solve.cancel():
            with _one_scipy_thread():
                return _dsbevd(band)
        return solve.result()

    def live_vectors(self, top: int, bottom: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """The eigenvectors of the top `top` and bottom `bottom` eigenvalues of
        M and of M_hat, each side's columns the top block, then the bottom
        block, each descending, with the signs their solver gave them: the
        angle (`_sin_theta`) reads either sign alike. Each side runs ARPACK
        on its cheaper form (`eigsh_operand`), `which="LA"` for the top block
        and "SA" for the bottom, when top + bottom <= n / 40
        (_ARPACK_VECTOR_SHARE); else, or when ARPACK does not converge, one
        dense `eigh` of the side, cut to the two blocks. `paths` records
        which, as "matrix_vectors" and "matrix_hat_vectors"."""
        sides = []
        for role, x in (("matrix_vectors", self.matrix),
                        ("matrix_hat_vectors", self.matrix_hat)):
            vectors = None
            if top + bottom <= _ARPACK_VECTOR_SHARE * x.n:
                operand = self.eigsh_operand(x)
                try:
                    blocks = [_arpack(operand, k, which)
                              for k, which in ((top, "LA"), (bottom, "SA")) if k]
                    vectors = np.hstack([v[:, np.argsort(w)[::-1]] for w, v in blocks])
                except ArpackNoConvergence:
                    pass
            self.paths[role] = "dense" if vectors is None else "arpack"
            if vectors is None:
                cut = np.r_[x.n - 1:x.n - 1 - top:-1, bottom - 1:-1:-1]
                vectors = np.linalg.eigh(self._densify(x))[1][:, cut]
            sides.append(vectors)
        return tuple(sides)

    # The difference norms, each as (low, high) estimates (`_difference_norm`).
    @cached_property
    def matrix_diff_norm(self) -> tuple[float, float]:
        return self._difference_norm("matrix_diff_norm", self.matrix, self.matrix_hat)

    @cached_property
    def laplacian_diff_norm(self) -> tuple[float, float]:
        return self._difference_norm("laplacian_diff_norm", self.laplacian, self.laplacian_hat)

    @cached_property
    def adjacency_diff_norm(self) -> tuple[float, float]:
        return self._difference_norm("adjacency_diff_norm", self.base.edges, self.hat.edges,
                                     offdiag=True)


@dataclass(frozen=True)
class WeylCheck:
    max_deviation: float
    norm: float
    passed: bool


def weyl_check(a, b=None) -> WeylCheck:
    """max_i |alpha_i - beta_i| against ||A - B||_2, sorted eigenvalues; the
    norm is its low estimate (`PairSpectra._difference_norm`)."""
    spectra = a if isinstance(a, PairSpectra) else PairSpectra(matrix=a, matrix_hat=b)
    _require_same_shape(spectra.matrix, spectra.matrix_hat)
    alphas, betas = spectra.matrix_values
    deviation = float(np.abs(alphas - betas).max())
    norm = spectra.matrix_diff_norm[0]
    return WeylCheck(deviation, norm, deviation <= norm + 1e-9 * (1.0 + norm))


@dataclass(frozen=True)
class NormComparison:
    lhs: float
    rhs: float
    passed: bool


def adjacency_norm_check(g, h=None) -> NormComparison:
    """||A_G - A_H|| against sqrt(n) * ||L_G - L_H|| for two graphs: the high
    estimate of the first norm against the low one of the second."""
    spectra = PairSpectra.of(g, h)
    _require_same_shape(spectra.laplacian, spectra.laplacian_hat)
    lhs = spectra.adjacency_diff_norm[1]
    rhs = math.sqrt(np.shape(spectra.laplacian)[0]) * spectra.laplacian_diff_norm[0]
    return NormComparison(lhs, rhs, lhs <= rhs + 1e-9 * (1.0 + rhs))


@dataclass(frozen=True)
class AngleBound:
    """Angle between the i-th eigenvectors and its gap-based bound.

    `bound` is None when the relevant eigenvalue gap falls below the gap
    tolerance ("undefined"); bounds at or above 1 - 1e-9 are vacuous: no
    sin_theta <= 1 fails them within the check's 1e-9. Both cases count as
    passed, and `spectral_report` leaves their `sin_theta` None (not solved).
    A bound that falls short of 1 only by rounding is vacuous too: a tie of
    beta_i with a neighbour puts its gap at most |alpha_i - beta_i|, which
    Weyl puts below ||M - M_hat||, and there the eigenvector of beta_i is not
    unique, so no solver's angle is the angle.
    """

    index: int
    sin_theta: float | None
    bound: float | None
    passed: bool


def _gap_bounds(alphas, betas, r_norm: float, gap_tol: float | None):
    """Mixed gaps min(|beta_(i-1) - alpha_i|, |beta_(i+1) - alpha_i|), with
    beta_0 = +inf and beta_(n+1) = -inf, the bounds r_norm / gap, and the gap
    tolerance (default 1e-8 * max|alpha|)."""
    if gap_tol is None:
        gap_tol = 1e-8 * (float(np.abs(alphas).max()) if len(alphas) else 0.0)
    above = np.concatenate([[math.inf], betas[:-1]])
    below = np.concatenate([betas[1:], [-math.inf]])
    gap = np.minimum(np.abs(above - alphas), np.abs(alphas - below))
    with np.errstate(divide="ignore", invalid="ignore"):
        return gap, r_norm / gap, gap_tol


def _sin_theta(a_vecs: np.ndarray, b_vecs: np.ndarray) -> np.ndarray:
    """sin of the angle between each column pair, capped at 1. ||b - (a.b) a||
    equals sqrt(1 - (a.b)^2) for unit vectors but has no cancellation noise
    floor near zero angle."""
    inner = np.einsum("ij,ij->j", a_vecs, b_vecs)
    return np.minimum(1.0, np.linalg.norm(b_vecs - a_vecs * inner, axis=0))


def _angle_bounds(gap, bound, gap_tol: float, sin_theta) -> list[AngleBound]:
    """One AngleBound per index from `_gap_bounds` and the angles, None where
    an angle was not solved: undefined below the gap tolerance, vacuous from
    bound 1 - 1e-9, else passed when sin_theta <= bound + 1e-9."""
    return [
        AngleBound(i, s, None, True) if not gap[i] > gap_tol
        else AngleBound(i, s, float(bound[i]),
                        bool(bound[i] >= 1.0 - 1e-9 or s <= bound[i] + 1e-9))
        for i, s in enumerate(sin_theta)
    ]


def davis_kahan(
    a_sys: EigenSystem,
    b_sys: EigenSystem,
    r_norm: float,
    gap_tol: float | None = None,
) -> list[AngleBound]:
    """Per-index sin(theta_i) against r_norm over the mixed eigenvalue gap.

    The denominator for index i is min(|beta_(i-1) - alpha_i|,
    |beta_(i+1) - alpha_i|) with beta_0 = +inf and beta_(n+1) = -inf.
    """
    if a_sys.n != b_sys.n or a_sys.k != b_sys.k:
        raise DimensionMismatchError((a_sys.n, a_sys.k), (b_sys.n, b_sys.k))
    gap, bound, gap_tol = _gap_bounds(a_sys.values, b_sys.values, r_norm, gap_tol)
    sin_theta = _sin_theta(a_sys.vectors, b_sys.vectors)
    return _angle_bounds(gap, bound, gap_tol, [float(s) for s in sin_theta])


def eigenvalue_deviation_bound(
    matrix,
    epsilon: float,
    *,
    decomp: LaplacianDecomposition | None = None,
) -> float:
    """eps * sqrt(n) * rho(L) + (delta_max - delta_min) / 2.

    The certified ceiling on every per-index eigenvalue deviation of the
    sparsification pipeline, valid whenever the sparsifier inequality held.
    """
    _require_epsilon(epsilon)
    spectra = matrix if isinstance(matrix, PairSpectra) else PairSpectra(
        decomp or decompose(validate_odn(matrix)))
    decomp = spectra.base
    rho = spectra.laplacian_norm
    spread = (decomp.delta_max - decomp.delta_min) / 2.0
    return epsilon * math.sqrt(decomp.n) * rho + spread


@dataclass(frozen=True)
class InertiaCounts:
    positive: int
    negative: int
    zero: int

    @classmethod
    def from_values(cls, values: np.ndarray, tol: float) -> "InertiaCounts":
        zero = np.abs(values) <= tol
        return cls(
            positive=int(np.sum(values > tol)),
            negative=int(np.sum(values < -tol)),
            zero=int(np.sum(zero)),
        )


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Side-by-side spectra of a matrix and its sparsified counterpart."""

    epsilon: float
    n: int
    values: np.ndarray
    values_hat: np.ndarray
    deviations: np.ndarray
    bound: float
    r_norm: float
    angles: list[AngleBound]
    dk_bounds_swapped: list[float | None]
    inertia: InertiaCounts
    inertia_hat: InertiaCounts
    inertia_match: bool
    inertia_guaranteed: bool
    nnz_before: int
    nnz_after: int
    eigenvalue_bound_passed: bool
    angles_passed: bool

    @property
    def max_deviation(self) -> float:
        return float(self.deviations.max()) if len(self.deviations) else 0.0

    @property
    def vacuous_angles(self) -> int:
        """Indices whose angle bound is vacuous (>= 1 - 1e-9) or undefined, so
        that their sin_theta was not solved."""
        return sum(angle.sin_theta is None for angle in self.angles)

    @property
    def passed(self) -> bool:
        return self.eigenvalue_bound_passed and self.angles_passed


def spectral_report(
    matrix,
    matrix_hat=None,
    epsilon=None,
    *,
    gap_tol: float | None = None,
) -> SpectralReport:
    """Full eigenvalue/eigenvector comparison with certified bounds.

    Pairs eigenvalues by descending index, checks every deviation against
    eps * sqrt(n) * rho(L) + (delta_max - delta_min)/2, evaluates the
    per-index angle bounds with r_norm = ||M - M_hat|| (its low estimate,
    the stricter bound), and reports the
    inertia of both spectra. `dk_bounds_swapped` carries the angle bounds
    with the roles of the two spectra exchanged, as a diagnostic.

    Everything but the angles reads the eigenvalues of M and M_hat alone
    (`PairSpectra.matrix_values`). An angle is solved only where its bound
    is defined and below 1 - 1e-9 (a live index), the one place the check
    can fail: the eigenvectors of a top block and a bottom block that hold
    every live index between them, with the fewest columns, come from
    `PairSpectra.live_vectors`, and sin(theta) is computed on those columns
    as `davis_kahan` does. Every other index has sin_theta None and passes,
    with the bound `davis_kahan` gives it.
    """
    spectra = matrix if isinstance(matrix, PairSpectra) else PairSpectra(
        decompose(validate_odn(matrix)), matrix_hat=validate_odn(matrix_hat))
    m, m_hat = spectra.matrix, spectra.matrix_hat
    _require_same_shape(m, m_hat)

    spectra.start_values()  # a band side solves on the worker meanwhile
    bound = eigenvalue_deviation_bound(spectra, epsilon)  # reads L before its release
    # Nothing reads L or L_hat from here: ||M - M_hat||'s buffer does not join them.
    spectra.release_laplacians()
    r_norm = spectra.matrix_diff_norm[0]
    alphas, betas = (values[::-1] for values in spectra.matrix_values)
    deviations = np.abs(alphas - betas)

    gap, dk_bounds, tol = _gap_bounds(alphas, betas, r_norm, gap_tol)
    # sin(theta) <= 1, so a bound within the check's 1e-9 of 1 cannot fail.
    live = np.flatnonzero((gap > tol) & (dk_bounds < 1.0 - 1e-9))
    sin_theta = [None] * m.n
    if live.size:
        # The top block holds live[:split], the bottom block the rest: the
        # split that solves the fewest vectors.
        split = int(np.argmin(np.r_[0, live + 1] + np.r_[m.n - live, 0]))
        top = int(live[split - 1]) + 1 if split else 0
        bottom = m.n - int(live[split]) if split < live.size else 0
        vectors_a, vectors_b = spectra.live_vectors(top, bottom)
        columns = np.where(live < top, live, live - (m.n - bottom) + top)
        for i, s in zip(live, _sin_theta(vectors_a[:, columns], vectors_b[:, columns])):
            sin_theta[i] = float(s)
    angles = _angle_bounds(gap, dk_bounds, tol, sin_theta)
    # The bounds of davis_kahan(sys_b, sys_a): gaps only, no angles.
    gap, swapped, tol = _gap_bounds(betas, alphas, r_norm, gap_tol)

    rho_a = float(np.abs(alphas).max()) if m.n else 0.0
    rho_b = float(np.abs(betas).max()) if m.n else 0.0
    inertia = InertiaCounts.from_values(alphas, 1e-9 * max(1.0, rho_a))
    inertia_hat = InertiaCounts.from_values(betas, 1e-9 * max(1.0, rho_b))
    min_abs = float(np.abs(alphas).min())

    max_dev = float(deviations.max())
    return SpectralReport(
        epsilon=float(epsilon),
        n=m.n,
        values=alphas,
        values_hat=betas,
        deviations=deviations,
        bound=bound,
        r_norm=r_norm,
        angles=angles,
        dk_bounds_swapped=[float(b) if g > tol else None for g, b in zip(gap, swapped)],
        inertia=inertia,
        inertia_hat=inertia_hat,
        inertia_match=inertia == inertia_hat,
        inertia_guaranteed=min_abs > bound,
        nnz_before=m.nnz,
        nnz_after=m_hat.nnz,
        eigenvalue_bound_passed=bool(max_dev <= bound * (1.0 + 1e-9)),
        angles_passed=all(a.passed for a in angles),
    )
