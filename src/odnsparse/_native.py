"""The C library, OpenBLAS and LAPACK plumbing under `spectra` and `factor`.

The hold of scipy's OpenBLAS pool to one thread (`_one_scipy_thread`) is
one process-wide re-entrant lock. The band spectra's worker thread
(`_BandWorker`) takes no hold: it solves while its caller enters and leaves the hold around the
pencil, which would stall behind it. It needs none, as a values-only
`dsbevd` runs on one thread whatever the pool's count: with scipy's pool at
2 threads, one worker solve of a 60 x 60 grid (kd = 60) took 1.004-1.006 s
of process CPU time in 1.009-1.011 s of wall time.
"""

from __future__ import annotations

import ctypes
import importlib
import os
import re
import threading
from concurrent.futures import Future
from contextlib import contextmanager

import numpy as np
from scipy.linalg import cython_lapack

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
