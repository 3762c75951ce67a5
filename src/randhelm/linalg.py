"""Sparse complex LU factorization with reusable factors.

A factorization is computed once and reused for any number of
forward/backward substitutions; this is the entire cost advantage of the
multi-modes solver over the per-sample refactorizing baseline.
`lu_factorize` returns scipy's own `SuperLU` factor object, and
`lu_solve` takes it.  The factorization uses a fill-reducing ordering on
the symmetrized pattern with threshold partial pivoting (the operators
are complex-symmetric and indefinite, so pure diagonal pivoting would be
unsafe).  The pivot check reads U's diagonal from SuperLU's own storage,
which depends on CPython and scipy's `SuperLUObject` layout (verified on
scipy 1.17.1).  Every factorization and substitution runs on one
BLAS thread where SuperLU's OpenBLAS allows it (`single_blas_thread`), so
factors and solutions do not depend on OpenBLAS's thread count.
`sample_workers` runs both drivers' sample loops on worker threads.
"""
from __future__ import annotations

import ctypes
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache

import numpy as np
import scipy
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu
from scipy.sparse.linalg._dsolve import _superlu

from .assembly import SystemMatrix

__all__ = [
    "SolverCounters",
    "SingularMatrixError",
    "lu_factorize",
    "lu_solve",
    "sample_workers",
    "single_blas_thread",
    "solves_are_pinned",
]

_PIVOT_RTOL = 1e-14


class SingularMatrixError(RuntimeError):
    """Raised when a pivot is (numerically) zero; carries the pivot index."""

    def __init__(self, index: int, magnitude: float):
        super().__init__(
            f"matrix is numerically singular: pivot {index} has magnitude {magnitude:.3e}"
        )
        self.index = index
        self.magnitude = magnitude


@dataclass
class SolverCounters:
    """Factorization and solve counts, and seconds by phase name.

    `solves` counts the columns actually substituted: a column that
    several samples share counts once.

    `timed(phase)` adds the seconds of its block to `seconds[phase]`;
    `lu_factorize` and `lu_solve` time `factorize` and `solve`, and
    `sample_workers` times `sample_loop` (wall) and `sample_loop_cpu`.
    `lu_nnz` is the fill (nonzeros of L and U) of the largest
    factorization counted.  Not thread-safe: a worker thread counts into
    counters of its own, which the calling thread adds up with `+=`,
    phase by phase, keeping the larger `lu_nnz`.  A phase timed on the
    workers then sums their seconds, and can exceed the wall time of the
    loop that ran them.
    """

    factorizations: int = 0
    solves: int = 0
    lu_nnz: int = 0
    seconds: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def timed(self, phase: str, clock=time.perf_counter):
        """Add the seconds of the block, read from `clock`, to `seconds[phase]`."""
        start = clock()
        yield
        self.seconds[phase] = self.seconds.get(phase, 0.0) + clock() - start

    def __iadd__(self, other: "SolverCounters") -> "SolverCounters":
        self.factorizations += other.factorizations
        self.solves += other.solves
        self.lu_nnz = max(self.lu_nnz, other.lu_nnz)
        for phase, seconds in other.seconds.items():
            self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        return self


def lu_factorize(A, counters: SolverCounters | None = None) -> SuperLU:
    """Factorize a sparse complex matrix (or SystemMatrix) as P_r A P_c = L U.

    Returns the `SuperLU` object that scipy's `splu` built, which holds
    only SuperLU's own factor storage: no CSC copy of L or U is ever
    built.  Runs on one BLAS thread (`single_blas_thread`), so the
    factors are the same for identical input, whatever OpenBLAS's thread
    count or the calling thread.  Raises ValueError for nonfinite
    entries, and SingularMatrixError when a pivot (read by `_pivots`)
    falls below 1e-14 of the largest: the IP-DG system is provably
    nonsingular, so a tiny pivot indicates an assembly bug.
    """
    mat = A.matrix if isinstance(A, SystemMatrix) else sp.csc_matrix(A)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    mat = mat.astype(complex, copy=False)
    if not np.all(np.isfinite(mat.data)):
        raise ValueError("matrix has nonfinite entries")
    counters = SolverCounters() if counters is None else counters
    with counters.timed("factorize"), single_blas_thread():
        try:
            lu = splu(
                mat,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.1,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:  # SuperLU reports exact zero pivots itself
            raise SingularMatrixError(-1, 0.0) from exc
    diag = np.abs(_pivots(lu))
    if diag.size and diag.min() < _PIVOT_RTOL * diag.max():
        raise SingularMatrixError(int(diag.argmin()), float(diag.min()))
    counters.factorizations += 1
    counters.lu_nnz = max(counters.lu_nnz, lu.nnz)
    return lu


class _SuperMatrix(ctypes.Structure):
    _fields_ = [(name, ctypes.c_int) for name in ("Stype", "Dtype", "Mtype", "nrow", "ncol")]
    _fields_ += [("Store", ctypes.c_void_p)]


class _SuperLUObject(ctypes.Structure):  # the head of scipy's SuperLUObject
    _fields_ = [("header", ctypes.c_ssize_t * 2), ("m", ctypes.c_ssize_t), ("n", ctypes.c_ssize_t),
                ("L", _SuperMatrix), ("U", _SuperMatrix)]


class _SCformat(ctypes.Structure):
    _fields_ = [("nnz", ctypes.c_int), ("nsuper", ctypes.c_int),
                ("nzval", ctypes.POINTER(ctypes.c_double))]
    _fields_ += [(name, ctypes.POINTER(ctypes.c_int)) for name in
                 ("nzval_colptr", "rowind", "rowind_colptr", "col_to_sup", "sup_to_col")]


def _pivots(lu) -> np.ndarray:
    """U's diagonal, where SuperLU keeps it in L's supernodal store: pivot j
    is nzval[nzval_colptr[j] + j - sup_to_col[col_to_sup[j]]].  Needs CPython
    and scipy's `SuperLUObject` layout (verified on scipy 1.17.1); it is
    checked before any pointer is read, and a mismatch raises RuntimeError."""
    def check(ok):
        if not ok:
            raise RuntimeError(f"unexpected SuperLU object layout in scipy {scipy.__version__}")
    check(type(lu) is SuperLU and sys.implementation.name == "cpython"
          and ctypes.sizeof(_SuperLUObject) <= type(lu).__basicsize__)
    head = _SuperLUObject.from_address(id(lu))
    n, array = head.n, np.ctypeslib.as_array
    check((head.m, n) == lu.shape and head.L.Store and head.U.Store and
          [(M.Stype, M.Dtype, M.Mtype, M.nrow, M.ncol) for M in (head.L, head.U)]
          == [(3, 3, 1, n, n), (0, 3, 4, n, n)])  # SC/Z/TRLU and NC/Z/TRU
    L = _SCformat.from_address(head.L.Store)
    check(L.nnz + ctypes.c_int.from_address(head.U.Store).value == lu.nnz)  # NCformat's nnz
    at = array(L.nzval_colptr, (n,)) + np.arange(n)
    at -= array(L.sup_to_col, (L.nsuper + 1,))[array(L.col_to_sup, (n,))]
    return array(L.nzval, (2 * int(at.max(initial=-1)) + 2,)).view(complex)[at]


@cache
def _blas_threads_setter():
    """OpenBLAS's `openblas_set_num_threads_local`, from the library SuperLU
    links, or None where that build lacks it.  It returns the previous
    count.  Despite its name it sets the count for the whole process in
    OpenBLAS's pthreads builds (scipy's wheels among them); only OpenMP
    builds keep it per thread."""
    try:
        fn = ctypes.CDLL(_superlu.__file__).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    fn.argtypes = [ctypes.c_int]
    fn.restype = ctypes.c_int
    return fn


def solves_are_pinned() -> bool:
    """Whether `single_blas_thread` can pin SuperLU's BLAS to one thread."""
    return _blas_threads_setter() is not None


_pin_lock = threading.Lock()
_pin_depth = 0          # open `single_blas_thread` entries, all threads
_pin_previous = None    # the count that the outermost entry replaced


@contextmanager
def single_blas_thread():
    """Run SuperLU's BLAS on one thread until exit, then restore the count.

    Yields `solves_are_pinned()`.  The count is process-wide, so the
    entries of all threads share it: the outermost entry saves the count
    and sets one thread, and the last one to exit restores the saved
    count.  Entries nested inside it, worker threads' included, do not
    call the setter, so no two threads' saves and restores cross.
    """
    global _pin_depth, _pin_previous
    set_threads = _blas_threads_setter()
    if set_threads is None:
        yield False
        return
    with _pin_lock:
        if _pin_depth == 0:
            _pin_previous = set_threads(1)
        _pin_depth += 1
    try:
        yield True
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_threads(_pin_previous)


def lu_solve(
    factors: SuperLU, b, counters: SolverCounters | None = None, where: str = "the solution"
) -> np.ndarray:
    """Solve A x = b by forward/backward substitution with the `SuperLU`
    factor of A that `lu_factorize` returned.  `b` has shape (n,) or
    (n, k); any other shape raises ValueError.

    Every substitution is checked for finite values: a solution with a
    nan or an inf raises FloatingPointError("nonfinite values in
    {where}"), where `where` is the caller's name for what it solved.

    The substitution runs on one OpenBLAS thread (`single_blas_thread`),
    so each column of the solution is bit-identical whatever other
    columns share the call, whichever thread makes it and whatever
    OpenBLAS's thread count; a threaded BLAS would split the supernode
    products, which moves the last digits.  Where OpenBLAS cannot be
    pinned (`solves_are_pinned()` is false) that guarantee is lost.
    SuperLU releases the GIL while it substitutes, so calls from several
    threads run in parallel.
    """
    b = np.asarray(b, dtype=complex)
    n = factors.shape[0]
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({n},) or ({n}, k)")
    counters = SolverCounters() if counters is None else counters
    with counters.timed("solve"), single_blas_thread():
        x = factors.solve(b)
    counters.solves += 1 if b.ndim == 1 else b.shape[1]
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"nonfinite values in {where}")
    return x


def _worker_count(pinned: bool) -> int | None:
    """Worker threads for a sample loop, one per core of the process's CPU
    affinity, or None to run it inline: only pinned solves (`pinned` as
    `single_blas_thread` yielded it) do not depend on the thread."""
    if not pinned:
        return None
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cores or 1


def _libc_call(name, argtypes, *args):
    """Call a function of the C library with int result, where it has one."""
    fn = getattr(ctypes.CDLL(None), name, None)
    if fn is not None:
        fn.argtypes, fn.restype = argtypes, ctypes.c_int
        fn(*args)


@contextmanager
def sample_workers(counters: SolverCounters):
    """Worker threads for a sample loop, one per core, each on one BLAS thread.

    Yields `in_sample_order`, the pool's `map` (inline, the builtin
    `map`): `in_sample_order(run, items)` yields run(item) for each item
    in order, so the calling thread reduces in a fixed order, while a
    free worker starts the next item at once; `run` counts into
    `SolverCounters` of its own.  The wall and CPU seconds of the loop,
    all threads' CPU included, go to `counters` as `sample_loop` and
    `sample_loop_cpu`.
    Inside, SuperLU's BLAS runs on one thread in the whole process
    (`single_blas_thread`).
    On entry glibc's malloc is held to one arena for the rest of the
    process; this has no effect where a thread already has its own.  On
    exit the pages of freed heap chunks go back to the system.
    """
    # mallopt(M_ARENA_MAX, 1): a worker's own arena would keep its top chunk
    # resident after its chunks are freed, and malloc_trim does not return it.
    _libc_call("mallopt", [ctypes.c_int, ctypes.c_int], -8, 1)
    # Exited in reverse, so `sample_loop` is recorded first.
    with (
        counters.timed("sample_loop_cpu", time.process_time),
        counters.timed("sample_loop"),
        single_blas_thread() as pinned,
    ):
        workers = _worker_count(pinned)
        pool = None
        if workers is not None:
            pool = ThreadPoolExecutor(workers, thread_name_prefix="randhelm-sample")
        try:
            yield map if pool is None else pool.map
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
            # malloc_trim(0): freed chunks below live ones stay resident
            # and would add to the peak of the next run in the process.
            _libc_call("malloc_trim", [ctypes.c_size_t], 0)
