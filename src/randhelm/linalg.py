"""Sparse complex LU factorization with reusable factors.

A factorization is computed once and reused for any number of
forward/backward substitutions; this is the entire cost advantage of the
multi-modes solver over the per-sample refactorizing baseline.  The
factorization uses a fill-reducing ordering on the symmetrized pattern
with threshold partial pivoting (the operators are complex-symmetric and
indefinite, so pure diagonal pivoting would be unsafe).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import SystemMatrix

__all__ = ["LUFactors", "SolverCounters", "SingularMatrixError", "lu_factorize", "lu_solve"]

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
    """Factorization/solve counts and wall-clock seconds per phase."""

    factorizations: int = 0
    solves: int = 0
    factorize_seconds: float = 0.0
    solve_seconds: float = 0.0


@dataclass
class LUFactors:
    """Immutable LU factors, reused for any number of solves."""

    _lu: object
    dimension: int

    @property
    def nnz(self) -> int:
        return self._lu.nnz


def lu_factorize(A, counters: SolverCounters | None = None) -> LUFactors:
    """Factorize a sparse complex matrix (or SystemMatrix) as P_r A P_c = L U.

    Deterministic for identical input.  Raises SingularMatrixError when a
    pivot falls below 1e-14 of the largest pivot: the IP-DG system is
    provably nonsingular, so a tiny pivot indicates an assembly bug.
    """
    mat = A.matrix if isinstance(A, SystemMatrix) else sp.csc_matrix(A)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    mat = mat.astype(complex)
    t0 = time.perf_counter()
    try:
        lu = splu(
            mat,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.1,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU reports exact zero pivots itself
        raise SingularMatrixError(-1, 0.0) from exc
    dt = time.perf_counter() - t0
    diag = np.abs(lu.U.diagonal())
    if diag.size and diag.min() < _PIVOT_RTOL * diag.max():
        raise SingularMatrixError(int(diag.argmin()), float(diag.min()))
    if counters is not None:
        counters.factorizations += 1
        counters.factorize_seconds += dt
    return LUFactors(lu, mat.shape[0])


def lu_solve(factors: LUFactors, b, counters: SolverCounters | None = None) -> np.ndarray:
    """Solve via forward/backward substitution with stored factors.

    Repeated calls with the same right-hand side are bit-identical.
    """
    b = np.asarray(b, dtype=complex)
    if b.shape[0] != factors.dimension:
        raise ValueError(
            f"right-hand side has length {b.shape[0]}, expected {factors.dimension}"
        )
    t0 = time.perf_counter()
    x = factors._lu.solve(b)
    dt = time.perf_counter() - t0
    if counters is not None:
        counters.solves += 1 if b.ndim == 1 else b.shape[1]
        counters.solve_seconds += dt
    return x
