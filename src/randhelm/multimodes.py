"""Multi-modes Monte Carlo driver with a single shared LU factorization.

Each realization expands the random-medium solution in powers of the
perturbation size epsilon; every mode solves the same constant-coefficient
IP-DG system with a right-hand side built from the previous two modes.
Every solve therefore reuses one factorization.  When the source does not
read the medium (the constant source), mode 0 is the same vector in every
sample: it is solved once, on the calling thread, and shared, so a run
makes 1 + M*(N-1) solves in place of M*N.  Samples advance through the
modes in fixed half-blocks of 16, one multi-column substitution per
mode and half-block.  Worker threads, one per core, each run whole
half-blocks: noise draws, loads, block operators, substitutions, checks
and norms (SuperLU and most array operations release the GIL).  The
recursion needs only the previous two modes, so a worker keeps two and
sums each mode over its samples as soon as it is solved.  The calling
thread only adds up the half-blocks' per-mode sums, in sample order.
The factorization and each substitution run on one BLAS thread, so a
column's solution does not depend on the thread that computed it or on
OpenBLAS's thread count.  The output is therefore the same for every
call with the same config, whatever the scheduling or the number of
cores.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import inf

import numpy as np

from .assembly import PenaltySet, real_product, uniform_assembler
from .linalg import SolverCounters, lu_factorize, lu_solve, sample_workers
from .mesh import _integer
from .randomness import NoiseSpec, sample_media
from .sources import SourceSpec, source_volume
from .space import DGFunction

__all__ = ["RunConfig", "RunResult", "run_multimodes"]


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one Monte Carlo run."""

    k: float = 5.0
    epsilon: float = 0.1
    num_modes: int = 3            # N
    num_samples: int = 100        # M
    mesh_n: int = 20              # subdivisions per side, h = 1/mesh_n
    degree: int = 1               # polynomial degree r
    penalties: PenaltySet = field(default_factory=PenaltySet)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    source: SourceSpec = field(default_factory=SourceSpec)

    def __post_init__(self):
        if not 0.0 < self.k < inf:
            raise ValueError("k must be positive and finite")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        for name in ("num_modes", "num_samples", "mesh_n", "degree"):
            _integer(getattr(self, name), name)
        if self.num_modes < 1 or self.num_samples < 1:
            raise ValueError("N and M must be at least 1")
        if self.mesh_n < 1 or self.degree < 1:
            raise ValueError("mesh_n and degree must be at least 1")


@dataclass
class RunResult:
    """Mode averages, truncated mean field, diagnostics, and counters."""

    config: RunConfig
    phis: list[DGFunction]          # per-mode sample averages
    sample_field: DGFunction        # retained first-sample truncated field
    mode_l2: np.ndarray             # sample-mean L2 norm per mode
    mode_h1: np.ndarray             # sample-mean broken-H1 norm per mode
    rho: np.ndarray                 # decay ratios eps*|u_n|/|u_{n-1}|
    counters: SolverCounters

    def psi_truncated(self, num_modes: int) -> DGFunction:
        """Rebuild the mean field from the first `num_modes` stored modes."""
        if not 1 <= num_modes <= len(self.phis):
            raise ValueError("num_modes out of range")
        acc = np.zeros_like(self.phis[0].coefficients)
        for n in range(num_modes):
            acc += self.config.epsilon**n * self.phis[n].coefficients
        return DGFunction(self.phis[0].space, acc)

    @cached_property
    def psi(self) -> DGFunction:
        """The epsilon-weighted mean field over all N modes."""
        return self.psi_truncated(len(self.phis))


_BLOCK = 16  # samples per half-block; fixed, so the summation order is too


def _block_modes(js, config, asm, factors, mode0):
    """Mode recursion for one half-block of realizations, start to finish.

    Draws the media, builds all loads with one sparse product, and
    advances the samples through the modes together: one multi-column
    substitution per mode with the shared factorization `factors` of A0.
    Its columns are independent, so each sample gets what per-sample
    solves, one column at a time, would give.  `mode0` is None, or the
    mode 0 that every sample shares and its norms (`asm.norms`):
    then mode 0 is that row repeated, and no source is drawn (nor any
    medium, with N = 1).

    The recursion runs in coefficient space.  The load of mode n+1 is
    2k^2 (eta u_n, v) - ik <eta u_n, v> + k^2 (eta^2 u_{n-1}, v).  Each
    volume term is one block-diagonal operator, built once per half-block
    from its media and applied to the previous two modes, which are stored
    sample after sample.  The boundary term is added in place on the DOFs
    of the elements with a boundary edge (`add_boundary_loads`), through
    the evaluation matrix that `rhs` uses.  Only those two modes are kept:
    each mode is reduced here as soon as it is solved.  Between the solves
    there are only sparse products and elementwise operations: a threaded
    dense BLAS call here would compete with the other half-blocks for the
    cores.

    Returns what the calling thread reads, so that this can run on any
    thread: the per-mode sums over the half-block's samples, shape
    (N, ndof); the summed L2 and broken-H1 mode norms, shape (N, 2);
    sample 0's truncated field, the sum of eps^n u_n over the modes in
    order, in the half-block that holds it, else None; and the
    half-block's own `SolverCounters`.  Every sum runs over the samples
    in order.
    """
    counters = SolverCounters()
    mesh, nb, ndof = asm.mesh, len(js), asm.space.ndof
    k, k2 = config.k, config.k**2
    N = config.num_modes
    if mode0 is None or N > 1:
        media = [sample_media(mesh, config.noise, j) for j in js]
        eta = np.stack([m.eta_volume for m in media])
        eta_b = np.stack([m.eta_boundary for m in media])
        del media
        if mode0 is None:
            rhs = asm.volume_loads(source_volume(config.source, mesh, eta, config.epsilon, k))
        if N > 1:
            current = asm.mass_operator((2.0 * k2) * eta)
            boundary = (-1j * k) * eta_b
        if N > 2:
            previous = asm.mass_operator(k2 * (eta * eta))
        del eta, eta_b
    sums = np.empty((N, ndof), dtype=complex)
    norms = np.empty((nb, N, 2))
    eps_pow = config.epsilon ** np.arange(N)
    sample0 = np.zeros(ndof, dtype=complex) if js.start == 0 else None
    for n in range(N):
        if n == 0 and mode0 is not None:
            u, norms[:, 0] = np.repeat(mode0[0], nb, axis=0), mode0[1]
        else:
            if n > 0:
                rhs = real_product(current, u.ravel()).reshape(nb, ndof)
                asm.add_boundary_loads(rhs, boundary, u)
                if n > 1:
                    rhs += real_product(previous, u_prev.ravel()).reshape(nb, ndof)
                rhs = rhs.T
                u_prev = u  # u_{n-2} is no longer needed
            # SuperLU returns the columns in Fortran order: one contiguous row per sample.
            u = lu_solve(factors, rhs, counters, f"mode {n} of block {js}").T
            del rhs  # before the norms' temporaries, which would add to the peak
            norms[:, n] = asm.norms(u)
        u.sum(axis=0, out=sums[n])
        if sample0 is not None:
            sample0 += eps_pow[n] * u[0]
    return sums, norms.sum(axis=0), sample0, counters


def run_multimodes(config: RunConfig, threads: int = 1) -> RunResult:
    """Run the single-factorization multi-modes Monte Carlo algorithm.

    Exactly one factorization of A0 is performed regardless of M and N,
    and every substitution reuses it: M*N of them, or 1 + M*(N-1) when the
    source does not read the medium, whose mode 0 is solved once on the
    calling thread and shared by every sample.  The half-blocks run on one
    worker thread per core of the process's CPU affinity, with SuperLU's
    OpenBLAS on one thread in the whole process and glibc's malloc held to
    one arena (`sample_workers`).  Results do not depend on scheduling,
    core count or OpenBLAS's thread count.  A half-block holds two of its modes at a
    time and hands back sums, so memory grows with N only by the (N, ndof)
    sums.  The set-up (`uniform_assembler`), with the norm forms of the
    mode norms, is kept for the next call; the operator and its
    factorization are not, and the operator is freed as soon as it is
    factorized.  The counters time the phases `setup`, `assembly`,
    `factorize`, `solve`, `sample_loop` and `sample_loop_cpu`;
    `solve` is summed over the workers and the calling thread, which
    solves the shared mode 0, and the loop's CPU over wall seconds are
    the cores it used.
    `threads` has no effect; the benchmark, which passes it, is its only
    reader outside the tests.
    """
    N, M = config.num_modes, config.num_samples
    counters = SolverCounters()
    with counters.timed("setup"):
        asm = uniform_assembler(config.mesh_n, config.degree, config.penalties)
    with counters.timed("assembly"):
        system = asm.constant(config.k)
    space = asm.space
    factors = lu_factorize(system, counters)
    del system  # only the factorization reads A0

    phi_sums = np.zeros((N, space.ndof), dtype=complex)
    norm_sums = np.zeros((N, 2))  # L2 and broken H1
    sample_field = None

    asm.norm_forms  # built here, not on the first workers
    mode0 = None
    if config.source.kind == "constant":
        # This source does not read the medium, so neither does mode 0.
        load = asm.volume_loads(source_volume(config.source, asm.mesh, None, 0.0, config.k)[None])
        u0 = lu_solve(factors, load, counters, "mode 0, shared by every sample").T
        mode0 = (u0, asm.norms(u0))
    blocks = [range(start, min(start + _BLOCK, M)) for start in range(0, M, _BLOCK)]

    def run_block(js):
        return _block_modes(js, config, asm, factors, mode0)

    with sample_workers(counters) as in_sample_order:
        for sums, norms, sample0, block_counters in in_sample_order(run_block, blocks):
            counters += block_counters
            phi_sums += sums
            norm_sums += norms
            if sample0 is not None:
                sample_field = DGFunction(space, sample0)
        # Free this before the heap trim on exit: freed after it, it would
        # stay resident into the next call.
        del factors

    phis = [DGFunction(space, phi_sums[n] / M) for n in range(N)]
    mode_l2, mode_h1 = (norm_sums[:, c] / M for c in range(2))
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(mode_l2[:-1] > 0.0, config.epsilon * mode_l2[1:] / mode_l2[:-1], 0.0)

    return RunResult(
        config=config,
        phis=phis,
        sample_field=sample_field,
        mode_l2=mode_l2,
        mode_h1=mode_h1,
        rho=rho,
        counters=counters,
    )
