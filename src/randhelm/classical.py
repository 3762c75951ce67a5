"""Classical Monte Carlo IP-DG baseline.

Assembles and factorizes a fresh variable-coefficient system for every
realization.  Assembly reuses the precomputed blocks and the operator's
fixed CSC pattern, which each sample fills in place with its mass and
boundary values (see `Assembler`); each factorization is a full `splu`
call, which recomputes the fill-reducing ordering and the symbolic
analysis.  Worker threads, one
per core, each run whole samples (draw, assembly, factorization, solve
and check; SuperLU releases the GIL), with SuperLU's BLAS on one thread,
and the calling thread adds the solutions up in sample order, so the
mean does not depend on scheduling or core count.  A call therefore
holds one factorization per worker at a time.  Uses the same keyed noise
streams as the multi-modes driver, so the two methods consume identical
media samples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import uniform_assembler
from .linalg import SolverCounters, lu_factorize, lu_solve, sample_workers
from .multimodes import RunConfig
from .randomness import sample_media
from .sources import source_volume
from .space import DGFunction

__all__ = ["BaselineResult", "run_classical", "compare_fields"]


@dataclass
class BaselineResult:
    """Mean field over per-sample variable-coefficient solves."""

    config: RunConfig
    psi_tilde: DGFunction
    counters: SolverCounters


def run_classical(config: RunConfig, threads: int = 1) -> BaselineResult:
    """Brute-force baseline: one factorization per sample (N is ignored).

    Samples run on one worker thread per core of the process's CPU
    affinity, as in `run_multimodes` (see `sample_workers`), and their
    solutions are added up in index order.  The set-up
    (`uniform_assembler`) is kept for the next call.  The counters time
    the phases `setup`, `assembly`, `factorize`, `solve`, `sample_loop`
    and `sample_loop_cpu`; `assembly`, `factorize` and `solve` run on the
    workers and are summed over them.  `threads` has no effect; the
    benchmark, which passes it, is its only reader outside the tests.
    """
    counters = SolverCounters()
    with counters.timed("setup"):
        asm = uniform_assembler(config.mesh_n, config.degree, config.penalties)

    def run_sample(j):
        sample_counters = SolverCounters()
        with sample_counters.timed("assembly"):
            media = sample_media(asm.mesh, config.noise, j)
            system = asm.variable(config.k, media, config.epsilon)
            b = asm.rhs(
                source_volume(config.source, asm.mesh, media.eta_volume, config.epsilon, config.k)
            )
        factors = lu_factorize(system, sample_counters)
        del system  # free the operator before the solve
        x = lu_solve(factors, b, sample_counters)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"nonfinite values in the solution of sample {j}")
        return x, sample_counters

    M = config.num_samples
    psi_sum = np.zeros(asm.space.ndof, dtype=complex)
    with sample_workers(counters) as in_sample_order:
        for x, sample_counters in in_sample_order(run_sample, range(M)):
            psi_sum += x
            counters += sample_counters
    return BaselineResult(
        config=config,
        psi_tilde=DGFunction(asm.space, psi_sum / M),
        counters=counters,
    )


def compare_fields(a: DGFunction, b: DGFunction) -> dict:
    """Absolute and relative L2 distance of a from the reference b, summed
    over the volume quadrature points (the mass form's rule): no assembler
    and no penalties are needed."""
    sa, sb = a.space, b.space
    if (sa.ndof, sa.degree, sa.mesh.n) != (sb.ndof, sb.degree, sb.mesh.n):
        raise ValueError("fields live on incompatible spaces")
    abs_l2, ref = (
        np.sqrt(np.sum(sb.mesh.volume_weights * np.abs(f.volume_values()) ** 2))
        for f in (DGFunction(sb, a.coefficients - b.coefficients), b)
    )
    if ref == 0.0:
        return {"abs_l2": abs_l2, "rel_l2": 0.0 if abs_l2 == 0.0 else float("inf")}
    return {"abs_l2": abs_l2, "rel_l2": abs_l2 / ref}
