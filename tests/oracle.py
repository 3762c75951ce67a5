"""Per-sample reference for the multi-modes recursion, shared by the unit
tests and the acceptance suite."""
import numpy as np

from randhelm import (
    DGFunction,
    DGSpace,
    build_uniform_mesh,
    get_assembler,
    lu_factorize,
    lu_solve,
    mode_rhs_update,
    sample_media,
    source_volume,
)


def per_sample_modes(cfg, factor_each_solve=False):
    """Every sample's modes, shape (N, M, ndof), one sample and one mode at
    a time: each load from `mode_rhs_update` and `rhs`, each mode from a
    one-column solve.  With `factor_each_solve`, A0 is factorized afresh
    for every solve, so no factorization is reused."""
    mesh = build_uniform_mesh(cfg.mesh_n)
    space = DGSpace(mesh, cfg.degree)
    asm = get_assembler(space, cfg.penalties)
    system = asm.constant(cfg.k)
    factors = lu_factorize(system)
    N, M = cfg.num_modes, cfg.num_samples
    modes = np.zeros((N, M, space.ndof), dtype=complex)
    for j in range(M):
        media = sample_media(mesh, cfg.noise, j)
        S = source_volume(cfg.source, mesh, media.eta_volume, cfg.epsilon, cfg.k)
        Q = None
        u_prev = DGFunction.zero(space)
        for n in range(N):
            if factor_each_solve:
                factors = lu_factorize(system)
            u = DGFunction(space, lu_solve(factors, asm.rhs(S, Q)))
            modes[n, j] = u.coefficients
            S, Q = mode_rhs_update(asm, u, u_prev, media, cfg.k)
            u_prev = u
    return modes
