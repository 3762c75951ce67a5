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
    sample_media,
    source_volume,
)
from randhelm.assembly import real_product


def eval_boundary(asm, coefficients) -> np.ndarray:
    """Trace values of a DG coefficient vector at all boundary-edge
    quadrature points, through the assembler's boundary evaluation matrix."""
    values = real_product(asm._bnd_eval, np.asarray(coefficients)[asm._bnd_dofs])
    return values.reshape(asm._bweights.shape)


def mode_rhs_update(asm, u_n: DGFunction, u_prev: DGFunction, media, k: float):
    """Source data for the next mode from the previous two.

    Returns (S, Q) with S = 2k^2*eta*u_n + k^2*eta^2*u_prev at volume
    quadrature points and Q = -i*k*eta*u_n at boundary quadrature points,
    evaluated by the Assembler `asm`, which must be built on the modes'
    space.
    """
    if u_n.space is not asm.space:
        raise ValueError("mode functions do not live on the assembler's space")
    if u_prev.space is not u_n.space:
        raise ValueError("mode functions live on different spaces")
    k2 = k * k
    uq, upq = u_n.volume_values(), u_prev.volume_values()
    S = 2.0 * k2 * media.eta_volume * uq + k2 * media.eta_volume**2 * upq
    Q = -1j * k * media.eta_boundary * eval_boundary(asm, u_n.coefficients)
    return S, Q


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
        u_prev = DGFunction(space, np.zeros(space.ndof))
        for n in range(N):
            if factor_each_solve:
                factors = lu_factorize(system)
            u = DGFunction(space, lu_solve(factors, asm.rhs(S, Q)))
            modes[n, j] = u.coefficients
            S, Q = mode_rhs_update(asm, u, u_prev, media, cfg.k)
            u_prev = u
    return modes
