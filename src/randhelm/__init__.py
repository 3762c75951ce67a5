"""Monte Carlo IP-DG solver for the 2D Helmholtz equation in weakly
random media, with a single-factorization multi-modes algorithm and a
classical per-sample baseline."""

from .assembly import PenaltySet, SystemMatrix, broken_norms, get_assembler
from .classical import BaselineResult, compare_fields, run_classical
from .linalg import LUFactors, SingularMatrixError, SolverCounters, lu_factorize, lu_solve
from .mesh import TriMesh, build_uniform_mesh
from .multimodes import RunConfig, RunResult, mode_rhs_update, run_multimodes
from .randomness import MediaSample, NoiseSpec, sample_media
from .sources import SourceSpec, source_volume
from .space import DGFunction, DGSpace
from .studies import (
    StudySpec,
    export_cross_section,
    export_field,
    run_full,
    run_m_scaling,
    run_manufactured_convergence,
    solve_deterministic,
)

__version__ = "0.1.0"
