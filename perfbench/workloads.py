"""Workload definitions and the set-up probe of the benchmark.

Every call runs with ``threads=1``; BLAS keeps its default thread count.
A workload call is one closed-loop request: the next call starts only
after the previous one and its output checks end.
The noise seed is the benchmark's ``--seed``; the program only sees the
``RunConfig`` built from it.
"""
from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "randhelm" / "__init__.py").is_file():
    sys.exit(f"perfbench: no randhelm sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import randhelm.classical as classical  # noqa: E402
import randhelm.multimodes as multimodes  # noqa: E402
from randhelm import (  # noqa: E402
    DGSpace,
    NoiseSpec,
    PenaltySet,
    RunConfig,
    SourceSpec,
    broken_norms,
    build_uniform_mesh,
    get_assembler,
    lu_factorize,
)

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base: RunConfig
    compare_samples: int = 0   # > 0: classical, then multi-modes, on M samples
    max_rel_l2: float = 1e-3   # bound on rel_l2_vs_classical that holds for every seed

    def config(self, seed: int) -> RunConfig:
        cfg = replace(self.base, noise=replace(self.base.noise, seed=seed))
        if self.compare_samples:
            cfg = replace(cfg, num_samples=self.compare_samples)
        return cfg

    def warmup(self, cfg: RunConfig) -> RunConfig:
        """A short call on the same operator that primes the allocator.

        The first call in a process ran up to 25% slower than later ones,
        mostly in the classical baseline's repeated factorizations.
        """
        return replace(cfg, num_samples=min(cfg.num_samples, 4 if self.compare_samples else 32))


_MODES_N50 = RunConfig(
    k=5.0, epsilon=1.0 / 6.0, num_modes=5, num_samples=200, mesh_n=50, degree=1,
    noise=NoiseSpec(low=0.0, high=1.0),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "modes_n50",
            "criterion 06 config and the paper's headline case: solve-heavy, and its "
            "medium-independent source exercises mode-0 reuse",
            _MODES_N50,
        ),
        Workload(
            "modes_r2_radial",
            "many small degree-2 blocks with a medium-dependent radial source: "
            "bypasses mode-0 reuse and stresses noise draws and source evaluation",
            RunConfig(
                k=10.0, epsilon=0.1, num_modes=2, num_samples=1600, mesh_n=20, degree=2,
                noise=NoiseSpec(low=-1.0, high=1.0), source=SourceSpec(kind="radial_wave"),
            ),
            # N=2 leaves a per-sample truncation error near 1e-2 (8.3e-3 at seed 0).
            max_rel_l2=5e-2,
        ),
        Workload(
            "compare_n50",
            "classical baseline against multi-modes at M=50: factorization- and "
            "assembly-heavy, barely touches the triangular solve",
            _MODES_N50,
            compare_samples=50,
        ),
    )
}


def call(workload: Workload, cfg: RunConfig) -> dict:
    """One timed workload call; returns the fields the checks need.

    The package functions are looked up on their modules at call time so
    that the tracer's wrappers, when installed, see every call.
    """
    out = {}
    if workload.compare_samples:
        t0 = time.perf_counter()
        base = classical.run_classical(cfg, threads=1)
        t1 = time.perf_counter()
        res = multimodes.run_multimodes(cfg, threads=1)
        t2 = time.perf_counter()
        out["rel_l2"] = classical.compare_fields(res.psi, base.psi_tilde)["rel_l2"]
        out["classical_s"] = t1 - t0
        out["multimodes_s"] = t2 - t1
    else:
        res = multimodes.run_multimodes(cfg, threads=1)
    out["result"] = res
    return out


def check(workload: Workload, cfg: RunConfig, out: dict, reference: dict | None) -> list[str]:
    """Output checks of one call; returns the failed ones (empty if all hold).

    Multi-modes workloads get their accuracy figure here, outside the
    timed call: sample 0's truncated field against a classical solve of
    the same medium sample.
    """
    res = out["result"]
    psi = res.psi.coefficients
    failures = []
    if not np.all(np.isfinite(psi)):
        failures.append("psi has nonfinite coefficients")
        return failures
    if "rel_l2" not in out:
        single = classical.run_classical(replace(cfg, num_samples=1), threads=1)
        out["rel_l2"] = classical.compare_fields(res.sample_field, single.psi_tilde)["rel_l2"]
    norms = broken_norms(res.psi, PenaltySet())
    out["psi_l2"], out["psi_h1"] = float(norms["l2"]), float(norms["norm_1h"])
    if not np.all(np.asarray(res.rho) < 1.0):
        failures.append(f"expansion does not contract: rho = {list(res.rho)}")
    if not out["rel_l2"] < workload.max_rel_l2:
        failures.append(f"rel_l2_vs_classical {out['rel_l2']:.3e} >= {workload.max_rel_l2:g}")
    if reference is not None:
        for key, want in reference.items():
            got = out[key]
            if not abs(got - want) <= 1e-9 * abs(want):
                failures.append(f"{key} = {got!r}, reference {want!r}")
    return failures


def _timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def setup_steps(cfg: RunConfig) -> dict:
    """Time mesh -> space -> assembler -> constant operator -> factorization.

    Run first in a fresh process, this is the cold set-up.  The same matrix
    is then factorized again to give the warm factorization time.
    """
    steps = {}
    mesh, steps["mesh.build_s"] = _timed(build_uniform_mesh, cfg.mesh_n)
    space, steps["space.init_s"] = _timed(DGSpace, mesh, cfg.degree)
    asm, steps["assembly.init_s"] = _timed(get_assembler, space, cfg.penalties)
    system, steps["assembly.constant_s"] = _timed(asm.constant, cfg.k)
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    factors, steps["linalg.factorize_cold_s"] = _timed(lu_factorize, system)
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    # CPU seconds of all threads, and how often the scheduler preempted this
    # process: the signature of the slow first factorization (see NOTES.md).
    steps["linalg.factorize_cold_cpu_s"] = (
        ru1.ru_utime - ru0.ru_utime + ru1.ru_stime - ru0.ru_stime
    )
    steps["linalg.factorize_cold_nivcsw"] = ru1.ru_nivcsw - ru0.ru_nivcsw
    steps["setup_s"] = sum(steps[k] for k in (
        "mesh.build_s", "space.init_s", "assembly.init_s",
        "assembly.constant_s", "linalg.factorize_cold_s",
    ))
    _, steps["linalg.factorize_warm_s"] = _timed(lu_factorize, system)
    steps["linalg.lu_nnz"] = factors.nnz
    steps["assembly.matrix_nnz"] = system.matrix.nnz
    return steps
