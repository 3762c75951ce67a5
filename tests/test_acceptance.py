"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion before asserting,
so a full run yields a human-readable scorecard even on failure.  The
heavier statistical criteria share module-scoped fixtures.
"""
import filecmp
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import randhelm.linalg as linalg
from randhelm import (
    NoiseSpec,
    RunConfig,
    SourceSpec,
    StudySpec,
    build_uniform_mesh,
    compare_fields,
    run_classical,
    run_full,
    run_m_scaling,
    run_manufactured_convergence,
    run_multimodes,
    solve_deterministic,
)
from randhelm.assembly import get_assembler
from randhelm.space import DGSpace

from oracle import per_sample_modes


def _report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} [{status}] {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_01_mesh_counts():
    ok = True
    details = []
    for n in (1, 3, 10, 50):
        mesh = build_uniform_mesh(n)
        good = (
            mesh.n_elements == 2 * n * n
            and mesh.n_vertices == (n + 1) ** 2
            and mesh.n_edges == 3 * n * n + 2 * n
            and mesh.boundary_edges.size == 4 * n
        )
        ok = ok and good
        details.append(f"n={n}:{'ok' if good else 'BAD'}")
    ok = ok and build_uniform_mesh(10).n_elements == 200
    _report(1, "mesh entity counts", ok, " ".join(details))


def test_criterion_02_deterministic_convergence():
    spec = StudySpec(
        kind="manufactured_convergence",
        base=RunConfig(k=5.0, degree=1),
        mesh_sizes=(10, 20, 40, 80),
    )
    rows = run_manufactured_convergence(spec)
    rate_l2 = rows[-1]["rate_l2"]
    rate_h1 = rows[-1]["rate_h1"]
    ok = 1.7 <= rate_l2 <= 2.3 and 0.7 <= rate_h1 <= 1.3
    _report(
        2,
        "plane-wave convergence rates",
        ok,
        f"L2 rate {rate_l2:.3f} in [1.7,2.3], H1 rate {rate_h1:.3f} in [0.7,1.3]",
    )


def test_criterion_03_algebraic_structure():
    gen = np.random.default_rng(2024)
    ok = True
    details = []
    for n, k in ((10, 1.0), (20, 5.0), (40, 20.0)):
        mesh = build_uniform_mesh(n)
        space = DGSpace(mesh, 1)
        A = get_assembler(space).constant(k).matrix
        sym_gap = abs(A - A.T).max()
        sym_ok = sym_gap <= 1e-12 * abs(A).max()
        imag_ok = True
        for _ in range(100):
            v = gen.standard_normal(space.ndof) + 1j * gen.standard_normal(space.ndof)
            q = np.vdot(v, A @ v)
            if q.imag < -1e-10 * np.vdot(v, v).real:
                imag_ok = False
                break
        ok = ok and sym_ok and imag_ok
        details.append(f"(n={n},k={k:g}): sym_gap={sym_gap:.1e} imag={'ok' if imag_ok else 'BAD'}")
    _report(3, "complex symmetry and nonnegative imaginary form", ok, "; ".join(details))


def test_criterion_04_degenerate_noise():
    cfg = RunConfig(
        k=5.0, epsilon=0.2, num_modes=3, num_samples=4, mesh_n=10,
        noise=NoiseSpec(low=0.0, high=0.0),
    )
    res = run_multimodes(cfg)
    u0 = np.abs(res.phis[0].coefficients).max()
    higher = max(np.abs(res.phis[n].coefficients).max() for n in (1, 2))
    modes_ok = higher <= 1e-13 * u0

    det = solve_deterministic(cfg)
    gap = np.abs(res.psi.coefficients - det.coefficients).max()
    det_ok = gap <= 1e-12 * np.abs(det.coefficients).max()

    res0 = run_multimodes(RunConfig(k=5.0, epsilon=0.0, num_modes=3, num_samples=4, mesh_n=10))
    eps0_ok = np.array_equal(res0.psi.coefficients, res0.phis[0].coefficients)

    ok = modes_ok and det_ok and eps0_ok
    _report(
        4,
        "degenerate-noise identities",
        ok,
        f"higher modes {higher / u0:.1e} rel, deterministic gap {gap:.1e}, eps=0 exact={eps0_ok}",
    )


def test_criterion_05_lu_reuse():
    # The reference solves one sample and one mode at a time, with A0
    # factorized afresh for every solve.  Each mode mean is compared on its
    # own scale, since the small odd modes weigh little in psi.
    cfg = RunConfig(k=5.0, epsilon=0.1, num_modes=3, num_samples=16, mesh_n=20)
    fast = run_multimodes(cfg)
    ref = per_sample_modes(cfg, factor_each_solve=True).mean(axis=1)
    psi_ref = sum(cfg.epsilon**n * ref[n] for n in range(cfg.num_modes))
    gap = np.abs(fast.psi.coefficients - psi_ref).max() / np.abs(psi_ref).max()
    mode_gap = max(
        np.abs(phi.coefficients - phi_ref).max() / np.abs(phi_ref).max()
        for phi, phi_ref in zip(fast.phis, ref, strict=True)
    )
    counts_ok = (
        fast.counters.factorizations == 1
        and fast.counters.solves == cfg.num_samples * cfg.num_modes
    )
    ok = gap <= 1e-12 and mode_gap <= 1e-12 and counts_ok
    _report(
        5,
        "factor-reuse equivalence and counters",
        ok,
        f"rel gap to per-sample refactorized solves {gap:.1e}, worst mode {mode_gap:.1e}, "
        f"factorizations={fast.counters.factorizations}, "
        f"solves={fast.counters.solves} (expect {cfg.num_samples * cfg.num_modes})",
    )


def _timing_detail(res):
    return ", ".join(f"{phase}={s:.2f}s" for phase, s in res.counters.seconds.items())


def test_criterion_06_cost_ratio():
    cfg = RunConfig(
        k=5.0, epsilon=1.0 / 6.0, num_modes=5, num_samples=200, mesh_n=50,
        noise=NoiseSpec(low=0.0, high=1.0),
    )
    # One untimed call of each driver on the same mesh first: a process's
    # first factorization can cost several warm ones, and it would
    # otherwise be charged to whichever driver the test times first.
    run_multimodes(replace(cfg, num_samples=32))
    run_classical(replace(cfg, num_samples=4))
    t0 = time.perf_counter()
    modes = run_multimodes(cfg)
    t_modes = time.perf_counter() - t0
    t0 = time.perf_counter()
    base = run_classical(cfg)
    t_classical = time.perf_counter() - t0
    ratio = t_classical / t_modes
    ok = ratio >= 5.0
    _report(
        6,
        "cost ratio classical/multi-modes",
        ok,
        f"classical {t_classical:.2f}s / multi-modes {t_modes:.2f}s = {ratio:.2f} (need >= 5); "
        f"multi-modes {_timing_detail(modes)}; classical {_timing_detail(base)}",
    )


def test_criterion_07_truncation_trend():
    cfg = RunConfig(
        k=5.0, epsilon=1.0 / 6.0, num_modes=3, num_samples=200, mesh_n=20,
        noise=NoiseSpec(low=0.0, high=1.0),
    )
    modes = run_multimodes(cfg)
    base = run_classical(cfg)
    rels = [
        compare_fields(modes.psi_truncated(N), base.psi_tilde)["rel_l2"]
        for N in (1, 2, 3)
    ]
    ok = rels[0] > rels[1] > rels[2] and rels[2] < 0.01
    _report(
        7,
        "mean-field error decreases with mode count",
        ok,
        "rel " + " > ".join(f"{r:.3e}" for r in rels) + " and final < 1e-2",
    )


@pytest.fixture(scope="module")
def epsilon_sweep():
    """Shared multi-modes/classical pairs at k=20, n=40, M=200 with the
    radial source; N=7 at eps=0.5 so the deep-truncation criterion can
    reuse the same run."""
    out = {}
    for eps in (0.02, 0.1, 0.5, 0.8):
        num_modes = 7 if eps == 0.5 else 3
        cfg = RunConfig(
            k=20.0, epsilon=eps, num_modes=num_modes, num_samples=200, mesh_n=40,
            source=SourceSpec(kind="radial_wave"),
        )
        out[eps] = (run_multimodes(cfg), run_classical(cfg))
    return out


def test_criterion_08_epsilon_sweep(epsilon_sweep):
    rels = {}
    for eps, (modes, base) in epsilon_sweep.items():
        rels[eps] = compare_fields(modes.psi_truncated(3), base.psi_tilde)["rel_l2"]
    values = [rels[e] for e in (0.02, 0.1, 0.5, 0.8)]
    ok = (
        rels[0.02] < 1e-2
        and rels[0.1] < 5e-2
        and 0.05 <= rels[0.5] <= 1.0
        and rels[0.8] > rels[0.5]
        and all(a <= b for a, b in zip(values, values[1:]))
    )
    _report(
        8,
        "relative error versus perturbation size",
        ok,
        ", ".join(f"eps={e}: {rels[e]:.3e}" for e in (0.02, 0.1, 0.5, 0.8)),
    )


def test_criterion_09_deep_truncation(epsilon_sweep):
    modes, base = epsilon_sweep[0.5]
    rel4 = compare_fields(modes.psi_truncated(4), base.psi_tilde)["rel_l2"]
    rel7 = compare_fields(modes.psi_truncated(7), base.psi_tilde)["rel_l2"]
    ok = rel7 <= 0.5 * rel4
    _report(
        9,
        "deeper truncation halves the error at eps=0.5",
        ok,
        f"rel(N=4)={rel4:.3e}, rel(N=7)={rel7:.3e}, ratio={rel7 / rel4:.3f} (need <= 0.5)",
    )


def test_criterion_10_statistical_decay():
    # The constant source makes mode 0 deterministic (zero statistical
    # error), so the scaling study uses the medium-dependent radial source.
    spec = StudySpec(
        kind="m_scaling",
        base=RunConfig(
            k=5.0, epsilon=1.0 / 6.0, mesh_n=20,
            source=SourceSpec(kind="radial_wave"),
        ),
        m_values=(25, 100, 400),
        m_ref=6400,
    )
    out = run_m_scaling(spec)
    slope = out["slope"]
    ok = -0.65 <= slope <= -0.35
    _report(
        10,
        "Monte Carlo error decay in M",
        ok,
        f"log-log slope {slope:.3f} in [-0.65,-0.35]; "
        + ", ".join(f"M={r['M']}: {r['err_l2']:.2e}" for r in out["rows"]),
    )


def test_criterion_11_thread_determinism(tmp_path, monkeypatch):
    # A run on the worker pool against one with its samples run inline.
    cfg = RunConfig(k=5.0, epsilon=0.1, num_modes=3, num_samples=50, mesh_n=20)
    out1 = os.path.join(tmp_path, "pooled")
    out2 = os.path.join(tmp_path, "inline")
    run_full(cfg, out1)
    monkeypatch.setattr(linalg, "_worker_count", lambda pinned: None)
    run_full(cfg, out2)
    mismatches = []
    for sub in ("tables", "fields", "sections"):
        names = sorted(os.listdir(os.path.join(out1, sub)))
        for name in names:
            same = filecmp.cmp(
                os.path.join(out1, sub, name), os.path.join(out2, sub, name), shallow=False
            )
            if not same:
                mismatches.append(f"{sub}/{name}")
    with open(os.path.join(out1, "config.txt"), "rb") as fh:
        c1 = fh.read()
    with open(os.path.join(out2, "config.txt"), "rb") as fh:
        c2 = fh.read()
    ok = not mismatches and c1 == c2
    _report(
        11,
        "bit-identical outputs for any thread count",
        ok,
        "all tables identical" if ok else f"differs: {', '.join(mismatches)}",
    )
