import gc
import re
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import randhelm.linalg as linalg
from randhelm import (
    DGFunction,
    DGSpace,
    NoiseSpec,
    PenaltySet,
    RunConfig,
    SourceSpec,
    broken_norms,
    build_uniform_mesh,
    get_assembler,
    run_classical,
    run_multimodes,
    sample_media,
)
from randhelm.assembly import uniform_assembler
from randhelm.linalg import solves_are_pinned
from randhelm.studies import solve_deterministic

from oracle import eval_boundary, mode_rhs_update, per_sample_modes


def _check_against_reference(cfg, factor_each_solve=False):
    ref = per_sample_modes(cfg, factor_each_solve)
    res = run_multimodes(cfg)
    for n in range(cfg.num_modes):
        phi_ref = ref[n].mean(axis=0)
        assert np.allclose(res.phis[n].coefficients, phi_ref, atol=1e-12)
    psi_ref = sum(
        cfg.epsilon**n * ref[n].mean(axis=0) for n in range(cfg.num_modes)
    )
    assert np.allclose(res.psi.coefficients, psi_ref, atol=1e-12)
    # The retained sample field is the truncated expansion of sample 0.
    u0 = sum(cfg.epsilon**n * ref[n, 0] for n in range(cfg.num_modes))
    assert np.allclose(res.sample_field.coefficients, u0, atol=1e-12)
    l2_ref, h1_ref = _reference_norms(cfg, ref)
    assert np.allclose(res.mode_l2, l2_ref, rtol=1e-12, atol=0.0)
    assert np.allclose(res.mode_h1, h1_ref, rtol=1e-12, atol=0.0)


def _reference_norms(cfg, ref):
    """Sample means of the L2 and broken-H1 norms of the reference modes."""
    space = DGSpace(build_uniform_mesh(cfg.mesh_n), cfg.degree)
    norms = [
        [broken_norms(DGFunction(space, u), cfg.penalties) for u in ref[n]]
        for n in range(cfg.num_modes)
    ]
    l2 = np.array([np.mean([nm["l2"] for nm in row]) for row in norms])
    h1 = np.array([np.mean([nm["norm_1h"] for nm in row]) for row in norms])
    return l2, h1


def test_driver_matches_per_sample_recursion():
    # Against A0 factorized afresh for every solve: reuse changes nothing.
    cfg = RunConfig(k=5.0, epsilon=1.0 / 6.0, num_modes=3, num_samples=5, mesh_n=8)
    _check_against_reference(cfg, factor_each_solve=True)


def test_driver_matches_per_sample_recursion_degree2_radial():
    # The radial source depends on the medium, and 35 samples give two
    # half-blocks of 16 and a partial one of 3.
    cfg = RunConfig(
        k=5.0, epsilon=0.2, num_modes=3, num_samples=35, mesh_n=6, degree=2,
        source=SourceSpec(kind="radial_wave"),
    )
    _check_against_reference(cfg)


def test_single_factorization_and_solve_count():
    cfg = RunConfig(k=5.0, epsilon=0.1, num_modes=3, num_samples=40, mesh_n=8)
    res = run_multimodes(cfg)
    assert res.counters.factorizations == 1
    assert res.counters.solves == 1 + cfg.num_samples * (cfg.num_modes - 1)


def test_radial_source_solves_every_mode_of_every_sample():
    cfg = RunConfig(
        k=5.0, epsilon=0.1, num_modes=3, num_samples=40, mesh_n=8,
        source=SourceSpec(kind="radial_wave"),
    )
    res = run_multimodes(cfg)
    assert res.counters.factorizations == 1
    assert res.counters.solves == cfg.num_samples * cfg.num_modes


@pytest.mark.parametrize("mesh_n, degree", [(10, 1), (8, 2)])
def test_one_mode_of_the_constant_source_is_one_solve(monkeypatch, mesh_n, degree):
    # Mode 0 does not read the medium: one solve serves all 20 samples,
    # and it is the deterministic solution bit for bit.  No medium is
    # drawn, and the one source is the unperturbed one.
    import randhelm.multimodes

    source, etas = randhelm.multimodes.source_volume, []

    def record_eta(spec, mesh, eta, *args):
        etas.append(eta)
        return source(spec, mesh, eta, *args)

    def no_draw(*args):
        raise AssertionError("a medium was drawn")

    monkeypatch.setattr(randhelm.multimodes, "source_volume", record_eta)
    monkeypatch.setattr(randhelm.multimodes, "sample_media", no_draw)
    cfg = RunConfig(k=5.0, epsilon=0.2, num_modes=1, num_samples=20, mesh_n=mesh_n, degree=degree)
    res = run_multimodes(cfg)
    assert etas == [None]
    assert (res.counters.factorizations, res.counters.solves) == (1, 1)
    det = solve_deterministic(cfg)
    assert res.sample_field.coefficients.tobytes() == det.coefficients.tobytes()


@pytest.mark.parametrize("kind", ["constant", "radial_wave"])
def test_one_sample_mode_norms_are_its_broken_norms(kind):
    # With one sample the mode means are that sample's modes, and the mode
    # norms come from the same function as `broken_norms`, bit for bit.
    cfg = RunConfig(
        k=5.0, epsilon=0.2, num_modes=3, num_samples=1, mesh_n=6, source=SourceSpec(kind=kind)
    )
    res = run_multimodes(cfg)
    norms = [broken_norms(phi, cfg.penalties) for phi in res.phis]
    assert res.mode_l2.tolist() == [nm["l2"] for nm in norms]
    assert res.mode_h1.tolist() == [nm["norm_1h"] for nm in norms]


def _run_bytes(res):
    """The bytes of a run's mean field, mode means and mode norms."""
    return (
        res.psi.coefficients.tobytes(),
        *(phi.coefficients.tobytes() for phi in res.phis),
        res.mode_l2.tobytes(),
        res.mode_h1.tobytes(),
    )


@pytest.mark.parametrize("degree", [1, 2])
def test_calls_share_the_kept_set_up(degree):
    cfg = RunConfig(k=5.0, epsilon=0.2, num_modes=3, num_samples=20, mesh_n=6, degree=degree)
    uniform_assembler.cache_clear()
    first = run_multimodes(cfg)
    second = run_multimodes(cfg)
    # The second call found the set-up kept by the first and built none.
    info = uniform_assembler.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert second.psi.space is first.psi.space
    assert all(phi.space is first.psi.space for phi in second.phis)
    uniform_assembler.cache_clear()
    rebuilt = run_multimodes(cfg)
    assert rebuilt.psi.space is not first.psi.space
    for res in (first, second, rebuilt):
        assert _run_bytes(res) == _run_bytes(first)
        assert res.counters.factorizations == 1
        assert res.counters.solves == 1 + cfg.num_samples * (cfg.num_modes - 1)
    assert run_classical(cfg).psi_tilde.space is rebuilt.psi.space

    # Each of (mesh_n, degree, penalties) alone replaces the kept set-up.
    short = replace(cfg, num_samples=2)
    for change in ({"mesh_n": 7}, {"degree": degree + 1}, {"penalties": PenaltySet(gamma0=5.0)}):
        misses = uniform_assembler.cache_info().misses
        space = run_multimodes(replace(short, **change)).psi.space
        assert uniform_assembler.cache_info().misses == misses + 1
        assert uniform_assembler.cache_info().currsize == 1
        assert run_multimodes(short).psi.space is not space


def test_cleared_set_up_is_freed_without_the_garbage_collector():
    # The kept set-up holds no reference cycle: dropping it frees the
    # assembler and its space at once, also after a driver call.
    cfg = RunConfig(k=5.0, epsilon=0.2, num_modes=2, num_samples=4, mesh_n=5)
    uniform_assembler.cache_clear()
    run_multimodes(cfg)
    asm = uniform_assembler(cfg.mesh_n, cfg.degree, cfg.penalties)
    assert len(asm.norm_forms) == 2
    refs = [weakref.ref(asm), weakref.ref(asm.space)]
    del asm
    gc.disable()
    try:
        uniform_assembler.cache_clear()
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("workers", [3, None])
def test_operator_is_freed_before_the_first_half_block(monkeypatch, workers):
    # Only the factorization reads A0: the sample loop holds its factors,
    # not the operator, and drops it without the garbage collector.
    import randhelm.multimodes

    factorize, block_modes = randhelm.multimodes.lu_factorize, randhelm.multimodes._block_modes
    operators, starts = [], []

    def keep_a_weakref(system, counters):
        operators.append(weakref.ref(system.matrix))
        return factorize(system, counters)

    def check_operator_freed(js, *args):
        starts.append(js.start)
        assert [ref() for ref in operators] == [None]
        return block_modes(js, *args)

    monkeypatch.setattr(randhelm.multimodes, "lu_factorize", keep_a_weakref)
    monkeypatch.setattr(randhelm.multimodes, "_block_modes", check_operator_freed)
    monkeypatch.setattr(linalg, "_worker_count", lambda pinned: workers)
    cfg = RunConfig(k=5.0, epsilon=0.1, num_modes=2, num_samples=40, mesh_n=6)
    gc.disable()
    try:
        run_multimodes(cfg)
    finally:
        gc.enable()
    assert sorted(starts) == [0, 16, 32]


@pytest.mark.skipif(not solves_are_pinned(), reason="substitutions run inline only")
def test_thread_count_does_not_change_results(monkeypatch):
    cfg = RunConfig(k=5.0, epsilon=0.1, num_modes=3, num_samples=70, mesh_n=8)
    monkeypatch.setattr(linalg, "_worker_count", lambda pinned: 3)
    pooled = run_multimodes(cfg)
    monkeypatch.setattr(linalg, "_worker_count", lambda pinned: None)
    inline = run_multimodes(cfg)
    assert _run_bytes(pooled) == _run_bytes(inline)
    _assert_same_run(pooled, inline)


def _assert_same_run(a, b):
    assert np.array_equal(a.psi.coefficients, b.psi.coefficients)
    for x, y in zip(a.phis, b.phis, strict=True):
        assert np.array_equal(x.coefficients, y.coefficients)
    assert np.array_equal(a.mode_l2, b.mode_l2)
    assert np.array_equal(a.mode_h1, b.mode_h1)
    assert np.array_equal(a.sample_field.coefficients, b.sample_field.coefficients)
    assert (a.counters.factorizations, a.counters.solves) == (
        b.counters.factorizations,
        b.counters.solves,
    )


@pytest.mark.skipif(not solves_are_pinned(), reason="substitutions run inline only")
@pytest.mark.parametrize(
    "degree, source", [(1, SourceSpec()), (2, SourceSpec(kind="radial_wave"))]
)
def test_inline_substitutions_match_threaded(monkeypatch, degree, source):
    # 35 samples: two full half-blocks of 16 and a partial one of 3.
    cfg = RunConfig(
        k=5.0, epsilon=0.2, num_modes=3, num_samples=35, mesh_n=30, degree=degree,
        source=source,
    )
    threaded = run_multimodes(cfg)
    # The constant source's mode 0 is one solve that every sample shares.
    M, N = cfg.num_samples, cfg.num_modes
    assert threaded.counters.solves == (1 + M * (N - 1) if source.kind == "constant" else M * N)
    # More workers than cores and frequent thread switches.
    monkeypatch.setattr(linalg, "_worker_count", lambda pinned: 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        crowded = run_multimodes(cfg)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(linalg, "_worker_count", lambda pinned: None)
    inline = run_multimodes(cfg)
    _assert_same_run(threaded, inline)
    _assert_same_run(crowded, inline)


def _traced_peak(cfg):
    """Python-heap peak of one driver call above the heap at its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_multimodes(cfg)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("degree", [1, 2])
def test_half_blocks_keep_two_modes(monkeypatch, degree):
    # A half-block keeps modes n-1 and n and hands back per-mode sums, so
    # doubling N grows the peak by less than one half-block mode.
    monkeypatch.setattr(linalg, "_worker_count", lambda pinned: None)
    cfg = RunConfig(k=5.0, epsilon=0.1, num_samples=32, mesh_n=12, degree=degree)
    run_multimodes(replace(cfg, num_modes=1, num_samples=1))  # builds the kept set-up
    growth = _traced_peak(replace(cfg, num_modes=6)) - _traced_peak(replace(cfg, num_modes=3))
    ndof = uniform_assembler(cfg.mesh_n, cfg.degree, cfg.penalties).space.ndof
    half_block_mode = 16 * ndof * np.dtype(complex).itemsize
    assert growth < half_block_mode


def test_zero_epsilon_collapses_to_mode_zero():
    cfg = RunConfig(k=5.0, epsilon=0.0, num_modes=3, num_samples=4, mesh_n=8)
    res = run_multimodes(cfg)
    assert np.array_equal(res.psi.coefficients, res.phis[0].coefficients)


def test_zero_noise_kills_higher_modes():
    cfg = RunConfig(
        k=5.0, epsilon=0.2, num_modes=3, num_samples=3, mesh_n=8,
        noise=NoiseSpec(low=0.0, high=0.0),
    )
    res = run_multimodes(cfg)
    u0 = np.abs(res.phis[0].coefficients).max()
    for n in (1, 2):
        assert np.abs(res.phis[n].coefficients).max() <= 1e-13 * u0


def test_psi_truncated():
    cfg = RunConfig(k=5.0, epsilon=0.1, num_modes=3, num_samples=4, mesh_n=8)
    res = run_multimodes(cfg)
    full = res.psi_truncated(3)
    assert np.allclose(full.coefficients, res.psi.coefficients, atol=1e-14)
    partial = res.psi_truncated(1)
    assert np.array_equal(partial.coefficients, res.phis[0].coefficients)
    with pytest.raises(ValueError):
        res.psi_truncated(0)
    with pytest.raises(ValueError):
        res.psi_truncated(4)


def test_mode_norm_diagnostics():
    cfg = RunConfig(k=5.0, epsilon=0.2, num_modes=3, num_samples=6, mesh_n=8)
    res = run_multimodes(cfg)
    assert res.mode_l2.shape == (3,)
    assert np.all(res.mode_l2 > 0.0)
    l2_ref, h1_ref = _reference_norms(cfg, per_sample_modes(cfg))
    assert np.allclose(res.mode_l2, l2_ref, rtol=1e-12, atol=0.0)
    assert np.allclose(res.mode_h1, h1_ref, rtol=1e-12, atol=0.0)
    expected_rho = cfg.epsilon * res.mode_l2[1:] / res.mode_l2[:-1]
    assert np.allclose(res.rho, expected_rho, atol=1e-14)


def test_mode_rhs_update_formula():
    mesh = build_uniform_mesh(4)
    space = DGSpace(mesh, 1)
    asm = get_assembler(space)
    gen = np.random.default_rng(0)
    u_n = DGFunction(space, gen.standard_normal(space.ndof) * (1.0 + 0.5j))
    u_prev = DGFunction(space, gen.standard_normal(space.ndof) * (1.0 - 0.25j))
    media = sample_media(mesh, NoiseSpec(seed=2), 0)
    k = 5.0
    S, Q = mode_rhs_update(asm, u_n, u_prev, media, k)
    uq, upq = u_n.volume_values(), u_prev.volume_values()
    S_ref = 2.0 * k**2 * media.eta_volume * uq + k**2 * media.eta_volume**2 * upq
    Q_ref = -1j * k * media.eta_boundary * eval_boundary(asm, u_n.coefficients)
    assert np.allclose(S, S_ref, atol=1e-13)
    assert np.allclose(Q, Q_ref, atol=1e-13)
    fresh = DGSpace(build_uniform_mesh(4), 1)
    other = DGFunction(fresh, np.zeros(fresh.ndof))
    with pytest.raises(ValueError, match="different spaces"):
        mode_rhs_update(asm, u_n, other, media, k)
    with pytest.raises(ValueError, match="the assembler's space"):
        mode_rhs_update(asm, other, other, media, k)


def test_mode_rhs_update_leaves_the_kept_set_up_alone():
    # The oracle evaluates with the assembler it is given, so a driver's
    # kept set-up with other penalties survives it.
    cfg = RunConfig(num_modes=2, num_samples=2, mesh_n=4, penalties=PenaltySet(gamma0=5.0))
    run_multimodes(cfg)
    asm = get_assembler(DGSpace(build_uniform_mesh(4), 1))
    u = DGFunction(asm.space, np.ones(asm.space.ndof, dtype=complex))
    before = uniform_assembler.cache_info()
    mode_rhs_update(asm, u, u, sample_media(asm.mesh, cfg.noise, 0), cfg.k)
    assert uniform_assembler.cache_info() == before


def test_penalty_list_runs_as_its_tuple():
    # A list of gamma_higher is stored as a tuple, so the set-up cache can
    # hash it, and the run is the tuple's.
    cfg = RunConfig(num_modes=2, num_samples=3, mesh_n=4, degree=2)
    listed = run_multimodes(replace(cfg, penalties=PenaltySet(gamma_higher=[0.2, 0.3])))
    tupled = run_multimodes(replace(cfg, penalties=PenaltySet(gamma_higher=(0.2, 0.3))))
    assert listed.config.penalties == tupled.config.penalties
    assert listed.psi.coefficients.tobytes() == tupled.psi.coefficients.tobytes()


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(k=0.0)
    with pytest.raises(ValueError):
        RunConfig(epsilon=1.0)
    with pytest.raises(ValueError):
        RunConfig(num_modes=0)
    with pytest.raises(ValueError):
        RunConfig(num_samples=0)
    with pytest.raises(ValueError):
        RunConfig(mesh_n=0)
    # Counts must be integers (numpy's too, bool not), named when they are not.
    for name in ("num_modes", "num_samples", "mesh_n", "degree"):
        for bad in (2.5, 2.0, True, "3"):
            with pytest.raises(ValueError, match=re.escape(f"{name} {bad!r} is not an integer")):
                RunConfig(**{name: bad})
        assert getattr(RunConfig(**{name: np.int64(2)}), name) == 2
    # Non-finite values fail here, not later as a singular matrix.
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            RunConfig(k=bad)


@pytest.mark.parametrize("workers", [3, None])
def test_nonfinite_mode_is_an_error(monkeypatch, nan_substitutions, workers):
    import randhelm.multimodes

    calls = threading.local()

    def mode_2(b):
        # Mode 0 is one column, solved before the loop; a half-block
        # solves its modes 1 and 2 in turn, on one thread.
        if b.shape[1] == 1:
            return False
        calls.count = getattr(calls, "count", 0) + 1
        return calls.count % 2 == 0

    nan_substitutions(randhelm.multimodes, mode_2)
    monkeypatch.setattr(linalg, "_worker_count", lambda pinned: workers)
    cfg = RunConfig(k=5.0, epsilon=0.1, num_modes=3, num_samples=40, mesh_n=4)
    with pytest.raises(FloatingPointError, match=r"nonfinite values in mode 2 of block range\(0, 16\)"):
        run_multimodes(cfg)
    assert not [t for t in threading.enumerate() if t.name.startswith("randhelm-sample")]


def test_nonfinite_shared_mode_0_is_an_error(monkeypatch, nan_substitutions):
    import randhelm.multimodes

    nan_substitutions(randhelm.multimodes, lambda b: True)
    monkeypatch.setattr(linalg, "_worker_count", lambda pinned: 3)
    cfg = RunConfig(k=5.0, epsilon=0.1, num_modes=3, num_samples=40, mesh_n=4)
    with pytest.raises(FloatingPointError, match="nonfinite values in mode 0, shared by every sample"):
        run_multimodes(cfg)
    assert not [t for t in threading.enumerate() if t.name.startswith("randhelm-sample")]
