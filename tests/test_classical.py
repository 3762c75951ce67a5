import sys

import numpy as np
import pytest

import randhelm.classical as classical
import randhelm.linalg as linalg
import randhelm.multimodes as multimodes
from randhelm import (
    DGFunction,
    DGSpace,
    PenaltySet,
    RunConfig,
    SourceSpec,
    broken_norms,
    build_uniform_mesh,
    compare_fields,
    get_assembler,
    lu_factorize,
    lu_solve,
    run_classical,
    run_multimodes,
    sample_media,
    source_volume,
)
from randhelm.assembly import Assembler
from randhelm.linalg import solves_are_pinned


def test_single_sample_matches_direct_solve():
    cfg = RunConfig(k=5.0, epsilon=0.2, num_samples=1, mesh_n=8)
    res = run_classical(cfg)
    mesh = build_uniform_mesh(cfg.mesh_n)
    space = DGSpace(mesh, cfg.degree)
    asm = get_assembler(space, cfg.penalties)
    media = sample_media(mesh, cfg.noise, 0)
    system = asm.variable(cfg.k, media, cfg.epsilon)
    b = asm.rhs(source_volume(cfg.source, mesh, media.eta_volume, cfg.epsilon, cfg.k))
    u = lu_solve(lu_factorize(system), b)
    assert np.allclose(res.psi_tilde.coefficients, u, atol=1e-13)


def test_nonfinite_solution_is_an_error(monkeypatch):
    import randhelm.classical

    def nan_solve(factors, b, counters=None):
        return np.full(np.shape(b), np.nan + 0j)

    monkeypatch.setattr(randhelm.classical, "lu_solve", nan_solve)
    with pytest.raises(FloatingPointError, match="sample 0"):
        run_classical(RunConfig(k=5.0, num_samples=2, mesh_n=4))


def test_counters_one_factorization_per_sample():
    cfg = RunConfig(k=5.0, epsilon=0.1, num_samples=7, mesh_n=8)
    res = run_classical(cfg)
    assert res.counters.factorizations == 7
    assert res.counters.solves == 7


def test_drivers_time_the_same_phases():
    cfg = RunConfig(k=5.0, epsilon=0.1, num_modes=2, num_samples=3, mesh_n=6)
    phases = set(run_classical(cfg).counters.seconds)
    assert phases == set(run_multimodes(cfg).counters.seconds)
    assert phases == {"setup", "assembly", "factorize", "solve", "sample_loop", "sample_loop_cpu"}


def _record_media(monkeypatch, module) -> list:
    """The (sample index, media sample) pairs that `module`'s driver draws,
    in draw order, which worker threads make the order of scheduling."""
    drawn = []

    def record(mesh, spec, index):
        media = sample_media(mesh, spec, index)
        drawn.append((index, media))
        return media

    monkeypatch.setattr(module, "sample_media", record)
    return drawn


def test_common_random_numbers_with_multimodes(monkeypatch):
    cfg = RunConfig(k=5.0, epsilon=0.1, num_samples=5, mesh_n=8)
    from_classical = _record_media(monkeypatch, classical)
    from_modes = _record_media(monkeypatch, multimodes)
    run_classical(cfg)
    run_multimodes(cfg)
    mesh = build_uniform_mesh(cfg.mesh_n)
    assert len(from_classical) == len(from_modes) == cfg.num_samples
    by_index = (dict(from_classical), dict(from_modes))
    for j in range(cfg.num_samples):
        expected = sample_media(mesh, cfg.noise, j)
        for media in (drawn[j] for drawn in by_index):
            assert np.array_equal(media.eta_volume, expected.eta_volume)
            assert np.array_equal(media.eta_boundary, expected.eta_boundary)


@pytest.mark.skipif(not solves_are_pinned(), reason="samples run inline only")
def test_thread_count_does_not_change_results(monkeypatch):
    cfg = RunConfig(k=5.0, epsilon=0.1, num_samples=20, mesh_n=8)
    monkeypatch.setattr(linalg, "_worker_count", lambda pinned: 3)
    media1 = _record_media(monkeypatch, classical)
    r1 = run_classical(cfg)
    monkeypatch.setattr(linalg, "_worker_count", lambda pinned: None)
    media2 = _record_media(monkeypatch, classical)
    r2 = run_classical(cfg)
    assert r1.psi_tilde.coefficients.tobytes() == r2.psi_tilde.coefficients.tobytes()
    assert len(media1) == len(media2) == cfg.num_samples
    media1, media2 = dict(media1), dict(media2)
    assert media1.keys() == media2.keys() == set(range(cfg.num_samples))
    for j in range(cfg.num_samples):
        assert np.array_equal(media1[j].eta_volume, media2[j].eta_volume)
        assert np.array_equal(media1[j].eta_boundary, media2[j].eta_boundary)


@pytest.mark.skipif(not solves_are_pinned(), reason="samples run inline only")
@pytest.mark.parametrize(
    "degree, source", [(1, SourceSpec()), (2, SourceSpec(kind="radial_wave"))]
)
def test_inline_samples_match_threaded(monkeypatch, degree, source):
    # 11 samples: more than the workers of either pool, so samples queue.
    cfg = RunConfig(
        k=5.0, epsilon=0.2, num_samples=11, mesh_n=12, degree=degree, source=source
    )
    threaded = run_classical(cfg)
    # More workers than cores and frequent thread switches.
    monkeypatch.setattr(linalg, "_worker_count", lambda pinned: 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        crowded = run_classical(cfg)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(linalg, "_worker_count", lambda pinned: None)
    inline = run_classical(cfg)
    for other in (threaded, crowded):
        assert np.array_equal(other.psi_tilde.coefficients, inline.psi_tilde.coefficients)
        assert (other.counters.factorizations, other.counters.solves) == (
            inline.counters.factorizations,
            inline.counters.solves,
        ) == (cfg.num_samples, cfg.num_samples)


def test_methods_agree_for_small_epsilon():
    cfg = RunConfig(k=5.0, epsilon=0.01, num_modes=3, num_samples=10, mesh_n=8)
    modes = run_multimodes(cfg)
    base = run_classical(cfg)
    cmp = compare_fields(modes.psi, base.psi_tilde)
    assert cmp["rel_l2"] < 1e-4


@pytest.mark.parametrize("degree", [1, 2])
def test_compare_fields_needs_no_assembler(degree, monkeypatch):
    # Fields of a run with other penalties than the default: the distance
    # is the mass-form L2 distance, measured without a second assembler.
    cfg = RunConfig(
        k=5.0, epsilon=0.2, num_modes=2, num_samples=4, mesh_n=5, degree=degree,
        penalties=PenaltySet(gamma0=5.0),
    )
    a, b = run_multimodes(cfg).psi, run_classical(cfg).psi_tilde
    diff = DGFunction(b.space, a.coefficients - b.coefficients)
    abs_l2 = broken_norms(diff, cfg.penalties)["l2"]
    ref_l2 = broken_norms(b, cfg.penalties)["l2"]

    def no_assembler(*args, **kwargs):
        raise AssertionError("compare_fields built an Assembler")

    monkeypatch.setattr(Assembler, "__init__", no_assembler)
    cmp = compare_fields(a, b)
    assert cmp["abs_l2"] == pytest.approx(abs_l2, rel=1e-12, abs=0.0)
    assert cmp["rel_l2"] == pytest.approx(abs_l2 / ref_l2, rel=1e-12, abs=0.0)


def test_compare_fields_identities():
    mesh = build_uniform_mesh(4)
    space = DGSpace(mesh, 1)
    gen = np.random.default_rng(1)
    c = gen.standard_normal(space.ndof) + 1j * gen.standard_normal(space.ndof)
    f = DGFunction(space, c)
    same = compare_fields(f, f)
    assert same["abs_l2"] == pytest.approx(0.0, abs=1e-13)
    assert same["rel_l2"] == pytest.approx(0.0, abs=1e-13)
    doubled = DGFunction(space, 2.0 * c)
    assert compare_fields(doubled, f)["rel_l2"] == pytest.approx(1.0, rel=1e-10)


def test_compare_fields_zero_reference():
    mesh = build_uniform_mesh(4)
    space = DGSpace(mesh, 1)
    zero = DGFunction.zero(space)
    one = DGFunction(space, np.ones(space.ndof))
    assert compare_fields(zero, zero)["rel_l2"] == 0.0
    assert compare_fields(one, zero)["rel_l2"] == float("inf")


def test_compare_fields_rejects_incompatible_spaces():
    a = DGFunction.zero(DGSpace(build_uniform_mesh(4), 1))
    b = DGFunction.zero(DGSpace(build_uniform_mesh(5), 1))
    with pytest.raises(ValueError):
        compare_fields(a, b)
