import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu, spsolve

from randhelm import (
    DGSpace,
    NoiseSpec,
    RunConfig,
    SingularMatrixError,
    SolverCounters,
    build_uniform_mesh,
    get_assembler,
    lu_factorize,
    lu_solve,
    run_multimodes,
    sample_media,
)
import randhelm.linalg as linalg
from randhelm.linalg import sample_workers, single_blas_thread, solves_are_pinned


def test_two_by_two_oracle():
    # A = [[2, 1], [1, 1+i]], b = [1, 0]: det = 1 + 2i and by Cramer's
    # rule x = ((1+i)/det, -1/det) = (0.6 - 0.2i, -0.2 + 0.4i).
    A = sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 1.0 + 1.0j]]))
    x = lu_solve(lu_factorize(A), np.array([1.0, 0.0]))
    assert np.allclose(x, [0.6 - 0.2j, -0.2 + 0.4j], atol=1e-14)


def test_nonfinite_solution_is_an_error_named_by_the_caller():
    factors = lu_factorize(sp.csc_matrix(np.diag([1.0, 2.0])))
    with pytest.raises(FloatingPointError, match="nonfinite values in the solution"):
        lu_solve(factors, np.array([1.0, np.nan]))
    with pytest.raises(FloatingPointError, match="nonfinite values in column 1"):
        lu_solve(factors, np.array([[1.0, 1.0], [1.0, np.inf]]), where="column 1")


def test_counters_vector_and_matrix_rhs():
    A = sp.csc_matrix(np.diag([1.0, 2.0, 3.0]))
    counters = SolverCounters()
    factors = lu_factorize(A, counters)
    lu_solve(factors, np.ones(3), counters)
    lu_solve(factors, np.ones((3, 5)), counters)
    assert counters.factorizations == 1
    assert counters.lu_nnz == factors.nnz
    assert counters.solves == 6


def test_counters_time_phases_and_add_them_by_name():
    A = sp.csc_matrix(np.diag([1.0, 2.0, 3.0]))
    counters = SolverCounters()
    factors = lu_factorize(A, counters)
    lu_solve(factors, np.ones(3), counters)
    assert set(counters.seconds) == {"factorize", "solve"}
    assert all(s >= 0.0 for s in counters.seconds.values())
    other = SolverCounters(factorizations=2, solves=3, seconds={"solve": 1.5, "setup": 0.25})
    expected_solve = counters.seconds["solve"] + 1.5
    counters += other
    assert (counters.factorizations, counters.solves) == (3, 4)
    assert counters.seconds["solve"] == expected_solve
    assert counters.seconds["setup"] == 0.25
    assert set(counters.seconds) == {"factorize", "solve", "setup"}
    assert other.seconds == {"solve": 1.5, "setup": 0.25}
    with counters.timed("setup"):
        pass
    assert counters.seconds["setup"] >= 0.25


def test_factors_keep_no_csc_copies():
    # The pivot check reads U's diagonal from SuperLU's own storage, so no
    # CSC copy of L or U is ever built (reading `lu.U` would build both and
    # peak at 9.4 MiB here) and the factor keeps none.
    system = get_assembler(DGSpace(build_uniform_mesh(20), 2)).constant(5.0)
    lu_factorize(system)  # first calls allocate lasting state of their own
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        factors = lu_factorize(system)
        retained, peak = (m - start for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024
    assert retained < 256 * 1024
    assert factors.nnz > 0
    b = np.ones(factors.shape[0])
    assert np.abs(system.matrix @ lu_solve(factors, b) - b).max() < 1e-9


def _pivoted_random_matrix():
    # Small diagonal entries: the threshold pivoting must swap rows.
    rng = np.random.default_rng(3)
    A = sp.random(300, 300, density=0.05, random_state=rng)
    A = A + 1j * sp.random(300, 300, density=0.05, random_state=rng)
    return sp.csc_matrix(A + 1e-3 * sp.eye(300))


@pytest.mark.parametrize(
    "build",
    [
        lambda: get_assembler(DGSpace(build_uniform_mesh(20), 2)).constant(5.0),
        lambda: get_assembler(DGSpace(build_uniform_mesh(12), 1)).variable(
            7.0, sample_media(build_uniform_mesh(12), NoiseSpec(), 4), 0.3
        ),
        lambda: get_assembler(DGSpace(build_uniform_mesh(6), 3)).constant(5.0),
        _pivoted_random_matrix,
    ],
    ids=["constant-20-2", "variable-12-1", "constant-6-3", "random-pivoted"],
)
def test_pivots_are_the_diagonal_of_scipys_U_bit_for_bit(build):
    lu = lu_factorize(build())
    if build is _pivoted_random_matrix:
        assert np.any(lu.perm_r != np.arange(lu.shape[0]))
    diagonal = lu.U.diagonal()  # builds scipy's CSC copies of L and U
    assert np.array_equal(linalg._pivots(lu).view(float), diagonal.view(float))


def test_pivots_refuse_other_objects_before_reading_memory(monkeypatch):
    def read(address):
        raise AssertionError("read the memory of an object that is not scipy's SuperLU")

    monkeypatch.setattr(linalg._SuperLUObject, "from_address", read)
    for other in (sp.csc_matrix(np.eye(2)), object()):
        with pytest.raises(RuntimeError, match=f"scipy {scipy.__version__}"):
            linalg._pivots(other)
    monkeypatch.undo()
    with pytest.raises(RuntimeError, match="SuperLU object layout"):
        linalg._pivots(splu(sp.csc_matrix(np.eye(2))))  # a real factor: not SLU_Z


def test_factors_are_frozen():
    # Worker threads share one factor.
    factors = lu_factorize(sp.csc_matrix(np.eye(2)))
    with pytest.raises(AttributeError):
        factors.shape = (3, 3)
    with pytest.raises(AttributeError):
        factors.nnz = 3
    assert factors.shape == (2, 2)


def test_factors_are_scipys_superlu(rng):
    A = _pivoted_random_matrix()
    factors = lu_factorize(A)
    assert type(factors) is SuperLU
    with single_blas_thread():  # a threaded BLAS moves the factors' last digits
        plain = splu(
            A,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.1,
            options={"SymmetricMode": True},
        )
    b = rng.standard_normal((A.shape[0], 3)) + 1j * rng.standard_normal((A.shape[0], 3))
    assert lu_solve(plain, b).tobytes() == lu_solve(factors, b).tobytes()


def test_counters_keep_the_largest_fill():
    counters = SolverCounters()
    large = lu_factorize(sp.csc_matrix(np.eye(3)), counters).nnz
    assert counters.lu_nnz == large > lu_factorize(sp.csc_matrix(np.eye(2)), counters).nnz
    assert counters.lu_nnz == large
    counters += SolverCounters(lu_nnz=large + 1)
    assert counters.lu_nnz == large + 1
    counters += SolverCounters(lu_nnz=1)
    assert counters.lu_nnz == large + 1


def test_singular_matrix_detected():
    with pytest.raises(SingularMatrixError):
        lu_factorize(sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]])))
    with pytest.raises(SingularMatrixError):
        lu_factorize(sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 1e-20]])))
    # A tiny pivot after the supernodes of an IP-DG operator.
    operator = get_assembler(DGSpace(build_uniform_mesh(6), 1)).constant(5.0).matrix
    with pytest.raises(SingularMatrixError):
        lu_factorize(sp.block_diag([operator, [[1e-20]]], format="csc"))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, -float("inf"))])
def test_nonfinite_matrix_rejected(bad):
    A = sp.csc_matrix(np.array([[2.0, 1.0], [1.0, bad]], dtype=complex))
    with pytest.raises(ValueError, match="nonfinite entries"):
        lu_factorize(A)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        lu_factorize(sp.csc_matrix(np.ones((2, 3))))


def test_rhs_length_checked():
    factors = lu_factorize(sp.csc_matrix(np.eye(3)))
    with pytest.raises(ValueError):
        lu_solve(factors, np.ones(4))
    with pytest.raises(ValueError, match=r"expected \(3,\) or \(3, k\)"):
        lu_solve(factors, 1.0)
    with pytest.raises(ValueError, match=r"expected \(3,\) or \(3, k\)"):
        lu_solve(factors, np.ones((3, 2, 2)))


def test_multi_rhs_matches_columnwise(rng):
    mesh = build_uniform_mesh(4)
    space = DGSpace(mesh, 1)
    system = get_assembler(space).constant(5.0)
    factors = lu_factorize(system)
    B = rng.standard_normal((space.ndof, 4)) + 1j * rng.standard_normal((space.ndof, 4))
    X = lu_solve(factors, B)
    for j in range(4):
        xj = lu_solve(factors, B[:, j])
        assert np.allclose(X[:, j], xj, atol=1e-13)


@pytest.mark.skipif(not solves_are_pinned(), reason="SuperLU's OpenBLAS cannot pin a thread")
def test_multi_rhs_is_bit_identical_to_columnwise(rng):
    # Large enough for supernode products that a threaded BLAS would split.
    space = DGSpace(build_uniform_mesh(30), 1)
    factors = lu_factorize(get_assembler(space).constant(5.0))
    B = rng.standard_normal((space.ndof, 32)) + 1j * rng.standard_normal((space.ndof, 32))
    with single_blas_thread():
        X = lu_solve(factors, B)
        for j in range(32):
            assert np.array_equal(X[:, j], lu_solve(factors, B[:, j]))


def _openblas_threads(set_threads) -> int:
    """The process's OpenBLAS thread count, read by setting it back."""
    count = set_threads(1)
    set_threads(count)
    return count


@pytest.mark.skipif(not solves_are_pinned(), reason="SuperLU's OpenBLAS cannot pin a thread")
def test_results_do_not_depend_on_the_openblas_thread_count(rng):
    # OpenBLAS defaults to one thread per core; a threaded factorization or
    # substitution moved the last digits of psi at n=30.
    set_threads = linalg._blas_threads_setter()
    cfg = RunConfig(k=5.0, epsilon=0.1, num_modes=3, num_samples=20, mesh_n=30)
    system = get_assembler(DGSpace(build_uniform_mesh(30), 1)).constant(5.0)
    B = rng.standard_normal((system.matrix.shape[0], 16)) * (1.0 + 1.0j)
    caller = set_threads(2)
    try:
        outputs = {}
        for count in (2, 1):
            set_threads(count)
            res = run_multimodes(cfg)
            X = lu_solve(lu_factorize(system), B)
            outputs[count] = [
                a.tobytes()
                for a in (res.psi.coefficients, *(f.coefficients for f in res.phis),
                          res.mode_l2, res.mode_h1, X)
            ]
            assert _openblas_threads(set_threads) == count
    finally:
        set_threads(caller)
    assert outputs[2] == outputs[1]


def test_pins_from_several_threads_set_the_count_once(monkeypatch):
    counts = [4]

    def set_threads(n):
        counts.append(n)
        return counts[-2]

    monkeypatch.setattr(linalg, "_blas_threads_setter", lambda: set_threads)
    inside = threading.Barrier(3, timeout=10)
    pinned = []

    def worker():
        with single_blas_thread() as outer:
            inside.wait()  # all three are in at once
            with single_blas_thread() as nested:
                pinned.append(outer and nested)

    def run_workers():
        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    run_workers()
    assert counts == [4, 1, 4]
    with single_blas_thread():
        run_workers()
    assert counts == [4, 1, 4, 1, 4]
    assert pinned == [True] * 6


def test_solution_matches_direct_solver(rng):
    mesh = build_uniform_mesh(4)
    space = DGSpace(mesh, 1)
    system = get_assembler(space).constant(5.0)
    b = rng.standard_normal(space.ndof) + 1j * rng.standard_normal(space.ndof)
    x = lu_solve(lu_factorize(system), b)
    x_ref = spsolve(system.matrix, b)
    assert np.allclose(x, x_ref, rtol=1e-10, atol=1e-12)
    # Residual check against the operator itself.
    assert np.abs(system.matrix @ x - b).max() < 1e-9


def test_factorization_is_deterministic(rng):
    mesh = build_uniform_mesh(4)
    space = DGSpace(mesh, 1)
    system = get_assembler(space).constant(5.0)
    b = rng.standard_normal(space.ndof)
    x1 = lu_solve(lu_factorize(system), b)
    x2 = lu_solve(lu_factorize(system), b)
    assert np.array_equal(x1, x2)


def test_factors_of_different_operators_give_different_solutions():
    mesh = build_uniform_mesh(4)
    space = DGSpace(mesh, 1)
    f1 = lu_factorize(get_assembler(space).constant(5.0))
    f2 = lu_factorize(get_assembler(space).constant(6.0))
    b = np.ones(space.ndof)
    assert not np.allclose(lu_solve(f1, b), lu_solve(f2, b))
    assert f1.shape == (space.ndof, space.ndof)
    assert f1.nnz > 0


def _sample_threads():
    return [t for t in threading.enumerate() if t.name.startswith("randhelm-sample")]


@pytest.mark.parametrize("workers", [3, None])
def test_sample_workers_give_results_in_item_order(monkeypatch, workers):
    monkeypatch.setattr(linalg, "_worker_count", lambda pinned: workers)
    finished = []

    def run(i):
        time.sleep(0.05 * (4 - i))  # item 0 sleeps longest
        finished.append(i)
        return i * i

    counters = SolverCounters()
    with sample_workers(counters) as in_sample_order:
        assert list(in_sample_order(run, range(5))) == [0, 1, 4, 9, 16]
    if workers is not None:
        assert finished[0] != 0  # the items did finish out of order
    assert {"sample_loop", "sample_loop_cpu"} <= counters.seconds.keys()
    assert not _sample_threads()


def test_a_free_worker_does_not_wait_for_the_oldest_item(monkeypatch):
    # One worker is busy with item 0 for 0.3 s; the other runs items 1-5
    # meanwhile, before the caller has taken item 0's result.
    monkeypatch.setattr(linalg, "_worker_count", lambda pinned: 2)
    finished = []

    def run(i):
        time.sleep(0.3 if i == 0 else 0.02)
        finished.append(i)
        return i

    with sample_workers(SolverCounters()) as in_sample_order:
        assert list(in_sample_order(run, range(6))) == [0, 1, 2, 3, 4, 5]
    assert finished == [1, 2, 3, 4, 5, 0]


@pytest.mark.parametrize("workers", [3, None])
def test_sample_workers_raise_an_item_error_in_the_caller(monkeypatch, workers):
    monkeypatch.setattr(linalg, "_worker_count", lambda pinned: workers)

    def run(i):
        if i == 2:
            raise FloatingPointError(f"item {i} failed")
        return i

    seen = []
    with pytest.raises(FloatingPointError, match="item 2 failed"):
        with sample_workers(SolverCounters()) as in_sample_order:
            for i in in_sample_order(run, range(8)):
                seen.append(i)
    assert seen == [0, 1]
    assert not _sample_threads()
