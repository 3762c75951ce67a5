import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from randhelm import (
    DGFunction,
    DGSpace,
    NoiseSpec,
    PenaltySet,
    SourceSpec,
    build_uniform_mesh,
    get_assembler,
    sample_media,
    source_volume,
)
from randhelm.assembly import _block_entries, _CSCPattern, real_product

from oracle import eval_boundary


@pytest.mark.parametrize("n,k", [(4, 1.0), (8, 5.0)])
def test_complex_symmetry(n, k):
    mesh = build_uniform_mesh(n)
    space = DGSpace(mesh, 1)
    A = get_assembler(space).constant(k).matrix
    gap = abs(A - A.T).max()
    assert gap <= 1e-12 * abs(A).max()


def test_quadratic_form_of_constant_one(mesh4, space4):
    # For v = 1: gradients and jumps vanish, so v' A v reduces to the
    # mass and impedance terms: -k^2 * |D| + i k * |bnd D| = -k^2 + 4ik.
    k = 3.0
    A = get_assembler(space4).constant(k).matrix
    v = np.ones(space4.ndof)
    val = np.vdot(v, A @ v)
    assert abs(val - (-k * k + 4j * k)) < 1e-10


def test_imaginary_part_nonnegative(mesh4, space4, rng):
    A = get_assembler(space4).constant(5.0).matrix
    for _ in range(50):
        v = rng.standard_normal(space4.ndof) + 1j * rng.standard_normal(space4.ndof)
        q = np.vdot(v, A @ v)
        assert q.imag >= -1e-10 * np.vdot(v, v).real


def test_variable_with_zero_noise_equals_constant(mesh4, space4):
    media = sample_media(mesh4, NoiseSpec(low=0.0, high=0.0), 0)
    pen = PenaltySet()
    Ac = get_assembler(space4, pen).constant(5.0).matrix
    Av = get_assembler(space4, pen).variable(5.0, media, 0.3).matrix
    assert abs(Av - Ac).max() < 1e-14 * abs(Ac).max()


def test_variable_epsilon_validation(mesh4, space4, penalties):
    media = sample_media(mesh4, NoiseSpec(), 0)
    with pytest.raises(ValueError):
        get_assembler(space4, penalties).variable(5.0, media, 1.0)
    with pytest.raises(ValueError):
        get_assembler(space4, penalties).variable(5.0, media, -0.1)


def test_wavenumber_validation(mesh4, space4):
    asm = get_assembler(space4)
    media = sample_media(mesh4, NoiseSpec(), 0)
    for k in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="wavenumber k"):
            asm.constant(k)
        with pytest.raises(ValueError, match="wavenumber k"):
            asm.variable(k, media, 0.1)


def _coo_operator(asm, k, cvol=None, cbnd=None):
    """The operator by scipy's COO-to-CSC conversion of its terms, block by
    block: stiffness, mass, consistency, penalty, boundary mass.  Also the
    conversion's tracemalloc peak, with the terms built beforehand."""
    dofs = asm.space.dofs
    terms = [
        (dofs, asm._stiff),
        (dofs, (-k * k) * asm._mass_blocks(cvol)),
        (asm._ie_dofs, asm._cons),
        (asm._ie_dofs, 1j * asm._penalty_blocks(1)),
        (asm._bdofs, 1j * k * asm._boundary_blocks(cbnd)),
    ]
    rows = np.concatenate([np.broadcast_to(d[:, :, None], b.shape).ravel() for d, b in terms])
    cols = np.concatenate([np.broadcast_to(d[:, None, :], b.shape).ravel() for d, b in terms])
    vals = np.concatenate([b.ravel() for _, b in terms])
    tracemalloc.start()
    try:
        A = sp.csc_matrix((vals, (rows, cols)), shape=(asm.space.ndof,) * 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return A, peak


@pytest.mark.parametrize("n, degree", [(20, 1), (20, 2), (7, 3)])
def test_operators_match_the_coo_conversion_bit_for_bit(n, degree):
    mesh = build_uniform_mesh(n)
    asm = get_assembler(DGSpace(mesh, degree))
    media = sample_media(mesh, NoiseSpec(seed=3), 5)
    alpha_v = 1.0 + 0.3 * media.eta_volume
    alpha_b = 1.0 + 0.3 * media.eta_boundary
    for A, (want, _) in [
        (asm.constant(5.0).matrix, _coo_operator(asm, 5.0)),
        (asm.variable(7.0, media, 0.3).matrix, _coo_operator(asm, 7.0, alpha_v**2, alpha_b)),
    ]:
        assert A.has_canonical_format
        assert A.indices.dtype == np.int32 and A.indptr.dtype == np.int32
        assert A.data.dtype == want.data.dtype
        assert A.data.tobytes() == want.data.tobytes()
        assert np.array_equal(A.indices, want.indices)
        assert np.array_equal(A.indptr, want.indptr)


def _check_pattern_against_the_coo_conversion(seed, width):
    # Random blocks on 12 elements of `width` DOFs: columns of dozens of
    # terms, which std::sort partitions, and slots of a few, many of them
    # of signed zeros alone.  A tuple may name an element twice.
    rng = np.random.default_rng(seed)
    nel = 12
    n = nel * width
    picks, weights = np.array([-0.0, 0.0, -1.5, 2.0, 3e-17]), [0.4, 0.2, 0.1, 0.2, 0.1]

    def values(shape):
        return rng.choice(picks, shape, p=weights) + 1j * rng.choice(picks, shape, p=weights)

    groups = [(np.arange(nel)[:, None], values((nel, width, width)), False)]
    for fresh in (True, False, True, False):
        nb, m = rng.integers(20, 60), rng.integers(1, 4)
        groups.append((rng.integers(0, nel, size=(nb, m)), values((nb, m * width, m * width)), fresh))
    pattern = _CSCPattern(groups, n, width)
    fill = [values(blocks.shape) if fresh else blocks for _, blocks, fresh in groups]
    A = pattern.fill(np.concatenate([v.ravel() for v, (_, _, f) in zip(fill, groups) if f]))
    dofs = [(t[:, :, None] * width + np.arange(width)).reshape(len(t), -1) for t, _, _ in groups]
    rows, cols = (np.concatenate(a, axis=None) for a in zip(*map(_block_entries, dofs)))
    want = sp.csc_matrix((np.concatenate([v.ravel() for v in fill]), (rows, cols)), shape=(n, n))
    assert A.data.tobytes() == want.data.tobytes()
    assert np.array_equal(A.indices, want.indices)
    assert np.array_equal(A.indptr, want.indptr)


@pytest.mark.parametrize("seed", range(4))
def test_csc_pattern_sums_like_the_coo_conversion(seed):
    _check_pattern_against_the_coo_conversion(seed, 1)


@pytest.mark.parametrize("seed, width", [(4, 2), (5, 3), (6, 6)])
def test_csc_pattern_of_element_blocks_sums_like_the_coo_conversion(seed, width):
    # The sorts run on one column per element; every column of an element
    # must still sum its terms as scipy's conversion does.
    _check_pattern_against_the_coo_conversion(seed, width)


@pytest.mark.parametrize("n, degree", [(12, 1), (7, 2), (5, 3)])
def test_blocks_match_the_einsum_forms_bit_for_bit(n, degree):
    mesh = build_uniform_mesh(n)
    asm = get_assembler(DGSpace(mesh, degree))
    G = asm.space.tables.Gphys
    stiff = np.einsum("eq,eqic,eqjc->eij", mesh.volume_weights, G, G)
    assert asm._stiff.tobytes() == stiff.tobytes()
    p, w, h_e = asm.penalties, asm._w_ie, asm._h_ie
    for s in (1, degree):
        # The penalty blocks as they were first written: four operands.
        want = np.einsum("e,eq,eqi,eqj->eij", p.gamma0 * s / h_e, w, asm._jump_v, asm._jump_v)
        want += np.einsum("e,eq,eqi,eqj->eij", p.beta1 * s / h_e, w, asm._jump_t, asm._jump_t)
        for j, jump_n in enumerate(asm._jump_n, start=1):
            scale = p.gamma_j(j) * (h_e / s) ** (2 * j - 1)
            want += np.einsum("e,eq,eqi,eqj->eij", scale, w, jump_n, jump_n)
        got = asm._penalty_blocks(s)
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


def test_variable_operator_needs_half_the_memory_of_the_coo_conversion():
    mesh = build_uniform_mesh(20)
    asm = get_assembler(DGSpace(mesh, 1))
    media = sample_media(mesh, NoiseSpec(), 0)
    alpha_v = 1.0 + 0.3 * media.eta_volume
    _, coo_peak = _coo_operator(asm, 5.0, alpha_v**2, 1.0 + 0.3 * media.eta_boundary)
    asm.variable(5.0, media, 0.3)
    tracemalloc.start()
    try:
        asm.variable(5.0, media, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * coo_peak


def test_media_layout_mismatch_rejected(mesh4, space4, penalties):
    other = build_uniform_mesh(3)
    media = sample_media(other, NoiseSpec(), 0)
    with pytest.raises(ValueError):
        get_assembler(space4, penalties).variable(5.0, media, 0.1)


def test_rhs_constant_source(mesh4, space4):
    # int_T lambda_i = area / 3 for every P1 hat function.
    S = np.ones(mesh4.volume_weights.shape)
    b = get_assembler(space4).rhs(S)
    expected = np.full(space4.ndof, 0.5 / mesh4.n**2 / 3.0)
    assert np.allclose(b, expected, atol=1e-14)
    assert abs(b.sum() - 1.0) < 1e-13


def test_rhs_boundary_term(mesh4, space4):
    S = np.zeros(mesh4.volume_weights.shape)
    Q = np.ones((mesh4.boundary_edges.size, mesh4.ref_edge_points.size))
    b = get_assembler(space4).rhs(S, Q)
    # Partition of unity: the entries sum to the boundary integral of Q.
    assert abs(b.sum() - 4.0) < 1e-12


def test_rhs_shape_validation(mesh4, space4):
    with pytest.raises(ValueError):
        get_assembler(space4).rhs(np.zeros((3, 3)))
    S = np.zeros(mesh4.volume_weights.shape)
    with pytest.raises(ValueError):
        get_assembler(space4).rhs(S, np.zeros((2, 2)))


def test_value_jump_penalty_block(mesh4, space4):
    # Difference two assemblies that differ only in gamma0.  Applied to
    # the indicator of element 0 (2 interior edges, unit value jumps),
    # the difference is i * d_gamma0 / h_e * sum_edges h_e = 2i.
    pen1 = PenaltySet(gamma0=1.0, gamma_higher=(0.0,), beta1=0.0)
    pen2 = PenaltySet(gamma0=2.0, gamma_higher=(0.0,), beta1=0.0)
    A1 = get_assembler(space4, pen1).constant(5.0).matrix
    A2 = get_assembler(space4, pen2).constant(5.0).matrix
    v = np.zeros(space4.ndof)
    v[space4.dofs[0]] = 1.0
    val = np.vdot(v, (A2 - A1) @ v)
    assert abs(val - 2.0j) < 1e-12


def test_penalty_validation():
    with pytest.raises(ValueError, match="strictly positive"):
        PenaltySet(gamma0=0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        PenaltySet(beta1=-1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        PenaltySet(gamma_higher=[0.1, -0.2])
    with pytest.raises(ValueError, match="finite"):
        PenaltySet(gamma0=float("nan"))
    assert PenaltySet(beta1=0.0, gamma_higher=[0.0]).gamma_higher == (0.0,)


def test_gamma_j_defaults():
    pen = PenaltySet(gamma_higher=(0.25,))
    assert pen.gamma_j(0) == pen.gamma0
    assert pen.gamma_j(1) == 0.25
    assert pen.gamma_j(3) == 0.1


def test_volume_and_boundary_evaluation_roundtrip(space4, rng):
    # The load operator is the transposed evaluation at the volume
    # quadrature points; `volume_values` and `evaluate` give those values.
    asm = get_assembler(space4)
    mesh = space4.mesh
    c = rng.standard_normal(space4.ndof) + 1j * rng.standard_normal(space4.ndof)
    ones = np.ones(space4.ndof)
    assert np.allclose(DGFunction(space4, ones).volume_values(), 1.0, atol=1e-12)
    assert np.allclose(eval_boundary(asm, ones), 1.0, atol=1e-12)
    f = DGFunction(space4, c)
    values = f.volume_values()
    nel, nq = mesh.volume_weights.shape
    assert values.shape == (nel, nq)
    pointwise = f.evaluate(np.repeat(np.arange(nel), nq), np.tile(mesh.ref_volume_points, (nel, 1)))
    assert np.allclose(pointwise, values.ravel(), rtol=0.0, atol=1e-14)
    assert np.allclose(real_product(asm._load_op.T, c), values.ravel(), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("degree", [1, 2])
def test_block_operators_match_quadrature_loads(degree, rng):
    # Loads of c*u built at the quadrature points, sample by sample, must
    # equal the block-diagonal mass operator applied to the stacked samples
    # and the boundary loads added in place.  On n=3 the corner elements
    # carry two boundary edges each.
    mesh = build_uniform_mesh(3)
    space = DGSpace(mesh, degree)
    asm = get_assembler(space)
    nb = 3
    u = rng.standard_normal((nb, space.ndof)) + 1j * rng.standard_normal((nb, space.ndof))
    c = rng.standard_normal((nb,) + mesh.volume_weights.shape)
    cb = rng.standard_normal((nb, mesh.boundary_edges.size, mesh.ref_edge_points.size))
    vol = (asm.mass_operator(c) @ u.ravel()).reshape(nb, -1)
    start = rng.standard_normal((nb, space.ndof)) + 0j
    bnd = start.copy()
    asm.add_boundary_loads(bnd, 1j * cb, u)
    zero = np.zeros(mesh.volume_weights.shape)
    for b in range(nb):
        values = DGFunction(space, u[b]).volume_values()
        assert np.allclose(vol[b], asm.rhs(c[b] * values), atol=1e-14)
        expect = start[b] + asm.rhs(zero, 1j * cb[b] * eval_boundary(asm, u[b]))
        assert np.allclose(bnd[b], expect, atol=1e-14)


@pytest.mark.parametrize("n, degree", [(3, 1), (3, 2), (7, 3)])
def test_boundary_loads_and_traces_match_full_evaluation_matrix(n, degree, rng):
    # `rhs`'s boundary term and `eval_boundary` act only on the DOFs of the
    # elements with a boundary edge.  Both must equal, bit for bit, the
    # products with a full-length evaluation matrix, which sum each entry
    # in the same order.
    mesh = build_uniform_mesh(n)
    asm = get_assembler(DGSpace(mesh, degree))
    ndof, (nbe, nqe, ld) = asm.space.ndof, asm._btrace.shape
    columns = np.broadcast_to(asm._bdofs[:, None, :], asm._btrace.shape)
    full = sp.csr_matrix(
        (asm._btrace.ravel(), columns.ravel(), np.arange(0, asm._btrace.size + 1, ld)),
        shape=(nbe * nqe, ndof),
    )
    S = rng.standard_normal(mesh.volume_weights.shape)
    Q = rng.standard_normal((nbe, nqe)) + 1j * rng.standard_normal((nbe, nqe))
    expected = asm.rhs(S) + real_product(full.T, (asm._bweights * Q).ravel())
    assert asm.rhs(S, Q).tobytes() == expected.tobytes()
    for u in (rng.standard_normal(ndof) + 1j * rng.standard_normal(ndof), np.ones(ndof)):
        expected = real_product(full, u).reshape(nbe, nqe)
        assert eval_boundary(asm, u).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "degree, source, nb",
    [
        (1, SourceSpec(), 5),
        (2, SourceSpec(kind="radial_wave"), 5),
        (2, SourceSpec(kind="radial_wave"), 1),
    ],
)
def test_volume_loads_match_per_sample_rhs(degree, source, nb):
    # One batched product must give each sample's load bit for bit, both
    # against `rhs` and against a product with the transposed evaluation
    # matrix, which sums each entry in the same order.
    mesh = build_uniform_mesh(5)
    asm = get_assembler(DGSpace(mesh, degree))
    k, eps = 7.0, 0.3
    media = [sample_media(mesh, NoiseSpec(seed=4), j) for j in range(nb)]
    eta = np.stack([m.eta_volume for m in media])
    loads = asm.volume_loads(source_volume(source, mesh, eta, eps, k))
    assert loads.shape == (asm.space.ndof, nb) and loads.dtype == complex
    for b, m in enumerate(media):
        S = source_volume(source, mesh, m.eta_volume, eps, k)
        # The row-stored load operator, stored by columns: the transposed
        # volume evaluation matrix, with the same entries in the same order.
        transposed = real_product(asm._load_op.tocsc(), (asm._Wv * S.astype(complex)).ravel())
        assert loads[:, b].tobytes() == asm.rhs(S).tobytes()
        assert loads[:, b].tobytes() == transposed.tobytes()
    with pytest.raises(ValueError):
        asm.volume_loads(eta[:, :-1])
