import re
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from randhelm import (
    DGFunction,
    DGSpace,
    PenaltySet,
    broken_norms,
    build_uniform_mesh,
    get_assembler,
)
import randhelm.space
from randhelm.assembly import uniform_assembler


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_partition_of_unity(mesh4, degree, rng):
    space = DGSpace(mesh4, degree)
    pts = rng.random((20, 2))
    pts = pts[pts.sum(axis=1) <= 1.0]
    vals = space.basis_values(pts)
    assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-12)
    # Gradients of the constant sum vanish.
    grads = space.basis_gradients(pts)
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-11)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_nodal_basis_is_interpolatory(mesh4, degree):
    space = DGSpace(mesh4, degree)
    vals = space.basis_values(space.nodes)
    assert np.allclose(vals, np.eye(space.local_dim), atol=1e-11)


def test_degree_one_reference_gradients(mesh4):
    space = DGSpace(mesh4, 1)
    # Nodes are (0,0), (0,1), (1,0) on the barycentric lattice; the
    # gradient of each hat function is constant.
    g = space.basis_gradients(np.array([[0.3, 0.2]]))[0]
    node_order = [tuple(n) for n in space.nodes]
    expected = {(0.0, 0.0): [-1.0, -1.0], (1.0, 0.0): [1.0, 0.0], (0.0, 1.0): [0.0, 1.0]}
    for i, key in enumerate(node_order):
        assert np.allclose(g[i], expected[key], atol=1e-12)


def _basis_directional(space, points, dirs, order):
    """(d . grad)^order of every basis function, direction d per point, as
    the tables build the normal- and tangential-derivative traces."""
    derivatives = {(a, order - a): space._derivative(points, a, order - a)
                   for a in range(order + 1)}
    return randhelm.space._directional(derivatives, dirs, order)


def test_directional_derivative_orders(mesh4):
    space = DGSpace(mesh4, 2)
    pts = np.array([[0.25, 0.25], [0.1, 0.6]])
    dirs = np.array([[1.0, 0.0], [1.0, 0.0]])
    # Interpolate u(x, y) = x^2 on the reference element.
    coeff = space.nodes[:, 0] ** 2
    d1 = _basis_directional(space, pts, dirs, 1) @ coeff
    d2 = _basis_directional(space, pts, dirs, 2) @ coeff
    assert np.allclose(d1, 2.0 * pts[:, 0], atol=1e-11)
    assert np.allclose(d2, 2.0, atol=1e-11)
    # Second directional derivatives annihilate linears.
    lin = DGSpace(mesh4, 1)
    d2lin = _basis_directional(lin, pts, dirs, 2)
    assert np.allclose(d2lin, 0.0, atol=1e-12)


def test_linear_reproduction_on_element(space4):
    mesh = space4.mesh

    def u(p):
        return 2.0 * p[..., 0] - 3.0 * p[..., 1] + 1.0

    e = 5
    verts = mesh.vertices[mesh.elements[e]]
    jac = (verts[1:] - verts[0]).T  # columns v1 - v0, v2 - v0
    coeffs = np.zeros(space4.ndof, dtype=complex)
    # Nodes of the P1 space coincide with the element vertices, in the
    # order given by the barycentric lattice.
    phys_nodes = verts[0] + space4.nodes @ jac.T
    coeffs[space4.dofs[e]] = u(phys_nodes)
    f = DGFunction(space4, coeffs)
    ref = np.array([[0.2, 0.3], [0.5, 0.1]])
    phys = verts[0] + ref @ jac.T
    assert np.allclose(f.evaluate([e, e], ref), u(phys), atol=1e-12)
    # Each point on its own element: a nodal basis gives back, at the nodes
    # of every element, that element's coefficients.
    labels = np.repeat(np.arange(mesh.n_elements), space4.local_dim)
    nodes = np.tile(space4.nodes, (mesh.n_elements, 1))
    g = DGFunction(space4, np.arange(space4.ndof) * (1.0 - 0.5j))
    assert np.allclose(g.evaluate(labels, nodes), g.coefficients, rtol=0.0, atol=1e-12)
    # The physical gradient at every volume quadrature point.
    grads = np.einsum("qic,i->qc", space4.tables.Gphys[e], coeffs[space4.dofs[e]])
    assert np.allclose(grads, [2.0, -3.0], atol=1e-12)


def test_dgfunction_shape_validation(space4):
    with pytest.raises(ValueError):
        DGFunction(space4, np.zeros(space4.ndof + 1))
    z = DGFunction(space4, np.zeros(space4.ndof))
    assert z.coefficients.shape == (space4.ndof,)
    assert z.coefficients.dtype == complex


def test_evaluate_rejects_bad_element(space4):
    f = DGFunction(space4, np.zeros(space4.ndof))
    nel = space4.mesh.n_elements
    for bad in (nel, -1):
        with pytest.raises(IndexError, match=f"element label {bad} out of range"):
            f.evaluate([0, bad], np.array([[0.1, 0.1], [0.2, 0.1]]))


def test_evaluate_physical_constant_everywhere(space4, rng):
    f = DGFunction(space4, np.full(space4.ndof, 2.5 + 0.5j))
    pts = rng.uniform(-0.5, 0.5, size=(40, 2))
    # Include points on cell edges and the diagonal.
    pts = np.vstack([pts, [[0.0, 0.0], [0.1, 0.1], [-0.25, -0.25], [0.5, 0.5], [-0.5, -0.5]]])
    vals = f.evaluate_physical(pts)
    assert np.allclose(vals, 2.5 + 0.5j, atol=1e-12)


def test_evaluate_physical_rejects_points_off_the_domain(space4):
    f = DGFunction(space4, np.full(space4.ndof, 2.5 + 0.5j))
    for bad, shown in (
        ((5.0, 5.0), "(5.0, 5.0)"),
        ((0.5, -0.5000001), "(0.5, -0.5000001)"),
        ((float("nan"), 0.0), "(nan, 0.0)"),
        ((0.0, float("inf")), "(0.0, inf)"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"point {shown} lies outside")):
            f.evaluate_physical(np.array([[0.1, 0.2], bad]))
    corners = [[-0.5, -0.5], [0.5, -0.5], [-0.5, 0.5], [0.5, 0.5]]
    assert np.allclose(f.evaluate_physical(corners), 2.5 + 0.5j, atol=1e-12)


def _smallest_containing_label(mesh, pts):
    """Brute force: the smallest label whose barycentric coordinates of
    each point are all >= -1e-12, and the point's reference coordinates
    on it."""
    v0 = mesh.vertices[mesh.elements[:, 0]]
    ref = np.einsum("eij,pej->pei", mesh.jac_inv, pts[:, None, :] - v0)
    bary = np.concatenate([1.0 - ref.sum(axis=-1, keepdims=True), ref], axis=-1)
    inside = np.all(bary >= -1e-12, axis=-1)
    assert inside.any(axis=1).all()
    labels = np.argmax(inside, axis=1)
    return labels, ref[np.arange(len(pts)), labels]


@pytest.mark.parametrize("n", [1, 4, 7])
def test_evaluate_physical_uses_the_smallest_containing_label(n, rng):
    mesh = build_uniform_mesh(n)
    grid = np.linspace(-0.5, 0.5, 4 * n + 1)  # cell edges, vertices and midpoints
    corners = mesh.vertices[mesh.elements[::2, 0]]
    along = rng.random((corners.shape[0], 3, 1)) / n
    pts = np.vstack([
        rng.uniform(-0.5, 0.5, size=(2000, 2)),
        np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2),
        (corners[:, None, :] + along).reshape(-1, 2),  # on the cell diagonals
    ])
    labels, ref = _smallest_containing_label(mesh, pts)
    p1 = DGSpace(mesh, 1)
    label_field = DGFunction(p1, np.repeat(np.arange(mesh.n_elements), p1.local_dim))
    assert np.abs(label_field.evaluate_physical(pts) - labels).max() < 1e-9
    p2 = DGSpace(mesh, 2)
    f = DGFunction(p2, rng.standard_normal(p2.ndof) + 1j * rng.standard_normal(p2.ndof))
    assert np.abs(f.evaluate_physical(pts) - f.evaluate(labels, ref)).max() <= 1e-13


def test_broken_norms_of_constant_one(space4, penalties):
    f = DGFunction(space4, np.ones(space4.ndof))
    norms = broken_norms(f, penalties)
    assert norms.keys() == {"l2", "norm_1h"}
    assert abs(norms["l2"] - 1.0) < 1e-12
    # A globally constant function has no gradient and no jumps.
    assert norms["norm_1h"] < 1e-12


@pytest.mark.parametrize("r", [1, 2, 3])
def test_broken_norms_of_element_indicator(mesh4, penalties, r):
    # f = 1 on element 0 and 0 elsewhere.  Element 0 (lower-left corner,
    # lower triangle) touches 2 interior edges; each contributes
    # gamma0 * r / h_e * h_e = r * gamma0 to the squared jump term.  The
    # operator's penalty weighs value jumps at gamma0 / h_e instead.
    space = DGSpace(mesh4, r)
    coeffs = np.zeros(space.ndof)
    coeffs[space.dofs[0]] = 1.0
    f = DGFunction(space, coeffs)
    norms = broken_norms(f, penalties)
    area = 0.5 / mesh4.n**2
    assert abs(norms["l2"] - np.sqrt(area)) < 1e-12
    # A constant has no gradient, so only the jumps count:
    # norm_1h**2 = 2 * r * gamma0: 20, 40 and 60 for the default gamma0.
    assert abs(norms["norm_1h"] - np.sqrt(2.0 * r * penalties.gamma0)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_broken_norms_absolute_homogeneity(c):
    mesh = build_uniform_mesh(3)
    space = DGSpace(mesh, 1)
    pen = PenaltySet()
    gen = np.random.default_rng(7)
    base = gen.standard_normal(space.ndof) + 1j * gen.standard_normal(space.ndof)
    n1 = broken_norms(DGFunction(space, base), pen)
    n2 = broken_norms(DGFunction(space, c * base), pen)
    for key in n1:
        assert n2[key] == pytest.approx(abs(c) * n1[key], abs=1e-9, rel=1e-9)


@pytest.mark.parametrize("degree", [1, 2])
def test_broken_norms_do_not_depend_on_the_space_object(degree):
    # A space's DOF layout and quadrature depend on (n, r) alone: a fresh
    # space gets the same norm forms, and the same norms, as the kept one.
    pen = PenaltySet(gamma0=5.0)
    kept = uniform_assembler(5, degree, pen)
    fresh = DGSpace(build_uniform_mesh(5), degree)
    for mine, theirs in zip(get_assembler(fresh, pen).norm_forms, kept.norm_forms):
        assert (mine != theirs).nnz == 0
    gen = np.random.default_rng(3)
    c = gen.standard_normal(fresh.ndof) + 1j * gen.standard_normal(fresh.ndof)
    assert broken_norms(DGFunction(fresh, c), pen) == broken_norms(DGFunction(kept.space, c), pen)


def test_norms_reject_invalid_penalties(space4):
    f = DGFunction(space4, np.zeros(space4.ndof))
    with pytest.raises(ValueError):
        broken_norms(f, PenaltySet(gamma0=0.0))


def test_degree_below_one_rejected(mesh4):
    for degree in (0, -1):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            DGSpace(mesh4, degree)


def test_tables_built_once_per_space(mesh4, monkeypatch):
    built = []
    tables = randhelm.space._Tables
    monkeypatch.setattr(randhelm.space, "_Tables", lambda space: built.append(space) or tables(space))
    space = DGSpace(mesh4, 2)
    first = space.tables
    assert space.tables is first
    assert built == [space]
    other = DGSpace(mesh4, 2)
    assert other.tables is not first
    assert built == [space, other]


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_basis_evaluations_are_c_contiguous(mesh4, degree, rng):
    # The operator's and the norms' last bits depend on the memory order
    # of these arrays, so they are pinned to C order.
    space = DGSpace(mesh4, degree)
    pts = 0.5 * rng.random((7, 2))
    dirs = rng.standard_normal((7, 2))
    ld = space.local_dim
    outputs = [
        (space.basis_values(pts), (7, ld)),
        (space.basis_values(pts[0]), (1, ld)),
        (space.basis_gradients(pts), (7, ld, 2)),
        *((_basis_directional(space, pts, dirs, j), (7, ld)) for j in range(degree + 2)),
    ]
    for out, shape in outputs:
        assert out.shape == shape
        assert out.flags.c_contiguous
    t = space.tables
    for table in (t.B, t.Gphys, t.trace, t.trace_dt, *t.trace_dn.values()):
        assert table.flags.c_contiguous


def _polyval_derivative(space, points, a, b):
    """(d/dx)^a (d/dy)^b of the basis by numpy's polyval2d, in C order."""
    c = npoly.polyder(npoly.polyder(space._coef, b, axis=1), a, axis=0)
    return np.ascontiguousarray(npoly.polyval2d(points[:, 0], points[:, 1], c).T)


def _polyval_directional(space, points, dirs, order):
    return sum(
        (comb(order, a) * dirs[:, 0] ** a * dirs[:, 1] ** (order - a))[:, None]
        * _polyval_derivative(space, points, a, order - a)
        for a in range(order + 1)
    )


def _einsum_tables(space):
    """The tables built one side at a time, with einsum for the maps and
    the directional derivatives evaluated per trace."""
    mesh, r, ld = space.mesh, space.degree, space.local_dim
    gref = np.stack(
        [_polyval_derivative(space, mesh.ref_volume_points, 1, 0),
         _polyval_derivative(space, mesh.ref_volume_points, 0, 1)], axis=-1
    )
    tables = {"Gphys": np.einsum("qid,edc->eqic", gref, mesh.jac_inv)}
    ne, nqe = mesh.n_edges, mesh.ref_edge_points.shape[0]
    names = ["trace", "trace_dt", *(f"trace_dn{j}" for j in range(1, r + 1))]
    tables.update({name: np.zeros((ne, 2, nqe, ld)) for name in names})
    for side in (0, 1):
        valid = mesh.edge_elems[:, side] >= 0
        el = np.where(valid, mesh.edge_elems[:, side], 0)
        d = mesh.edge_points - mesh.vertices[mesh.elements[el, 0]][:, None, :]
        flat = np.einsum("eij,eqj->eqi", mesh.jac_inv[el], d).reshape(-1, 2)
        cn = np.repeat(np.einsum("eij,ej->ei", mesh.jac_inv[el], mesh.edge_normal), nqe, axis=0)
        ct = np.repeat(np.einsum("eij,ej->ei", mesh.jac_inv[el], mesh.edge_tangent), nqe, axis=0)
        values = {
            "trace": _polyval_derivative(space, flat, 0, 0),
            "trace_dt": _polyval_directional(space, flat, ct, 1),
            **{f"trace_dn{j}": _polyval_directional(space, flat, cn, j) for j in range(1, r + 1)},
        }
        for name, vals in values.items():
            vals = vals.reshape(ne, nqe, ld)
            vals[~valid] = 0.0
            tables[name][:, side] = vals
    return tables


@pytest.mark.parametrize("n, degree", [(12, 1), (7, 2), (5, 3)])
def test_tables_match_the_einsum_and_polyval_forms_bit_for_bit(n, degree):
    space = DGSpace(build_uniform_mesh(n), degree)
    t = space.tables
    got = {"Gphys": t.Gphys, "trace": t.trace, "trace_dt": t.trace_dt}
    got.update({f"trace_dn{j}": table for j, table in t.trace_dn.items()})
    want = _einsum_tables(space)
    assert got.keys() == want.keys()
    for name, table in got.items():
        assert table.dtype == want[name].dtype and table.shape == want[name].shape, name
        assert table.tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_basis_evaluations_match_polyval2d_bit_for_bit(mesh4, degree, rng):
    space = DGSpace(mesh4, degree)
    pts = np.concatenate([rng.random((50, 2)) - 0.25, space.nodes, [[0.0, 0.0], [-0.0, 1.0]]])
    dirs = rng.standard_normal((pts.shape[0], 2))
    for order in range(degree + 2):
        for a in range(order + 1):
            want = _polyval_derivative(space, pts, a, order - a)
            assert space._derivative(pts, a, order - a).tobytes() == want.tobytes()
        want = _polyval_directional(space, pts, dirs, order)
        got = _basis_directional(space, pts, dirs, order)
        assert got.tobytes() == np.asarray(want).tobytes()
