import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randhelm import build_uniform_mesh


def _reference_rules():
    """The (points, weights) of the volume and edge rules a mesh carries.

    At n = 1 the lower triangle's Jacobian determinant and the first
    edge's length are exactly 1, so its weights are the reference ones.
    """
    mesh = build_uniform_mesh(1)
    d1, d2 = mesh.vertices[mesh.elements[0, 1:]] - mesh.vertices[mesh.elements[0, 0]]
    assert d1[0] * d2[1] - d1[1] * d2[0] == 1.0 and mesh.edge_length[0] == 1.0
    return (
        (mesh.ref_volume_points, mesh.volume_weights[0]),
        (mesh.ref_edge_points, mesh.edge_weights[0]),
    )


# Exact monomial integrals over the unit reference triangle:
# int x^a y^b = a! b! / (a + b + 2)!.
def test_triangle_rule_degree4_integrates_x2y2():
    (pts, wts), _ = _reference_rules()
    val = np.sum(wts * pts[:, 0] ** 2 * pts[:, 1] ** 2)
    assert abs(val - 1.0 / 180.0) < 1e-15


def test_triangle_rule_degree4_weight_sum():
    (pts, wts), _ = _reference_rules()
    assert pts.shape == (6, 2)
    assert abs(np.sum(wts) - 0.5) < 1e-15


def test_edge_rule_three_points_integrates_quintic():
    _, (pts, wts) = _reference_rules()
    assert pts.shape == (3,)
    assert abs(np.sum(wts * pts**5) - 1.0 / 6.0) < 1e-15
    assert abs(np.sum(wts) - 1.0) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
def test_entity_counts(n):
    mesh = build_uniform_mesh(n)
    assert mesh.n_elements == 2 * n * n
    assert mesh.n_vertices == (n + 1) ** 2
    assert mesh.n_edges == 3 * n * n + 2 * n
    assert mesh.boundary_edges.size == 4 * n
    assert mesh.interior_edges.size == 3 * n * n - 2 * n


def test_mesh_of_tenth_width_has_200_elements():
    assert build_uniform_mesh(10).n_elements == 200


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=12))
def test_entity_counts_property(n):
    mesh = build_uniform_mesh(n)
    assert mesh.n_elements == 2 * n * n
    assert mesh.n_edges == 3 * n * n + 2 * n
    assert mesh.boundary_edges.size == 4 * n


def test_rejects_nonpositive_subdivision():
    with pytest.raises(ValueError):
        build_uniform_mesh(0)


def test_areas_and_weights(mesh4):
    # Per-element quadrature weights sum to the element area, h^2 / 2.
    h = 1.0 / mesh4.n
    assert np.allclose(mesh4.volume_weights.sum(axis=1), 0.5 * h * h)
    assert abs(mesh4.volume_weights.sum() - 1.0) < 1e-14


def test_edge_lengths_and_weights(mesh4):
    h = 1.0 / mesh4.n
    lengths = mesh4.edge_length
    assert np.all(
        (np.abs(lengths - h) < 1e-14) | (np.abs(lengths - h * np.sqrt(2)) < 1e-14)
    )
    assert np.allclose(mesh4.edge_weights.sum(axis=1), lengths)
    # The boundary edges cover the perimeter of the unit square.
    assert abs(lengths[mesh4.boundary_edges].sum() - 4.0) < 1e-13


def test_normals_unit_and_orthogonal(mesh4):
    nrm, tang = mesh4.edge_normal, mesh4.edge_tangent
    assert np.allclose(np.linalg.norm(nrm, axis=1), 1.0)
    assert np.allclose(np.einsum("ij,ij->i", nrm, tang), 0.0)


def test_interior_normals_point_out_of_smaller_label(mesh4):
    ie = mesh4.interior_edges
    assert np.all(mesh4.edge_elems[ie, 0] < mesh4.edge_elems[ie, 1])
    pa = mesh4.vertices[mesh4.edge_vertices[ie, 0]]
    pb = mesh4.vertices[mesh4.edge_vertices[ie, 1]]
    mid = 0.5 * (pa + pb)
    centroid = mesh4.vertices[mesh4.elements[mesh4.edge_elems[ie, 0]]].mean(axis=1)
    dots = np.einsum("ij,ij->i", mesh4.edge_normal[ie], mid - centroid)
    assert np.all(dots > 0.0)


def test_boundary_normals_point_outward(mesh4):
    be = mesh4.boundary_edges
    pa = mesh4.vertices[mesh4.edge_vertices[be, 0]]
    pb = mesh4.vertices[mesh4.edge_vertices[be, 1]]
    mid = 0.5 * (pa + pb)
    # The domain is centered at the origin, so outward means away from it.
    dots = np.einsum("ij,ij->i", mesh4.edge_normal[be], mid)
    assert np.all(dots > 0.0)


def test_element_labels_row_major_lower_before_upper():
    mesh = build_uniform_mesh(2)
    # Cell (0, 0): lower triangle is label 0, upper is label 1.
    lower = mesh.vertices[mesh.elements[0]]
    upper = mesh.vertices[mesh.elements[1]]
    assert np.allclose(lower, [[-0.5, -0.5], [0.0, -0.5], [0.0, 0.0]])
    assert np.allclose(upper, [[-0.5, -0.5], [0.0, 0.0], [-0.5, 0.0]])


def test_to_reference_maps_vertices_to_unit_triangle(mesh4):
    unit = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    for e in (0, 1, 7):
        ref = mesh4.to_reference(e, mesh4.vertices[mesh4.elements[e]])
        assert np.allclose(ref, unit, atol=1e-14)
    # One label per point: every vertex of every element at once.
    labels = np.repeat(np.arange(mesh4.n_elements), 3)
    ref = mesh4.to_reference(labels, mesh4.vertices[mesh4.elements].reshape(-1, 2))
    assert np.allclose(ref.reshape(-1, 3, 2), unit, atol=1e-14)


def test_mesh_arrays_are_read_only(mesh4):
    with pytest.raises(ValueError):
        mesh4.vertices[0, 0] = 0.0


def test_mesh_is_deterministic():
    a, b = build_uniform_mesh(3), build_uniform_mesh(3)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.elements, b.elements)
    assert np.array_equal(a.edge_normal, b.edge_normal)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_elements_and_edges_match_a_per_side_loop(n):
    # The operator's summation order follows the edge numbering, so the
    # layout is pinned here against a plain loop over cells and sides.
    mesh = build_uniform_mesh(n)
    elements = []
    for cy in range(n):
        for cx in range(n):
            v00 = cy * (n + 1) + cx
            v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
            elements += [[v00, v10, v11], [v00, v11, v01]]
    assert mesh.elements.dtype == np.int64
    assert mesh.elements.tolist() == elements

    index, verts, adj = {}, [], []
    for e, (a, b, c) in enumerate(elements):
        for side in ((a, b), (b, c), (c, a)):
            key = tuple(sorted(side))
            if key in index:
                adj[index[key]][1] = e
            else:
                index[key] = len(verts)
                verts.append(list(key))
                adj.append([e, -1])
    assert mesh.edge_vertices.tolist() == verts
    assert mesh.edge_elems.tolist() == adj
    assert mesh.edge_vertices.dtype == mesh.edge_elems.dtype == np.int64
    assert np.all(mesh.edge_vertices[:, 0] < mesh.edge_vertices[:, 1])
    ie, be = mesh.interior_edges, mesh.boundary_edges
    assert np.all(mesh.edge_elems[ie, 0] < mesh.edge_elems[ie, 1])
    assert np.all(mesh.edge_elems[be, 1] == -1)
    assert be.tolist() == [i for i, (_, k) in enumerate(adj) if k == -1]


@pytest.mark.parametrize("n", [5, 7, 12])
def test_edge_keys_number_the_edges_as_the_vertex_pairs_do(n):
    # The edges are numbered by one unique over the keys a * nv + b of the
    # sorted pairs; a unique over the pair rows gives the same numbering.
    mesh = build_uniform_mesh(n)
    sides = np.sort(mesh.elements[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    pairs, first, inverse = np.unique(sides, axis=0, return_index=True, return_inverse=True)
    keys, key_first, key_inverse = np.unique(
        sides[:, 0] * mesh.n_vertices + sides[:, 1], return_index=True, return_inverse=True
    )
    assert np.array_equal(np.column_stack(np.divmod(keys, mesh.n_vertices)), pairs)
    assert np.array_equal(key_first, first)
    assert np.array_equal(key_inverse, inverse.reshape(-1))
    order = np.argsort(first)
    assert mesh.edge_vertices.tobytes() == pairs[order].tobytes()
    assert mesh.edge_elems[:, 0].tobytes() == (first[order] // 3).tobytes()
