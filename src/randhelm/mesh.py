"""Uniform triangulations of the square D = (-0.5, 0.5)^2.

Each of the n x n unit cells is split along its lower-left to upper-right
diagonal, giving 2n^2 congruent isosceles right triangles with legs of
length h = 1/n.  The mesh carries oriented edges (interior normals point
out of the adjacent element with the smaller global label), per-element
affine maps, and cached physical quadrature geometry for volumes and
edges.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TriMesh", "build_uniform_mesh"]


# The 6-point symmetric degree-4 rule on the reference triangle with
# vertices (0,0), (1,0), (0,1); its weights sum to the reference area 1/2.
_a1, _a2 = 0.445948490915965, 0.091576213509771
_w1, _w2 = 0.223381589678011, 0.109951743655322
_TRI_POINTS = np.array(
    [
        [_a1, _a1], [1.0 - 2.0 * _a1, _a1], [_a1, 1.0 - 2.0 * _a1],
        [_a2, _a2], [1.0 - 2.0 * _a2, _a2], [_a2, 1.0 - 2.0 * _a2],
    ]
)
_TRI_WEIGHTS = 0.5 * np.array([_w1, _w1, _w1, _w2, _w2, _w2])

# 3-point Gauss-Legendre rule on the unit interval [0, 1].
_x, _w = np.polynomial.legendre.leggauss(3)
_EDGE_POINTS, _EDGE_WEIGHTS = 0.5 * (_x + 1.0), 0.5 * _w


@dataclass
class TriMesh:
    """Uniform triangulation T_{1/n} of the centered unit square.

    All arrays are read-only after construction; the mesh is safe to
    share across threads.
    """

    n: int
    vertices: np.ndarray          # (nv, 2)
    elements: np.ndarray          # (nel, 3) vertex indices, CCW
    jac_inv: np.ndarray           # (nel, 2, 2) inverse of the columns (v1-v0, v2-v0)
    # Edge arrays.  Interior edges store (K, K') with label(K) < label(K')
    # and the unit normal pointing out of K; boundary edges store (K, -1)
    # with the outward normal.
    edge_vertices: np.ndarray     # (ne, 2)
    edge_elems: np.ndarray        # (ne, 2)
    edge_length: np.ndarray       # (ne,)
    edge_normal: np.ndarray       # (ne, 2)
    edge_tangent: np.ndarray      # (ne, 2)
    interior_edges: np.ndarray    # indices into the edge arrays
    boundary_edges: np.ndarray
    # Quadrature geometry (physical points and weights).
    ref_volume_points: np.ndarray   # (nq, 2)
    volume_points: np.ndarray       # (nel, nq, 2)
    volume_weights: np.ndarray      # (nel, nq)
    ref_edge_points: np.ndarray     # (nqe,)
    edge_points: np.ndarray         # (ne, nqe, 2)
    edge_weights: np.ndarray        # (ne, nqe)

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edge_vertices.shape[0]

    def to_reference(self, labels, points) -> np.ndarray:
        """Map point p of `points` (npts, 2) into the reference coordinates
        of element labels[p]; a single label serves every point."""
        v0 = self.vertices[self.elements[labels, 0]]
        return np.einsum("...ij,...j->...i", self.jac_inv[labels], np.asarray(points, float) - v0)


def _integer(value, name) -> int:
    """`value` as an int; ValueError naming it unless it is an integer
    (numpy's included, bool not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} {value!r} is not an integer")
    return int(value)


def build_uniform_mesh(n: int) -> TriMesh:
    """Build the uniform triangulation T_{1/n} of (-0.5, 0.5)^2.

    Element labels run row-major over the n x n cells, lower triangle
    before upper.  Volumes carry the 6-point degree-4 triangle rule and
    edges 3 Gauss points, so a mesh, and the quadrature layout of a DG
    space on it, depend on n alone.  Output is deterministic: the same n
    yields a bit-identical mesh.
    """
    n = _integer(n, "subdivision count n")
    if n < 1:
        raise ValueError("subdivision count n must be >= 1")

    h = 1.0 / n
    ix, iy = np.meshgrid(np.arange(n + 1), np.arange(n + 1))
    vertices = np.column_stack([(-0.5 + h * ix).ravel(), (-0.5 + h * iy).ravel()])

    # Corner vertex ids of each cell, row-major: v00 = cy * (n + 1) + cx.
    cells = np.arange(n, dtype=np.int64)
    v00 = (cells[:, None] * (n + 1) + cells).ravel()
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    elements = np.stack([lower, upper], axis=1).reshape(-1, 3)

    p0 = vertices[elements[:, 0]]
    d1 = vertices[elements[:, 1]] - p0
    d2 = vertices[elements[:, 2]] - p0
    jac = np.stack([d1, d2], axis=-1)          # columns are edge vectors
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    jac_inv = np.empty_like(jac)
    jac_inv[:, 0, 0] = jac[:, 1, 1] / det
    jac_inv[:, 0, 1] = -jac[:, 0, 1] / det
    jac_inv[:, 1, 0] = -jac[:, 1, 0] / det
    jac_inv[:, 1, 1] = jac[:, 0, 0] / det

    # Edges in order of first appearance over the sides (a, b), (b, c),
    # (c, a) of each element in label order, as sorted vertex pairs.  The
    # first side of an edge belongs to the smaller label, a second to the
    # larger; boundary edges have no second side and keep -1.  A pair
    # (a, b) with a < b is numbered by its key a * nv + b, which sorts as
    # the pairs do.
    sides = np.sort(elements[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys = sides[:, 0] * vertices.shape[0] + sides[:, 1]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    last = np.zeros_like(first)
    np.maximum.at(last, inverse, np.arange(sides.shape[0]))
    order = np.argsort(first)
    edge_vertices = sides[first[order]]
    edge_elems = np.column_stack([first // 3, np.where(last > first, last // 3, -1)])[order]

    pa = vertices[edge_vertices[:, 0]]
    pb = vertices[edge_vertices[:, 1]]
    tang = pb - pa
    edge_length = np.linalg.norm(tang, axis=1)
    edge_tangent = tang / edge_length[:, None]
    normal = np.column_stack([edge_tangent[:, 1], -edge_tangent[:, 0]])
    # Orient the normal out of the first adjacent element (the smaller
    # label for interior edges, the only element for boundary edges).
    centroid = vertices[elements].mean(axis=1)
    mid = 0.5 * (pa + pb)
    flip = np.einsum("ij,ij->i", normal, mid - centroid[edge_elems[:, 0]]) < 0.0
    normal[flip] *= -1.0
    edge_normal = normal

    interior = np.flatnonzero(edge_elems[:, 1] >= 0)
    boundary = np.flatnonzero(edge_elems[:, 1] < 0)

    volume_points = p0[:, None, :] + np.einsum("eij,qj->eqi", jac, _TRI_POINTS)
    volume_weights = _TRI_WEIGHTS[None, :] * det[:, None]

    edge_pts = pa[:, None, :] + _EDGE_POINTS[None, :, None] * tang[:, None, :]
    edge_weights = _EDGE_WEIGHTS[None, :] * edge_length[:, None]

    mesh = TriMesh(
        n=n,
        vertices=vertices,
        elements=elements,
        jac_inv=jac_inv,
        edge_vertices=edge_vertices,
        edge_elems=edge_elems,
        edge_length=edge_length,
        edge_normal=edge_normal,
        edge_tangent=edge_tangent,
        interior_edges=interior,
        boundary_edges=boundary,
        ref_volume_points=_TRI_POINTS,
        volume_points=volume_points,
        volume_weights=volume_weights,
        ref_edge_points=_EDGE_POINTS,
        edge_points=edge_pts,
        edge_weights=edge_weights,
    )
    for arr in vars(mesh).values():
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return mesh
