"""Broken polynomial spaces on a triangulation.

DGSpace represents the discontinuous space of piecewise P_r polynomials
with a nodal Lagrange basis on the barycentric lattice of each element.
The basis is stored as one array of bivariate monomial coefficients on
the reference triangle, so numpy's polynomial functions give values,
gradients, and arbitrary-order directional derivatives (needed for the
normal-derivative jump penalties) of every basis function at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from numpy.polynomial import polynomial as npoly

from .mesh import TriMesh, _integer

__all__ = ["DGSpace", "DGFunction"]


class DGSpace:
    """Broken space V_h^r of discontinuous piecewise P_r polynomials.

    Global DOF numbering is contiguous per element:
    global = element_label * local_dim + local_index.  The volume tables
    `B` and `Gphys` are built with the space; the edge traces, which only
    the assembler's set-up reads, are evaluated on request by
    `edge_traces`.  Immutable after construction.
    """

    def __init__(self, mesh: TriMesh, degree: int = 1):
        degree = _integer(degree, "polynomial degree")
        if degree < 1:
            raise ValueError("polynomial degree must be >= 1")
        self.mesh = mesh
        self.degree = degree
        r = degree
        self.local_dim = (r + 1) * (r + 2) // 2
        self.ndof = mesh.n_elements * self.local_dim

        # Barycentric lattice nodes and matching monomial exponents.
        exps = [(a, b) for a in range(r + 1) for b in range(r + 1 - a)]
        self.nodes = np.array(exps) / r
        # One column per monomial, with scalar exponents: an array of
        # exponents rounds differently and moves the coefficients.
        vander = np.column_stack([self.nodes[:, 0] ** a * self.nodes[:, 1] ** b for a, b in exps])
        # _coef[a, b, i]: coefficient of x^a y^b in basis function i.
        self._coef = np.zeros((r + 1, r + 1, self.local_dim))
        self._coef[tuple(np.transpose(exps))] = np.linalg.inv(vander)

        self.dofs = np.arange(self.ndof, dtype=np.int64).reshape(
            mesh.n_elements, self.local_dim
        )

        # Volume tables: basis values at the reference quadrature points,
        # (nq, ld), and physical gradients grad_x = J^{-T} grad_ref at every
        # element's, (nel, nq, ld, 2).
        self.B = self.basis_values(mesh.ref_volume_points)
        gref = self.basis_gradients(mesh.ref_volume_points)
        self.Gphys = _matvec(mesh.jac_inv.transpose(0, 2, 1)[:, None, None], gref)

    # -- reference-element evaluation ------------------------------------

    def _derivative(self, points, a: int, b: int) -> np.ndarray:
        """(d/dx)^a (d/dy)^b of every local basis function at reference
        points, shape (npts, local_dim).

        The steps of `polyval2d` over `polyder(polyder(_coef, b, axis=1),
        a, axis=0)`, bit for bit: Horner in x for each power of y, then in
        y.  They run in place, on one array per power of y.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        c = npoly.polyder(npoly.polyder(self._coef, b, axis=1), a, axis=0)[..., None]
        out = None
        for cy in c[:, ::-1].transpose(1, 0, 2, 3):   # highest power of y first
            t = cy[-1] + x * 0
            for cx in cy[-2::-1]:
                t *= x
                t += cx
            if out is None:
                out = t + y * 0
            else:
                out *= y
                out += t
        # The basis axis came first.  The volume tables, the edge traces
        # and the sums over them follow the memory order, so hand back C
        # order.
        return np.ascontiguousarray(out.T)

    def basis_values(self, points) -> np.ndarray:
        """Values of all local basis functions at reference points."""
        return self._derivative(points, 0, 0)

    def basis_gradients(self, points) -> np.ndarray:
        """Reference gradients, shape (npts, local_dim, 2)."""
        return np.stack([self._derivative(points, 1, 0), self._derivative(points, 0, 1)], axis=-1)

    def edge_traces(self, edges, side: int) -> list:
        """Traces on side `side` (0 or 1) of `edges`, from the element
        there: [values, tangential derivative, normal derivatives of orders
        1..r], each of shape (len(edges), nqe, local_dim).

        An edge with no element on that side is a ValueError naming it.
        """
        mesh = self.mesh
        edges = np.asarray(edges)
        el = mesh.edge_elems[edges, side]
        missing = el < 0
        if missing.any():
            raise ValueError(f"edge {edges[np.argmax(missing)]} has no element on side {side}")
        shape = (edges.size, mesh.ref_edge_points.shape[0], self.local_dim)
        jac_inv = mesh.jac_inv[el]
        v0 = mesh.vertices[mesh.elements[el, 0]]
        ref = _matvec(jac_inv[:, None], mesh.edge_points[edges] - v0[:, None])
        flat = ref.reshape(-1, 2)
        r = self.degree
        derivatives = {
            (a, j - a): self._derivative(flat, a, j - a) for j in range(r + 1) for a in range(j + 1)
        }
        # Direction of physical differentiation pulled back to the
        # reference element: c = J^{-1} d, one per point.
        cn, ct = (
            np.repeat(_matvec(jac_inv, d[edges]), shape[1], axis=0)
            for d in (mesh.edge_normal, mesh.edge_tangent)
        )
        traces = [derivatives[0, 0], _directional(derivatives, ct, 1)]
        traces += [_directional(derivatives, cn, j) for j in range(1, r + 1)]
        return [t.reshape(shape) for t in traces]


def _directional(derivatives, dirs, order: int) -> np.ndarray:
    """(d . grad)^order from the partial derivatives `derivatives[a, b]`,
    (d/dx)^a (d/dy)^b with a + b = order, at points with directions d."""
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    return sum(
        (comb(order, a) * dirs[:, 0] ** a * dirs[:, 1] ** (order - a))[:, None]
        * derivatives[a, order - a]
        for a in range(order + 1)
    )


def _matvec(A, v) -> np.ndarray:
    """A @ v over leading axes that broadcast, for 2 x 2 matrices A: the
    two products of each row are summed in order, as einsum does.  Each
    component is computed whole, so no loop runs over an axis of 2."""
    return np.stack([A[..., i, 0] * v[..., 0] + A[..., i, 1] * v[..., 1] for i in (0, 1)], axis=-1)


@dataclass
class DGFunction:
    """A member of V_h^r: a complex coefficient vector over the space."""

    space: DGSpace
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.shape != (self.space.ndof,):
            raise ValueError(
                f"coefficient vector has shape {c.shape}, expected ({self.space.ndof},)"
            )
        self.coefficients = c

    def evaluate(self, elements, points) -> np.ndarray:
        """Values at reference points `points`, shape (npts, 2), each on the
        element of the same row of `elements`, shape (npts,)."""
        space = self.space
        elements = np.asarray(elements)
        bad = (elements < 0) | (elements >= space.mesh.n_elements)
        if bad.any():
            raise IndexError(f"element label {elements[np.argmax(bad)]} out of range")
        values = space.basis_values(points)
        return np.einsum("pi,pi->p", values, self.coefficients[space.dofs[elements]])

    def volume_values(self) -> np.ndarray:
        """Values at every volume quadrature point, shape (nel, nq): the
        space's basis table B contracted with each element's coefficients."""
        return np.einsum("qi,ei->eq", self.space.B, self.coefficients[self.space.dofs])

    def evaluate_physical(self, points) -> np.ndarray:
        """Evaluate at physical points, each on the smallest label of the
        elements that contain it.

        A point that is not finite or lies outside the closed square
        [-0.5, 0.5]^2 is a ValueError naming it.
        """
        mesh = self.space.mesh
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        outside = ~np.all(np.abs(pts) <= 0.5, axis=1)  # NaN compares False
        if outside.any():
            x, y = pts[np.argmax(outside)].tolist()
            raise ValueError(f"point ({x}, {y}) lies outside the closed square [-0.5, 0.5]^2")
        # On a cell edge the left or lower cell, then its lower triangle,
        # t <= s in local coordinates (s, t), each with 1e-12 to spare.
        n = mesh.n
        local = (pts + 0.5) * n
        cell = np.clip(np.ceil(local - 1e-12) - 1.0, 0, n - 1)
        s, t = (local - cell).T
        cx, cy = cell.astype(np.int64).T
        labels = 2 * (cy * n + cx) + (t > s + 1e-12)
        return self.evaluate(labels, mesh.to_reference(labels, pts))
