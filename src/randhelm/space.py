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
from functools import cached_property
from math import comb

import numpy as np
from numpy.polynomial import polynomial as npoly

from .mesh import TriMesh

__all__ = ["DGSpace", "DGFunction"]


class DGSpace:
    """Broken space V_h^r of discontinuous piecewise P_r polynomials.

    Global DOF numbering is contiguous per element:
    global = element_label * local_dim + local_index.
    Immutable after construction.
    """

    def __init__(self, mesh: TriMesh, degree: int = 1):
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

    # -- reference-element evaluation ------------------------------------

    def _derivative(self, points, a: int, b: int) -> np.ndarray:
        """(d/dx)^a (d/dy)^b of every local basis function at reference
        points, shape (npts, local_dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        c = npoly.polyder(npoly.polyder(self._coef, b, axis=1), a, axis=0)
        # polyval2d puts the basis axis first.  The tables, and the sums
        # over them, follow the memory order, so hand back C order.
        return np.ascontiguousarray(npoly.polyval2d(pts[:, 0], pts[:, 1], c).T)

    def basis_values(self, points) -> np.ndarray:
        """Values of all local basis functions at reference points."""
        return self._derivative(points, 0, 0)

    def basis_gradients(self, points) -> np.ndarray:
        """Reference gradients, shape (npts, local_dim, 2)."""
        return np.stack([self._derivative(points, 1, 0), self._derivative(points, 0, 1)], axis=-1)

    def basis_directional(self, points, dirs, order: int) -> np.ndarray:
        """(d . grad)^order of every basis function, per-point direction d.

        `dirs` holds the (reference-coordinate) direction for each point.
        """
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        return sum(
            (comb(order, a) * dirs[:, 0] ** a * dirs[:, 1] ** (order - a))[:, None]
            * self._derivative(points, a, order - a)
            for a in range(order + 1)
        )

    @cached_property
    def tables(self) -> "_Tables":
        """Basis evaluations on the mesh quadrature layout, built on first use."""
        return _Tables(self)


class _Tables:
    """Precomputed basis evaluations on the mesh quadrature layout."""

    def __init__(self, space: DGSpace):
        mesh = space.mesh
        r = space.degree
        self.B = space.basis_values(mesh.ref_volume_points)          # (nq, ld)
        gref = space.basis_gradients(mesh.ref_volume_points)         # (nq, ld, 2)
        # Physical gradient: grad_x = J^{-T} grad_ref.
        self.Gphys = np.einsum("qid,edc->eqic", gref, mesh.jac_inv)

        ne, nqe = mesh.n_edges, mesh.ref_edge_points.shape[0]
        ld = space.local_dim
        self.trace = np.zeros((ne, 2, nqe, ld))
        self.trace_dn = {j: np.zeros((ne, 2, nqe, ld)) for j in range(1, r + 1)}
        self.trace_dt = np.zeros((ne, 2, nqe, ld))

        for side in (0, 1):
            elems = mesh.edge_elems[:, side]
            valid = elems >= 0
            el = np.where(valid, elems, 0)
            v0 = mesh.vertices[mesh.elements[el, 0]]
            d = mesh.edge_points - v0[:, None, :]
            ref = np.einsum("eij,eqj->eqi", mesh.jac_inv[el], d)
            flat = ref.reshape(-1, 2)
            vals = space.basis_values(flat).reshape(ne, nqe, ld)
            vals[~valid] = 0.0
            self.trace[:, side] = vals
            # Direction of physical differentiation pulled back to the
            # reference element: c = J^{-1} d.
            cn = np.einsum("eij,ej->ei", mesh.jac_inv[el], mesh.edge_normal)
            ct = np.einsum("eij,ej->ei", mesh.jac_inv[el], mesh.edge_tangent)
            cn_flat = np.repeat(cn, nqe, axis=0)
            ct_flat = np.repeat(ct, nqe, axis=0)
            for j in range(1, r + 1):
                dn = space.basis_directional(flat, cn_flat, j).reshape(ne, nqe, ld)
                dn[~valid] = 0.0
                self.trace_dn[j][:, side] = dn
            dt = space.basis_directional(flat, ct_flat, 1).reshape(ne, nqe, ld)
            dt[~valid] = 0.0
            self.trace_dt[:, side] = dt


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

    @classmethod
    def zero(cls, space: DGSpace) -> "DGFunction":
        return cls(space, np.zeros(space.ndof, dtype=complex))

    def evaluate(self, element: int, points, gradient: bool = False):
        """Evaluate at reference points of one element.

        Returns values, or (values, gradients) with physical gradients
        when `gradient` is set.
        """
        if not 0 <= element < self.space.mesh.n_elements:
            raise IndexError(f"element label {element} out of range")
        local = self.coefficients[self.space.dofs[element]]
        vals = self.space.basis_values(points) @ local
        if not gradient:
            return vals
        gref = self.space.basis_gradients(points)
        gphys = np.einsum("qid,dc->qic", gref, self.space.mesh.jac_inv[element])
        return vals, np.einsum("qic,i->qc", gphys, local)

    def evaluate_physical(self, points) -> np.ndarray:
        """Evaluate at physical points; ties on edges go to the smaller label."""
        mesh = self.space.mesh
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty(pts.shape[0], dtype=complex)
        n = mesh.n
        for p, (x, y) in enumerate(pts):
            cx = min(max(int(np.floor((x + 0.5) * n)), 0), n - 1)
            cy = min(max(int(np.floor((y + 0.5) * n)), 0), n - 1)
            lower = 2 * (cy * n + cx)
            xi, eta = mesh.to_reference(lower, (x, y))
            # Points on the cell diagonal belong to the lower triangle
            # (the smaller of the two labels).
            label = lower if eta <= xi + 1e-12 else lower + 1
            ref = mesh.to_reference(label, (x, y))
            out[p] = self.evaluate(label, ref[None, :])[0]
        return out

