"""Assembly of the IP-DG sesquilinear form and load vectors.

The discrete operator combines the broken stiffness form, interior-edge
consistency fluxes, a (possibly variable-coefficient) mass term, an
impedance boundary term, and purely imaginary interior penalties on value
jumps, tangential-derivative jumps, and normal-derivative jumps up to the
polynomial degree:

    a_h(u, v) = (grad u, grad v) - <{dn u},[v]> - <[u],{dn v}>
                - k^2 (c u, v) + i k <c_b u, v>_bnd
                + i ( L1(u, v) + sum_j J_j(u, v) )

with c = alpha^2 at volume quadrature points and c_b = alpha on boundary
edges (both identically 1 for the constant-coefficient operator).
All basis functions are real, so every term yields a symmetric matrix and
the assembled operator is complex-symmetric.  The broken norms of a DG
function are quadratic forms built from the same element and edge blocks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import inf, isfinite

import numpy as np
import scipy.sparse as sp

from .mesh import build_uniform_mesh
from .space import DGFunction, DGSpace

__all__ = ["PenaltySet", "Assembler", "get_assembler", "broken_norms", "uniform_assembler"]


@dataclass(frozen=True)
class PenaltySet:
    """Penalty magnitudes for the imaginary interior-penalty terms.

    gamma0 weights the value-jump term, beta1 the tangential-derivative
    jumps, and gamma_higher[j-1] the j-th normal-derivative jumps;
    `gamma_j` is 0.1 for every j past the end of gamma_higher.  The
    imaginary unit is applied by the assembler, not stored here.  Any
    sequence of gamma_higher is stored as a tuple, so a set is hashable.
    """

    gamma0: float = 10.0
    gamma_higher: tuple[float, ...] = (0.1,)
    beta1: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "gamma_higher", tuple(self.gamma_higher))
        vals = (self.gamma0, self.beta1, *self.gamma_higher)
        if not all(isfinite(v) for v in vals):
            raise ValueError("penalty parameters must be finite")
        if self.gamma0 <= 0.0:
            raise ValueError("gamma0 must be strictly positive")
        if self.beta1 < 0.0 or any(g < 0.0 for g in self.gamma_higher):
            raise ValueError("penalty parameters must be nonnegative")

    def gamma_j(self, j: int) -> float:
        if j == 0:
            return self.gamma0
        if j - 1 < len(self.gamma_higher):
            return self.gamma_higher[j - 1]
        return 0.1


@dataclass
class SystemMatrix:
    """Assembled sparse complex-symmetric IP-DG operator.

    The wrapper stays because the benchmark reads `.matrix`; in the package,
    only `lu_factorize` unwraps it.
    """

    matrix: sp.csc_matrix


class Assembler:
    """Precomputed assembly kernel for one (space, penalties) pair.

    The only builder of element and edge blocks: stiffness, mass,
    boundary mass, the interior-edge consistency fluxes and the jump
    penalties.  The coefficient-independent blocks and the operator's CSC
    pattern are built once: the pattern records the order in which
    scipy's COO-to-CSC conversion sums each entry's terms, and keeps the
    sums of the terms that come before the first mass or boundary term.
    A constant or variable operator then takes fresh mass and boundary
    values and fills that pattern in place, bit for bit as the conversion
    would (see `_CSCPattern`); no COO triplets are kept.  Most of the
    classical baseline's cost difference from the multi-modes method is
    one `splu` factorization per sample; the fill and, in `lu_factorize`,
    the U diagonal for the pivot check are paid per sample on top of it.

    `norm_forms` scatters the same blocks, with the norm's penalty
    weights, into the real quadratic forms of the mode norms and
    `broken_norms`; it is built on first use.  The load operators are the
    transposes, stored by rows, of real sparse evaluation matrices at the
    volume and boundary quadrature points, the boundary one restricted to
    the DOFs of the elements with a boundary edge; only the boundary one
    is kept, for the recursion's boundary loads.
    `volume_loads`, `mass_operator` and `add_boundary_loads` serve the
    multi-modes recursion: they act on a batch of coefficient vectors.
    """

    def __init__(self, space: DGSpace, penalties: PenaltySet = PenaltySet()):
        self.space = space
        self.mesh = space.mesh
        self.penalties = penalties
        mesh, t = self.mesh, space.tables
        ld, r = space.local_dim, space.degree
        dofs = space.dofs

        # Element blocks (stiffness and mass share indices).
        self._stiff = _stiffness_blocks(mesh.volume_weights, t.Gphys)

        # Interior-edge blocks on the stacked (K, K') DOF pair.
        ie = mesh.interior_edges
        self._w_ie = mesh.edge_weights[ie]
        self._h_ie = mesh.edge_length[ie]
        sign = (1.0, -1.0)

        def jump(trace):
            return np.concatenate([sign[s] * trace[ie, s] for s in (0, 1)], axis=2)

        self._jump_v = jump(t.trace)
        self._jump_t = jump(t.trace_dt)
        self._jump_n = [jump(t.trace_dn[j]) for j in range(1, r + 1)]
        avg_dn = 0.5 * np.concatenate([t.trace_dn[1][ie, s] for s in (0, 1)], axis=2)
        cross = np.einsum("eq,eqi,eqj->eij", self._w_ie, avg_dn, self._jump_v)
        self._cons = -(cross + cross.transpose(0, 2, 1))
        self._ie_dofs = np.concatenate(
            [dofs[mesh.edge_elems[ie, 0]], dofs[mesh.edge_elems[ie, 1]]], axis=1
        )

        # Boundary-edge mass blocks.
        be = mesh.boundary_edges
        self._btrace = t.trace[be, 0]                      # (nbe, nqe, ld)
        self._bweights = mesh.edge_weights[be]
        self._bdofs = dofs[mesh.edge_elems[be, 0]]

        self._BB = np.einsum("qi,qj->qij", t.B, t.B)       # (nq, ld, ld)
        self._Wv = mesh.volume_weights

        # The operator's terms as (element tuples, blocks, fresh per operator):
        # stiffness, mass, consistency, penalty, boundary mass.  This order
        # fixes the order in which each matrix entry sums its terms.  The
        # pattern keeps the other terms; mass and boundary come with each
        # operator.
        elements = np.arange(mesh.n_elements)[:, None]
        groups = (
            (elements, self._stiff, False),
            (elements, np.zeros(self._stiff.shape), True),
            (mesh.edge_elems[ie], self._cons, False),
            (mesh.edge_elems[ie], 1j * self._penalty_blocks(1), False),
            (mesh.edge_elems[be, :1], np.zeros((be.size, ld, ld)), True),
        )
        self._pattern = _CSCPattern(groups, space.ndof, ld)

        # Evaluation at quadrature points: one row per point, its element's
        # (or boundary edge's) basis values in the columns of that element.
        nel, nq = self._Wv.shape
        vol_eval = _eval_matrix(
            np.broadcast_to(t.B, (nel, nq, ld)),
            np.broadcast_to(dofs[:, None, :], (nel, nq, ld)),
            space.ndof,
        )
        # The volume load operator, stored by rows: an entry sums its terms in
        # the same order for one sample or a batch.
        self._load_op = vol_eval.T.tocsr()
        # Boundary evaluation acts only on the DOFs of the elements with a
        # boundary edge, `_bnd_dofs` (sorted); its row-wise transpose is the
        # boundary load operator.
        self._bnd_dofs, columns = np.unique(self._bdofs, return_inverse=True)
        self._bnd_eval = _eval_matrix(
            self._btrace,
            np.broadcast_to(columns.reshape(be.size, 1, ld), self._btrace.shape),
            self._bnd_dofs.size,
        )
        self._bnd_load = self._bnd_eval.T.tocsr()

    # -- element and edge blocks -----------------------------------------

    def _penalty_blocks(self, s) -> np.ndarray:
        """Interior-edge blocks of the jump penalties at degree scale s.

        Value jumps weigh gamma0*s/h_e, tangential-derivative jumps
        beta1*s/h_e and j-th normal-derivative jumps gamma_j*(h_e/s)^(2j-1).
        The operator uses s = 1, the broken norm s = r.
        """
        p, w, h_e = self.penalties, self._w_ie, self._h_ie

        def weighted(scale, jump, out=None):
            # The edge's scale times each weight, then the basis pair: the
            # order of the product "e,eq,eqi,eqj" with one operand less.
            return np.einsum("eq,eqi,eqj->eij", scale[:, None] * w, jump, jump, out=out)

        blocks = weighted(p.gamma0 * s / h_e, self._jump_v)
        term = np.empty_like(blocks)
        blocks += weighted(p.beta1 * s / h_e, self._jump_t, term)
        for j, jump_n in enumerate(self._jump_n, start=1):
            blocks += weighted(p.gamma_j(j) * (h_e / s) ** (2 * j - 1), jump_n, term)
        return blocks

    def _mass_blocks(self, c=None) -> np.ndarray:
        """Element blocks of the weighted mass form (c u, v).

        `c` holds values at the volume quadrature points, shape
        (..., nel, nq), or is None for c = 1.  Leading axes are a batch;
        the result has shape (..., nel, ld, ld).
        """
        wc = self._Wv if c is None else self._Wv * c
        return np.einsum("...eq,qij->...eij", wc, self._BB)

    def _boundary_blocks(self, c=None) -> np.ndarray:
        """Boundary-edge blocks of <c u, v>, shape (..., nbe, ld, ld).

        `c` holds values at the boundary-edge quadrature points, shape
        (..., nbe, nqe), or is None for c = 1.
        """
        wc = self._bweights if c is None else self._bweights * c
        return np.einsum("...eq,eqi,eqj->...eij", wc, self._btrace, self._btrace)

    # -- operators -------------------------------------------------------

    def _build(self, k, cvol, cbnd) -> SystemMatrix:
        if not 0.0 < k < inf:
            raise ValueError(f"wavenumber k must be positive and finite, got {k!r}")
        return SystemMatrix(self._pattern.fill(np.concatenate([
            (-k * k) * self._mass_blocks(cvol).ravel(),
            1j * k * self._boundary_blocks(cbnd).ravel(),
        ])))

    def constant(self, k: float) -> SystemMatrix:
        return self._build(k, None, None)

    def variable(self, k: float, media, epsilon: float) -> SystemMatrix:
        if not 0.0 <= epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        self._check_media(media)
        alpha_v = 1.0 + epsilon * media.eta_volume
        alpha_b = 1.0 + epsilon * media.eta_boundary
        return self._build(k, alpha_v * alpha_v, alpha_b)

    def _check_media(self, media) -> None:
        if (media.eta_volume.shape, media.eta_boundary.shape) != (
            self._Wv.shape,
            self._bweights.shape,
        ):
            raise ValueError("media sample layout does not match this mesh")

    @cached_property
    def norm_forms(self) -> tuple:
        """Real CSR forms (mass, energy) of the L2 and broken-H1 norms.

        The energy form is the stiffness form plus the jump form, the
        penalty form at degree scale s = r.  Each of the three scatters its
        blocks on the DOFs of their elements or edges, as the operator
        does, in one COO-to-CSR conversion of its own.
        """
        def form(dofs, blocks):
            rows, cols = _block_entries(dofs)
            return sp.csr_matrix(
                (blocks.ravel(), (rows.ravel(), cols.ravel())),
                shape=(self.space.ndof, self.space.ndof),
            )

        stiff = form(self.space.dofs, self._stiff)
        jump = form(self._ie_dofs, self._penalty_blocks(self.space.degree))
        return form(self.space.dofs, self._mass_blocks()), (stiff + jump).tocsr()

    # -- block operators on stacked coefficient vectors ------------------

    def mass_operator(self, c) -> sp.bsr_matrix:
        """Block-diagonal matrix of (c u, v) over a batch of coefficients.

        `c` has shape (nb, nel, nq).  The matrix acts on the nb coefficient
        vectors stacked sample after sample (length nb*ndof).  DOFs are
        contiguous per element, so each of its blocks `_mass_blocks(c)`,
        one per sample and element, is one block row.
        """
        blocks = self._mass_blocks(c)
        nb, nel, ld = blocks.shape[:3]
        return sp.bsr_matrix(
            (blocks.reshape(nb * nel, ld, ld), np.arange(nb * nel), np.arange(nb * nel + 1)),
            shape=(nb * nel * ld,) * 2,
        )

    # -- load vectors ----------------------------------------------------

    def rhs(self, S, Q=None) -> np.ndarray:
        """Load vector for real volume data S and boundary data Q.

        S has one value per (element, volume quadrature point); Q, when
        given, one per (boundary edge, edge quadrature point).
        """
        b = self.volume_loads(np.asarray(S)[None]).reshape(-1)
        if Q is not None:
            Q = np.asarray(Q)
            if Q.shape != self._bweights.shape:
                raise ValueError(
                    f"boundary integrand has shape {Q.shape}, expected {self._bweights.shape}"
                )
            b[self._bnd_dofs] += real_product(self._bnd_load, (self._bweights * Q).ravel())
        return b

    def volume_loads(self, S) -> np.ndarray:
        """Complex load vectors, shape (ndof, nb), of real volume data S of
        shape (nb, nel, nq), by one real product; column b is `rhs(S[b])`
        bit for bit."""
        S = np.asarray(S)
        if S.shape[1:] != self._Wv.shape:
            raise ValueError(f"volume data has shape {S.shape}, expected (nb, *{self._Wv.shape})")
        return (self._load_op @ (self._Wv * S).reshape(S.shape[0], -1).T).astype(complex)

    def add_boundary_loads(self, out, c, u) -> None:
        """Add the boundary loads <c u, v> of a batch to `out`, in place.

        `u` and `out` hold nb coefficient vectors, shape (nb, ndof), and
        `c` their coefficients at the boundary-edge quadrature points,
        shape (nb, nbe, nqe): row b gains `rhs`'s boundary term for
        Q = c[b] times the trace of u[b], up to rounding.  Only the DOFs of
        the elements with a boundary edge change.
        """
        traces = real_product(self._bnd_eval, u[:, self._bnd_dofs].T)
        data = (self._bweights * c).reshape(len(c), -1).T * traces
        out[:, self._bnd_dofs] += real_product(self._bnd_load, data).T


def _stiffness_blocks(w, G) -> np.ndarray:
    """Blocks sum_q w[e, q] G[e, q, i] . G[e, q, j] of the broken stiffness
    form, for weights w (nel, nq) and physical gradients G (nel, nq, ld, 2).

    Bit for bit `np.einsum("eq,eqic,eqjc->eij", w, G, G)`: each product is
    (w G_i) G_j, a point's two components are summed first and the points
    in order.  One point at a time runs over whole blocks, not over the
    two components, and takes about half the einsum's time.
    """
    blocks = np.zeros(G.shape[:1] + G.shape[2:3] * 2)
    for q in range(G.shape[1]):
        wg = w[:, q, None, None] * G[:, q]
        blocks += wg[:, :, None, 0] * G[:, q, None, :, 0] + wg[:, :, None, 1] * G[:, q, None, :, 1]
    return blocks


def _eval_matrix(values: np.ndarray, columns: np.ndarray, ncols: int) -> sp.csr_matrix:
    """CSR matrix whose rows hold values[..., :] in columns[..., :]: one
    row per point, the last axis running over its element's basis."""
    width = values.shape[-1]
    return sp.csr_matrix(
        (values.ravel(), columns.ravel(), np.arange(0, values.size + 1, width)),
        shape=(values.size // width, ncols),
    )


def _block_entries(dofs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index of every entry of the blocks on the DOF tuples
    `dofs`, shape (nb, m): entry (b, i, j) lies at (dofs[b, i], dofs[b, j]).
    Both are read-only views of shape (nb, m, m)."""
    shape = dofs.shape + dofs.shape[-1:]
    return np.broadcast_to(dofs[:, :, None], shape), np.broadcast_to(dofs[:, None, :], shape)


def _ranges(starts, lengths) -> np.ndarray:
    """The concatenated ranges starts[i] .. starts[i] + lengths[i] - 1, none
    of them empty, as one running sum of steps: 1 inside a range, the jump
    to its start at the first place of each."""
    steps = np.ones(lengths.sum(), dtype=np.intp)
    ends = np.cumsum(lengths)
    steps[ends - lengths] = starts - np.append(0, starts[:-1] + lengths[:-1] - 1)
    return np.cumsum(steps, out=steps)


def _sum_runs(values, bounds) -> np.ndarray:
    """The sum of each run values[bounds[i]:bounds[i + 1]] (none empty),
    left to right, by the `csr_sum_duplicates` that scipy's COO conversion
    runs: the runs are the rows of a one-column CSR matrix, marked sorted
    so that `sum_duplicates` only sums.  `values` is overwritten."""
    runs = sp.csr_matrix(
        (values, np.zeros(values.size, dtype=bounds.dtype), bounds.copy()),
        shape=(bounds.size - 1, 1),
    )
    runs.has_sorted_indices = True
    runs.sum_duplicates()
    return runs.data


class _CSCPattern:
    """The CSC matrix `sp.csc_matrix((values, (rows, cols)))` for fixed rows
    and columns, filled with new values bit for bit.

    scipy's conversion sorts the terms by column with a stable counting
    sort, sorts each column by row with `std::sort`, and sums each run of
    equal rows, one slot (stored entry), left to right.  Both sorts move
    terms by their indices alone, so running them once on the terms'
    positions gives, for any values, the order in which every slot sums
    its terms.  The head of a slot, its terms before its first fresh one,
    is summed once, into `_base`.  `fill` sums each slot with fresh terms
    again from its head's sum on, and writes these sums into a copy of
    `_base`: every slot is summed in scipy's order, so the matrix is
    scipy's bit for bit, and no array as long as the terms is built.

    The blocks couple whole elements of `width` consecutive DOFs, so the
    columns of one element hold the same rows in the same input order and
    are sorted alike.  The sorts therefore run on one column per element,
    each term standing for the `width` terms of its row in that element.
    """

    def __init__(self, groups, n: int, width: int):
        """`groups` lists the terms, in the order that scipy would take
        them, as (tuples, blocks, fresh): tuple entry e stands for the DOFs
        e * width .. e * width + width - 1, so block b couples the DOFs of
        `tuples[b]`, entry after entry.  `fill` supplies the values of the
        fresh blocks, whose values here are not read; the others are kept."""
        m = sum(blocks.size for _, blocks, _ in groups)
        idx = sp.get_index_dtype(maxval=max(m, n))
        w = width
        # Reduced term t = (block, row, tuple entry) stands for the terms at
        # positions w*t .. w*t + w - 1 of the input: its row, in the columns
        # of its entry, which is its column here.
        rows, cols = [], []
        for tuples, _, _ in groups:
            tuples = tuples.astype(idx)
            dofs = (tuples[:, :, None] * w + np.arange(w, dtype=idx)).reshape(len(tuples), -1)
            shape = dofs.shape + tuples.shape[-1:]
            rows.append(np.broadcast_to(dofs[:, :, None], shape))
            cols.append(np.broadcast_to(tuples[:, None, :], shape))
        rows, cols = np.concatenate(rows, axis=None), np.concatenate(cols, axis=None)
        mr = rows.size
        # With one term per row (its column, holding its row), `tocsc` is the
        # conversion's counting sort; `sort_indices` is the sort that its
        # `sum_duplicates` runs.
        by_col = sp.csr_matrix(
            (rows, cols, np.arange(mr + 1, dtype=idx)), shape=(mr, n // w)
        ).tocsc()
        del rows, cols
        order = sp.csc_matrix((by_col.indices, by_col.data, by_col.indptr), shape=(n, n // w))
        order.sort_indices()
        term, row = order.data, order.indices         # summation order
        new = np.ones(mr, dtype=bool)
        np.not_equal(row[1:], row[:-1], out=new[1:])
        new[order.indptr[:-1]] = True
        starts = np.flatnonzero(new)                  # each reduced slot's run
        bounds = np.append(starts, mr)
        col_slots = np.searchsorted(starts, order.indptr)
        # Column e*w + j of the matrix holds the slots of reduced column e:
        # reduced slot s of column e is slot full[s, j].
        ns = np.diff(col_slots)
        slot_col = np.repeat(np.arange(ns.size), ns)
        full = ((w - 1) * col_slots[slot_col] + np.arange(starts.size))[:, None] + (
            np.arange(w) * ns[slot_col, None]
        )
        self.shape = (n, n)
        self.indices = np.empty(full.size, dtype=row.dtype)
        self.indices[full] = row[starts, None]
        self.indptr = np.append(
            w * col_slots[:-1, None] + np.arange(w) * ns[:, None], w * col_slots[-1]
        ).astype(idx)

        # values[j, k]: term j of the reduced term in summation place k, so
        # that each slot's terms are one run of a row.
        sizes = [blocks.size // w for _, blocks, _ in groups]
        place = np.empty(mr, dtype=np.intp)
        place[term] = np.arange(mr)
        values = np.empty((w, mr), dtype=complex)
        lo = 0
        for (_, blocks, fresh), size in zip(groups, sizes):
            values[:, place[lo:lo + size]] = 0.0 if fresh else blocks.reshape(-1, w).T
            lo += size
        # A slot's tail runs from its first fresh term to its end, and its
        # head holds the terms before.
        slot_of = np.cumsum(new) - 1
        is_fresh = np.repeat([fresh for _, _, fresh in groups], sizes)
        f = np.flatnonzero(is_fresh[term])
        f_slot = slot_of[f]
        first = np.flatnonzero(np.diff(f_slot, prepend=-1))
        tails, begin = f_slot[first], f[first]
        tail_length = bounds[tails + 1] - begin

        # `_runs` holds each tail after the sum of its head, slot by slot.
        tail_full = full[tails]
        by_slot = np.argsort(tail_full, axis=None)
        self._tail_slots = tail_full.ravel()[by_slot]
        which, j = np.divmod(by_slot, w)
        length = tail_length[which]
        self._run_bounds = np.cumsum(np.append(0, length + 1)).astype(idx)
        # Place p of run r holds values.flat[p + shift[r]]; each run's first
        # place takes its head's sum below.
        shift = j * mr + begin[which] - 1 - self._run_bounds[:-1]
        self._runs = values.reshape(-1)[_ranges(shift + self._run_bounds[:-1], length + 1)]

        # Each head summed by itself: -0.0 is the identity of IEEE
        # addition, so a head sums as if alone, and an empty head sums to
        # -0.0, to which a fresh term adds exactly.
        values[:, _ranges(begin, tail_length)] = complex(-0.0, -0.0)
        runs = (bounds[:-1] + mr * np.arange(w)[:, None]).ravel()
        sums = _sum_runs(values.reshape(-1), np.append(runs, w * mr).astype(idx))
        self._base = np.empty(full.size, dtype=complex)
        self._base[full.T] = sums.reshape(w, -1)
        self._runs[self._run_bounds[:-1]] = self._base[self._tail_slots]
        # The fresh terms' places in `_runs`, in input order.
        k = place[np.flatnonzero(is_fresh)]
        run_of = np.empty(by_slot.size, dtype=np.intp)      # (tail, j) -> run
        run_of[by_slot] = np.arange(by_slot.size)
        run = run_of.reshape(-1, w)[np.searchsorted(tails, slot_of[k])]
        self._fresh_at = (k[:, None] + j[run] * mr - shift[run]).ravel()

    def fill(self, fresh) -> sp.csc_matrix:
        """The matrix whose fresh terms are `fresh`, in input order."""
        runs = self._runs.copy()
        runs[self._fresh_at] = fresh
        data = self._base.copy()
        data[self._tail_slots] = _sum_runs(runs, self._run_bounds)
        # Each matrix owns its indices: scipy may change them in place.
        mat = sp.csc_matrix((data, self.indices.copy(), self.indptr.copy()), shape=self.shape)
        mat.has_canonical_format = True
        return mat


def real_product(op, x) -> np.ndarray:
    """op @ x for a real sparse matrix and a complex vector or matrix.

    The real and imaginary parts of x ride as two columns of one real
    product, so op is never cast to complex.
    """
    x = np.ascontiguousarray(x, dtype=complex)
    y = op @ x.view(np.float64).reshape(x.shape[0], -1)
    return y.view(complex).reshape((op.shape[0],) + x.shape[1:])


def quadratic_forms(forms, U) -> np.ndarray:
    """u^H A u, shape (len(forms), columns), for each real symmetric form A
    and column u of U: the sum of the forms of Re u and Im u, which ride as
    two real columns of one sparse product."""
    Y = np.ascontiguousarray(U, dtype=complex).view(np.float64)
    return np.stack([np.einsum("dk,dk->k", Y, A @ Y).reshape(-1, 2).sum(axis=1) for A in forms])


def get_assembler(space: DGSpace, penalties: PenaltySet = PenaltySet()) -> Assembler:
    """A new Assembler for (space, penalties); nothing is cached.  The
    drivers' set-up, kept between calls, is `uniform_assembler`.
    Outside the package's tests, only the benchmark calls it."""
    return Assembler(space, penalties)


@lru_cache(maxsize=1)
def uniform_assembler(mesh_n: int, degree: int, penalties: PenaltySet) -> Assembler:
    """The set-up of every driver: the Assembler on the uniform mesh, whose
    mesh and space are `.mesh` and `.space`.  The process keeps the last one,
    norm forms included, until a call with other arguments (pass them by
    position: one call form, one key).  `cache_clear()` frees it."""
    return Assembler(DGSpace(build_uniform_mesh(mesh_n), degree), penalties)


def broken_norms(f: DGFunction, penalties) -> dict:
    """L2 norm and broken-H1 norm of a DG function: {"l2", "norm_1h"}.

    The broken norm adds to the broken H1 seminorm penalty-weighted jump
    terms across interior edges: value jumps at gamma0*r/h_e,
    tangential-derivative jumps at beta1*r/h_e, and j-th normal-derivative
    jumps at gamma_j*(h_e/r)^(2j-1).  The forms are the ones the
    multi-modes driver's mode norms use, from the kept set-up
    `uniform_assembler(n, r, penalties)` of the field's mesh size and
    degree (the DOF layout depends on these alone), so a call with other
    penalties replaces that set-up.
    """
    forms = uniform_assembler(f.space.mesh.n, f.space.degree, penalties).norm_forms
    l2_sq, h1_sq = np.maximum(quadratic_forms(forms, f.coefficients[:, None])[:, 0], 0.0)
    return {"l2": np.sqrt(float(l2_sq)), "norm_1h": np.sqrt(float(h1_sq))}
