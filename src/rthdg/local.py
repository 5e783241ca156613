"""Element-local solver: balance assembly, condensed inflow solves, operator extraction.

On one element the discrete transport balance reads

    (B - C + M - S) [u] = [f] - Bhat [uhat_in]

with B the outflow face term, Bhat the inflow face coupling, C the volume
advection, M the extinction mass, and S the scattering redistribution.
Spatial integrals use LGL collocation at the (p+1)^2 element nodes (diagonal
mass; variable-coefficient terms inexact by design, consistent at the
scheme's order).

Physical scaling via the affine reference map on an hx-by-hy element: volume
terms carry hx*hy/4, x-advection and vertical-face terms hy/2, y-advection
and horizontal-face terms hx/2. For a square element of size h this is the
usual (h/2)^2 / (h/2) split, and the inflow-to-solution map depends on
(h, sigma) only through the rescaled coefficients h*sigma/2.

Bhat has one nonzero per column, in the row of the volume DOF under its
inflow slot. The volume DOFs therefore split into the k distinct inflow
unknowns I, the DOFs under an inflow slot (a corner DOF can carry two
slots), and the rest J, and every inflow right-hand side lives on I. The
balance matrix A = B - C + M - S is assembled as its four [J | I] blocks:
the sigma-independent part B - C is cached per element size in [J | I]
order, so each block starts as a slice copy, and the extinction mass and
the node-wise scattering blocks are added through cached index vectors.

The solve is condensed onto I: A_JJ is factored, G = A_JJ^-1 A_JI and the
Schur complement S = A_II - A_IJ G are formed, and S is factored. Unit data
on I gives x_I = S^-1 and x_J = -G S^-1, so the rows that the global solve
keeps, R x with R the outflow-trace rows and the angular averages, are
(R_I - R_J G) S^-1: one solve with S^T. Each inflow slot's column is its
unknown's column times -Bhat; these are the inflow-to-outflow and
inflow-to-mean operators. Any other right-hand side b (the forcing, or an
inflow trace in `element_solution`) goes through the same factors:
x_I = S^-1 (b_I - A_IJ A_JJ^-1 b_J), x_J = A_JJ^-1 b_J - G x_I. At p=6,
N_a=28 (n_vol 1372, k 364) that is about 1.84 GFlop per element, against
3.2 GFlop for one LU of A and 392 solves through it. By LGL summation by
parts, the rows of B - C outside I are those of the collocated strong-form
advection, so A_JJ is that operator with the inflow values removed, plus
M - S: it stays regular down to sigma = 0 (pure advection), which the
tests draw.
"""

import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .angular import AngularGrid, PhaseKernel
from .basis import differentiation_matrix, lgl_quadrature
from .errors import SolverFailure
from .mesh import FACE_LEFT, FACE_RIGHT, element_trace_map

_SINGULAR_RCOND = 1e-14
#: element sizes whose B - C stays cached per (p, grid)
_BASE_CACHE_SIZE = 4


def _element_sizes(h) -> tuple[float, float]:
    if np.isscalar(h):
        return float(h), float(h)
    hx, hy = h
    return float(hx), float(hy)


@dataclass(frozen=True)
class SigmaField:
    """Nodal extinction/scattering coefficients on the (p+1)^2 LGL grid.

    Arrays are indexed [ix, iy] on the element's tensor node grid and must
    be nonnegative.
    """

    sigma_e: np.ndarray
    sigma_s: np.ndarray

    def __post_init__(self):
        se, ss = np.asarray(self.sigma_e, float), np.asarray(self.sigma_s, float)
        if se.shape != ss.shape or se.ndim != 2:
            raise ValueError(f"coefficient grids must share a 2D shape, got {se.shape} vs {ss.shape}")
        if np.any(se < 0) or np.any(ss < 0):
            raise ValueError("optical coefficients must be nonnegative")
        object.__setattr__(self, "sigma_e", se)
        object.__setattr__(self, "sigma_s", ss)

    @classmethod
    def from_scattering(cls, sigma_s, omega: float) -> "SigmaField":
        """Single-coefficient mode: sigma_e = sigma_s / omega (albedo coupling)."""
        sigma_s = np.asarray(sigma_s, float)
        if not 0 < omega <= 1:
            raise ValueError(f"single-scattering albedo must be in (0, 1], got {omega}")
        return cls(sigma_e=sigma_s / omega, sigma_s=sigma_s)


@dataclass
class LocalOperators:
    """Element-local solution maps restricted to what the global solve reads.

    a_i2o/fhat_u are the inflow and forcing responses gathered on the
    outflow trace; a_i2m/f_mean their angular averages at the volume nodes.
    Surrogate-produced instances carry zero forcing responses.
    """

    a_i2o: np.ndarray            # (n_out, n_in)
    a_i2m: np.ndarray            # (n_sp, n_in)
    fhat_u: np.ndarray           # (n_out,)
    f_mean: np.ndarray           # (n_sp,)


#: the per-element arrays of LocalOperators, in field order
OPERATOR_FIELDS = ("a_i2o", "a_i2m", "fhat_u", "f_mean")


@dataclass
class ElementOperators:
    """Every element's LocalOperators, stacked along a leading element axis.

    Built by `surrogate.unflatten_operators`: a_i2o and a_i2m are views into
    the rows of one (n_elems, output_size) array in the training-label
    layout, whether the rows are exact solves, labels or network outputs.
    The skeleton solve and the recovery read the stacks directly; len(),
    indexing and iteration give per-element LocalOperators views into them,
    and ops[e] = LocalOperators(...) writes element e's row.
    """

    a_i2o: np.ndarray            # (n_elems, n_out, n_in)
    a_i2m: np.ndarray            # (n_elems, n_sp, n_in)
    fhat_u: np.ndarray           # (n_elems, n_out)
    f_mean: np.ndarray           # (n_elems, n_sp)

    def __len__(self) -> int:
        return self.a_i2o.shape[0]

    def __getitem__(self, e: int) -> LocalOperators:
        return LocalOperators(*(getattr(self, name)[e] for name in OPERATOR_FIELDS))

    def __setitem__(self, e: int, ops: LocalOperators) -> None:
        for name in OPERATOR_FIELDS:
            getattr(self, name)[e] = getattr(ops, name)

    def __iter__(self):
        return (self[e] for e in range(len(self)))


class _ReferenceKernels:
    """sigma-independent assembly pieces for one (p, grid), unscaled, in [J | I] order."""

    def __init__(self, p: int, grid: AngularGrid):
        q = lgl_quadrature(p)
        d = differentiation_matrix(q)
        w = q.weights
        w1 = np.diag(w)
        adv1 = (w1 @ d).T  # adv1[i, j] = w_j * D[j, i]
        self.w2 = np.kron(w, w)  # node = ix*(p+1)+iy
        self.tracemap = tm = element_trace_map(p, grid)
        na = grid.n_elems
        n_sp = (p + 1) ** 2
        n_vol = n_sp * na
        # the condensed order [J | I]: perm[i] is the volume DOF at place i,
        # position[dof] its place; I holds the DOFs under an inflow slot
        inflow = np.unique(tm.inflow_vol)
        self.perm = np.concatenate((np.setdiff1d(np.arange(n_vol), inflow), inflow))
        self.position = np.argsort(self.perm)
        self.n_j = n_j = n_vol - inflow.size
        self.slot_unknown = self.position[tm.inflow_vol] - n_j  # each slot's place in I
        condensed = np.ix_(self.perm, self.perm)
        self.cx_vol = np.kron(np.kron(adv1, w1), np.diag(grid.cos_int))[condensed]
        self.cy_vol = np.kron(np.kron(w1, adv1), np.diag(grid.sin_int))[condensed]
        vert = np.isin(tm.outflow_face, (FACE_LEFT, FACE_RIGHT))
        self.b_diag_vert = np.zeros(n_vol)
        self.b_diag_horz = np.zeros(n_vol)
        np.add.at(self.b_diag_vert, self.position[tm.outflow_vol[vert]],
                  (tm.outflow_wnode * tm.outflow_flux)[vert])
        np.add.at(self.b_diag_horz, self.position[tm.outflow_vol[~vert]],
                  (tm.outflow_wnode * tm.outflow_flux)[~vert])
        # Bhat: column k has its one nonzero in row inflow_vol[k]
        self.bhat_val = tm.inflow_wnode * tm.inflow_flux
        self.bhat_col_vert = np.isin(tm.inflow_face, (FACE_LEFT, FACE_RIGHT))
        # M - S lives in the na x na block of each node: entry (n, a, b) of
        # those blocks, flat index src, goes to flat index flat (Fortran
        # order) of the [J | I] block (rows, cols)
        node, a, b = np.unravel_index(np.arange(n_sp * na * na), (n_sp, na, na))
        row, col = self.position[node * na + a], self.position[node * na + b]
        self.blocks = []
        halves = (slice(0, n_j), slice(n_j, n_vol))
        for rows in halves:
            for cols in halves:
                src = np.flatnonzero((row >= rows.start) & (row < rows.stop)
                                     & (col >= cols.start) & (col < cols.stop))
                flat = row[src] - rows.start + (col[src] - cols.start) * (rows.stop - rows.start)
                self.blocks.append((rows, cols, flat, src))
        # the kept rows R: the outflow-trace rows, then the angular mean of
        # every node; an outflow row is a row of J or of I
        out = self.position[tm.outflow_vol]
        self.out_j = np.flatnonzero(out < n_j)
        self.out_i = np.flatnonzero(out >= n_j)
        self.out_pos = out
        mean = np.zeros((n_sp, n_vol))
        mean[np.repeat(np.arange(n_sp), na), self.position] = np.tile(grid.mean_weights, n_sp)
        self.mean_j = np.ascontiguousarray(mean[:, :n_j])
        self.mean_i = np.ascontiguousarray(mean[:, n_j:])
        k = n_vol - n_j
        #: multiply-adds of one element's condensed solve
        self.solve_work = (n_j ** 3 // 3 + n_j * n_j * k + n_j * k * k + k ** 3 // 3
                           + k * k * (tm.n_out + n_sp))
        self.p = p
        self.n_vol = n_vol
        self._bases = {}
        self._lock = threading.Lock()

    def transport_base(self, hx: float, hy: float) -> np.ndarray:
        """B - C on an hx-by-hy element in [J | I] order: read-only, Fortran order, cached.

        Entry (i, j) couples the volume DOFs perm[i] and perm[j]; read an
        entry of node-major DOFs (r, c) as base[position[r], position[c]].
        """
        key = (hx, hy)
        with self._lock:
            base = self._bases.get(key)
            if base is None:
                half_x, half_y = 0.5 * hx, 0.5 * hy
                base = np.asfortranarray(-(half_y * self.cx_vol + half_x * self.cy_vol))
                diag = np.einsum("ii->i", base)
                diag += half_y * self.b_diag_vert + half_x * self.b_diag_horz
                base.flags.writeable = False
                if len(self._bases) >= _BASE_CACHE_SIZE:
                    del self._bases[next(iter(self._bases))]
                self._bases[key] = base
            return base

    def inflow_coupling(self, hx: float, hy: float) -> np.ndarray:
        """The nonzero of each Bhat column on an hx-by-hy element, shape (n_in,)."""
        return self.bhat_val * np.where(self.bhat_col_vert, 0.5 * hy, 0.5 * hx)


@dataclass
class LocalBalance:
    """One element's balance matrix A as its four [J | I] blocks, Fortran order.

    J and I follow `ref.perm`. `local_solve` overwrites jj, ji and ii.
    """

    jj: np.ndarray               # (n_j, n_j)
    ji: np.ndarray               # (n_j, k)
    ij: np.ndarray               # (k, n_j)
    ii: np.ndarray               # (k, k)
    ref: _ReferenceKernels = field(repr=False)

    def dense(self) -> np.ndarray:
        """A as one (n_vol, n_vol) array over node-major (node, angle) DOFs."""
        pos = self.ref.position
        return np.block([[self.jj, self.ji], [self.ij, self.ii]])[np.ix_(pos, pos)]


_kernel_cache: dict[tuple, _ReferenceKernels] = {}
_kernel_cache_lock = threading.Lock()


def reference_kernels(p: int, grid: AngularGrid) -> _ReferenceKernels:
    key = (p, grid.n_elems)
    with _kernel_cache_lock:
        if key not in _kernel_cache:
            _kernel_cache[key] = _ReferenceKernels(p, grid)
        return _kernel_cache[key]


def _degree(sigma: SigmaField) -> int:
    p = sigma.sigma_e.shape[0] - 1
    if sigma.sigma_e.shape != (p + 1, p + 1):
        raise ValueError(f"coefficient grid must be square, got {sigma.sigma_e.shape}")
    return p


def extinction_scattering(sigma_e: np.ndarray, sigma_s: np.ndarray, grid: AngularGrid,
                          h) -> tuple[np.ndarray, np.ndarray]:
    """The coefficient terms M and S of nodal fields of shape (..., p+1, p+1).

    Returns m_diag, shape (..., n_sp, N_a): the extinction mass on the
    diagonal of the volume DOFs (node, angle); and s_coef, shape (..., n_sp):
    the sigma_s-weighted collocation mass that scales the angular kernel in
    each node's scattering block, S = s_coef[n] * kernel.
    """
    hx, hy = _element_sizes(h)
    vol_scale = 0.25 * hx * hy
    w2 = reference_kernels(sigma_e.shape[-1] - 1, grid).w2
    nodal = sigma_e.shape[:-2] + (w2.size,)
    m_diag = vol_scale * ((w2 * sigma_e.reshape(nodal))[..., None] * grid.widths)
    s_coef = vol_scale * w2 * sigma_s.reshape(nodal)
    return m_diag, s_coef


def assemble_local(sigma: SigmaField, grid: AngularGrid, kernel: PhaseKernel,
                   h) -> LocalBalance:
    """The balance matrix A = B - C + M - S on an element of size h (scalar or (hx, hy)).

    Returns fresh [J | I] blocks, ready to be factored in place.
    """
    p = _degree(sigma)
    if kernel.kernel.shape != (grid.n_elems, grid.n_elems):
        raise ValueError("phase kernel does not match the angular grid")
    hx, hy = _element_sizes(h)
    ref = reference_kernels(p, grid)
    m_diag, s_coef = extinction_scattering(sigma.sigma_e, sigma.sigma_s, grid, (hx, hy))
    # M - S: separable scattering, one na x na block on the diagonal of every node
    node_blocks = -s_coef[:, None, None] * kernel.kernel
    np.einsum("naa->na", node_blocks)[...] += m_diag
    vals = node_blocks.reshape(-1)
    base = ref.transport_base(hx, hy)
    parts = []
    for rows, cols, flat, src in ref.blocks:
        block = np.array(base[rows, cols], order="F")
        block.reshape(-1, order="F")[flat] += vals[src]
        parts.append(block)
    return LocalBalance(*parts, ref=ref)


def forcing_vector(f, p: int, grid: AngularGrid, h) -> np.ndarray:
    """Tested forcing [f] for nodal data f of shape (p+1, p+1) or (p+1, p+1, N_a)."""
    f = np.asarray(f, float)
    na = grid.n_elems
    n_sp = (p + 1) ** 2
    hx, hy = _element_sizes(h)
    vol_scale = 0.25 * hx * hy
    w2 = reference_kernels(p, grid).w2
    if f.shape == (p + 1, p + 1):
        return vol_scale * np.outer(w2 * f.reshape(n_sp), grid.widths).reshape(-1)
    if f.shape == (p + 1, p + 1, na):
        return vol_scale * (w2[:, None] * f.reshape(n_sp, na) * grid.widths[None, :]).reshape(-1)
    raise ValueError(f"forcing shape {f.shape} incompatible with p={p}, N_a={na}")


def _factor(a: np.ndarray, element_index, name: str):
    """LU factors (partial pivoting) of a, in place; SolverFailure on a tiny pivot."""
    lu, piv, info = lapack.dgetrf(a, overwrite_a=True)
    if info < 0:  # pragma: no cover - defensive
        raise SolverFailure(f"local factorization failed on element {element_index}")
    udiag = np.abs(np.einsum("ii->i", lu))
    if udiag.min() <= _SINGULAR_RCOND * udiag.max():
        raise SolverFailure(f"singular local matrix on element {element_index} ({name})")
    return lu, piv


def _lu_solve(lu: np.ndarray, piv: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """op(A)^-1 b from `_factor`'s factors; b is overwritten when Fortran-ordered float64."""
    x, info = lapack.dgetrs(lu, piv, b, trans=trans, overwrite_b=True)
    if info != 0:  # pragma: no cover - defensive
        raise SolverFailure("local solve failed")
    return x


@dataclass
class CondensedLU:
    """A balance factored on its inflow unknowns: A_JJ, G = A_JJ^-1 A_JI and S."""

    ref: _ReferenceKernels
    lu_jj: np.ndarray
    piv_jj: np.ndarray
    g: np.ndarray                # (n_j, k)
    a_ij: np.ndarray             # (k, n_j)
    lu_s: np.ndarray
    piv_s: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs for rhs of shape (n_vol, m) over node-major DOFs."""
        n_j = self.ref.n_j
        b = rhs[self.ref.perm]
        y = _lu_solve(self.lu_jj, self.piv_jj, b[:n_j])
        x_i = _lu_solve(self.lu_s, self.piv_s, b[n_j:] - self.a_ij @ y)
        return np.concatenate((y - self.g @ x_i, x_i))[self.ref.position]


def local_solve(balance: LocalBalance, element_index=None) -> CondensedLU:
    """Factor a balance condensed onto its inflow unknowns, in place.

    A_JJ is LU-factored in jj, G = A_JJ^-1 A_JI overwrites ji, and the Schur
    complement S = A_II - A_IJ G overwrites ii and is LU-factored there.
    A pivot below 1e-14 of its factor's largest raises SolverFailure naming
    the element.
    """
    lu_jj, piv_jj = _factor(balance.jj, element_index, "A_JJ")
    g = _lu_solve(lu_jj, piv_jj, balance.ji)
    s = balance.ii
    s -= balance.ij @ g
    lu_s, piv_s = _factor(s, element_index, "Schur complement")
    return CondensedLU(ref=balance.ref, lu_jj=lu_jj, piv_jj=piv_jj, g=g, a_ij=balance.ij,
                       lu_s=lu_s, piv_s=piv_s)


def extract_operators(lu: CondensedLU, coupling: np.ndarray, f_vec=None) -> LocalOperators:
    """The outflow-trace rows and angular averages of the inflow and forcing responses.

    coupling holds the nonzero of each Bhat column (`inflow_coupling`);
    f_vec is the tested forcing, or None for zero forcing responses.
    """
    ref = lu.ref
    tm = ref.tracemap
    n_sp = ref.w2.size
    grid = tm.grid
    # Q = R_I - R_J G, then K = Q S^-1 from S^T K^T = Q^T: K's column u is
    # the kept response to unit data on inflow unknown u
    q = np.zeros((tm.n_out + n_sp, ref.n_vol - ref.n_j))
    q[ref.out_j] = -lu.g[ref.out_pos[ref.out_j]]
    q[ref.out_i, ref.out_pos[ref.out_i] - ref.n_j] = 1.0
    np.subtract(ref.mean_i, ref.mean_j @ lu.g, out=q[tm.n_out:])
    kept = _lu_solve(lu.lu_s, lu.piv_s, q.T, trans=1).T
    resp = kept[:, ref.slot_unknown] * -coupling
    a_i2o, a_i2m = resp[:tm.n_out], resp[tm.n_out:]
    if f_vec is None:
        return LocalOperators(a_i2o=a_i2o, a_i2m=a_i2m, fhat_u=np.zeros(tm.n_out),
                              f_mean=np.zeros(n_sp))
    x = lu.solve(f_vec[:, None])[:, 0]
    return LocalOperators(a_i2o=a_i2o, a_i2m=a_i2m, fhat_u=x[tm.outflow_vol],
                          f_mean=x.reshape(n_sp, grid.n_elems) @ grid.mean_weights)


def solve_element(sigma: SigmaField, grid: AngularGrid, kernel: PhaseKernel,
                  h, f=None, element_index=None) -> LocalOperators:
    """The exact local pipeline for one element: assemble, factor condensed, extract."""
    p = _degree(sigma)
    hx, hy = _element_sizes(h)
    f_vec = None if f is None else forcing_vector(f, p, grid, (hx, hy))
    lu = local_solve(assemble_local(sigma, grid, kernel, (hx, hy)), element_index=element_index)
    return extract_operators(lu, reference_kernels(p, grid).inflow_coupling(hx, hy), f_vec)


def element_solution(sigma: SigmaField, grid: AngularGrid, kernel: PhaseKernel,
                     h, uhat_in, f=None, element_index=None) -> np.ndarray:
    """Interior solution u = A^{-1} ([f] - Bhat uhat_in), re-solved on request.

    uhat_in has shape (n_in,) or (n_in, k) for k inflow traces at once; the
    result has shape (n_vol,) or (n_vol, k) in node-major (node, angle) order.
    """
    p = _degree(sigma)
    hx, hy = _element_sizes(h)
    ref = reference_kernels(p, grid)
    tm = ref.tracemap
    uhat_in = np.asarray(uhat_in, float)
    if uhat_in.ndim not in (1, 2) or uhat_in.shape[0] != tm.n_in:
        raise ValueError(f"inflow trace of shape {uhat_in.shape}, expected ({tm.n_in}, ...)")
    cols = uhat_in.reshape(tm.n_in, -1)
    rhs = np.zeros((ref.n_vol, cols.shape[1]))
    # corner nodes carry two inflow slots: accumulate
    np.add.at(rhs, tm.inflow_vol, -ref.inflow_coupling(hx, hy)[:, None] * cols)
    if f is not None:
        rhs += forcing_vector(f, p, grid, (hx, hy))[:, None]
    lu = local_solve(assemble_local(sigma, grid, kernel, (hx, hy)), element_index=element_index)
    return lu.solve(rhs).reshape((ref.n_vol,) + uhat_in.shape[1:])
