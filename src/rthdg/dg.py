"""Monolithic upwind DG solver: the baseline method and the equivalence oracle.

The global system stacks the element balances (B - C + M - S) and replaces
the inflow face coupling by the upwind neighbor trace (interior faces) or the
prescribed inflow radiance (boundary faces, moved to the right-hand side).
B - C is the element-local module's cached `transport_base`, and volume and
face quadrature are identical to that module's, so DG and HDG discretize the
same algebraic problem.

The solver is left-preconditioned GMRES. The preconditioner P is A without
the scattering between different angles: it keeps advection, extinction,
each angle's own scattering and the upwind face coupling, and it equals A
when sigma_s = 0. The face coupling of angle a reaches only the downwind
neighbors' blocks of angle a, so with each (element, angle) block numbered
by its wavefront step kx + ky, counted from the angle's inflow corner, P is
block lower triangular. P^-1 r is therefore one exact upwind sweep: per
step, gather, subtract the upwind couplings, apply the inverted
(p+1)^2-blocks in one batched matmul, and scatter. No global factorization
is formed.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .angular import AngularGrid, PhaseKernel
from .basis import lgl_quadrature
from .errors import SolverFailure
from .hybrid import GMRES_RESTART, ElementNodalField, restarted_gmres
from .local import SigmaField, reference_kernels
from .mesh import Mesh

#: 1-norm condition number beyond which a sweep block counts as singular
_SINGULAR_COND = 1e14


@dataclass
class DgSystem:
    """Assembled DG residual r(u) = A u - b plus the pieces of the sweep preconditioner."""

    matrix: scipy.sparse.csr_matrix
    coupling: scipy.sparse.csr_matrix  # the upwind face couplings of matrix
    block_shift: np.ndarray  # (n_elems, N_a, (p+1)^2): M - S_aa on each block's diagonal
    b: np.ndarray
    mesh: Mesh
    grid: AngularGrid
    p: int
    _precond: object = field(default=None, repr=False)

    @property
    def n_dofs(self) -> int:
        return self.b.size

    def preconditioner(self) -> "UpwindSweep":
        """The sweep that applies P^-1 (cached)."""
        if self._precond is None:
            self._precond = UpwindSweep(self)
        return self._precond


class UpwindSweep:
    """Exact inverse of the angle-block part P of a DgSystem, as one sweep.

    L is the upwind face coupling (CSR); U holds the inverted (element,
    angle) blocks as a block-diagonal matrix in sweep order.
    """

    def __init__(self, system: DgSystem):
        mesh, na = system.mesh, system.grid.n_elems
        n_sp = (system.p + 1) ** 2
        # wavefront step of block (e, a), counted from angle a's inflow corner
        # (the sign rule of assemble_dg's face coupling)
        iy, ix = np.divmod(np.arange(mesh.n_elems), mesh.nx)
        kx = np.where(system.grid.cos_int > 0, ix[:, None], mesh.nx - 1 - ix[:, None])
        ky = np.where(system.grid.sin_int > 0, iy[:, None], mesh.ny - 1 - iy[:, None])
        step = (kx + ky).reshape(-1)  # block id e * N_a + a
        order = np.argsort(step, kind="stable")
        bounds = np.searchsorted(step[order], np.arange(mesh.nx + mesh.ny))
        elem, ang = np.divmod(order, na)

        inv = _invert_blocks(sweep_blocks(system, order), elem, ang)
        self.L = system.coupling
        self.U = scipy.sparse.bsr_matrix(
            (inv, np.arange(order.size), np.arange(order.size + 1)),
            shape=(system.n_dofs, system.n_dofs))
        rows = elem[:, None] * n_sp * na + np.arange(n_sp)[None, :] * na + ang[:, None]
        self._n_sp = n_sp
        self._steps = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            step_rows = rows[lo:hi].reshape(-1)
            self._steps.append((step_rows, self.L[step_rows], self.U.data[lo:hi]))

    def solve(self, r: np.ndarray) -> np.ndarray:
        """P^-1 r: blocks of one wavefront step depend only on the step before."""
        r = np.ravel(r)
        x = np.zeros(r.size)
        for rows, upwind, inv in self._steps:
            rhs = r[rows] - upwind @ x
            x[rows] = np.matmul(inv, rhs.reshape(-1, self._n_sp, 1)).reshape(-1)
        return x


def sweep_blocks(system: DgSystem, ids: np.ndarray) -> np.ndarray:
    """The diagonal blocks of P with ids e * N_a + a, shape (len(ids), n_sp, n_sp).

    Block (e, a) couples the DOFs e * n_vol + n * N_a + a over the nodes n:
    the angle-a block of B - C plus the extinction and self-scattering
    diagonal M - S_aa.
    """
    na = system.grid.n_elems
    n_sp = (system.p + 1) ** 2
    base = reference_kernels(system.p, system.grid).transport_base(
        system.mesh.hx, system.mesh.hy)
    # B - C couples no two angles: its block of angle a is base[n*na + a, m*na + a]
    base_blocks = np.einsum("iaja->aij", base.reshape(n_sp, na, n_sp, na))
    elem, ang = np.divmod(ids, na)
    blocks = base_blocks[ang]
    np.einsum("kii->ki", blocks)[...] += system.block_shift[elem, ang]
    return blocks


def _invert_blocks(blocks: np.ndarray, elem: np.ndarray, ang: np.ndarray) -> np.ndarray:
    """Inverses of a stack of sweep blocks; SolverFailure names a singular one."""
    try:
        inv = np.linalg.inv(blocks)
        cond = (np.abs(blocks).sum(axis=1).max(axis=1)
                * np.abs(inv).sum(axis=1).max(axis=1))
        bad = np.flatnonzero(~(cond < _SINGULAR_COND))
    except np.linalg.LinAlgError:  # an exactly zero pivot: its block has det 0
        bad = [int(np.argmin(np.abs(np.linalg.det(blocks))))]
    if len(bad):
        k = bad[0]
        raise SolverFailure(f"singular DG sweep block on element {elem[k]}, angle {ang[k]}")
    return inv


@dataclass
class DgSolveInfo:
    iterations: int
    residuals: list = field(default_factory=list)


def assemble_dg(mesh: Mesh, grid: AngularGrid, kernel: PhaseKernel,
                sigma_fields, p: int, f=None, g=None) -> DgSystem:
    """Assemble the monolithic system for per-element coefficients sigma_fields.

    f is an optional per-element list of nodal forcing arrays; g an optional
    boundary radiance callable g(x, y, theta, normal).
    """
    if len(sigma_fields) != mesh.n_elems:
        raise ValueError(f"need one SigmaField per element ({mesh.n_elems}), "
                         f"got {len(sigma_fields)}")
    ref = reference_kernels(p, grid)
    na = grid.n_elems
    n1 = p + 1
    n_sp = n1 * n1
    n_vol = ref.n_vol
    n_dofs = mesh.n_elems * n_vol
    hx, hy = mesh.hx, mesh.hy
    half_x, half_y = 0.5 * hx, 0.5 * hy
    vol_scale = half_x * half_y
    q = lgl_quadrature(p)

    # sigma-independent per-element pattern of B - C
    base = ref.transport_base(hx, hy)
    t_rows, t_cols = np.nonzero(base)
    t_vals = base[t_rows, t_cols]
    # scattering block pattern: rows (n, a), cols (n, a') for every node n
    n_idx = np.repeat(np.arange(n_sp), na * na)
    aa = np.tile(np.repeat(np.arange(na), na), n_sp)
    bb = np.tile(np.arange(na), n_sp * na)
    s_rows = n_idx * na + aa
    s_cols = n_idx * na + bb
    s_pvals = np.tile(kernel.kernel.reshape(-1), n_sp)
    k_diag = np.diag(kernel.kernel)

    rows, cols, vals = [], [], []  # element balances
    f_rows, f_cols, f_vals = [np.empty(0, int)], [np.empty(0, int)], [np.empty(0)]
    block_shift = np.empty((mesh.n_elems, na, n_sp))
    b_vec = np.zeros(n_dofs)

    def put(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    all_vol = np.arange(n_vol)
    for e in range(mesh.n_elems):
        off = e * n_vol
        sig = sigma_fields[e]
        if not isinstance(sig, SigmaField):
            raise ValueError(f"element {e}: expected SigmaField, got {type(sig)!r}")
        se = sig.sigma_e.reshape(n_sp)
        ss = sig.sigma_s.reshape(n_sp)
        m_diag = vol_scale * np.outer(ref.w2 * se, grid.widths)
        s_coef = vol_scale * ref.w2 * ss
        block_shift[e] = (m_diag - np.outer(s_coef, k_diag)).T
        put(off + t_rows, off + t_cols, t_vals)
        put(off + all_vol, off + all_vol, m_diag.reshape(-1))
        put(off + s_rows, off + s_cols, -(s_coef[n_idx] * s_pvals))
        if f is not None and f[e] is not None:
            fe = np.asarray(f[e], float)
            b_vec[off:off + n_vol] += vol_scale * np.outer(
                ref.w2 * fe.reshape(n_sp), grid.widths).reshape(-1)

    # upwind face couplings (+ boundary inflow data on the right-hand side)
    flux_x = grid.cos_int
    flux_y = grid.sin_int
    mids = grid.midpoints
    # volume nodes touching each local face, ordered along the face
    nodes_left = np.arange(n1)
    nodes_right = p * n1 + np.arange(n1)
    nodes_bottom = np.arange(n1) * n1
    nodes_top = np.arange(n1) * n1 + p
    for fid in range(mesh.n_faces):
        axis = mesh.face_axis[fid]
        eminus, eplus = int(mesh.face_minus[fid]), int(mesh.face_plus[fid])
        half_t = half_y if axis == 0 else half_x
        flux = flux_x if axis == 0 else flux_y
        dn_nodes, up_nodes = (nodes_left, nodes_right) if axis == 0 else (nodes_bottom, nodes_top)
        for a in range(na):
            if flux[a] > 0:
                down, up = eplus, eminus
                down_nodes, upwind_nodes = dn_nodes, up_nodes
                sn = -flux[a]  # s . n on the downwind element's face
            else:
                down, up = eminus, eplus
                down_nodes, upwind_nodes = up_nodes, dn_nodes
                sn = flux[a]
            if down < 0:
                continue  # outflow through the domain boundary: no coupling
            vals_fa = half_t * q.weights * sn
            r = down * n_vol + down_nodes * na + a
            if up >= 0:
                f_rows.append(r)
                f_cols.append(up * n_vol + upwind_nodes * na + a)
                f_vals.append(vals_fa)
            elif g is not None:
                fixed_coord, span_start = mesh.face_span(fid)
                h_span = hy if axis == 0 else hx
                coords = span_start + 0.5 * h_span * (q.nodes + 1.0)
                normal = ((1.0, 0.0) if flux[a] > 0 else (-1.0, 0.0)) if axis == 0 \
                    else ((0.0, 1.0) if flux[a] > 0 else (0.0, -1.0))
                normal = (-normal[0], -normal[1])  # outward normal of the downwind element
                for j in range(n1):
                    x, y = (fixed_coord, coords[j]) if axis == 0 else (coords[j], fixed_coord)
                    b_vec[r[j]] -= vals_fa[j] * g(x, y, mids[a], normal)

    def build(rr, cc, vv):
        coo = scipy.sparse.coo_matrix(
            (np.concatenate(vv), (np.concatenate(rr), np.concatenate(cc))),
            shape=(n_dofs, n_dofs))
        return coo.tocsr()

    return DgSystem(matrix=build(rows + f_rows, cols + f_cols, vals + f_vals),
                    coupling=build(f_rows, f_cols, f_vals),
                    block_shift=block_shift, b=b_vec, mesh=mesh, grid=grid, p=p)


def solve_dg(system: DgSystem, tol: float = 1e-4, restart: int = GMRES_RESTART):
    """Left-preconditioned GMRES on the monolithic system (see `restarted_gmres`)."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if not np.any(system.b):
        return np.zeros(system.n_dofs), DgSolveInfo(iterations=0)
    sweep = system.preconditioner()
    mop = scipy.sparse.linalg.LinearOperator(
        (system.n_dofs, system.n_dofs), matvec=sweep.solve)
    x, residuals = restarted_gmres(system.matrix, system.b, tol, restart, "DG", M=mop)
    return x, DgSolveInfo(iterations=len(residuals), residuals=residuals)


def dg_mean_intensity(u: np.ndarray, mesh: Mesh, grid: AngularGrid, p: int) -> ElementNodalField:
    """Angular average of the DG solution as an element nodal field."""
    n1 = p + 1
    n_sp = n1 * n1
    vals = u.reshape(mesh.n_elems, n_sp, grid.n_elems) @ grid.mean_weights
    return ElementNodalField(mesh=mesh, p=p, values=vals.reshape(mesh.n_elems, n1, n1))


def overrefined_reference(cfg, l_ref=None, tol=None):
    """Reference mean intensity on the case's overrefined mesh (tight GMRES).

    Defaults come from the case config (ref_level, ref_tol); a level
    override is recorded in the returned metadata.
    """
    from .bench import compute_reference  # local import; bench builds problems
    return compute_reference(cfg, l_ref=l_ref, tol=tol)
