"""Monolithic upwind DG solver: the baseline method and the equivalence oracle.

The global system stacks the element balances (B - C + M - S) and replaces
the inflow face coupling by the upwind neighbor trace (interior faces) or the
prescribed inflow radiance (boundary faces, moved to the right-hand side).
Volume and face quadrature are identical to the element-local module, so DG
and HDG discretize the same algebraic problem.

The solver is left-preconditioned GMRES; the preconditioner is a sparse
direct factorization of the advection-extinction subsystem (the system with
the scattering block dropped), which is exact when sigma_s = 0.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .angular import AngularGrid, PhaseKernel
from .basis import lgl_quadrature
from .hybrid import GMRES_RESTART, ElementNodalField, restarted_gmres
from .local import SigmaField, reference_kernels
from .mesh import Mesh


@dataclass
class DgSystem:
    """Assembled DG residual r(u) = A u - b plus the transport preconditioner."""

    matrix: scipy.sparse.csr_matrix
    transport: scipy.sparse.csr_matrix  # scattering dropped
    b: np.ndarray
    mesh: Mesh
    grid: AngularGrid
    p: int
    _precond: object = field(default=None, repr=False)

    @property
    def n_dofs(self) -> int:
        return self.b.size

    def preconditioner(self):
        """Sparse LU of the advection-extinction subsystem (cached)."""
        if self._precond is None:
            self._precond = scipy.sparse.linalg.splu(self.transport.tocsc())
        return self._precond


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

    # sigma-independent per-element patterns
    diag_base = half_y * ref.b_diag_vert + half_x * ref.b_diag_horz
    c_dense = half_y * ref.cx_vol + half_x * ref.cy_vol
    c_rows, c_cols = np.nonzero(c_dense)
    c_vals = c_dense[c_rows, c_cols]
    # scattering block pattern: rows (n, a), cols (n, a') for every node n
    n_idx = np.repeat(np.arange(n_sp), na * na)
    aa = np.tile(np.repeat(np.arange(na), na), n_sp)
    bb = np.tile(np.arange(na), n_sp * na)
    s_rows = n_idx * na + aa
    s_cols = n_idx * na + bb
    s_pvals = np.tile(kernel.kernel.reshape(-1), n_sp)

    rows, cols, vals = [], [], []
    rows_t, cols_t, vals_t = [], [], []  # transport-only copy
    b_vec = np.zeros(n_dofs)

    def put(r, c, v, transport=True):
        rows.append(r)
        cols.append(c)
        vals.append(v)
        if transport:
            rows_t.append(r)
            cols_t.append(c)
            vals_t.append(v)

    all_vol = np.arange(n_vol)
    for e in range(mesh.n_elems):
        off = e * n_vol
        sig = sigma_fields[e]
        if not isinstance(sig, SigmaField):
            raise ValueError(f"element {e}: expected SigmaField, got {type(sig)!r}")
        se = sig.sigma_e.reshape(n_sp)
        ss = sig.sigma_s.reshape(n_sp)
        m_diag = vol_scale * np.outer(ref.w2 * se, grid.widths).reshape(-1)
        put(off + all_vol, off + all_vol, diag_base + m_diag)
        put(off + c_rows, off + c_cols, -c_vals)
        s_coef = vol_scale * ref.w2 * ss
        put(off + s_rows, off + s_cols, -(s_coef[n_idx] * s_pvals), transport=False)
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
                put(r, up * n_vol + upwind_nodes * na + a, vals_fa)
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

    return DgSystem(matrix=build(rows, cols, vals),
                    transport=build(rows_t, cols_t, vals_t),
                    b=b_vec, mesh=mesh, grid=grid, p=p)


def solve_dg(system: DgSystem, tol: float = 1e-4, restart: int = GMRES_RESTART):
    """Left-preconditioned GMRES on the monolithic system (see `restarted_gmres`)."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if not np.any(system.b):
        return np.zeros(system.n_dofs), DgSolveInfo(iterations=0)
    lu = system.preconditioner()
    mop = scipy.sparse.linalg.LinearOperator(
        (system.n_dofs, system.n_dofs), matvec=lu.solve)
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
