"""Skeleton system: boundary projection, matrix-free GMRES solve, recovery.

The hybrid unknown lives on mesh faces; the global equations impose, on every
free trace DOF (interior faces plus outflow boundary), that the skeleton
value equals the outflow trace produced by the owning element:

    uhat_out - A_i2o uhat_in = fhat_u      (per element, on its outflow slots)

Inflow-boundary DOFs are fixed to the projected boundary data and eliminated;
the remaining linear system is solved with restarted GMRES applying the
per-element dense blocks matrix-free.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from .basis import lagrange_basis_at, lgl_quadrature
from .errors import SolverFailure
from .local import ElementOperators, element_solution
from .mesh import Mesh, SkeletonIndex
from .pool import element_bounds, run_blocks

GMRES_RESTART = 200
#: a restart cycle that lowers the residual by less than this fraction has
#: stalled: the next cycle rebuilds nearly the same Krylov space
GMRES_STALL_FRACTION = 1e-3


@dataclass
class SkeletonState:
    """Hybrid DOF vector plus the mask of Dirichlet-fixed (boundary inflow) DOFs."""

    values: np.ndarray
    dirichlet_mask: np.ndarray


@dataclass
class HybridSolveInfo:
    iterations: int
    residuals: list = field(default_factory=list)


def project_boundary(g, index: SkeletonIndex) -> SkeletonState:
    """Project boundary radiance onto the inflow-boundary hybrid DOFs.

    g(x, y, theta, normal) is sampled at face LGL nodes and angular-element
    midpoints (the collocation projection onto piecewise-constant angular
    elements); all other DOFs start
    at zero.
    """
    values = np.zeros(index.n_dofs)
    for dof, x, y, theta, normal in index.boundary_inflow_records():
        values[dof] = g(x, y, theta, normal)
    return SkeletonState(values=values, dirichlet_mask=index.dirichlet_mask.copy())


def _element_matvec(a: np.ndarray, x: np.ndarray, workers: int | None) -> np.ndarray:
    """a[e] @ x[e] for every element e, shape (n_elems, rows).

    Contiguous element blocks run on `workers` threads (None:
    `pool.default_workers()`) once the product is large enough; each
    element's product is its own BLAS call, so every split gives the same bits.
    """
    y = np.empty(a.shape[:2])

    def block(lo, hi):
        np.matmul(a[lo:hi], x[lo:hi, :, None], out=y[lo:hi, :, None])

    run_blocks(block, element_bounds(a.shape[0], a.shape[1] * a.shape[2], workers), workers)
    return y


class HybridSystem:
    """Affine skeleton operator over the elements' in2out blocks.

    ops is an ElementOperators, whose stacks are read in place, or a
    sequence of LocalOperators, stacked once here.
    """

    def __init__(self, index: SkeletonIndex, ops, workers: int | None = None):
        mesh = index.mesh
        ops = ElementOperators.of(ops)
        if len(ops) != mesh.n_elems:
            raise ValueError(f"need one LocalOperators per element "
                             f"({mesh.n_elems}), got {len(ops)}")
        self.index = index
        self.workers = workers
        self.a_i2o = ops.a_i2o
        self.fhat = ops.fhat_u
        self.in_idx = index.elem_inflow
        # every free DOF is the outflow slot of exactly one element
        self.out_free = index.free_index[index.elem_outflow]
        if np.any(self.out_free < 0):
            raise AssertionError("outflow slot marked Dirichlet; numbering inconsistent")

    @property
    def n_free(self) -> int:
        return self.index.n_free

    def linear_action(self, v_free: np.ndarray) -> np.ndarray:
        """Linear part of the consistency residual on free DOFs."""
        v_free = np.asarray(v_free, dtype=float)
        u = np.zeros(self.index.n_dofs)
        u[~self.index.dirichlet_mask] = v_free
        r = v_free.copy()
        y = _element_matvec(self.a_i2o, u[self.in_idx], self.workers)
        r[self.out_free.reshape(-1)] -= y.reshape(-1)
        return r

    def rhs(self, bc: SkeletonState) -> np.ndarray:
        """Right-hand side from Dirichlet data and per-element forcing responses."""
        ug = np.zeros(self.index.n_dofs)
        fixed = self.index.dirichlet_mask
        ug[fixed] = bc.values[fixed]
        y = _element_matvec(self.a_i2o, ug[self.in_idx], self.workers)
        y += self.fhat
        b = np.zeros(self.n_free)
        b[self.out_free.reshape(-1)] = y.reshape(-1)
        return b


def assemble_hybrid(index: SkeletonIndex, ops, workers: int | None = None) -> HybridSystem:
    return HybridSystem(index, ops, workers=workers)


def restarted_gmres(matrix, b: np.ndarray, tol: float, restart: int, label: str, M=None):
    """Restarted GMRES from zero with right-hand-side-relative stopping.

    Returns (x, residual history). The outer cycle cap is 10 * n / restart.
    Raises SolverFailure, carrying the history, when a full restart cycle
    lowers the residual by less than GMRES_STALL_FRACTION or when the cap
    is reached.
    """
    residuals = []

    def _cb(pr_norm):
        residuals.append(float(pr_norm))
        k = len(residuals)
        if k % restart == 0 and k > restart:
            before, now = residuals[-1 - restart], residuals[-1]
            if now > (1.0 - GMRES_STALL_FRACTION) * before:
                raise SolverFailure(
                    f"{label} GMRES stalled at residual {now:.5g} after {k} iterations "
                    f"(down {(before - now) / before:.1e} relative over the last "
                    f"{restart}; rtol={tol})", residuals=residuals)

    maxiter = max(1, int(np.ceil(10 * b.size / restart)))
    x, code = scipy.sparse.linalg.gmres(
        matrix, b, rtol=tol, atol=0.0, restart=restart, maxiter=maxiter, M=M,
        callback=_cb, callback_type="pr_norm")
    if code != 0:
        raise SolverFailure(
            f"{label} GMRES did not reach rtol={tol} within {maxiter} cycles "
            f"(last residual {residuals[-1] if residuals else 'n/a'})",
            residuals=residuals)
    return x, residuals


def solve_hybrid(system: HybridSystem, bc: SkeletonState, tol: float = 1e-4,
                 restart: int = GMRES_RESTART):
    """GMRES on the free hybrid DOFs; returns (SkeletonState, HybridSolveInfo).

    Right-hand-side-relative stopping, restarted at `restart`, no
    preconditioner; stalls and the cycle cap raise (see `restarted_gmres`).
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    b = system.rhs(bc)
    full = bc.values.copy()
    if not np.any(b):
        full[~system.index.dirichlet_mask] = 0.0
        return (SkeletonState(values=full, dirichlet_mask=bc.dirichlet_mask),
                HybridSolveInfo(iterations=0))
    op = scipy.sparse.linalg.LinearOperator(
        (system.n_free, system.n_free), matvec=system.linear_action)
    x, residuals = restarted_gmres(op, b, tol, restart, "hybrid")
    full[~system.index.dirichlet_mask] = x
    return (SkeletonState(values=full, dirichlet_mask=bc.dirichlet_mask),
            HybridSolveInfo(iterations=len(residuals), residuals=residuals))


@dataclass
class ElementNodalField:
    """Element-wise nodal polynomial field (e.g. mean intensity) on a mesh."""

    mesh: Mesh
    p: int
    values: np.ndarray  # (n_elems, p+1, p+1) indexed [e, ix, iy]

    def node_coords(self):
        """Physical LGL node coordinates, shapes (n_elems, p+1) per axis."""
        q = lgl_quadrature(self.p)
        mesh = self.mesh
        xs = np.empty((mesh.n_elems, self.p + 1))
        ys = np.empty((mesh.n_elems, self.p + 1))
        for e in range(mesh.n_elems):
            x0, y0 = mesh.elem_origin(e)
            xs[e] = x0 + 0.5 * mesh.hx * (q.nodes + 1.0)
            ys[e] = y0 + 0.5 * mesh.hy * (q.nodes + 1.0)
        return xs, ys

    def eval_grid(self, xs: np.ndarray, ys: np.ndarray, toward=None) -> np.ndarray:
        """Evaluate at the tensor grid xs x ys (points anywhere in the domain).

        The field is discontinuous across element boundaries; a point that
        falls on one is resolved toward the optional (cx, cy) hint (nudging
        only the element lookup, not the evaluation point), else toward +.
        """
        mesh, p = self.mesh, self.p
        q = lgl_quadrature(p)
        if toward is None:
            xl, yl = xs, ys
        else:
            cx, cy = toward
            xl = xs + 1e-9 * (cx - xs)
            yl = ys + 1e-9 * (cy - ys)
        ex = np.clip((xl / mesh.hx).astype(int), 0, mesh.nx - 1)
        ey = np.clip((yl / mesh.hy).astype(int), 0, mesh.ny - 1)
        xhat = 2.0 * (xs - ex * mesh.hx) / mesh.hx - 1.0
        yhat = 2.0 * (ys - ey * mesh.hy) / mesh.hy - 1.0
        phix = lagrange_basis_at(q, xhat)  # (len(xs), p+1)
        phiy = lagrange_basis_at(q, yhat)
        out = np.empty((xs.size, ys.size))
        for gx in np.unique(ex):
            mask_x = ex == gx
            for gy in np.unique(ey):
                mask_y = ey == gy
                coef = self.values[gy * mesh.nx + gx]
                out[np.ix_(mask_x, mask_y)] = phix[mask_x] @ coef @ phiy[mask_y].T
        return out


def boundary_fluxes(uhat: SkeletonState, index: SkeletonIndex):
    """(inflow, outflow) radiative flux through the domain boundary.

    Fluxes are the |s . n|-weighted face integrals of the skeleton values;
    with pure scattering (albedo 1) and zero forcing they balance to within
    the solver tolerance.
    """
    mesh, tm = index.mesh, index.tracemap
    influx = 0.0
    outflux = 0.0
    vert_in = np.isin(tm.inflow_face, (0, 1))
    vert_out = np.isin(tm.outflow_face, (0, 1))
    scale_in = np.where(vert_in, 0.5 * mesh.hy, 0.5 * mesh.hx)
    scale_out = np.where(vert_out, 0.5 * mesh.hy, 0.5 * mesh.hx)
    for e in range(mesh.n_elems):
        on_bdry_in = index.dirichlet_mask[index.elem_inflow[e]]
        faces = mesh.elem_faces[e]
        bdry_face = mesh.boundary_faces[faces]
        on_bdry_out = bdry_face[tm.outflow_face]
        vin = uhat.values[index.elem_inflow[e]]
        vout = uhat.values[index.elem_outflow[e]]
        influx += np.sum((-tm.inflow_flux * tm.inflow_wnode * scale_in
                          * vin)[on_bdry_in])
        outflux += np.sum((tm.outflow_flux * tm.outflow_wnode * scale_out
                           * vout)[on_bdry_out])
    return influx, outflux


def recover_solution(uhat: SkeletonState, index: SkeletonIndex, sigma_fields, kernel,
                     f=None) -> np.ndarray:
    """Full interior solutions, shape (n_elems, n_vol), re-solved per element.

    Each element's local balance is solved again with its inflow trace from
    uhat (and its forcing f[e], if given), through the same kernel that
    built its operators; nothing is retained from the operator phase.
    """
    mesh = index.mesh
    h = (mesh.hx, mesh.hy)
    return np.stack([element_solution(sigma_fields[e], index.grid, kernel, h,
                                      uhat.values[index.elem_inflow[e]],
                                      f=None if f is None else f[e], element_index=e)
                     for e in range(mesh.n_elems)])


def recover_mean_intensity(uhat: SkeletonState, ops, index: SkeletonIndex,
                           workers: int | None = None) -> ElementNodalField:
    """Mean intensity m = A_i2m uhat_in + f_mean per element (ops as for HybridSystem)."""
    ops = ElementOperators.of(ops)
    vals = _element_matvec(ops.a_i2m, uhat.values[index.elem_inflow], workers)
    vals += ops.f_mean
    p = index.p
    return ElementNodalField(mesh=index.mesh, p=p,
                             values=vals.reshape(index.mesh.n_elems, p + 1, p + 1))


def relative_l2_error(fld: ElementNodalField, ref: ElementNodalField) -> float:
    """|| fld - ref ||_L2 / || ref ||_L2 by LGL quadrature on the reference mesh.

    The (coarser) field is evaluated at the reference mesh's quadrature
    points through its polynomial representation; the meshes need not nest.
    """
    if abs(fld.mesh.lx - ref.mesh.lx) > 1e-12 or abs(fld.mesh.ly - ref.mesh.ly) > 1e-12:
        raise ValueError("fields live on different domains")
    q = lgl_quadrature(ref.p)
    w2 = np.outer(q.weights, q.weights)
    cell = 0.25 * ref.mesh.hx * ref.mesh.hy
    xs, ys = ref.node_coords()
    num = 0.0
    den = 0.0
    for e in range(ref.mesh.n_elems):
        x0, y0 = ref.mesh.elem_origin(e)
        center = (x0 + 0.5 * ref.mesh.hx, y0 + 0.5 * ref.mesh.hy)
        fe = fld.eval_grid(xs[e], ys[e], toward=center)
        re = ref.values[e]
        num += cell * np.sum(w2 * (fe - re) ** 2)
        den += cell * np.sum(w2 * re ** 2)
    if den == 0.0:
        raise ValueError("reference field has zero L2 norm")
    return float(np.sqrt(num / den))
