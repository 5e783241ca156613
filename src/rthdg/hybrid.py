"""Skeleton system: boundary projection, matrix-free GMRES solve, recovery.

The hybrid unknown lives on mesh faces; the global equations impose, on every
free trace DOF (interior faces plus outflow boundary), that the skeleton
value equals the outflow trace produced by the owning element:

    uhat_out - A_i2o uhat_in = fhat_u      (per element, on its outflow slots)

Inflow-boundary DOFs are fixed to the projected boundary data and eliminated;
the remaining linear system (I - A) u = b is solved with restarted GMRES
applying the per-element dense blocks matrix-free.

GMRES is right-preconditioned by one skeleton sweep (`SkeletonSweep`). Its
P = I - A_qq keeps only the couplings of A between an inflow and an outflow
angle of the same quadrant (the signs of cos and sin). An inflow slot of
angle a reads the outflow slot of angle a of an upwind neighbor, so with
each (element, quadrant) block numbered by its wavefront step kx + ky,
counted from the quadrant's inflow corner, P is block lower triangular with
identity diagonal blocks, and P^-1 r is one pass over the steps. The
reported residuals are those of the unpreconditioned system.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from .basis import lagrange_basis_at, lgl_quadrature
from .errors import SolverFailure
from .local import ElementOperators, element_solution
from .mesh import Mesh, SkeletonIndex, element_node_coords, wavefront_steps
from .pool import element_bounds, run_blocks

#: scipy allocates the (restart + 1) x n Krylov basis up front, and its
#: Gram-Schmidt step is a Python loop over the cycle so far: thick DG's
#: ~200 iterations ran faster in two cycles of 100 than in one of 200
GMRES_RESTART = 100
#: a restart cycle that lowers the residual by less than this fraction has
#: stalled: the next cycle rebuilds nearly the same Krylov space
GMRES_STALL_FRACTION = 1e-3


@dataclass
class SkeletonState:
    """Hybrid DOF vector plus the mask of Dirichlet-fixed (boundary inflow) DOFs."""

    values: np.ndarray
    dirichlet_mask: np.ndarray


@dataclass
class SolveInfo:
    """One GMRES solve: its iteration count and true relative residual history."""

    iterations: int
    residuals: list = field(default_factory=list)


def project_boundary(g, index: SkeletonIndex) -> SkeletonState:
    """Project boundary radiance onto the inflow-boundary hybrid DOFs.

    g(x, y, theta, normal) is sampled at face LGL nodes and angular-element
    midpoints (the collocation projection onto piecewise-constant angular
    elements); all other DOFs start at zero.
    """
    values = np.zeros(index.n_dofs)
    for dof, x, y, theta, normal in index.boundary_inflow_records():
        values[dof] = g(x, y, theta, normal)
    return SkeletonState(values=values, dirichlet_mask=index.dirichlet_mask.copy())


def _element_matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a[e] @ x[e] for every element e, shape (n_elems, rows).

    Contiguous element blocks run on the element worker pool once the
    product is large enough; each element's product is its own BLAS call,
    so every split gives the same bits.
    """
    y = np.empty(a.shape[:2])

    def block(lo, hi):
        np.matmul(a[lo:hi], x[lo:hi, :, None], out=y[lo:hi, :, None])

    run_blocks(block, element_bounds(a.shape[0], a.shape[1] * a.shape[2]))
    return y


class HybridSystem:
    """Affine skeleton operator over the elements' in2out blocks, read in place."""

    def __init__(self, index: SkeletonIndex, ops: ElementOperators):
        mesh = index.mesh
        if len(ops) != mesh.n_elems:
            raise ValueError(f"need the operators of every element "
                             f"({mesh.n_elems}), got {len(ops)}")
        self.index = index
        self.a_i2o = ops.a_i2o
        self.fhat = ops.fhat_u
        self.in_idx = index.elem_inflow
        self._precond = None
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
        y = _element_matvec(self.a_i2o, u[self.in_idx])
        r[self.out_free.reshape(-1)] -= y.reshape(-1)
        return r

    def rhs(self, bc: SkeletonState) -> np.ndarray:
        """Right-hand side from Dirichlet data and per-element forcing responses."""
        ug = np.zeros(self.index.n_dofs)
        fixed = self.index.dirichlet_mask
        ug[fixed] = bc.values[fixed]
        y = _element_matvec(self.a_i2o, ug[self.in_idx])
        y += self.fhat
        b = np.zeros(self.n_free)
        b[self.out_free.reshape(-1)] = y.reshape(-1)
        return b

    def preconditioner(self) -> "SkeletonSweep":
        """The sweep that applies P^-1 (cached)."""
        if self._precond is None:
            self._precond = SkeletonSweep(self)
        return self._precond


class SkeletonSweep:
    """Exact inverse of the same-quadrant part P = I - A_qq of a HybridSystem.

    blocks holds every element's four quadrant blocks of a_i2o, (m, m) with
    m = n_in / 4, ordered by wavefront step, then quadrant, then element, so
    that a step's blocks are contiguous.
    """

    def __init__(self, system: HybridSystem):
        index = system.index
        mesh, tm, n_el = index.mesh, index.tracemap, index.mesh.n_elems
        quadrant = (index.grid.midpoints // (0.5 * np.pi)).astype(int)
        in_slots = np.stack([np.flatnonzero(quadrant[tm.inflow_ang] == q) for q in range(4)])
        out_slots = np.stack([np.flatnonzero(quadrant[tm.outflow_ang] == q) for q in range(4)])
        m = in_slots.shape[1]

        mid = (np.arange(4) + 0.5) * 0.5 * np.pi
        step = wavefront_steps(mesh, np.cos(mid), np.sin(mid))  # (n_elems, 4)
        # block (e, q) has id e * 4 + q; sort by step, then quadrant, then element
        key = (step * 4 + np.arange(4)) * n_el + np.arange(n_el)[:, None]
        elem, quad = np.divmod(np.argsort(key, axis=None), 4)
        bounds = np.searchsorted(step[elem, quad], np.arange(mesh.nx + mesh.ny))
        in_free = index.free_index[index.elem_inflow]
        in_free[in_free < 0] = system.n_free  # Dirichlet slots read a fixed zero
        gather = in_free[elem[:, None], in_slots[quad]]
        scatter = system.out_free[elem[:, None], out_slots[quad]]
        self._n = system.n_free
        self._steps = [(lo, hi, gather[lo:hi], scatter[lo:hi].reshape(-1))
                       for lo, hi in zip(bounds[:-1], bounds[1:])]

        src = [_quadrant_blocks(system.a_i2o, out_slots[q], in_slots[q], tm.p)
               for q in range(4)]
        # the elements of one step and quadrant lie on a diagonal of the
        # mesh: a strided slice of the element axis
        first = np.flatnonzero(np.diff(step[elem, quad] * 4 + quad, prepend=-1))
        self.blocks = np.empty((elem.size, m, m))
        dst = self.blocks.reshape(elem.size, *src[0].shape[1:])
        for lo, hi in zip(first, np.append(first[1:], elem.size)):
            stride = elem[lo + 1] - elem[lo] if hi - lo > 1 else 1
            dst[lo:hi] = src[quad[lo]][elem[lo]:elem[hi - 1] + 1:stride]

    def solve(self, r: np.ndarray) -> np.ndarray:
        """P^-1 r: the blocks of one wavefront step read only earlier steps."""
        x = np.empty(self._n + 1)
        x[:-1] = r
        x[-1] = 0.0
        for lo, hi, gather, scatter in self._steps:
            y = np.matmul(self.blocks[lo:hi], x[gather][:, :, None])
            x[scatter] += y.reshape(-1)
        return x[:-1]


def _quadrant_blocks(a: np.ndarray, rows: np.ndarray, cols: np.ndarray, p: int) -> np.ndarray:
    """Read-only view of a[:, rows][:, :, cols], without a copy.

    rows and cols are one quadrant's slots: on each of its two faces, one
    contiguous half of every face node's slots, N_a / 4 angles. The view
    has shape (n_elems, 2, p+1, N_a/4, 2, p+1, N_a/4) over (face, node,
    angle) of the rows and of the columns.
    """
    def pattern(slots, stride):
        half = slots.size // (2 * (p + 1))
        face = slots[slots.size // 2] - slots[0]
        want = (slots[0] + np.array([0, face])[:, None, None]
                + 2 * half * np.arange(p + 1)[:, None] + np.arange(half)).reshape(-1)
        if not np.array_equal(slots, want):
            raise AssertionError("quadrant slots are not two face halves; trace map changed")
        return (2, p + 1, half), (face * stride, 2 * half * stride, stride)

    shape_r, strides_r = pattern(rows, a.strides[1])
    shape_c, strides_c = pattern(cols, a.strides[2])
    return np.lib.stride_tricks.as_strided(
        a[:, rows[0]:, cols[0]:], shape=(a.shape[0], *shape_r, *shape_c),
        strides=(a.strides[0], *strides_r, *strides_c), writeable=False)


def assemble_hybrid(index: SkeletonIndex, ops: ElementOperators) -> HybridSystem:
    return HybridSystem(index, ops)


def sweep_gmres(apply, sweep, b: np.ndarray, tol: float, restart: int, label: str):
    """Restarted GMRES from zero on apply(x) = b, right-preconditioned by a sweep.

    GMRES solves apply(P^-1 y) = b, with P^-1 = sweep.solve, and returns
    (x, SolveInfo) with x = P^-1 y. Right preconditioning leaves the
    residual that of the system itself, so the history holds the true
    ||b - apply(x)|| / ||b|| per iteration, which tol bounds. A zero b gives
    x = 0 after no iteration. The outer cycle cap is 10 * n / restart.
    Raises SolverFailure, carrying the history, at the first non-finite
    residual, when a full restart cycle lowers the residual by less than
    GMRES_STALL_FRACTION, or when the cap is reached.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if not np.any(b):
        return np.zeros(b.size), SolveInfo(iterations=0)
    residuals = []

    def _cb(pr_norm):
        residuals.append(float(pr_norm))
        k = len(residuals)
        if not np.isfinite(residuals[-1]):
            raise SolverFailure(f"{label} GMRES residual became {residuals[-1]} after "
                                f"{k} iterations", residuals=residuals)
        if k % restart == 0 and k > restart:
            before, now = residuals[-1 - restart], residuals[-1]
            if now > (1.0 - GMRES_STALL_FRACTION) * before:
                raise SolverFailure(
                    f"{label} GMRES stalled at residual {now:.5g} after {k} iterations "
                    f"(down {(before - now) / before:.1e} relative over the last "
                    f"{restart}; rtol={tol})", residuals=residuals)

    # dtype given, so that scipy does not probe it with one matvec of a zero vector
    op = scipy.sparse.linalg.LinearOperator(
        (b.size, b.size), matvec=lambda v: apply(sweep.solve(v)), dtype=float)
    maxiter = max(1, int(np.ceil(10 * b.size / restart)))
    y, code = scipy.sparse.linalg.gmres(
        op, b, rtol=tol, atol=0.0, restart=restart, maxiter=maxiter,
        callback=_cb, callback_type="pr_norm")
    if code != 0:
        raise SolverFailure(
            f"{label} GMRES did not reach rtol={tol} within {maxiter} cycles "
            f"(last residual {residuals[-1] if residuals else 'n/a'})",
            residuals=residuals)
    return sweep.solve(y), SolveInfo(iterations=len(residuals), residuals=residuals)


def solve_hybrid(system: HybridSystem, bc: SkeletonState, tol: float = 1e-4,
                 restart: int = GMRES_RESTART):
    """GMRES on the free hybrid DOFs; returns (SkeletonState, SolveInfo).

    Right-preconditioned by the system's SkeletonSweep through `sweep_gmres`,
    so the history is the true ||b - (I - A) x|| / ||b||.
    """
    x, info = sweep_gmres(system.linear_action, system.preconditioner(), system.rhs(bc),
                          tol, restart, "hybrid")
    full = bc.values.copy()
    full[~system.index.dirichlet_mask] = x
    return SkeletonState(values=full, dirichlet_mask=bc.dirichlet_mask), info


@dataclass
class ElementNodalField:
    """Element-wise nodal polynomial field (e.g. mean intensity) on a mesh."""

    mesh: Mesh
    p: int
    values: np.ndarray  # (n_elems, p+1, p+1) indexed [e, ix, iy]

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
    scale_in = np.where(np.isin(tm.inflow_face, (0, 1)), 0.5 * mesh.hy, 0.5 * mesh.hx)
    scale_out = np.where(np.isin(tm.outflow_face, (0, 1)), 0.5 * mesh.hy, 0.5 * mesh.hx)
    on_bdry_in = index.dirichlet_mask[index.elem_inflow]
    on_bdry_out = mesh.boundary_faces[mesh.elem_faces[:, tm.outflow_face]]
    influx = np.sum(-tm.inflow_flux * tm.inflow_wnode * scale_in
                    * uhat.values[index.elem_inflow], where=on_bdry_in)
    outflux = np.sum(tm.outflow_flux * tm.outflow_wnode * scale_out
                     * uhat.values[index.elem_outflow], where=on_bdry_out)
    return float(influx), float(outflux)


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


def recover_mean_intensity(uhat: SkeletonState, ops: ElementOperators,
                           index: SkeletonIndex) -> ElementNodalField:
    """Mean intensity m = A_i2m uhat_in + f_mean per element."""
    vals = _element_matvec(ops.a_i2m, uhat.values[index.elem_inflow])
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
    xs, ys = element_node_coords(ref.mesh, ref.p)
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
