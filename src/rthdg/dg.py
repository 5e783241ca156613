"""Monolithic upwind DG solver: the baseline method and the equivalence oracle.

The global system stacks the element balances B - C + M - S and couples each
inflow trace slot to the volume DOF of the upwind element that produces that
trace (interior faces) or to the prescribed inflow radiance (boundary faces,
moved to the right-hand side). Every term comes from the element-local and
skeleton modules: B - C is `local`'s cached `transport_base`, with M and S
from `local.extinction_scattering` added on one sparsity pattern shared by
every element; the face coupling values are `local`'s inflow coupling Bhat,
placed through the trace map and `mesh.skeleton_numbering` (a trace DOF on
an interior face is an outflow slot of exactly one element, the upwind
one); the boundary data is `hybrid.project_boundary`; the forcing is
`local.forcing_vector`. DG and HDG therefore discretize the same algebraic
problem and differ only in how they solve it.

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
from .errors import SolverFailure
from .hybrid import GMRES_RESTART, ElementNodalField, project_boundary, restarted_gmres
from .local import SigmaField, extinction_scattering, forcing_vector, reference_kernels
from .mesh import Mesh, skeleton_numbering, wavefront_steps
from .pool import element_bounds, run_blocks

#: 1-norm condition number beyond which a sweep block counts as singular
_SINGULAR_COND = 1e14
#: inversion work (blocks x n_sp^3) below which the sweep blocks are inverted
#: in one call on the calling thread. Slices inverted on worker threads leave
#: their inverses' memory in those threads' heaps: at desk level 4 (1,728
#: blocks of 16 x 16) a split raised DG's peak RSS by 3.4 MB. At paper level 1
#: (1,512 blocks of 49 x 49) two threads halve the inversion time.
_SPLIT_INVERT_WORK = 1 << 25


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
        # wavefront step of block id e * N_a + a, from angle a's inflow corner
        step = wavefront_steps(mesh, system.grid.cos_int, system.grid.sin_int).reshape(-1)
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
    """Inverses of a stack of sweep blocks; SolverFailure names a singular one.

    A large stack is inverted in contiguous slices on the element worker pool;
    each block is its own LAPACK solve, so every split gives the same bits.
    """
    def invert(lo, hi):
        try:
            inv = np.linalg.inv(blocks[lo:hi])
        except np.linalg.LinAlgError:  # an exactly zero pivot: its block has det 0
            return None
        return inv, (np.abs(blocks[lo:hi]).sum(axis=1).max(axis=1)
                     * np.abs(inv).sum(axis=1).max(axis=1))

    bounds = element_bounds(len(blocks), blocks.shape[1] ** 3, min_work=_SPLIT_INVERT_WORK)
    parts = run_blocks(invert, bounds)
    if any(part is None for part in parts):
        bad = [int(np.argmin(np.abs(np.linalg.det(blocks))))]
    else:
        inv, cond = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        bad = np.flatnonzero(~(cond < _SINGULAR_COND))
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
    for e, sig in enumerate(sigma_fields):
        if not isinstance(sig, SigmaField):
            raise ValueError(f"element {e}: expected SigmaField, got {type(sig)!r}")
    ref = reference_kernels(p, grid)
    tm = ref.tracemap
    index = skeleton_numbering(mesh, grid, p)
    na, n_vol, n_el = grid.n_elems, ref.n_vol, mesh.n_elems
    n_sp = (p + 1) ** 2
    n_dofs = n_el * n_vol
    h = (mesh.hx, mesh.hy)
    offsets = np.arange(n_el) * n_vol

    # element balances B - C + M - S: one pattern for every element, the
    # nonzeros of B - C plus every same-node angle pair (n, a), (n, a')
    base = ref.transport_base(*h)
    rows, cols = np.nonzero((base != 0) | np.kron(np.eye(n_sp, dtype=bool),
                                                  np.ones((na, na), dtype=bool)))
    node, ang = np.divmod(rows, na)
    pair = np.flatnonzero(node == cols // na)
    diag = np.flatnonzero(rows == cols)  # one per row, in row order
    m_diag, s_coef = extinction_scattering(np.stack([sig.sigma_e for sig in sigma_fields]),
                                           np.stack([sig.sigma_s for sig in sigma_fields]),
                                           grid, h)
    vals = np.repeat(base[rows, cols][None, :], n_el, axis=0)
    vals[:, diag] += m_diag.reshape(n_el, n_vol)
    vals[:, pair] -= s_coef[:, node[pair]] * kernel.kernel[ang[pair], cols[pair] % na]
    block_shift = (m_diag - s_coef[:, :, None] * np.diag(kernel.kernel)).transpose(0, 2, 1)
    # element e's entries follow element e - 1's, rows.size further on
    ptr = _row_pointer(rows, n_vol)
    balances = scipy.sparse.csr_matrix(
        (vals.reshape(-1), (offsets[:, None] + cols).reshape(-1),
         np.append((ptr[:-1] + rows.size * np.arange(n_el)[:, None]).reshape(-1),
                   n_el * rows.size)),
        shape=(n_dofs, n_dofs))

    # upwind face coupling: inflow slot k of element e reads the volume DOF
    # that owns its trace as an outflow slot (-1 for inflow boundary data)
    owner = np.full(index.n_dofs, -1)
    owner[index.elem_outflow] = offsets[:, None] + tm.outflow_vol
    by_row = np.argsort(tm.inflow_vol, kind="stable")  # each element's rows ascend
    in_rows = offsets[:, None] + tm.inflow_vol[by_row]
    upwind = owner[index.elem_inflow[:, by_row]]
    bhat = np.broadcast_to(ref.inflow_coupling(*h)[by_row], upwind.shape)
    inner = upwind >= 0
    coupling = scipy.sparse.csr_matrix(
        (bhat[inner], upwind[inner], _row_pointer(in_rows[inner], n_dofs)),
        shape=(n_dofs, n_dofs))
    coupling.sort_indices()  # a corner row reads two upwind elements

    b_vec = np.zeros(n_dofs)
    if f is not None:
        for e in range(n_el):
            if f[e] is not None:
                b_vec[offsets[e]:offsets[e] + n_vol] += forcing_vector(f[e], p, grid, h)
    if g is not None:
        g_in = project_boundary(g, index).values[index.elem_inflow[:, by_row]]
        np.add.at(b_vec, in_rows[~inner], -(bhat * g_in)[~inner])  # corners: two slots

    return DgSystem(matrix=balances + coupling, coupling=coupling,
                    block_shift=block_shift, b=b_vec, mesh=mesh, grid=grid, p=p)


def _row_pointer(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """CSR indptr of entries listed in ascending row order."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))


def solve_dg(system: DgSystem, tol: float = 1e-4, restart: int = GMRES_RESTART):
    """Left-preconditioned GMRES on the monolithic system (see `restarted_gmres`).

    DgSolveInfo.residuals holds ||P^-1 (b - A u)|| / ||b||, the
    left-preconditioned residual, not the true ||b - A u|| / ||b|| that tol
    bounds; a converged solve's last entry can stay above tol (1.2e-2 on
    perfbench `learn` at tol 1e-4, with a true residual of 8.6e-5).
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if not np.any(system.b):
        return np.zeros(system.n_dofs), DgSolveInfo(iterations=0)
    sweep = system.preconditioner()
    # dtype given, so that scipy does not probe it with one sweep of a zero vector
    mop = scipy.sparse.linalg.LinearOperator(
        (system.n_dofs, system.n_dofs), matvec=sweep.solve, dtype=float)
    x, residuals = restarted_gmres(system.matrix, system.b, tol, restart, "DG", M=mop)
    return x, DgSolveInfo(iterations=len(residuals), residuals=residuals)


def dg_mean_intensity(u: np.ndarray, mesh: Mesh, grid: AngularGrid, p: int) -> ElementNodalField:
    """Angular average of the DG solution as an element nodal field."""
    n1 = p + 1
    n_sp = n1 * n1
    vals = u.reshape(mesh.n_elems, n_sp, grid.n_elems) @ grid.mean_weights
    return ElementNodalField(mesh=mesh, p=p, values=vals.reshape(mesh.n_elems, n1, n1))
