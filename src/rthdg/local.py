"""Element-local solver: balance assembly, inflow solves, operator extraction.

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

The balance matrix A = B - C + M - S is written into one array per element:
the sigma-independent part B - C is cached per element size, the extinction
mass is added on the diagonal, and the node-wise scattering blocks are
subtracted through a view of the diagonal blocks. Bhat has one nonzero per
column, so the inflow right-hand sides are scaled unit vectors. One LU
factorization serves them all; only the outflow-trace rows and the angular
averages of the responses are kept, as the inflow-to-outflow and
inflow-to-mean operators that drive the global solve. The full interior
solution for a given inflow trace is a re-solve on request
(`element_solution`).
"""

import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .angular import AngularGrid, PhaseKernel
from .basis import differentiation_matrix, lgl_quadrature
from .errors import SolverFailure
from .mesh import FACE_LEFT, FACE_RIGHT, ElementTraceMap, element_trace_map

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
    """sigma-independent assembly pieces for one (p, grid), unscaled."""

    def __init__(self, p: int, grid: AngularGrid):
        q = lgl_quadrature(p)
        d = differentiation_matrix(q)
        w = q.weights
        w1 = np.diag(w)
        adv1 = (w1 @ d).T  # adv1[i, j] = w_j * D[j, i]
        self.cx_vol = np.kron(np.kron(adv1, w1), np.diag(grid.cos_int))
        self.cy_vol = np.kron(np.kron(w1, adv1), np.diag(grid.sin_int))
        self.w2 = np.kron(w, w)  # node = ix*(p+1)+iy
        self.tracemap = element_trace_map(p, grid)
        tm = self.tracemap
        n_vol = (p + 1) ** 2 * grid.n_elems
        vert = np.isin(tm.outflow_face, (FACE_LEFT, FACE_RIGHT))
        self.b_diag_vert = np.zeros(n_vol)
        self.b_diag_horz = np.zeros(n_vol)
        np.add.at(self.b_diag_vert, tm.outflow_vol[vert],
                  (tm.outflow_wnode * tm.outflow_flux)[vert])
        np.add.at(self.b_diag_horz, tm.outflow_vol[~vert],
                  (tm.outflow_wnode * tm.outflow_flux)[~vert])
        # Bhat: column k has its one nonzero in row inflow_vol[k]
        self.bhat_val = tm.inflow_wnode * tm.inflow_flux
        self.bhat_col_vert = np.isin(tm.inflow_face, (FACE_LEFT, FACE_RIGHT))
        self.p = p
        self.n_vol = n_vol
        self._bases = {}
        self._lock = threading.Lock()

    def transport_base(self, hx: float, hy: float) -> np.ndarray:
        """B - C on an hx-by-hy element: read-only, Fortran order, cached."""
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
                   h) -> np.ndarray:
    """The balance matrix A = B - C + M - S on an element of size h (scalar or (hx, hy)).

    Returns a fresh Fortran-ordered (n_vol, n_vol) array, ready to be
    factored in place. Volume DOFs are ordered node-major: (node, angle).
    """
    p = _degree(sigma)
    if kernel.kernel.shape != (grid.n_elems, grid.n_elems):
        raise ValueError("phase kernel does not match the angular grid")
    hx, hy = _element_sizes(h)
    ref = reference_kernels(p, grid)
    na = grid.n_elems
    n_sp = (p + 1) ** 2
    m_diag, s_coef = extinction_scattering(sigma.sigma_e, sigma.sigma_s, grid, (hx, hy))

    a = np.empty((ref.n_vol, ref.n_vol), order="F")
    np.copyto(a, ref.transport_base(hx, hy))
    diag = np.einsum("ii->i", a)
    diag += m_diag.reshape(-1)
    # separable scattering: one na x na block on the diagonal of every node
    blocks = np.einsum("iaib->iab", a.reshape(n_sp, na, n_sp, na))
    blocks -= s_coef[:, None, None] * kernel.kernel[None, :, :]
    return a


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


def local_solve(a: np.ndarray, rhs: np.ndarray, element_index=None) -> np.ndarray:
    """Solve a x = rhs by one LU factorization (partial pivoting), in place.

    Both arrays are overwritten when they are Fortran-ordered float64 (as
    `assemble_local` and the callers here make them); returns x.
    """
    lu, piv, info = lapack.dgetrf(a, overwrite_a=True)
    if info < 0:  # pragma: no cover - defensive
        raise SolverFailure(f"local factorization failed on element {element_index}")
    udiag = np.abs(np.einsum("ii->i", lu))
    if udiag.min() <= _SINGULAR_RCOND * udiag.max():
        raise SolverFailure(f"singular local matrix on element {element_index}")
    x, info = lapack.dgetrs(lu, piv, rhs, overwrite_b=True)
    if info != 0:  # pragma: no cover - defensive
        raise SolverFailure(f"local solve failed on element {element_index}")
    return x


def extract_operators(x: np.ndarray, tracemap: ElementTraceMap, grid: AngularGrid,
                      forced: bool) -> LocalOperators:
    """Gather the outflow-trace rows and angular averages of the responses x.

    x holds the n_in inflow responses, followed by the forcing response
    when forced.
    """
    n_sp = (tracemap.p + 1) ** 2
    n_in = tracemap.n_in
    mean = np.einsum("a,nak->nk", grid.mean_weights, x.reshape(n_sp, grid.n_elems, -1),
                     order="C")
    trace = x[tracemap.outflow_vol, :]
    if forced:
        return LocalOperators(a_i2o=trace[:, :n_in], a_i2m=mean[:, :n_in],
                              fhat_u=trace[:, n_in], f_mean=mean[:, n_in])
    return LocalOperators(a_i2o=trace, a_i2m=mean, fhat_u=np.zeros(tracemap.n_out),
                          f_mean=np.zeros(n_sp))


def solve_element(sigma: SigmaField, grid: AngularGrid, kernel: PhaseKernel,
                  h, f=None, element_index=None) -> LocalOperators:
    """The exact local pipeline for one element: assemble, solve the inflow responses, extract."""
    p = _degree(sigma)
    hx, hy = _element_sizes(h)
    ref = reference_kernels(p, grid)
    tm = ref.tracemap
    a = assemble_local(sigma, grid, kernel, (hx, hy))
    # u = A^{-1} ([f] - Bhat uhat_in): the inflow columns are -Bhat
    n_rhs = tm.n_in + (f is not None)
    rhs = np.zeros((ref.n_vol, n_rhs), order="F")
    rhs[tm.inflow_vol, np.arange(tm.n_in)] = -ref.inflow_coupling(hx, hy)
    if f is not None:
        rhs[:, tm.n_in] = forcing_vector(f, p, grid, (hx, hy))
    x = local_solve(a, rhs, element_index=element_index)
    return extract_operators(x, tm, grid, forced=f is not None)


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
    a = assemble_local(sigma, grid, kernel, (hx, hy))
    rhs = np.zeros((ref.n_vol, cols.shape[1]), order="F")
    # corner nodes carry two inflow slots: accumulate
    np.add.at(rhs, tm.inflow_vol, -ref.inflow_coupling(hx, hy)[:, None] * cols)
    if f is not None:
        rhs += forcing_vector(f, p, grid, (hx, hy))[:, None]
    x = local_solve(a, rhs, element_index=element_index)
    return x.reshape((ref.n_vol,) + uhat_in.shape[1:])
