"""Independent dense oracle for the element-local solver.

Builds the five element terms B, Bhat, C, M, S as separate dense matrices,
one scattering block per node in a Python loop, and inverts the balance
with a general dense solve for every inflow column. `rthdg.local` assembles
one matrix in place and solves only what it keeps; the tests compare the
two. `oracle_dg` stacks these element terms into the dense DG system, with
the upwind face coupling and the boundary data found by a loop over faces
and angles.
"""

from dataclasses import dataclass

import numpy as np

from rthdg.basis import differentiation_matrix, lgl_quadrature
from rthdg.mesh import FACE_LEFT, FACE_RIGHT, element_trace_map


@dataclass
class OracleTerms:
    b: np.ndarray      # (n_vol, n_vol) outflow face term (diagonal)
    bhat: np.ndarray   # (n_vol, n_in) inflow face coupling
    c: np.ndarray      # (n_vol, n_vol) volume advection
    m: np.ndarray      # (n_vol, n_vol) extinction mass (diagonal)
    s: np.ndarray      # (n_vol, n_vol) scattering redistribution
    f: np.ndarray      # (n_vol,) tested forcing

    @property
    def a(self) -> np.ndarray:
        return self.b - self.c + self.m - self.s


def oracle_terms(sigma, grid, kernel, h, f=None) -> OracleTerms:
    """The five element terms and the tested forcing, each as its own dense array."""
    hx, hy = (h, h) if np.isscalar(h) else h
    p = sigma.sigma_e.shape[0] - 1
    na = grid.n_elems
    n_sp = (p + 1) ** 2
    n_vol = n_sp * na
    half_x, half_y = 0.5 * hx, 0.5 * hy
    vol_scale = half_x * half_y
    q = lgl_quadrature(p)
    w1 = np.diag(q.weights)
    adv1 = (w1 @ differentiation_matrix(q)).T
    w2 = np.kron(q.weights, q.weights)
    tm = element_trace_map(p, grid)

    b_diag = np.zeros(n_vol)
    for k in range(tm.n_out):
        scale = half_y if tm.outflow_face[k] in (FACE_LEFT, FACE_RIGHT) else half_x
        b_diag[tm.outflow_vol[k]] += scale * tm.outflow_wnode[k] * tm.outflow_flux[k]
    bhat = np.zeros((n_vol, tm.n_in))
    for k in range(tm.n_in):
        scale = half_y if tm.inflow_face[k] in (FACE_LEFT, FACE_RIGHT) else half_x
        bhat[tm.inflow_vol[k], k] = scale * tm.inflow_wnode[k] * tm.inflow_flux[k]
    c = (half_y * np.kron(np.kron(adv1, w1), np.diag(grid.cos_int))
         + half_x * np.kron(np.kron(w1, adv1), np.diag(grid.sin_int)))
    se = sigma.sigma_e.reshape(n_sp)
    ss = sigma.sigma_s.reshape(n_sp)
    m = np.diag(vol_scale * np.outer(w2 * se, grid.widths).reshape(-1))
    s = np.zeros((n_vol, n_vol))
    for n in range(n_sp):
        rows = slice(n * na, (n + 1) * na)
        s[rows, rows] = vol_scale * w2[n] * ss[n] * kernel.kernel
    fvec = np.zeros(n_vol)
    if f is not None:
        f = np.asarray(f, float)
        fvec = vol_scale * (w2[:, None] * f.reshape(n_sp, -1) * grid.widths[None, :]).reshape(-1)
    return OracleTerms(b=np.diag(b_diag), bhat=bhat, c=c, m=m, s=s, f=fvec)


def oracle_responses(terms: OracleTerms):
    """Full interior responses (a_i2u, f_u) of u = a_i2u uhat_in + f_u."""
    a = terms.a
    return -np.linalg.solve(a, terms.bhat), np.linalg.solve(a, terms.f)


def oracle_operators(sigma, grid, kernel, h, f=None) -> dict:
    """a_i2o, a_i2m, fhat_u and f_mean gathered from the full responses."""
    terms = oracle_terms(sigma, grid, kernel, h, f=f)
    a_i2u, f_u = oracle_responses(terms)
    p = sigma.sigma_e.shape[0] - 1
    tm = element_trace_map(p, grid)
    n_sp = (p + 1) ** 2
    mw = grid.mean_weights
    return {"a_i2o": a_i2u[tm.outflow_vol],
            "a_i2m": np.einsum("a,nak->nk", mw, a_i2u.reshape(n_sp, grid.n_elems, -1)),
            "fhat_u": f_u[tm.outflow_vol],
            "f_mean": f_u.reshape(n_sp, grid.n_elems) @ mw}


def oracle_dg(mesh, grid, kernel, sigmas, p, f=None, g=None):
    """Dense DG matrix and right-hand side, (A, b).

    The diagonal blocks are the oracle element balances and the forcing is
    the oracle's tested forcing. The face coupling loops over faces and
    angles: the sign of cos_int (vertical faces) or sin_int (horizontal
    faces) picks which of face_minus/face_plus is downwind, and the
    downwind element's face row reads the upwind element's face nodes, or
    the boundary radiance g sampled at the face's LGL nodes and the angular
    midpoint. Neither the trace map nor the skeleton numbering is used.
    """
    na = grid.n_elems
    n1 = p + 1
    n_vol = n1 * n1 * na
    n_dofs = mesh.n_elems * n_vol
    a = np.zeros((n_dofs, n_dofs))
    b = np.zeros(n_dofs)
    for e, sig in enumerate(sigmas):
        terms = oracle_terms(sig, grid, kernel, (mesh.hx, mesh.hy),
                             f=None if f is None else f[e])
        block = slice(e * n_vol, (e + 1) * n_vol)
        a[block, block] = terms.a
        b[block] = terms.f
    q = lgl_quadrature(p)
    j = np.arange(n1)
    # volume nodes on a face, along it: (plus element's side, minus element's side)
    face_nodes = {0: (j, p * n1 + j), 1: (j * n1, j * n1 + p)}
    for fid in range(mesh.n_faces):
        axis = int(mesh.face_axis[fid])
        flux = grid.cos_int if axis == 0 else grid.sin_int
        half_t = 0.5 * (mesh.hy if axis == 0 else mesh.hx)
        plus_nodes, minus_nodes = face_nodes[axis]
        for ang in range(na):
            if flux[ang] > 0:  # flows from the minus into the plus element
                down, up = mesh.face_plus[fid], mesh.face_minus[fid]
                down_nodes, up_nodes, sign = plus_nodes, minus_nodes, -1.0
            else:
                down, up = mesh.face_minus[fid], mesh.face_plus[fid]
                down_nodes, up_nodes, sign = minus_nodes, plus_nodes, 1.0
            if down < 0:
                continue  # outflow through the domain boundary
            rows = down * n_vol + down_nodes * na + ang
            vals = half_t * q.weights * (sign * flux[ang])  # s . n_out of the downwind face
            if up >= 0:
                a[rows, up * n_vol + up_nodes * na + ang] += vals
            elif g is not None:
                fixed, start = mesh.face_span(fid)
                along = start + half_t * (q.nodes + 1.0)
                normal = (sign, 0.0) if axis == 0 else (0.0, sign)
                for k in range(n1):
                    x, y = (fixed, along[k]) if axis == 0 else (along[k], fixed)
                    b[rows[k]] -= vals[k] * g(x, y, grid.midpoints[ang], normal)
    return a, b
