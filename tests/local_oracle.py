"""Independent dense oracle for the element-local solver.

Builds the five element terms B, Bhat, C, M, S as separate dense matrices,
one scattering block per node in a Python loop, and inverts the balance
with a general dense solve for every inflow column. `rthdg.local` assembles
one matrix in place and solves only what it keeps; the tests compare the
two.
"""

from dataclasses import dataclass

import numpy as np

from rthdg.basis import differentiation_matrix, lgl_quadrature
from rthdg.local import element_trace_map
from rthdg.mesh import FACE_LEFT, FACE_RIGHT


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
