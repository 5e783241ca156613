"""One-dimensional spectral-element primitives on the reference interval [-1, 1].

Provides Legendre-Gauss-Lobatto (LGL) quadrature, the Lagrange nodal basis on
the LGL nodes (values, derivatives, differentiation matrix), and the
modal<->nodal transform against the Legendre basis. All 2D element quantities
elsewhere in the package are tensor products of these 1D objects.
"""

import functools
from dataclasses import dataclass

import numpy as np

_NEWTON_TOL = 1e-15
_NEWTON_MAXIT = 100


def legendre_values(p: int, x):
    """Evaluate Legendre polynomials L_0..L_p at points x.

    Three-term recurrence; returns an array of shape (len(x), p+1) with
    column m holding L_m(x).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.zeros((x.size, p + 1))
    v[:, 0] = 1.0
    if p >= 1:
        v[:, 1] = x
    for m in range(1, p):
        v[:, m + 1] = ((2 * m + 1) * x * v[:, m] - m * v[:, m - 1]) / (m + 1)
    return v


@dataclass(frozen=True)
class Quadrature1D:
    """(p+1)-point Gauss-Lobatto rule: exact for polynomials of degree <= 2p-1."""

    degree: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


@dataclass(frozen=True)
class ModalNodalTransform:
    """Legendre-coefficient <-> LGL-nodal-value change of basis.

    forward maps modal coefficients to nodal values (column m is L_m sampled
    at the LGL nodes); inverse is its matrix inverse. Both are read-only:
    `modal_nodal_transform` hands the same instance to every caller.
    """

    degree: int
    forward: np.ndarray
    inverse: np.ndarray

    def __post_init__(self):
        self.forward.setflags(write=False)
        self.inverse.setflags(write=False)


def lgl_quadrature(p: int) -> Quadrature1D:
    """Nodes and weights of the (p+1)-point Legendre-Gauss-Lobatto rule.

    The nodes are the roots of (1 - x^2) L'_p(x), found by Newton iteration
    on the equivalent function x*L_p - L_{p-1} (derivative (p+1)*L_p),
    started from the Chebyshev-Gauss-Lobatto points. The endpoints +-1 are
    fixed points of the iteration. Weights are 2 / (p (p+1) L_p(x_i)^2).
    """
    if p < 1:
        raise ValueError(f"LGL quadrature needs degree p >= 1, got {p}")
    # Chebyshev-Gauss-Lobatto initial guess, ascending order.
    x = -np.cos(np.pi * np.arange(p + 1) / p)
    for _ in range(_NEWTON_MAXIT):
        v = legendre_values(p, x)
        dx = (x * v[:, p] - v[:, p - 1]) / ((p + 1) * v[:, p])
        x = x - dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    # Enforce exact symmetry (the iteration preserves it only to roundoff).
    x = 0.5 * (x - x[::-1])
    x[0], x[-1] = -1.0, 1.0
    v = legendre_values(p, x)
    w = 2.0 / (p * (p + 1) * v[:, p] ** 2)
    w = 0.5 * (w + w[::-1])
    return Quadrature1D(degree=p, nodes=x, weights=w)


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1)


def lagrange_basis_at(q: Quadrature1D, x) -> np.ndarray:
    """Values of all Lagrange cardinal polynomials at points x.

    Returns shape (len(x), p+1); row k holds (phi_1(x_k), ..., phi_{p+1}(x_k)).
    Barycentric form, exact (delta) at the interpolation nodes.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lam = _barycentric_weights(q.nodes)
    out = np.zeros((x.size, q.degree + 1))
    d = x[:, None] - q.nodes[None, :]
    exact = np.isclose(d, 0.0, rtol=0.0, atol=1e-14)
    on_node = exact.any(axis=1)
    safe = np.where(exact, 1.0, d)
    terms = lam[None, :] / safe
    out[~on_node] = terms[~on_node] / terms[~on_node].sum(axis=1, keepdims=True)
    out[on_node] = exact[on_node].astype(float)
    return out


def differentiation_matrix(q: Quadrature1D) -> np.ndarray:
    """D with D[k, i] = phi'_i(node_k), via barycentric weights.

    Diagonal entries use the negative row-sum trick, so rows sum to zero by
    construction (the derivative of the constant 1).
    """
    nodes, lam = q.nodes, _barycentric_weights(q.nodes)
    n = nodes.size
    d = np.zeros((n, n))
    for k in range(n):
        for i in range(n):
            if i != k:
                d[k, i] = (lam[i] / lam[k]) / (nodes[k] - nodes[i])
        d[k, k] = -np.sum(d[k, :])
    return d


@functools.lru_cache(maxsize=16)
def modal_nodal_transform(p: int) -> ModalNodalTransform:
    """Transform between Legendre coefficients and LGL nodal values (cached per p)."""
    if p < 1:
        raise ValueError(f"modal/nodal transform needs degree p >= 1, got {p}")
    q = lgl_quadrature(p)
    forward = legendre_values(p, q.nodes)  # forward[i, m] = L_m(x_i)
    inverse = np.linalg.inv(forward)
    return ModalNodalTransform(degree=p, forward=forward, inverse=inverse)
