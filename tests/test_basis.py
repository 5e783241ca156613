import numpy as np
import numpy.polynomial.legendre as npleg
import pytest

from rthdg.basis import (Quadrature1D, differentiation_matrix, lagrange_basis_at,
                         legendre_values, lgl_quadrature, modal_nodal_transform)


def lobatto_oracle(p):
    """Independent LGL construction: roots of (1-x^2) L_p'(x) via numpy legroots."""
    dcoef = npleg.legder(np.eye(p + 1)[p])
    interior = npleg.legroots(dcoef)
    nodes = np.concatenate([[-1.0], np.sort(interior), [1.0]])
    lp = npleg.legval(nodes, np.eye(p + 1)[p])
    weights = 2.0 / (p * (p + 1) * lp ** 2)
    return nodes, weights


def test_lgl_p1_endpoints():
    q = lgl_quadrature(1)
    np.testing.assert_allclose(q.nodes, [-1.0, 1.0], atol=0)
    np.testing.assert_allclose(q.weights, [1.0, 1.0], atol=0)


def test_lgl_p2_analytic():
    q = lgl_quadrature(2)
    np.testing.assert_allclose(q.nodes, [-1.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(q.weights, [1 / 3, 4 / 3, 1 / 3], atol=1e-15)


def test_lgl_p6_symmetry_and_measure():
    q = lgl_quadrature(6)
    assert q.nodes.size == 7
    np.testing.assert_allclose(q.nodes, -q.nodes[::-1], atol=0)
    np.testing.assert_allclose(q.weights, q.weights[::-1], atol=0)
    assert abs(q.weights.sum() - 2.0) < 1e-13


@pytest.mark.parametrize("p", [1, 2, 3, 5, 6, 8, 12])
def test_lgl_matches_legroots_oracle(p):
    q = lgl_quadrature(p)
    nodes, weights = lobatto_oracle(p)
    np.testing.assert_allclose(q.nodes, nodes, atol=1e-13)
    np.testing.assert_allclose(q.weights, weights, atol=1e-13)


@pytest.mark.parametrize("p", [1, 2, 4, 6, 8])
def test_quadrature_exactness(p):
    q = lgl_quadrature(p)
    for k in range(2 * p):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(q.weights * q.nodes ** k) - exact) < 1e-12


def test_invalid_degree():
    with pytest.raises(ValueError):
        lgl_quadrature(0)
    with pytest.raises(ValueError):
        modal_nodal_transform(-1)


def test_lagrange_cardinality():
    q = lgl_quadrature(5)
    vals = lagrange_basis_at(q, q.nodes)
    np.testing.assert_allclose(vals, np.eye(6), atol=0)


def test_lagrange_partition_of_unity():
    q = lgl_quadrature(6)
    x = np.linspace(-1, 1, 37)
    vals = lagrange_basis_at(q, x)
    np.testing.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-13)


def test_lagrange_index_bounds():
    # phi_i is 1 at node i and 0 at the other nodes, exactly
    q = lgl_quadrature(3)
    assert np.array_equal(lagrange_basis_at(q, q.nodes), np.eye(4))


def test_interpolation_exactness():
    # any polynomial of degree <= p is reproduced by nodal interpolation
    rng = np.random.default_rng(3)
    p = 6
    q = lgl_quadrature(p)
    coefs = rng.standard_normal(p + 1)
    poly = np.polynomial.Polynomial(coefs)
    x = np.linspace(-1, 1, 23)
    interp = lagrange_basis_at(q, x) @ poly(q.nodes)
    np.testing.assert_allclose(interp, poly(x), atol=1e-12)


def test_differentiation_matrix():
    p = 6
    q = lgl_quadrature(p)
    d = differentiation_matrix(q)
    np.testing.assert_allclose(d.sum(axis=1), 0.0, atol=1e-12)
    for k in range(1, p + 1):
        np.testing.assert_allclose(d @ q.nodes ** k, k * q.nodes ** (k - 1),
                                   atol=1e-11)


def test_modal_nodal_units():
    t = modal_nodal_transform(4)
    q = lgl_quadrature(4)
    np.testing.assert_allclose(t.forward @ np.eye(5)[0], np.ones(5), atol=0)
    np.testing.assert_allclose(t.forward @ np.eye(5)[1], q.nodes, atol=0)


def test_modal_nodal_roundtrip():
    rng = np.random.default_rng(11)
    t = modal_nodal_transform(7)
    assert np.abs(t.forward @ t.inverse - np.eye(8)).max() < 1e-12
    modal = rng.standard_normal(8)
    # independent oracle: solve the Vandermonde system instead of using inverse
    nodal = t.forward @ modal
    back = np.linalg.solve(t.forward, nodal)
    np.testing.assert_allclose(t.inverse @ nodal, back, atol=1e-12)
    assert np.abs(t.inverse @ (t.forward @ modal) - modal).max() < 1e-12


def test_legendre_values_recurrence():
    x = np.linspace(-1, 1, 9)
    vals = legendre_values(5, x)
    for m in range(6):
        np.testing.assert_allclose(vals[:, m], npleg.legval(x, np.eye(6)[m]),
                                   atol=1e-14)


def test_quadrature_is_frozen():
    q = lgl_quadrature(3)
    assert isinstance(q, Quadrature1D)
    with pytest.raises(ValueError):
        q.nodes[0] = 0.0
