import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from local_oracle import oracle_operators, oracle_terms
from rthdg.angular import build_angular_grid, scattering_kernel_matrix
from rthdg.basis import lgl_quadrature
from rthdg.errors import SolverFailure
from rthdg.local import (LocalBalance, SigmaField, assemble_local, element_solution,
                         forcing_vector, local_solve, reference_kernels, solve_element)
from rthdg.mesh import FACE_LEFT, FACE_RIGHT, element_trace_map


@pytest.fixture(scope="module")
def desk():
    grid = build_angular_grid(8)
    return grid, scattering_kernel_matrix(grid, 0.8)


def const_sigma(p, se, ss):
    return SigmaField(np.full((p + 1, p + 1), float(se)),
                      np.full((p + 1, p + 1), float(ss)))


def node_blocks(a, p, na):
    """The na x na diagonal block of every node, shape (n_sp, na, na)."""
    n_sp = (p + 1) ** 2
    return np.einsum("iaib->iab", a.reshape(n_sp, na, n_sp, na))


def interior_responses(sig, grid, kernel, h, f=None):
    """(a_i2u, f_u) re-solved on request: unit inflow traces, then the forcing alone."""
    n_in = element_trace_map(sig.sigma_e.shape[0] - 1, grid).n_in
    a_i2u = element_solution(sig, grid, kernel, h, np.eye(n_in))
    f_u = element_solution(sig, grid, kernel, h, np.zeros(n_in), f=f)
    return a_i2u, f_u


def rel_dev(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def test_sigma_field_validation():
    with pytest.raises(ValueError):
        SigmaField(np.ones((3, 3)), -np.ones((3, 3)))
    with pytest.raises(ValueError):
        SigmaField(np.ones((3, 3)), np.ones((3, 4)))
    with pytest.raises(ValueError):
        SigmaField.from_scattering(np.ones((3, 3)), 0.0)
    f = SigmaField.from_scattering(np.full((3, 3), 2.0), 0.5)
    np.testing.assert_allclose(f.sigma_e, 4.0)


def test_full_scale_shapes():
    grid = build_angular_grid(28)
    kernel = scattering_kernel_matrix(grid, 0.8)
    balance = assemble_local(const_sigma(6, 1.0, 1.0), grid, kernel, 2.0)
    assert balance.dense().shape == (1372, 1372)
    # 364 inflow unknowns: the 392 inflow slots less the 28 second slots of
    # corner DOFs (7 angles enter each corner through both of its faces)
    assert element_trace_map(6, grid).n_in == 392
    assert balance.jj.shape == (1008, 1008) and balance.ii.shape == (364, 364)
    assert balance.ji.shape == (1008, 364) and balance.ij.shape == (364, 1008)
    for block in (balance.jj, balance.ji, balance.ii):
        assert block.flags.f_contiguous  # LAPACK overwrites it in place


def assert_matches_oracle(sig, grid, kernel, h, f, tol):
    """All four operators, element_solution and A against the dense oracle."""
    ops = solve_element(sig, grid, kernel, h, f=f)
    want = oracle_operators(sig, grid, kernel, h, f=f)
    for name in ("a_i2o", "a_i2m"):
        assert rel_dev(getattr(ops, name), want[name]) < tol, name
    if f is not None:
        for name in ("fhat_u", "f_mean"):
            assert rel_dev(getattr(ops, name), want[name]) < tol, name
    else:
        assert not np.any(ops.fhat_u) and not np.any(ops.f_mean)
    terms = oracle_terms(sig, grid, kernel, h, f=f)
    ghat = np.random.default_rng(7).uniform(0.0, 1.0, ops.a_i2o.shape[1])
    u = element_solution(sig, grid, kernel, h, ghat, f=f)
    assert rel_dev(u, np.linalg.solve(terms.a, terms.f - terms.bhat @ ghat)) < tol
    assert rel_dev(assemble_local(sig, grid, kernel, h).dense(), terms.a) < 1e-14


@settings(max_examples=30, deadline=None)
@given(p=st.integers(1, 3), na=st.sampled_from([4, 8]),
       amp=st.one_of(st.just(0.0), st.floats(-2.0, 4.0).map(lambda e: 10.0 ** e)),
       albedo=st.floats(1e-3, 1.0), g_asym=st.floats(0.0, 0.9),
       hx=st.floats(0.1, 3.0), hy=st.floats(0.1, 3.0), forced=st.booleans(),
       seed=st.integers(0, 2 ** 31 - 1))
def drawn_oracle_case(p, na, amp, albedo, g_asym, hx, hy, forced, seed):
    # amplitude 0 is pure advection, where A_JJ's regularity rests on the
    # advection operator alone
    grid = build_angular_grid(na)
    rng = np.random.default_rng(seed)
    sig = SigmaField.from_scattering(amp * rng.random((p + 1, p + 1)), albedo)
    f = rng.uniform(-1.0, 1.0, (p + 1, p + 1, na)) if forced else None
    assert_matches_oracle(sig, grid, scattering_kernel_matrix(grid, g_asym), (hx, hy), f,
                          1e-11)


@pytest.mark.parametrize("p, na, forced", [(6, 28, False), (3, 8, False), (3, 8, True),
                                           pytest.param(None, None, None, id="drawn")])
def test_operators_match_dense_oracle(p, na, forced):
    # the in-place assembly and the solve condensed on the inflow unknowns
    # reproduce the five-term dense oracle: fixed random coefficients on a
    # rectangular element, and hypothesis-drawn degree, angles, coefficients
    # (sigma = 0 up to amplitude 1e4), albedo, asymmetry, sizes and forcing
    if p is None:
        drawn_oracle_case()
        return
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, 0.8)
    rng = np.random.default_rng(100 * p + na + forced)
    sig = SigmaField(rng.uniform(0.5, 6.0, (p + 1, p + 1)),
                     rng.uniform(0.0, 5.0, (p + 1, p + 1)))
    f = rng.uniform(-1.0, 1.0, (p + 1, p + 1)) if forced else None
    assert_matches_oracle(sig, grid, kernel, (0.7, 0.4), f, 1e-12)


@settings(max_examples=25, deadline=None)
@given(p=st.integers(1, 3), g_asym=st.floats(0.0, 0.9),
       hx=st.floats(0.1, 3.0), hy=st.floats(0.1, 3.0),
       amp=st.floats(0.0, 20.0), seed=st.integers(0, 2 ** 31 - 1))
def test_flux_conservation_at_albedo_one(p, g_asym, hx, hy, amp, seed):
    # pure scattering: every inflow column leaves the element in full,
    # w_out . A_i2o[:, j] = w_in[j] with the face-flux weights of the trace map
    grid = build_angular_grid(8)
    kernel = scattering_kernel_matrix(grid, g_asym)
    sig = SigmaField.from_scattering(
        amp * np.random.default_rng(seed).random((p + 1, p + 1)), 1.0)
    ops = solve_element(sig, grid, kernel, (hx, hy))
    tm = element_trace_map(p, grid)
    scale_out = np.where(np.isin(tm.outflow_face, (FACE_LEFT, FACE_RIGHT)), hy, hx) / 2
    scale_in = np.where(np.isin(tm.inflow_face, (FACE_LEFT, FACE_RIGHT)), hy, hx) / 2
    w_out = scale_out * tm.outflow_wnode * tm.outflow_flux
    w_in = -scale_in * tm.inflow_wnode * tm.inflow_flux
    assert np.abs(w_out @ ops.a_i2o - w_in).max() <= 1e-11 * np.abs(w_in).max()


def test_extinction_mass_collocation(desk):
    grid, kernel = desk
    p = 4
    m = (assemble_local(const_sigma(p, 1.0, 0.0), grid, kernel, 2.0).dense()
         - assemble_local(const_sigma(p, 0.0, 0.0), grid, kernel, 2.0).dense())
    q = lgl_quadrature(p)
    w2 = np.kron(q.weights, q.weights)
    expected = np.repeat(w2, grid.n_elems) * np.tile(grid.widths, (p + 1) ** 2)
    np.testing.assert_allclose(np.diag(m), expected, atol=1e-15)
    assert np.abs(m - np.diag(np.diag(m))).max() == 0.0


def test_zero_scattering_gives_zero_s(desk):
    # without scattering no node couples its angular elements
    grid, kernel = desk
    p, na = 3, grid.n_elems
    off = ~np.eye(na, dtype=bool)
    blocks = node_blocks(assemble_local(const_sigma(p, 2.0, 0.0), grid, kernel, 2.0).dense(),
                         p, na)
    assert np.abs(blocks[:, off]).max() == 0.0
    blocks = node_blocks(assemble_local(const_sigma(p, 2.0, 1.0), grid, kernel, 2.0).dense(),
                         p, na)
    assert np.all(blocks[:, off] < 0.0)


def test_forcing_shapes(desk):
    grid, kernel = desk
    p = 2
    f_iso = np.ones((p + 1, p + 1))
    assert forcing_vector(f_iso, p, grid, 2.0).shape == ((p + 1) ** 2 * grid.n_elems,)
    f_ang = np.ones((p + 1, p + 1, grid.n_elems))
    np.testing.assert_array_equal(forcing_vector(f_ang, p, grid, 2.0),
                                  forcing_vector(f_iso, p, grid, 2.0))
    with pytest.raises(ValueError):
        forcing_vector(np.ones((p + 2, p + 1)), p, grid, 2.0)
    with pytest.raises(ValueError):
        solve_element(const_sigma(p, 1.0, 0.0), grid, kernel, 2.0, f=np.ones((p + 2, p + 2)))


def test_local_solve_residual(desk):
    grid, kernel = desk
    rng = np.random.default_rng(5)
    sig = SigmaField.from_scattering(rng.uniform(0, 5, (4, 4)), 1.0)
    a_i2u, f_u = interior_responses(sig, grid, kernel, 2.0)
    terms = oracle_terms(sig, grid, kernel, 2.0)
    resid = np.abs(terms.a @ a_i2u + terms.bhat).max()
    assert resid < 1e-10 * np.abs(terms.bhat).max()
    assert np.abs(f_u).max() == 0.0  # f was zero


def test_zero_data_nullity(desk):
    grid, kernel = desk
    sig = const_sigma(3, 1.0, 0.5)
    ops = solve_element(sig, grid, kernel, 2.0)
    assert np.abs(ops.fhat_u).max() == 0.0
    assert np.abs(ops.f_mean).max() == 0.0
    zero_in = np.zeros(ops.a_i2o.shape[1])
    assert np.abs(element_solution(sig, grid, kernel, 2.0, zero_in)).max() == 0.0


def test_singular_local_matrix_reports_element():
    # a singular balance raises SolverFailure naming the element, whether the
    # factorization of A_JJ or that of the Schur complement S meets it
    grid = build_angular_grid(4)
    kernel = scattering_kernel_matrix(grid, 0.0)
    sig = const_sigma(1, 1.0, 0.5)
    balance = assemble_local(sig, grid, kernel, 2.0)
    balance.jj[3] = balance.ji[3] = 0.0  # a zero row of A among J
    with pytest.raises(SolverFailure, match=r"element 17 \(A_JJ\)"):
        local_solve(balance, element_index=17)
    balance = assemble_local(sig, grid, kernel, 2.0)
    balance.ij[2] = balance.ii[2] = 0.0  # a zero row among I: A_JJ stays regular
    with pytest.raises(SolverFailure, match=r"element 17 \(Schur complement\)"):
        local_solve(balance, element_index=17)
    # advection alone annihilates constants: (B=0, C, M=S=0) is singular
    ref = reference_kernels(1, grid)
    broken = -oracle_terms(sig, grid, kernel, 2.0).c[np.ix_(ref.perm, ref.perm)]
    j, i = slice(None, ref.n_j), slice(ref.n_j, None)
    blocks = [np.asfortranarray(broken[r, c]) for r, c in ((j, j), (j, i), (i, j), (i, i))]
    with pytest.raises(SolverFailure, match="element 17"):
        local_solve(LocalBalance(*blocks, ref=ref), element_index=17)


def test_extract_shapes_full_scale():
    grid = build_angular_grid(28)
    kernel = scattering_kernel_matrix(grid, 0.8)
    ops = solve_element(const_sigma(6, 0.5, 0.25), grid, kernel, 2.0)
    assert ops.a_i2o.shape == (392, 392)
    assert ops.a_i2m.shape == (49, 392)
    assert abs(grid.mean_weights.sum() - 1.0) < 1e-14


def test_constant_transport_identity(desk):
    # sigma = 0, unit inflow on every inflow slot of one angular element:
    # the interior solution is 1 there, and the mean-intensity block
    # contributes 1/N_a per node
    grid, kernel = desk
    p = 3
    sig = const_sigma(p, 0.0, 0.0)
    ops = solve_element(sig, grid, kernel, 2.0)
    tm = element_trace_map(p, grid)
    a_star = 1
    uin = (tm.inflow_ang == a_star).astype(float)
    u = element_solution(sig, grid, kernel, 2.0, uin).reshape((p + 1) ** 2, grid.n_elems)
    np.testing.assert_allclose(u[:, a_star], 1.0, atol=1e-12)
    assert np.abs(np.delete(u, a_star, axis=1)).max() < 1e-12
    m = ops.a_i2m @ uin
    np.testing.assert_allclose(m, 1.0 / grid.n_elems, atol=1e-12)


def test_beer_lambert_characteristics():
    # pure absorption, beam near +x: the discrete solution decays along x at
    # the rate set by the angular element's mean direction (the p_a = 0
    # scheme advects with the element-average of s)
    p = 6
    grid = build_angular_grid(28)
    kernel = scattering_kernel_matrix(grid, 0.8)
    sigma_e = 0.5  # sigma_e * h = 1 on the reference element
    sig = SigmaField(np.full((p + 1, p + 1), sigma_e), np.zeros((p + 1, p + 1)))
    tm = element_trace_map(p, grid)
    q = lgl_quadrature(p)
    a0 = 0  # element (0, 2pi/28): inflow faces are left and bottom
    cbar = grid.cos_int[a0] / grid.widths[a0]
    uin = np.zeros(tm.n_in)
    for k in range(tm.n_in):
        if tm.inflow_ang[k] != a0:
            continue
        if tm.inflow_face[k] == 0:      # left face: unit inflow
            uin[k] = 1.0
        elif tm.inflow_face[k] == 2:    # bottom face: data consistent with
            xk = q.nodes[tm.inflow_node[k]]   # the 1D decay profile
            uin[k] = np.exp(-sigma_e * (xk + 1.0) / cbar)
    u = element_solution(sig, grid, kernel, 2.0, uin).reshape(p + 1, p + 1, grid.n_elems)
    expected = np.exp(-sigma_e * (q.nodes + 1.0) / cbar)
    assert np.abs(u[:, :, a0] - expected[:, None]).max() < 1e-6


def test_scaling_identity(desk):
    # A_i2u(h, sigma) == A_i2u(2, h sigma / 2) and f_u(h, sigma, f) ==
    # f_u(2, h sigma / 2, h f / 2)
    grid, kernel = desk
    rng = np.random.default_rng(9)
    p, h = 3, 0.4
    sig = rng.uniform(0.0, 8.0, (p + 1, p + 1))
    f = rng.uniform(-1.0, 1.0, (p + 1, p + 1))
    a1, f1 = interior_responses(SigmaField.from_scattering(sig, 1.0), grid, kernel, h, f=f)
    a2, f2 = interior_responses(SigmaField.from_scattering(h * sig / 2, 1.0), grid, kernel,
                                2.0, f=h * f / 2)
    assert np.abs(a1 - a2).max() < 1e-12 * np.abs(a2).max()
    assert np.abs(f1 - f2).max() < 1e-12 * max(np.abs(f2).max(), 1e-30)


def test_element_energy_balance(desk):
    # pure scattering (albedo 1), zero forcing: outflow flux equals inflow flux
    grid, kernel = desk
    rng = np.random.default_rng(2)
    p, h = 3, 1.0
    sig = SigmaField.from_scattering(rng.uniform(0, 6, (p + 1, p + 1)), 1.0)
    ops = solve_element(sig, grid, kernel, h)
    tm = element_trace_map(p, grid)
    uin = rng.uniform(0, 1, tm.n_in)
    uout = ops.a_i2o @ uin
    # vertical faces carry hy/2, horizontal hx/2; square element here
    influx = -np.sum(tm.inflow_flux * tm.inflow_wnode * uin) * h / 2
    outflux = np.sum(tm.outflow_flux * tm.outflow_wnode * uout) * h / 2
    assert abs(outflux - influx) < 1e-10 * influx


def test_hybridization_exactness_single_element(desk):
    # re-solving u with uhat set to the boundary data reproduces the
    # monolithic single-element DG solution
    grid, kernel = desk
    rng = np.random.default_rng(21)
    p = 2
    sig = SigmaField.from_scattering(rng.uniform(0, 4, (p + 1, p + 1)), 1.0)
    f = rng.uniform(0, 1, (p + 1, p + 1))
    tm = element_trace_map(p, grid)
    ghat = rng.uniform(0, 1, tm.n_in)
    u_hybrid = element_solution(sig, grid, kernel, 2.0, ghat, f=f)
    terms = oracle_terms(sig, grid, kernel, 2.0, f=f)
    u_dg = np.linalg.solve(terms.a, terms.f - terms.bhat @ ghat)
    assert np.abs(u_hybrid - u_dg).max() < 1e-12 * max(1.0, np.abs(u_dg).max())


def test_extract_consistency(desk):
    # the kept operators are the outflow rows and angular averages of the
    # full responses
    grid, kernel = desk
    rng = np.random.default_rng(1)
    p = 2
    sig = SigmaField.from_scattering(rng.uniform(0, 3, (p + 1, p + 1)), 0.9)
    f = rng.uniform(0, 1, (p + 1, p + 1))
    ops = solve_element(sig, grid, kernel, 1.5, f=f)
    a_i2u, f_u = interior_responses(sig, grid, kernel, 1.5, f=f)
    tm = element_trace_map(p, grid)
    np.testing.assert_allclose(ops.a_i2o, a_i2u[tm.outflow_vol, :], rtol=0, atol=1e-14)
    np.testing.assert_allclose(ops.fhat_u, f_u[tm.outflow_vol], rtol=0, atol=1e-14)
    resh = a_i2u.reshape((p + 1) ** 2, grid.n_elems, tm.n_in)
    np.testing.assert_allclose(ops.a_i2m,
                               np.tensordot(grid.mean_weights, resh, axes=(0, 1)),
                               atol=1e-15)
    np.testing.assert_allclose(ops.f_mean,
                               f_u.reshape((p + 1) ** 2, grid.n_elems) @ grid.mean_weights,
                               atol=1e-15)


@settings(max_examples=15, deadline=None)
@given(p=st.integers(1, 3), na=st.sampled_from([4, 8]),
       amp=st.one_of(st.just(0.0), st.floats(-2.0, 3.0).map(lambda e: 10.0 ** e)),
       albedo=st.floats(0.05, 1.0), g_asym=st.floats(0.0, 0.9), h=st.floats(0.1, 3.0),
       seed=st.integers(0, 2 ** 31 - 1))
def drawn_d4_case(p, na, amp, albedo, g_asym, h, seed):
    grid = build_angular_grid(na)
    sigma_s = amp * np.random.default_rng(seed).random((p + 1, p + 1))
    assert_d4_equivariant(sigma_s, albedo, grid, scattering_kernel_matrix(grid, g_asym), h)


def assert_d4_equivariant(sigma_s, albedo, grid, kernel, h):
    # the element with the image coefficients has the image operators
    p = sigma_s.shape[0] - 1
    ops = solve_element(SigmaField.from_scattering(sigma_s, albedo), grid, kernel, h)
    symmetries = element_trace_map(p, grid).symmetries
    assert len({t.inflow.tobytes() for t in symmetries}) == 8  # 8 distinct maps
    for t in symmetries:
        image = SigmaField.from_scattering(sigma_s.reshape(-1)[t.node].reshape(p + 1, p + 1),
                                           albedo)
        got = solve_element(image, grid, kernel, h)
        assert rel_dev(got.a_i2o, ops.a_i2o[np.ix_(t.outflow, t.inflow)]) < 1e-13, t
        assert rel_dev(got.a_i2m, ops.a_i2m[np.ix_(t.node, t.inflow)]) < 1e-13, t


@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_d4_images_permute_the_operators(scale):
    # the 8 rotations and reflections of a square element permute a_i2o and
    # a_i2m into the operators of the image coefficients: hypothesis-drawn
    # small cases, and one paper-scale element
    if scale == "desk":
        drawn_d4_case()
        return
    grid = build_angular_grid(28)
    sigma_s = np.random.default_rng(8).uniform(0.0, 10.0, (7, 7))
    assert_d4_equivariant(sigma_s, 0.9, grid, scattering_kernel_matrix(grid, 0.8), 0.5)
