import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from rthdg import dg as dgm
from rthdg.angular import build_angular_grid, scattering_kernel_matrix
from rthdg.errors import SolverFailure
from rthdg.local import SigmaField, assemble_local, forcing_vector, reference_kernels
from rthdg.mesh import build_mesh

from local_oracle import oracle_dg


def const_sigma(p, se, ss):
    return SigmaField(np.full((p + 1, p + 1), float(se)),
                      np.full((p + 1, p + 1), float(ss)))


def beam_bc(grid, a_star, amp=1.0):
    lo, hi = grid.boundaries[a_star], grid.boundaries[a_star + 1]
    return lambda x, y, theta, normal: amp if lo <= theta < hi else 0.0


def test_single_element_matches_local_matrices():
    # on one element A_dg is the element balance with inflow data moved to b
    rng = np.random.default_rng(4)
    p, na = 2, 8
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, 0.8)
    mesh = build_mesh(2.0, 2.0, 1, 1)
    sig = SigmaField.from_scattering(rng.uniform(0, 4, (p + 1, p + 1)), 1.0)
    system = dgm.assemble_dg(mesh, grid, kernel, [sig], p, g=beam_bc(grid, 5))
    a_local = assemble_local(sig, grid, kernel, 2.0).dense()
    assert np.abs(system.matrix.toarray() - a_local).max() < 1e-14
    # boundary data lands on the rhs through the inflow coupling
    assert np.abs(system.b).max() > 0


def test_zero_data_zero_solution():
    grid = build_angular_grid(4)
    kernel = scattering_kernel_matrix(grid, 0.5)
    mesh = build_mesh(2.0, 1.0, 2, 1)
    system = dgm.assemble_dg(mesh, grid, kernel, [const_sigma(1, 0, 0)] * 2, 1)
    u, info = dgm.solve_dg(system, tol=1e-8)
    assert np.abs(u).max() == 0.0
    assert info.iterations == 0


def test_beam_characteristics_dense():
    # sigma = 0: the beam propagates unchanged through the mesh
    p, na = 2, 4
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, 0.8)
    mesh = build_mesh(2.0, 2.0, 2, 2)
    amp = na / (2 * np.pi)
    a_star = 3
    system = dgm.assemble_dg(mesh, grid, kernel, [const_sigma(p, 0, 0)] * 4, p,
                             g=beam_bc(grid, a_star, amp))
    u = np.linalg.solve(system.matrix.toarray(), system.b)
    u4 = u.reshape(mesh.n_elems, (p + 1) ** 2, na)
    assert np.abs(u4[:, :, a_star] - amp).max() < 1e-10
    assert np.abs(np.delete(u4, a_star, axis=2)).max() < 1e-10


def test_upwind_stability_no_overshoot():
    # constant unit beam data: discrete solution bounded by the inflow max
    p, na = 3, 8
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, 0.8)
    mesh = build_mesh(3.0, 2.0, 3, 2)
    system = dgm.assemble_dg(mesh, grid, kernel, [const_sigma(p, 0, 0)] * 6, p,
                             g=beam_bc(grid, 6, 1.0))
    u, _ = dgm.solve_dg(system, tol=1e-12)
    assert u.max() <= 1.0 + 1e-10


def test_preconditioner_exact_without_scattering():
    rng = np.random.default_rng(6)
    p, na = 2, 8
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, 0.8)
    mesh = build_mesh(2.0, 2.0, 2, 2)
    sigmas = [SigmaField(rng.uniform(0, 3, (p + 1, p + 1)),
                         np.zeros((p + 1, p + 1))) for _ in range(4)]
    system = dgm.assemble_dg(mesh, grid, kernel, sigmas, p, g=beam_bc(grid, 5))
    u, info = dgm.solve_dg(system, tol=1e-10)
    assert info.iterations == 1
    resid = system.matrix @ u - system.b
    assert np.abs(resid).max() < 1e-10 * np.abs(system.b).max()


def random_sigmas(rng, n_elems, p, se_max):
    """Nodal fields with sigma_s <= sigma_e."""
    out = []
    for _ in range(n_elems):
        se = rng.uniform(0, se_max, (p + 1, p + 1))
        out.append(SigmaField(se, se * rng.uniform(0, 1, (p + 1, p + 1))))
    return out


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 4), ny=st.integers(1, 4), p=st.integers(1, 3),
       na=st.sampled_from([4, 8]), seed=st.integers(0, 2 ** 32 - 1))
def test_sweep_is_exact_inverse_of_angle_blocks(nx, ny, p, na, seed):
    # P is A without the scattering between different angles; the sweep applies P^-1
    rng = np.random.default_rng(seed)
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, rng.uniform(0, 0.9))
    mesh = build_mesh(rng.uniform(0.5, 3) * nx, rng.uniform(0.5, 3) * ny, nx, ny)
    system = dgm.assemble_dg(mesh, grid, kernel, random_sigmas(rng, nx * ny, p, 20.0), p)
    ang = np.arange(system.n_dofs) % na
    p_dense = system.matrix.toarray() * (ang[:, None] == ang[None, :])
    r = rng.standard_normal(system.n_dofs)
    x_ref = np.linalg.solve(p_dense, r)
    x = system.preconditioner().sweep(r)
    assert np.abs(x - x_ref).max() < 1e-12 * np.abs(x_ref).max()


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 4), ny=st.integers(1, 4), p=st.integers(1, 3),
       na=st.sampled_from([4, 8]), seed=st.integers(0, 2 ** 32 - 1),
       conservative=st.booleans())
def test_coarse_correction_balances_every_element(nx, ny, p, na, seed, conservative):
    # rectangular elements, albedo below 1 or (conservative) exactly 1: after
    # the correction every element's summed balance holds, and the coarse
    # matrix built from A's pieces is E^T A E
    rng = np.random.default_rng(seed)
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, rng.uniform(0, 0.9))
    mesh = build_mesh(rng.uniform(0.5, 3) * nx, rng.uniform(0.5, 3) * ny, nx, ny)
    sigmas = random_sigmas(rng, nx * ny, p, 20.0)
    if conservative:
        sigmas = [SigmaField(sig.sigma_e, sig.sigma_e) for sig in sigmas]
    system = dgm.assemble_dg(mesh, grid, kernel, sigmas, p)
    n_el, n_vol = mesh.n_elems, system.n_dofs // mesh.n_elems
    a_c = system.matrix.toarray().reshape(n_el, n_vol, n_el, n_vol).sum(axis=(1, 3))
    built = dgm.coarse_matrix(system)
    assert np.abs(built.toarray() - a_c).max() <= 1e-12 * np.abs(a_c).max()
    assert np.diff(built.indptr).max() <= 5
    r = rng.standard_normal(system.n_dofs)
    x = system.preconditioner().solve(r)
    balance = (r - system.matrix @ x).reshape(n_el, n_vol).sum(axis=1)
    assert np.abs(balance).max() <= 1e-12 * np.linalg.norm(r.reshape(n_el, n_vol).sum(axis=1))


def test_singular_coarse_matrix_is_solver_failure():
    with pytest.raises(SolverFailure, match="coarse"):
        dgm._factor_coarse(scipy.sparse.csr_matrix((3, 3)))


def test_sweep_blocks_are_local_angle_blocks():
    rng = np.random.default_rng(12)
    p, na = 3, 8
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, 0.8)
    mesh = build_mesh(3.0, 1.0, 3, 2)
    sigmas = random_sigmas(rng, 6, p, 50.0)
    system = dgm.assemble_dg(mesh, grid, kernel, sigmas, p)
    n_sp = (p + 1) ** 2
    blocks = dgm.sweep_blocks(system, np.arange(6 * na)).reshape(6, na, n_sp, n_sp)
    for e, sig in enumerate(sigmas):
        a_local = assemble_local(sig, grid, kernel, (mesh.hx, mesh.hy)).dense()
        a_local = a_local.reshape(n_sp, na, n_sp, na)
        for a in range(na):
            ref = a_local[:, a, :, a]
            assert np.abs(blocks[e, a] - ref).max() < 1e-14 * np.abs(ref).max()
    sweep = system.preconditioner()
    assert sweep.U.nnz == 6 * na * n_sp ** 2
    assert sweep.L.nnz == system.coupling.nnz > 0


def test_singular_sweep_block_names_element_and_angle():
    # sigma_s > sigma_e can make a block singular: on a 2 x 2 element (unit
    # volume scale) the angle-0 block is T_0 + diag(w2) (sigma_e w_0 -
    # sigma_s K_00), singular when sigma_s K_00 - sigma_e w_0 is a real
    # eigenvalue of diag(w2)^-1 T_0
    p, na = 1, 4
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, 0.5)
    ref = reference_kernels(p, grid)
    n_sp = (p + 1) ** 2
    angle0 = ref.position[np.arange(n_sp) * na]  # base is in [J | I] order
    t0 = ref.transport_base(2.0, 2.0)[np.ix_(angle0, angle0)]
    eig = np.linalg.eigvals(t0 / ref.w2[:, None])
    mu = eig[np.abs(eig.imag) < 1e-12].real.min()
    ones = np.ones((p + 1, p + 1))
    sigmas = [SigmaField(ones, ones), SigmaField(0 * ones, mu / kernel.kernel[0, 0] * ones)]
    system = dgm.assemble_dg(build_mesh(4.0, 2.0, 2, 1), grid, kernel, sigmas, p,
                             g=beam_bc(grid, 0))
    blocks = dgm.sweep_blocks(system, np.arange(2 * na)).reshape(2, na, n_sp, n_sp)
    singular = [a for a in range(na) if np.linalg.cond(blocks[1, a]) > 1e14]
    assert 0 in singular
    assert all(np.linalg.cond(blocks[0, a]) < 1e3 for a in range(na))
    with pytest.raises(SolverFailure) as err:
        dgm.solve_dg(system)
    assert any(f"element 1, angle {a}" in str(err.value) for a in singular)


def test_sweep_inverses_bitwise_equal_across_workers(monkeypatch, set_workers):
    # slices of the block stack inverted on 1, 2 and 4 threads give the bits
    # and the memory layout of one np.linalg.inv call, and the same sweep
    rng = np.random.default_rng(13)
    p, na = 3, 8
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, 0.8)
    mesh = build_mesh(3.0, 2.0, 3, 2)
    system = dgm.assemble_dg(mesh, grid, kernel, random_sigmas(rng, 6, p, 20.0), p)
    ids = np.arange(mesh.n_elems * na)
    blocks = dgm.sweep_blocks(system, ids)
    want = np.linalg.inv(blocks)
    r = rng.standard_normal(system.n_dofs)
    set_workers(1)
    want_x = dgm.UpwindSweep(system).solve(r)
    monkeypatch.setattr(dgm, "_SPLIT_INVERT_WORK", 1)
    for workers in (1, 2, 4):
        set_workers(workers)
        got = dgm._invert_blocks(blocks, *np.divmod(ids, na))
        assert got.strides == want.strides and got.tobytes() == want.tobytes()
        assert dgm.UpwindSweep(system).solve(r).tobytes() == want_x.tobytes()


@pytest.mark.parametrize("kind", ["zero pivot", "ill-conditioned"])
def test_singular_block_named_from_any_slice(monkeypatch, set_workers, kind):
    # on four threads the failing block sits in the last slice; the error
    # still names its element and angle
    monkeypatch.setattr(dgm, "_SPLIT_INVERT_WORK", 1)
    set_workers(4)
    rng = np.random.default_rng(2)
    na = 4
    blocks = np.eye(4) + 0.1 * rng.standard_normal((20, 4, 4))
    if kind == "zero pivot":
        blocks[17] = 0.0
    else:
        blocks[17, :, 0] *= 1e-16
    with pytest.raises(SolverFailure, match="element 4, angle 1"):
        dgm._invert_blocks(blocks, *np.divmod(np.arange(20), na))


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 4), ny=st.integers(1, 4), p=st.integers(1, 3),
       na=st.sampled_from([4, 8, 12]), seed=st.integers(0, 2 ** 32 - 1))
def test_assembly_matches_dense_oracle(nx, ny, p, na, seed):
    rng = np.random.default_rng(seed)
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, rng.uniform(0, 0.9))
    mesh = build_mesh(rng.uniform(0.5, 3) * nx, rng.uniform(0.5, 3) * ny, nx, ny)
    sigmas = random_sigmas(rng, nx * ny, p, 20.0)
    # forcing on some elements, isotropic or per angle
    shapes = [None, (p + 1, p + 1), (p + 1, p + 1, na)]
    f = [None if k == 0 else rng.standard_normal(shapes[k])
         for k in rng.integers(0, 3, nx * ny)]
    c = rng.standard_normal(5)

    def g(x, y, theta, normal):
        return (c[0] * np.sin(x + c[1] * y) + np.cos(theta + c[2])
                + c[3] * normal[0] + c[4] * normal[1])

    system = dgm.assemble_dg(mesh, grid, kernel, sigmas, p, f=f, g=g)
    a_ref, b_ref = oracle_dg(mesh, grid, kernel, sigmas, p, f=f, g=g)
    assert np.abs(system.matrix.toarray() - a_ref).max() <= 1e-13 * np.abs(a_ref).max()
    assert np.abs(system.b - b_ref).max() <= 1e-13 * np.abs(b_ref).max()


def test_gmres_matches_dense_with_scattering():
    rng = np.random.default_rng(8)
    p, na = 2, 4
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, 0.8)
    mesh = build_mesh(3.0, 2.0, 2, 2)
    sigmas = [SigmaField.from_scattering(rng.uniform(0, 5, (p + 1, p + 1)), 1.0)
              for _ in range(4)]
    system = dgm.assemble_dg(mesh, grid, kernel, sigmas, p, g=beam_bc(grid, 3))
    u_it, _ = dgm.solve_dg(system, tol=1e-12)
    u_ref = np.linalg.solve(system.matrix.toarray(), system.b)
    assert np.abs(u_it - u_ref).max() < 1e-9 * np.abs(u_ref).max()


def test_reported_residual_is_true_residual():
    # right preconditioning leaves GMRES's residual that of A u = b
    rng = np.random.default_rng(17)
    p, na = 2, 8
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, 0.8)
    mesh = build_mesh(3.0, 2.0, 3, 2)
    sigmas = [SigmaField(sigma_e=se, sigma_s=0.9 * se)
              for se in rng.uniform(0, 4, (mesh.n_elems, p + 1, p + 1))]
    system = dgm.assemble_dg(mesh, grid, kernel, sigmas, p, g=beam_bc(grid, 6))
    tol = 1e-6
    u, info = dgm.solve_dg(system, tol=tol)
    true = np.linalg.norm(system.b - system.matrix @ u) / np.linalg.norm(system.b)
    assert info.iterations > 1
    assert info.residuals[-1] <= tol
    assert abs(info.residuals[-1] - true) < 1e-12


def test_forcing_enters_rhs():
    grid = build_angular_grid(4)
    kernel = scattering_kernel_matrix(grid, 0.5)
    mesh = build_mesh(1.0, 1.0, 1, 1)
    p = 1
    f = [np.ones((2, 2))]
    system = dgm.assemble_dg(mesh, grid, kernel, [const_sigma(p, 1, 0)], p, f=f)
    np.testing.assert_allclose(system.b, forcing_vector(f[0], p, grid, (1.0, 1.0)),
                               atol=1e-15)


def test_mismatched_sigma_count():
    grid = build_angular_grid(4)
    kernel = scattering_kernel_matrix(grid, 0.5)
    mesh = build_mesh(2.0, 1.0, 2, 1)
    with pytest.raises(ValueError):
        dgm.assemble_dg(mesh, grid, kernel, [const_sigma(1, 0, 0)], 1)
