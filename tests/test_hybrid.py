import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rthdg import bench
from rthdg import dg as dgm
from rthdg import pool
from rthdg.angular import build_angular_grid, scattering_kernel_matrix
from rthdg.cases import default_config
from rthdg.errors import SolverFailure
from rthdg.hybrid import (ElementNodalField, HybridSystem, SkeletonState, assemble_hybrid,
                          project_boundary, recover_mean_intensity,
                          recover_solution, relative_l2_error, solve_hybrid)
from rthdg.local import SigmaField, solve_element
from rthdg.mesh import build_mesh, skeleton_numbering
from rthdg.surrogate import output_size, unflatten_operators


def zero_sigma(p):
    return SigmaField(np.zeros((p + 1, p + 1)), np.zeros((p + 1, p + 1)))


def label_rows(n_elems, p, na, rows=None):
    """ElementOperators over a fresh label-layout stack (rows: its values, else empty)."""
    if rows is None:
        rows = np.empty((n_elems, output_size(p, p, na)))
    return unflatten_operators(rows, p, p, na)


def exact_ops(mesh, grid, kernel, sigmas, f=None):
    """Exact operators of the elements of sigmas (on mesh's element size)."""
    h = (mesh.hx, mesh.hy)
    p = sigmas[0].sigma_s.shape[0] - 1
    ops = label_rows(len(sigmas), p, grid.n_elems)
    for e, sigma in enumerate(sigmas):
        ops[e] = solve_element(sigma, grid, kernel, h,
                               f=None if f is None else f[e], element_index=e)
    return ops


def beam_bc(grid, a_star, amp=1.0, lit=None):
    lo, hi = grid.boundaries[a_star], grid.boundaries[a_star + 1]

    def g(x, y, theta, normal):
        if lit is not None and (float(normal[0]), float(normal[1])) not in lit:
            return 0.0
        return amp if lo <= theta < hi else 0.0

    return g


def test_project_boundary_constant_element():
    grid = build_angular_grid(8)
    mesh = build_mesh(2.0, 2.0, 2, 2)
    index = skeleton_numbering(mesh, grid, 2)
    a_star = 5
    bc = project_boundary(beam_bc(grid, a_star), index)
    tm = index.tracemap
    fixed = np.nonzero(bc.dirichlet_mask)[0]
    assert set(np.nonzero(bc.values)[0]) <= set(fixed)
    # every Dirichlet DOF in the beam element carries 1, all others 0
    n_per_face = 3 * 8
    for dof in fixed:
        a = dof % 8
        assert bc.values[dof] == (1.0 if a == a_star else 0.0)
    # outflow-boundary DOFs stay free
    assert np.all(~bc.dirichlet_mask[index.elem_outflow.reshape(-1)])
    assert tm.n_in == index.elem_inflow.shape[1]


def test_collimated_beam_projection_value():
    # collimated beam: 28/(2 pi) on the angular element covering
    # (2 pi 22/28, 2 pi 23/28), lit on top and left faces only
    grid = build_angular_grid(28)
    mesh = build_mesh(3.0, 2.0, 3, 2)
    index = skeleton_numbering(mesh, grid, 6)
    amp = 28 / (2 * np.pi)
    g = beam_bc(grid, 22, amp=amp, lit={(0.0, 1.0), (-1.0, 0.0)})
    bc = project_boundary(g, index)
    nz = np.nonzero(bc.values)[0]
    assert nz.size > 0
    np.testing.assert_allclose(bc.values[nz], amp)
    assert np.all(nz % 28 == 22)


def test_single_element_action():
    grid = build_angular_grid(4)
    kernel = scattering_kernel_matrix(grid, 0.5)
    mesh = build_mesh(2.0, 2.0, 1, 1)
    index = skeleton_numbering(mesh, grid, 2)
    ops = exact_ops(mesh, grid, kernel, [zero_sigma(2)])
    system = assemble_hybrid(index, ops)
    # free DOFs are exactly the outflow-boundary traces
    assert system.n_free == index.elem_outflow.shape[1]
    bc = project_boundary(beam_bc(grid, 0), index)
    uhat, info = solve_hybrid(system, bc, tol=1e-12)
    uin = uhat.values[index.elem_inflow[0]]
    expected = ops[0].a_i2o @ uin + ops[0].fhat_u
    np.testing.assert_allclose(uhat.values[index.elem_outflow[0]], expected,
                               atol=1e-12)


def test_linear_part_at_zero_is_zero():
    grid = build_angular_grid(4)
    kernel = scattering_kernel_matrix(grid, 0.5)
    mesh = build_mesh(2.0, 1.0, 2, 1)
    index = skeleton_numbering(mesh, grid, 1)
    system = assemble_hybrid(index, exact_ops(mesh, grid, kernel,
                                              [zero_sigma(1)] * 2))
    assert np.abs(system.linear_action(np.zeros(system.n_free))).max() == 0.0


def test_skeleton_apply_matches_element_loop():
    # random 3x2 mesh with forcing (fhat_u != 0) and random Dirichlet data:
    # the batched skeleton apply, right-hand side and mean-intensity recovery
    # equal a per-element loop over every slot (corner slots appear twice
    # per element, once per face)
    rng = np.random.default_rng(5)
    p, na = 2, 8
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, 0.8)
    mesh = build_mesh(3.0, 2.0, 3, 2)
    index = skeleton_numbering(mesh, grid, p)
    sigmas = [SigmaField.from_scattering(rng.uniform(0, 4, (p + 1, p + 1)), 0.9)
              for _ in range(mesh.n_elems)]
    f = [rng.uniform(0, 1, (p + 1, p + 1)) for _ in range(mesh.n_elems)]
    ops = exact_ops(mesh, grid, kernel, sigmas, f=f)
    assert min(np.abs(o.fhat_u).max() for o in ops) > 0
    tm = index.tracemap
    assert np.unique(tm.outflow_vol).size < tm.n_out
    system = assemble_hybrid(index, ops)
    free = ~index.dirichlet_mask
    fi = index.free_index

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    v = rng.standard_normal(system.n_free)
    u = np.zeros(index.n_dofs)
    u[free] = v
    want = np.full(system.n_free, np.nan)
    for e in range(mesh.n_elems):
        y = ops[e].a_i2o @ u[index.elem_inflow[e]]
        for k, dof in enumerate(index.elem_outflow[e]):
            want[fi[dof]] = v[fi[dof]] - y[k]
    assert not np.isnan(want).any()
    close(system.linear_action(v), want)

    # values on free DOFs must be ignored by the right-hand side
    bc = SkeletonState(values=rng.uniform(0, 1, index.n_dofs),
                       dirichlet_mask=index.dirichlet_mask.copy())
    ug = np.where(index.dirichlet_mask, bc.values, 0.0)
    want = np.full(system.n_free, np.nan)
    for e in range(mesh.n_elems):
        y = ops[e].a_i2o @ ug[index.elem_inflow[e]] + ops[e].fhat_u
        for k, dof in enumerate(index.elem_outflow[e]):
            want[fi[dof]] = y[k]
    assert not np.isnan(want).any()
    close(system.rhs(bc), want)

    uhat = SkeletonState(values=rng.standard_normal(index.n_dofs),
                         dirichlet_mask=index.dirichlet_mask.copy())
    want = np.stack([ops[e].a_i2m @ uhat.values[index.elem_inflow[e]] + ops[e].f_mean
                     for e in range(mesh.n_elems)])
    close(recover_mean_intensity(uhat, ops, index).values.reshape(mesh.n_elems, -1), want)


def test_skeleton_apply_bitwise_equal_across_workers(monkeypatch, set_workers):
    # with forcing and random Dirichlet data: the skeleton apply, right-hand
    # side and recovery split over element blocks give the bits of one
    # batched product, from label rows with a gap between them too
    rng = np.random.default_rng(9)
    p, na = 2, 8
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, 0.8)
    mesh = build_mesh(3.0, 2.0, 3, 2)
    index = skeleton_numbering(mesh, grid, p)
    sigmas = [SigmaField.from_scattering(rng.uniform(0, 4, (p + 1, p + 1)), 0.9)
              for _ in range(mesh.n_elems)]
    f = [rng.uniform(0, 1, (p + 1, p + 1)) for _ in range(mesh.n_elems)]
    stacked = exact_ops(mesh, grid, kernel, sigmas, f=f)
    rows = np.zeros((mesh.n_elems, output_size(p, p, na) + 1))[:, 1:]
    rows[:] = stacked.a_i2o.base
    strided = label_rows(mesh.n_elems, p, na, rows)
    strided.fhat_u[:] = stacked.fhat_u
    strided.f_mean[:] = stacked.f_mean
    v = rng.standard_normal(index.n_free)
    bc = SkeletonState(values=rng.uniform(0, 1, index.n_dofs),
                       dirichlet_mask=index.dirichlet_mask.copy())
    uhat = SkeletonState(values=rng.standard_normal(index.n_dofs),
                         dirichlet_mask=index.dirichlet_mask.copy())

    def outputs(ops, workers):
        set_workers(workers)
        system = assemble_hybrid(index, ops)
        return [system.linear_action(v).tobytes(), system.rhs(bc).tobytes(),
                recover_mean_intensity(uhat, ops, index).values.tobytes(),
                system.preconditioner().blocks.tobytes(),
                solve_hybrid(system, bc, tol=1e-10)[0].values.tobytes()]

    want = outputs(stacked, 1)  # one block: below pool.MIN_BLOCK_WORK
    monkeypatch.setattr(pool, "MIN_BLOCK_WORK", 1)  # one element is enough for a block
    for workers in (1, 2, 4):
        assert outputs(stacked, workers) == want
        assert outputs(strided, workers) == want


def skeleton_matrix(system):
    """Dense I - A on the free DOFs, one linear_action per column."""
    return np.stack([system.linear_action(col) for col in np.eye(system.n_free)], axis=1)


def same_quadrant(index):
    """Mask of free-DOF pairs whose angles share the signs of cos and sin."""
    grid = index.grid
    quadrant = 2 * (grid.cos_int > 0) + (grid.sin_int > 0)
    q = quadrant[np.flatnonzero(~index.dirichlet_mask) % grid.n_elems]
    return q[:, None] == q[None, :]


def random_ops(rng, index):
    """Random in2out blocks of norm about 1 (the other operators zero)."""
    n_el, n = index.mesh.n_elems, index.tracemap.n_in
    ops = label_rows(n_el, index.p, index.grid.n_elems,
                     np.zeros((n_el, output_size(index.p, index.p, index.grid.n_elems))))
    ops.a_i2o[:] = rng.standard_normal((n_el, n, n)) / n
    return ops


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 4), ny=st.integers(1, 4), p=st.integers(1, 3),
       na=st.sampled_from([4, 8]), seed=st.integers(0, 2 ** 32 - 1))
def test_skeleton_sweep_is_exact_inverse_of_quadrant_blocks(nx, ny, p, na, seed):
    # P = I - A_qq keeps A's couplings between angles of one quadrant; the sweep applies P^-1
    rng = np.random.default_rng(seed)
    grid = build_angular_grid(na)
    mesh = build_mesh(float(nx), float(ny), nx, ny)
    index = skeleton_numbering(mesh, grid, p)
    system = assemble_hybrid(index, random_ops(rng, index))
    a = np.eye(system.n_free) - skeleton_matrix(system)
    r = rng.standard_normal(system.n_free)
    x_ref = np.linalg.solve(np.eye(system.n_free) - a * same_quadrant(index), r)
    x = system.preconditioner().solve(r)
    assert np.abs(x - x_ref).max() < 1e-12 * np.abs(x_ref).max()


def scattering_system(sigma_s_scale, seed=17):
    """3 x 2 mesh, p = 2, N_a = 8, random coefficients, beam data."""
    rng = np.random.default_rng(seed)
    p, na = 2, 8
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, 0.8)
    mesh = build_mesh(3.0, 2.0, 3, 2)
    index = skeleton_numbering(mesh, grid, p)
    sigmas = [SigmaField(sigma_e=se, sigma_s=sigma_s_scale * se)
              for se in rng.uniform(0, 4, (mesh.n_elems, p + 1, p + 1))]
    system = assemble_hybrid(index, exact_ops(mesh, grid, kernel, sigmas))
    return system, project_boundary(beam_bc(grid, 6), index)


def test_sweep_is_exact_without_scattering():
    # sigma_s = 0: A couples each angle only to itself, so P = I - A and
    # the right-preconditioned operator is the identity
    system, bc = scattering_system(0.0)
    uhat, info = solve_hybrid(system, bc, tol=1e-10)
    assert info.iterations == 1
    i_minus_a = skeleton_matrix(system)
    assert np.array_equal(i_minus_a * same_quadrant(system.index), i_minus_a)


def test_reported_residual_is_true_residual():
    # right preconditioning leaves GMRES's residual that of (I - A) x = b
    system, bc = scattering_system(0.9)
    tol = 1e-6
    uhat, info = solve_hybrid(system, bc, tol=tol)
    b = system.rhs(bc)
    x = uhat.values[~system.index.dirichlet_mask]
    true = np.linalg.norm(b - system.linear_action(x)) / np.linalg.norm(b)
    assert info.iterations > 1
    assert info.residuals[-1] <= tol
    assert abs(info.residuals[-1] - true) < 1e-12


def test_solve_makes_no_dtype_probe_matvec(monkeypatch):
    # one linear action per GMRES iteration plus the initial residual; a
    # LinearOperator without a dtype would cost one more on a zero vector
    system, bc = scattering_system(0.9)
    calls = []
    action = HybridSystem.linear_action
    monkeypatch.setattr(HybridSystem, "linear_action",
                        lambda self, v: calls.append(1) or action(self, v))
    _, info = solve_hybrid(system, bc, tol=1e-6)
    assert 1 < info.iterations < 200  # one restart cycle
    assert len(calls) == info.iterations + 1


def test_desk_skeleton_solve_needs_few_iterations():
    # desk idealized-1 at level 4, cloud amplitude 10: 31 iterations without the sweep
    cfg = default_config("idealized-1", p=3, n_a=8, beam_index=7)
    report, _ = bench.run_case(cfg, "hdg", level=4)
    assert report.gmres_iters <= 8


def test_missing_element_operators():
    grid = build_angular_grid(4)
    kernel = scattering_kernel_matrix(grid, 0.5)
    mesh = build_mesh(2.0, 1.0, 2, 1)
    index = skeleton_numbering(mesh, grid, 1)
    with pytest.raises(ValueError):
        assemble_hybrid(index, exact_ops(mesh, grid, kernel, [zero_sigma(1)]))


def test_downstream_inflow_equals_upstream_outflow():
    # 2x1 mesh, sigma = 0, beam in a +x angular element
    grid = build_angular_grid(4)
    kernel = scattering_kernel_matrix(grid, 0.5)
    mesh = build_mesh(2.0, 1.0, 2, 1)
    index = skeleton_numbering(mesh, grid, 2)
    ops = exact_ops(mesh, grid, kernel, [zero_sigma(2)] * 2)
    system = assemble_hybrid(index, ops)
    bc = project_boundary(beam_bc(grid, 0), index)
    uhat, _ = solve_hybrid(system, bc, tol=1e-12)
    shared = mesh.elem_faces[0, 1]
    n_per_face = 3 * 4
    face_dofs = np.arange(shared * n_per_face, (shared + 1) * n_per_face)
    out0 = np.intersect1d(face_dofs, index.elem_outflow[0])
    in1 = np.intersect1d(face_dofs, index.elem_inflow[1])
    np.testing.assert_array_equal(out0, in1)
    beam_dofs = out0[out0 % 4 == 0]
    np.testing.assert_allclose(uhat.values[beam_dofs], 1.0, atol=1e-12)


def test_zero_data_zero_iterations():
    grid = build_angular_grid(4)
    kernel = scattering_kernel_matrix(grid, 0.5)
    mesh = build_mesh(1.0, 1.0, 1, 1)
    index = skeleton_numbering(mesh, grid, 1)
    system = assemble_hybrid(index, exact_ops(mesh, grid, kernel, [zero_sigma(1)]))
    bc = SkeletonState(values=np.zeros(index.n_dofs),
                       dirichlet_mask=index.dirichlet_mask.copy())
    uhat, info = solve_hybrid(system, bc, tol=1e-4)
    assert info.iterations == 0
    assert np.abs(uhat.values).max() == 0.0


def test_invalid_tolerance():
    grid = build_angular_grid(4)
    kernel = scattering_kernel_matrix(grid, 0.5)
    mesh = build_mesh(1.0, 1.0, 1, 1)
    index = skeleton_numbering(mesh, grid, 1)
    system = assemble_hybrid(index, exact_ops(mesh, grid, kernel, [zero_sigma(1)]))
    bc = project_boundary(beam_bc(grid, 0), index)
    with pytest.raises(ValueError):
        solve_hybrid(system, bc, tol=0.0)


def test_solver_failure_carries_residuals():
    # amplifying fake in2out blocks + unit restart make GMRES stagnate
    grid = build_angular_grid(4)
    kernel = scattering_kernel_matrix(grid, 0.5)
    mesh = build_mesh(2.0, 1.0, 2, 1)
    index = skeleton_numbering(mesh, grid, 1)
    n = index.elem_inflow.shape[1]
    rng = np.random.default_rng(3)
    bad = label_rows(2, 1, 4, np.zeros((2, output_size(1, 1, 4))))
    for e in range(2):
        bad.a_i2o[e] = 6.0 * rng.standard_normal((n, n))
    system = assemble_hybrid(index, bad)
    bc = project_boundary(beam_bc(grid, 0), index)
    with pytest.raises(SolverFailure) as err:
        solve_hybrid(system, bc, tol=1e-12, restart=1)
    assert len(err.value.residuals) > 0


def test_hdg_matches_dense_dg_small_instance():
    # rectangular elements, scattering, beam: mean intensities agree
    rng = np.random.default_rng(7)
    p, na = 2, 4
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, 0.8)
    mesh = build_mesh(3.0, 2.0, 2, 2)
    index = skeleton_numbering(mesh, grid, p)
    sigmas = [SigmaField.from_scattering(rng.uniform(0, 5, (p + 1, p + 1)), 1.0)
              for _ in range(mesh.n_elems)]
    g = beam_bc(grid, 3, amp=na / (2 * np.pi), lit={(0.0, 1.0), (-1.0, 0.0)})
    ops = exact_ops(mesh, grid, kernel, sigmas)
    uhat, _ = solve_hybrid(assemble_hybrid(index, ops),
                           project_boundary(g, index), tol=1e-12)
    m_hdg = recover_mean_intensity(uhat, ops, index)
    system = dgm.assemble_dg(mesh, grid, kernel, sigmas, p, g=g)
    u = np.linalg.solve(system.matrix.toarray(), system.b)
    m_dg = dgm.dg_mean_intensity(u, mesh, grid, p)
    assert relative_l2_error(m_hdg, m_dg) < 1e-8


def test_affine_consistency():
    # scaling boundary data and forcing scales the solution
    rng = np.random.default_rng(13)
    p, na, alpha = 2, 8, 3.7
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, 0.8)
    mesh = build_mesh(2.0, 2.0, 2, 2)
    index = skeleton_numbering(mesh, grid, p)
    sigmas = [SigmaField.from_scattering(rng.uniform(0, 3, (p + 1, p + 1)), 1.0)
              for _ in range(mesh.n_elems)]
    f = [rng.uniform(0, 1, (p + 1, p + 1)) for _ in range(mesh.n_elems)]
    g = beam_bc(grid, 5)

    def solve_scaled(s):
        fs = [s * fe for fe in f]
        ops = exact_ops(mesh, grid, kernel, sigmas, f=fs)
        bc = project_boundary(lambda x, y, t, n: s * g(x, y, t, n), index)
        uhat, _ = solve_hybrid(assemble_hybrid(index, ops), bc, tol=1e-12)
        return recover_solution(uhat, index, sigmas, kernel, f=fs)

    u1 = solve_scaled(1.0)
    ua = solve_scaled(alpha)
    assert np.abs(ua - alpha * u1).max() < 1e-9 * np.abs(ua).max()


def test_recover_mean_of_isotropic_constant():
    # all-directions unit inflow with sigma = 0 gives u == 1, mean == 1
    grid = build_angular_grid(8)
    kernel = scattering_kernel_matrix(grid, 0.8)
    mesh = build_mesh(2.0, 2.0, 2, 2)
    index = skeleton_numbering(mesh, grid, 2)
    ops = exact_ops(mesh, grid, kernel, [zero_sigma(2)] * 4)
    bc = project_boundary(lambda x, y, t, n: 1.0, index)
    uhat, _ = solve_hybrid(assemble_hybrid(index, ops), bc, tol=1e-12)
    m = recover_mean_intensity(uhat, ops, index)
    np.testing.assert_allclose(m.values, 1.0, atol=1e-10)


def test_global_energy_balance_small():
    # albedo 1, zero forcing: boundary outflow flux equals inflow flux
    # within max(10 tol, 1e-8) relative
    from rthdg.hybrid import boundary_fluxes
    rng = np.random.default_rng(31)
    p, na = 2, 8
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, 0.8)
    mesh = build_mesh(2.0, 2.0, 2, 2)
    index = skeleton_numbering(mesh, grid, p)
    sigmas = [SigmaField.from_scattering(rng.uniform(0, 4, (p + 1, p + 1)), 1.0)
              for _ in range(mesh.n_elems)]
    ops = exact_ops(mesh, grid, kernel, sigmas)
    bc = project_boundary(beam_bc(grid, 6), index)
    tol = 1e-9
    uhat, _ = solve_hybrid(assemble_hybrid(index, ops), bc, tol=tol)
    fin, fout = boundary_fluxes(uhat, index)
    assert abs(fout - fin) / fin <= max(10 * tol, 1e-8)


def make_field(nx, ny, p, fun):
    from rthdg.basis import lgl_quadrature
    mesh = build_mesh(3.0, 2.0, nx, ny)
    q = lgl_quadrature(p)
    vals = np.empty((mesh.n_elems, p + 1, p + 1))
    for e in range(mesh.n_elems):
        x0, y0 = mesh.elem_origin(e)
        xs = x0 + 0.5 * mesh.hx * (q.nodes + 1.0)
        ys = y0 + 0.5 * mesh.hy * (q.nodes + 1.0)
        vals[e] = fun(xs[:, None], ys[None, :])
    return ElementNodalField(mesh=mesh, p=p, values=vals)


def test_relative_l2_error_basics():
    fld = make_field(2, 2, 3, lambda x, y: np.sin(x) + y)
    assert relative_l2_error(fld, fld) == 0.0
    scaled = ElementNodalField(mesh=fld.mesh, p=fld.p, values=1.01 * fld.values)
    assert abs(relative_l2_error(scaled, fld) - 0.01) < 1e-12
    zero = ElementNodalField(mesh=fld.mesh, p=fld.p, values=0.0 * fld.values)
    with pytest.raises(ValueError):
        relative_l2_error(fld, zero)


def test_relative_l2_error_cross_mesh():
    # a degree-2 polynomial is represented exactly on both meshes, nested or not
    fun = lambda x, y: 1.0 + 0.5 * x - 0.25 * y + 0.125 * x * y
    coarse = make_field(2, 2, 2, fun)
    for nx, ny in ((6, 4), (7, 3)):
        fine = make_field(nx, ny, 2, fun)
        assert relative_l2_error(coarse, fine) < 1e-13
