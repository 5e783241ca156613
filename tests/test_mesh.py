import numpy as np
import pytest

from rthdg.angular import build_angular_grid
from rthdg.basis import lgl_quadrature
from rthdg.mesh import (ElementTraceMap, build_mesh, refinement_schedule,
                        skeleton_numbering)


def test_face_count_formula():
    mesh = build_mesh(3.0, 2.0, 6, 4)
    assert mesh.n_elems == 24
    assert mesh.n_faces == 2 * 24 + 6 + 4 == 58


def test_single_element_mesh():
    mesh = build_mesh(1.0, 1.0, 1, 1)
    assert mesh.n_faces == 4
    assert np.all(mesh.boundary_faces)


def test_interior_faces_have_two_elements():
    mesh = build_mesh(2.0, 2.0, 3, 3)
    interior = ~mesh.boundary_faces
    assert np.all(mesh.face_minus[interior] >= 0)
    assert np.all(mesh.face_plus[interior] >= 0)
    assert interior.sum() == mesh.n_faces - (2 * 3 + 2 * 3)


def test_square_elements_under_schedule():
    for level in range(5):
        nx, ny = refinement_schedule("idealized", level)
        mesh = build_mesh(3.0, 2.0, nx, ny)
        assert abs(mesh.hx - mesh.hy) < 1e-15


def test_refinement_schedule_values():
    assert refinement_schedule("idealized", 0) == (6, 4)
    assert refinement_schedule("idealized", 4) == (18, 12)
    assert refinement_schedule("idealized", 10) == (36, 24)
    assert refinement_schedule("i3rc", 0) == (26, 2)
    assert refinement_schedule("i3rc", 10) == (156, 12)
    with pytest.raises(ValueError):
        refinement_schedule("nope", 0)
    with pytest.raises(ValueError):
        refinement_schedule("idealized", -1)


def test_invalid_mesh_inputs():
    with pytest.raises(ValueError):
        build_mesh(0.0, 1.0, 2, 2)
    with pytest.raises(ValueError):
        build_mesh(1.0, 1.0, 0, 2)


def test_hybrid_dof_counts_full_scale():
    grid = build_angular_grid(28)
    mesh1 = build_mesh(2.0, 2.0, 1, 1)
    index1 = skeleton_numbering(mesh1, grid, 6)
    assert index1.n_dofs == 4 * 7 * 28 == 784
    assert index1.elem_inflow.shape == (1, 392)
    assert index1.elem_outflow.shape == (1, 392)
    mesh2 = build_mesh(2.0, 1.0, 2, 1)
    index2 = skeleton_numbering(mesh2, grid, 6)
    assert index2.n_dofs == 7 * 7 * 28 == 1372


def test_trace_map_slot_counts():
    grid = build_angular_grid(8)
    tm = ElementTraceMap(3, grid)
    assert tm.n_in == tm.n_out == 2 * 4 * 8
    # angular index varies fastest within a face node
    assert tm.inflow_ang[0] < tm.inflow_ang[1]
    assert np.all(tm.inflow_flux < 0)
    assert np.all(tm.outflow_flux > 0)


def test_shared_face_dofs():
    # owner's outflow DOFs on an interior face are the neighbor's inflow DOFs
    grid = build_angular_grid(4)
    mesh = build_mesh(2.0, 1.0, 2, 1)
    index = skeleton_numbering(mesh, grid, 2)
    out0 = set(index.elem_outflow[0])
    in1 = set(index.elem_inflow[1])
    shared_face = mesh.elem_faces[0, 1]  # right face of element 0
    n_per_face = (2 + 1) * 4
    face_dofs = set(range(shared_face * n_per_face, (shared_face + 1) * n_per_face))
    assert face_dofs & out0 == face_dofs & in1
    assert len(face_dofs & out0) == n_per_face // 2


def test_gather_involution():
    # scattering outflow values to the skeleton and gathering back is identity
    rng = np.random.default_rng(0)
    grid = build_angular_grid(8)
    mesh = build_mesh(3.0, 2.0, 3, 2)
    index = skeleton_numbering(mesh, grid, 2)
    vals = rng.standard_normal(index.elem_outflow.shape)
    skel = np.zeros(index.n_dofs)
    skel[index.elem_outflow] = vals
    np.testing.assert_array_equal(skel[index.elem_outflow], vals)


def test_free_dofs_are_exactly_the_outflow_slots():
    grid = build_angular_grid(8)
    mesh = build_mesh(3.0, 2.0, 3, 2)
    index = skeleton_numbering(mesh, grid, 3)
    flat = index.elem_outflow.reshape(-1)
    assert np.unique(flat).size == flat.size  # each free DOF owned once
    free = np.nonzero(~index.dirichlet_mask)[0]
    assert np.array_equal(np.sort(flat), free)


def test_trace_continuity():
    # a globally continuous function receives one value per hybrid DOF
    # regardless of which incident element samples it
    grid = build_angular_grid(4)
    p = 3
    q = lgl_quadrature(p)
    mesh = build_mesh(2.0, 2.0, 2, 2)
    index = skeleton_numbering(mesh, grid, p)
    tm = index.tracemap

    def fun(x, y, a):
        return np.sin(x + 0.3) * np.cos(y) + 0.1 * a

    sampled = {}
    for e in range(mesh.n_elems):
        x0, y0 = mesh.elem_origin(e)
        xs = x0 + 0.5 * mesh.hx * (q.nodes + 1.0)
        ys = y0 + 0.5 * mesh.hy * (q.nodes + 1.0)
        for slots, faces, nodes, angs in (
                (index.elem_inflow[e], tm.inflow_face, tm.inflow_node, tm.inflow_ang),
                (index.elem_outflow[e], tm.outflow_face, tm.outflow_node, tm.outflow_ang)):
            for dof, lf, j, a in zip(slots, faces, nodes, angs):
                if lf == 0:
                    x, y = xs[0], ys[j]
                elif lf == 1:
                    x, y = xs[-1], ys[j]
                elif lf == 2:
                    x, y = xs[j], ys[0]
                else:
                    x, y = xs[j], ys[-1]
                val = fun(x, y, a)
                if dof in sampled:
                    assert abs(sampled[dof] - val) < 1e-13
                else:
                    sampled[dof] = val
    assert len(sampled) == index.n_dofs


def test_boundary_inflow_records_cover_dirichlet():
    grid = build_angular_grid(8)
    mesh = build_mesh(3.0, 2.0, 3, 2)
    index = skeleton_numbering(mesh, grid, 2)
    recs = index.boundary_inflow_records()
    dofs = sorted(r[0] for r in recs)
    assert np.array_equal(np.asarray(dofs), np.nonzero(index.dirichlet_mask)[0])
    for dof, x, y, theta, normal in recs:
        on_boundary = (abs(x) < 1e-14 or abs(x - 3.0) < 1e-14
                       or abs(y) < 1e-14 or abs(y - 2.0) < 1e-14)
        assert on_boundary
        # inflow: s . n < 0 at the angular midpoint
        assert normal[0] * np.cos(theta) + normal[1] * np.sin(theta) < 0


def _face_loop_records(index):
    """The boundary records as a loop over faces, nodes and angles: the reference."""
    mesh, grid, p = index.mesh, index.grid, index.p
    n1, na = p + 1, grid.n_elems
    q = lgl_quadrature(p)
    recs = []
    for f in np.nonzero(mesh.boundary_faces)[0]:
        sign = 1.0 if mesh.face_minus[f] >= 0 else -1.0
        normal = (sign, 0.0) if mesh.face_axis[f] == 0 else (0.0, sign)
        fixed_coord, span_start = mesh.face_span(f)
        h_span = mesh.hy if mesh.face_axis[f] == 0 else mesh.hx
        coords = span_start + 0.5 * h_span * (q.nodes + 1.0)
        for j in range(n1):
            x, y = (fixed_coord, coords[j]) if mesh.face_axis[f] == 0 else (coords[j], fixed_coord)
            for a in np.nonzero(~grid.outflow_mask(normal))[0]:
                recs.append((f * n1 * na + j * na + a, x, y, grid.midpoints[a], normal))
    return recs


@pytest.mark.parametrize("lx, ly, nx, ny, p, na", [
    (3.0, 2.0, 3, 2, 2, 8),
    (3.0, 2.0, 9, 6, 6, 28),      # paper level 1
    (6.5, 0.5, 39, 3, 3, 12),     # i3rc-like strip
])
def test_boundary_inflow_records_equal_the_face_loop(lx, ly, nx, ny, p, na):
    index = skeleton_numbering(build_mesh(lx, ly, nx, ny), build_angular_grid(na), p)
    got = index.boundary_inflow_records()
    want = _face_loop_records(index)
    assert len(got) == len(want) == int(index.dirichlet_mask.sum())
    for g, w in zip(got, want):
        assert g[0] == w[0] and g[4] == w[4]
        assert [float(v).hex() for v in g[1:4]] == [float(v).hex() for v in w[1:4]]
