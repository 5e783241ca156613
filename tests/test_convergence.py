"""Order of convergence under a manufactured solution (Roache, J. Fluids Eng. 124, 2002).

Each angular element a carries a smooth u_a(x, y). The forcing that makes it
the exact solution of the angle-discrete problem is

    f_a = (cos_int_a / w_a) du_a/dx + (sin_int_a / w_a) du_a/dy
          + sigma_e u_a - sigma_s sum_b transfer[a, b] u_b,

passed per node and angle, and the inflow data is u_a itself. What remains
is the spatial error of the degree-p elements, which falls at order p + 1.

hdg-el takes no part: the surrogate predicts no forcing response (its
fhat_u and f_mean are zero), so it cannot solve a forced problem.
"""

import numpy as np
import pytest

from rthdg import dg as dgm
from rthdg.angular import build_angular_grid, scattering_kernel_matrix
from rthdg.hybrid import assemble_hybrid, project_boundary, recover_solution, solve_hybrid
from rthdg.local import SigmaField, solve_element
from rthdg.mesh import build_mesh, element_node_coords, skeleton_numbering
from rthdg.surrogate import output_size, unflatten_operators

N_A, ALBEDO, G_ASYM = 8, 0.8, 0.8
GRID = build_angular_grid(N_A)
KERNEL = scattering_kernel_matrix(GRID, G_ASYM)
THETA = GRID.midpoints
KX, KY = 1.1, 0.7
DEGREES = (1, 2, 3)
LEVELS = (0, 1, 2)


def exact(x, y):
    """u_a(x, y), shape x.shape + (N_a,)."""
    x, y = np.asarray(x)[..., None], np.asarray(y)[..., None]
    return 1.5 + 0.5 * np.cos(THETA) + np.sin(KX * x + THETA) * np.cos(KY * y + 2 * THETA)


def forcing(x, y):
    """f_a(x, y), shape x.shape + (N_a,)."""
    u = exact(x, y)
    s = sigma_s(x, y)[..., None]
    x, y = x[..., None], y[..., None]
    u_x = KX * np.cos(KX * x + THETA) * np.cos(KY * y + 2 * THETA)
    u_y = -KY * np.sin(KX * x + THETA) * np.sin(KY * y + 2 * THETA)
    return (GRID.cos_int / GRID.widths * u_x + GRID.sin_int / GRID.widths * u_y
            + s / ALBEDO * u - s * u @ KERNEL.transfer.T)


def sigma_s(x, y):
    return 1.6 * (1.0 + 0.5 * np.sin(x) * np.cos(y))


def inflow(x, y, theta, normal):
    return exact(x, y)[int(theta // GRID.widths[0])]


def nodal_errors(p, level):
    """Relative nodal l2 errors of DG and hdg at rtol 1e-12 on a 3(l+1) x 2(l+1) mesh."""
    mesh = build_mesh(3.0, 2.0, 3 * (level + 1), 2 * (level + 1))
    xs, ys = element_node_coords(mesh, p)
    x, y = np.broadcast_arrays(xs[:, :, None], ys[:, None, :])  # [e, ix, iy]
    sigmas = [SigmaField.from_scattering(sigma_s(x[e], y[e]), ALBEDO)
              for e in range(mesh.n_elems)]
    f = forcing(x, y)
    want = exact(x, y).reshape(mesh.n_elems, -1)  # node-major (node, angle) DOFs

    u_dg, _ = dgm.solve_dg(dgm.assemble_dg(mesh, GRID, KERNEL, sigmas, p, f=f, g=inflow),
                           tol=1e-12)
    index = skeleton_numbering(mesh, GRID, p)
    ops = unflatten_operators(np.empty((mesh.n_elems, output_size(p, p, N_A))), p, p, N_A)
    for e in range(mesh.n_elems):
        ops[e] = solve_element(sigmas[e], GRID, KERNEL, (mesh.hx, mesh.hy), f=f[e],
                               element_index=e)
    uhat, _ = solve_hybrid(assemble_hybrid(index, ops), project_boundary(inflow, index),
                           tol=1e-12)
    u_hdg = recover_solution(uhat, index, sigmas, KERNEL, f)
    norm = np.linalg.norm(want)
    return {"dg": np.linalg.norm(u_dg.reshape(want.shape) - want) / norm,
            "hdg": np.linalg.norm(u_hdg - want) / norm}


@pytest.fixture(scope="module")
def errors():
    return {(p, level): nodal_errors(p, level) for p in DEGREES for level in LEVELS}


@pytest.mark.parametrize("method", ["dg", "hdg"])
@pytest.mark.parametrize("p", DEGREES)
def test_order_of_convergence_in_h(errors, method, p):
    # h falls by 3/2 from level 1 to level 2 (p=1..3 read 1.74, 2.83, 3.84)
    e1, e2 = errors[p, 1][method], errors[p, 2][method]
    assert np.log(e1 / e2) / np.log(1.5) >= p + 0.5


@pytest.mark.parametrize("method", ["dg", "hdg"])
@pytest.mark.parametrize("level", LEVELS)
def test_error_falls_with_degree(errors, method, level):
    # at level 0 the error falls 8x from p=1 to 2 and 15x from p=2 to 3
    errs = [errors[p, level][method] for p in DEGREES]
    assert all(coarse > 5.0 * fine for coarse, fine in zip(errs, errs[1:]))
