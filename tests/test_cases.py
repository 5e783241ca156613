import json

import numpy as np
import pytest

from rthdg.angular import build_angular_grid
from rthdg.cases import (CloudParams, build_beam_bc, default_config,
                         idealized_sigma, ingest_cloud_raster, load_case_config,
                         sigma_nodal_fields, smooth_step)
from rthdg.errors import FormatError
from rthdg.hybrid import project_boundary
from rthdg.mesh import build_mesh, skeleton_numbering


def test_far_field_decay():
    val = idealized_sigma(0.0, 0.0, CloudParams())
    assert val < 1e-3 * CloudParams().amplitude


def test_scatterer_center_saturation():
    cloud = CloudParams()
    (cx, cy), (ox, oy) = cloud.centers
    d = np.hypot(cx - ox, cy - oy)
    expected = cloud.amplitude * (smooth_step(-cloud.radius / cloud.width)
                                  + smooth_step((d - cloud.radius) / cloud.width))
    assert abs(idealized_sigma(cx, cy, cloud) - expected) < 1e-6


def test_edge_sharpness_ratio():
    # case 2's radial slope at the cloud edge is w1/w2 = 4 times steeper
    cloud1, cloud2 = CloudParams(), CloudParams(width=0.03)
    cx, cy = cloud1.centers[0]
    r_edge = cx - cloud1.radius
    eps = 1e-6

    def slope(cloud):
        hi = idealized_sigma(r_edge + eps, cy, cloud)
        lo = idealized_sigma(r_edge - eps, cy, cloud)
        return (hi - lo) / (2 * eps)

    ratio = slope(cloud2) / slope(cloud1)
    assert abs(ratio - cloud1.width / cloud2.width) < 0.05 * 4


def test_out_of_domain_rejected():
    with pytest.raises(ValueError):
        idealized_sigma(3.5, 1.0, CloudParams())
    with pytest.raises(ValueError):
        idealized_sigma(1.0, -0.1, CloudParams())


def test_unknown_case():
    with pytest.raises(ValueError):
        default_config("mystery")


def test_raster_constant(tmp_path):
    path = tmp_path / "r.txt"
    np.savetxt(path, np.full((3, 4), 2.5))
    raster = ingest_cloud_raster(path, (3.0, 2.0))
    pts = np.linspace(0, 3, 7)
    np.testing.assert_allclose(raster.interp(pts, 0.4 * pts), 2.5, atol=1e-14)


def test_raster_bilinear_midpoint(tmp_path):
    path = tmp_path / "r.txt"
    np.savetxt(path, np.array([[0.0, 1.0], [1.0, 0.0]]))
    raster = ingest_cloud_raster(path, (2.0, 2.0))
    assert abs(raster.interp(1.0, 1.0) - 0.5) < 1e-14


def test_raster_monotone_rows(tmp_path):
    path = tmp_path / "r.txt"
    np.savetxt(path, np.array([[0.0, 1.0, 4.0, 9.0]] * 2))
    raster = ingest_cloud_raster(path, (3.0, 1.0))
    xs = np.linspace(0, 3, 33)
    vals = raster.interp(xs, np.full_like(xs, 0.5))
    assert np.all(np.diff(vals) >= 0)


def test_raster_resolution_stable(tmp_path):
    # re-interpolating at the raster's own grid points reproduces the raster
    rng = np.random.default_rng(12)
    vals = rng.uniform(0, 5, (4, 7))
    path = tmp_path / "r.txt"
    np.savetxt(path, vals)
    raster = ingest_cloud_raster(path, (3.0, 2.0))
    xs = np.linspace(0, 3, 7)
    ys = np.linspace(0, 2, 4)
    gx, gy = np.meshgrid(xs, ys)
    np.testing.assert_allclose(raster.interp(gx, gy), vals, atol=1e-13)


def test_raster_clamps_negatives(tmp_path):
    path = tmp_path / "r.txt"
    np.savetxt(path, np.array([[1.0, -2.0], [3.0, 4.0]]))
    raster = ingest_cloud_raster(path, (1.0, 1.0))
    assert raster.clamped == 1
    assert raster.values.min() == 0.0


def test_raster_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 fish\n2.0 3.0\n")
    with pytest.raises(FormatError):
        ingest_cloud_raster(path, (1.0, 1.0))
    tiny = tmp_path / "tiny.txt"
    tiny.write_text("1.0\n")
    with pytest.raises(FormatError):
        ingest_cloud_raster(tiny, (1.0, 1.0))


def test_beam_bc_default_indices():
    grid = build_angular_grid(28)
    cfg = default_config("idealized-1")
    g = build_beam_bc(cfg, grid)
    amp = 28 / (2 * np.pi)
    theta_in = grid.midpoints[22]   # 1-based element 23
    assert g(1.0, 2.0, theta_in, (0.0, 1.0)) == amp   # top face
    assert g(0.0, 1.0, theta_in, (-1.0, 0.0)) == amp  # left face
    assert g(1.0, 0.0, theta_in, (0.0, -1.0)) == 0.0  # bottom dark
    assert g(3.0, 1.0, theta_in, (1.0, 0.0)) == 0.0   # right dark
    assert g(1.0, 2.0, grid.midpoints[21], (0.0, 1.0)) == 0.0
    cfg_i3rc = default_config("i3rc")
    g2 = build_beam_bc(cfg_i3rc, grid)
    assert g2(1.0, 2.0, grid.midpoints[24], (0.0, 1.0)) == amp
    assert g2(1.0, 2.0, grid.midpoints[22], (0.0, 1.0)) == 0.0


def test_beam_integrates_to_one():
    grid = build_angular_grid(28)
    cfg = default_config("idealized-1")
    g = build_beam_bc(cfg, grid)
    vals = np.array([g(1.0, 2.0, t, (0.0, 1.0)) for t in grid.midpoints])
    assert abs(np.sum(vals * grid.widths) - 1.0) < 1e-13


def test_beam_index_out_of_range():
    grid = build_angular_grid(8)
    cfg = default_config("idealized-1", n_a=8, beam_index=9)
    with pytest.raises(ValueError):
        build_beam_bc(cfg, grid)


def test_beam_supported_on_inflow_only():
    # every nonzero projected DOF sits on a top/left inflow slot
    grid = build_angular_grid(28)
    cfg = default_config("idealized-1")
    mesh = build_mesh(3.0, 2.0, 3, 2)
    index = skeleton_numbering(mesh, grid, 2)
    bc = project_boundary(build_beam_bc(cfg, grid), index)
    nz = np.nonzero(bc.values)[0]
    assert nz.size > 0
    assert np.all(bc.dirichlet_mask[nz])
    assert np.all(nz % 28 == 22)


def test_sigma_fields_range_and_albedo():
    cfg = default_config("idealized-2", p=2, n_a=8, omega=0.9)
    mesh = build_mesh(3.0, 2.0, 6, 4)
    fields = sigma_nodal_fields(cfg, mesh, cfg.p)
    assert len(fields) == 24
    top = max(f.sigma_s.max() for f in fields)
    assert 0 < top <= 2 * cfg.cloud.amplitude
    for f in fields:
        np.testing.assert_allclose(f.sigma_e, f.sigma_s / 0.9)


def test_sigma_fields_from_raster(tmp_path):
    path = tmp_path / "cloud.txt"
    np.savetxt(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    cfg = default_config("i3rc", p=1, n_a=4, sigma_scale=2.0)
    cfg = type(cfg)(**{**cfg.__dict__, "raster_path": str(path)})
    mesh = build_mesh(1.0, 1.0, 2, 2)
    fields = sigma_nodal_fields(cfg, mesh, 1)
    assert fields[0].sigma_s[0, 0] == 2.0 * 1.0  # scaled corner value
    cfg_missing = default_config("i3rc", p=1, n_a=4)
    with pytest.raises(ValueError):
        sigma_nodal_fields(cfg_missing, mesh, 1)


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({
        "case": "idealized-2", "l": 1}))
    with pytest.raises(ValueError):
        load_case_config(path)  # unknown key 'l'
    path.write_text(json.dumps({
        "case": "idealized-2", "level": 1, "tol": 1e-5, "omega": 0.99,
        "g_asym": 0.85, "beam_index": 23, "p": 4, "n_a": 12,
        "cloud": {"width": 0.05, "amplitude": 7.5},
        "paths": {"cloud": "unused.txt"}}))
    cfg = load_case_config(path)
    assert cfg.case == "idealized-2"
    assert cfg.level == 1 and cfg.tol == 1e-5
    assert cfg.cloud.width == 0.05 and cfg.cloud.amplitude == 7.5
    assert cfg.raster_path == "unused.txt"
    assert cfg.n_a == 12
    with pytest.raises(FormatError):
        load_case_config(tmp_path / "nope.json")
