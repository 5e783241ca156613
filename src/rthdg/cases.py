"""Test-problem definitions: idealized scatterers, cloud rasters, beam BCs.

The idealized cases place two round scatterers at the domain center whose
edge sharpness differs between case 1 (smoother) and case 2 (sharper); the
numeric defaults (centers, radius, amplitude, widths) are calibration
choices exposed through the configuration. The realistic case ingests a
rectangular extinction raster (whitespace-delimited ASCII, rows = y bottom
up, columns = x) and interpolates it bilinearly onto element nodes.
"""

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .angular import AngularGrid
from .errors import FormatError
from .local import SigmaField
from .mesh import Mesh, element_node_coords

#: default two-scatterer geometry (calibration values, adjustable per config)
DEFAULT_CENTERS = ((1.2, 1.0), (1.8, 1.0))
DEFAULT_RADIUS = 0.35
DEFAULT_AMPLITUDE = 10.0
WIDTH_CASE1 = 0.12
WIDTH_CASE2 = 0.03

_STEP_CLIP = 120.0  # exp argument cap; step saturates far beyond this


def smooth_step(t):
    """Monotone step 1/(1 + e^{4t}): ~1 well inside (t << 0), ~0 outside."""
    t = np.clip(np.asarray(t, float), -_STEP_CLIP, _STEP_CLIP)
    return 1.0 / (1.0 + np.exp(4.0 * t))


@dataclass(frozen=True)
class CloudParams:
    centers: tuple = DEFAULT_CENTERS
    radius: float = DEFAULT_RADIUS
    amplitude: float = DEFAULT_AMPLITUDE
    width: float = WIDTH_CASE1


@dataclass(frozen=True)
class CaseConfig:
    """Everything needed to set up one benchmark problem."""

    case: str = "idealized-1"
    lx: float = 3.0
    ly: float = 2.0
    omega: float = 1.0
    g_asym: float = 0.8
    p: int = 6
    n_a: int = 28
    beam_index: int = 23          # 1-based angular element of the collimated beam
    beam_amplitude: float | None = None  # None -> N_a / (2 pi)
    level: int = 0
    ref_level: int = 10
    tol: float = 1e-4
    ref_tol: float = 1e-8
    cloud: CloudParams = field(default_factory=CloudParams)
    raster_path: str | None = None
    sigma_scale: float = 1.0
    seed: int = 0


def idealized_sigma(x, y, cloud: CloudParams, extents=(3.0, 2.0)):
    """Scattering coefficient of the idealized two-scatterer cases.

    The cloud's width sets the edge (WIDTH_CASE1: smoother, WIDTH_CASE2:
    sharper); x, y may be arrays. Points outside [0, Lx] x [0, Ly] raise.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    lx, ly = extents
    tol = 1e-12 * max(lx, ly)  # element-corner coordinates round past the edge
    if np.any(x < -tol) or np.any(x > lx + tol) or np.any(y < -tol) or np.any(y > ly + tol):
        raise ValueError(f"point outside the domain [0, {lx}] x [0, {ly}]")
    total = np.zeros(np.broadcast(x, y).shape)
    for cx, cy in cloud.centers:
        r = np.hypot(x - cx, y - cy)
        total = total + smooth_step((r - cloud.radius) / cloud.width)
    return cloud.amplitude * total


@dataclass
class CloudRaster:
    """Rectangular grid of extinction/scattering values spanning the domain.

    values[j, i] sits at (i * Lx/(nx-1), j * Ly/(ny-1)); bilinear
    interpolation in between. Negative raw entries are clamped to zero and
    counted.
    """

    values: np.ndarray
    lx: float
    ly: float
    clamped: int = 0

    def interp(self, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        ny, nx = self.values.shape
        gx = np.clip(x / self.lx, 0.0, 1.0) * (nx - 1)
        gy = np.clip(y / self.ly, 0.0, 1.0) * (ny - 1)
        i0 = np.clip(gx.astype(int), 0, nx - 2)
        j0 = np.clip(gy.astype(int), 0, ny - 2)
        fx = gx - i0
        fy = gy - j0
        v = self.values
        return ((1 - fx) * (1 - fy) * v[j0, i0] + fx * (1 - fy) * v[j0, i0 + 1]
                + (1 - fx) * fy * v[j0 + 1, i0] + fx * fy * v[j0 + 1, i0 + 1])


def ingest_cloud_raster(path, extents) -> CloudRaster:
    """Load a whitespace-delimited ASCII matrix as a CloudRaster."""
    try:
        values = np.loadtxt(path, dtype=float, ndmin=2)
    except (ValueError, OSError) as exc:
        raise FormatError(f"{path}: cannot parse cloud raster ({exc})") from exc
    if values.shape[0] < 2 or values.shape[1] < 2:
        raise FormatError(f"{path}: raster needs at least 2x2 values, got {values.shape}")
    clamped = int(np.sum(values < 0))
    values = np.maximum(values, 0.0)
    lx, ly = extents
    return CloudRaster(values=values, lx=float(lx), ly=float(ly), clamped=clamped)


def sigma_nodal_fields(cfg: CaseConfig, mesh: Mesh, p: int) -> list:
    """Per-element nodal SigmaFields of a configured case."""
    raster = None
    if cfg.case == "i3rc" or cfg.raster_path is not None:
        if cfg.raster_path is None:
            raise ValueError("the realistic cloud case needs a raster path")
        raster = ingest_cloud_raster(cfg.raster_path, (mesh.lx, mesh.ly))
    # node coordinates of every element at once, shape (n_elems, p+1, p+1)
    xs, ys = element_node_coords(mesh, p)
    gx = np.broadcast_to(xs[:, :, None], (mesh.n_elems, p + 1, p + 1))
    gy = np.broadcast_to(ys[:, None, :], (mesh.n_elems, p + 1, p + 1))
    if raster is not None:
        ss = cfg.sigma_scale * raster.interp(gx, gy)
    else:
        ss = idealized_sigma(gx, gy, cfg.cloud, extents=(mesh.lx, mesh.ly))
    return [SigmaField.from_scattering(s, cfg.omega) for s in ss]


def build_beam_bc(cfg: CaseConfig, grid: AngularGrid):
    """Collimated beam on the top and left boundaries.

    The inflow radiance is beam_amplitude on the configured (1-based)
    angular element at top/left faces and zero elsewhere; with the default
    amplitude N_a/(2 pi) the beam integrates to 1 over the circle.
    """
    if not 1 <= cfg.beam_index <= grid.n_elems:
        raise ValueError(f"beam angular element {cfg.beam_index} outside 1..{grid.n_elems}")
    amp = cfg.beam_amplitude if cfg.beam_amplitude is not None else grid.n_elems / (2.0 * math.pi)
    lo = grid.boundaries[cfg.beam_index - 1]
    hi = grid.boundaries[cfg.beam_index]
    lit = {(0.0, 1.0), (-1.0, 0.0)}  # top, left outward normals

    def g(x, y, theta, normal):
        if (float(normal[0]), float(normal[1])) in lit and lo <= theta < hi:
            return amp
        return 0.0

    return g


def default_config(case: str, **overrides) -> CaseConfig:
    """Config presets per case tag; keyword overrides applied on top."""
    presets = {
        "idealized-1": {},
        "idealized-2": {"case": "idealized-2",
                        "cloud": CloudParams(width=WIDTH_CASE2)},
        # 13:1 extents match the 13(l+2) x (l+2) refinement schedule, so
        # every level has square elements (required by the surrogate path)
        "i3rc": {"case": "i3rc", "beam_index": 25, "lx": 6.5, "ly": 0.5},
        "custom": {"case": "custom"},
    }
    if case not in presets:
        raise ValueError(f"unknown case tag {case!r}")
    base = {"case": case, **presets[case]}
    base.update(overrides)
    return CaseConfig(**base)


_CONFIG_KEYS = {
    "case", "lx", "ly", "omega", "g_asym", "p", "n_a", "beam_index",
    "beam_amplitude", "level", "ref_level", "tol", "ref_tol", "sigma_scale",
    "seed", "cloud", "paths",
}


def load_case_config(path) -> CaseConfig:
    """Read a JSON case configuration.

    Recognized keys: case, lx, ly, omega, g_asym, p, n_a, beam_index,
    beam_amplitude, level, ref_level, tol, ref_tol, sigma_scale, seed,
    cloud {centers, radius, amplitude, width}, paths {cloud}.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: cannot read case config ({exc})") from exc
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    raw = dict(raw)
    paths = raw.pop("paths", {})
    cloud_raw = raw.pop("cloud", None)
    case = raw.pop("case", "idealized-1")
    cfg = default_config(case, **raw)
    if cloud_raw is not None:
        centers = tuple(tuple(c) for c in cloud_raw.get("centers", cfg.cloud.centers))
        cfg = replace(cfg, cloud=CloudParams(
            centers=centers,
            radius=cloud_raw.get("radius", cfg.cloud.radius),
            amplitude=cloud_raw.get("amplitude", cfg.cloud.amplitude),
            width=cloud_raw.get("width", cfg.cloud.width)))
    if "cloud" in paths:
        cfg = replace(cfg, raster_path=paths["cloud"])
    return cfg
