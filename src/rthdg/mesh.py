"""Rectangular spatial meshes, face topology, and hybrid-trace DOF numbering.

Orderings fixed here (and relied on everywhere else):

* elements: e = iy * nx + ix (x fastest);
* spatial nodes inside an element: node = ix * (p+1) + iy;
* volume DOFs: node * N_a + a (angular index fastest);
* element faces: (left, right, bottom, top);
* face nodes: ascending coordinate along the face (y on vertical faces,
  x on horizontal faces);
* hybrid DOFs on a face: node * N_a + a, offset by face_id * (p+1) * N_a.

Both elements sharing an interior face enumerate its nodes identically, so a
trace DOF has one global index regardless of the sampling side.
"""

import functools
import threading
from dataclasses import dataclass, field

import numpy as np

from .angular import AngularGrid
from .basis import lgl_quadrature

FACE_LEFT, FACE_RIGHT, FACE_BOTTOM, FACE_TOP = 0, 1, 2, 3
ELEMENT_FACE_NORMALS = ((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0))
FACE_NAMES = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class Mesh:
    """Uniform rectangular partition of [0, Lx] x [0, Ly]."""

    lx: float
    ly: float
    nx: int
    ny: int
    # face arrays indexed by face id: vertical faces first (id = iy*(nx+1)+ix_edge),
    # then horizontal (id = n_vertical + iy_edge*nx + ix)
    face_minus: np.ndarray = field(repr=False)  # element on the negative side, -1 at boundary
    face_plus: np.ndarray = field(repr=False)
    face_axis: np.ndarray = field(repr=False)  # 0: normal +-ex, 1: normal +-ey
    elem_faces: np.ndarray = field(repr=False)  # (n_elems, 4) in (L, R, B, T) order

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def n_elems(self) -> int:
        return self.nx * self.ny

    @property
    def n_faces(self) -> int:
        return self.face_axis.size

    @property
    def boundary_faces(self) -> np.ndarray:
        return (self.face_minus < 0) | (self.face_plus < 0)

    def elem_origin(self, e: int) -> tuple[float, float]:
        iy, ix = divmod(e, self.nx)
        return ix * self.hx, iy * self.hy

    def face_span(self, f: int):
        """(fixed coordinate, span start) of a face in physical coordinates."""
        n_vert = self.ny * (self.nx + 1)
        if f < n_vert:
            iy, ix_edge = divmod(f, self.nx + 1)
            return ix_edge * self.hx, iy * self.hy
        iy_edge, ix = divmod(f - n_vert, self.nx)
        return iy_edge * self.hy, ix * self.hx


def build_mesh(lx: float, ly: float, nx: int, ny: int) -> Mesh:
    if lx <= 0 or ly <= 0 or nx <= 0 or ny <= 0:
        raise ValueError(f"mesh extents/counts must be positive, got {(lx, ly, nx, ny)}")
    n_vert = ny * (nx + 1)
    n_horz = nx * (ny + 1)
    n_faces = n_vert + n_horz
    face_minus = np.full(n_faces, -1, dtype=np.int64)
    face_plus = np.full(n_faces, -1, dtype=np.int64)
    face_axis = np.zeros(n_faces, dtype=np.int64)
    face_axis[n_vert:] = 1

    def vf(ix_edge, iy):
        return iy * (nx + 1) + ix_edge

    def hf(ix, iy_edge):
        return n_vert + iy_edge * nx + ix

    elem_faces = np.zeros((nx * ny, 4), dtype=np.int64)
    for iy in range(ny):
        for ix in range(nx):
            e = iy * nx + ix
            l, r, b, t = vf(ix, iy), vf(ix + 1, iy), hf(ix, iy), hf(ix, iy + 1)
            elem_faces[e] = (l, r, b, t)
            face_plus[l] = e   # element sits on the +x side of its left face
            face_minus[r] = e
            face_plus[b] = e
            face_minus[t] = e
    return Mesh(lx=lx, ly=ly, nx=nx, ny=ny, face_minus=face_minus,
                face_plus=face_plus, face_axis=face_axis, elem_faces=elem_faces)


def element_node_coords(mesh: Mesh, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Physical LGL node coordinates of every element: x and y, each (n_elems, p+1)."""
    q = lgl_quadrature(p)
    iy, ix = np.divmod(np.arange(mesh.n_elems), mesh.nx)
    xs = (ix * mesh.hx)[:, None] + 0.5 * mesh.hx * (q.nodes + 1.0)
    ys = (iy * mesh.hy)[:, None] + 0.5 * mesh.hy * (q.nodes + 1.0)
    return xs, ys


def wavefront_steps(mesh: Mesh, cos, sin) -> np.ndarray:
    """Wavefront step kx + ky of every element per direction, shape (n_elems, n_dirs).

    Steps count from the direction's inflow corner: kx = ix when cos > 0,
    else nx - 1 - ix, and ky likewise with sin. A direction with cos > 0
    leaves an element through its right face and one with sin > 0 through
    its top face, so an element's upwind neighbors are one step earlier.
    """
    iy, ix = np.divmod(np.arange(mesh.n_elems), mesh.nx)
    kx = np.where(np.asarray(cos) > 0, ix[:, None], mesh.nx - 1 - ix[:, None])
    ky = np.where(np.asarray(sin) > 0, iy[:, None], mesh.ny - 1 - iy[:, None])
    return kx + ky


def refinement_schedule(case: str, level: int) -> tuple[int, int]:
    """Mesh partition (nx, ny) of a named test case at a refinement level."""
    if level < 0:
        raise ValueError(f"refinement level must be >= 0, got {level}")
    if case in ("idealized", "idealized-1", "idealized-2"):
        return 3 * (level + 2), 2 * (level + 2)
    if case == "i3rc":
        return 13 * (level + 2), level + 2
    raise ValueError(f"unknown test-case tag {case!r}")


class ElementTraceMap:
    """Canonical inflow/outflow trace-slot enumeration of a single element.

    Slots are enumerated face-major (L, R, B, T), then face node, then
    angular element; the inflow and outflow slot lists keep that relative
    order. For each slot the map records its local face, face node, angular
    element, the matching volume DOF row, the 1D LGL weight of the face
    node, and the signed angular flux integral of s . n over the angular
    element (negative on inflow slots). This enumeration fixes the column
    order of the inflow-to-* operators and the row order of the
    inflow-to-outflow operator.
    """

    def __init__(self, p: int, grid: AngularGrid):
        self.p = p
        self.grid = grid
        n1 = p + 1
        na = grid.n_elems
        q = lgl_quadrature(p)
        # volume node of face node j on each local face
        face_vol_nodes = (
            np.arange(n1),                      # left:   (0, j)
            p * n1 + np.arange(n1),             # right:  (p, j)
            np.arange(n1) * n1,                 # bottom: (j, 0)
            np.arange(n1) * n1 + p,             # top:    (j, p)
        )
        rec = {"face": [], "node": [], "ang": [], "vol": [], "wnode": [], "flux": []}
        inflow, outflow = [], []
        for lf, normal in enumerate(ELEMENT_FACE_NORMALS):
            flux = grid.normal_flux_int(normal)
            out = grid.outflow_mask(normal)
            for j in range(n1):
                for a in range(na):
                    (outflow if out[a] else inflow).append(len(rec["face"]))
                    rec["face"].append(lf)
                    rec["node"].append(j)
                    rec["ang"].append(a)
                    rec["vol"].append(face_vol_nodes[lf][j] * na + a)
                    rec["wnode"].append(q.weights[j])
                    rec["flux"].append(flux[a])
        slots = {k: np.asarray(v) for k, v in rec.items()}
        self._select(slots, np.asarray(inflow), "in")
        self._select(slots, np.asarray(outflow), "out")
        self.n_in = len(inflow)
        self.n_out = len(outflow)

    @functools.cached_property
    def symmetries(self) -> list["ElementSymmetry"]:
        """The 8 rotations and reflections (D4) of the square element, identity first."""
        return [_element_symmetry(self, swap, sx, sy)
                for swap in (False, True) for sx in (1, -1) for sy in (1, -1)]

    def _select(self, slots, idx, tag):
        for k in ("face", "node", "ang", "vol"):
            setattr(self, f"{tag}flow_{k}", slots[k][idx])
        setattr(self, f"{tag}flow_wnode", slots["wnode"][idx])
        setattr(self, f"{tag}flow_flux", slots["flux"][idx])


@dataclass(frozen=True)
class ElementSymmetry:
    """One rotation or reflection T of the square element, as index gathers.

    T maps reference coordinates (xi, eta), and directions alike, to
    (sx * xi, sy * eta), after swapping the two when swap is set. The image
    of a nodal field v (flattened node-major) is v[node], of an inflow trace
    u is u[inflow], of an outflow trace u[outflow]. An element whose
    coefficients are the image of another's has the image operators
    a_i2o[np.ix_(outflow, inflow)] and a_i2m[np.ix_(node, inflow)].
    """

    swap: bool
    sx: int
    sy: int
    node: np.ndarray = field(repr=False)     # (n_sp,)
    inflow: np.ndarray = field(repr=False)   # (n_in,)
    outflow: np.ndarray = field(repr=False)  # (n_out,)


def _element_symmetry(tm: ElementTraceMap, swap: bool, sx: int, sy: int) -> ElementSymmetry:
    """The gathers of one D4 map, from the trace map's (face, node, angle) records."""
    p, grid = tm.p, tm.grid
    n1, na = p + 1, grid.n_elems

    def turn(x, y):  # the swap, then the signs
        x, y = (y, x) if swap else (x, y)
        return sx * x, sy * y

    def node_image(ix, iy):  # LGL node i sits at minus node p - i: flip 2i - p exactly
        jx, jy = turn(2 * ix - p, 2 * iy - p)
        return (jx + p) // 2, (jy + p) // 2

    ix, iy = np.divmod(np.arange(n1 * n1), n1)
    jx, jy = node_image(ix, iy)
    node = np.empty(n1 * n1, dtype=np.int64)
    node[jx * n1 + jy] = np.arange(n1 * n1)
    # angular elements: the image of each midpoint direction
    cx, cy = turn(np.cos(grid.midpoints), np.sin(grid.midpoints))
    ang_image = np.floor(np.mod(np.arctan2(cy, cx), 2.0 * np.pi) * na / (2.0 * np.pi))
    ang_image = ang_image.astype(np.int64)
    face_image = np.array([ELEMENT_FACE_NORMALS.index(tuple(float(c) for c in turn(*normal)))
                           for normal in ELEMENT_FACE_NORMALS])

    def slot_gather(face, face_node, ang):
        # the volume node under each slot, its image, and the image slot's key
        on_x = np.choose(face, (0, p, face_node, face_node))
        on_y = np.choose(face, (face_node, face_node, 0, p))
        img_x, img_y = node_image(on_x, on_y)
        img_face = face_image[face]
        img_node = np.where(img_face < FACE_BOTTOM, img_y, img_x)
        lookup = np.full(4 * n1 * na, -1, dtype=np.int64)
        lookup[(face * n1 + face_node) * na + ang] = np.arange(face.size)
        target = lookup[(img_face * n1 + img_node) * na + ang_image[ang]]
        gather = np.empty(face.size, dtype=np.int64)
        gather[target] = np.arange(face.size)
        return gather

    return ElementSymmetry(swap=swap, sx=sx, sy=sy, node=node,
                           inflow=slot_gather(tm.inflow_face, tm.inflow_node, tm.inflow_ang),
                           outflow=slot_gather(tm.outflow_face, tm.outflow_node,
                                               tm.outflow_ang))


_trace_map_cache: dict[tuple, ElementTraceMap] = {}
_trace_map_lock = threading.Lock()


def element_trace_map(p: int, grid: AngularGrid) -> ElementTraceMap:
    """Shared (cached) canonical trace map for (p, grid)."""
    key = (p, grid.n_elems)
    with _trace_map_lock:
        if key not in _trace_map_cache:
            _trace_map_cache[key] = ElementTraceMap(p, grid)
        return _trace_map_cache[key]


@dataclass(frozen=True)
class SkeletonIndex:
    """Global numbering of the hybrid trace DOFs over the mesh skeleton."""

    mesh: Mesh
    grid: AngularGrid
    p: int
    tracemap: ElementTraceMap = field(repr=False)
    elem_inflow: np.ndarray = field(repr=False)   # (n_elems, n_in) global DOF ids
    elem_outflow: np.ndarray = field(repr=False)  # (n_elems, n_out)
    dirichlet_mask: np.ndarray = field(repr=False)
    free_index: np.ndarray = field(repr=False)    # position among free DOFs, -1 if fixed

    @property
    def n_dofs(self) -> int:
        return self.dirichlet_mask.size

    @property
    def n_free(self) -> int:
        return int(np.sum(~self.dirichlet_mask))

    def boundary_inflow_records(self):
        """Per Dirichlet DOF: (dof, x, y, theta_mid, outward normal).

        Used to sample boundary radiance; the projection of g is nodal
        interpolation at the face LGL nodes and midpoint sampling in angle
        (piecewise-constant angular elements). Records are ordered by face,
        then face node, then angle; each is a tuple of Python scalars.
        """
        mesh, grid, p = self.mesh, self.grid, self.p
        face, node, ang, local = _boundary_inflow_slots(mesh, grid, p)
        n1, na = p + 1, grid.n_elems
        n_vert = mesh.ny * (mesh.nx + 1)
        vertical = mesh.face_axis[face] == 0
        # face_span, per slot: the face's fixed coordinate and span start
        iy, ix_edge = np.divmod(face, mesh.nx + 1)
        iy_edge, ix = np.divmod(face - n_vert, mesh.nx)
        fixed = np.where(vertical, ix_edge * mesh.hx, iy_edge * mesh.hy)
        start = np.where(vertical, iy * mesh.hy, ix * mesh.hx)
        half_span = 0.5 * np.where(vertical, mesh.hy, mesh.hx)
        along = start + half_span * (lgl_quadrature(p).nodes + 1.0)[node]
        x = np.where(vertical, fixed, along)
        y = np.where(vertical, along, fixed)
        dof = face * n1 * na + node * na + ang
        return list(zip(dof.tolist(), x.tolist(), y.tolist(), grid.midpoints[ang].tolist(),
                        [ELEMENT_FACE_NORMALS[f] for f in local.tolist()]))


def _boundary_inflow_slots(mesh: Mesh, grid: AngularGrid, p: int):
    """(face, face node, angle, local face) of every inflow slot on the domain boundary.

    Slots are ordered by face id, then face node, then angle. The local
    face (L, R, B, T) is the face's place on its one element, and indexes
    ELEMENT_FACE_NORMALS for the outward normal.
    """
    faces = np.flatnonzero(mesh.boundary_faces)
    # the face as a local face (L, R, B, T) of its one element: that element
    # is on the minus side of a right or top face
    local = 2 * mesh.face_axis[faces] + (mesh.face_minus[faces] >= 0)
    inflow = np.stack([~grid.outflow_mask(n) for n in ELEMENT_FACE_NORMALS])[local]
    k, node, ang = np.nonzero(np.broadcast_to(inflow[:, None, :],
                                              (faces.size, p + 1, grid.n_elems)))
    return faces[k], node, ang, local[k]


def skeleton_numbering(mesh: Mesh, grid: AngularGrid, p: int) -> SkeletonIndex:
    """Dense contiguous hybrid numbering plus per-element gather lists."""
    tracemap = element_trace_map(p, grid)
    n1, na = p + 1, grid.n_elems
    n_per_face = n1 * na
    n_dofs = mesh.n_faces * n_per_face

    def global_ids(faces, nodes, angs):
        return mesh.elem_faces[:, faces] * n_per_face + nodes[None, :] * na + angs[None, :]

    elem_inflow = global_ids(tracemap.inflow_face, tracemap.inflow_node, tracemap.inflow_ang)
    elem_outflow = global_ids(tracemap.outflow_face, tracemap.outflow_node, tracemap.outflow_ang)

    dirichlet = np.zeros(n_dofs, dtype=bool)
    face, node, ang, _ = _boundary_inflow_slots(mesh, grid, p)
    dirichlet[face * n_per_face + node * na + ang] = True

    free_index = np.full(n_dofs, -1, dtype=np.int64)
    free_index[~dirichlet] = np.arange(int(np.sum(~dirichlet)))
    return SkeletonIndex(mesh=mesh, grid=grid, p=p, tracemap=tracemap,
                         elem_inflow=elem_inflow, elem_outflow=elem_outflow,
                         dirichlet_mask=dirichlet, free_index=free_index)
