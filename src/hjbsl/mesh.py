"""Simplicial meshes of polyhedral approximation domains and P1 interpolation.

Boundary vertices of the built-in meshers lie exactly on the domain
boundary; the polygon-to-domain Hausdorff gap is O(dx^2).
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import BadParams, LocationFailure, RegularityViolation
from .geometry import (
    TOL_BOUNDARY,
    Disk,
    Domain,
    Interval,
    RectWithHole,
    as_rows,
    real_array,
    real_scalar,
    row_dots,
)

BARY_TOL = 1e-10
# side of a location grid cell, in mesh sizes; measured over 0.25 to 2 on
# the benchmark meshes (README, "Point location")
CELL_WIDTH = 0.5
# most location grid cells per simplex, else BadParams: the built-in meshes
# need at most 3 (README, "Point location"), a lone triangle 9
MAX_CELLS_PER_SIMPLEX = 64
# least shape constant of a disk and a rect-with-hole mesh, else
# RegularityViolation
MIN_SHAPE_DISK = 0.05
MIN_SHAPE_RECT_WITH_HOLE = 0.01
# a simplex of measure at most ZERO_MEASURE*mesh_size^dim is degenerate
ZERO_MEASURE = 1e-13


class Mesh:
    """Simplices (m, dim+1) of vertex indices over vertices (n, dim), dim 1
    or 2, with P1 interpolation; the domain is the problem's.  The mesh
    computes its mesh_size (largest simplex diameter) and shape_constant.
    BadParams for input of the wrong shape, a vertex that is not real
    numbers or not finite, an index that is not an integer or is out of
    range, or a location grid of more than MAX_CELLS_PER_SIMPLEX cells per
    simplex; RegularityViolation for a simplex of zero measure."""

    def __init__(self, vertices, simplices):
        self.vertices = real_array(vertices, "vertices")
        if self.vertices.shape[1:] not in ((1,), (2,)) or not np.isfinite(self.vertices).all():
            raise BadParams("vertices must be (n, 1) or (n, 2) finite coordinates")
        self.n_vertices, self.dim = self.vertices.shape
        try:
            simplices = np.asarray(simplices)
        except (TypeError, ValueError) as exc:
            raise BadParams(f"simplices is not an array of integers: {exc}") from None
        if simplices.shape[1:] != (self.dim + 1,) or not len(simplices):
            raise BadParams(f"simplices of shape {simplices.shape} on a {self.dim}D mesh")
        if simplices.dtype.kind not in "iu":
            raise BadParams(f"simplex vertex indices must be integers, got {simplices.dtype}")
        self.simplices = simplices.astype(int)
        if not ((self.simplices >= 0) & (self.simplices < self.n_vertices)).all():
            raise BadParams(f"a simplex vertex index is outside 0..{self.n_vertices - 1}")
        self.mesh_size, self.shape_constant = _mesh_metrics(self.vertices, self.simplices)
        self._build_bary_planes()
        self._build_cells()
        self._build_boundary_edges()

    # -- construction helpers -------------------------------------------------

    def _build_bary_planes(self):
        """_bary_planes[i, k, s] is entry (i, k) of the inverse vertex matrix
        [[vertices of simplex s]^T; 1 ... 1] of simplex s, so barycentric i of
        a point x is the affine sum (_affine_sum) of column k times x_k plus
        column dim.  The last simplex index is the miss sentinel, which puts
        every point inside with barycentrics (0, ..., 0, 1)."""
        d = self.dim
        verts = self.vertices[self.simplices]          # (m, d+1, d)
        mats = np.concatenate([verts.transpose(0, 2, 1),
                               np.ones((len(self.simplices), 1, d + 1))], axis=1)
        sentinel = np.zeros((1, d + 1, d + 1))
        sentinel[0, d, d] = 1.0
        inv = np.concatenate([np.linalg.inv(mats), sentinel])
        self._bary_planes = np.ascontiguousarray(inv.transpose(1, 2, 0))

    def _build_cells(self):
        """The grid-bucket index: row c of _cell_table lists, in ascending
        order, the simplices whose padded bounding box meets grid cell c,
        filled up to a common length of at least one more with the index of
        the miss sentinel (the last of _bary_planes).  Cells are _cell_size =
        CELL_WIDTH*mesh_size wide, counted from _cell_origin and flattened
        with _cell_strides, both kept as Python lists for _cell_row."""
        h = CELL_WIDTH * self.mesh_size
        # barycentrics >= -BARY_TOL hold on the simplex scaled by
        # 1 + (dim+1)*BARY_TOL about its barycenter, which reaches at most
        # dim*BARY_TOL*mesh_size past its bounding box; padding the box by
        # twice that puts every simplex that holds a point in the point's
        # cell, so the grid resolves ties as a whole-mesh scan would
        pad = 2.0 * self.dim * BARY_TOL * self.mesh_size
        verts = self.vertices[self.simplices.T]        # (dim+1, m, dim)
        lo = np.floor((verts.min(axis=0) - pad) / h)
        hi = np.floor((verts.max(axis=0) + pad) / h)
        m = len(self.simplices)
        # counted in floats, which cannot overflow, before any grid is made
        n_cells = float(np.prod(hi.max(axis=0) - lo.min(axis=0) + 1))
        if n_cells > MAX_CELLS_PER_SIMPLEX * m:
            raise BadParams(f"the location grid needs {n_cells:.3g} cells for {m} "
                            f"simplices, more than {MAX_CELLS_PER_SIMPLEX} per simplex")
        lo, hi = lo.astype(int), hi.astype(int)
        span = hi - lo + 1
        # every (simplex, cell) pair of a padded box
        offsets = np.stack(np.meshgrid(*[np.arange(k) for k in span.max(axis=0)],
                                       indexing="ij"), axis=-1).reshape(-1, self.dim)
        inside = np.ones((len(span), len(offsets)), dtype=bool)
        for d in range(self.dim):
            inside &= offsets[:, d] < span[:, d, None]
        simplex, k = np.nonzero(inside)
        origin = lo.min(axis=0)
        shape = hi.max(axis=0) - origin + 1
        strides = np.cumprod(np.append(1, shape[:0:-1]))[::-1]
        # sorting cell*m + simplex lists each cell's simplices in ascending order
        flat = ((lo - origin) @ strides)[simplex] + (offsets @ strides)[k]
        flat, simplex = np.divmod(np.sort(flat * m + simplex), m)
        count = np.bincount(flat, minlength=int(np.prod(shape)))
        start = np.cumsum(count) - count
        table = np.full((len(count), int(count.max()) + 1), m)
        table[flat, np.arange(len(flat)) - start[flat]] = simplex
        self._cell_size = h
        self._cell_origin = origin.tolist()
        self._cell_strides = strides.tolist()
        self._cell_table = table

    def _build_boundary_edges(self):
        """Faces of exactly one simplex, in order of first occurrence
        (simplex-major, then the omitted vertex), each sorted."""
        d = self.dim
        faces = np.sort(np.stack([np.delete(self.simplices, k, axis=1)
                                  for k in range(d + 1)], axis=1).reshape(-1, d), axis=1)
        key = np.ravel_multi_index(faces.T, (self.n_vertices,) * d)
        _, first, count = np.unique(key, return_index=True, return_counts=True)
        self._boundary_edges = faces[np.sort(first[count == 1])]

    # -- queries --------------------------------------------------------------

    def _cell_row(self, coords):
        """The grid cell's row of _cell_table for one point given as a list
        coords of dim Python floats, indexed with Python scalars as
        _locate_in_cells indexes an array of points."""
        c = 0
        try:
            for xi, o, s in zip(coords, self._cell_origin, self._cell_strides):
                c += (math.floor(xi / self._cell_size) - o) * s
        except (ValueError, OverflowError):
            raise BadParams(f"point {coords!r} is not finite") from None
        return self._cell_table[min(max(c, 0), len(self._cell_table) - 1)]

    def _locate_in_cells(self, points):
        """_locate_one on each row of points with its grid cell's
        candidates; simplex -1 on a miss.

        Candidate column j is formed only for the points that no earlier
        column holds, so the temporaries scale with the unresolved points.
        The last column is the miss sentinel, which holds every finite
        point.  A point off the grid lies outside every simplex's bounding
        box, so any row serves it: the flat cell index is clipped into the
        table instead of each coordinate.
        """
        c = np.floor(points / self._cell_size).astype(int) - self._cell_origin
        cell = np.clip(c @ self._cell_strides, 0, len(self._cell_table) - 1)
        todo = np.arange(len(points))
        coords = [points[:, k] for k in range(self.dim)]
        simplex = np.full(len(points), len(self.simplices))
        lam = np.empty((self.dim + 1, len(points)))
        for column in self._cell_table.T:
            cand = column.take(cell)
            lam_j = _affine_sum(self._bary_planes, cand, coords)
            inside = (lam_j >= -BARY_TOL).all(axis=0)
            hit = todo[inside]
            simplex[hit] = cand[inside]
            lam[:, hit] = lam_j[:, inside]
            out = np.flatnonzero(~inside)
            if not len(out):
                break
            todo, cell = todo.take(out), cell.take(out)
            coords = [x.take(out) for x in coords]
        simplex[simplex == len(self.simplices)] = -1
        return simplex, np.ascontiguousarray(_clip_normalize(lam).T)

    @functools.cached_property
    def _bary_rows(self) -> list:
        """_bary_planes as Python floats, [simplex][i][k], for _locate_one."""
        return self._bary_planes.transpose(2, 0, 1).tolist()

    def _locate_one(self, coords, cand):
        """(simplex, barycentrics) of the first simplex of cand (ascending,
        ending with the miss sentinel) whose barycentrics at the point coords
        (a list of dim Python floats) are all >= -BARY_TOL, or None if that
        is the sentinel.  The barycentrics are _affine_sum's and
        _clip_normalize's in Python floats, each product, sum and quotient
        rounded as there, so the two passes agree bitwise."""
        rows = self._bary_rows
        for s in cand.tolist():
            if len(coords) == 1:
                lam = [a * coords[0] + c for a, c in rows[s]]
            else:
                lam = [a * coords[0] + b * coords[1] + c for a, b, c in rows[s]]
            if min(lam) >= -BARY_TOL:
                break
        if s == len(self.simplices):
            return None
        return s, np.array(_clip_normalize_one(lam))

    def _locate_miss(self, x):
        """(simplex, barycentrics) of a grid miss x (dim,), which no simplex
        holds (the grid lists every simplex holding a point): the grid's at
        the nearest boundary-face point q; LocationFailure if it misses q."""
        q = self._nearest_boundary_point(x)
        simplex, bary = self._locate_in_cells(q[None])
        if simplex[0] < 0:
            raise LocationFailure(f"projection {q!r} not inside the mesh")
        return int(simplex[0]), bary[0]

    def locate_many(self, points):
        """Containing simplex and barycentrics of p_dx(x) for each row x.

        points is (m, dim) and lies in the closed domain.  Ties on shared
        faces go to the lowest simplex index.  Points with no grid-cell hit
        go to the nearest boundary-face point (_locate_miss).  Returns
        (simplex (m,), bary (m, dim+1)).
        """
        points = as_rows(points, self.dim)
        simplex, bary = self._locate_in_cells(points)
        for j in np.flatnonzero(simplex < 0):
            simplex[j], bary[j] = self._locate_miss(points[j])
        return simplex, bary

    def check_domain(self, domain: Domain):
        """BadParams unless the mesh discretizes domain: every vertex in the
        closed domain and every boundary-face vertex on its boundary, within
        TOL_BOUNDARY."""
        if domain.dim != self.dim:
            raise BadParams(f"a {self.dim}D mesh of a {domain.dim}D domain")
        sd = domain.signed_distance_many(self.vertices)
        if not ((sd <= TOL_BOUNDARY).all()
                and (np.abs(sd[self._boundary_edges]) <= TOL_BOUNDARY).all()):
            raise BadParams(f"the mesh does not discretize this {domain.kind}: a vertex "
                            f"lies outside it or a boundary face off its boundary")

    def _nearest_boundary_point(self, x) -> np.ndarray:
        if self.dim == 1:
            return np.clip(x, self.vertices.min(), self.vertices.max())
        a = self.vertices[self._boundary_edges[:, 0]]
        ab = self.vertices[self._boundary_edges[:, 1]] - a
        t = np.clip(np.sum((x - a) * ab, axis=1) / np.sum(ab * ab, axis=1), 0.0, 1.0)
        q = a + t[:, None] * ab
        return q[np.argmin(np.linalg.norm(x - q, axis=1))]

    def _point_weights(self, coords):
        """Vertex indices and P1 weights, a convex combination summing to
        one, at p_dx(x) for a point x given as a list coords of dim Python
        floats, unchecked: located by the grid pass of locate_many without
        its batch set-up, and a grid miss as there."""
        simplex, bary = (self._locate_one(coords, self._cell_row(coords))
                         or self._locate_miss(np.array(coords)))
        return self.simplices[simplex], bary

    def _interpolate_rows(self, nodal, X) -> np.ndarray:
        """P1 values of float nodal values (n_vertices,) at p_dx(x) for each
        row x of X (m, dim) that as_rows made, with one locate_many call, as
        _point_weights gives them; BadParams unless every row is finite."""
        if not np.isfinite(X).all():
            raise BadParams("points with coordinates that are not finite")
        simplex, bary = self.locate_many(X)
        return row_dots(nodal[self.simplices[simplex]], bary)

    def barycenters(self) -> np.ndarray:
        return self.vertices[self.simplices].mean(axis=1)

    def simplex_measures(self) -> np.ndarray:
        return _measures(self.vertices[self.simplices])


def _affine_sum(planes, cand, coords):
    """Barycentrics (dim+1, len(cand)) of the simplices cand of the
    _bary_planes planes (dim+1, dim+1, simplices) at the point coordinates
    coords (one per dimension, each one number or one per candidate):
    planes[:, 0, cand]*x_0 (+ planes[:, 1, cand]*x_1) + planes[:, dim, cand],
    added in that order, each plane gathered as it is added, so one
    gathered plane is held at a time."""
    d = len(coords)
    lam = planes[:, 0].take(cand, axis=1) * coords[0]
    for k in range(1, d):
        lam += planes[:, k].take(cand, axis=1) * coords[k]
    lam += planes[:, d].take(cand, axis=1)
    return lam


def _clip_normalize(lam):
    """Barycentrics (dim+1, ...) clipped at zero and renormalized.  The sum
    adds the dim+1 planes left to right, which is how numpy sums a row this
    short, so it equals lam.sum over the barycentric axis bit for bit and
    costs no short-axis reduction."""
    lam = np.maximum(lam, 0.0)
    total = lam[0] + lam[1]
    for plane in lam[2:]:
        total += plane
    return lam / total


def _clip_normalize_one(lam):
    """_clip_normalize of one list lam of dim+1 Python floats, in Python
    floats: the same clip (+0.0 for a negative or zero entry), sum and
    quotients, so the two agree bitwise.  The sum is written out rather than
    left to sum(), which may compensate its rounding."""
    lam = [v if v > 0.0 else 0.0 for v in lam]
    total = lam[0] + lam[1]
    for v in lam[2:]:
        total += v
    return [v / total for v in lam]


def _measures(verts) -> np.ndarray:
    """Length or area of each simplex of verts (m, dim+1, dim)."""
    if verts.shape[2] == 1:
        return np.abs(verts[:, 1, 0] - verts[:, 0, 0])
    a = verts[:, 1] - verts[:, 0]
    b = verts[:, 2] - verts[:, 0]
    return 0.5 * np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])


def _mesh_metrics(vertices, simplices):
    """(mesh size, shape constant): the largest simplex diameter h, and the
    least inradius/h, at most 0.999.  RegularityViolation for a simplex of
    zero measure, at most ZERO_MEASURE*h^dim."""
    verts = vertices[simplices]
    d = verts.shape[2]
    # lengths |v0 - v1|, |v1 - v2|, ..., |v_dim - v0|: every edge of a simplex
    edges = np.linalg.norm(verts - np.roll(verts, -1, axis=1), axis=2)
    mesh_size = float(edges.max())
    measure = _measures(verts)
    zero = ~(measure > ZERO_MEASURE * mesh_size ** d)
    if zero.any():
        raise RegularityViolation(f"simplex {zero.argmax()} has zero measure")
    inradius = 0.5 * measure if d == 1 else 2.0 * measure / edges.sum(axis=1)
    return mesh_size, float(min((inradius / mesh_size).min(), 0.999))


def build_interval_mesh(a: float, b: float, dx: float) -> Mesh:
    """Uniform grid on [a, b] with spacing at most dx."""
    domain = Interval(a, b)
    a, b, dx = domain.a, domain.b, real_scalar(dx, "dx")
    if not 0 < dx < b - a:
        raise BadParams("require 0 < dx < b - a")
    n_cells = int(math.ceil((b - a) / dx - 1e-12))
    xs = np.linspace(a, b, n_cells + 1)
    simplices = np.column_stack([np.arange(n_cells), np.arange(1, n_cells + 1)])
    return Mesh(xs[:, None], simplices)


def build_disk_mesh(center, radius: float, dx: float) -> Mesh:
    """Concentric-ring point set triangulated by Delaunay.

    All boundary vertices are placed exactly on the circle.
    """
    domain = Disk(center, radius)
    center, radius, dx = domain.center, domain.radius, real_scalar(dx, "dx")
    if not 0 < dx < radius:
        raise BadParams("require 0 < dx < radius")
    # slight radial oversampling keeps ring cells close to isotropic
    n_r = max(2, int(math.ceil(1.2 * radius / dx)))
    dr = radius / n_r
    pts = [center]
    for j in range(1, n_r + 1):
        n_j = max(6, int(round(2.0 * math.pi * j)))
        offset = 0.5 * (j % 2) * 2.0 * math.pi / n_j
        th = offset + 2.0 * math.pi * np.arange(n_j) / n_j
        pts.append(center + j * dr * np.column_stack([np.cos(th), np.sin(th)]))
    vertices = np.vstack([np.atleast_2d(p) for p in pts])
    return _delaunay_mesh(vertices, _triangulate(vertices), MIN_SHAPE_DISK)


def build_rect_with_hole_mesh(bounds, hole_center, hole_radius, dx: float) -> Mesh:
    """Structured grid plus a snapped ring on the hole circle, Delaunay
    triangulated with hole triangles removed."""
    domain = RectWithHole(bounds=bounds, hole_center=hole_center, hole_radius=hole_radius)
    xmin, xmax, ymin, ymax = domain.bounds
    if not (0 < dx < min(xmax - xmin, ymax - ymin)):
        raise BadParams("dx out of range for the rectangle")
    hx = (xmax - xmin) / int(math.ceil((xmax - xmin) / dx - 1e-12))
    hy = (ymax - ymin) / int(math.ceil((ymax - ymin) / dx - 1e-12))
    h = min(hx, hy)
    xs = np.linspace(xmin, xmax, int(round((xmax - xmin) / hx)) + 1)
    ys = np.linspace(ymin, ymax, int(round((ymax - ymin) / hy)) + 1)
    gx, gy = np.meshgrid(xs, ys)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    hc, hr = domain.hole_center, domain.hole_radius
    keep = np.linalg.norm(grid - hc, axis=1) > hr + 0.45 * h
    n_h = max(12, int(round(2.0 * math.pi * hr / h)))
    th = 2.0 * math.pi * np.arange(n_h) / n_h
    ring = hc + hr * np.column_stack([np.cos(th), np.sin(th)])
    vertices = np.vstack([grid[keep], ring])
    simplices = _triangulate(vertices)
    bary = vertices[simplices].mean(axis=1)
    return _delaunay_mesh(vertices, simplices[np.linalg.norm(bary - hc, axis=1) > hr],
                          MIN_SHAPE_RECT_WITH_HOLE)


def _triangulate(vertices) -> np.ndarray:
    """The Delaunay triangles (m, 3) of the points vertices (n, 2).
    scipy.spatial is imported here and nowhere else, so only a mesher that
    triangulates loads it (README, "Footprint")."""
    from scipy.spatial import Delaunay
    return Delaunay(vertices).simplices


def _delaunay_mesh(vertices, simplices, least: float) -> Mesh:
    """The Mesh of the simplices of area above 1e-13, Delaunay's slivers
    dropped; RegularityViolation if its shape constant is below least."""
    mesh = Mesh(vertices, simplices[_measures(vertices[simplices]) > 1e-13])
    if mesh.shape_constant < least:
        raise RegularityViolation(f"shape constant {mesh.shape_constant:.3g} "
                                  f"below {least:.3g}")
    return mesh


def write_mesh(mesh: Mesh, path):
    """Text format hjbmesh 2: header, vertex coordinates, simplices."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"hjbmesh 2 {mesh.dim} {mesh.n_vertices} {len(mesh.simplices)}\n")
        for v in mesh.vertices:
            fh.write(" ".join(repr(float(c)) for c in v) + "\n")
        for s in mesh.simplices:
            fh.write(" ".join(str(int(i)) for i in s) + "\n")


def read_mesh(path) -> Mesh:
    """The Mesh that write_mesh wrote to path; BadParams if it does not
    parse, is of another format version or has lines past the header's
    counts."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().split()
            if len(header) != 5 or header[0] != "hjbmesh" or header[1] != "2":
                raise BadParams(f"bad mesh header in {path}: {' '.join(header[:2])!r}, "
                                f"expected 'hjbmesh 2' (the format version)")
            dim, nv, ns = int(header[2]), int(header[3]), int(header[4])
            # islice stops at the end of the file, whatever the header claims
            vertices = np.array([line.split() for line in itertools.islice(fh, nv)],
                                dtype=float).reshape(nv, dim)
            simplices = np.array([line.split() for line in itertools.islice(fh, ns)],
                                 dtype=int).reshape(ns, dim + 1)
            if any(line.strip() for line in fh):
                raise BadParams(f"mesh file {path} has lines past its {nv} vertices "
                                f"and {ns} simplices")
    except (ValueError, IndexError) as exc:
        raise BadParams(f"malformed mesh file {path}: {exc}") from None
    return Mesh(vertices, simplices)
