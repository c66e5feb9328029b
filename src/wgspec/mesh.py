"""Planar triangle meshes: generators, a polygon mesher, a Gmsh 2.2 reader.

A :class:`TriMesh` is immutable after construction.  All triangles are stored
counterclockwise; the oriented boundary with outward unit normals is recovered
topologically (edges adjacent to exactly one triangle).  The topology of a
triangle array is computed once, as a :class:`Connectivity` that every vertex
set on that array shares.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .errors import GeometryError, MeshFormatError, StepTooLargeError

# gen_polygon: its angle bound, size-field slope, lattice step / target_h,
# loop clearance of lattice points per spacing, cap on repair rounds, and
# Laplacian smoothing sweeps
MIN_ANGLE_TARGET_DEG = 20.0
GRADING = 0.25
LATTICE_SPACING = 0.88
WALL_GAP = 0.3
REPAIR_ROUNDS = 12
_SMOOTH_SWEEPS = 10
# the triangulation moves the inner points by up to _JITTER of the extent E
# (_jittered); four points count as cocircular when a circumcircle of
# radius R misses the fourth by at most 1e-9 R + _TIE E^2 / R.  qhull
# follows the exact in-circle test only where the fourth misses by more
# than about 5e-15 E^2 / R (measured at E / R = 240, 480 and 1900)
_JITTER = 1e-6
_TIE = 1e-13


@dataclass(frozen=True, eq=False)
class Connectivity:
    """Topology of one triangle array, shared by every TriMesh on it.

    build_trimesh computes it once per triangle array, by one argsort of
    the pattern's nv + 2 ne entries (_connectivity); perturb passes it on
    unchanged to the moved vertex set, so a shape family shares one.

    Attributes (int32 arrays, read-only)
    ----------
    edges, tri_edges
        The edge table (_edge_table) without its counts: the unique (lo, hi)
        edges and the (nt, 3) edge ids of each triangle's sides 01, 12 and
        20.  refine_uniform and fem.cr_eigs read it.
    indptr, indices
        CSR pattern of a P1 matrix: the diagonal of every vertex on a
        triangle and both entries of every edge, columns sorted in each row.
    scatter : (nt, 9)
        scatter[t, 3 i + j] is the position in the pattern's data of entry
        (i, j) of triangle t's element matrix, so fem.assemble is one
        np.bincount per matrix.  It is gathered from the positions of the
        diagonal entries and of each edge's two entries.
    """

    edges: np.ndarray
    tri_edges: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    scatter: np.ndarray


def _connectivity(triangles, nv, table):
    """Connectivity of an (nt, 3) triangle array on nv vertices from its edge
    table.

    The pattern's entries, the diagonal of each vertex on a triangle and
    (lo, hi), (hi, lo) of each edge, are put in CSR order by one argsort of
    their keys row * nv + column (all distinct).  Its inverse gives each
    entry's position in the data, and the scatter gathers those positions
    through the triangles' corners and tri_edges.
    """
    edges, tri_edges, _ = table
    lo, hi = edges.T
    on_triangle = np.flatnonzero(np.bincount(triangles.ravel(), minlength=nv))
    rows = np.concatenate([on_triangle, lo, hi])
    cols = np.concatenate([on_triangle, hi, lo])
    order = np.argsort(rows * nv + cols, kind="stable")
    position = np.empty(len(order), dtype=np.int32)
    position[order] = np.arange(len(order), dtype=np.int32)
    diagonal = np.empty(nv, dtype=np.int32)
    diagonal[on_triangle] = position[:len(on_triangle)]
    upper, lower = np.split(position[len(on_triangle):], 2)
    # side s of a triangle joins corners s and s + 1 (mod 3); its entry
    # (s, s + 1) is the edge's (lo, hi) where corner s has the lower index
    ascending = triangles < np.roll(triangles, -1, axis=1)
    up, down = upper[tri_edges], lower[tri_edges]
    scatter = np.empty((len(triangles), 9), dtype=np.int32)
    scatter[:, (0, 4, 8)] = diagonal[triangles]
    scatter[:, (1, 5, 6)] = np.where(ascending, up, down)
    scatter[:, (3, 7, 2)] = np.where(ascending, down, up)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=nv))])
    return Connectivity(*(_freeze(a.astype(np.int32, copy=False)) for a in (
        edges, tri_edges, indptr, cols[order], scatter)))


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangle mesh of a planar domain filled by one homogeneous,
    isotropic medium, so triangles carry no material tag.

    Attributes
    ----------
    vertices : (nv, 2) float array
        Vertex coordinates.
    triangles : (nt, 3) int array
        Vertex indices, counterclockwise.
    boundary_edges : (nb, 2) int array
        Directed vertex pairs (a, b) as traversed by the adjacent triangle,
        so the domain lies on the left of a->b; sorted by (a, b).
    boundary_normals : (nb, 2) float array
        Outward unit normal per boundary edge.
    boundary_lengths : (nb,) float array
        Edge lengths.
    boundary_triangles : (nb,) int array
        Index of the one triangle on each boundary edge, in the order of
        boundary_edges; boundary_edges[i] is a side of that triangle.
    warnings : tuple of str
        Non-fatal quality notes attached by the mesher.
    connectivity : Connectivity
        The topology of the triangle array, shared with every mesh that
        perturb makes from this one; only the vertices and the boundary
        normals and lengths differ between them.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_normals: np.ndarray
    boundary_lengths: np.ndarray
    boundary_triangles: np.ndarray
    connectivity: Connectivity = field(repr=False, compare=False)
    warnings: tuple = field(default_factory=tuple)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def areas(self):
        """Signed triangle areas (all positive for a valid mesh)."""
        return _signed_areas(self.vertices, self.triangles)

    def total_area(self):
        return float(self.areas().sum())

    def min_angle_deg(self):
        """Smallest interior angle over all triangles, in degrees."""
        return float(np.degrees(_all_angles(self.vertices, self.triangles).min()))

    def max_edge(self):
        """Longest edge, over the edges of connectivity."""
        a, b = self.vertices[self.connectivity.edges.T]
        return float(np.sqrt(((b - a) ** 2).sum(axis=1)).max())

    def boundary_vertex_indices(self):
        return np.unique(self.boundary_edges)

    def stats(self):
        return {
            "num_vertices": int(self.num_vertices),
            "num_triangles": int(self.num_triangles),
            "area": self.total_area(),
            "max_edge": self.max_edge(),
            "min_angle_deg": self.min_angle_deg(),
        }


def _cross2(a, b):
    """z-component of the cross product of planar vectors."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _signed_areas(vertices, triangles):
    # 0.5 * _cross2(p1 - p0, p2 - p0), gathered by coordinate: the same
    # operations, in a fifth of the time of gathering (x, y) rows; tests
    # hold the two forms equal bit for bit
    x, y = vertices.T
    t0, t1, t2 = triangles.T
    x0, y0 = x[t0], y[t0]
    return 0.5 * ((x[t1] - x0) * (y[t2] - y0) - (y[t1] - y0) * (x[t2] - x0))


def _edge_normals(vertices, triangles):
    """Twice the signed areas, shape (nt,), and the side normals g, shape
    (nt, 3, 2): g[:, i] = J (p_{i+1} - p_{i+2}), J the turn by -90 degrees,
    so |g_i| is the length of the side opposite corner i and g_i / area2 =
    grad phi_i.  Gathered by coordinate, as in _signed_areas; area2 = g_1 x
    g_2 pairs the same differences, twice _signed_areas bit for bit."""
    x, y = vertices.T
    xs, ys = x[triangles.T], y[triangles.T]
    g = np.empty((len(triangles), 3, 2))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        g[:, i, 0] = ys[j] - ys[k]
        g[:, i, 1] = xs[k] - xs[j]
    return g[:, 1, 0] * g[:, 2, 1] - g[:, 1, 1] * g[:, 2, 0], g


def _all_angles(vertices, triangles):
    """Interior angles, shape (nt, 3), radians: at corner k, the cosine is
    -g_{k+1} . g_{k+2} / (|g_{k+1}| |g_{k+2}|) (_edge_normals)."""
    gx, gy = _edge_normals(vertices, triangles)[1].T
    norm = np.sqrt(gx * gx + gy * gy)
    ang = np.empty((gx.shape[1], 3))
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        c = -(gx[i] * gx[j] + gy[i] * gy[j]) / (norm[i] * norm[j])
        ang[:, k] = np.arccos(np.clip(c, -1.0, 1.0))
    return ang


def _freeze(arr):
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _shape_measures(vertices, triangles):
    """Signed areas (as _signed_areas) and longest squared edge of each
    triangle, from _edge_normals."""
    area2, g = _edge_normals(vertices, triangles)
    s0, s1, s2 = g.T[0] ** 2 + g.T[1] ** 2  # |g_i|^2
    return 0.5 * area2, np.maximum(s0, np.maximum(s1, s2))


def _check_shapes(areas, emax2):
    """GeometryError if a triangle is (nearly) degenerate: its area relative
    to its longest edge squared (_shape_measures)."""
    if (areas <= 1e-13 * emax2).any():
        raise GeometryError("mesh contains a (nearly) zero-area triangle")


def _boundary_geometry(vertices, bedges):
    """Outward unit normals and lengths of the directed boundary edges."""
    tang = vertices[bedges[:, 1]] - vertices[bedges[:, 0]]
    lengths = np.sqrt((tang * tang).sum(axis=1))
    if (lengths <= 0).any():
        raise GeometryError("zero-length boundary edge")
    tang = tang / lengths[:, None]
    # domain on the left of a->b, outward is the tangent rotated -90 degrees
    return _freeze(np.column_stack([tang[:, 1], -tang[:, 0]])), _freeze(lengths)


def build_trimesh(vertices, triangles, warnings=()):
    """Assemble a validated TriMesh from vertex and triangle arrays; warnings
    are the mesher's quality notes, kept on the mesh.

    Reorients clockwise triangles, extracts the boundary topologically and
    checks that the vertices have shape (nv, 2) and finite coordinates, that
    the triangles have shape (nt, 3) and whole-number entries, that every
    vertex lies on a triangle (a vertex on none, such as a geometry point or
    arc centre of a Gmsh file, would make the P1 matrices singular),
    positivity of areas, that no edge lies on more than two triangles, and
    edge-connectivity.
    The mesh gets a new Connectivity, built from the same edge table.
    """
    return _build_trimesh(vertices, triangles, warnings, None)


def _build_trimesh(vertices, triangles, warnings, table):
    """build_trimesh, given the edge table of the triangles (_edge_table) if
    the caller has it, else None; it is computed here when it is None or
    some triangle is reoriented."""
    vertices, given = np.asarray(vertices, dtype=float), np.asarray(triangles)
    for name, arr, cols in (("vertices", vertices, 2), ("triangles", given, 3)):
        if arr.ndim != 2 or arr.shape[1] != cols:
            raise GeometryError(f"{name} must have shape (n{name[0]}, {cols}), "
                                f"got {arr.shape}")
    with np.errstate(invalid="ignore"):  # NaN or huge entries fail below
        triangles = given.astype(np.int64, copy=False)
    if not (triangles == given).all():
        raise GeometryError("triangles must hold whole-number vertex indices")
    bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
    if bad.size:
        raise GeometryError(f"{bad.size} vertices have a non-finite "
                            f"coordinate, the first is vertex {bad[0]}")
    if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
        raise GeometryError("triangle index out of range")
    orphans = np.flatnonzero(np.bincount(triangles.ravel(),
                                         minlength=len(vertices)) == 0)
    if orphans.size:
        raise GeometryError(f"{orphans.size} vertices lie on no triangle, "
                            f"the first is vertex {orphans[0]}")

    # reorienting a triangle keeps its sides
    areas, emax2 = _shape_measures(vertices, triangles)
    flip = areas < 0
    if flip.any():
        triangles = triangles.copy()
        triangles[flip] = triangles[flip][:, [0, 2, 1]]
        areas = np.abs(areas)
    _check_shapes(areas, emax2)

    if table is None or flip.any():
        table = _edge_table(triangles)
    _, tri_edges, counts = table
    if (counts > 2).any():
        raise GeometryError(
            "mesh is not manifold: an edge lies on more than two triangles"
        )
    # boundary: edges on one triangle, directed as that triangle traverses them
    owner, side = np.nonzero(counts[tri_edges] == 1)
    if owner.size == 0:
        raise GeometryError("mesh has no boundary")
    a = triangles[owner, side]
    b = triangles[owner, (side + 1) % 3]
    order = np.argsort(a * len(vertices) + b)  # the documented (a, b) order
    bedges = np.column_stack([a[order], b[order]])
    normals, lengths = _boundary_geometry(vertices, bedges)

    # triangles and edges form one bipartite graph; the mesh is edge-connected
    # when that graph is connected
    nt, ne = len(triangles), len(counts)
    incidence = sparse.coo_matrix(
        (np.ones(3 * nt), (np.repeat(np.arange(nt), 3), nt + tri_edges.ravel())),
        shape=(nt + ne, nt + ne),
    )
    if connected_components(incidence, directed=False)[0] != 1:
        raise GeometryError("mesh is not edge-connected")

    return TriMesh(
        vertices=_freeze(vertices),
        triangles=_freeze(triangles),
        boundary_edges=_freeze(bedges),
        boundary_normals=normals,
        boundary_lengths=lengths,
        boundary_triangles=_freeze(owner[order]),
        connectivity=_connectivity(triangles, len(vertices), table),
        warnings=tuple(warnings),
    )


def _directed_edges(triangles):
    return np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]]
    )


def _edge_table(triangles):
    """Undirected edge topology of a triangle list.

    Returns (edges, tri_edges, counts): the unique edges as (lo, hi) vertex
    pairs in lexicographic order, the (nt, 3) edge ids of each triangle's
    sides 01, 12 and 20, and the number of triangles on each edge.
    """
    triangles = np.asarray(triangles, dtype=np.int64)
    nt = len(triangles)
    pairs = _directed_edges(triangles)
    nv = int(triangles.max()) + 1 if nt else 1
    keys, inverse, counts = np.unique(
        pairs.min(axis=1) * nv + pairs.max(axis=1),
        return_inverse=True, return_counts=True,
    )
    edges = np.column_stack([keys // nv, keys % nv])
    return edges, inverse.reshape(3, nt).T, counts


# ---------------------------------------------------------------------------
# structured generators


def gen_rectangle(ell, L, nx, ny):
    """Structured mesh of (0, ell) x (0, L) with 2*nx*ny triangles.

    Every grid cell is split along the same diagonal, which makes the
    triangulation invariant under the point reflection through the rectangle
    center; quantities that vanish by that symmetry then vanish to rounding.
    """
    if not (ell > 0 and L > 0):
        raise ValueError("rectangle dimensions must be positive")
    if nx < 1 or ny < 1:
        raise ValueError("subdivision counts must be >= 1")
    nx, ny = int(nx), int(ny)
    x = np.linspace(0.0, float(ell), nx + 1)
    y = np.linspace(0.0, float(L), ny + 1)
    # enforce 1-ulp mirror symmetry of the grid lines
    x[nx // 2 + 1 :] = float(ell) - x[: (nx + 1) // 2][::-1]
    y[ny // 2 + 1 :] = float(L) - y[: (ny + 1) // 2][::-1]
    xx, yy = np.meshgrid(x, y, indexing="ij")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    # vertex (i, j) is i * (ny + 1) + j; cell (i, j) gives two triangles
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    v00 = (i * (ny + 1) + j).ravel()
    v10, v01 = v00 + ny + 1, v00 + 1
    tris = np.column_stack([v00, v10, v01, v10, v10 + 1, v01]).reshape(-1, 3)
    return build_trimesh(vertices, tris)


def gen_right_triangle(n):
    """Structured mesh of the triangle (0,0)-(1,0)-(0,1) with n*n triangles.

    Uses the n x n unit-square grid restricted below the diagonal; hypotenuse
    vertices sit exactly on x + y = 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    n = int(n)
    # grid points (i, j) with i + j <= n, numbered in row-major order
    i, j = np.nonzero(np.add.outer(np.arange(n + 1), np.arange(n + 1)) <= n)
    index = -np.ones((n + 1, n + 1), dtype=np.int64)
    index[i, j] = np.arange(len(i))
    verts = np.column_stack([i / n, j / n])
    # cell (i, j) with i + j < n: its lower triangle, then its upper one
    # unless the hypotenuse cuts it off
    i, j = np.nonzero(np.add.outer(np.arange(n), np.arange(n)) < n)
    lower = np.column_stack([index[i, j], index[i + 1, j], index[i, j + 1]])
    upper = np.column_stack([index[i + 1, j], index[i + 1, j + 1], index[i, j + 1]])
    tris = np.stack([lower, upper], axis=1).reshape(-1, 3)
    has_upper = np.column_stack([np.ones(len(i), dtype=bool), i + j <= n - 2])
    return build_trimesh(verts, tris[has_upper.ravel()])


# ---------------------------------------------------------------------------
# polygon mesher: graded boundary and lattice -> Delaunay (lattice triangles by
# index, qhull near the boundary) -> smoothing -> repair


@dataclass(frozen=True)
class Polygon:
    """Simple counterclockwise polygon with a target mesh size.

    A last point that repeats the first to within 1e-12 of the loop's
    extent closes the loop and is dropped, at any scale of the coordinates.
    GeometryError unless the loop is simple, to within that (_check_simple).
    """

    loop: np.ndarray
    target_h: float

    def __init__(self, loop, target_h):
        loop = np.asarray(loop, dtype=float).reshape(-1, 2)
        if not np.isfinite(loop).all():
            raise GeometryError("polygon loop has a non-finite coordinate")
        if len(loop) >= 2 and (np.abs(loop[-1] - loop[0]).max()
                               <= 1e-12 * np.ptp(loop, axis=0).max()):
            loop = loop[:-1]
        if len(loop) < 3:
            raise GeometryError("polygon needs at least 3 distinct points")
        if not 0.0 < target_h < math.inf:
            raise ValueError(f"target_h must be positive and finite, got {target_h!r}")
        if _shoelace(loop) < 0:
            loop = loop[::-1].copy()
        _check_simple(loop)
        object.__setattr__(self, "loop", _freeze(loop))
        object.__setattr__(self, "target_h", float(target_h))

    def area(self):
        return _shoelace(self.loop)


def _shoelace(loop):
    """The signed area of the loop, positive counterclockwise, summed
    relative to its first point, so it keeps its digits far from the
    origin."""
    x, y = (loop - loop[0]).T
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _check_simple(loop):
    """GeometryError if a vertex lies within 1e-12 of the loop's extent of a
    segment that does not end at it (a repeated point or any segment that
    short, a side doubled back, parts that touch) or two segments cross."""
    m = len(loop)
    a, b = loop, np.roll(loop, -1, axis=0)
    tol = 1e-12 * np.ptp(loop, axis=0).max()
    k, rows = np.arange(m), max(1, 2**16 // m)
    for start in range(0, m, rows):
        i = np.arange(start, min(start + rows, m))[:, None]
        # vertex k on a segment i that does not end at it
        on = ((_segment_distance(loop, a[i], b[i]) <= tol)
              & (k != i) & (k != (i + 1) % m))
        if on.any():
            x, y = loop[np.nonzero(on)[1][0]]
            raise GeometryError(f"polygon loop touches itself: vertex ({x:g}, "
                                f"{y:g}) lies on a segment that does not end at it")
        # segment k after segment i, sharing no end with it, crossing it
        apart = (k >= i + 2) & ((i > 0) | (k < m - 1))
        p, q = a[i], b[i]
        if (apart & (_cross2(q - p, a - p) * _cross2(q - p, b - p) < 0)
                & (_cross2(b - a, p - a) * _cross2(b - a, q - a) < 0)).any():
            raise GeometryError("polygon loop self-intersects")


def _segment_lengths(loop):
    """Length of each loop segment i -> i+1 (mod len(loop))."""
    return np.sqrt(((np.roll(loop, -1, axis=0) - loop) ** 2).sum(axis=1))


def _lattice(loop, h):
    """Origin and steps ((x0, y0), (dx, dy)) of the level-0 staggered lattice.

    Columns span the outermost sides parallel to y, rows the outermost sides
    parallel to x (the bounding box where these span less than half of it),
    so such sides fall on lattice lines: ceil(width / (LATTICE_SPACING * h))
    columns, and the even row count nearest to height / (dx * sqrt(3) / 2).
    """
    lo, hi = loop.min(axis=0), loop.max(axis=0)
    nxt = np.roll(loop, -1, axis=0)
    for axis in (0, 1):
        at = loop[loop[:, axis] == nxt[:, axis], axis]
        if len(at) and at.max() - at.min() >= 0.5 * (hi[axis] - lo[axis]):
            lo[axis], hi[axis] = at.min(), at.max()
    width, height = hi - lo
    dx = width / max(1, math.ceil(width / (LATTICE_SPACING * h) - 1e-12))
    rows = 2 * max(1, round(height / (dx * math.sqrt(3.0))))
    return lo, np.array([dx, height / rows])


def _resample_loop(loop, step):
    """Insert points along each polygon segment at a spacing set by a size field.

    step is the spacing along x and y (a scalar sets both): a segment in
    direction (cos a, sin a) is cut at most every hypot(step_x cos a, step_y
    sin a).  Near an end vertex whose shorter segment l is finer, the
    spacing is l + GRADING * (distance to it); cuts fall at whole steps of
    the integral of 1 / spacing.  Inserted points lie on the polyline.
    """
    sx, sy = np.broadcast_to(np.asarray(step, dtype=float), (2,))
    seg = _segment_lengths(loop)
    size = np.minimum(seg, np.roll(seg, 1))
    out = []
    for p, q, length, s0, s1 in zip(loop, np.roll(loop, -1, axis=0), seg, size,
                                    np.roll(size, -1)):
        d = q - p
        cap = math.hypot(sx * d[0], sy * d[1]) / length
        t = np.linspace(0.0, 1.0, 4 * math.ceil(length / min(s0, s1, cap)) + 2)
        local = np.minimum(cap, np.minimum(s0 + GRADING * length * t,
                                           s1 + GRADING * length * (1.0 - t)))
        # pieces up to t, by the trapezoid rule on length / local
        pieces = np.concatenate([[0.0], np.cumsum(
            0.5 * length * np.diff(t) * (1.0 / local[1:] + 1.0 / local[:-1]))])
        total = pieces[-1]
        # from the coarser end (a corner keeps a side on the lattice lines);
        # a last piece under one half shares the last two equally
        marks = np.arange(max(1, math.ceil(total - 1e-9)), dtype=float)
        if len(marks) > 1 and total - marks[-1] < 0.5:
            marks[-1] = 0.5 * (marks[-2] + total)
        if s1 > s0:
            marks = np.sort((total - marks) % total)
        out.append(p + d * np.interp(marks, pieces, t)[:, None])
    return np.concatenate(out)


def _point_in_polygon(points, loop, ends=None):
    """Crossing-number test by a scanline over the points sorted by y.

    Segments run from each loop point to the next, or to ends.  Segment
    (a, b) crosses the rightward ray from p when min(ya, yb) <= py <
    max(ya, yb) and p lies left of it at py; those points are one run of
    the sorted order, so the work is the (segment, point) pairs in bands.
    """
    x, y = points[:, 0], points[:, 1]
    order = np.argsort(y, kind="stable")
    a, b = loop, np.roll(loop, -1, axis=0) if ends is None else ends
    start = np.searchsorted(y[order], np.minimum(a[:, 1], b[:, 1]))
    count = np.searchsorted(y[order], np.maximum(a[:, 1], b[:, 1])) - start
    seg = np.repeat(np.arange(len(loop)), count)
    run = np.arange(len(seg)) - np.repeat(np.cumsum(count) - count, count)
    idx = order[np.repeat(start, count) + run]
    (x1, y1), (x2, y2) = a[seg].T, b[seg].T
    crosses = x[idx] < (x2 - x1) * (y[idx] - y1) / (y2 - y1 + 1e-300) + x1
    return np.bincount(idx[crosses], minlength=len(points)) % 2 == 1


def _segment_distance(p, a, b):
    """Distance from points p to segments a-b (broadcast over leading axes)."""
    ab, ap = b - a, p - a
    t = np.clip((ap * ab).sum(axis=-1) / ((ab * ab).sum(axis=-1) + 1e-300), 0.0, 1.0)
    d = ap - t[..., None] * ab
    return np.sqrt((d * d).sum(axis=-1))


def _dist_to_polyline(points, loop):
    """Distance from each point to the closed polyline, over every segment."""
    ends = np.roll(loop, -1, axis=0)
    return _segment_distance(points[:, None], loop, ends).min(axis=1)


def _farther_than(points, loop, r):
    """Mask of the points whose distance to the closed polyline exceeds r.

    Equals _dist_to_polyline(points, loop) > r, r a scalar or one per point.
    A segment is within r of a point only if its midpoint is within r + half
    its length, so only those (point, segment) pairs are measured (the bound
    adds another half of the longest segment as a margin for rounding).
    """
    from scipy.spatial import cKDTree

    r = np.broadcast_to(r, (len(points),))
    a, b = loop, np.roll(loop, -1, axis=0)
    bound = r.max(initial=0.0) + _segment_lengths(loop).max()
    pairs = cKDTree(points).sparse_distance_matrix(
        cKDTree(0.5 * (a + b)), bound, output_type="ndarray")
    p, s = pairs["i"], pairs["j"]
    out = np.ones(len(points), dtype=bool)
    out[p[_segment_distance(points[p], a[s], b[s]) <= r[p]]] = False
    return out


def _graded_points(loop, origin, step):
    """Interior points of the polygon, spaced by a size field.

    The size is min(dx, l_b + GRADING * |x - b|) over loop vertices b, l_b
    the shorter loop segment at b.  Level 0 is the lattice of _lattice,
    origin + ((i + (j mod 2) / 2) dx, j dy); level k halves its steps k
    times and holds the coarser levels.  A point is kept on level
    round(log2(dx / size)); level k >= 1 is made only over the bounding box
    of where size <= dx * 2**(0.5 - k).  Points outside the polygon or
    within WALL_GAP of their level's dx of the loop are dropped.  Returns
    the points, level 0 first, and the lattice coordinates (i, j) of the
    level-0 points.
    """
    from scipy.spatial import cKDTree

    seg = _segment_lengths(loop)
    spacing = np.minimum(seg, np.roll(seg, 1))
    # level k >= 1 holds the points where the size is at most cut[k - 1]
    cut = step[0] * 2.0 ** (0.5 - np.arange(1, 53))
    cut = cut[cut >= spacing.min()]
    lo, hi = loop.min(axis=0), loop.max(axis=0)
    cand, first = [], []
    for k in range(len(cut) + 1):
        if k:
            reach = (cut[k - 1] - spacing) / GRADING
            near = reach > 0
            lo = np.maximum(lo, (loop[near] - reach[near, None]).min(axis=0))
            hi = np.minimum(hi, (loop[near] + reach[near, None]).max(axis=0))
        n0 = np.floor((lo - origin) / step * 2**k).astype(int) - 1
        n1 = np.ceil((hi - origin) / step * 2**k).astype(int) + 1
        i, j = (a.ravel() for a in np.meshgrid(np.arange(n0[0], n1[0] + 1),
                                               np.arange(n0[1], n1[1] + 1)))
        # the points of level k - 1 sit at even j and i = j / 2 (mod 2)
        new = (j % 2 == 1) | (i % 2 != (j // 2) % 2) | (k == 0)
        ij = np.column_stack([i[new] + 0.5 * (j[new] % 2), j[new]])
        pts = origin + ij * step / 2**k
        box = ((pts >= lo) & (pts <= hi)).all(axis=1)
        cand.append(pts[box])
        first.append(np.full(len(cand[-1]), k))
        if not k:
            lattice_ij = np.column_stack([i, j])[box]
    cand, first = np.concatenate(cand), np.concatenate(first)
    size = np.full(len(cand), step[0])
    if len(cut):
        src = spacing <= cut[0]
        pairs = cKDTree(loop[src]).sparse_distance_matrix(
            cKDTree(cand), (cut[0] - spacing.min()) / GRADING, output_type="ndarray")
        np.minimum.at(size, pairs["j"], spacing[src][pairs["i"]] + GRADING * pairs["v"])
    level = (size[:, None] <= cut).sum(axis=1)
    kept = np.flatnonzero(level >= first)
    kept = kept[_point_in_polygon(cand[kept], loop)]
    kept = kept[_farther_than(cand[kept], loop, WALL_GAP * step[0] / 2.0 ** level[kept])]
    # level 0 comes first in cand, so its points stay first in the output
    return cand[kept], lattice_ij[kept[first[kept] == 0]]


def _circumcentres(p):
    """Circumcentres of the triangles p, shape (n, 3, 2), as offsets from
    their first corners."""
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    uu, vv = (u * u).sum(axis=1), (v * v).sum(axis=1)
    return (np.column_stack([v[:, 1] * uu - u[:, 1] * vv, u[:, 0] * vv - v[:, 0] * uu])
            / (2.0 * _cross2(u, v))[:, None])


def _circle_test(pts, tris, tree, tie):
    """+1 for each triangle whose circumcircle, of radius R, clears every
    point of pts but its corners by 1e-9 R + tie / R, -1 for one that holds
    such a point by that much, and 0 where four points are cocircular to
    within it; tree is cKDTree(pts), and flat triangles give +1."""
    p = pts[tris]
    with np.errstate(divide="ignore", invalid="ignore"):
        off = _circumcentres(p)
    radii = np.sqrt((off * off).sum(axis=1))
    sign = np.ones(len(tris), dtype=int)
    solid = np.isfinite(radii)
    # the nearest point that is not a corner is among the four nearest
    dist, idx = tree.query((p[:, 0] + off)[solid], k=4)
    other = (idx[:, :, None] != tris[solid, None, :]).all(axis=2)
    gap = dist[np.arange(len(dist)), other.argmax(axis=1)] - radii[solid]
    band = 1e-9 * radii[solid] + tie / radii[solid]
    sign[solid] = np.where(np.abs(gap) <= band, 0, np.sign(gap))
    return sign


def _lattice_delaunay(pts, first, ij, step):
    """The triangles of Delaunay(pts).simplices, found with qhull run only
    on the points near the loop and the finer levels, or None where qhull
    must triangulate all the points.  pts from index first on are level-0
    points of _graded_points on the lattice of steps step, with lattice
    coordinates ij, each moved by at most _JITTER of the extent in each
    coordinate (_jittered).

    In the cell (i, j), s = j mod 2, the lattice has an up triangle (i, j),
    (i + 1, j), (i + s, j + 1) and a down triangle (i + 1, j), (i + s + 1,
    j + 1), (i + s, j + 1).  When dy > dx / 2 they are acute, and their
    circumcircles clear the other lattice points by more than the jitter
    can close plus the tie margin of _circle_test (else the result is
    None); one whose circumcircle clears every point off the lattice by
    that margin is a Delaunay triangle.  A lattice point whose six triangles
    are such is surrounded, and its star is those six.  Every other
    Delaunay triangle has three corners that are not surrounded, so it is
    one of their qhull triangles whose circumcircle holds no other point;
    a lattice triangle without a surrounded corner is taken from there, so
    none comes twice.

    qhull picks the diagonal of four points cocircular to within the margin
    by the order in which it adds the points, so the result is None
    wherever one of its triangles has such four on a circle that holds no
    other point.  That one test finds every such tie: the points off the
    lattice are never surrounded, so theirs come to qhull, and the six
    triangles of a surrounded point clear every other point by more than
    the margin, so no tie passes through one (the empty-circle
    characterisation: de Berg et al., Computational Geometry, 3rd ed.,
    2008, ch. 9).  The jitter moves the cocircular quadruples of straight
    loop sides and rows of finer points that far off their circles, so few
    polygons come to the test.
    """
    from scipy.spatial import Delaunay, cKDTree

    dx, dy = step
    rise = (dy * dy - dx * dx / 4) / (2 * dy)  # circumcentre over a base
    R = dy - rise
    extent = np.ptp(pts)
    tie = _TIE * extent**2
    # the jitter moves each point by at most sqrt(2) _JITTER extent, and a
    # lattice triangle's circumcentre by at most 2.5 times that (dy / dx in
    # (1/2, 3/2), as _lattice makes it), so its gaps to the points by at
    # most 7 times that
    slack = 1e-9 * R + tie / R + 10 * _JITTER * extent
    # the lattice points across a base and across a slanted side clear a
    # lattice triangle's circumcircle by these
    if not len(ij) or min(2 * rise, math.hypot(dx, R) - R) <= slack:
        return None
    off = np.ones(len(pts), dtype=bool)
    off[first:first + len(ij)] = False
    tree = cKDTree(pts)
    # cells from lo, an even row, so that (j mod 2) keeps each row's offset
    lo = ij.min(axis=0) - [0, ij[:, 1].min() % 2]
    i, j = (ij - lo).T
    ni, nj = i.max() + 1, j.max() + 1
    grid = np.full((ni + 2, nj + 1), -1)
    grid[i, j] = first + np.arange(len(ij))
    ci, cj = np.ogrid[:ni, :nj]
    s = cj % 2
    tris = np.stack([grid[ci, cj], grid[ci + 1, cj], grid[ci + s, cj + 1],
                     grid[ci + 1, cj], grid[ci + s + 1, cj + 1], grid[ci + s, cj + 1]],
                    axis=-1).reshape(-1, 3)
    tris = tris[(tris >= 0).all(axis=1)]
    # a point off the lattice within reach of a circumcentre is within 2
    # reach of every corner, so only such triangles are tested
    reach = R + slack
    close = np.zeros(len(pts), dtype=bool)
    close[tree.sparse_distance_matrix(cKDTree(pts[off]), 2 * reach,
                                      output_type="ndarray")["i"]] = True
    near = np.flatnonzero(close[tris].all(axis=1))
    tris = np.delete(tris, near[_circle_test(pts, tris[near], tree, tie) < 1], axis=0)
    surrounded = np.bincount(tris.ravel(), minlength=len(pts)) == 6
    if not surrounded.any():
        return None

    rest = np.flatnonzero(~surrounded)
    found = rest[Delaunay(pts[rest]).simplices]
    sign = _circle_test(pts, found, tree, tie)
    if (sign == 0).any():
        return None
    return np.vstack([tris[surrounded[tris].any(axis=1)], found[sign > 0]])


def _jittered(loop, inner):
    """The inner points, each coordinate moved by a seeded draw of at most
    _JITTER of the loop's extent, or of 1e4 times its shortest segment where
    that is less.

    qhull takes about twice as long on a lattice's cocircular quadruples,
    and picks their diagonal by the order in which it adds the points.
    Moved this far, four points miss a common circle by more than qhull
    resolves, on all but a few polygons (_lattice_delaunay finds those).
    The cap keeps each move below 1.5e-2 of that segment, so the points of
    _graded_points, at least 0.2 of it from the loop, stay on their side.
    gen_polygon moves the loop's lowest corner to the origin, so the moves
    are far above the rounding of the coordinates wherever the polygon lies.
    """
    scale = min(np.ptp(loop), 1e4 * _segment_lengths(loop).min())
    draws = np.random.default_rng(0).uniform(-_JITTER, _JITTER, inner.shape)
    return inner + draws * scale


def _triangulate_region(loop, inner, lattice=None):
    """Delaunay triangulation of the polygon on its loop and the inner points.

    lattice, if given, is (ij, step): the first len(ij) inner points are
    level-0 points of _graded_points on the lattice of steps step, with
    lattice coordinates ij, whose triangles are known (_lattice_delaunay);
    else qhull triangulates every point.  Flat triangles and those with a
    centroid outside the polygon are dropped; a loop segment missing from
    the triangulation is split at its midpoint and the points triangulated
    again.  Returns (loop, pts, tris, table):
    the loop with those splits, pts, the loop then the inner points, and
    the edge table of tris (_edge_table).
    """
    from scipy.spatial import Delaunay

    # the inner points moved (_jittered), for the triangulation only
    shifted = _jittered(loop, inner)
    for _ in range(12):
        nb = len(loop)
        pts = np.vstack([loop, inner])
        shown = np.vstack([loop, shifted])
        simplices = None if lattice is None else _lattice_delaunay(shown, nb, *lattice)
        if simplices is None:
            simplices = Delaunay(shown).simplices
        # drop triangles whose centroid falls outside the polygon, and the
        # flat ones qhull can leave between collinear points of its hull
        area2, g = _edge_normals(pts, simplices)
        gx, gy = g.T
        side2 = gx * gx + gy * gy
        flat = np.abs(area2) <= 1e-12 * (side2[2] + side2[1])
        simplices = simplices[~flat & _point_in_polygon(pts[simplices].mean(axis=1),
                                                         loop)]

        # the loop points come first, so segment i is the edge (i, i+1 mod nb).
        # The table's edges are in lexicographic order, so their keys ascend,
        # and the end key len(pts)^2, above any edge's, closes the search
        i, j = np.arange(nb), (np.arange(nb) + 1) % nb
        table = _edge_table(simplices)
        lo, hi = table[0].T
        n = len(pts)
        edge_keys = np.append(lo * n + hi, n * n)
        key = np.minimum(i, j) * n + np.maximum(i, j)
        missing = np.flatnonzero(edge_keys[np.searchsorted(edge_keys, key)] != key)
        if not missing.size:
            return loop, pts, np.asarray(simplices, dtype=np.int64), table
        loop = _split_segments(loop, missing)
    raise GeometryError("boundary recovery failed; polygon too tangled for spacing")


def _split_segments(loop, segments):
    """The loop with the given segments split at their midpoints."""
    segments = np.unique(segments)
    mids = 0.5 * (loop[segments] + loop[(segments + 1) % len(loop)])
    return np.insert(loop, segments + 1, mids, axis=0)


def _repair_points(loop, verts, tris, table, h):
    """Points to insert where the mesh misses a quality bound; table is the
    edge table of tris (_edge_table).

    A triangle with an angle below MIN_ANGLE_TARGET_DEG gets its
    circumcentre (Ruppert, J. Algorithms 18(3), 1995), worst first, and an
    interior edge longer than h its midpoint, longest first.  A circumcentre
    that encroaches a loop segment (or is outside) is dropped and those
    segments are split; so is a candidate nearer to an earlier one than half
    its clearance from the mesh.  Returns (loop, new points, min angle in
    degrees, max edge); the loop and the points are unchanged in size when
    the mesh meets both bounds, and may be so when it misses one.
    """
    from scipy.spatial import cKDTree

    # in degrees as TriMesh.min_angle_deg, so the bound it checks is this one
    angle = np.degrees(_all_angles(verts, tris).min(axis=1))
    bad = np.flatnonzero(angle < MIN_ANGLE_TARGET_DEG)
    bad = bad[np.argsort(angle[bad], kind="stable")]
    edges, _, counts = table
    elen = np.sqrt(((verts[edges[:, 1]] - verts[edges[:, 0]]) ** 2).sum(axis=1))
    long_ = np.flatnonzero((elen > h) & (counts == 2))
    long_ = long_[np.argsort(-elen[long_], kind="stable")]

    p0, off = verts[tris[bad, 0]], _circumcentres(verts[tris[bad]])
    a, b = loop - (p0 + off)[:, None], np.roll(loop, -1, axis=0) - (p0 + off)[:, None]
    encroach = (a * b).sum(axis=2) < 0
    ok = ~encroach.any(axis=1) & _point_in_polygon(p0 + off, loop)
    cand = np.concatenate([(p0 + off)[ok], 0.5 * (verts[edges[long_]].sum(axis=1))])
    clear = np.concatenate([np.sqrt((off[ok] ** 2).sum(axis=1)), 0.5 * elen[long_]])
    taken, blocked = np.zeros((2, len(cand)), dtype=bool)
    tree = cKDTree(cand)
    for i in range(len(cand)):
        if not blocked[i]:
            taken[i] = True
            blocked[tree.query_ball_point(cand[i], 0.5 * clear[i])] = True
    split = np.flatnonzero(encroach.any(axis=0))
    return ((_split_segments(loop, split) if split.size else loop), cand[taken],
            float(angle.min()), float(elen.max()))


def _insert_near(verts, tris, extra, reach):
    """The triangulation with the extra points, made again only near them.

    Triangles with a centroid within reach of an extra point give way to the
    Delaunay triangles of their vertices and the extra points inside them.
    Returns (verts + extra, tris), or None unless those keep the patch's rim
    and use every extra point.
    """
    from scipy.spatial import Delaunay, cKDTree

    patch = cKDTree(extra).query(verts[tris].mean(axis=1),
                                 distance_upper_bound=reach)[0] < np.inf
    ids = np.unique(tris[patch])
    local = np.append(ids, len(verts) + np.arange(len(extra)))[
        Delaunay(np.vstack([verts[ids], extra])).simplices]
    verts = np.vstack([verts, extra])
    edges, _, counts = _edge_table(tris[patch])
    rim = edges[counts == 1]
    cent = verts[local].mean(axis=1)
    local = local[_point_in_polygon(cent, verts[rim[:, 0]], verts[rim[:, 1]])]
    kept = np.sort(_directed_edges(local), axis=1)
    n = len(verts)
    if len(local) != patch.sum() + 2 * len(extra) or not np.isin(
            rim[:, 0] * n + rim[:, 1], kept[:, 0] * n + kept[:, 1]).all():
        return None
    return verts, np.vstack([tris[~patch], local])


def _laplacian_smooth(vertices, triangles, table):
    """Jacobi smoothing of interior vertices; boundary vertices stay fixed.

    Boundary vertices are the endpoints of edges on a single triangle, read
    from table, the edge table of triangles (_edge_table).  Each
    of the _SMOOTH_SWEEPS sweeps moves interior vertices toward the mean of
    their neighbours and halves the step globally if any triangle would
    invert.
    """
    verts = vertices.copy()
    nv = len(verts)
    pairs, _, counts = table
    interior = np.ones(nv, dtype=bool)
    interior[pairs[counts == 1].ravel()] = False
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    adj = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(nv, nv)
    )
    deg = np.asarray(adj.sum(axis=1)).ravel()
    deg[deg == 0] = 1.0
    for _ in range(_SMOOTH_SWEEPS):
        target = (adj @ verts) / deg[:, None]
        target[~interior] = verts[~interior]
        alpha = 1.0
        for _ in range(20):
            cand = verts + alpha * (target - verts)
            if _signed_areas(cand, triangles).min() > 0:
                verts = cand
                break
            alpha *= 0.5
    return verts


def gen_polygon(poly: Polygon):
    """Mesh a simple polygon with every angle >= 20 degrees and edge <= h.

    The polygon is meshed moved by minus its lowest corner (the minimum of
    its coordinates), so that coordinates round no worse than the extent
    does, and the vertices are moved back at the end: a polygon far from
    the origin is meshed as at its corner, to within that rounding.
    With h = poly.target_h: a staggered lattice of column step dx <=
    LATTICE_SPACING * h is fitted to the polygon (_lattice), the boundary is
    resampled at the lattice step (_resample_loop), and interior points
    follow the size field min(dx, h_b + GRADING * d), h_b the local spacing
    of the resampled loop and d the distance to it (_graded_points).  The
    Delaunay triangulation of the points, moved by _JITTER of the extent
    for it alone (_jittered), follows: the lattice's triangles built by
    index and the rest by qhull where that gives qhull's own triangles,
    else all by qhull (_lattice_delaunay).  Then Laplacian smoothing; up to
    REPAIR_ROUNDS times, circumcentres of triangles with an angle below
    MIN_ANGLE_TARGET_DEG and midpoints of interior edges longer than h are
    inserted (_repair_points).  A mesh that still misses a bound, after the
    last round or with no point left to insert, carries a warning, as it
    must where an input corner is sharper than 20 degrees.  Tests hold both
    bounds on bumps of radius 0.2 to 0.6 on each side of the 2pi x pi
    rectangle at h = 0.06 to 0.15, an L shape and a dumbbell.
    """
    h = poly.target_h
    corner = poly.loop.min(axis=0)
    loop = poly.loop - corner
    origin, step = _lattice(loop, h)
    loop = _resample_loop(loop, step)
    # each triangle array's edge table is computed once and passed on
    inner, ij = _graded_points(loop, origin, step)
    loop, verts, tris, table = _triangulate_region(loop, inner, (ij, step))
    verts = _laplacian_smooth(verts, tris, table)
    for rounds in range(REPAIR_ROUNDS + 1):
        new_loop, extra, angle, edge = _repair_points(loop, verts, tris, table, h)
        if rounds == REPAIR_ROUNDS or len(new_loop) == len(loop) and not len(extra):
            break
        split = len(new_loop) > len(loop)
        near = None if split else _insert_near(verts, tris, extra, 3 * h)
        if near is None:
            loop, verts, tris, table = _triangulate_region(
                new_loop, np.vstack([verts[len(loop):], extra]))
        else:
            verts, tris = near
            table = _edge_table(tris)
    missed = () if angle >= MIN_ANGLE_TARGET_DEG and edge <= h else (
        f"quality bounds missed after {rounds} repair rounds: min angle "
        f"{angle:.2f} deg, max edge {edge / h:.3f} h",)
    return _build_trimesh(verts + corner, tris, missed, table)


def refine_uniform(mesh: TriMesh):
    """Red refinement: every triangle split into four via edge midpoints.

    The refined P1 space nests the coarse one, so Rayleigh quotients can only
    decrease under this refinement.
    """
    v = mesh.vertices
    edges, tri_edges = mesh.connectivity.edges, mesh.connectivity.tri_edges
    # one midpoint per edge, numbered after the coarse vertices in edge order
    verts = np.vstack([v, (v[edges[:, 0]] + v[edges[:, 1]]) * 0.5])
    a, b, c = mesh.triangles.T
    ab, bc, ca = (len(v) + tri_edges).T
    # per triangle: the three corner children, then the middle one
    tris = np.column_stack(
        [a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca]
    ).reshape(-1, 3)
    return build_trimesh(verts, tris, warnings=mesh.warnings)


def perturb(mesh: TriMesh, V, t):
    """Move vertices to v + t*V(v); connectivity is unchanged.

    The result equals build_trimesh(mesh.vertices + t*V, mesh.triangles)
    field by field, but shares mesh.connectivity and mesh's boundary
    topology: only the vertices and the boundary normals and lengths are
    new.  Raises StepTooLargeError (carrying the max admissible t) if any
    triangle would lose positive orientation or become degenerate (the
    zero-area test of build_trimesh); ValueError if t or V is not finite.
    """
    V = np.asarray(V, dtype=float)
    if V.shape != mesh.vertices.shape:
        raise ValueError("velocity field must be sampled at every vertex")
    t = float(t)
    if not (math.isfinite(t) and np.isfinite(V).all()):
        raise ValueError(f"perturbation step and velocity must be finite, "
                         f"got t = {t!r}")
    new_verts = mesh.vertices + t * V
    areas, emax2 = _shape_measures(new_verts, mesh.triangles)
    if areas.min() <= 0:
        max_t = _max_admissible_step(mesh, V)
        raise StepTooLargeError("perturbation inverts a triangle", max_t)
    try:
        _check_shapes(areas, emax2)
        normals, lengths = _boundary_geometry(new_verts, mesh.boundary_edges)
    except GeometryError:
        # positive but degenerate: same remedy as an inverted element
        raise StepTooLargeError("perturbation degenerates a triangle",
                                _max_admissible_step(mesh, V))
    return replace(mesh, vertices=_freeze(new_verts),
                   boundary_normals=normals, boundary_lengths=lengths)


def _max_admissible_step(mesh: TriMesh, V):
    """Largest t with all signed areas positive along v + t*V.

    Per triangle the signed area is quadratic in t; the bound is the smallest
    positive root over all triangles.
    """
    p = mesh.vertices[mesh.triangles]
    w = V[mesh.triangles]
    u1, u2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    w1, w2 = w[:, 1] - w[:, 0], w[:, 2] - w[:, 0]
    a0 = 0.5 * _cross2(u1, u2)
    a1 = 0.5 * (_cross2(u1, w2) + _cross2(w1, u2))
    a2 = 0.5 * _cross2(w1, w2)
    quad = np.abs(a2) > 1e-300
    lin = ~quad & (np.abs(a1) > 1e-300)
    c0, c1, c2 = a0[quad], a1[quad], a2[quad]
    disc = c1 * c1 - 4.0 * c2 * c0
    real = disc >= 0
    c1, c2, sq = c1[real], c2[real], np.sqrt(disc[real])
    roots = np.concatenate(
        [(-c1 - sq) / (2 * c2), (-c1 + sq) / (2 * c2), -a0[lin] / a1[lin]]
    )
    pos = roots[roots > 0]
    return float(pos.min()) if pos.size else math.inf


# ---------------------------------------------------------------------------
# readers: Gmsh MSH 2.2 ASCII subset and native JSON


def import_gmsh22(text):
    """Parse the text of a Gmsh MSH 2.2 ASCII file into a TriMesh.

    Only 3-node triangles (type 2) are read; 2-node lines (type 1) are
    ignored and the boundary is recomputed topologically.  Physical and
    elementary tags are not kept: the domain is one medium.  A malformed
    record, or a section that ends before its count of records, raises
    MeshFormatError with the 1-based line number.
    """
    lines = text.splitlines()

    def find_section(name):
        for idx, ln in enumerate(lines):
            if ln.strip() == f"${name}":
                return idx
        raise MeshFormatError(f"missing ${name} section")

    def records(name, what):
        """(1-based line number, fields) of each record of section $name,
        as many as the count on the line after its header announces."""
        i = find_section(name)
        try:
            count = int(lines[i + 1])
        except (ValueError, IndexError):
            raise MeshFormatError(f"bad {what} count", line=i + 2)
        for k in range(count):
            ln_no = i + 3 + k
            if ln_no > len(lines) or lines[ln_no - 1].startswith("$"):
                raise MeshFormatError(f"${name} section ends after {k} of its "
                                      f"{count} {what} records", line=ln_no)
            yield ln_no, lines[ln_no - 1].split()

    i = find_section("MeshFormat")
    header = lines[i + 1].split() if i + 1 < len(lines) else []
    if len(header) < 3:
        raise MeshFormatError("malformed $MeshFormat header", line=i + 2)
    if header[0] not in ("2.2", "2"):
        raise MeshFormatError(f"unsupported MSH version {header[0]}", line=i + 2)
    if header[1] != "0":
        raise MeshFormatError("binary MSH files are not supported", line=i + 2)

    id_map = {}
    coords = []
    for ln_no, parts in records("Nodes", "node"):
        try:
            id_map[int(parts[0])] = len(coords)
            coords.append((float(parts[1]), float(parts[2])))
        except (ValueError, IndexError):
            raise MeshFormatError(f"bad node record {' '.join(parts)!r}",
                                  line=ln_no)

    tris = []
    for ln_no, parts in records("Elements", "element"):
        try:
            etype = int(parts[1])
            ntags = int(parts[2]) if len(parts) > 2 else 0
            node_ids = [int(x) for x in parts[3 + ntags:]]
        except (ValueError, IndexError):
            raise MeshFormatError(f"bad element record {' '.join(parts)!r}",
                                  line=ln_no)
        if etype == 1:
            continue
        if etype != 2:
            raise MeshFormatError(f"unsupported element type {etype}", line=ln_no)
        if len(node_ids) != 3:
            raise MeshFormatError("triangle element without 3 nodes", line=ln_no)
        try:
            tris.append(tuple(id_map[nid] for nid in node_ids))
        except KeyError as exc:
            raise MeshFormatError(f"dangling node reference {exc}", line=ln_no)
    if not tris:
        raise MeshFormatError("no triangle elements found")
    return build_trimesh(np.array(coords), np.array(tris))


def mesh_from_json(text):
    data = json.loads(text)
    return build_trimesh(np.array(data["vertices"]), np.array(data["triangles"]))
