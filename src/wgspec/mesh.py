"""Planar triangle meshes: structured generators, a polygon mesher, Gmsh 2.2 I/O.

A :class:`TriMesh` is immutable after construction.  All triangles are stored
counterclockwise; the oriented boundary with outward unit normals is recovered
topologically (edges adjacent to exactly one triangle).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_normals: np.ndarray
    boundary_lengths: np.ndarray
    boundary_triangles: np.ndarray
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
        v, t = self.vertices, self.triangles
        e = np.concatenate(
            [v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 1]], v[t[:, 0]] - v[t[:, 2]]]
        )
        return float(np.sqrt((e * e).sum(axis=1)).max())

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
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    return 0.5 * _cross2(p1 - p0, p2 - p0)


def _all_angles(vertices, triangles):
    """Interior angles, shape (nt, 3), radians."""
    p = vertices[triangles]  # (nt, 3, 2)
    ang = np.empty((triangles.shape[0], 3))
    for k in range(3):
        a = p[:, (k + 1) % 3] - p[:, k]
        b = p[:, (k + 2) % 3] - p[:, k]
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        c = (a * b).sum(axis=1) / (na * nb)
        ang[:, k] = np.arccos(np.clip(c, -1.0, 1.0))
    return ang


def _freeze(arr):
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def build_trimesh(vertices, triangles, warnings=()):
    """Assemble a validated TriMesh from vertex and triangle arrays; warnings
    are the mesher's quality notes, kept on the mesh.

    Reorients clockwise triangles, extracts the boundary topologically and
    checks positivity of areas, that no edge lies on more than two
    triangles, and edge-connectivity.
    """
    vertices = np.asarray(vertices, dtype=float).reshape(-1, 2)
    triangles = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
        raise GeometryError("triangle index out of range")

    areas = _signed_areas(vertices, triangles)
    flip = areas < 0
    if flip.any():
        triangles = triangles.copy()
        triangles[flip] = triangles[flip][:, [0, 2, 1]]
        areas = np.abs(areas)
    # shape-based degeneracy test: area relative to the longest edge squared
    p = vertices[triangles]
    emax2 = np.maximum(
        ((p[:, 1] - p[:, 0]) ** 2).sum(axis=1),
        np.maximum(
            ((p[:, 2] - p[:, 1]) ** 2).sum(axis=1),
            ((p[:, 0] - p[:, 2]) ** 2).sum(axis=1),
        ),
    )
    if (areas <= 1e-13 * emax2).any():
        raise GeometryError("mesh contains a (nearly) zero-area triangle")

    _, tri_edges, counts = _edge_table(triangles)
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
    tang = vertices[bedges[:, 1]] - vertices[bedges[:, 0]]
    lengths = np.sqrt((tang * tang).sum(axis=1))
    if (lengths <= 0).any():
        raise GeometryError("zero-length boundary edge")
    tang = tang / lengths[:, None]
    # domain on the left of a->b, outward is the tangent rotated -90 degrees
    normals = np.column_stack([tang[:, 1], -tang[:, 0]])

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
        boundary_normals=_freeze(normals),
        boundary_lengths=_freeze(lengths),
        boundary_triangles=_freeze(owner[order]),
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
# polygon mesher: graded boundary and lattice -> Delaunay -> smoothing -> repair


@dataclass(frozen=True)
class Polygon:
    """Simple counterclockwise polygon with a target mesh size."""

    loop: np.ndarray
    target_h: float

    def __init__(self, loop, target_h):
        loop = np.asarray(loop, dtype=float).reshape(-1, 2)
        if len(loop) >= 2 and np.allclose(loop[0], loop[-1]):
            loop = loop[:-1]
        if len(loop) < 3:
            raise GeometryError("polygon needs at least 3 distinct points")
        if not target_h > 0:
            raise ValueError("target_h must be positive")
        if _shoelace(loop) < 0:
            loop = loop[::-1].copy()
        if _self_intersects(loop):
            raise GeometryError("polygon loop self-intersects")
        object.__setattr__(self, "loop", _freeze(loop))
        object.__setattr__(self, "target_h", float(target_h))

    def area(self):
        return _shoelace(self.loop)


def _shoelace(loop):
    x, y = loop[:, 0], loop[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _self_intersects(loop):
    m = len(loop)
    a = loop
    b = np.roll(loop, -1, axis=0)
    for i in range(m):
        # skip the segment itself and both neighbours
        js = np.arange(i + 2, m if i > 0 else m - 1)
        if js.size == 0:
            continue
        if _segments_cross(a[i], b[i], a[js], b[js]).any():
            return True
    return False


def _segments_cross(p, q, r, s):
    """Proper intersection test of segment p-q against segments r[i]-s[i]."""

    def orient(a, b, c):
        return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (
            b[..., 1] - a[..., 1]
        ) * (c[..., 0] - a[..., 0])

    d1 = orient(p[None, :], q[None, :], r)
    d2 = orient(p[None, :], q[None, :], s)
    d3 = orient(r, s, p[None, :])
    d4 = orient(r, s, q[None, :])
    return (d1 * d2 < 0) & (d3 * d4 < 0)


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
    within WALL_GAP of their level's dx of the loop are dropped.
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
        cand.append(pts[((pts >= lo) & (pts <= hi)).all(axis=1)])
        first.append(np.full(len(cand[-1]), k))
    cand, first = np.concatenate(cand), np.concatenate(first)
    size = np.full(len(cand), step[0])
    if len(cut):
        src = spacing <= cut[0]
        pairs = cKDTree(loop[src]).sparse_distance_matrix(
            cKDTree(cand), (cut[0] - spacing.min()) / GRADING, output_type="ndarray")
        np.minimum.at(size, pairs["j"], spacing[src][pairs["i"]] + GRADING * pairs["v"])
    level = (size[:, None] <= cut).sum(axis=1)
    keep = level >= first
    cand, gap = cand[keep], WALL_GAP * step[0] / 2.0 ** level[keep]
    inside = _point_in_polygon(cand, loop)
    return cand[inside][_farther_than(cand[inside], loop, gap[inside])]


def _triangulate_region(loop, inner):
    """Delaunay triangulation of the polygon on its loop and the inner points.

    Flat triangles and those with a centroid outside the polygon are
    dropped; a loop segment missing from the triangulation is split at its
    midpoint and the points triangulated again.  Returns (loop, pts, tris):
    the loop with those splits, and pts, the loop then the inner points.
    """
    from scipy.spatial import Delaunay

    # qhull takes about twice as long on a lattice's cocircular quadruples;
    # moving the inner points by 1e-10 of the extent, for qhull only, ends it
    jitter = np.random.default_rng(0).uniform(-1e-10, 1e-10, inner.shape)
    shifted = inner + jitter * np.ptp(loop)
    for _ in range(12):
        nb = len(loop)
        pts = np.vstack([loop, inner])
        simplices = Delaunay(np.vstack([loop, shifted])).simplices
        # drop triangles whose centroid falls outside the polygon, and the
        # flat ones qhull can leave between collinear points of its hull
        p = pts[simplices]
        u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        flat = np.abs(_cross2(u, v)) <= 1e-12 * (
            (u * u).sum(axis=1) + (v * v).sum(axis=1))
        simplices = simplices[~flat & _point_in_polygon(p.mean(axis=1), loop)]

        # the loop points come first, so segment i is the edge (i, i+1 mod nb)
        i, j = np.arange(nb), (np.arange(nb) + 1) % nb
        lo, hi = _edge_table(simplices)[0].T
        key = np.minimum(i, j) * len(pts) + np.maximum(i, j)
        missing = np.flatnonzero(~np.isin(key, lo * len(pts) + hi))
        if not missing.size:
            return loop, pts, np.asarray(simplices, dtype=np.int64)
        loop = _split_segments(loop, missing)
    raise GeometryError("boundary recovery failed; polygon too tangled for spacing")


def _split_segments(loop, segments):
    """The loop with the given segments split at their midpoints."""
    segments = np.unique(segments)
    mids = 0.5 * (loop[segments] + loop[(segments + 1) % len(loop)])
    return np.insert(loop, segments + 1, mids, axis=0)


def _repair_points(loop, verts, tris, h):
    """Points to insert where the mesh misses a quality bound.

    A triangle with an angle below MIN_ANGLE_TARGET_DEG gets its
    circumcentre (Ruppert, J. Algorithms 18(3), 1995), worst first, and an
    interior edge longer than h its midpoint, longest first.  A circumcentre
    that encroaches a loop segment (or is outside) is dropped and those
    segments are split; so is a candidate nearer to an earlier one than half
    its clearance from the mesh.  Returns (loop, new points), both unchanged
    in size when the mesh meets both bounds.
    """
    from scipy.spatial import cKDTree

    # in degrees as TriMesh.min_angle_deg, so the bound it checks is this one
    angle = np.degrees(_all_angles(verts, tris).min(axis=1))
    bad = np.flatnonzero(angle < MIN_ANGLE_TARGET_DEG)
    bad = bad[np.argsort(angle[bad], kind="stable")]
    edges, _, counts = _edge_table(tris)
    elen = np.sqrt(((verts[edges[:, 1]] - verts[edges[:, 0]]) ** 2).sum(axis=1))
    long_ = np.flatnonzero((elen > h) & (counts == 2))
    long_ = long_[np.argsort(-elen[long_], kind="stable")]

    p0 = verts[tris[bad, 0]]
    u, v = verts[tris[bad, 1]] - p0, verts[tris[bad, 2]] - p0
    uu, vv = (u * u).sum(axis=1), (v * v).sum(axis=1)
    off = (np.column_stack([v[:, 1] * uu - u[:, 1] * vv, u[:, 0] * vv - v[:, 0] * uu])
           / (2.0 * _cross2(u, v))[:, None])
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
    return (_split_segments(loop, split) if split.size else loop), cand[taken]


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


def _laplacian_smooth(vertices, triangles):
    """Jacobi smoothing of interior vertices; boundary vertices stay fixed.

    Boundary vertices are the endpoints of edges on a single triangle.  Each
    of the _SMOOTH_SWEEPS sweeps moves interior vertices toward the mean of
    their neighbours and halves the step globally if any triangle would
    invert.
    """
    verts = vertices.copy()
    nv = len(verts)
    pairs, _, counts = _edge_table(triangles)
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

    With h = poly.target_h: a staggered lattice of column step dx <=
    LATTICE_SPACING * h is fitted to the polygon (_lattice), the boundary is
    resampled at the lattice step (_resample_loop), and interior points
    follow the size field min(dx, h_b + GRADING * d), h_b the local spacing
    of the resampled loop and d the distance to it (_graded_points).  One
    Delaunay triangulation and Laplacian smoothing follow; then, up to
    REPAIR_ROUNDS times, circumcentres of triangles with an angle below
    MIN_ANGLE_TARGET_DEG and midpoints of interior edges longer than h are
    inserted (_repair_points), else the mesh carries a warning, as it must
    where an input corner is sharper than 20 degrees.  Tests hold both
    bounds on bumps of radius 0.2 to 0.6 on each side of the 2pi x pi
    rectangle at h = 0.06 to 0.15, an L shape and a dumbbell.
    """
    h = poly.target_h
    origin, step = _lattice(poly.loop, h)
    loop = _resample_loop(poly.loop, step)
    loop, verts, tris = _triangulate_region(loop, _graded_points(loop, origin, step))
    verts = _laplacian_smooth(verts, tris)
    for _ in range(REPAIR_ROUNDS):
        new_loop, extra = _repair_points(loop, verts, tris, h)
        if len(new_loop) == len(loop) and not len(extra):
            return build_trimesh(verts, tris)
        split = len(new_loop) > len(loop)
        near = None if split else _insert_near(verts, tris, extra, 3 * h)
        if near is None:
            loop, verts, tris = _triangulate_region(
                new_loop, np.vstack([verts[len(loop):], extra]))
        else:
            verts, tris = near
    mesh = build_trimesh(verts, tris)
    return build_trimesh(verts, tris, warnings=(
        f"quality bounds missed after {REPAIR_ROUNDS} repair rounds: min angle "
        f"{mesh.min_angle_deg():.2f} deg, max edge {mesh.max_edge() / h:.3f} h",))


def refine_uniform(mesh: TriMesh):
    """Red refinement: every triangle split into four via edge midpoints.

    The refined P1 space nests the coarse one, so Rayleigh quotients can only
    decrease under this refinement.
    """
    v = mesh.vertices
    edges, tri_edges, _ = _edge_table(mesh.triangles)
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

    Raises StepTooLargeError (carrying the max admissible t) if any triangle
    would lose positive orientation.
    """
    V = np.asarray(V, dtype=float)
    if V.shape != mesh.vertices.shape:
        raise ValueError("velocity field must be sampled at every vertex")
    t = float(t)
    new_verts = mesh.vertices + t * V
    areas = _signed_areas(new_verts, mesh.triangles)
    if areas.min() <= 0:
        max_t = _max_admissible_step(mesh, V)
        raise StepTooLargeError("perturbation inverts a triangle", max_t)
    try:
        return build_trimesh(new_verts, mesh.triangles, warnings=mesh.warnings)
    except GeometryError:
        # positive but degenerate: same remedy as an inverted element
        raise StepTooLargeError("perturbation degenerates a triangle",
                                _max_admissible_step(mesh, V))


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
# Gmsh MSH 2.2 ASCII subset and native JSON


def import_gmsh22(text):
    """Parse the text of a Gmsh MSH 2.2 ASCII file into a TriMesh.

    Only 3-node triangles (type 2) are read; 2-node lines (type 1) are
    ignored and the boundary is recomputed topologically.  Physical and
    elementary tags are not kept: the domain is one medium.
    """
    lines = text.splitlines()

    def find_section(name):
        for idx, ln in enumerate(lines):
            if ln.strip() == f"${name}":
                return idx
        raise MeshFormatError(f"missing ${name} section")

    i = find_section("MeshFormat")
    header = lines[i + 1].split()
    if len(header) < 3:
        raise MeshFormatError("malformed $MeshFormat header", line=i + 2)
    if header[0] not in ("2.2", "2"):
        raise MeshFormatError(f"unsupported MSH version {header[0]}", line=i + 2)
    if header[1] != "0":
        raise MeshFormatError("binary MSH files are not supported", line=i + 2)

    i = find_section("Nodes")
    try:
        n_nodes = int(lines[i + 1])
    except (ValueError, IndexError):
        raise MeshFormatError("bad node count", line=i + 2)
    id_map = {}
    coords = []
    for k in range(n_nodes):
        parts = lines[i + 2 + k].split()
        if len(parts) < 3:
            raise MeshFormatError("bad node record", line=i + 3 + k)
        id_map[int(parts[0])] = k
        coords.append((float(parts[1]), float(parts[2])))

    i = find_section("Elements")
    try:
        n_elem = int(lines[i + 1])
    except (ValueError, IndexError):
        raise MeshFormatError("bad element count", line=i + 2)
    tris = []
    for k in range(n_elem):
        ln_no = i + 3 + k
        parts = lines[i + 2 + k].split()
        if len(parts) < 2:
            raise MeshFormatError("bad element record", line=ln_no)
        etype = int(parts[1])
        ntags = int(parts[2]) if len(parts) > 2 else 0
        node_ids = [int(x) for x in parts[3 + ntags:]]
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


def export_gmsh22(mesh: TriMesh):
    """Serialize to Gmsh MSH 2.2 ASCII with 17-significant-digit coordinates."""
    out = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes",
           str(mesh.num_vertices)]
    for i, (x, y) in enumerate(mesh.vertices, start=1):
        out.append(f"{i} {x:.16e} {y:.16e} 0")
    out.append("$EndNodes")
    out.append("$Elements")
    out.append(str(mesh.num_triangles))
    for i, t in enumerate(mesh.triangles, start=1):
        out.append(f"{i} 2 2 0 0 {t[0] + 1} {t[1] + 1} {t[2] + 1}")
    out.append("$EndElements")
    return "\n".join(out) + "\n"


def mesh_to_json(mesh: TriMesh):
    """Native JSON form: 0-based indices, full-precision coordinates."""
    return json.dumps(
        {
            "vertices": [[float(x), float(y)] for x, y in mesh.vertices],
            "triangles": [[int(a), int(b), int(c)] for a, b, c in mesh.triangles],
        }
    )


def mesh_from_json(text):
    data = json.loads(text)
    return build_trimesh(np.array(data["vertices"]), np.array(data["triangles"]))
