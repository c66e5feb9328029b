"""Planar triangle meshes: structured generators, a polygon mesher, Gmsh 2.2 I/O.

A :class:`TriMesh` is immutable after construction.  All triangles are stored
counterclockwise; the oriented boundary with outward unit normals is recovered
topologically (edges adjacent to exactly one triangle).
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .errors import GeometryError, MeshFormatError, StepTooLargeError

MIN_ANGLE_FLOOR_DEG = 15.0
_SMOOTH_SWEEPS = 10


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangle mesh of a planar domain.

    Attributes
    ----------
    vertices : (nv, 2) float array
        Vertex coordinates.
    triangles : (nt, 3) int array
        Vertex indices, counterclockwise.
    region : (nt,) int array
        Region tag per triangle (single-material meshes use 0).
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
    region: np.ndarray
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


def build_trimesh(vertices, triangles, region=None, warnings=()):
    """Assemble a validated TriMesh from raw arrays.

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

    if region is None:
        region = np.zeros(len(triangles), dtype=np.int64)
    else:
        region = np.asarray(region, dtype=np.int64).reshape(-1)

    return TriMesh(
        vertices=_freeze(vertices),
        triangles=_freeze(triangles),
        region=_freeze(region),
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

    def vid(i, j):
        return i * (ny + 1) + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v01))
            tris.append((v10, v11, v01))
    return build_trimesh(vertices, np.array(tris))


def gen_right_triangle(n):
    """Structured mesh of the triangle (0,0)-(1,0)-(0,1) with n*n triangles.

    Uses the n x n unit-square grid restricted below the diagonal; hypotenuse
    vertices sit exactly on x + y = 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    n = int(n)
    index = -np.ones((n + 1, n + 1), dtype=np.int64)
    verts = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            index[i, j] = len(verts)
            verts.append((i / n, j / n))
    tris = []
    for i in range(n):
        for j in range(n - i):
            tris.append((index[i, j], index[i + 1, j], index[i, j + 1]))
            if i + j <= n - 2:
                tris.append((index[i + 1, j], index[i + 1, j + 1], index[i, j + 1]))
    return build_trimesh(np.array(verts, dtype=float), np.array(tris))


# ---------------------------------------------------------------------------
# polygon mesher: resample -> ear clipping -> longest-edge bisection -> smoothing


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


def _resample_loop(loop, h):
    """Insert points along each polygon segment so spacing <= h.

    Original vertices are kept; inserted points lie exactly on the polyline.
    """
    out = []
    m = len(loop)
    for i in range(m):
        p, q = loop[i], loop[(i + 1) % m]
        seg = np.linalg.norm(q - p)
        k = max(1, int(math.ceil(seg / h - 1e-12)))
        for j in range(k):
            out.append(p + (q - p) * (j / k))
    return np.array(out)


def _point_in_polygon(points, loop):
    """Crossing-number test, vectorized over points."""
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    m = len(loop)
    for i in range(m):
        x1, y1 = loop[i]
        x2, y2 = loop[(i + 1) % m]
        crosses = ((y1 > y) != (y2 > y)) & (
            x < (x2 - x1) * (y - y1) / (y2 - y1 + 1e-300) + x1
        )
        inside ^= crosses
    return inside


def _dist_to_polyline(points, loop):
    """Distance from each point to the closed polyline, chunked."""
    m = len(loop)
    a = loop
    b = np.roll(loop, -1, axis=0)
    ab = b - a
    ab2 = (ab * ab).sum(axis=1) + 1e-300
    out = np.empty(len(points))
    chunk = max(1, 4_000_000 // max(m, 1))
    for s in range(0, len(points), chunk):
        p = points[s : s + chunk]
        ap = p[:, None, :] - a[None, :, :]
        t = np.clip((ap * ab[None, :, :]).sum(axis=2) / ab2[None, :], 0.0, 1.0)
        d = ap - t[:, :, None] * ab[None, :, :]
        out[s : s + chunk] = np.sqrt((d * d).sum(axis=2).min(axis=1))
    return out


def _triangulate_region(loop, h):
    """Delaunay triangulation of the polygon region at spacing ~h.

    Interior points come from a staggered grid clipped to the polygon;
    triangles outside the (possibly non-convex) polygon are dropped.  Any
    boundary segment missing from the triangulation is recovered by
    splitting it at its midpoint and retriangulating.
    """
    from scipy.spatial import Delaunay

    loop = np.asarray(loop, dtype=float)
    for _ in range(12):
        nb = len(loop)
        xmin, ymin = loop.min(axis=0)
        xmax, ymax = loop.max(axis=0)
        dx = 0.95 * h
        dy = dx * math.sqrt(3.0) / 2.0
        ys = np.arange(ymin + 0.5 * dy, ymax, dy)
        rows = []
        for r, yv in enumerate(ys):
            xs = np.arange(xmin + (0.25 + 0.5 * (r % 2)) * dx, xmax, dx)
            rows.append(np.column_stack([xs, np.full(len(xs), yv)]))
        grid = np.concatenate(rows) if rows else np.empty((0, 2))
        if len(grid):
            keep = _point_in_polygon(grid, loop)
            keep &= _dist_to_polyline(grid, loop) > 0.45 * h
            grid = grid[keep]
        pts = np.vstack([loop, grid])

        tri = Delaunay(pts)
        simplices = tri.simplices
        # drop triangles whose centroid falls outside the polygon
        cent = pts[simplices].mean(axis=1)
        simplices = simplices[_point_in_polygon(cent, loop)]

        # the loop points come first, so segment i is the edge (i, i+1 mod nb)
        lo, hi = _edge_table(simplices)[0].T
        present = np.zeros(nb, dtype=bool)
        present[lo[(hi == lo + 1) & (hi < nb)]] = True
        present[nb - 1] = ((lo == 0) & (hi == nb - 1)).any()
        missing = np.flatnonzero(~present)
        if not missing.size:
            return pts, np.asarray(simplices, dtype=np.int64)
        # split encroached boundary segments at their midpoints (points stay
        # on the polyline) and retriangulate
        mids = 0.5 * (loop[missing] + loop[(missing + 1) % nb])
        loop = np.insert(loop, missing + 1, mids, axis=0)
    raise GeometryError("boundary recovery failed; polygon too tangled for spacing")


def _delaunay_flips(verts, tris, max_passes=60):
    """Lawson edge flips toward the Delaunay triangulation of the point set.

    Connectivity-only operation (no new points); restores triangle quality
    between bisection generations so longest-edge closure stays local.  The
    flip predicate is the opposite-angles form (gamma_c + gamma_d > pi),
    which stays meaningful for sliver triangles where the raw incircle
    determinant underflows.
    """
    tris = np.asarray(tris, dtype=np.int64).copy()
    pts = np.asarray(verts, dtype=float)
    for _ in range(max_passes):
        nt = len(tris)
        _, tri_edges, counts = _edge_table(tris)
        # each interior edge's two sides, numbered slot = side * nt + triangle
        slot = np.arange(3 * nt)
        first = np.full(len(counts), 3 * nt)
        second = np.full(len(counts), -1)
        np.minimum.at(first, tri_edges.T.ravel(), slot)
        np.maximum.at(second, tri_edges.T.ravel(), slot)
        interior = counts == 2
        if not interior.any():
            break
        k1, t1 = np.divmod(first[interior], nt)
        k2, t2 = np.divmod(second[interior], nt)

        a = tris[t1, k1]
        b = tris[t1, (k1 + 1) % 3]
        c = tris[t1, (k1 + 2) % 3]
        d = tris[t2, (k2 + 2) % 3]
        pa, pb, pc, pd = pts[a], pts[b], pts[c], pts[d]

        # angle at c over edge (a, b) plus angle at d over (a, b) exceeding pi
        u1, v1 = pa - pc, pb - pc
        u2, v2 = pb - pd, pa - pd
        cos_c = (u1 * v1).sum(axis=1)
        sin_c = np.abs(_cross2(u1, v1))
        cos_d = (u2 * v2).sum(axis=1)
        sin_d = np.abs(_cross2(u2, v2))
        crit = sin_c * cos_d + cos_c * sin_d
        scale = (
            np.linalg.norm(u1, axis=1) * np.linalg.norm(v1, axis=1)
            * np.linalg.norm(u2, axis=1) * np.linalg.norm(v2, axis=1)
        )
        want = crit < -1e-12 * scale
        # the flipped pair (a,d,c), (d,b,c) must keep positive orientation
        na1 = _cross2(pd - pa, pc - pa)
        na2 = _cross2(pb - pd, pc - pd)
        e2 = np.maximum(((pa - pb) ** 2).sum(axis=1), ((pc - pd) ** 2).sum(axis=1))
        want &= (na1 > 1e-13 * e2) & (na2 > 1e-13 * e2)
        cand = np.where(want)[0]
        if cand.size == 0:
            break
        # independent subset: strongest violations first, one flip per triangle
        cand = cand[np.argsort(crit[cand] / (scale[cand] + 1e-300))]
        used = np.zeros(nt, dtype=bool)
        flipped = False
        for j in cand:
            i1, i2 = t1[j], t2[j]
            if used[i1] or used[i2]:
                continue
            used[i1] = used[i2] = True
            tris[i1] = (a[j], d[j], c[j])
            tris[i2] = (d[j], b[j], c[j])
            flipped = True
        if not flipped:
            break
    return tris


def _refine_longest_edge(vertices, triangles, h):
    """Conforming longest-edge bisection with interleaved Delaunay flips.

    Edges longer than the current target are bisected one generation at a
    time; a flip pass between generations keeps triangles well shaped so the
    conformity closure stays local.
    """
    verts = np.asarray(vertices, dtype=float)
    tris = np.asarray(triangles, dtype=np.int64)
    for _ in range(200):
        tris = _delaunay_flips(verts, tris)
        p = verts[tris]
        emax = math.sqrt(
            max(
                ((p[:, 1] - p[:, 0]) ** 2).sum(axis=1).max(),
                ((p[:, 2] - p[:, 1]) ** 2).sum(axis=1).max(),
                ((p[:, 0] - p[:, 2]) ** 2).sum(axis=1).max(),
            )
        )
        if emax <= h:
            return verts, tris
        target = max(h, emax / 2.0)
        verts, tris = _bisect_pass(verts, tris, target)
    raise GeometryError("longest-edge refinement failed to reach the target size")


def _bisect_pass(verts, tris, target):
    """One marked-bisection generation: split every edge longer than target.

    Marked edges are split in every adjacent triangle (2, 3 or 4 children),
    so the pass is conforming without any closure; the interleaved flip
    passes repair the connectivity quality afterwards.
    """
    uniq, edge_id, _ = _edge_table(tris)
    elen = np.linalg.norm(verts[uniq[:, 1]] - verts[uniq[:, 0]], axis=1)

    marked = elen > target
    if not marked.any():
        return verts, tris

    mid_of = -np.ones(len(uniq), dtype=np.int64)
    midx = np.where(marked)[0]
    mid_of[midx] = len(verts) + np.arange(len(midx))
    new_pts = 0.5 * (verts[uniq[midx, 0]] + verts[uniq[midx, 1]])
    verts = np.vstack([verts, new_pts])

    out = []
    m = marked[edge_id]  # (nt, 3)
    keep = ~m.any(axis=1)
    out.append(tris[keep])
    side_len = elen[edge_id]
    for t_idx in np.where(~keep)[0]:
        t = tris[t_idx]
        # anchor on the longest marked side for the bisection pattern
        rot = max(
            (k for k in range(3) if m[t_idx, k]),
            key=lambda k: side_len[t_idx, k],
        )
        v0, v1, v2 = t[rot], t[(rot + 1) % 3], t[(rot + 2) % 3]
        e01 = mid_of[edge_id[t_idx, rot]]
        e12 = mid_of[edge_id[t_idx, (rot + 1) % 3]]
        e20 = mid_of[edge_id[t_idx, (rot + 2) % 3]]
        if e12 < 0 and e20 < 0:
            out.append([(v0, e01, v2), (e01, v1, v2)])
        elif e12 >= 0 and e20 < 0:
            out.append([(v0, e01, v2), (e01, v1, e12), (e01, e12, v2)])
        elif e12 < 0 and e20 >= 0:
            out.append([(e01, v1, v2), (e01, v2, e20), (v0, e01, e20)])
        else:
            out.append([(v0, e01, e20), (e01, v1, e12), (e20, e12, v2), (e01, e12, e20)])
    tris = np.concatenate([np.asarray(chunk, dtype=np.int64).reshape(-1, 3) for chunk in out])
    return verts, tris


def _laplacian_smooth(vertices, triangles, sweeps=_SMOOTH_SWEEPS):
    """Jacobi smoothing of interior vertices; boundary vertices stay fixed.

    Boundary vertices are the endpoints of edges on a single triangle.  Each
    sweep moves interior vertices toward the mean of their neighbours and
    halves the step globally if any triangle would invert.
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
    for _ in range(sweeps):
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
    """Mesh a simple polygon at edge length about poly.target_h.

    The boundary is resampled on the input polyline (boundary edges stay
    <= target_h), the region is triangulated over a staggered interior point
    grid, and edges longer than target_h are bisected (with Lawson flips to
    keep quality).  Laplacian smoothing then relaxes the interior vertices,
    which can stretch interior edges past target_h: the longest edge reaches
    1.23 * target_h on a 2pi x pi rectangle with a radius-0.21 bump at
    target_h = 0.06.  No bound on the longest edge is enforced.  A min angle
    below 15 degrees is reported as a warning on the mesh, not an error.
    """
    h = poly.target_h
    loop = _resample_loop(np.asarray(poly.loop), h)
    verts, tris = _triangulate_region(loop, h)
    verts, tris = _refine_longest_edge(verts, tris, h)
    verts = _laplacian_smooth(verts, tris)
    mesh = build_trimesh(verts, tris)
    if mesh.min_angle_deg() < MIN_ANGLE_FLOOR_DEG:
        mesh = build_trimesh(
            verts,
            tris,
            warnings=(
                f"min angle {mesh.min_angle_deg():.2f} deg below the "
                f"{MIN_ANGLE_FLOOR_DEG:.0f} deg quality floor",
            ),
        )
    return mesh


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
    return build_trimesh(verts, tris, region=np.repeat(mesh.region, 4),
                         warnings=mesh.warnings)


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
        return build_trimesh(new_verts, mesh.triangles, region=mesh.region,
                             warnings=mesh.warnings)
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
    best = math.inf
    for c0, c1, c2 in zip(a0, a1, a2):
        roots = []
        if abs(c2) > 1e-300:
            disc = c1 * c1 - 4.0 * c2 * c0
            if disc >= 0:
                sq = math.sqrt(disc)
                roots.extend([(-c1 - sq) / (2 * c2), (-c1 + sq) / (2 * c2)])
        elif abs(c1) > 1e-300:
            roots.append(-c0 / c1)
        pos = [r for r in roots if r > 0]
        if pos:
            best = min(best, min(pos))
    return best


# ---------------------------------------------------------------------------
# Gmsh MSH 2.2 ASCII subset and native JSON


def import_gmsh22(text):
    """Parse a Gmsh MSH 2.2 ASCII stream into a TriMesh.

    Only 3-node triangles (type 2) are read; 2-node lines (type 1) are
    ignored and the boundary is recomputed topologically.
    """
    if hasattr(text, "read"):
        lines = text.read().splitlines()
    else:
        lines = io.StringIO(text).read().splitlines()

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
    region = []
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
        region.append(0)
    if not tris:
        raise MeshFormatError("no triangle elements found")
    return build_trimesh(np.array(coords), np.array(tris), region=np.array(region))


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
