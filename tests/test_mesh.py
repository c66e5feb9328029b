import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wgspec import mesh as M
from wgspec.errors import GeometryError, MeshFormatError, StepTooLargeError
from wgspec.shapederiv import bump_rectangle_polygon


def dumbbell_loop(n_circle=256):
    """Uneven dumbbell: unit disk at (-2,0), radius-2 disk at (2,0), strip
    meeting the left circle at angles +/- pi/15."""
    a = np.pi / 15
    alpha = np.arcsin(np.sin(a) / 2.0)
    pts = []
    th = np.linspace(a, 2 * np.pi - a,
                     int(round(n_circle * (2 * np.pi - 2 * a) / (2 * np.pi))))
    for t in th:
        pts.append((-2 + np.cos(t), np.sin(t)))
    th = np.linspace(np.pi + alpha, 3 * np.pi - alpha,
                     int(round(n_circle * (2 * np.pi - 2 * alpha) / (2 * np.pi))))
    for t in th:
        pts.append((2 + 2 * np.cos(t), 2 * np.sin(t)))
    return np.array(pts)


class TestGenRectangle:
    def test_minimal_grid(self):
        m = M.gen_rectangle(1, 1, 1, 1)
        assert m.num_triangles == 2
        assert m.num_vertices == 4
        assert len(m.boundary_edges) == 4

    def test_area_additivity(self):
        m = M.gen_rectangle(2 * np.pi, np.pi, 64, 32)
        assert m.num_triangles == 4096
        assert abs(m.total_area() - 2 * np.pi**2) <= 1e-12

    def test_bottom_normal(self):
        m = M.gen_rectangle(2, 1, 2, 2)
        mids = 0.5 * (m.vertices[m.boundary_edges[:, 0]]
                      + m.vertices[m.boundary_edges[:, 1]])
        on_bottom = np.abs(mids[:, 1]) < 1e-14
        assert on_bottom.any()
        assert np.allclose(m.boundary_normals[on_bottom], [0.0, -1.0])

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            M.gen_rectangle(-1, 1, 2, 2)
        with pytest.raises(ValueError):
            M.gen_rectangle(1, 1, 0, 2)

    @pytest.mark.parametrize("nx, ny", [(1, 1), (1, 5), (4, 1), (3, 7), (16, 9)])
    def test_matches_loop_reference(self, nx, ny):
        m = M.gen_rectangle(1.5, 0.7, nx, ny)
        assert np.array_equal(m.triangles, _rectangle_triangles_loop(nx, ny))


def _rectangle_triangles_loop(nx, ny):
    """Reference: the triangle order of gen_rectangle, cell by cell."""

    def vid(i, j):
        return i * (ny + 1) + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v01))
            tris.append((v10, v11, v01))
    return np.array(tris)


def _right_triangle_loop(n):
    """Reference: the vertex and triangle order of gen_right_triangle."""
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
    return np.array(verts, dtype=float), np.array(tris)


class TestGenRightTriangle:
    def test_single(self):
        m = M.gen_right_triangle(1)
        assert m.num_triangles == 1
        assert abs(m.total_area() - 0.5) < 1e-15

    def test_exact_tiling(self):
        m = M.gen_right_triangle(16)
        assert m.num_triangles == 256
        assert abs(m.total_area() - 0.5) <= 1e-14

    def test_min_angle_45(self):
        # angle audit over all triangles: right isosceles everywhere
        m = M.gen_right_triangle(64)
        assert abs(m.min_angle_deg() - 45.0) < 1e-10

    def test_hypotenuse_exact(self):
        m = M.gen_right_triangle(8)
        bv = m.vertices[m.boundary_vertex_indices()]
        on_hyp = np.abs(bv.sum(axis=1) - 1.0) < 1e-15
        assert on_hyp.sum() == 9

    def test_invalid(self):
        with pytest.raises(ValueError):
            M.gen_right_triangle(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 32])
    def test_matches_loop_reference(self, n):
        m = M.gen_right_triangle(n)
        verts, tris = _right_triangle_loop(n)
        assert np.array_equal(m.vertices, verts)
        assert np.array_equal(m.triangles, tris)


class TestGenPolygon:
    def test_unit_square(self):
        m = M.gen_polygon(M.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)], 0.25))
        assert abs(m.total_area() - 1.0) <= 1e-12

    def test_dumbbell(self):
        loop = dumbbell_loop()
        poly = M.Polygon(loop, 0.1)
        m = M.gen_polygon(poly)
        # area equals the shoelace area of the input polygon
        x, y = loop[:, 0], loop[:, 1]
        shoelace = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        assert abs(m.total_area() - shoelace) <= 1e-10 * shoelace
        # two reflex regions where the strip meets the circles
        cross = _corner_crosses(loop)
        reflex = np.where(cross < -1e-9)[0]
        assert len(reflex) == 4
        assert len(set(np.sign(loop[reflex][:, 0] + 1.0))) == 2

    def test_two_point_loop(self):
        with pytest.raises(GeometryError):
            M.Polygon([(0, 0), (1, 0)], 0.1)

    def test_self_intersection(self):
        with pytest.raises(GeometryError):
            M.Polygon([(0, 0), (1, 1), (1, 0), (0, 1)], 0.1)

    def test_boundary_on_polyline(self):
        m = M.gen_polygon(M.Polygon([(0, 0), (2, 0), (2, 1), (0, 1)], 0.3))
        bv = m.vertices[m.boundary_vertex_indices()]
        on_side = (
            (np.abs(bv[:, 1]) < 1e-12) | (np.abs(bv[:, 1] - 1) < 1e-12)
            | (np.abs(bv[:, 0]) < 1e-12) | (np.abs(bv[:, 0] - 2) < 1e-12)
        )
        assert on_side.all()
        # the docstring's bound: boundary edges stay <= target_h
        assert m.boundary_lengths.max() <= 0.3 * (1 + 1e-12)

    def test_plain_rectangle_vertex_count(self):
        # the benchmark's closed-form rectangle; pins the mesher's output size
        m = M.gen_polygon(M.Polygon(RECT_2PI_PI, 0.06))
        assert m.num_vertices == 8336
        assert m.warnings == ()


RECT_2PI_PI = [(0, 0), (2 * np.pi, 0), (2 * np.pi, np.pi), (0, np.pi)]
L_SHAPE = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]


def _corner_crosses(loop):
    prv = np.roll(loop, 1, axis=0)
    nxt = np.roll(loop, -1, axis=0)
    u = loop - prv
    v = nxt - loop
    return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]


class TestBoundaryInvariants:
    @pytest.mark.parametrize("make", [
        lambda: M.gen_rectangle(2, 1, 5, 3),
        lambda: M.gen_right_triangle(12),
        lambda: M.gen_polygon(M.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)], 0.3)),
    ])
    def test_closed_boundary_identity(self, make):
        m = make()
        s = (m.boundary_normals * m.boundary_lengths[:, None]).sum(axis=0)
        perim = m.boundary_lengths.sum()
        assert np.abs(s).max() <= 1e-12 * perim

    def test_normals_point_outward(self):
        m = M.gen_right_triangle(6)
        cent = m.vertices[m.triangles].mean(axis=1)
        owner = {}
        for i, t in enumerate(m.triangles):
            for k in range(3):
                owner[(int(t[k]), int(t[(k + 1) % 3]))] = i
        for (a, b), n in zip(m.boundary_edges, m.boundary_normals):
            mid = 0.5 * (m.vertices[a] + m.vertices[b])
            c = cent[owner[(int(a), int(b))]]
            assert n @ (mid - c) > 0


class TestBuildTrimesh:
    @pytest.mark.parametrize("verts, tris, match", [
        ([(0, 0), (1, 0), (0, 1)], [(0, 1, 3)], "out of range"),
        ([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)], "zero-area"),
        ([(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1, 2), (0, 3, 4)],
         "not edge-connected"),
        # three triangles on the edge (0, 1): area 2.0, boundary closure (0, 1)
        ([(0, 0), (1, 0), (0.5, 1), (0.5, -1), (0.5, 2)],
         [(0, 1, 2), (0, 1, 3), (0, 1, 4)], "not manifold"),
    ])
    def test_rejections(self, verts, tris, match):
        with pytest.raises(GeometryError, match=match):
            M.build_trimesh(np.array(verts, dtype=float), np.array(tris))


def _brute_boundary(triangles):
    fwd = {(int(a), int(b)) for a, b in M._directed_edges(triangles)}
    return sorted((a, b) for a, b in fwd if (b, a) not in fwd)


class TestEdgeTableProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["rect", "tri"]),
        n1=st.integers(1, 6),
        n2=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_against_brute_force(self, kind, n1, n2, seed):
        base = M.gen_rectangle(1.5, 1.0, n1, n2) if kind == "rect" \
            else M.gen_right_triangle(n1)
        rng = np.random.default_rng(seed)
        tris = base.triangles[rng.permutation(base.num_triangles)]
        shift = rng.integers(0, 3, size=len(tris))
        tris = np.array([np.roll(t, -k) for t, k in zip(tris, shift)])
        m = M.build_trimesh(base.vertices, tris)

        assert [tuple(e) for e in m.boundary_edges.tolist()] == _brute_boundary(tris)
        assert len(m.boundary_triangles) == len(m.boundary_edges)
        for (a, b), t in zip(m.boundary_edges, m.boundary_triangles):
            sides = {(int(m.triangles[t, k]), int(m.triangles[t, (k + 1) % 3]))
                     for k in range(3)}
            assert (int(a), int(b)) in sides

        V, F = m.num_vertices, m.num_triangles
        E = len({frozenset(e) for e in M._directed_edges(tris).tolist()})
        assert V - E + F == 1
        r = M.refine_uniform(m)
        assert r.num_vertices == V + E
        assert r.num_triangles == 4 * F


class TestLocalisedFlips:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["rect", "tri"]),
        n1=st.integers(2, 8),
        n2=st.integers(2, 8),
        quantile=st.floats(0.5, 0.98),
        first_passes=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dirty_mask_matches_full_scan(self, kind, n1, n2, quantile,
                                          first_passes, seed):
        base = M.gen_rectangle(1.5, 1.0, n1, n2) if kind == "rect" \
            else M.gen_right_triangle(n1)
        # jitter by at most 0.2 of the shortest leg, which keeps orientation
        leg = 1.0 / max(n1, n2) if kind == "rect" else 1.0 / n1
        rng = np.random.default_rng(seed)
        verts = base.vertices + rng.uniform(-0.2, 0.2, base.vertices.shape) * leg
        tris, dirty, (edges, tri_edges, _) = M._delaunay_flips(verts, base.triangles)
        assert not dirty.any()  # a fixpoint before the bisection

        elen = np.linalg.norm(verts[edges[:, 1]] - verts[edges[:, 0]], axis=1)
        verts, tris, keep = M._bisect_pass(verts, tris, edges, tri_edges, elen,
                                           np.quantile(elen, quantile))
        full, full_dirty, _ = M._delaunay_flips(verts, tris)
        assert not full_dirty.any()

        # the kept triangles come first; only the children are new
        dirty = np.arange(len(tris)) >= keep.sum()
        local, dirty, table = M._delaunay_flips(verts, tris, dirty,
                                                max_passes=first_passes)
        _assert_edge_table(table, local)
        # a call cut short hands its last flips on to the next call
        local, dirty, table = M._delaunay_flips(verts, local, dirty)
        _assert_edge_table(table, local)
        assert not dirty.any()
        assert np.array_equal(local, full)

    @pytest.mark.parametrize("loop, h", [
        (RECT_2PI_PI, 0.15),
        (L_SHAPE, 0.08),
        ("bump", 0.1),
    ])
    def test_refinement_ends_at_fixpoint(self, loop, h):
        if loop == "bump":
            loop = bump_rectangle_polygon(2 * np.pi, np.pi, "top", 3.0, 0.3, h).loop
        pts, tris = M._triangulate_region(M._resample_loop(np.asarray(loop, float), h), h)
        verts, tris = M._refine_longest_edge(pts, tris, h)
        again, dirty, _ = M._delaunay_flips(verts, tris)
        assert np.array_equal(again, tris)
        assert not dirty.any()


def _assert_edge_table(table, tris):
    for got, want in zip(table, M._edge_table(tris)):
        assert np.array_equal(got, want)


class TestFartherThan:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["rect", "bump", "L", "star"]),
        h=st.floats(0.03, 0.5),
        resample=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force(self, kind, h, resample, seed):
        rng = np.random.default_rng(seed)
        if kind == "rect":
            loop = np.array([(0, 0), (rng.uniform(0.5, 3), 0),
                             (rng.uniform(0.5, 3), rng.uniform(0.5, 2)),
                             (0, rng.uniform(0.5, 2))])
        elif kind == "bump":
            loop = bump_rectangle_polygon(2.0, 1.0, "top", rng.uniform(0.7, 1.3),
                                          rng.uniform(0.1, 0.6), h).loop
        elif kind == "L":
            loop = np.array(L_SHAPE, dtype=float)
        else:
            # star-shaped, hence simple and usually non-convex
            th = np.sort(rng.uniform(0, 2 * np.pi, 12))
            loop = np.column_stack([np.cos(th), np.sin(th)]) * rng.uniform(0.3, 1.5, (12, 1))
        if resample:
            loop = M._resample_loop(loop, h)
        r = 0.45 * h

        lo, hi = loop.min(axis=0) - h, loop.max(axis=0) + h
        points = [rng.uniform(lo, hi, (200, 2))]
        # points at distance r +- 1 ulp from segment interiors and vertices
        i = rng.integers(0, len(loop), 100)
        a, b = loop[i], loop[(i + 1) % len(loop)]
        tang = (b - a) / np.linalg.norm(b - a, axis=1)[:, None]
        normal = np.column_stack([-tang[:, 1], tang[:, 0]]) * rng.choice([-1, 1], (100, 1))
        foot = a + rng.uniform(0, 1, (100, 1)) * (b - a)
        phi = rng.uniform(0, 2 * np.pi, 100)
        for d in (np.nextafter(r, 0), r, np.nextafter(r, np.inf)):
            points.append(foot + d * normal)
            points.append(a + d * np.column_stack([np.cos(phi), np.sin(phi)]))
        points = np.concatenate(points)

        expected = M._dist_to_polyline(points, loop) > r
        assert np.array_equal(M._farther_than(points, loop, r), expected)


class TestPerturb:
    def test_identity(self):
        m = M.gen_right_triangle(4)
        V = np.random.default_rng(0).standard_normal(m.vertices.shape)
        p = M.perturb(m, V, 0.0)
        assert np.array_equal(p.vertices, m.vertices)
        assert np.array_equal(p.triangles, m.triangles)

    def test_rigid_translation(self):
        m = M.gen_rectangle(1, 1, 3, 3)
        V = np.tile([0.5, -0.25], (m.num_vertices, 1))
        p = M.perturb(m, V, 2.0)

        def lengths(mm):
            v, t = mm.vertices, mm.triangles
            return np.sort(np.concatenate([
                np.linalg.norm(v[t[:, 1]] - v[t[:, 0]], axis=1),
                np.linalg.norm(v[t[:, 2]] - v[t[:, 1]], axis=1),
                np.linalg.norm(v[t[:, 0]] - v[t[:, 2]], axis=1),
            ]))

        assert np.abs(lengths(p) - lengths(m)).max() <= 1e-14

    def test_step_too_large_reports_bound(self):
        m = M.gen_right_triangle(4)
        rng = np.random.default_rng(3)
        V = rng.standard_normal(m.vertices.shape)
        with pytest.raises(StepTooLargeError) as exc:
            M.perturb(m, V, 100.0)
        t_max = exc.value.max_t
        # bisection oracle against the positivity check
        lo, hi = 0.0, 100.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            try:
                M.perturb(m, V, mid)
                lo = mid
            except StepTooLargeError:
                hi = mid
        assert abs(t_max - lo) <= 1e-6 * (1 + abs(t_max))
        M.perturb(m, V, 0.999 * t_max)  # just inside is fine

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["rect", "tri"]),
        n=st.integers(1, 8),
        field=st.sampled_from(["random", "translation", "rotation", "shear",
                               "compression"]),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_max_step_matches_scalar_loop(self, kind, n, field, scale, seed):
        m = M.gen_rectangle(1.5, 1.0, n, n + 1) if kind == "rect" \
            else M.gen_right_triangle(n)
        x, y = m.vertices.T
        V = {
            "random": np.random.default_rng(seed).standard_normal(m.vertices.shape),
            "translation": np.tile([0.5, -0.25], (m.num_vertices, 1)),
            "rotation": np.column_stack([-y, x]),
            "shear": np.column_stack([y, np.zeros_like(y)]),
            # areas linear in t, vanishing at t = 1
            "compression": np.column_stack([-x, np.zeros_like(x)]),
        }[field] * scale
        assert M._max_admissible_step(m, V) == _max_step_loop(m, V)


def _max_step_loop(mesh, V):
    """Reference: the smallest positive root of each triangle's signed area
    along v + t V, one triangle at a time."""
    p = mesh.vertices[mesh.triangles]
    w = V[mesh.triangles]
    u1, u2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    w1, w2 = w[:, 1] - w[:, 0], w[:, 2] - w[:, 0]
    a0 = 0.5 * M._cross2(u1, u2)
    a1 = 0.5 * (M._cross2(u1, w2) + M._cross2(w1, u2))
    a2 = 0.5 * M._cross2(w1, w2)
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


GMSH_OK = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
3
1 1 2 0 1 1 2
2 2 2 0 1 1 2 3
3 2 2 0 1 1 3 4
$EndElements
"""


class TestGmsh:
    def test_import_square(self):
        m = M.import_gmsh22(GMSH_OK)
        assert m.num_triangles == 2
        assert len(m.boundary_edges) == 4
        assert abs(m.total_area() - 1.0) < 1e-14

    def test_clockwise_reoriented(self):
        text = GMSH_OK.replace("2 2 2 0 1 1 2 3", "2 2 2 0 1 1 3 2")
        m = M.import_gmsh22(text)
        assert (m.areas() > 0).all()

    def test_version_rejected(self):
        text = GMSH_OK.replace("2.2 0 8", "4.1 0 8")
        with pytest.raises(MeshFormatError, match="4.1"):
            M.import_gmsh22(text)

    def test_binary_rejected(self):
        text = GMSH_OK.replace("2.2 0 8", "2.2 1 8")
        with pytest.raises(MeshFormatError, match="binary"):
            M.import_gmsh22(text)

    def test_dangling_node(self):
        text = GMSH_OK.replace("3 2 2 0 1 1 3 4", "3 2 2 0 1 1 3 9")
        with pytest.raises(MeshFormatError, match="dangling"):
            M.import_gmsh22(text)

    def test_round_trip(self):
        m = M.gen_right_triangle(5)
        m2 = M.import_gmsh22(M.export_gmsh22(m))
        assert np.array_equal(m.vertices, m2.vertices)
        assert np.array_equal(m.triangles, m2.triangles)

    def test_json_round_trip(self):
        m = M.gen_rectangle(1.5, 0.7, 3, 2)
        m2 = M.mesh_from_json(M.mesh_to_json(m))
        assert np.array_equal(m.vertices, m2.vertices)
        assert np.array_equal(m.triangles, m2.triangles)


class TestRefineUniform:
    def test_counts_and_area(self):
        m = M.gen_right_triangle(3)
        r = M.refine_uniform(m)
        assert r.num_triangles == 4 * m.num_triangles
        assert abs(r.total_area() - m.total_area()) < 1e-14

    def test_conforming(self):
        r = M.refine_uniform(M.gen_rectangle(1, 1, 2, 2))
        # every interior edge shared by exactly two triangles
        de = M._directed_edges(r.triangles)
        fwd = {(int(a), int(b)) for a, b in de}
        assert len(de) == len(fwd)  # no duplicated directed edge
