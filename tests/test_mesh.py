import functools
import json
import math
import random
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wgspec import mesh as M
from wgspec.crosssec import x_boundary
from wgspec.errors import GeometryError, MeshFormatError, StepTooLargeError
from wgspec.fem import neumann_eigs
from wgspec.shapederiv import boundary_integrand, bump_rectangle_polygon


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

    @pytest.mark.parametrize("loop", [
        # a repeated point: a zero-length segment, whose end lies on the
        # segment before
        [(0, 0), (1, 0), (1, 0), (1, 1), (0, 1)],
        # a side that doubles back along itself: no proper crossing, but
        # (1, 0) lies on the side from (0, 0) to (2, 0)
        [(0, 0), (2, 0), (1, 0), (1, 1), (0, 1)],
    ], ids=["repeated point", "doubled back"])
    def test_degenerate_loop(self, loop):
        with pytest.raises(GeometryError,
                           match=r"touches itself: vertex \(1, 0\) lies on a segment"):
            M.Polygon(loop, 0.1)

    @pytest.mark.parametrize("shape", ["collinear point", "L", "ellipse", "bumps"])
    def test_touching_loops_are_told_from_valid_ones(self, shape):
        # the bumps' side pieces are collinear but disjoint
        loops = {"collinear point": [[(0, 0), (1, 0), (2, 0), (2, 1), (0, 1)]],
                 "L": [L_SHAPE], "ellipse": [ELLIPSE],
                 "bumps": [bump_rectangle_polygon(2 * np.pi, np.pi, side, 1.5, r,
                                                  0.06).loop
                           for side in ("top", "right") for r in (0.2, 0.6)]}[shape]
        for loop in loops:
            assert len(M.Polygon(loop, 0.1).loop) == len(loop)

    @pytest.mark.parametrize("kind, h", [("rectangle", 0.15), ("bump", 0.12)])
    def test_clockwise_loop_is_reversed(self, kind, h):
        # a clockwise loop is taken in reverse, so it meshes as the
        # counterclockwise one
        loop = (np.asarray(RECT_2PI_PI, dtype=float) if kind == "rectangle" else
                bump_rectangle_polygon(2 * np.pi, np.pi, "top", 1.7, 0.4, h).loop)
        poly = M.Polygon(loop[::-1], h)
        assert np.array_equal(poly.loop, loop)
        cw, ccw = M.gen_polygon(poly), M.gen_polygon(M.Polygon(loop, h))
        assert np.array_equal(cw.vertices, ccw.vertices)
        assert np.array_equal(cw.triangles, ccw.triangles)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_loop(self, bad):
        with pytest.raises(GeometryError, match="non-finite"):
            M.Polygon([(0, 0), (1, 0), (1, bad), (0, 1)], 0.1)

    @pytest.mark.parametrize("h", [math.inf, math.nan, 0.0])
    def test_target_h_positive_and_finite(self, h):
        with pytest.raises(ValueError, match="target_h must be positive and finite"):
            M.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)], h)

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

    def test_missed_bounds_build_one_mesh(self, monkeypatch):
        # a 7.6 degree corner: the bounds are missed and the warning is
        # attached to the mesh already built
        built = []
        original = M._build_trimesh

        def build_trimesh(*args, **kwargs):
            built.append(len(args[0]))
            return original(*args, **kwargs)

        # build_trimesh and gen_polygon both build through _build_trimesh
        monkeypatch.setattr(M, "_build_trimesh", build_trimesh)
        m = M.gen_polygon(M.Polygon([(0, 0), (3, 0), (0, 0.4)], 0.05))
        assert built == [m.num_vertices]
        assert len(m.warnings) == 1 and "quality bounds missed" in m.warnings[0]

    def test_segment_shorter_than_the_jitter(self):
        # a corner cut by 3e-6: the jitter, 6e-6 of the extent uncapped,
        # would move the finer points next to that segment across the loop
        cut = 3e-6
        _assert_contract(M.Polygon([(0, 0), (2 * np.pi - cut, 0), (2 * np.pi, cut),
                                    (2 * np.pi, np.pi), (0, np.pi)], 0.15))

    def test_silent_sliver_is_reported(self, monkeypatch):
        # repair that has no point left to insert while a bound is missed
        # stops, and the mesh says so; no natural input is known to take
        # this exit (sharp corners run out of rounds instead)
        original = M._repair_points

        def repair_points(loop, *args):
            angle, edge = original(loop, *args)[2:]
            assert angle < M.MIN_ANGLE_TARGET_DEG
            return loop, np.empty((0, 2)), angle, edge

        monkeypatch.setattr(M, "_repair_points", repair_points)
        m = M.gen_polygon(M.Polygon(ELLIPSE, 0.05))
        assert m.min_angle_deg() < M.MIN_ANGLE_TARGET_DEG
        assert m.warnings == (
            f"quality bounds missed after 0 repair rounds: min angle "
            f"{m.min_angle_deg():.2f} deg, max edge {m.max_edge() / 0.05:.3f} h",)

    def test_plain_rectangle_lambda2(self):
        # the benchmark's closed-form rectangle: lambda2 = (pi / 2pi)^2
        m = M.gen_polygon(M.Polygon(RECT_2PI_PI, 0.06))
        lam2 = neumann_eigs(m, 2).eigenvalues[1]
        assert abs(lam2 - 0.25) / 0.25 <= 4.6e-5
        assert m.warnings == ()


def test_smoothing_halves_a_step_that_inverts():
    # a chevron fanned to one interior vertex at (0.5, 0): its neighbours'
    # mean, (-0.875, 0), lies past the reflex corner (-0.5, 0), so a full
    # Jacobi step inverts a triangle and each sweep halves its step
    verts = np.array([(1, 0), (-2, 1), (-0.5, 0), (-2, -1), (0.5, 0)], dtype=float)
    tris = np.array([(4, 0, 1), (4, 1, 2), (4, 2, 3), (4, 3, 0)])
    assert (M._signed_areas(verts, tris) > 0).all()
    out = M._laplacian_smooth(verts, tris, M._edge_table(tris))
    assert np.array_equal(out[:4], verts[:4])
    assert out[4, 1] == 0.0 and -0.5 < out[4, 0] < -0.4999
    assert (M._signed_areas(out, tris) > 0).all()


class TestPolygonContract:
    """The bounds gen_polygon's docstring states, on the shapes it names."""

    @settings(max_examples=12, deadline=None)
    @given(
        side=st.sampled_from(["top", "bottom", "left", "right"]),
        radius=st.floats(0.2, 0.6),
        place=st.floats(0.0, 1.0),
        h=st.floats(0.06, 0.15),
    )
    def test_bumps(self, side, radius, place, h):
        length = 2 * np.pi if side in ("top", "bottom") else np.pi
        # the bump stays at least h away from the rectangle's corners
        center = radius + h + place * (length - 2 * (radius + h))
        _assert_contract(bump_rectangle_polygon(2 * np.pi, np.pi, side, center,
                                                radius, h))

    @settings(max_examples=6, deadline=None)
    @given(shape=st.sampled_from(["L", "dumbbell"]), h=st.floats(0.06, 0.15))
    def test_l_shape_and_dumbbell(self, shape, h):
        _assert_contract(M.Polygon(L_SHAPE if shape == "L" else dumbbell_loop(), h))


def _assert_contract(poly):
    h = poly.target_h
    m = M.gen_polygon(poly)
    assert m.warnings == ()
    assert m.min_angle_deg() >= M.MIN_ANGLE_TARGET_DEG
    assert m.max_edge() <= h
    assert abs(m.total_area() - poly.area()) <= 1e-10 * poly.area()
    # boundary vertices lie on the input polyline, boundary edges are <= h
    bv = m.vertices[m.boundary_vertex_indices()]
    assert M._dist_to_polyline(bv, poly.loop).max() <= 1e-12
    assert m.boundary_lengths.max() <= h
    again = M.gen_polygon(poly)
    assert np.array_equal(again.vertices, m.vertices)
    assert np.array_equal(again.triangles, m.triangles)


RECT_2PI_PI = [(0, 0), (2 * np.pi, 0), (2 * np.pi, np.pi), (0, np.pi)]
L_SHAPE = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
_T = np.linspace(0.0, 2 * np.pi, 199, endpoint=False)
ELLIPSE = np.column_stack([3 * np.cos(_T), np.sin(_T)])


def _rigid_case(shape):
    return (SWEEP_BUMPS["sweep r=0.20"] if shape == "bump"
            else M.Polygon(ELLIPSE, 0.05))


def _lambda2_and_x(mesh):
    spec = neumann_eigs(mesh, 2)
    return spec.eigenvalues[1], x_boundary(mesh, spec.eigenvectors[:, 1])


@functools.cache
def _unmoved(shape):
    return _lambda2_and_x(M.gen_polygon(_rigid_case(shape)))


class TestPolygonRigidMotion:
    @settings(max_examples=8, deadline=None)
    @given(shape=st.sampled_from(["bump", "ellipse"]),
           offset=st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)))
    @example(shape="ellipse", offset=(1e3, 1e3))
    @example(shape="ellipse", offset=(1e4, 1e4))
    @example(shape="bump", offset=(1e4, 1e4))
    def test_moved_polygon_meshes_as_at_its_corner(self, shape, offset):
        # the loop is meshed from its lowest corner, so far from the origin
        # the bounds hold and the spectrum is that of the unmoved polygon
        poly = _rigid_case(shape)
        h = poly.target_h
        m = M.gen_polygon(M.Polygon(poly.loop + offset, h))
        assert m.warnings == ()
        assert m.min_angle_deg() >= M.MIN_ANGLE_TARGET_DEG and m.max_edge() <= h
        (lam2, X), (ref_lam2, ref_X) = _lambda2_and_x(m), _unmoved(shape)
        assert abs(lam2 - ref_lam2) <= 1e-9 * ref_lam2
        assert np.abs(X - ref_X).max() <= 1e-9 * math.sqrt(ref_lam2)

    @pytest.mark.parametrize("shift", [0.0, 1e3, 1e4, 1e6])
    def test_area_is_the_exact_shoelace_of_the_loop(self, shift):
        # the shoelace is summed relative to the first point: far from the
        # origin its products no longer cancel the shift's digits away
        t = np.linspace(0.0, 2.0 * math.pi, 199, endpoint=False)
        poly = M.Polygon(np.column_stack([3.0 * np.cos(t), np.sin(t)]) + shift, 0.1)
        x, y = ([Fraction(float(c)) for c in col] for col in poly.loop.T)
        exact = sum(x[i - 1] * y[i] - y[i - 1] * x[i] for i in range(len(x))) / 2
        assert abs(poly.area() - exact) <= 1e-13 * exact


@functools.lru_cache(maxsize=None)
def _gather_mesh(kind, n):
    """A rectangle, a right triangle or a bump of the default sweep."""
    if kind == "rect":
        return M.gen_rectangle(2.0, 1.0, 2 * n, n)
    if kind == "triangle":
        return M.gen_right_triangle(n)
    return M.gen_polygon(bump_rectangle_polygon(2 * np.pi, np.pi, "top", 1.7,
                                                0.4, 0.15))


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["rect", "triangle", "bump"]), n=st.integers(1, 12),
       angle=st.floats(0.0, 2 * np.pi), scale=st.floats(1e-3, 1e3),
       shift=st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)))
def test_coordinate_gathers_match_row_formulas(kind, n, angle, scale, shift):
    # _edge_normals gathers x and y apart, for speed, and the triangle
    # measures derive from it; their values are those of the (x, y)-row
    # formulas bit for bit, so meshes, their quality checks and the P1
    # matrices do not move
    base = _gather_mesh(kind, n)
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    m = replace(base, vertices=scale * base.vertices @ rot.T + shift)
    v, t = m.vertices, m.triangles
    p = v[t]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    g = np.empty((len(t), 3, 2))
    for i in range(3):
        a, b = p[:, (i + 1) % 3], p[:, (i + 2) % 3]
        g[:, i, 0] = a[:, 1] - b[:, 1]
        g[:, i, 1] = b[:, 0] - a[:, 0]
    got_area2, got_g = M._edge_normals(v, t)
    assert np.array_equal(got_area2, area2) and np.array_equal(got_g, g)
    assert np.array_equal(M._signed_areas(v, t), 0.5 * M._cross2(d1, d2))

    d12 = p[:, 2] - p[:, 1]
    emax2 = np.maximum((d1 ** 2).sum(axis=1),
                       np.maximum((d12 ** 2).sum(axis=1), (d2 ** 2).sum(axis=1)))
    got_area, got_emax2 = M._shape_measures(v, t)
    assert np.array_equal(got_area, 0.5 * area2) and np.array_equal(got_emax2, emax2)

    ref = np.empty((m.num_triangles, 3))
    for k in range(3):
        a, b = p[:, (k + 1) % 3] - p[:, k], p[:, (k + 2) % 3] - p[:, k]
        c = (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        ref[:, k] = np.arccos(np.clip(c, -1.0, 1.0))
    assert np.array_equal(M._all_angles(v, t), ref)

    # boundary_integrand takes its gradients on the boundary triangles
    # alone: they are rows of the full-mesh gradient
    rng = np.random.default_rng(n)
    psi, q = rng.standard_normal((2, m.num_vertices))
    lam, w = 2.5, np.array([0.6, 0.8])

    def full_gradient(u):
        ut = u[t, None]
        return ((ut[:, 0] * g[:, 0] + ut[:, 1] * g[:, 1] + ut[:, 2] * g[:, 2])
                / area2[:, None])

    gpsi, gq = (full_gradient(u)[m.boundary_triangles] for u in (psi, q))
    a, b = m.boundary_edges.T
    psi_mid, q_mid = 0.5 * (psi[a] + psi[b]), 0.5 * (q[a] + q[b])
    vals = 2.0 * psi_mid * (gpsi @ w) - lam * q_mid * psi_mid + (gq * gpsi).sum(axis=1)
    assert np.array_equal(boundary_integrand(m, lam, psi, q, w)[1], vals)


class TestPolygonScale:
    @settings(max_examples=30, deadline=None)
    @given(shape=st.sampled_from(["rect", "triangle", "L"]),
           closed=st.booleans(), exponent=st.floats(-12.0, 6.0))
    def test_area_scales_as_s_squared(self, shape, closed, exponent):
        # down to the 2e-9 x 1e-9 rectangle, every vertex stays
        loop = np.array({"rect": [(0, 0), (2, 0), (2, 1), (0, 1)],
                         "triangle": [(0, 0), (1, 0), (0, 1)],
                         "L": L_SHAPE}[shape], dtype=float)
        s = 10.0 ** exponent
        ref = M.Polygon(loop, 0.1)
        points = np.vstack([loop, loop[:1]]) if closed else loop
        poly = M.Polygon(s * points, s * 0.1)
        assert len(poly.loop) == len(loop)
        assert abs(poly.area() - s * s * ref.area()) <= 1e-12 * s * s * ref.area()


def _lattice_case(poly):
    """The loop, the points qhull gets (the loop, then the inner points
    moved as _triangulate_region moves them) and the lattice of
    gen_polygon's first triangulation."""
    origin, step = M._lattice(poly.loop, poly.target_h)
    loop = M._resample_loop(poly.loop, step)
    inner, ij = M._graded_points(loop, origin, step)
    return loop, np.vstack([loop, M._jittered(loop, inner)]), (ij, step)


def _row_set(tris):
    return set(map(tuple, np.sort(tris, axis=1).tolist()))


def _in_circle(a, b, c, d):
    """Exact sign of d against the circle through a, b and c: +1 inside,
    -1 outside, 0 on it."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = (
        [Fraction(float(x)) for x in pt] for pt in (a, b, c, d))
    rows = [(x - dx, y - dy) for x, y in ((ax, ay), (bx, by), (cx, cy))]
    (p, q, r), (s, t, u), (v, w, z) = ((x, y, x * x + y * y) for x, y in rows)
    det = p * (t * z - u * w) - q * (s * z - u * v) + r * (s * w - t * v)
    turn = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0) if turn > 0 else (det < 0) - (det > 0)


def _tie_case(extra):
    """The points _lattice_delaunay takes: four loop corners, the 10 x 10
    lattice of steps (2, 2), then the finer-level points extra.  The up
    triangle (0, 0), (2, 0), (1, 2) has the circumcircle of centre (1, 3/4)
    and radius 5/4."""
    i, j = (a.ravel() for a in np.meshgrid(np.arange(10), np.arange(10)))
    ij = np.column_stack([i, j])
    lattice = np.column_stack([2.0 * i + j % 2, 2.0 * j])
    corners = [(-3.1, -2.9), (22.3, -3.3), (21.7, 21.1), (-2.7, 20.9)]
    return np.vstack([corners, lattice, np.reshape(extra, (-1, 2))]), ij, (2.0, 2.0)


def _sweep_bumps():
    """The default sweep's 10 bumps, then the polygon-sweep benchmark's bump
    at the seeds 1 to 8."""
    polys = {f"sweep r={r:.2f}": bump_rectangle_polygon(2 * np.pi, np.pi, "top", 1.7, r, 0.06)
             for r in np.arange(0.2, 0.665, 0.05)}
    for seed in range(1, 9):
        rng = random.Random(seed)
        radius, center = rng.uniform(0.2, 0.3), rng.uniform(1.5, 4.5)
        polys[f"seed {seed}"] = bump_rectangle_polygon(2 * np.pi, np.pi, "top", center,
                                                       radius, 0.06)
    return polys


SWEEP_BUMPS = _sweep_bumps()


@pytest.fixture
def qhull_sizes(monkeypatch):
    """The point count of every scipy.spatial.Delaunay call, in order."""
    import scipy.spatial

    sizes, qhull = [], scipy.spatial.Delaunay

    def delaunay(points):
        sizes.append(len(points))
        return qhull(points)

    monkeypatch.setattr(scipy.spatial, "Delaunay", delaunay)
    return sizes


class TestLatticeDelaunay:
    """_lattice_delaunay against qhull on all the points."""

    @settings(max_examples=15, deadline=None)
    @given(
        kind=st.sampled_from(["rect", "L", "bump"]),
        side=st.sampled_from(["top", "bottom", "left", "right"]),
        radius=st.floats(0.15, 0.65),
        place=st.floats(0.0, 1.0),
        size=st.tuples(st.floats(1.0, 2 * np.pi), st.floats(0.5, np.pi)),
        h=st.floats(0.04, 0.2),
    )
    def test_equals_qhull_on_all_points(self, kind, side, radius, place, size, h):
        from scipy.spatial import Delaunay

        if kind == "rect":
            poly = M.Polygon([(0, 0), (size[0], 0), size, (0, size[1])], h)
        elif kind == "L":
            poly = M.Polygon(np.array(L_SHAPE) * size[1], h)
        else:
            length = 2 * np.pi if side in ("top", "bottom") else np.pi
            center = radius + h + place * (length - 2 * (radius + h))
            poly = bump_rectangle_polygon(2 * np.pi, np.pi, side, center, radius, h)
        loop, pts, lattice = _lattice_case(poly)
        got = M._lattice_delaunay(pts, len(loop), *lattice)
        ref = Delaunay(pts).simplices
        if got is not None:
            assert len(got) == len(ref)
            assert _row_set(got) == _row_set(ref)

    def test_qhull_gets_the_points_near_the_boundary(self, qhull_sizes):
        m = M.gen_polygon(M.Polygon(RECT_2PI_PI, 0.06))
        # 742 of the 8314 points
        assert max(qhull_sizes) < 0.2 * m.num_vertices

    @pytest.mark.parametrize("extra, circle", [
        # a rectangle of finer points inside the up triangle: they are not
        # surrounded, so the triangles from qhull show it
        ([(0.75, 0.5625), (1.0, 0.5625), (1.0, 0.6875), (0.75, 0.6875)], [-4, -3, -2]),
        # a finer point on the up triangle's circumcircle: the triangles
        # from qhull show it
        ([(1.75, 1.75)], [4, 5, 14]),
    ], ids=["off the lattice", "from qhull"])
    def test_falls_back_where_points_are_cocircular(self, extra, circle, qhull_sizes):
        from scipy.spatial import Delaunay

        pts, ij, step = _tie_case(extra)
        # the last point lies on the circle through the points circle
        assert _in_circle(*pts[circle], pts[-1]) == 0
        assert M._lattice_delaunay(pts, 4, ij, step) is None
        # one qhull call, on the points that are not surrounded
        assert len(qhull_sizes) == 1
        # without the tie, the same points take the lattice path
        pts[-1] += 0.01
        got = M._lattice_delaunay(pts, 4, ij, step)
        assert got is not None and _row_set(got) == _row_set(Delaunay(pts).simplices)

    @pytest.mark.parametrize("name", SWEEP_BUMPS)
    def test_bumps_take_the_lattice_path(self, name, qhull_sizes):
        # the jitter moves the cocircular quadruples of a straight side and a
        # row of finer points apart by more than the tie margin
        poly = SWEEP_BUMPS[name]
        origin, step = M._lattice(poly.loop, poly.target_h)
        loop = M._resample_loop(poly.loop, step)
        inner, ij = M._graded_points(loop, origin, step)
        pts = M._triangulate_region(loop, inner, (ij, step))[1]
        assert qhull_sizes and max(qhull_sizes) < 0.2 * len(pts)

    @pytest.mark.parametrize("name", ["sweep r=0.30", "sweep r=0.40"])
    def test_near_ties_are_delaunay_exactly(self, name):
        # every kept triangle whose circumcircle passes within 1e-6 of its
        # radius of another point leaves that point, and the next ones,
        # outside in exact arithmetic
        from scipy.spatial import cKDTree

        loop, pts, lattice = _lattice_case(SWEEP_BUMPS[name])
        tris = M._lattice_delaunay(pts, len(loop), *lattice)
        p = pts[tris]
        off = M._circumcentres(p)
        radii = np.sqrt((off * off).sum(axis=1))
        dist, idx = cKDTree(pts).query(p[:, 0] + off, k=8)
        other = (idx[:, :, None] != tris[:, None, :]).all(axis=2)
        gap = dist[np.arange(len(dist)), other.argmax(axis=1)] - radii
        tight = np.flatnonzero(np.abs(gap) <= 1e-6 * radii)
        assert len(tight)
        for t in tight:
            signs = [_in_circle(*p[t], pts[q]) for q in idx[t][other[t]]]
            assert signs == [-1] * len(signs)

    def test_falls_back_when_lattice_triangles_are_obtuse(self, qhull_sizes):
        # dy = 0.02 <= dx / 2 = 0.0263: the lattice's own Delaunay
        # triangulation is another one
        poly = M.Polygon([(0, 0), (3, 0), (3, 0.04), (0, 0.04)], 0.06)
        loop, pts, (ij, step) = _lattice_case(poly)
        assert step[1] <= step[0] / 2 and len(ij)
        assert M._lattice_delaunay(pts, len(loop), ij, step) is None
        assert qhull_sizes == []

    @pytest.mark.parametrize("poly", [
        M.Polygon(RECT_2PI_PI, 0.06),
        M.Polygon(RECT_2PI_PI, 0.15),
        M.Polygon(L_SHAPE, 0.06),
        SWEEP_BUMPS["sweep r=0.50"],
        bump_rectangle_polygon(2.0, 1.0, "top", 0.9, 0.35, 0.1),
    ], ids=["rect", "rect coarse", "L", "sweep bump", "small bump"])
    def test_gen_polygon_as_with_qhull_alone(self, poly, monkeypatch):
        m = M.gen_polygon(poly)
        monkeypatch.setattr(M, "_lattice_delaunay", lambda *args: None)
        ref = M.gen_polygon(poly)
        assert np.array_equal(m.vertices, ref.vertices)
        assert _row_set(m.triangles) == _row_set(ref.triangles)


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


class TestMaxEdge:
    @settings(max_examples=30, deadline=None)
    @given(nx=st.integers(1, 12), ny=st.integers(1, 12),
           seed=st.integers(0, 2 ** 32 - 1), s=st.floats(1e-3, 1e3))
    def test_equals_the_per_triangle_form(self, nx, ny, seed, s):
        # each edge once, from connectivity.edges, against the three sides
        # of every triangle: the same set of lengths, so the same maximum
        base = M.gen_rectangle(2.0, 1.0, nx, ny)
        jitter = np.random.default_rng(seed).uniform(-0.1, 0.1, base.vertices.shape)
        v = s * (base.vertices + jitter * [2.0 / nx, 1.0 / ny])
        mesh = M.build_trimesh(v, base.triangles)
        t = mesh.triangles
        e = np.concatenate([v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 1]],
                            v[t[:, 0]] - v[t[:, 2]]])
        assert mesh.max_edge() == float(np.sqrt((e * e).sum(axis=1)).max())


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

    def test_vertex_on_no_triangle(self):
        # before the check, neumann_eigs failed on such a mesh with
        # "RuntimeError: Factor is exactly singular"
        m = M.gen_rectangle(2, 1, 16, 8)
        verts = np.vstack([m.vertices, [(5.0, 5.0)]])
        with pytest.raises(GeometryError, match="1 vertices lie on no triangle, "
                           f"the first is vertex {m.num_vertices}"):
            M.build_trimesh(verts, m.triangles)
        text = json.dumps({"vertices": verts.tolist(),
                           "triangles": m.triangles.tolist()})
        with pytest.raises(GeometryError, match="no triangle"):
            M.mesh_from_json(text)

    # before the checks, the arrays were reshaped to (-1, 2) and (-1, 3) and
    # the triangle entries truncated to integers
    @pytest.mark.parametrize("verts, tris, match", [
        # [0, 1, 2.7] was read as the triangle [0, 1, 2]
        ([(0, 0), (1, 0), (0, 1)], [(0, 1, 2.7)],
         "triangles must hold whole-number vertex indices"),
        ([(0, 0), (1, 0), (0, 1)], [(0, 1, math.nan)],
         "triangles must hold whole-number vertex indices"),
        # six points in space were read as nine planar points
        ([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0.5, 0.5, 0), (2, 0, 0)],
         [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)],
         r"vertices must have shape \(nv, 2\), got \(6, 3\)"),
        # three index pairs were read as two triangles
        ([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1), (2, 1), (3, 2)],
         r"triangles must have shape \(nt, 3\), got \(3, 2\)"),
        ([(0, 0), (1, 0), (0, 1)], [0, 1, 2],
         r"triangles must have shape \(nt, 3\), got \(3,\)"),
    ], ids=["fraction", "nan", "spatial vertices", "index pairs", "flat"])
    def test_array_shapes_and_indices(self, verts, tris, match):
        with pytest.raises(GeometryError, match=match):
            M.build_trimesh(np.array(verts, dtype=float), np.array(tris))
        text = json.dumps({"vertices": verts, "triangles": tris})
        with pytest.raises(GeometryError, match=match):
            M.mesh_from_json(text)


def _brute_boundary(triangles):
    fwd = {(int(a), int(b)) for a, b in M._directed_edges(triangles)}
    return sorted((a, b) for a, b in fwd if (b, a) not in fwd)


def _connectivity_oracle(triangles, nv, table):
    """Connectivity's five arrays (edges, tri_edges, indptr, indices,
    scatter) as int32, by sorting the pattern's keys row * nv + column and
    searching every element entry among them."""
    edges, tri_edges, _ = table
    lo, hi = edges.T
    on_triangle = np.flatnonzero(np.bincount(triangles.ravel(), minlength=nv))
    keys = np.sort(np.concatenate([on_triangle * (nv + 1), lo * nv + hi,
                                   hi * nv + lo]))
    entries = triangles[:, :, None] * nv + triangles[:, None, :]
    return tuple(a.astype(np.int32) for a in (
        edges, tri_edges, np.searchsorted(keys, np.arange(nv + 1) * nv),
        keys % nv, np.searchsorted(keys, entries.reshape(-1, 9))))


_CONNECTIVITY_ARRAYS = ("edges", "tri_edges", "indptr", "indices", "scatter")


class TestConnectivity:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["rect", "tri", "bump"]),
        n=st.integers(1, 9),
        angle=st.floats(0.0, 2 * math.pi),
        offset=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
        refine=st.booleans(),
        source=st.sampled_from(["build", "clockwise", "json", "gmsh"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_searchsorted_construction(self, kind, n, angle, offset,
                                                   refine, source, seed,
                                                   gmsh22_text, mesh_json):
        from wgspec.fem import assemble

        if kind == "bump":  # triangle numbering of the polygon mesher
            base = M.gen_polygon(bump_rectangle_polygon(2.0, 1.0, "top", 0.9, 0.35,
                                                        0.9 / n))
        elif kind == "rect":
            base = M.gen_rectangle(1.5, 1.0, n, n + 1)
        else:
            base = M.gen_right_triangle(n)
        R = np.array([[math.cos(angle), -math.sin(angle)],
                      [math.sin(angle), math.cos(angle)]])
        mesh = M.build_trimesh(base.vertices @ R.T + offset, base.triangles)
        if refine:
            mesh = M.refine_uniform(mesh)
        if source == "clockwise":  # build_trimesh reorients these
            tris = mesh.triangles.copy()
            flip = np.random.default_rng(seed).random(len(tris)) < 0.5
            tris[flip] = tris[flip][:, ::-1]
            mesh = M.build_trimesh(mesh.vertices, tris)
            assert np.array_equal(mesh.triangles[flip], tris[flip][:, [0, 2, 1]])
            assert np.array_equal(mesh.triangles[~flip], tris[~flip])
        elif source == "json":
            mesh = M.mesh_from_json(mesh_json(mesh))
        elif source == "gmsh":
            mesh = M.import_gmsh22(gmsh22_text(mesh))

        conn = mesh.connectivity
        ref = _connectivity_oracle(mesh.triangles, mesh.num_vertices,
                                   M._edge_table(mesh.triangles))
        for name, b in zip(_CONNECTIVITY_ARRAYS, ref):
            a = getattr(conn, name)
            assert a.dtype == np.int32 and np.array_equal(a, b), name
            assert not a.flags.writeable, name
        oracle = M.Connectivity(*ref)
        for new, old in zip(assemble(mesh),
                            assemble(replace(mesh, connectivity=oracle))):
            assert np.array_equal(new.indptr, old.indptr)
            assert np.array_equal(new.indices, old.indices)
            assert np.array_equal(new.data, old.data)


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


class TestPointInPolygon:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["rect", "bump", "L", "star"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_crossing_loop(self, kind, seed):
        rng = np.random.default_rng(seed)
        loop = _test_loop(kind, rng)
        lo, hi = loop.min(axis=0) - 0.1, loop.max(axis=0) + 0.1
        mids = 0.5 * (loop + np.roll(loop, -1, axis=0))
        # random points, the vertices, segment midpoints, and points level
        # with a vertex, where the half-open crossing rule decides
        level = np.column_stack([rng.uniform(lo[0], hi[0], len(loop)), loop[:, 1]])
        points = np.concatenate([rng.uniform(lo, hi, (300, 2)), loop, mids, level])
        assert np.array_equal(M._point_in_polygon(points, loop),
                              _crossing_loop(points, loop))

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["rect", "bump", "L", "star"]),
           seed=st.integers(0, 2**32 - 1))
    def test_farther_than_per_point_radius(self, kind, seed):
        rng = np.random.default_rng(seed)
        loop = M._resample_loop(_test_loop(kind, rng), 0.1)
        points = rng.uniform(loop.min(axis=0) - 0.1, loop.max(axis=0) + 0.1, (300, 2))
        r = rng.uniform(0.0, 0.2, len(points))
        assert np.array_equal(M._farther_than(points, loop, r),
                              M._dist_to_polyline(points, loop) > r)


def _test_loop(kind, rng):
    if kind == "rect":
        return np.array([(0, 0), (rng.uniform(0.5, 3), 0),
                         (rng.uniform(0.5, 3), rng.uniform(0.5, 2)),
                         (0, rng.uniform(0.5, 2))])
    if kind == "bump":
        return np.asarray(bump_rectangle_polygon(2.0, 1.0, "top", rng.uniform(0.7, 1.3),
                                                 rng.uniform(0.1, 0.6), 0.1).loop)
    if kind == "L":
        return np.array(L_SHAPE, dtype=float)
    th = np.sort(rng.uniform(0, 2 * np.pi, 12))
    return np.column_stack([np.cos(th), np.sin(th)]) * rng.uniform(0.3, 1.5, (12, 1))


def _crossing_loop(points, loop):
    """Reference: the crossing-number test, one segment at a time."""
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    for i in range(len(loop)):
        x1, y1 = loop[i]
        x2, y2 = loop[(i + 1) % len(loop)]
        inside ^= ((y1 > y) != (y2 > y)) & (
            x < (x2 - x1) * (y - y1) / (y2 - y1 + 1e-300) + x1)
    return inside


class TestInsertNear:
    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["rect", "tri"]), n=st.integers(3, 9),
           count=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_local_insertion_keeps_the_mesh(self, kind, n, count, seed):
        base = M.gen_rectangle(1.5, 1.0, n, n) if kind == "rect" \
            else M.gen_right_triangle(n)
        rng = np.random.default_rng(seed)
        # inside the domain, away from its boundary
        extra = rng.uniform(0.2, 0.4, (count, 2))
        done = M._insert_near(base.vertices, base.triangles, extra, 0.3)
        if done is None:  # the local triangulation lost the rim: allowed
            return
        verts, tris = done
        m = M.build_trimesh(verts, tris)
        assert np.array_equal(verts[:base.num_vertices], base.vertices)
        assert len(np.unique(tris)) == len(verts)
        assert m.num_triangles == base.num_triangles + 2 * count
        assert abs(m.total_area() - base.total_area()) <= 1e-12 * base.total_area()

    def test_point_outside_is_refused(self):
        base = M.gen_rectangle(1.0, 1.0, 4, 4)
        extra = np.array([[0.5, 0.5], [1.2, 0.5]])
        assert M._insert_near(base.vertices, base.triangles, extra, 0.5) is None


class TestPerturb:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["rect", "tri", "bump"]), n=st.integers(1, 8),
           step=st.floats(0.0, 0.95), seed=st.integers(0, 2**32 - 1))
    def test_equals_build_trimesh(self, kind, n, step, seed):
        if kind == "bump":
            base = M.gen_polygon(bump_rectangle_polygon(2.0, 1.0, "bottom", 1.1,
                                                        0.3, 0.9 / n))
        elif kind == "rect":
            base = M.gen_rectangle(1.5, 1.0, n, n + 1)
        else:
            base = M.gen_right_triangle(n)
        V = np.random.default_rng(seed).standard_normal(base.vertices.shape)
        t = step * min(M._max_admissible_step(base, V), 10.0)
        try:
            ref = M.build_trimesh(base.vertices + t * V, base.triangles,
                                  warnings=base.warnings)
        except GeometryError:  # degenerate though positive
            with pytest.raises(StepTooLargeError, match="degenerates"):
                M.perturb(base, V, t)
            return
        p = M.perturb(base, V, t)
        for f in fields(M.TriMesh):
            a, b = getattr(p, f.name), getattr(ref, f.name)
            if f.name == "connectivity":
                assert a is base.connectivity
                for g in fields(M.Connectivity):
                    assert np.array_equal(getattr(a, g.name), getattr(b, g.name))
            elif isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), f.name
                assert not a.flags.writeable
            else:
                assert a == b

    @pytest.mark.parametrize("t, bad", [(math.nan, None), (math.inf, None),
                                        (-math.inf, None), (1e-3, math.nan),
                                        (1e-3, math.inf)])
    def test_step_and_velocity_must_be_finite(self, t, bad):
        # both used to give a mesh of NaN vertices
        m = M.gen_right_triangle(3)
        V = np.ones_like(m.vertices)
        if bad is not None:
            V[4, 1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            M.perturb(m, V, t)

    def test_degenerate_step_reports_bound(self):
        # the third vertex runs onto the opposite side at t = 1
        m = M.build_trimesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
        V = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, -1.0]])
        with pytest.raises(StepTooLargeError, match="degenerates") as exc:
            M.perturb(m, V, 1.0 - 1e-14)
        assert exc.value.max_t == 1.0
        with pytest.raises(StepTooLargeError, match="inverts") as exc:
            M.perturb(m, V, 1.5)
        assert exc.value.max_t == 1.0

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

    def test_node_on_no_triangle(self):
        # a geometry point or arc centre that no element uses
        text = GMSH_OK.replace("$Nodes\n4\n", "$Nodes\n5\n").replace(
            "4 0 1 0\n", "4 0 1 0\n5 0.5 2 0\n")
        with pytest.raises(GeometryError, match="vertex 4"):
            M.import_gmsh22(text)

    def test_dangling_node(self):
        text = GMSH_OK.replace("3 2 2 0 1 1 3 4", "3 2 2 0 1 1 3 9")
        with pytest.raises(MeshFormatError, match="dangling"):
            M.import_gmsh22(text)

    @pytest.mark.parametrize("old, new, line, message", [
        # a count above the records, running into $EndNodes or $EndElements
        ("$Nodes\n4\n", "$Nodes\n6\n", 10, "ends after 4 of its 6 node"),
        ("$Elements\n3\n", "$Elements\n4\n", 16, "ends after 3 of its 4 element"),
        ("2 1 0 0", "2 x 0 0", 7, "bad node record '2 x 0 0'"),
        ("3 1 1 0", "3 1", 8, "bad node record '3 1'"),
        ("2 2 2 0 1 1 2 3", "2 2 2 0 1 1 2 y", 14, "bad element record"),
        ("2 2 2 0 1 1 2 3", "2 two", 14, "bad element record '2 two'"),
    ])
    def test_malformed_records(self, old, new, line, message):
        with pytest.raises(MeshFormatError, match=message) as info:
            M.import_gmsh22(GMSH_OK.replace(old, new))
        assert info.value.line == line

    def test_file_ends_inside_a_section(self):
        text = GMSH_OK[:GMSH_OK.index("3 1 1 0")]
        with pytest.raises(MeshFormatError, match="ends after 2 of its 4") as info:
            M.import_gmsh22(text)
        assert info.value.line == 8

    @pytest.mark.parametrize("reader", ["json", "gmsh"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_vertex(self, reader, bad, gmsh22_text, mesh_json):
        m = M.gen_rectangle(2, 1, 8, 4)
        vertices = m.vertices.copy()
        vertices[5, 1] = bad
        m = replace(m, vertices=vertices)
        with pytest.raises(GeometryError, match="non-finite coordinate, the "
                                                "first is vertex 5"):
            if reader == "json":
                M.mesh_from_json(mesh_json(m))
            else:
                M.import_gmsh22(gmsh22_text(m))

    def test_round_trip(self, gmsh22_text):
        m = M.gen_right_triangle(5)
        m2 = M.import_gmsh22(gmsh22_text(m))
        assert np.array_equal(m.vertices, m2.vertices)
        assert np.array_equal(m.triangles, m2.triangles)

    def test_json_round_trip(self, mesh_json):
        m = M.gen_rectangle(1.5, 0.7, 3, 2)
        m2 = M.mesh_from_json(mesh_json(m))
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
