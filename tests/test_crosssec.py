import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wgspec import crosssec as C, fem as F, mesh as M
from wgspec.errors import DegenerateSectionError


@pytest.fixture(scope="module")
def triangle64():
    return C.analyze(M.gen_right_triangle(64), origin=(0, 0), tol=1e-9)


class TestAnalyze:
    def test_right_triangle(self, triangle64):
        rep = triangle64
        assert rep.simple
        assert np.abs(rep.X_boundary - 1.0).max() < 0.02
        assert rep.b == 1.0
        assert abs(rep.lambda2 - math.pi**2) / math.pi**2 < 0.005

    def test_symmetric_rectangle_x_vanishes(self):
        rep = C.analyze(M.gen_rectangle(2 * np.pi, np.pi, 48, 24), tol=1e-9)
        assert np.linalg.norm(rep.X_boundary) <= 1e-10
        assert rep.simple

    def test_square_degenerate(self):
        rep = C.analyze(M.gen_rectangle(1, 1, 20, 20), tol=1e-9)
        assert not rep.simple
        assert any("representative" in w for w in rep.warnings)

    def test_psi_m_normalized(self, triangle64):
        _, Mm = F.assemble(M.gen_right_triangle(64))
        psi = triangle64.psi
        assert abs(psi @ (Mm @ psi) - 1.0) <= 1e-12

    def test_x_identity(self, triangle64):
        rep = triangle64
        assert np.abs(rep.X_boundary - rep.X_volume).max() <= 1e-10 * (
            1 + np.linalg.norm(rep.X_boundary)
        )

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["triangle", "rect"]), n=st.integers(4, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_sign_invariance(self, triangle64, kind, n, seed):
        # bitwise: fd_check takes X from an eigenvector of either sign
        mesh = M.gen_right_triangle(64)
        xb = C.x_boundary(mesh, -triangle64.psi)
        assert np.array_equal(xb, triangle64.X_boundary)
        mesh = _section_mesh(kind, n)
        psi = np.random.default_rng(seed).standard_normal(mesh.num_vertices)
        assert np.array_equal(C.x_boundary(mesh, -psi), C.x_boundary(mesh, psi))

    def test_vertex_relabeling_invariance(self):
        mesh = M.gen_right_triangle(12)
        rng = np.random.default_rng(11)
        perm = rng.permutation(mesh.num_vertices)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm))
        shuffled = M.build_trimesh(mesh.vertices[perm], inv[mesh.triangles])
        r0 = C.analyze(mesh, tol=1e-10, estimate_error=False)
        r1 = C.analyze(shuffled, tol=1e-10, estimate_error=False)
        assert np.abs(r0.X_boundary - r1.X_boundary).max() < 1e-8

    def test_x_convergence_order(self):
        errs = []
        for n in (16, 32, 64):
            rep = C.analyze(M.gen_right_triangle(n), tol=1e-10,
                            estimate_error=False)
            errs.append(np.linalg.norm(rep.X_boundary - np.array([1.0, 1.0])))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert (orders >= 1.5).all()

    def test_json(self, triangle64):
        import json

        d = json.loads(triangle64.to_json())
        assert d["simple"] is True
        assert len(d["X_boundary"]) == 2


class TestAnalyticRectangle:
    def test_lambda2(self):
        sec = C.analytic_rectangle(2 * np.pi, np.pi)
        assert abs(sec.lambda2 - 0.25) < 1e-15
        assert np.allclose(sec.X, 0.0)

    def test_normalized(self):
        # 2D Gauss quadrature of psi^2 over the rectangle
        from numpy.polynomial.legendre import leggauss

        ell, L = 1.7, 0.9
        sec = C.analytic_rectangle(ell, L)
        x, wx = leggauss(24)
        xg = 0.5 * ell * (x + 1)
        yg = 0.5 * L * (x + 1)
        XX, YY = np.meshgrid(xg, yg, indexing="ij")
        WW = np.outer(wx, wx) * (0.5 * ell) * (0.5 * L)
        integral = (sec.psi(XX, YY) ** 2 * WW).sum()
        assert abs(integral - 1.0) <= 1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateSectionError):
            C.analytic_rectangle(1.0, 1.0)


class TestAnalyticTriangle:
    def test_values(self):
        sec = C.analytic_right_triangle()
        assert abs(sec.lambda2 - math.pi**2) < 1e-15
        assert np.allclose(sec.X, [1.0, 1.0])

    def test_odd_across_diagonal(self):
        sec = C.analytic_right_triangle()
        y = np.linspace(0, 0.5, 20)
        assert np.abs(sec.psi(y, y)).max() <= 1e-14

    def test_matches_fem(self):
        mesh = M.gen_right_triangle(48)
        rep = C.analyze(mesh, tol=1e-9, estimate_error=False)
        sec = C.analytic_right_triangle()
        pe = sec.psi(mesh.vertices[:, 0], mesh.vertices[:, 1])
        _, Mm = F.assemble(mesh)
        pe = pe / math.sqrt(pe @ (Mm @ pe))
        align = abs(rep.psi @ (Mm @ pe))
        assert align > 0.999


class TestBRadius:
    def test_triangle(self):
        assert C.b_radius(M.gen_right_triangle(8), (0, 0)) == 1.0

    def test_rectangle_center(self):
        b = C.b_radius(M.gen_rectangle(2, 1, 4, 4), origin=(1.0, 0.5))
        assert abs(b - math.sqrt(1.25)) <= 1e-14

    def test_far_origin(self):
        b = C.b_radius(M.gen_right_triangle(4), origin=(100.0, 100.0))
        assert np.isfinite(b) and b > 100.0


def _section_mesh(kind, n):
    return M.gen_right_triangle(n) if kind == "triangle" \
        else M.gen_rectangle(1.0 + 0.1 * n, 1.0, n + 2, n)


class TestXCovariance:
    """X of a rigidly moved or scaled mesh: same triangles, moved vertices."""

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["triangle", "rect"]), n=st.integers(4, 12),
           theta=st.floats(0.0, 2 * math.pi))
    def test_rotation(self, kind, n, theta):
        base = _section_mesh(kind, n)
        R = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        turned = M.build_trimesh(base.vertices @ R.T, base.triangles)
        X = C.analyze(base, estimate_error=False).X_boundary
        Xr = C.analyze(turned, estimate_error=False).X_boundary
        assert np.abs(Xr - R @ X).max() <= 1e-9 * max(1.0, np.abs(X).max())

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["triangle", "rect"]), n=st.integers(4, 12),
           s=st.floats(0.1, 10.0))
    def test_scaling(self, kind, n, s):
        # psi scales as 1/s in 2-D and the boundary length as s: X as 1/s
        base = _section_mesh(kind, n)
        scaled = M.build_trimesh(base.vertices * s, base.triangles)
        X = C.analyze(base, estimate_error=False).X_boundary
        Xs = C.analyze(scaled, estimate_error=False).X_boundary
        assert np.abs(Xs - X / s).max() <= 1e-9 * max(1.0, np.abs(X).max()) / s
