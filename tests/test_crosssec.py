import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wgspec import crosssec as C, fem as F, mesh as M
from wgspec.errors import DegenerateSectionError, SolverError
from wgspec.shapederiv import bump_rectangle_polygon


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
        d = json.loads(triangle64.to_json())
        assert d["simple"] is True
        assert len(d["X_boundary"]) == 2


def _estimate_mesh(kind, n, gap):
    """A section for the eigenvalue enclosure; gap in [1e-5, 1] sets the
    relative gap 2 gap + gap^2 of lambda2 on the rectangle.  The smallest
    meshes are solved densely."""
    if kind == "rect":
        return M.gen_rectangle(1.0 + gap, 1.0, n, n)
    if kind == "tri":
        return M.gen_right_triangle(n)
    if kind == "L":
        return M.gen_polygon(M.Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2),
                                        (0, 2)], 1.6 / n))
    return M.gen_polygon(bump_rectangle_polygon(2.0, 1.0, "top", 0.9, 0.35,
                                                0.9 / n))


_ESTIMATE_CASES = [
    ("rect", 32, 1e-3), ("rect", 32, 1e-2), ("rect", 3, 1e-5), ("rect", 64, 1.0),
    ("tri", 4, 0.0), ("tri", 48, 0.0), ("L", 12, 0.0), ("bump", 8, 0.0)]


def _analyze_joined(mesh, **kwargs):
    """C.analyze(mesh, **kwargs), checking that it leaves no thread behind
    whether it returns or raises."""
    before = threading.active_count()
    try:
        return C.analyze(mesh, **kwargs)
    finally:
        assert threading.active_count() == before


class TestErrorEstimate:
    @pytest.mark.parametrize("kind, n, gap", _ESTIMATE_CASES)
    def test_enclosure_leaves_the_fast_report(self, kind, n, gap):
        # the lower bound changes discretization_error and simple only;
        # everything else is bit for bit the report without it
        rep = _analyze_joined(_estimate_mesh(kind, n, gap))
        fast = _analyze_joined(_estimate_mesh(kind, n, gap),
                               estimate_error=False)
        a, b = json.loads(rep.to_json()), json.loads(fast.to_json())
        assert fast.discretization_error == 0.0 < rep.discretization_error
        for key in ("discretization_error", "simple", "warnings"):
            del a[key], b[key]
        assert a == b and np.array_equal(rep.psi, fast.psi)

    @pytest.mark.parametrize("kind, n, gap", _ESTIMATE_CASES)
    def test_simple_means_the_bounds_separate(self, kind, n, gap):
        mesh = _estimate_mesh(kind, n, gap)
        rep = _analyze_joined(mesh)
        lower2, lower3 = F.cr_eigs(mesh, 2)
        assert rep.simple == (lower3 > rep.lambda2)
        assert rep.discretization_error == (rep.lambda2 - lower2) / lower2

    @pytest.mark.parametrize("kind, n", [("L", 6), ("L", 12), ("bump", 4),
                                         ("bump", 8)])
    def test_refined_lambda2_lies_in_the_enclosure(self, kind, n):
        # Galerkin monotonicity: the refined P1 lambda2 is a smaller upper
        # bound, and it cannot pass below the coarse lower bound
        mesh = _estimate_mesh(kind, n, 0.0)
        rep = C.analyze(mesh)
        fine = F.neumann_eigs(M.refine_uniform(mesh), 1).eigenvalues[1]
        lower = rep.lambda2 / (1.0 + rep.discretization_error)
        assert lower < fine < rep.lambda2

    # the enclosure widths of lambda2, measured on 32 x 32 cells
    _WIDTHS = {1: 1.923e-3, 2: 2.017e-3, 3: 2.028e-3, 4: 2.029e-3, 5: 2.029e-3}

    @pytest.mark.parametrize("k", range(1, 6))
    def test_near_double_rectangles(self, k, factorizations):
        # ell = 1 + 10^-k: lambda2 is proved simple while its lower bound on
        # lambda3 clears the P1 lambda2, up to a relative gap of 2e-2; one
        # factorization of the P1 pencil and one of the CR pencil, in either
        # order, as the CR solve runs on a worker thread
        rep = C.analyze(M.gen_rectangle(1.0 + 10.0 ** -k, 1.0, 32, 32))
        assert sorted(factorizations) == ["_factor_spd", "_splu_spd"]
        assert rep.simple == (k <= 2)
        assert abs(rep.discretization_error - self._WIDTHS[k]) <= 1e-6


class TestThreads:
    # analyze solves the CR pencil on a worker thread; the reports
    # themselves are checked against the sequential calls in
    # TestErrorEstimate

    @pytest.mark.parametrize("error", [SolverError("CR failed", residuals=[0.5]),
                                       ValueError("CR failed")])
    def test_cr_error_reaches_the_caller(self, error, monkeypatch):
        def cr_eigs(mesh, k, tol):
            raise error

        monkeypatch.setattr(C, "cr_eigs", cr_eigs)
        with pytest.raises(type(error)) as info:
            _analyze_joined(M.gen_rectangle(2.0, 1.0, 16, 8))
        assert info.value is error

    def test_p1_error_comes_first(self, monkeypatch):
        # the CR solve fails before the P1 solve does
        cr_failed = threading.Event()

        def cr_eigs(mesh, k, tol):
            cr_failed.set()
            raise SolverError("CR failed")

        def neumann_eigs(mesh, k, tol):
            assert cr_failed.wait(timeout=10.0)
            raise SolverError("P1 failed", residuals=[1.0])

        monkeypatch.setattr(C, "cr_eigs", cr_eigs)
        monkeypatch.setattr(C, "neumann_eigs", neumann_eigs)
        with pytest.raises(SolverError, match="P1 failed") as info:
            _analyze_joined(M.gen_rectangle(2.0, 1.0, 16, 8))
        assert info.value.residuals == [1.0]


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

    @pytest.mark.parametrize("ell, L", [(0.0, 1.0), (2.0, -1.0), (math.nan, 1.0)])
    def test_sides_must_be_positive(self, ell, L):
        with pytest.raises(ValueError, match="rectangle dimensions must be positive"):
            C.analytic_rectangle(ell, L)


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
           s=st.floats(1e-3, 1e3))
    def test_scaling(self, kind, n, s):
        # psi scales as 1/s in 2-D and the boundary length as s: X as 1/s
        base = _section_mesh(kind, n)
        scaled = M.build_trimesh(base.vertices * s, base.triangles)
        X = C.analyze(base, estimate_error=False).X_boundary
        Xs = C.analyze(scaled, estimate_error=False).X_boundary
        assert np.abs(Xs - X / s).max() <= 1e-9 * max(1.0, np.abs(X).max()) / s
