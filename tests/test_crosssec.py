import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wgspec import crosssec as C, fem as F, mesh as M
from wgspec.errors import DegenerateSectionError
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

    def test_error_estimate_matches_a_cold_solve(self, triangle64):
        # analyze warm-starts the refined solve from the prolonged psi
        fine = M.refine_uniform(M.gen_right_triangle(64))
        lam2_f = F.neumann_eigs(fine, 1, tol=1e-9).eigenvalues[1]
        cold = abs(triangle64.lambda2 - lam2_f) / lam2_f
        assert abs(triangle64.discretization_error - cold) <= 1e-8 * cold

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


def _estimate_mesh(kind, n, gap):
    """A section for the refinement error estimate; gap in [1e-5, 1] sets
    the relative gap 2 gap + gap^2 of lambda2 on the rectangle.  The
    smallest meshes are solved densely on the coarse level."""
    if kind == "rect":
        return M.gen_rectangle(1.0 + gap, 1.0, n, n)
    if kind == "tri":
        return M.gen_right_triangle(n)
    if kind == "L":
        return M.gen_polygon(M.Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2),
                                        (0, 2)], 1.6 / n))
    return M.gen_polygon(bump_rectangle_polygon(2.0, 1.0, "top", 0.9, 0.35,
                                                0.9 / n))


def _reference_analyze(mesh, tol):
    """The estimate by Lanczos on a factorization of the refined pencil,
    warm-started from the prolonged coarse psi2: (coarse spectrum, refined
    lambda2, simple)."""
    spec = F.neumann_eigs(mesh, 2, tol=tol)
    fine = M.refine_uniform(mesh)
    v0 = M.prolongation(mesh) @ spec.eigenvectors[:, 1]
    lam2_f = F.neumann_eigs(fine, 1, tol=tol, v0=v0).eigenvalues[1]
    lam2, lam3 = spec.eigenvalues[1:3]
    disc_err = abs(lam2 - lam2_f) / lam2_f
    return spec, lam2_f, (lam3 - lam2) / lam2 > max(10.0 * tol, 5.0 * disc_err)


class _Recorder:
    """Records analyze's eigensolves and sparse factorizations."""

    def __init__(self, monkeypatch):
        self.spectra, self.orders = [], []
        eigs, splu = C.neumann_eigs, F.splu

        def neumann_eigs(*args, **kwargs):
            self.spectra.append(eigs(*args, **kwargs))
            return self.spectra[-1]

        def record_splu(A, permc_spec, **kwargs):
            self.orders.append(permc_spec)
            return splu(A, permc_spec, **kwargs)

        monkeypatch.setattr(C, "neumann_eigs", neumann_eigs)
        monkeypatch.setattr(F, "splu", record_splu)


class TestErrorEstimate:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["rect", "tri", "L", "bump"]), n=st.integers(2, 24),
           gap=st.floats(-5.0, 0.0).map(lambda e: 10.0 ** e))
    def test_refined_lambda2_matches_lanczos(self, kind, n, gap):
        # the refined pencil is assembled, not factorized: one factorization
        # per call, of the coarse pencil, and a one-column LOBPCG
        mesh = _estimate_mesh(kind, n, gap)
        with pytest.MonkeyPatch.context() as mp:
            rec = _Recorder(mp)
            C.analyze(mesh)
        coarse, fine = rec.spectra
        assert rec.orders == ["MMD_AT_PLUS_A"]
        assert fine.fill == 0
        # one preconditioned residual per iteration: 8 to 13 iterations, up
        # to 23 on near-double rectangles of 4 to 9 cells a side, where the
        # start mixes psi2 and psi3 of the refined pencil
        assert 0 < fine.solves <= (25 if kind == "rect" else 15)
        cold = F.neumann_eigs(M.refine_uniform(mesh), 1).eigenvalues[1]
        assert abs(fine.eigenvalues[1] - cold) <= 1e-12 * cold

    @pytest.mark.parametrize("kind, n, gap", [
        ("rect", 32, 1e-3), ("rect", 32, 1e-2), ("rect", 3, 1e-5), ("rect", 64, 1.0),
        ("tri", 4, 0.0), ("tri", 48, 0.0), ("L", 12, 0.0), ("bump", 8, 0.0)])
    def test_report_matches_the_factorized_estimate(self, kind, n, gap):
        # everything but discretization_error is bit for bit the report of
        # the Lanczos estimate on a factorization of the refined pencil
        tol = 1e-8
        spec, lam2_f, simple = _reference_analyze(_estimate_mesh(kind, n, gap), tol)
        mesh = _estimate_mesh(kind, n, gap)
        rep = C.analyze(mesh, tol=tol)
        psi = C.fix_sign(spec.eigenvectors[:, 1])
        lam2, lam3 = spec.eigenvalues[1:3]
        assert (rep.lambda2, rep.lambda3) == (lam2, lam3)
        assert rep.gap_ratio == (lam3 - lam2) / lam2
        assert rep.simple == simple
        assert np.array_equal(rep.psi, psi)
        assert np.array_equal(rep.X_boundary, C.x_boundary(mesh, psi))
        assert np.array_equal(rep.X_volume, C.x_volume(mesh, psi))
        assert rep.b == C.b_radius(mesh)
        ref = abs(lam2 - lam2_f) / lam2_f
        assert abs(rep.discretization_error - ref) <= 1e-8 * ref

    @pytest.mark.parametrize("k", range(1, 6))
    def test_near_double_rectangles(self, k, monkeypatch):
        # ell = 1 + 10^-k: lambda2 simple only while the gap 2e-k clears five
        # times the estimated error, 6.0e-4 on 32 x 32 cells
        rec = _Recorder(monkeypatch)
        rep = C.analyze(M.gen_rectangle(1.0 + 10.0 ** -k, 1.0, 32, 32))
        assert len(rec.orders) == 1
        assert rep.simple == (k <= 2)
        assert abs(rep.discretization_error - 6.0e-4) <= 1e-5

    @pytest.mark.parametrize("ell, nx, ny", [(1.5, 8, 32), (1.000528, 12, 20)])
    def test_refined_pencil_factorized_where_two_grid_stalls(self, ell, nx, ny,
                                                              monkeypatch, caplog):
        # stretched cells (8 x 32 on 1.5 x 1) weaken the Jacobi sweeps, and on
        # 12 x 20 cells lambda2 and lambda3 swap order under the refinement:
        # LOBPCG misses tol, and the refined pencil is factorized after all
        mesh = M.gen_rectangle(ell, 1.0, nx, ny)
        rec = _Recorder(monkeypatch)
        with caplog.at_level("INFO", logger="wgspec"):
            C.analyze(mesh)
        assert "factorizing the refined pencil" in caplog.text
        assert len(rec.orders) == 2 and rec.spectra[-1].fill > 0
        cold = F.neumann_eigs(M.refine_uniform(mesh), 1).eigenvalues[1]
        assert abs(rec.spectra[-1].eigenvalues[1] - cold) <= 1e-12 * cold


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
