import math

import numpy as np
import pytest

from wgspec import fem as F, mesh as M, shapederiv as SD
from wgspec.errors import StepTooLargeError


@pytest.fixture(scope="module")
def rect_section():
    """Rectangle (0,2)x(0,1) with discrete eigenpair aligned to the closed form."""
    ell, L = 2.0, 1.0
    mesh = M.gen_rectangle(ell, L, 64, 32)
    spec = F.neumann_eigs(mesh, 2, tol=1e-10)
    K, Mm = F.assemble(mesh)
    lam2 = float(spec.eigenvalues[1])
    psi = spec.eigenvectors[:, 1]
    psi = psi / math.sqrt(psi @ (Mm @ psi))
    ref = math.sqrt(2 / (ell * L)) * np.cos(np.pi * mesh.vertices[:, 0] / ell)
    if psi @ (Mm @ ref) < 0:
        psi = -psi
    return mesh, Mm, lam2, psi


def q1_exact(mesh, ell=2.0, L=1.0):
    return -(2 * math.sqrt(2) / math.pi) * math.sqrt(ell / L) * np.sin(
        np.pi * mesh.vertices[:, 0] / ell
    )


def q2_exact(mesh, ell=2.0, L=1.0):
    return math.sqrt(2 / ell) * (
        -2 * mesh.vertices[:, 1] / math.sqrt(L) + math.sqrt(L)
    ) * np.cos(np.pi * mesh.vertices[:, 0] / ell)


class TestAdjointSolve:
    def test_q1(self, rect_section):
        mesh, Mm, lam2, psi = rect_section
        adj = SD.adjoint_solve(mesh, lam2, psi, np.array([1.0, 0.0]))
        qe = q1_exact(mesh)
        err = adj.q - qe
        rel = math.sqrt(err @ (Mm @ err)) / math.sqrt(qe @ (Mm @ qe))
        assert rel < 0.01
        assert not adj.solvability_warning

    def test_q2(self, rect_section):
        mesh, Mm, lam2, psi = rect_section
        adj = SD.adjoint_solve(mesh, lam2, psi, np.array([0.0, 1.0]))
        qe = q2_exact(mesh)
        err = adj.q - qe
        rel = math.sqrt(err @ (Mm @ err)) / math.sqrt(qe @ (Mm @ qe))
        assert rel < 0.01

    def test_zero_direction(self, rect_section):
        mesh, Mm, lam2, psi = rect_section
        adj = SD.adjoint_solve(mesh, lam2, psi, np.array([0.0, 0.0]))
        assert math.sqrt(adj.q @ (Mm @ adj.q)) <= 1e-10

    def test_orthogonality(self, rect_section):
        mesh, Mm, lam2, psi = rect_section
        adj = SD.adjoint_solve(mesh, lam2, psi, np.array([1.0, 0.0]))
        assert adj.ortho_defect <= 1e-10

    def test_solvability_warning_on_triangle(self):
        # X != 0 here, so the removed component is the real obstruction
        mesh = M.gen_right_triangle(24)
        spec = F.neumann_eigs(mesh, 2, tol=1e-10)
        _, Mm = F.assemble(mesh)
        psi = spec.eigenvectors[:, 1]
        psi = psi / math.sqrt(psi @ (Mm @ psi))
        adj = SD.adjoint_solve(mesh, float(spec.eigenvalues[1]), psi,
                               np.array([1.0, 0.0]))
        assert adj.solvability_warning
        assert abs(adj.x_dot_w_estimate - 1.0) < 0.05


class TestBoundaryIntegrand:
    def test_closed_forms_pointwise(self, rect_section):
        mesh, Mm, lam2, psi = rect_section
        ell, L = 2.0, 1.0
        h = mesh.max_edge()

        adj1 = SD.adjoint_solve(mesh, lam2, psi, np.array([1.0, 0.0]))
        mids, vals = SD.boundary_integrand(mesh, lam2, psi, adj1.q, [1.0, 0.0])
        ref = (4 * np.pi / (ell**2 * L)) * np.cos(np.pi * mids[:, 0] / ell) * np.sin(
            np.pi * mids[:, 0] / ell
        )
        assert np.abs(vals - ref).max() <= 1.0 * h

        adj2 = SD.adjoint_solve(mesh, lam2, psi, np.array([0.0, 1.0]))
        mids, vals = SD.boundary_integrand(mesh, lam2, psi, adj2.q, [0.0, 1.0])
        ref = (2 * np.pi**2 / ell**3) * (-2 * mids[:, 1] / L + 1) * (
            np.sin(np.pi * mids[:, 0] / ell) ** 2
            - np.cos(np.pi * mids[:, 0] / ell) ** 2
        )
        assert np.abs(vals - ref).max() <= 1.0 * h

    def test_rate_constant_stable(self):
        ell, L = 2.0, 1.0
        cs = []
        for nx in (32, 64):
            mesh = M.gen_rectangle(ell, L, nx, nx // 2)
            spec = F.neumann_eigs(mesh, 2, tol=1e-10)
            _, Mm = F.assemble(mesh)
            lam2 = float(spec.eigenvalues[1])
            psi = spec.eigenvectors[:, 1]
            psi = psi / math.sqrt(psi @ (Mm @ psi))
            ref = math.sqrt(2 / (ell * L)) * np.cos(np.pi * mesh.vertices[:, 0] / ell)
            if psi @ (Mm @ ref) < 0:
                psi = -psi
            adj = SD.adjoint_solve(mesh, lam2, psi, np.array([0.0, 1.0]))
            mids, vals = SD.boundary_integrand(mesh, lam2, psi, adj.q, [0.0, 1.0])
            iref = (2 * np.pi**2 / ell**3) * (-2 * mids[:, 1] / L + 1) * (
                np.sin(np.pi * mids[:, 0] / ell) ** 2
                - np.cos(np.pi * mids[:, 0] / ell) ** 2
            )
            cs.append(np.abs(vals - iref).max() / mesh.max_edge())
        assert cs[1] <= 1.25 * cs[0]


class TestShapeDerivative:
    def test_zero_velocity(self, rect_section):
        mesh, Mm, lam2, psi = rect_section
        adj = SD.adjoint_solve(mesh, lam2, psi, np.array([1.0, 0.0]))
        val = SD.shape_derivative(mesh, lam2, psi, adj.q, [1.0, 0.0],
                                  np.zeros(len(mesh.boundary_edges)))
        assert val == 0.0

    def test_linearity_in_vn(self, rect_section):
        mesh, Mm, lam2, psi = rect_section
        adj = SD.adjoint_solve(mesh, lam2, psi, np.array([1.0, 0.0]))
        rng = np.random.default_rng(4)
        v1 = rng.standard_normal(len(mesh.boundary_edges))
        v2 = rng.standard_normal(len(mesh.boundary_edges))
        a, b = 0.7, -1.3
        d1 = SD.shape_derivative(mesh, lam2, psi, adj.q, [1, 0], v1)
        d2 = SD.shape_derivative(mesh, lam2, psi, adj.q, [1, 0], v2)
        d12 = SD.shape_derivative(mesh, lam2, psi, adj.q, [1, 0], a * v1 + b * v2)
        assert abs(d12 - (a * d1 + b * d2)) <= 1e-12 * (1 + abs(d12))

    def test_direction_decomposition(self, rect_section):
        mesh, Mm, lam2, psi = rect_section
        rng = np.random.default_rng(6)
        vn = rng.standard_normal(len(mesh.boundary_edges))
        alpha, beta = 0.6, 0.8
        q1 = SD.adjoint_solve(mesh, lam2, psi, np.array([1.0, 0.0])).q
        q2 = SD.adjoint_solve(mesh, lam2, psi, np.array([0.0, 1.0])).q
        d1 = SD.shape_derivative(mesh, lam2, psi, q1, [1, 0], vn)
        d2 = SD.shape_derivative(mesh, lam2, psi, q2, [0, 1], vn)
        qw = SD.adjoint_solve(mesh, lam2, psi, np.array([alpha, beta])).q
        dw = SD.shape_derivative(mesh, lam2, psi, qw, [alpha, beta], vn)
        assert abs(dw - (alpha * d1 + beta * d2)) <= 1e-10 * (1 + abs(dw))


class TestHarmonicExtension:
    def test_boundary_kept_interior_harmonic(self):
        mesh = M.gen_right_triangle(12)
        rng = np.random.default_rng(3)
        V = rng.standard_normal(mesh.vertices.shape)
        E = SD.harmonic_extension(mesh, V)
        bidx = mesh.boundary_vertex_indices()
        assert np.array_equal(E[bidx], V[bidx])
        interior = np.setdiff1d(np.arange(mesh.num_vertices), bidx)
        K, _ = F.assemble(mesh)
        assert np.abs((K @ E)[interior]).max() <= 1e-12 * np.abs(V).max()


class TestFdCheck:
    def test_rigid_translation(self):
        mesh = M.gen_rectangle(2 * np.pi, np.pi, 64, 32)
        V = np.tile([0.4, -0.3], (mesh.num_vertices, 1))
        rep = SD.fd_check(mesh, V, np.array([1.0, 0.0]), [1e-3, 2e-3],
                          tol=1e-10)
        assert abs(rep.fd_extrapolated) < 1e-6
        assert abs(rep.adjoint_value) < 1e-5

    def test_smooth_bump_agreement(self):
        mesh = M.gen_rectangle(2 * np.pi, np.pi, 64, 32)
        x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
        V = np.zeros_like(mesh.vertices)
        on_top = np.abs(y - np.pi) < 1e-12
        prof = np.cos(np.pi * (x - 4.0) / 1.0) ** 2 * (np.abs(x - 4.0) < 0.5)
        V[on_top, 1] = prof[on_top]
        rep = SD.fd_check(mesh, V, np.array([1.0, 0.0]), [1e-3, 2e-3, 4e-3],
                          tol=1e-10)
        assert rep.discrepancy < 0.02

    def test_inadmissible_ladder_propagates(self):
        mesh = M.gen_right_triangle(8)
        rng = np.random.default_rng(12)
        V = rng.standard_normal(mesh.vertices.shape)
        with pytest.raises(StepTooLargeError):
            SD.fd_check(mesh, V, np.array([1.0, 0.0]), [50.0], tol=1e-8)


class TestBumpGeometry:
    def test_polygon_simple_and_area(self):
        poly = SD.bump_rectangle_polygon(2 * np.pi, np.pi, "top", 1.7, 0.2, 0.1)
        area_ref = 2 * np.pi * np.pi + np.pi * 0.2**2 / 2
        assert abs(poly.area() - area_ref) < 2e-3

    def test_arc_sampling_scales(self):
        p1 = SD.bump_rectangle_polygon(2 * np.pi, np.pi, "top", 1.7, 0.2, 0.1)
        p2 = SD.bump_rectangle_polygon(2 * np.pi, np.pi, "top", 1.7, 0.2, 0.002)
        assert len(p2.loop) > len(p1.loop)

    def test_all_sides(self):
        for side in ("top", "bottom", "left", "right"):
            poly = SD.bump_rectangle_polygon(2 * np.pi, np.pi, side, 1.5, 0.2, 0.1)
            assert poly.area() > 2 * np.pi * np.pi


class TestBumpSweep:
    def test_monotone_growth(self):
        rows = SD.bump_sweep(2 * np.pi, np.pi, "top", 1.7, [0.0, 0.25, 0.5],
                             target_h=0.09)
        assert all(r.X is not None for r in rows)
        norms = [np.linalg.norm(r.X) for r in rows]
        assert norms[0] <= 1e-10
        assert norms[0] < norms[1] < norms[2]

    def test_failed_row_continues(self):
        rows = SD.bump_sweep(2 * np.pi, np.pi, "top", 1.7, [-0.1, 0.2],
                             target_h=0.09)
        # a nonsensical radius flags the row without stopping the sweep
        assert rows[0].X is None and rows[0].error.startswith("ValueError: ")
        assert rows[1].X is not None

    def test_csv_format(self):
        rows = [
            SD.SweepRow(0.2, np.array([0.1, 0.2]), 0.25, 3.0),
            SD.SweepRow(0.3, None, None, None, error="boom"),
        ]
        text = SD.sweep_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "r,X1,X2,lambda2,simple_gap,error"
        assert lines[1].startswith("0.2")
        assert lines[2].endswith("boom")
