import json
import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from wgspec import fem as F, mesh as M
from wgspec.errors import NearDegenerateError, SolverError


@pytest.fixture(scope="module")
def square_spec():
    mesh = M.gen_rectangle(1, 1, 24, 24)
    return mesh, F.neumann_eigs(mesh, 3, tol=1e-9)


class TestAssemble:
    def test_single_triangle_mass_trace(self):
        K, Mm = F.assemble(M.gen_right_triangle(1))
        assert abs(Mm.diagonal().sum() - 0.25) < 1e-15

    def test_partition_of_unity(self):
        mesh = M.gen_rectangle(2, 1, 7, 5)
        _, Mm = F.assemble(mesh)
        ones = np.ones(mesh.num_vertices)
        assert abs(ones @ (Mm @ ones) - mesh.total_area()) <= 1e-12

    def test_constant_in_kernel(self):
        mesh = M.gen_right_triangle(9)
        K, _ = F.assemble(mesh)
        ones = np.ones(mesh.num_vertices)
        assert np.abs(K @ ones).max() <= 1e-12 * np.abs(K.data).max()


class TestNeumann:
    def test_rectangle_lambda2(self):
        mesh = M.gen_rectangle(2, 1, 48, 24)
        s = F.neumann_eigs(mesh, 2, tol=1e-9)
        assert abs(s.eigenvalues[1] - math.pi**2 / 4) / (math.pi**2 / 4) < 0.005

    def test_triangle_lambda2(self):
        s = F.neumann_eigs(M.gen_right_triangle(64), 2, tol=1e-9)
        assert abs(s.eigenvalues[1] - math.pi**2) / math.pi**2 < 0.005

    def test_square_double_eigenvalue(self, square_spec):
        # separation of variables: lambda2 = lambda3 = pi^2
        _, s = square_spec
        lam2, lam3 = s.eigenvalues[1], s.eigenvalues[2]
        assert abs(lam3 - lam2) / lam2 < 0.005
        assert abs(lam2 - math.pi**2) / math.pi**2 < 0.005

    def test_zero_mode_honest(self, square_spec):
        _, s = square_spec
        assert 0.0 <= s.eigenvalues[0] <= 1e-10 * s.eigenvalues[1]

    def test_m_orthonormal(self, square_spec):
        mesh, s = square_spec
        _, Mm = F.assemble(mesh)
        G = s.eigenvectors.T @ (Mm @ s.eigenvectors)
        assert np.abs(G - np.eye(G.shape[0])).max() <= 1e-10

    def test_residuals_within_tol(self, square_spec):
        _, s = square_spec
        assert s.residuals.max() <= 1e-9

    def test_ascending(self, square_spec):
        _, s = square_spec
        assert (np.diff(s.eigenvalues) >= -1e-14).all()

    def test_pre_violation(self):
        with pytest.raises(ValueError):
            F.neumann_eigs(M.gen_rectangle(1, 1, 1, 1), 3)


class TestDirichlet:
    def test_square_lambda1(self):
        s = F.dirichlet_eigs(M.gen_rectangle(1, 1, 32, 32), 1, tol=1e-9)
        assert abs(s.eigenvalues[0] - 2 * math.pi**2) / (2 * math.pi**2) < 0.005

    def test_bent_strip_below_threshold(self):
        # L-shaped strip of width 1: the bend binds a mode below pi^2
        loop = [(0, 0), (4, 0), (4, 1), (1, 1), (1, 4), (0, 4)]
        mesh = M.gen_polygon(M.Polygon(loop, 0.08))
        s = F.dirichlet_eigs(mesh, 1, tol=1e-8)
        assert s.eigenvalues[0] < 0.99 * math.pi**2

    def test_k_too_large(self):
        mesh = M.gen_rectangle(1, 1, 2, 2)  # single interior node
        with pytest.raises(ValueError):
            F.dirichlet_eigs(mesh, 5)

    def test_boundary_values_zero(self):
        mesh = M.gen_rectangle(1, 1, 8, 8)
        s = F.dirichlet_eigs(mesh, 2, tol=1e-9)
        assert np.abs(s.eigenvectors[mesh.boundary_vertex_indices()]).max() == 0.0


class TestSolveDeflated:
    def test_pure_kernel_component(self):
        mesh = M.gen_rectangle(2, 1, 24, 12)
        K, Mm = F.assemble(mesh)
        s = F.neumann_eigs(mesh, 2, tol=1e-10)
        lam2 = s.eigenvalues[1]
        psi = s.eigenvectors[:, 1]
        rhs = Mm @ psi  # dual vector of the eigenfunction itself
        sol = F.solve_deflated(K, Mm, lam2, rhs, psi)
        xnorm = math.sqrt(sol.x @ (Mm @ sol.x))
        assert xnorm <= 1e-8 * math.sqrt(psi @ (Mm @ psi))

    def test_orthogonality_enforced(self):
        mesh = M.gen_rectangle(2, 1, 24, 12)
        K, Mm = F.assemble(mesh)
        s = F.neumann_eigs(mesh, 2, tol=1e-10)
        lam2, psi = s.eigenvalues[1], s.eigenvectors[:, 1]
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal(mesh.num_vertices)
        sol = F.solve_deflated(K, Mm, lam2, rhs, psi)
        assert abs(sol.x @ (Mm @ psi)) <= 1e-10 * math.sqrt(sol.x @ (Mm @ sol.x))
        assert sol.residual < 1e-8

    def test_wrong_vector_near_degenerate(self):
        # the constant mode is M-orthogonal to psi, so (psi, 0) stays in the
        # kernel of the bordered matrix
        mesh = M.gen_rectangle(2, 1, 24, 12)
        K, Mm = F.assemble(mesh)
        s = F.neumann_eigs(mesh, 2, tol=1e-10)
        with pytest.raises(NearDegenerateError):
            F.solve_deflated(K, Mm, s.eigenvalues[1],
                             np.ones(mesh.num_vertices), s.eigenvectors[:, 0])


class TestInvariants:
    def test_galerkin_monotonicity_and_order(self):
        mesh = M.gen_rectangle(2, 1, 8, 4)
        lams = []
        hs = []
        for _ in range(4):
            s = F.neumann_eigs(mesh, 1, tol=1e-10)
            lams.append(s.eigenvalues[1])
            hs.append(mesh.max_edge())
            mesh = M.refine_uniform(mesh)
        lams = np.array(lams)
        assert (np.diff(lams) <= 1e-12).all()  # upper bounds decrease
        diffs = lams[:-1] - lams[1:]
        slopes = np.log(diffs[:-1] / diffs[1:]) / np.log(2.0)
        assert np.all(np.abs(slopes - 2.0) <= 0.3)

    def test_rigid_motion_invariance(self):
        mesh = M.gen_right_triangle(16)
        s0 = F.neumann_eigs(mesh, 2, tol=1e-10)
        ang = 0.83
        R = np.array([[math.cos(ang), -math.sin(ang)],
                      [math.sin(ang), math.cos(ang)]])
        moved = M.build_trimesh(mesh.vertices @ R.T + [1.5, -0.5], mesh.triangles)
        s1 = F.neumann_eigs(moved, 2, tol=1e-10)
        rel = np.abs(s1.eigenvalues[1:] - s0.eigenvalues[1:]) / s0.eigenvalues[1:]
        assert rel.max() <= 1e-8

    def test_scaling_law(self):
        mesh = M.gen_right_triangle(12)
        s0 = F.neumann_eigs(mesh, 2, tol=1e-11)
        sc = 2.75
        scaled = M.build_trimesh(mesh.vertices * sc, mesh.triangles)
        s1 = F.neumann_eigs(scaled, 2, tol=1e-11)
        rel = np.abs(s1.eigenvalues[1:] * sc**2 - s0.eigenvalues[1:]) / s0.eigenvalues[1:]
        assert rel.max() <= 1e-10

    def test_spectrum_json(self):
        s = F.neumann_eigs(M.gen_right_triangle(6), 1, tol=1e-9)
        d = json.loads(s.to_json())
        assert d["bc"] == "neumann"
        assert len(d["eigenvalues"]) == len(d["residuals"]) == 2

    def test_eigenvector_sidecar(self, tmp_path):
        s = F.neumann_eigs(M.gen_right_triangle(6), 1, tol=1e-9)
        path = tmp_path / "vec.f64"
        s.save_eigenvectors(path)
        back = np.fromfile(path).reshape(2, -1).T
        assert np.allclose(back, s.eigenvectors)


def _interior(mesh):
    bdry = np.zeros(mesh.num_vertices, dtype=bool)
    bdry[mesh.boundary_vertex_indices()] = True
    return np.where(~bdry)[0]


class TestShiftInvertSolver:
    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["rect", "tri"]),
        n1=st.integers(2, 10),
        n2=st.integers(2, 10),
        k=st.integers(1, 4),
        angle=st.floats(0.0, 2 * math.pi),
        offset=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    )
    def test_against_dense_eigh(self, kind, n1, n2, k, angle, offset):
        base = M.gen_rectangle(1.5, 1.0, n1, n2) if kind == "rect" \
            else M.gen_right_triangle(n1 + 1)
        R = np.array([[math.cos(angle), -math.sin(angle)],
                      [math.sin(angle), math.cos(angle)]])
        mesh = M.build_trimesh(base.vertices @ R.T + offset, base.triangles)
        K, Mm = F.assemble(mesh)

        s = F.neumann_eigs(mesh, k, tol=1e-9)
        ref = sla.eigh(K.toarray(), Mm.toarray(), eigvals_only=True)[1:k + 1]
        assert (np.abs(s.eigenvalues[1:] - ref) / ref).max() <= 1e-10
        G = s.eigenvectors.T @ (Mm @ s.eigenvectors)
        assert np.abs(G - np.eye(k + 1)).max() <= 1e-12

        inner = _interior(mesh)
        kd = min(k, len(inner))
        d = F.dirichlet_eigs(mesh, kd, tol=1e-9)
        ref_d = sla.eigh(K[inner][:, inner].toarray(), Mm[inner][:, inner].toarray(),
                         eigvals_only=True)[:kd]
        assert (np.abs(d.eigenvalues - ref_d) / ref_d).max() <= 1e-10

    @pytest.mark.parametrize("solve", [
        lambda: F.neumann_eigs(M.gen_rectangle(2, 1, 24, 12), 3, tol=1e-10),
        lambda: F.dirichlet_eigs(M.gen_right_triangle(24), 2, tol=1e-10),
    ])
    def test_bit_identical_repeat(self, solve):
        a, b = solve(), solve()
        assert a.solves > 0
        for f in ("eigenvalues", "eigenvectors", "residuals"):
            assert np.array_equal(getattr(a, f), getattr(b, f))
        assert (a.shift, a.solves) == (b.shift, b.solves)

    @pytest.mark.parametrize("solve", [F.neumann_eigs, F.dirichlet_eigs])
    def test_residual_gate(self, solve):
        with pytest.raises(SolverError) as info:
            solve(M.gen_rectangle(2, 1, 16, 8), 2, tol=1e-30)
        res = info.value.residuals
        assert res is not None and len(res) == 2 and (res > 1e-30).all()

    def test_no_convergence_raises_solver_error(self, monkeypatch):
        def stalled(*args, **kwargs):  # only the lowest pair converged
            vals, vecs = eigsh(*args, **kwargs)
            raise ArpackNoConvergence("stalled", vals[:1], vecs[:, :1])

        monkeypatch.setattr(F, "eigsh", stalled)
        with pytest.raises(SolverError) as info:
            F.neumann_eigs(M.gen_rectangle(2, 1, 16, 8), 2)
        res = info.value.residuals
        assert res.shape == (1,) and res[0] <= 1e-8

    def test_records_shift_and_solves(self):
        mesh = M.gen_right_triangle(16)
        s = F.neumann_eigs(mesh, 2, tol=1e-10)
        K, Mm = F.assemble(mesh)
        assert s.shift == -F.SHIFT_SCALE * K.diagonal().sum() / Mm.diagonal().sum()
        assert s.shift < 0 and s.solves >= 1
        assert set(json.loads(s.to_json())) == {"bc", "eigenvalues", "residuals"}
