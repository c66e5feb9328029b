import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import ArpackNoConvergence, SuperLU, eigsh, splu

from wgspec import fem as F, mesh as M
from wgspec.errors import NearDegenerateError, SolverError
from wgspec.shapederiv import _boundary_load, bump_rectangle_polygon


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


def _coo_assemble(mesh):
    """Reference assembly: element matrices from einsum, summed by scipy's
    COO-to-CSR conversion with sum_duplicates."""
    t = mesh.triangles
    area2, g = F._p1_gradients(mesh)
    area = 0.5 * area2
    g /= area2[:, None, None]
    ke = np.einsum("tid,tjd->tij", g, g) * area[:, None, None]
    me = (np.ones((3, 3)) + np.eye(3))[None, :, :] * (area / 12.0)[:, None, None]
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    n = mesh.num_vertices
    K = sparse.csr_matrix((ke.ravel(), (rows, cols)), shape=(n, n))
    Mm = sparse.csr_matrix((me.ravel(), (rows, cols)), shape=(n, n))
    K.sum_duplicates()
    Mm.sum_duplicates()
    return K, Mm


def _smooth_field(mesh):
    x, y = mesh.vertices.T
    return np.column_stack([np.sin(2 * x + y), np.cos(x - 3 * y)])


class TestAssemblePlan:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["rect", "tri", "bump"]),
        n=st.integers(2, 9),
        angle=st.floats(0.0, 2 * math.pi),
        offset=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
        step=st.sampled_from([0.0, 0.1, 0.5]),
    )
    def test_matches_the_coo_assembly(self, kind, n, angle, offset, step):
        if kind == "bump":
            base = M.gen_polygon(bump_rectangle_polygon(2.0, 1.0, "top", 0.9, 0.35,
                                                        0.9 / n))
        elif kind == "rect":
            base = M.gen_rectangle(1.5, 1.0, n, n + 1)
        else:
            base = M.gen_right_triangle(n)
        R = np.array([[math.cos(angle), -math.sin(angle)],
                      [math.sin(angle), math.cos(angle)]])
        mesh = M.build_trimesh(base.vertices @ R.T + offset, base.triangles)
        if step:  # a perturbed mesh, on the connectivity of the unperturbed one
            V = _smooth_field(mesh)
            mesh = M.perturb(mesh, V, step * min(M._max_admissible_step(mesh, V), 1.0))
        for new, ref in zip(F.assemble(mesh), _coo_assemble(mesh)):
            assert np.array_equal(new.indptr, ref.indptr)
            assert np.array_equal(new.indices, ref.indices)
            scale = np.abs(ref.data).max()
            assert np.abs(new.data - ref.data).max() <= 1e-14 * scale
            assert (new != new.T).nnz == 0  # symmetric bit for bit

    def test_pattern_is_shared_and_read_only(self):
        mesh = M.gen_right_triangle(5)
        K, Mm = F.assemble(mesh)
        conn = mesh.connectivity
        for A in (K, Mm):
            assert np.shares_memory(A.indices, conn.indices)
            assert np.shares_memory(A.indptr, conn.indptr)
        with pytest.raises(ValueError):
            K.indices[0] = 1


class TestAssembleDerivative:
    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["rect", "tri", "bump"]), n=st.integers(2, 9),
           angle=st.floats(0.0, 2 * math.pi))
    def test_matches_central_differences(self, kind, n, angle,
                                         assemble_derivative):
        # Richardson on central differences of assemble at steps t and 2t,
        # whose error is O(t^4), against rounding of order eps |K| / t
        if kind == "bump":
            mesh = M.gen_polygon(bump_rectangle_polygon(2.0, 1.0, "top", 0.9, 0.35,
                                                        0.9 / n))
        elif kind == "rect":
            mesh = M.gen_rectangle(1.5, 1.0, n, n + 1)
        else:
            mesh = M.gen_right_triangle(n)
        R = np.array([[math.cos(angle), -math.sin(angle)],
                      [math.sin(angle), math.cos(angle)]])
        V = _smooth_field(mesh) @ R.T
        t = 1e-3 * min(M._max_admissible_step(mesh, V), 1.0)

        def central(t):
            plus, minus = F.assemble(M.perturb(mesh, V, t)), F.assemble(M.perturb(mesh, V, -t))
            return [(p - m) / (2.0 * t) for p, m in zip(plus, minus)]

        scale = np.abs(F.assemble(mesh)[0].data).max()
        for exact, d1, d2 in zip(assemble_derivative(mesh, V), central(t),
                                 central(2.0 * t)):
            assert np.array_equal(exact.indices, mesh.connectivity.indices)
            ref = (4.0 * d1 - d2) / 3.0
            assert np.abs(exact - ref).max() <= 1e-8 * scale


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


class TestSolveDeflated:
    def test_pure_kernel_component(self):
        mesh = M.gen_rectangle(2, 1, 24, 12)
        K, Mm = F.assemble(mesh)
        s = F.neumann_eigs(mesh, 2, tol=1e-10)
        lam2 = s.eigenvalues[1]
        psi = s.eigenvectors[:, 1]
        rhs = Mm @ psi  # dual vector of the eigenfunction itself
        sol = F.solve_deflated(K, Mm, lam2, rhs, psi, s.factor)
        xnorm = math.sqrt(sol.x @ (Mm @ sol.x))
        assert xnorm <= 1e-8 * math.sqrt(psi @ (Mm @ psi))

    def test_orthogonality_enforced(self):
        mesh = M.gen_rectangle(2, 1, 24, 12)
        K, Mm = F.assemble(mesh)
        s = F.neumann_eigs(mesh, 2, tol=1e-10)
        lam2, psi = s.eigenvalues[1], s.eigenvectors[:, 1]
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal(mesh.num_vertices)
        sol = F.solve_deflated(K, Mm, lam2, rhs, psi, s.factor)
        assert abs(sol.x @ (Mm @ psi)) <= 1e-10 * math.sqrt(sol.x @ (Mm @ sol.x))
        assert sol.residual < 1e-8

    @pytest.mark.parametrize("eps", [1e-9, 1e-7])
    @pytest.mark.parametrize("make", [
        lambda: M.gen_rectangle(2, 1, 24, 12),
        lambda: M.gen_right_triangle(40),
        lambda: M.gen_rectangle(2, 1, 3, 2),  # 12 vertices: the dense path
    ], ids=["rect 24 x 12", "triangle 40", "rect 3 x 2"])
    def test_overlap_below_the_gate(self, make, eps):
        # psi + eps c passes the gate; without its Gram-Schmidt step against
        # c, CG reported convergence and left residuals of 4.6e-3 to 6.4e-2
        mesh = make()
        K, Mm = F.assemble(mesh)
        s = F.neumann_eigs(mesh, 2, tol=1e-10, matrices=(K, Mm))
        lam2, (c, psi) = s.eigenvalues[1], s.eigenvectors[:, :2].T
        rhs = np.random.default_rng(5).standard_normal(mesh.num_vertices)
        ref = F.solve_deflated(K, Mm, lam2, rhs, psi, s.factor)
        sol = F.solve_deflated(K, Mm, lam2, rhs, psi + eps * c, s.factor)
        assert sol.residual <= 1e-12
        assert np.linalg.norm(sol.x - ref.x) <= 1e-10 * np.linalg.norm(ref.x)

    def test_wrong_vector_near_degenerate(self):
        # the constant mode is M-orthogonal to psi, the kernel of
        # K - lambda2 M
        mesh = M.gen_rectangle(2, 1, 24, 12)
        K, Mm = F.assemble(mesh)
        s = F.neumann_eigs(mesh, 2, tol=1e-10)
        with pytest.raises(NearDegenerateError):
            F.solve_deflated(K, Mm, s.eigenvalues[1], np.ones(mesh.num_vertices),
                             s.eigenvectors[:, 0], s.factor)

    @pytest.mark.parametrize("ell, gap", [(1.0005, 1e-3), (1.00005, 1e-4)])
    def test_near_double_eigenvalue(self, ell, gap):
        # relative gaps (lambda3 - lambda2)/lambda2 of 1e-3 and 1e-4: the
        # preconditioned spectrum reaches down to about the gap, an isolated
        # eigenvalue that costs CG only a few steps
        mesh = M.gen_rectangle(ell, 1, 64, 64)
        K, Mm = F.assemble(mesh)
        s = F.neumann_eigs(mesh, 2, tol=1e-10, matrices=(K, Mm))
        lam2, lam3 = s.eigenvalues[1:]
        assert 0.9 * gap < (lam3 - lam2) / lam2 < 1.1 * gap
        psi = s.eigenvectors[:, 1]
        sol = F.solve_deflated(K, Mm, lam2, _boundary_load(mesh, psi, [0.6, 0.8]),
                               psi, s.factor)
        assert 0 < sol.iterations <= 20
        assert sol.residual <= 1e-10

    def test_other_eigenvector_is_wrong(self):
        # psi3 is M-orthogonal to the constants, but lambda2 is not its
        # eigenvalue
        mesh = M.gen_rectangle(2, 1, 24, 12)
        K, Mm = F.assemble(mesh)
        s = F.neumann_eigs(mesh, 2, tol=1e-10)
        rhs = np.random.default_rng(3).standard_normal(mesh.num_vertices)
        with pytest.raises(NearDegenerateError, match="wrong deflation vector"):
            F.solve_deflated(K, Mm, s.eigenvalues[1], rhs, s.eigenvectors[:, 2],
                             s.factor)

    def test_zero_projected_rhs(self):
        mesh = M.gen_rectangle(2, 1, 24, 12)
        K, Mm = F.assemble(mesh)
        s = F.neumann_eigs(mesh, 2, tol=1e-10)
        sol = F.solve_deflated(K, Mm, s.eigenvalues[1], np.zeros(mesh.num_vertices),
                               s.eigenvectors[:, 1], s.factor)
        assert not sol.x.any()
        assert (sol.removed, sol.residual, sol.iterations) == (0.0, 0.0, 0)

    def test_multiple_eigenvalue_near_degenerate(self):
        # the unit square, each of 8 x 8 cells cut into four at its centre:
        # the mesh keeps the square's symmetries, so lambda2 = lambda3
        n = 8
        g = np.linspace(0.0, 1.0, n + 1)
        i, j = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n)))
        corner = j * (n + 1) + i
        centre = (n + 1) ** 2 + np.arange(n * n)
        ring = [corner, corner + 1, corner + n + 2, corner + n + 1, corner]
        mesh = M.build_trimesh(
            np.vstack([np.column_stack([np.tile(g, n + 1), np.repeat(g, n + 1)]),
                       np.column_stack([(i + 0.5) / n, (j + 0.5) / n])]),
            np.concatenate([np.column_stack([a, b, centre])
                            for a, b in zip(ring, ring[1:])]))
        K, Mm = F.assemble(mesh)
        s = F.neumann_eigs(mesh, 2, tol=1e-10, matrices=(K, Mm))
        lam2, lam3 = s.eigenvalues[1:]
        assert lam3 - lam2 <= 1e-14 * lam2
        rhs = np.random.default_rng(2).standard_normal(mesh.num_vertices)
        with pytest.raises(NearDegenerateError, match="multiplicity"):
            F.solve_deflated(K, Mm, lam2, rhs, s.eigenvectors[:, 1], s.factor)


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

    @pytest.mark.parametrize("solve", [
        lambda: F.neumann_eigs(M.gen_rectangle(2, 1, 24, 12), 3, tol=1e-10),
        lambda: F.neumann_eigs(M.gen_right_triangle(24), 2, tol=1e-10),
    ])
    def test_bit_identical_repeat(self, solve):
        a, b = solve(), solve()
        assert a.solves > 0
        for f in ("eigenvalues", "eigenvectors", "residuals"):
            assert np.array_equal(getattr(a, f), getattr(b, f))
        assert (a.shift, a.solves) == (b.shift, b.solves)

    @pytest.mark.parametrize("solve", [F.neumann_eigs])
    def test_residual_gate(self, solve):
        with pytest.raises(SolverError) as info:
            solve(M.gen_rectangle(2, 1, 16, 8), 2, tol=1e-30)
        res = info.value.residuals
        assert res is not None and len(res) == 2 and (res > 1e-30).all()

    def test_residuals_relative_to_lambda(self):
        # ||K u - lambda M u|| / (lambda ||M u||), the constant mode's
        # relative to lambda2
        mesh = M.gen_right_triangle(12)
        K, Mm = F.assemble(mesh)
        s = F.neumann_eigs(mesh, 2)
        U, lam = s.eigenvectors, s.eigenvalues
        R = np.linalg.norm(K @ U - (Mm @ U) * lam, axis=0) / np.linalg.norm(Mm @ U, axis=0)
        ref = R / np.concatenate([[lam[1]], lam[1:]])
        assert np.abs(s.residuals - ref).max() <= 1e-12 * ref.max()

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
    def test_nonpositive_eigenvalue_raises(self, lam):
        # no relative residual exists there, and the division would warn
        mesh = M.gen_rectangle(2, 1, 4, 2)
        K, Mm = F.assemble(mesh)
        X = np.ones((mesh.num_vertices, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="not positive"):
                F._residuals(K, Mm, np.array([lam, 1.0]), X)

    def test_constant_pair_raises_without_warning(self, monkeypatch):
        # a solver that returns the constant mode: its Rayleigh quotient is
        # zero up to rounding, of either sign
        def constant(K, k, *args, **kwargs):
            return np.zeros(k), np.ones((K.shape[0], k))

        monkeypatch.setattr(F, "eigsh", constant)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError):
                F.neumann_eigs(M.gen_rectangle(2, 1, 16, 8), 2)

    @pytest.mark.parametrize("solve", [F.neumann_eigs])
    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_tol_must_be_positive_and_finite(self, solve, tol):
        # a NaN or infinite tol would switch the residual gate off
        with pytest.raises(ValueError, match="tol must be positive"):
            solve(M.gen_rectangle(2, 1, 16, 8), 2, tol=tol)

    @pytest.mark.parametrize("band_limit", [F.BAND_LIMIT, 0.0],
                             ids=["band", "superlu"])
    def test_no_convergence_raises_solver_error(self, monkeypatch, band_limit):
        # the partial pairs' residuals are in the documented metric on
        # either factor: the band's split pencil and SuperLU's generalized
        # mode
        def stalled(*args, **kwargs):  # only the lowest pair converged
            vals, vecs = eigsh(*args, **kwargs)
            raise ArpackNoConvergence("stalled", vals[:1], vecs[:, :1])

        monkeypatch.setattr(F, "BAND_LIMIT", band_limit)
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

    @pytest.mark.parametrize("mesh", [M.gen_rectangle(3, 1, 5, 2),
                                      M.gen_right_triangle(5)], ids=["rect", "tri"])
    def test_dense_solve_keeps_its_factors(self, mesh):
        # a pencil of 21 vertices or fewer is solved densely, and K - sigma M
        # is factorized all the same, for solve_deflated
        assert mesh.num_vertices <= 21
        s = F.neumann_eigs(mesh, 2)
        assert s.solves == 0
        assert s.fill == s.factor.nnz > 0
        K, Mm = F.assemble(mesh)
        x = np.random.default_rng(1).standard_normal(mesh.num_vertices)
        y = s.factor.solve(K @ x - s.shift * (Mm @ x))
        assert np.abs(y - x).max() <= 1e-12 * np.abs(x).max()


def _shifted(mesh):
    """K - sigma M of mesh's P1 pencil at the eigensolver's shift, CSC."""
    K, Mm = F.assemble(mesh)
    sigma = -F.SHIFT_SCALE * K.diagonal().sum() / Mm.diagonal().sum()
    return (K - sigma * Mm).tocsc()


def _interior_block(mesh):
    """The stiffness matrix's interior block, which harmonic_extension
    factorizes, CSC."""
    K, _ = F.assemble(mesh)
    interior = np.setdiff1d(np.arange(mesh.num_vertices),
                            mesh.boundary_vertex_indices())
    return K[interior][:, interior].tocsc()


def _rcm_band(A):
    """The order of reverse_cuthill_mckee on A and A's half-bandwidth kd in
    it, from the permuted matrix."""
    order = reverse_cuthill_mckee(A.tocsr(), symmetric_mode=True)
    B = A.tocsr()[order][:, order].tocoo()
    return order, int((B.row - B.col).max())


def _small_section(kind, ell, n):
    """A rectangle of aspect ell, a right triangle or a bump polygon, at
    most 2k vertices."""
    if kind == "rect":
        ny = max(2, min(n, int(math.sqrt(2000 / ell)) - 1))
        return M.gen_rectangle(ell, 1.0, max(2, round(ell * ny)), ny)
    if kind == "tri":
        return M.gen_right_triangle(min(n, 61))
    return M.gen_polygon(bump_rectangle_polygon(2.0, 1.0, "top", 0.9, 0.3,
                                                max(2.0 / n, 0.045)))


class TestFactorSpd:
    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["rect", "tri", "bump"]), ell=st.floats(1.0, 8.0),
           n=st.integers(4, 64))
    def test_either_side_matches_superlu(self, kind, ell, n):
        mesh = _small_section(kind, ell, n)
        assert mesh.num_vertices <= 2000
        rng = np.random.default_rng(n)
        # the interior block is conditioned like h^-2: both solves agree to
        # 1e-12; K - sigma M has a condition number of about 1/SHIFT_SCALE =
        # 1e5, and each solve lies within about 1e-12 of a solution refined
        # in long double, so they agree to 1e-11
        for A, tol in ((_interior_block(mesh), 1e-12), (_shifted(mesh), 1e-11)):
            b = rng.standard_normal(A.shape[0])
            ref = splu(A).solve(b)
            x = F._factor_spd(A).solve(b)
            assert np.linalg.norm(x - ref) <= tol * np.linalg.norm(ref)
        s = F.neumann_eigs(mesh, 2)
        with mock.patch.object(F, "_factor_spd", F._splu_spd):
            ref = F.neumann_eigs(mesh, 2)
        rel = np.abs(s.eigenvalues[1:] - ref.eigenvalues[1:]) / ref.eigenvalues[1:]
        assert rel.max() <= 1e-12

    @pytest.mark.parametrize("make, band", [
        (lambda: _shifted(M.gen_rectangle(2, 1, 128, 64)), True),
        (lambda: _shifted(M.gen_rectangle(8, 1, 256, 32)), True),
        (lambda: _interior_block(M.gen_rectangle(8, 1, 256, 32)), True),
        (lambda: _shifted(M.gen_polygon(M.Polygon(
            [(0, 0), (2 * math.pi, 0), (2 * math.pi, math.pi), (0, math.pi)],
            0.06))), True),
        (lambda: _shifted(M.gen_right_triangle(128)), False),
    ], ids=["rect 2x1", "rect 8x1", "rect 8x1 interior", "polygon", "triangle"])
    def test_benchmark_sections_take_their_side(self, make, band):
        # the benchmark's P1 pencils lie on both sides of the rule
        A = make()
        n = A.shape[0]
        order, kd = _rcm_band(A)
        assert (kd * kd <= F.BAND_LIMIT * math.sqrt(n)) == band
        factor = F._factor_spd(A)
        assert isinstance(factor, F._BandCholesky if band else SuperLU)
        if band:
            assert np.array_equal(factor.order, order)
            assert factor.nnz == factor.band.size == (kd + 1) * n
        x = np.random.default_rng(3).standard_normal(n)
        assert np.abs(factor.solve(A @ x) - x).max() <= 1e-8 * np.abs(x).max()

    def test_limit_is_inclusive(self, monkeypatch):
        A = _shifted(M.gen_rectangle(2, 1, 32, 16))
        _, kd = _rcm_band(A)
        ratio = kd * kd / math.sqrt(A.shape[0])
        monkeypatch.setattr(F, "BAND_LIMIT", ratio)
        assert isinstance(F._factor_spd(A), F._BandCholesky)
        monkeypatch.setattr(F, "BAND_LIMIT", ratio * (1.0 - 1e-12))
        assert isinstance(F._factor_spd(A), SuperLU)

    def test_indefinite_matrix_is_a_solver_error(self):
        # K - sigma M above lambda4: SuperLU factorizes it without a word,
        # with 4 negative pivots; the band stops at the first leading minor
        # of the reordered matrix that is not positive
        mesh = M.gen_rectangle(2, 1, 16, 8)
        K, Mm = F.assemble(mesh)
        lam4 = sla.eigh(K.toarray(), Mm.toarray(), eigvals_only=True)[3]
        A = (K - 1.01 * lam4 * Mm).tocsc()
        order, kd = _rcm_band(A)
        assert kd * kd <= F.BAND_LIMIT * math.sqrt(A.shape[0])
        with pytest.raises(SolverError) as info:
            F._factor_spd(A)
        found = re.fullmatch(
            r"banded Cholesky of 153 unknowns with half-bandwidth (\d+): leading "
            r"minor (\d+) of the reordered matrix is not positive",
            str(info.value))
        assert found and int(found[1]) == kd
        minor = int(found[2])
        B = A.toarray()[np.ix_(order, order)]
        np.linalg.cholesky(B[:minor - 1, :minor - 1])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(B[:minor, :minor])


class TestSplitPencil:
    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["rect", "tri", "bump"]), ell=st.floats(1.0, 8.0),
           n=st.integers(4, 64), k=st.integers(1, 3))
    def test_matches_the_generalized_mode(self, kind, ell, n, k):
        # on the band ARPACK runs on C = L^-1 P M P^T L^-T, on SuperLU's
        # factors in its generalized mode; BAND_LIMIT sends every pencil to
        # one side (some bumps lie on SuperLU's)
        mesh = _small_section(kind, ell, n)
        assert mesh.num_vertices <= 2000
        K, Mm = F.assemble(mesh)

        def solve(band_limit):
            with mock.patch.object(F, "BAND_LIMIT", band_limit):
                return F.neumann_eigs(mesh, k, matrices=(K, Mm))

        s, ref = solve(math.inf), solve(0.0)
        assert isinstance(s.factor, F._BandCholesky)
        assert isinstance(ref.factor, SuperLU)
        rel = np.abs(s.eigenvalues[1:] - ref.eigenvalues[1:]) / ref.eigenvalues[1:]
        assert rel.max() <= 1e-12
        X = s.eigenvectors
        assert np.abs(X.T @ (Mm @ X) - np.eye(k + 1)).max() <= 1e-12
        assert s.residuals.max() <= 1e-8
        again = solve(math.inf)
        for f in ("eigenvalues", "eigenvectors", "residuals"):
            assert np.array_equal(getattr(s, f), getattr(again, f))
        assert (s.shift, s.solves) == (again.shift, again.solves)

    @pytest.mark.parametrize("make, most", [
        (lambda: M.gen_rectangle(2, 1, 128, 64), 12),
        (lambda: M.gen_rectangle(1.1, 1, 128, 116), 18),
    ], ids=["2x1", "1.1x1"])
    def test_one_pair_takes_a_small_basis(self, make, most):
        # k = 1 fills 8 Lanczos vectors: lambda2 alone converges in fewer
        # solves than the 22 of a 20-vector basis, also at lambda3 / lambda2
        # = 1.21 on the 1.1 x 1 rectangle
        s = F.neumann_eigs(make(), 1)
        assert isinstance(s.factor, F._BandCholesky)
        assert 0 < s.solves <= most and s.residuals.max() <= 1e-8


def _warm_mesh(kind, size, shape):
    """A rectangle, right-triangle or L-shaped polygon mesh of at most about
    a thousand vertices; shape in [0.2, 2] sets the aspect."""
    if kind == "rect":
        return M.gen_rectangle(1.0 + shape, 1.0, size + 2, size)
    if kind == "tri":
        return M.gen_right_triangle(size)
    a = 1.0 + shape
    return M.gen_polygon(M.Polygon([(0, 0), (a, 0), (a, 1), (1, 1), (1, 2), (0, 2)],
                                   1.6 / size))


_WARM_MESHES = dict(kind=st.sampled_from(["rect", "tri", "poly"]),
                    size=st.integers(4, 16), shape=st.floats(0.2, 2.0))


def _machine_precision_eigsh(*args, **kwargs):
    """scipy's eigsh at tol = 0, which ARPACK reads as machine precision."""
    return eigsh(*args, **dict(kwargs, tol=0))


class TestArpackTolerance:
    @pytest.mark.parametrize("make", [
        lambda: M.gen_rectangle(2.03, 1.0, 128, 64),
        lambda: M.gen_polygon(M.Polygon(
            [(0, 0), (2 * math.pi, 0), (2 * math.pi, math.pi), (0, math.pi)], 0.06)),
    ], ids=["rect", "polygon"])
    def test_cold_solve_fills_the_basis_once(self, make):
        # ncv + 2 = 22 solves, the floor; at machine precision ARPACK
        # restarts the basis on these sections (39 solves)
        mesh = make()
        s = F.neumann_eigs(mesh, 2)
        assert s.solves == 22
        with mock.patch.object(F, "eigsh", _machine_precision_eigsh):
            ref = F.neumann_eigs(mesh, 2)
        assert ref.solves > s.solves
        rel = np.abs(s.eigenvalues[1:] - ref.eigenvalues[1:]) / ref.eigenvalues[1:]
        assert rel.max() <= 1e-12 and s.residuals.max() <= 1e-8

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["rect", "tri", "bump"]),
        n=st.integers(6, 18),
        ell=st.floats(1.0, 3.0),
        size=st.sampled_from([0.1, 1.0, 10.0]),
        k=st.integers(1, 3),
        tol=st.sampled_from([1e-8, 1e-9, 1e-10]),
    )
    def test_eigenvalues_of_a_machine_precision_run(self, kind, n, ell, size, k,
                                                    tol):
        if kind == "bump":
            base = M.gen_polygon(bump_rectangle_polygon(ell, 1.0, "top", ell / 2,
                                                        0.35, 0.9 / n))
        elif kind == "rect":
            base = M.gen_rectangle(ell, 1.0, round(ell * n), n)
        else:
            base = M.gen_right_triangle(n)
        # the residual gate is relative to lambda, the same at every size
        mesh = M.build_trimesh(base.vertices * size, base.triangles)
        with mock.patch.object(F, "eigsh", _machine_precision_eigsh):
            try:
                ref = F.neumann_eigs(mesh, k, tol=tol)
            except SolverError:
                return  # no claim where machine precision misses tol
        s = F.neumann_eigs(mesh, k, tol=tol)
        rel = np.abs(s.eigenvalues[1:] - ref.eigenvalues[1:]) / ref.eigenvalues[1:]
        assert rel.max() <= 1e-12
        assert s.residuals.max() <= tol


    @settings(max_examples=10, deadline=None)
    @given(s=st.floats(1e-3, 1e3))
    def test_same_solve_in_every_unit(self, s):
        # ARPACK's tol and the gate are both relative to the eigenvalues: the
        # scaled pencil takes the same solves (39 at s = 1) to the scaled
        # eigenvalues, and the Crouzeix-Raviart bounds scale with them
        base = M.gen_rectangle(2, 1, 64, 32)
        mesh = M.build_trimesh(base.vertices * s, base.triangles)
        ref, got = F.neumann_eigs(base, 2), F.neumann_eigs(mesh, 2)
        assert got.solves == ref.solves
        assert np.abs(got.eigenvalues[1:] * s * s - ref.eigenvalues[1:]).max() \
            <= 1e-9 * ref.eigenvalues[2]
        assert got.residuals.max() <= 1e-8
        lower, lower_ref = F.cr_eigs(mesh, 2), F.cr_eigs(base, 2)
        assert np.abs(lower * s * s - lower_ref).max() <= 1e-9 * lower_ref.max()


class TestColumnOrder:
    @settings(max_examples=15, deadline=None)
    # from 28 vertices up: smaller pencils are solved densely
    @given(**dict(_WARM_MESHES, size=st.integers(6, 16)), step=st.floats(0.05, 0.5))
    def test_deflated_solve_matches_the_bordered_one(self, kind, size, shape, step):
        mesh = _warm_mesh(kind, size, shape)
        V = _smooth_field(mesh)
        moved = M.perturb(mesh, V, step * min(M._max_admissible_step(mesh, V), 1.0))
        K, Mm = F.assemble(moved)
        s = F.neumann_eigs(moved, 2, tol=1e-9, matrices=(K, Mm))
        lam2, psi = s.eigenvalues[1], s.eigenvectors[:, 1]
        rhs = _boundary_load(moved, psi, [0.6, 0.8])
        sol = F.solve_deflated(K, Mm, lam2, rhs, psi, s.factor)
        # reference: the bordered matrix in SuperLU's own (COLAMD) order
        m_psi = Mm @ psi
        rhs_p = rhs - (psi @ rhs) * m_psi / (psi @ m_psi)
        border = sparse.csc_matrix(m_psi[:, None])
        bordered = sparse.bmat([[(K - lam2 * Mm).tocsc(), border],
                                [border.T, None]], format="csc")
        ref = splu(bordered).solve(np.append(rhs_p, 0.0))[:-1]
        assert np.linalg.norm(sol.x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert 0 < sol.iterations <= 20

    def test_given_matrices_are_used(self):
        mesh = M.gen_right_triangle(12)
        K, Mm = F.assemble(mesh)
        a = F.neumann_eigs(mesh, 2, tol=1e-10)
        b = F.neumann_eigs(mesh, 2, tol=1e-10, matrices=(K, Mm))
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        c = F.neumann_eigs(mesh, 2, tol=1e-10, matrices=(4.0 * K, Mm))
        assert np.allclose(c.eigenvalues, 4.0 * a.eigenvalues, rtol=1e-10)


def _neumann_closed_form(kind, ell):
    """lambda_2 and lambda_3 of the rectangle (0, ell) x (0, 1), pi^2 (m^2 /
    ell^2 + n^2), or of the right triangle (0,0)-(1,0)-(0,1), pi^2 (m^2 +
    n^2) for m >= n >= 0 (the square's modes even across the hypotenuse)."""
    pairs = [(m, n) for m in range(4) for n in range(4)]
    if kind == "rect":
        vals = [math.pi ** 2 * (m * m / ell ** 2 + n * n) for m, n in pairs]
    else:
        vals = [math.pi ** 2 * (m * m + n * n) for m, n in pairs if m >= n]
    return np.sort(vals)[1:3]


class TestCrouzeixRaviart:
    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["rect", "tri"]), ell=st.floats(1.05, 3.0),
           nx=st.integers(2, 40), ny=st.integers(2, 40), n=st.integers(2, 64),
           s=st.floats(0.1, 10.0))
    def test_enclosure_contains_the_closed_form(self, kind, ell, nx, ny, n, s):
        base = M.gen_rectangle(ell, 1.0, nx, ny) if kind == "rect" \
            else M.gen_right_triangle(n)
        mesh = M.build_trimesh(base.vertices * s, base.triangles)
        exact = _neumann_closed_form(kind, ell) / s ** 2
        lower = F.cr_eigs(mesh, 2)
        upper = F.neumann_eigs(mesh, 2).eigenvalues[1:]
        assert (lower <= exact).all() and (exact <= upper).all()

    def test_pencil_on_the_edges(self):
        # the pencil solved is D^-1/2 K D^-1/2 with no mass, D diagonal with
        # area/3 per side: it annihilates sqrt(diag D), its dense eigenvalues
        # are those of (K, D), and each bound is t / (1 + (0.1893 h)^2 t) of
        # a dense CR eigenvalue t, up to its residual radius
        mesh = M.gen_polygon(M.Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2),
                                        (0, 2)], 0.3))
        calls, solve = [], F._shift_invert_eigs

        def record(*args, **kwargs):
            calls.append((args, solve(*args, **kwargs)))
            return calls[-1][1]

        with mock.patch.object(F, "_shift_invert_eigs", record):
            lower = F.cr_eigs(mesh, 3, tol=1e-10)
        Ks, mass, _, _, constant = calls[0][0][:5]
        conn = mesh.connectivity
        ne = len(conn.edges)
        area2, _ = F._p1_gradients(mesh)
        d = np.bincount(conn.tri_edges.ravel(), np.repeat(area2 / 6.0, 3), ne)
        assert abs(d.sum() - mesh.total_area()) <= 1e-14
        root = np.sqrt(d)
        assert Ks.shape == (ne, ne) and mass is None
        assert np.abs(constant - root / np.linalg.norm(root)).max() <= 1e-15
        assert abs(Ks @ root).max() <= 1e-12 * abs(Ks).max() * root.max()
        K = Ks.multiply(np.outer(root, root)).toarray()
        assert abs(K @ np.ones(ne)).max() <= 1e-12 * abs(K).max()
        t = sla.eigh(K, np.diag(d), eigvals_only=True)[1:4]
        assert np.abs(np.linalg.eigvalsh(Ks.toarray())[1:4] - t).max() <= 1e-12 * t[-1]
        bound = t / (1.0 + (F.CR_CONSTANT * mesh.max_edge()) ** 2 * t)
        assert (np.abs(lower - bound) <= 1e-8 * t).all()
        assert (lower < F.neumann_eigs(mesh, 3).eigenvalues[1:]).all()
        # at a loose tol the residuals stand far above rounding: the gate's
        # are those of the unscaled pencil (K, D)
        with mock.patch.object(F, "_shift_invert_eigs", record):
            F.cr_eigs(mesh, 3, tol=1e-3)
        rho, Z, res = calls[-1][1][:3]
        X = Z / root[:, None]
        ref = (np.linalg.norm(K @ X - (d[:, None] * X) * rho, axis=0)
               / (rho * np.linalg.norm(d[:, None] * X, axis=0)))
        assert res.max() > 1e-10 and np.abs(res - ref).max() <= 1e-6 * ref.max()

    def test_too_few_edges_and_bad_tol(self):
        with pytest.raises(ValueError, match="edge count"):
            F.cr_eigs(M.gen_right_triangle(1), 2)
        with pytest.raises(ValueError, match="tol must be positive"):
            F.cr_eigs(M.gen_right_triangle(4), 2, tol=math.nan)
