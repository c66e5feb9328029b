import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.linalg import splu

from wgspec import fem as F, mesh as M, shapederiv as SD
from wgspec.crosssec import x_boundary
from wgspec.errors import TrackingError


@pytest.fixture(scope="module")
def rect_section():
    """Rectangle (0,2)x(0,1) with discrete eigenpair aligned to the closed form."""
    ell, L = 2.0, 1.0
    mesh = M.gen_rectangle(ell, L, 64, 32)
    K, Mm = F.assemble(mesh)
    spec = F.neumann_eigs(mesh, 2, tol=1e-10, matrices=(K, Mm))
    lam2 = float(spec.eigenvalues[1])
    psi = spec.eigenvectors[:, 1]
    psi = psi / math.sqrt(psi @ (Mm @ psi))
    ref = math.sqrt(2 / (ell * L)) * np.cos(np.pi * mesh.vertices[:, 0] / ell)
    if psi @ (Mm @ ref) < 0:
        psi = -psi
    return mesh, (K, Mm), lam2, psi, spec.factor


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
        mesh, matrices, lam2, psi, factor = rect_section
        Mm = matrices[1]
        adj = SD.adjoint_solve(mesh, lam2, psi, np.array([1.0, 0.0]), matrices, factor)
        qe = q1_exact(mesh)
        err = adj.q - qe
        rel = math.sqrt(err @ (Mm @ err)) / math.sqrt(qe @ (Mm @ qe))
        assert rel < 0.01
        assert not adj.solvability_warning

    def test_q2(self, rect_section):
        mesh, matrices, lam2, psi, factor = rect_section
        Mm = matrices[1]
        adj = SD.adjoint_solve(mesh, lam2, psi, np.array([0.0, 1.0]), matrices, factor)
        qe = q2_exact(mesh)
        err = adj.q - qe
        rel = math.sqrt(err @ (Mm @ err)) / math.sqrt(qe @ (Mm @ qe))
        assert rel < 0.01

    def test_zero_direction(self, rect_section):
        mesh, matrices, lam2, psi, factor = rect_section
        Mm = matrices[1]
        adj = SD.adjoint_solve(mesh, lam2, psi, np.array([0.0, 0.0]), matrices, factor)
        assert math.sqrt(adj.q @ (Mm @ adj.q)) <= 1e-10

    def test_orthogonality(self, rect_section):
        mesh, matrices, lam2, psi, factor = rect_section
        adj = SD.adjoint_solve(mesh, lam2, psi, np.array([1.0, 0.0]), matrices, factor)
        assert adj.ortho_defect <= 1e-10

    def test_solvability_warning_on_triangle(self):
        # X != 0 here, so the removed component is the real obstruction
        mesh = M.gen_right_triangle(24)
        matrices = F.assemble(mesh)
        spec = F.neumann_eigs(mesh, 2, tol=1e-10, matrices=matrices)
        Mm = matrices[1]
        psi = spec.eigenvectors[:, 1]
        psi = psi / math.sqrt(psi @ (Mm @ psi))
        adj = SD.adjoint_solve(mesh, float(spec.eigenvalues[1]), psi,
                               np.array([1.0, 0.0]), matrices, spec.factor)
        assert adj.solvability_warning
        assert abs(adj.x_dot_w_estimate - 1.0) < 0.05

    @pytest.mark.parametrize("s", [1e-3, 1e3])
    def test_solvability_warning_in_every_unit(self, s):
        # X.w and sqrt(lambda2) both scale as 1/s: the triangle warns and
        # the rectangle, where X = 0, does not
        for base, warns in ((M.gen_right_triangle(16), True),
                            (M.gen_rectangle(2, 1, 32, 16), False)):
            mesh = M.build_trimesh(base.vertices * s, base.triangles)
            matrices = F.assemble(mesh)
            spec = F.neumann_eigs(mesh, 2, matrices=matrices)
            adj = SD.adjoint_solve(mesh, float(spec.eigenvalues[1]),
                                   spec.eigenvectors[:, 1], np.array([1.0, 0.0]),
                                   matrices, spec.factor)
            assert adj.solvability_warning is warns


class TestBoundaryIntegrand:
    def test_closed_forms_pointwise(self, rect_section):
        mesh, matrices, lam2, psi, factor = rect_section
        ell, L = 2.0, 1.0
        h = mesh.max_edge()

        adj1 = SD.adjoint_solve(mesh, lam2, psi, np.array([1.0, 0.0]), matrices, factor)
        mids, vals = SD.boundary_integrand(mesh, lam2, psi, adj1.q, [1.0, 0.0])
        ref = (4 * np.pi / (ell**2 * L)) * np.cos(np.pi * mids[:, 0] / ell) * np.sin(
            np.pi * mids[:, 0] / ell
        )
        assert np.abs(vals - ref).max() <= 1.0 * h

        adj2 = SD.adjoint_solve(mesh, lam2, psi, np.array([0.0, 1.0]), matrices, factor)
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
            matrices = F.assemble(mesh)
            spec = F.neumann_eigs(mesh, 2, tol=1e-10, matrices=matrices)
            Mm = matrices[1]
            lam2 = float(spec.eigenvalues[1])
            psi = spec.eigenvectors[:, 1]
            psi = psi / math.sqrt(psi @ (Mm @ psi))
            ref = math.sqrt(2 / (ell * L)) * np.cos(np.pi * mesh.vertices[:, 0] / ell)
            if psi @ (Mm @ ref) < 0:
                psi = -psi
            adj = SD.adjoint_solve(mesh, lam2, psi, np.array([0.0, 1.0]),
                                   matrices, spec.factor)
            mids, vals = SD.boundary_integrand(mesh, lam2, psi, adj.q, [0.0, 1.0])
            iref = (2 * np.pi**2 / ell**3) * (-2 * mids[:, 1] / L + 1) * (
                np.sin(np.pi * mids[:, 0] / ell) ** 2
                - np.cos(np.pi * mids[:, 0] / ell) ** 2
            )
            cs.append(np.abs(vals - iref).max() / mesh.max_edge())
        assert cs[1] <= 1.25 * cs[0]


class TestShapeDerivative:
    def test_zero_velocity(self, rect_section):
        mesh, matrices, lam2, psi, factor = rect_section
        adj = SD.adjoint_solve(mesh, lam2, psi, np.array([1.0, 0.0]), matrices, factor)
        val = SD.shape_derivative(mesh, lam2, psi, adj.q, [1.0, 0.0],
                                  np.zeros(len(mesh.boundary_edges)))
        assert val == 0.0

    def test_linearity_in_vn(self, rect_section):
        mesh, matrices, lam2, psi, factor = rect_section
        adj = SD.adjoint_solve(mesh, lam2, psi, np.array([1.0, 0.0]), matrices, factor)
        rng = np.random.default_rng(4)
        v1 = rng.standard_normal(len(mesh.boundary_edges))
        v2 = rng.standard_normal(len(mesh.boundary_edges))
        a, b = 0.7, -1.3
        d1 = SD.shape_derivative(mesh, lam2, psi, adj.q, [1, 0], v1)
        d2 = SD.shape_derivative(mesh, lam2, psi, adj.q, [1, 0], v2)
        d12 = SD.shape_derivative(mesh, lam2, psi, adj.q, [1, 0], a * v1 + b * v2)
        assert abs(d12 - (a * d1 + b * d2)) <= 1e-12 * (1 + abs(d12))

    def test_direction_decomposition(self, rect_section):
        mesh, matrices, lam2, psi, factor = rect_section
        rng = np.random.default_rng(6)
        vn = rng.standard_normal(len(mesh.boundary_edges))
        alpha, beta = 0.6, 0.8
        q1 = SD.adjoint_solve(mesh, lam2, psi, np.array([1.0, 0.0]), matrices, factor).q
        q2 = SD.adjoint_solve(mesh, lam2, psi, np.array([0.0, 1.0]), matrices, factor).q
        d1 = SD.shape_derivative(mesh, lam2, psi, q1, [1, 0], vn)
        d2 = SD.shape_derivative(mesh, lam2, psi, q2, [0, 1], vn)
        qw = SD.adjoint_solve(mesh, lam2, psi, np.array([alpha, beta]),
                              matrices, factor).q
        dw = SD.shape_derivative(mesh, lam2, psi, qw, [alpha, beta], vn)
        assert abs(dw - (alpha * d1 + beta * d2)) <= 1e-10 * (1 + abs(dw))


class TestHarmonicExtension:
    def test_boundary_kept_interior_harmonic(self):
        mesh = M.gen_right_triangle(12)
        rng = np.random.default_rng(3)
        V = rng.standard_normal(mesh.vertices.shape)
        K, Mm = F.assemble(mesh)
        E = SD.harmonic_extension(mesh, V, (K, Mm))
        bidx = mesh.boundary_vertex_indices()
        assert np.array_equal(E[bidx], V[bidx])
        interior = np.setdiff1d(np.arange(mesh.num_vertices), bidx)
        assert np.abs((K @ E)[interior]).max() <= 1e-12 * np.abs(V).max()

    @pytest.mark.parametrize("mesh", [
        M.gen_rectangle(8, 1, 64, 8),
        M.gen_polygon(SD.bump_rectangle_polygon(2, 1, "top", 0.8, 0.3, 0.1)),
    ])
    def test_matches_a_pivoting_solve(self, mesh):
        # reference: the interior block solved by SuperLU with its default
        # COLAMD order and partial pivoting
        V = np.random.default_rng(4).standard_normal(mesh.vertices.shape)
        K, _ = F.assemble(mesh)
        bidx = mesh.boundary_vertex_indices()
        interior = np.setdiff1d(np.arange(mesh.num_vertices), bidx)
        lu = splu(K[interior][:, interior].tocsc())
        ref = V.copy()
        for c in range(2):
            ref[interior, c] = lu.solve(-K[interior][:, bidx] @ V[bidx, c])
        E = SD.harmonic_extension(mesh, V, F.assemble(mesh))
        assert np.abs(E - ref).max() <= 1e-12 * np.abs(ref).max()


def _fd_oracle(mesh, V, ladder=(1e-3, 2e-3, 4e-3), tol=1e-10):
    """dX_h/dt at t = 0 on M.perturb(mesh, V, t): central differences of
    x_boundary over cold Lanczos solves on the +-t meshes, Richardson-
    extrapolated over the ladder of doubling steps (the differences are even
    in t, so each level removes the next power of t^2).  X is even in the
    eigenfunction, so no sign is tracked."""
    def x_boundary_at(t):
        pm = M.perturb(mesh, V, t)
        return x_boundary(pm, F.neumann_eigs(pm, 2, tol=tol).eigenvectors[:, 1])

    table = [(x_boundary_at(t) - x_boundary_at(-t)) / (2.0 * t) for t in ladder]
    for level in range(1, len(table)):
        fac = 4.0 ** level
        table = [(fac * a - b) / (fac - 1.0) for a, b in zip(table, table[1:])]
    return table[0]


class TestFdCheck:
    def test_one_assembly_per_vertex_set(self, monkeypatch, top_bump,
                                         factorizations):
        # the base matrices serve the lift, the eigensolve and the adjoint;
        # no mesh is perturbed or built
        mesh = M.gen_rectangle(8, 1, 256, 32)
        V = top_bump(mesh, 3.0)
        assembled, spectra, built = [], [], []
        originals = F.assemble, F.neumann_eigs, M.build_trimesh

        def assemble(m):
            assembled.append(m)
            return originals[0](m)

        def neumann_eigs(*args, **kwargs):
            spectra.append(originals[1](*args, **kwargs))
            return spectra[-1]

        def build_trimesh(*args, **kwargs):
            built.append(args)
            return originals[2](*args, **kwargs)

        monkeypatch.setattr(SD, "assemble", assemble)
        monkeypatch.setattr(F, "assemble", assemble)
        monkeypatch.setattr(SD, "neumann_eigs", neumann_eigs)
        monkeypatch.setattr(M, "build_trimesh", build_trimesh)
        SD.fd_check(mesh, V, np.array([1.0, 0.0]))
        assert len(assembled) == 1 and assembled[0] is mesh
        assert built == []
        # one Lanczos eigensolve of psi2 and psi3 on a factorization of its
        # own: the banded Cholesky factor of half-bandwidth 33, whose
        # 34 * 8481 entries are stored
        assert [(len(s.eigenvalues), s.factor.nnz) for s in spectra] == [(3, 288354)]
        # the lift's interior block and the eigensolve's K - sigma M are each
        # factorized once, in an order computed for it; the adjoint's CG is
        # preconditioned with the eigensolve's factors
        assert factorizations == ["_factor_spd"] * 2

    def test_small_mesh_preconditions_with_the_eigensolve(self, monkeypatch,
                                                          top_bump,
                                                          factorizations):
        # 18 vertices: the pencil is solved densely, and its factors of
        # K - sigma M still reach the adjoint's CG
        mesh = M.gen_rectangle(3, 1, 5, 2)
        spectra, factors = [], []
        originals = F.neumann_eigs, SD.solve_deflated

        def neumann_eigs(*args, **kwargs):
            spectra.append(originals[0](*args, **kwargs))
            return spectra[-1]

        def solve_deflated(*args):
            factors.append(args[-1])
            return originals[1](*args)

        monkeypatch.setattr(SD, "neumann_eigs", neumann_eigs)
        monkeypatch.setattr(SD, "solve_deflated", solve_deflated)
        SD.fd_check(mesh, top_bump(mesh, 1.2), np.array([1.0, 0.0]))
        assert mesh.num_vertices <= 21 and spectra[0].solves == 0
        assert len(factors) == 1 and factors[0] is spectra[0].factor is not None
        assert factorizations == ["_factor_spd"] * 2

    @pytest.fixture(scope="class")
    def bump_8x1(self, top_bump):
        # the shape-fd benchmark case: 8 x 1 rectangle, 256 x 32
        mesh = M.gen_rectangle(8, 1, 256, 32)
        return mesh, top_bump(mesh, 3.0)

    def test_repeat_is_bit_identical(self, bump_8x1, report_json):
        # twice on one mesh: the first run leaves nothing on it that the
        # second reads
        _, V = bump_8x1
        fresh = M.gen_rectangle(8, 1, 256, 32)
        a, b = (SD.fd_check(m, V, np.array([1.0, 0.0])) for m in (fresh, fresh))
        assert report_json(a) == report_json(b)

    @settings(max_examples=6, deadline=None)
    @given(kind=st.sampled_from(["rect", "polygon"]), ell=st.floats(1.5, 4.0),
           where=st.floats(0.05, 0.4), angle=st.floats(0.0, 2 * math.pi))
    @example(kind="polygon", ell=2.0, where=0.3, angle=0.5)
    def test_fd_values_match_lanczos_solves(self, kind, ell, where, angle,
                                            top_bump):
        # the exact derivative against _fd_oracle, on rectangles with a bump
        # pushing the top side out left of the middle (where the derivative
        # along e1 vanishes by symmetry), and on meshed polygons under a
        # smooth field; relative to |dX_h/dt|, as d(X_h.w) vanishes for one w
        center = 0.5 + where * (ell - 1.0)
        if kind == "rect":
            mesh = M.gen_rectangle(ell, 1.0, int(16 * ell), 16)
            V = top_bump(mesh, center)
        else:
            mesh = M.gen_polygon(SD.bump_rectangle_polygon(ell, 1.0, "top", center,
                                                           0.3, 0.1))
            x, y = mesh.vertices.T
            V = np.column_stack([np.sin(x + 2 * y), np.cos(2 * x - y)])
        w = np.array([math.cos(angle), math.sin(angle)])
        rep = SD.fd_check(mesh, V, w, tol=1e-10)
        ref = _fd_oracle(mesh, SD.harmonic_extension(mesh, V, F.assemble(mesh)))
        assert abs(rep.discrete_value - ref @ w) <= 1e-8 * np.linalg.norm(ref)

    def test_still_boundary_differences_vanish(self):
        # V = 0 moves no vertex: every term of the exact derivative, and of
        # the adjoint formula, is a product with 0
        mesh = M.gen_rectangle(2, 1, 32, 16)
        rep = SD.fd_check(mesh, np.zeros_like(mesh.vertices), np.array([1.0, 0.0]))
        assert rep.discrete_value == 0.0
        assert rep.discrepancy == 0.0

    def test_rigid_translation(self):
        # within rounding of the boundary term's scale |V| * integral of
        # psi^2 over the boundary
        mesh = M.gen_rectangle(2 * np.pi, np.pi, 64, 32)
        V = np.tile([0.4, -0.3], (mesh.num_vertices, 1))
        rep = SD.fd_check(mesh, V, np.array([1.0, 0.0]), tol=1e-10)
        psi = F.neumann_eigs(mesh, 2, tol=1e-10).eigenvectors[:, 1]
        pa, pb = psi[mesh.boundary_edges.T]
        scale = 0.5 * (mesh.boundary_lengths * (pa * pa + pa * pb + pb * pb) / 3).sum()
        assert abs(rep.discrete_value) <= 1e-14 * scale < 1e-6
        assert abs(rep.adjoint_value) < 1e-5

    @pytest.mark.parametrize("w", [[1.0, 0.0], [0.0, 1.0]])
    def test_rigid_rotation(self, w):
        # the mesh turns rigidly about c, so X_h turns with it: dX_h/dt = J X_h
        mesh = M.gen_right_triangle(32)
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        V = (mesh.vertices - [1 / 3, 1 / 3]) @ J.T
        rep = SD.fd_check(mesh, V, np.array(w), tol=1e-10)
        psi = F.neumann_eigs(mesh, 2, tol=1e-10).eigenvectors[:, 1]
        assert abs(rep.discrete_value - (J @ x_boundary(mesh, psi)) @ w) <= 1e-12

    @pytest.mark.parametrize("w", [[1.0, 0.0], [0.0, 1.0]])
    def test_dilation(self, w):
        # X_h scales as 1/length, so the dilation about c, V = y - c, gives
        # dX_h/dt = -X_h
        mesh = M.gen_right_triangle(32)
        V = mesh.vertices - [1 / 3, 1 / 3]
        rep = SD.fd_check(mesh, V, np.array(w), tol=1e-10)
        X = x_boundary(mesh, F.neumann_eigs(mesh, 2, tol=1e-10).eigenvectors[:, 1])
        assert abs(rep.discrete_value + X @ w) <= 1e-12 * np.linalg.norm(X)

    def test_smooth_bump_agreement(self):
        mesh = M.gen_rectangle(2 * np.pi, np.pi, 64, 32)
        x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
        V = np.zeros_like(mesh.vertices)
        on_top = np.abs(y - np.pi) < 1e-12
        prof = np.cos(np.pi * (x - 4.0) / 1.0) ** 2 * (np.abs(x - 4.0) < 0.5)
        V[on_top, 1] = prof[on_top]
        rep = SD.fd_check(mesh, V, np.array([1.0, 0.0]), tol=1e-10)
        assert rep.discrepancy < 0.02

    def test_degenerate_base_raises_tracking_error(self):
        # on the unit square lambda2 = lambda3 = pi^2, so psi2 has no
        # well-defined direction to differentiate
        mesh = M.gen_rectangle(1, 1, 16, 16)
        V = np.zeros_like(mesh.vertices)
        with pytest.raises(TrackingError, match="degenerate on the base mesh"):
            SD.fd_check(mesh, V, np.array([1.0, 0.0]))


class TestXGradient:
    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["rect", "tri", "bump"]), n=st.integers(2, 9),
           angle=st.floats(0.0, 2 * math.pi), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_matrix_derivatives(self, kind, n, angle, seed,
                                             assemble_derivative):
        # dF = psi^T dB psi + q^T (dK - lambda2 dM) psi - (psi^T dM psi) F is
        # an identity in psi, q and lambda2, so random fields reach every term
        if kind == "bump":
            base = M.gen_polygon(SD.bump_rectangle_polygon(2.0, 1.0, "top", 0.9,
                                                           0.35, 0.9 / n))
        elif kind == "rect":
            base = M.gen_rectangle(1.5, 1.0, n, n + 1)
        else:
            base = M.gen_right_triangle(n)
        R = np.array([[math.cos(angle), -math.sin(angle)],
                      [math.sin(angle), math.cos(angle)]])
        mesh = M.build_trimesh(base.vertices @ R.T, base.triangles)
        rng = np.random.default_rng(seed)
        psi, q = rng.standard_normal((2, mesh.num_vertices))
        V = rng.standard_normal(mesh.vertices.shape)
        lam2, w = rng.uniform(1.0, 20.0), R @ [0.6, 0.8]
        grad = SD._x_gradient(mesh, w, lam2, psi, q)

        dK, dM = assemble_derivative(mesh, V)
        a, b = mesh.boundary_edges.T
        dv = V[b] - V[a]
        pa, pb = psi[a], psi[b]
        dB = (dv[:, 1] * w[0] - dv[:, 0] * w[1]) @ ((pa * pa + pa * pb + pb * pb) / 3.0)
        terms = [dB, q @ (dK @ psi), -lam2 * (q @ (dM @ psi)),
                 -(psi @ (dM @ psi)) * (x_boundary(mesh, psi) @ w)]
        assert abs((grad * V).sum() - sum(terms)) <= 1e-10 * sum(map(abs, terms))
        # a translation moves nothing
        assert np.abs(grad.sum(axis=0)).max() <= 1e-12 * np.abs(grad).max()


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

    @pytest.mark.parametrize("side, m, outward", [
        ("bottom", (1.5, 0.0), (0, -1)), ("right", (2 * np.pi, 1.5), (1, 0)),
        ("top", (1.5, np.pi), (0, 1)), ("left", (0.0, 1.5), (-1, 0)),
    ])
    def test_half_circle_on_each_side(self, side, m, outward):
        # the ends lie on the side at m -+ r along it, the points between
        # them on the outer half of the circle of radius r about m
        loop = SD.bump_rectangle_polygon(2 * np.pi, np.pi, side, 1.5, 0.2, 0.1).loop
        d = loop - m
        dist = np.hypot(*d.T)
        on = np.flatnonzero(np.abs(dist - 0.2) <= 1e-15)
        assert len(on) == SD.MIN_ARC_POINTS + 1 and (np.diff(on) == 1).all()
        ends, arc = d[on[[0, -1]]], d[on[1:-1]]
        assert (ends @ outward == 0.0).all()
        assert (np.abs(np.abs(ends).sum(axis=1) - 0.2) <= 1e-15).all()
        assert (arc @ outward > 0.0).all()

    def test_unknown_side(self):
        with pytest.raises(ValueError, match="side must be one of"):
            SD.bump_rectangle_polygon(2.0, 1.0, "middle", 1.0, 0.2, 0.1)


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
