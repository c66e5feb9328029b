import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wgspec import curves as CV
from wgspec.errors import (
    SingularParametrizationError,
    StepSizeError,
    UndefinedAngleError,
)


def adaptive_simpson(f, a, b, tol=1e-10, depth=40):
    """Independent arclength oracle."""

    def rec(a, b, fa, fm, fb, whole, d):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6 * (fa + 4 * flm + fm)
        right = (b - m) / 6 * (fm + 4 * frm + fb)
        if d <= 0 or abs(left + right - whole) < 15 * tol:
            return left + right + (left + right - whole) / 15
        return rec(a, m, fa, flm, fm, left, d - 1) + rec(m, b, fm, frm, fb, right, d - 1)

    fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
    whole = (b - a) / 6 * (fa + 4 * fm + fb)
    return rec(a, b, fa, fm, fb, whole, depth)


class TestArclengthResample:
    def test_line_grid(self):
        arc = CV.arclength_resample(CV.line().window(5), 64)
        assert np.abs(arc.s - (arc.t + 5.0)).max() <= 1e-12

    def test_quarter_circle(self):
        c = CV.circle(2.0)
        quarter = CV.ParamCurve(c.gamma, c.dgamma, c.ddgamma, 0.0, np.pi / 2)
        arc = CV.arclength_resample(quarter, 64)
        assert abs(arc.total_length - np.pi) <= 1e-10

    def test_parabola_vs_adaptive_simpson(self):
        oracle = adaptive_simpson(lambda t: math.sqrt(1 + 4 * t * t), -10, 10)
        arc = CV.arclength_resample(CV.parabola().window(10), 256)
        assert abs(arc.total_length - oracle) <= 1e-8

    def test_uniform_spacing(self):
        arc = CV.arclength_resample(CV.parabola().window(3), 128)
        assert np.abs(np.diff(arc.s) - arc.s[1]).max() <= 1e-12

    def test_singular(self):
        bad = CV.ParamCurve(
            gamma=lambda t: np.column_stack([np.asarray(t) ** 7 / 7.0, 0 * np.asarray(t), 0 * np.asarray(t)]),
            dgamma=lambda t: np.column_stack([np.asarray(t) ** 6, 0 * np.asarray(t), 0 * np.asarray(t)]),
            t0=-1.0, t1=1.0,
        )
        with pytest.raises(SingularParametrizationError):
            CV.arclength_resample(bad, 32)

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            CV.arclength_resample(CV.line(), 8)

    def test_constant_speed_newton_converges_fast(self):
        # |gamma'| is constant on the helix, so one Newton step lands every
        # node; a bracket test that rejects converged steps would bisect
        arc = CV.arclength_resample(CV.helix(1.0, 0.5).window(4 * np.pi), 20000)
        assert arc.iterations <= 3
        assert arc.residual <= 1e-13 * (1.0 + arc.total_length)


class TestRapf:
    def test_line_zero_curvature(self):
        fc = CV.frame_curve(CV.line().window(5), 64)
        assert np.abs(fc.k1).max() <= 1e-12
        assert np.abs(fc.k2).max() <= 1e-12
        assert np.abs(np.diff(fc.e2, axis=0)).max() <= 1e-12

    def test_planar_parabola(self):
        fc = CV.frame_curve(CV.parabola().window(3), 4000)
        assert np.abs(fc.k2).max() <= 1e-10
        assert np.abs(fc.e3 - [0.0, 0.0, 1.0]).max() <= 1e-10

    def test_helix_closed_form(self):
        R, p = 1.0, 0.5
        fc = CV.frame_curve(CV.helix(R, p).window(4 * np.pi), 20000)
        kap = R / (R * R + p * p)
        assert np.abs(fc.kappa - kap).max() <= 1e-6

    def test_orientation_positive(self):
        fc = CV.frame_curve(CV.helix(1, 0.3).window(6), 2000)
        dets = np.einsum(
            "ni,ni->n", fc.e1, np.cross(fc.e2, fc.e3)
        )
        assert np.abs(dets - 1.0).max() <= 1e-10

    def test_k_squared_identity(self):
        fc = CV.frame_curve(CV.helix(1, 0.5).window(6), 4000)
        lhs = fc.k1**2 + fc.k2**2
        assert np.abs(lhs - fc.kappa**2).max() <= 1e-8 * (1 + fc.kappa.max() ** 2)

    def test_bad_initial_frame(self):
        arc = CV.arclength_resample(CV.parabola().window(1), 64)
        with pytest.raises(ValueError):
            CV.rapf(arc, np.array([1.0, 0, 0]), np.array([0, 0, 1.0]))

    def test_drift_gate(self):
        # a very coarse grid on a tight bend trips the step-size gate
        with pytest.raises(StepSizeError):
            arc = CV.arclength_resample(CV.parabola().window(50), 16)
            CV.rapf(arc)

    def test_step_turn_gate(self):
        # one step of this grid turns the tangent by 0.92 rad > MAX_STEP_TURN
        arc = CV.arclength_resample(CV.parabola().window(5), 64)
        turn = np.arccos(np.clip((arc.tangent[:-1] * arc.tangent[1:]).sum(axis=1), -1, 1))
        assert turn.max() > CV.MAX_STEP_TURN
        with pytest.raises(StepSizeError, match="increase N"):
            CV.rapf(arc)

    @pytest.mark.parametrize("R, p", [(1.0, 0.5), (0.7, -0.9)])
    def test_helix_torsion_phase(self, R, p):
        # in a parallel frame (k1, k2) = kappa (cos, sin)(theta0 + tau s)
        fc = CV.frame_curve(CV.helix(R, p).window(4 * np.pi), 8000)
        tau = p / (R * R + p * p)
        phase = np.unwrap(np.arctan2(fc.k2, fc.k1))
        assert np.abs(phase - phase[0] - tau * fc.s).max() <= 2e-5

    def test_sequential_rotation_reference(self):
        # the frame equals the step-by-step product of the minimal rotations
        # taking T_j to T_{j+1} (Rodrigues' formula about T_j x T_{j+1})
        arc = CV.arclength_resample(CV.helix(1.0, 0.3).window(6), 500)
        fc = CV.rapf(arc)
        T = arc.tangent
        e2 = fc.e2[0].copy()
        for j in range(len(T) - 1):
            axis = np.cross(T[j], T[j + 1])
            sin, cos = np.linalg.norm(axis), T[j] @ T[j + 1]
            axis /= sin
            e2 = (cos * e2 + sin * np.cross(axis, e2)
                  + (1.0 - cos) * (axis @ e2) * axis)
            assert np.abs(e2 - fc.e2[j + 1]).max() <= 1e-12

    def test_orthonormality_defect_at_full_size(self):
        fc = CV.frame_curve(CV.parabola().window(50), 20000)
        assert fc.orthonormality_defect() <= 1e-14

    def test_bit_identical_repeat(self):
        arc = CV.arclength_resample(CV.helix(1.0, 0.5).window(6), 2000)
        fa, fb = CV.rapf(arc), CV.rapf(arc)
        for name in ("e2", "e3", "k1", "k2", "kappa"):
            assert np.array_equal(getattr(fa, name), getattr(fb, name))

    def test_uniqueness(self):
        arc = CV.arclength_resample(CV.parabola().window(2), 512)
        e2, e3 = CV.default_transverse_frame(arc.tangent[0])
        fa = CV.rapf(arc, e2, e3)
        fb = CV.rapf(arc, e2, e3)
        assert np.abs(fa.e2 - fb.e2).max() <= 1e-10

    def test_rotation_covariance(self):
        phi = 0.7
        arc = CV.arclength_resample(CV.parabola().window(3), 2000)
        e2a, e3a = CV.default_transverse_frame(arc.tangent[0])
        e2b = math.cos(phi) * e2a + math.sin(phi) * e3a
        e3b = -math.sin(phi) * e2a + math.cos(phi) * e3a
        fa = CV.rapf(arc, e2a, e3a)
        fb = CV.rapf(arc, e2b, e3b)
        ka = np.column_stack([fa.k1, fa.k2])
        kb = np.column_stack([fb.k1, fb.k2])
        ang = np.unwrap(
            np.arctan2(ka[:, 1], ka[:, 0]) - np.arctan2(kb[:, 1], kb[:, 0])
        )
        mask = fa.kappa > 1e-6
        assert np.ptp(ang[mask]) <= 1e-8
        assert abs(ang[mask].mean() - phi) <= 1e-8

    def test_k1_matches_signed_curvature(self):
        fc = CV.frame_curve(CV.parabola().window(1), 20000)
        ref = CV.planar_signed_curvature(CV.parabola(), fc.t)
        assert np.abs(fc.k1 - ref).max() <= 1e-6

    def test_kappa_matches_arclength_second_derivative(self):
        # sbend is arclength-parametrized, so kappa = |gamma''|
        curve = CV.sbend().window(4)
        fc = CV.frame_curve(curve, 8000)
        ref = np.linalg.norm(curve.ddgamma(fc.t), axis=1)
        assert np.abs(fc.kappa - ref).max() <= 1e-6


class TestSbendGamma:
    @staticmethod
    def quad_gamma(s):
        from scipy.integrate import quad

        phi = lambda x: 0.5 * (1.0 - math.exp(-x * x))
        opts = dict(epsabs=1e-13, epsrel=1e-13, limit=200)
        return [quad(lambda x: math.cos(phi(x)), 0.0, s, **opts)[0],
                quad(lambda x: math.sin(phi(x)), 0.0, s, **opts)[0]]

    def test_against_quad(self):
        s = np.array([2.5, -3.0, 0.4, 2.5, 0.0, -0.01, 7.0, -3.0])
        g = CV.sbend().gamma(s)
        ref = np.array([self.quad_gamma(v) for v in s])
        assert np.abs(g[:, :2] - ref).max() <= 1e-12
        assert np.all(g[:, 2] == 0.0)

    def test_scalar(self):
        g = CV.sbend().gamma(-1.3)
        assert g.shape == (1, 3)
        assert np.abs(g[0, :2] - self.quad_gamma(-1.3)).max() <= 1e-12


class TestPlanarSignedCurvature:
    def test_parabola_values(self):
        assert abs(CV.planar_signed_curvature(CV.parabola(), 0.0) - 2.0) <= 1e-14
        assert abs(
            CV.planar_signed_curvature(CV.parabola(), 1.0) - 2.0 / 5**1.5
        ) <= 1e-14

    def test_circle(self):
        for t in (0.0, 1.0, 2.5):
            assert abs(CV.planar_signed_curvature(CV.circle(2.0), t) - 0.5) <= 1e-13


class TestNormsAndY:
    def test_parabola_sup(self):
        fc = CV.frame_curve(CV.parabola().window(1), 20000)
        assert abs(CV.curvature_norms(fc)["sup"] - 2.0) <= 1e-6

    def test_parabola_turning_angle(self):
        fc = CV.frame_curve(CV.parabola().window(1), 20000)
        n = CV.curvature_norms(fc)
        assert abs(n["l1"] + n["tail"] - math.pi) <= 1e-4
        Y = CV.yvector(fc)
        assert abs(Y[0] + n["tail"] - math.pi) <= 1e-4
        assert abs(Y[1]) <= 1e-10

    def test_line_zero(self):
        fc = CV.frame_curve(CV.line().window(10), 64)
        n = CV.curvature_norms(fc)
        assert n["sup"] == 0.0 and abs(n["l1"]) <= 1e-12 and n["tail"] == 0.0

    def test_tail_missing_flag(self):
        fc = CV.frame_curve(CV.circle(1.0).window(1), 64)
        assert CV.curvature_norms(fc)["tail_missing"] is True

    def test_sbend_odd_cancellation(self):
        fc = CV.frame_curve(CV.sbend().window(6), 4000)
        assert np.linalg.norm(CV.yvector(fc)) <= 1e-8

    def test_rotation(self):
        Yth = CV.yvector_theta(np.array([np.pi, 0.0]), np.pi / 2)
        assert np.abs(Yth - [0.0, np.pi]).max() <= 1e-14


class TestThetaStar:
    def test_diagonal(self):
        assert abs(CV.theta_star((1, 1), (np.pi, 0)) - np.pi / 4) <= 1e-14

    def test_aligned(self):
        assert CV.theta_star((1, 0), (1, 0)) == 0.0

    def test_random_alignment(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            X = rng.standard_normal(2)
            Y = rng.standard_normal(2)
            th = CV.theta_star(X, Y)
            assert 0.0 <= th < 2 * np.pi
            val = X @ (CV.rotation(th) @ Y)
            assert abs(val - np.linalg.norm(X) * np.linalg.norm(Y)) <= 1e-12

    def test_zero_vector(self):
        with pytest.raises(UndefinedAngleError):
            CV.theta_star((0, 0), (1, 0))

    @settings(max_examples=200, deadline=None)
    @given(X=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
           Y=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
    def test_rotated_y_parallel_to_x(self, X, Y):
        X, Y = np.array(X), np.array(Y)
        nx, ny = np.linalg.norm(X), np.linalg.norm(Y)
        assume(nx > 1e-6 and ny > 1e-6)
        Yr = CV.rotation(CV.theta_star(X, Y)) @ Y
        assert abs(np.linalg.norm(Yr) - ny) <= 1e-14 * ny
        assert abs(X[0] * Yr[1] - X[1] * Yr[0]) <= 1e-13 * nx * ny
        assert X @ Yr > 0.0


class TestAdmissibility:
    def test_ok(self):
        a = CV.admissibility(1.0, 0.04)
        assert a.ok and abs(a.det_lo - 0.96) < 1e-15 and abs(a.det_hi - 1.04) < 1e-15

    def test_not_ok(self):
        assert not CV.admissibility(1.0, 2.0).ok

    def test_straight_limit(self):
        a = CV.admissibility(0.0, 5.0)
        assert a.ok and a.det_lo == 1.0 and a.det_hi == 1.0

    @settings(max_examples=100, deadline=None)
    @given(j=st.integers(-20, 20), k=st.integers(1, 53))
    def test_flips_exactly_at_one(self, j, k):
        # powers of two keep the products exact: b * kappa_sup = 1 - 2^-k
        b = 2.0**j
        below = CV.admissibility(b, (1.0 - 2.0**-k) / b)
        assert below.ok and below.det_lo == 2.0**-k
        at = CV.admissibility(b, 1.0 / b)
        assert not at.ok and at.det_lo == 0.0

    @settings(max_examples=200, deadline=None)
    @given(b=st.floats(1e-3, 1e3), x=st.floats(0.5, 1.0))
    def test_ok_iff_product_below_one(self, b, x):
        kappa_sup = x / b
        a = CV.admissibility(b, kappa_sup)
        assert a.ok == (b * kappa_sup < 1.0)
        assert a.det_lo == 1.0 - b * kappa_sup and (a.det_lo > 0.0) == a.ok


@pytest.fixture(scope="module")
def parabola_w50():
    return CV.frame_curve(CV.parabola().window(50), 20000)


class TestScaleFamily:
    @pytest.fixture()
    def fc(self, parabola_w50):
        return parabola_w50

    def test_identity(self, fc):
        sf = CV.scale_family(fc, 1.0)
        n = CV.curvature_norms(fc)
        assert sf["sup"] == n["sup"] and sf["l1"] == n["l1"]

    def test_half(self, fc):
        sf = CV.scale_family(fc, 0.5)
        assert abs(sf["sup"] - 0.5 * fc.kappa.max()) <= 1e-14
        assert abs(sf["l1"] + sf["tail"] - math.pi) <= 0.05
        assert np.abs(sf["Y"] - CV.yvector(fc)).max() == 0.0

    def test_direct_recompute(self, fc):
        # gamma_delta(s) = gamma(delta s)/delta reproduces the scaled norms
        d = 0.5
        base = CV.parabola()
        scaled = CV.ParamCurve(
            gamma=lambda t: base.gamma(np.asarray(t) * d) / d,
            dgamma=lambda t: base.dgamma(np.asarray(t) * d),
            ddgamma=lambda t: base.ddgamma(np.asarray(t) * d) * d,
            t0=-50 / d, t1=50 / d,
        )
        fcd = CV.frame_curve(scaled, 20000)
        sf = CV.scale_family(fc, d)
        nd = CV.curvature_norms(fcd)
        assert abs(sf["sup"] - nd["sup"]) <= 1e-6
        assert abs(sf["l1"] - nd["l1"]) <= 1e-6
        assert np.abs(sf["Y"] - CV.yvector(fcd)).max() <= 1e-6

    def test_bad_delta(self, fc):
        with pytest.raises(ValueError):
            CV.scale_family(fc, 1.5)


class TestFromSamples:
    def test_too_few(self):
        with pytest.raises(StepSizeError):
            CV.from_samples([0, 1, 2], np.zeros((3, 3)))

    def test_spline_roundtrip(self):
        t = np.linspace(0, 2, 60)
        pts = np.column_stack([t, t**2, np.zeros_like(t)])
        curve = CV.from_samples(t, pts)
        arc = CV.arclength_resample(curve, 64)
        oracle = adaptive_simpson(lambda x: math.sqrt(1 + 4 * x * x), 0, 2)
        assert abs(arc.total_length - oracle) < 1e-5
