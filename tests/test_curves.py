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


def _four_panel_arclength(curve, N):
    """Node arclengths on N equal parameter steps by composite 5-point Gauss
    quadrature of |gamma'| over four panels per step."""
    x, w = np.polynomial.legendre.leggauss(5)
    edges = np.linspace(curve.t0, curve.t1, 4 * N + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    speed = np.linalg.norm(curve.dgamma((mid[:, None] + half[:, None] * x).ravel()), axis=1)
    panel = (speed.reshape(-1, 5) * w).sum(axis=1) * half
    return np.concatenate([[0.0], np.cumsum(panel)])[::4]


def _parabola_arclength(t):
    """Arclength of (t, t^2) from its apex, signed."""
    return 0.5 * t * np.sqrt(1.0 + 4.0 * t * t) + 0.25 * np.arcsinh(2.0 * t)


class TestArclengthResample:
    def test_line_grid(self):
        arc = CV.arclength_resample(CV.line().window(5), 64)
        assert np.abs(arc.s - (arc.t + 5.0)).max() <= 1e-12

    def test_quarter_circle(self):
        c = CV.circle(2.0)
        quarter = CV.ParamCurve(c.dgamma, c.ddgamma, 0.0, np.pi / 2)
        arc = CV.arclength_resample(quarter, 64)
        assert abs(arc.s[-1] - np.pi) <= 1e-10

    def test_parabola_vs_adaptive_simpson(self):
        oracle = adaptive_simpson(lambda t: math.sqrt(1 + 4 * t * t), -10, 10)
        arc = CV.arclength_resample(CV.parabola().window(10), 256)
        assert abs(arc.s[-1] - oracle) <= 1e-8

    def test_node_arclengths_vs_adaptive_simpson(self):
        # the nodes sit at equally spaced parameters; s is the arclength
        # from the window start
        arc = CV.arclength_resample(CV.parabola().window(3), 128)
        speed = lambda t: math.sqrt(1 + 4 * t * t)
        assert np.array_equal(arc.t, np.linspace(-3, 3, 129))
        for j in (1, 17, 64, 100, 128):
            oracle = adaptive_simpson(speed, -3.0, arc.t[j])
            assert abs(arc.s[j] - oracle) <= 1e-9

    def test_singular(self):
        bad = CV.ParamCurve(
            dgamma=lambda t: np.column_stack([np.asarray(t) ** 6, 0 * np.asarray(t), 0 * np.asarray(t)]),
            ddgamma=lambda t: np.column_stack([6 * np.asarray(t) ** 5, 0 * np.asarray(t), 0 * np.asarray(t)]),
            t0=-1.0, t1=1.0,
        )
        with pytest.raises(SingularParametrizationError):
            CV.arclength_resample(bad, 32)

    def test_singular_at_a_node_only(self):
        # |gamma'| = |t| is >= 7e-4 at every quadrature point but 0 at the
        # node t = 0, where the tangent would be 0/0
        z = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        bad = CV.ParamCurve(
            dgamma=lambda t: np.column_stack([np.abs(t), z(t), z(t)]),
            ddgamma=lambda t: np.column_stack([np.sign(t), z(t), z(t)]),
            t0=-1.0, t1=1.0,
        )
        with pytest.raises(SingularParametrizationError, match="node"):
            CV.arclength_resample(bad, 32)

    @pytest.mark.parametrize("half", [0.0, -1.0, math.inf, math.nan])
    def test_window_must_be_positive_and_finite(self, half):
        with pytest.raises(ValueError, match="half-width"):
            CV.parabola().window(half)

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            CV.arclength_resample(CV.line(), 8)

    @pytest.mark.parametrize("R, p", [(1.0, 0.5), (0.8, 0.8), (0.7, -0.9)])
    def test_helix_closed_form(self, R, p):
        # constant speed c = sqrt(R^2 + p^2): s = c (t - t0)
        arc = CV.arclength_resample(CV.helix(R, p).window(4 * np.pi), 20000)
        ref = math.hypot(R, p) * (arc.t - arc.t[0])
        assert np.abs(arc.s - ref).max() <= 1e-12 * arc.s[-1]

    def test_parabola_closed_form(self):
        arc = CV.arclength_resample(CV.parabola().window(50), 20000)
        ref = _parabola_arclength(arc.t) - _parabola_arclength(arc.t[0])
        assert np.abs(arc.s - ref).max() <= 1e-12 * arc.s[-1]

    def test_gauss_rule_is_leggauss(self):
        # the literals are leggauss(5)'s own output, to the last bit
        x, w = np.polynomial.legendre.leggauss(5)
        assert np.array_equal(_bits(CV._GAUSS_X), _bits(x))
        assert np.array_equal(_bits(CV._GAUSS_W), _bits(w))

    @pytest.mark.parametrize("half", [1e308, 9e307])
    def test_window_without_a_finite_step(self, half):
        # the window is finite, its width 2 half is not
        with pytest.raises(SingularParametrizationError, match="no finite grid step"):
            CV.arclength_resample(CV.line().window(half), 20000)

    @pytest.mark.parametrize("curve", [CV.parabola().window(1e160),
                                       CV.helix(1e200, 0.5).window(1.0)],
                             ids=["parabola-1e160", "helix-R-1e200"])
    def test_speed_past_the_largest_double(self, curve):
        # |gamma'|^2 overflows: one typed error, no numpy warning, which
        # the test configuration would turn into an error of its own
        with pytest.raises(SingularParametrizationError, match="= inf"):
            CV.arclength_resample(curve, 20000)

    def test_sbend_far_out_without_warnings(self):
        # s^2 overflows past |s| ~ 1.3e154, where exp(-s^2) is 0: the
        # straight arms, reached without a numpy warning
        curve = CV.sbend()
        s = np.array([-1e200, 1e200])
        d1, d2 = curve.dgamma(s), curve.ddgamma(s)
        assert np.array_equal(d1, [[math.cos(0.5), math.sin(0.5), 0.0]] * 2)
        assert np.array_equal(d2, np.zeros((2, 3)))

    @pytest.mark.parametrize("N", [4000, 20000])
    def test_spline_matches_four_panels_per_step(self, N):
        t = np.linspace(0.0, 4.0, 41)
        curve = CV.from_samples(t, np.column_stack([np.cos(2 * t), np.sin(2 * t), 0.3 * t]))
        arc = CV.arclength_resample(curve, N)
        ref = _four_panel_arclength(curve, N)
        assert np.abs(arc.s - ref).max() <= 1e-12 * arc.s[-1]


def _bits(a):
    """The bit patterns of a float array: equal ones are equal values with
    equal signed zeros, which the CSV and JSON reports print."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _samples(columns):
    """A spline through 41 samples over t in [0, 4] of the given columns."""
    t = np.linspace(0.0, 4.0, 41)
    return CV.from_samples(t, np.column_stack([f(t) for f in columns]))


# curves by kind from (radius, pitch, scale, half): the built-ins, and a
# spline through samples of a helix and of a circle
_KINDS = {
    "line": lambda R, p, a, h: CV.line().window(h),
    "circle": lambda R, p, a, h: CV.circle(R).window(h),
    "helix": lambda R, p, a, h: CV.helix(R, p).window(h),
    "parabola": lambda R, p, a, h: CV.parabola(a).window(4 * h),
    "sbend": lambda R, p, a, h: CV.sbend().window(h),
    "samples": lambda R, p, a, h: _samples([lambda t: np.cos(R * t),
                                            lambda t: np.sin(R * t),
                                            lambda t: p * t]),
    "planar-samples": lambda R, p, a, h: _samples([lambda t: np.cos(R * t),
                                                   lambda t: np.sin(R * t)]),
}
_PLANAR = {"line", "circle", "parabola", "sbend", "planar-samples"}


class TestComponentMajorKernels:
    """arclength_resample, rapf, _frame_defect and _closed_form_kappa on
    (3, n) arrays against the (n, 3) row formulas of tests/conftest.py.
    Planar curves add at most two nonzero terms in each dot product, so
    their results agree to the bit, signed zeros included; 3-D curves
    agree to 1e-13 relative, and to the bit where the row dots sum in the
    kernels' order."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(sorted(_KINDS)),
        radius=st.floats(0.2, 3.0),
        pitch=st.floats(-2.0, 2.0),
        scale=st.floats(-3.0, 3.0),
        half=st.floats(0.5, 4 * math.pi),
        N=st.integers(16, 4000),
    )
    def test_match_the_row_formulas(self, row_frame, kind, radius, pitch, scale,
                                    half, N):
        curve = _KINDS[kind](radius, pitch, scale, half)
        ref = row_frame(curve, N)
        assume(ref["turn"].max() <= CV.MAX_STEP_TURN)
        arc = CV.arclength_resample(curve, N)
        fc = CV.rapf(arc)
        assert curve.dgamma(arc.t).shape == curve.ddgamma(arc.t).shape == (N + 1, 3)
        for v in (arc.tangent, arc.dtangent, fc.e1, fc.e2, fc.e3):
            assert v.shape == (N + 1, 3) and v.T.flags.c_contiguous
        got = {name: getattr(arc, name) for name in ("s", "panel", "t", "tangent", "dtangent")}
        got.update({name: getattr(fc, name) for name in ("e2", "e3", "k1", "k2", "kappa")})
        got["defect"] = CV._frame_defect(fc.e1.T, fc.e2.T, fc.e3.T)
        got["closed_form_kappa"] = CV._closed_form_kappa(curve, arc.t)
        got["stored defect"], ref["stored defect"] = fc.defect, ref["defect"].max()
        got["summed turns"], ref["summed turns"] = fc.turn, ref["turn"].sum()
        for name, value in got.items():
            if kind in _PLANAR:
                assert np.array_equal(_bits(value), _bits(ref[name])), name
            else:
                size = max(1.0, float(np.abs(ref[name]).max()))
                assert np.abs(value - ref[name]).max() <= 1e-13 * size, name


def _scan_oracle(arc, e2_0):
    """The transverse frame (e2, e3) as running products of the minimal
    rotations R_j = H(T_{j+1}) H(T_j + T_{j+1}), H(v) = I - 2 v v^T / (v . v),
    formed as (N, 3, 3) matrices in a log2(N) doubling scan, applied to e2_0
    and re-orthonormalized once against the tangent."""
    T = arc.tangent

    def reflections(v):
        vn = v / np.linalg.norm(v, axis=1)[:, None]
        return np.eye(3) - 2.0 * vn[:, :, None] * vn[:, None, :]

    P = np.empty((len(T), 3, 3))
    P[0] = np.eye(3)
    P[1:] = reflections(T[1:]) @ reflections(T[:-1] + T[1:])
    k = 1
    while k < len(P):
        P[k:] = P[k:] @ P[:-k]
        k *= 2
    e2 = P @ e2_0
    e2 = e2 - (e2 * T).sum(axis=1)[:, None] * T
    e2 /= np.linalg.norm(e2, axis=1)[:, None]
    return e2, np.cross(T, e2)


def _assert_matches_scan(arc, phi):
    # start from the default frame turned by phi about T_0
    a2, a3 = CV.default_transverse_frame(arc.tangent[0])
    e2_0 = math.cos(phi) * a2 + math.sin(phi) * a3
    e3_0 = -math.sin(phi) * a2 + math.cos(phi) * a3
    fc = CV.rapf(arc, e2_0, e3_0)
    e2, e3 = _scan_oracle(arc, e2_0)
    dT = arc.dtangent
    k1, k2 = (dT * e2).sum(axis=1), (dT * e3).sum(axis=1)
    for name, ref in (("e2", e2), ("e3", e3), ("k1", k1), ("k2", k2)):
        assert np.abs(getattr(fc, name) - ref).max() <= 1e-12, name
    # Y integrates the node differences over the arclength: they add up to
    # at most their max times the curvature's L1 norm, |Y|'s own bound.  The
    # reference sums the step lengths exactly, as yvector's quadrature does:
    # differences of the running sum s would add rounding of order eps s
    def trapezoid(f):
        return math.fsum(arc.panel * (f[:-1] + f[1:]) / 2.0)

    Y = np.array([trapezoid(k1), trapezoid(k2)])
    scale = max(1.0, float(np.trapezoid(fc.kappa, arc.s)))
    assert np.abs(CV.yvector(fc) - Y).max() <= 1e-12 * scale


class TestAngleTransportVsScan:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["helix", "parabola", "sbend"]),
        radius=st.floats(0.2, 3.0),
        pitch=st.floats(-2.0, 2.0),
        scale=st.floats(-3.0, 3.0),
        half=st.floats(0.5, 4 * math.pi),
        N=st.integers(16, 4000),
        phi=st.floats(0.0, 2 * math.pi),
    )
    def test_matches_the_doubling_scan(self, kind, radius, pitch, scale, half, N, phi):
        curve = {"helix": lambda: CV.helix(radius, pitch).window(half),
                 "parabola": lambda: CV.parabola(scale).window(4 * half),
                 "sbend": lambda: CV.sbend().window(half)}[kind]()
        arc = CV.arclength_resample(curve, N)
        T = arc.tangent
        assume(np.arccos(np.clip((T[:-1] * T[1:]).sum(axis=1), -1, 1)).max()
               <= CV.MAX_STEP_TURN)
        _assert_matches_scan(arc, phi)

    @pytest.mark.parametrize("curve", [CV.parabola().window(50),
                                       CV.helix(0.8, 0.5).window(4 * np.pi),
                                       CV.helix(1.2, 0.8).window(4 * np.pi),
                                       CV.sbend().window(6)],
                             ids=["parabola", "helix-low", "helix-high", "sbend"])
    def test_benchmark_curves(self, curve):
        _assert_matches_scan(CV.arclength_resample(curve, 20000), 0.0)


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
        assert np.abs(fc.kappa - kap).max() <= 1e-12

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
        # one step of this grid turns the tangent by 1.26 rad > MAX_STEP_TURN
        arc = CV.arclength_resample(CV.parabola().window(50), 64)
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

    @pytest.mark.parametrize("curve", [CV.parabola().window(50),
                                       CV.helix(1.0, 0.5).window(6)])
    def test_defect_is_the_returned_frames(self, curve):
        # the drift gate measures the frame rapf returns, so the stored
        # defect is the one recomputed from it
        fc = CV.frame_curve(curve, 4000)
        assert fc.orthonormality_defect() == CV._frame_defect(fc.e1.T, fc.e2.T, fc.e3.T).max()

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
        ref = 2.0 / (1.0 + 4.0 * fc.t**2) ** 1.5  # signed curvature of (t, t^2)
        assert np.abs(fc.k1 - ref).max() <= 1e-12

    def test_kappa_matches_arclength_second_derivative(self):
        # sbend is arclength-parametrized, so kappa = |gamma''|
        curve = CV.sbend().window(4)
        fc = CV.frame_curve(curve, 8000)
        ref = np.linalg.norm(curve.ddgamma(fc.t), axis=1)
        assert np.abs(fc.kappa - ref).max() <= 1e-12


class TestNormsAndY:
    def test_parabola_sup(self):
        fc = CV.frame_curve(CV.parabola().window(1), 20000)
        assert abs(CV.curvature_norms(fc)["sup"] - 2.0) <= 1e-12

    @pytest.mark.parametrize("N", [4000, 20000, 20001])
    def test_sbend_sup_between_nodes(self, N):
        # the peak s = 1/sqrt(2) of |kappa| = |s| exp(-s^2) is no node: the
        # node values read low, the closed form's maximum does not
        curve = CV.sbend().window(6)
        fc = CV.frame_curve(curve, N)
        ref = math.exp(-0.5) / math.sqrt(2.0)
        assert fc.kappa.max() < ref - 1e-10
        assert abs(CV.curvature_norms(fc)["sup"] - ref) <= 1e-12

    @pytest.mark.parametrize("curve", [CV.parabola().window(1),
                                       CV.helix(1.0, 0.5).window(6),
                                       CV.circle(2.0).window(1)])
    def test_sup_at_a_node_stands(self, curve):
        fc = CV.frame_curve(curve, 4000)
        assert CV.curvature_norms(fc)["sup"] == fc.kappa.max()

    def test_sup_of_a_circle_arc_far_from_unit_scale(self):
        # the circle arc of the console-script samples, scaled by 1e110:
        # |gamma' x gamma''|^2 and |gamma'|^3 overflowed, the search between
        # nodes dropped its NaN samples, and numpy warned (an error here)
        t = np.linspace(0.0, 2.0, 41)
        arc = np.column_stack([np.cos(t), np.sin(t)])
        unit = CV.frame_curve(CV.from_samples(t, arc), 20000).kappa_sup
        far = CV.frame_curve(CV.from_samples(t, 1e110 * arc), 20000).kappa_sup
        assert abs(far - 1e-110 * unit) <= 1e-12 * 1e-110 * unit

    @pytest.mark.parametrize("curve", [CV.parabola().window(50), CV.sbend().window(6),
                                       CV.helix(1.0, 0.5).window(4 * math.pi)],
                             ids=["parabola", "sbend", "helix"])
    def test_closed_form_is_the_cubed_form_at_unit_scale(self, curve):
        # |u x gamma''| / |gamma'|^2 differs from |gamma' x gamma''| / |gamma'|^3
        # at rounding only where neither overflows
        t = np.linspace(curve.t0, curve.t1, 20001)
        d1, d2 = curve.dgamma(t), curve.ddgamma(t)
        n = np.cross(d1, d2)
        cubed = np.sqrt((n * n).sum(axis=1)) / (d1 * d1).sum(axis=1) ** 1.5
        assert np.abs(CV._closed_form_kappa(curve, t) - cubed).max() <= 2e-15 * cubed.max()

    def test_bare_rapf_has_no_sup(self):
        fc = CV.rapf(CV.arclength_resample(CV.sbend().window(6), 4000))
        with pytest.raises(ValueError, match="kappa_sup"):
            CV.curvature_norms(fc)

    def test_parabola_turning_angle(self):
        fc = CV.frame_curve(CV.parabola().window(1), 20000)
        n = CV.curvature_norms(fc)
        assert abs(n["l1"] + n["tail"] - math.pi) <= 1e-7
        Y = CV.yvector(fc)
        assert abs(Y[0] + n["tail"] - math.pi) <= 1e-7
        assert abs(Y[1]) <= 1e-10

    def test_parabola_l1_closed_form(self, parabola_w50):
        # the window [-50, 50] turns the tangent by 2 atan(100); the
        # trapezoid error on the h = 0.005 parameter grid is 2.0e-5
        n = CV.curvature_norms(parabola_w50)
        assert abs(n["l1"] - 2.0 * math.atan(100.0)) <= 5e-5
        assert abs(CV.yvector(parabola_w50)[0] - n["l1"]) <= 1e-12

    def test_integrals_sum_the_step_lengths(self, parabola_w50):
        # the default parabola, s up to 5003: differences of the running
        # sum s would move kappa_l1 and Y[0] by 2-7e-12
        fc = parabola_w50
        assert np.array_equal(np.cumsum(fc.panel), fc.s[1:])
        n = CV.curvature_norms(fc)

        def fsum(f):
            return math.fsum(fc.panel * (f[:-1] + f[1:]) / 2.0)

        for got, f in [(n["l1"], fc.kappa), *zip(CV.yvector(fc), (fc.k1, fc.k2))]:
            assert abs(got - fsum(f)) <= 1e-14 * n["l1"]

    def test_line_zero(self):
        fc = CV.frame_curve(CV.line().window(10), 64)
        n = CV.curvature_norms(fc)
        assert n["sup"] == 0.0 and abs(n["l1"]) <= 1e-12 and n["tail"] == 0.0

    def test_tail_missing_flag(self):
        fc = CV.frame_curve(CV.circle(1.0).window(1), 64)
        assert CV.curvature_norms(fc)["tail_missing"] is True

    @pytest.mark.parametrize("t0, t1", [(-6, 6), (-1, 2), (0.5, 3), (-3, -0.5), (0, 0.1)])
    def test_sbend_tail_vs_quad(self, t0, t1):
        from scipy.integrate import quad

        f = lambda s: abs(s) * math.exp(-s * s)
        ref = quad(f, -np.inf, t0)[0] + quad(f, t1, np.inf)[0]
        assert abs(CV.sbend().kappa_l1_tail(t0, t1) - ref) <= 1e-12

    @pytest.mark.parametrize("t0, t1", [(-50, 50), (-1, 2), (0.5, 3), (-3, -0.5)])
    @pytest.mark.parametrize("a", [1.0, 0.3, 2.0])
    def test_parabola_tail_even_in_scale(self, a, t0, t1):
        tail = CV.parabola(a).kappa_l1_tail
        assert tail(t0, t1) == CV.parabola(-a).kappa_l1_tail(t0, t1)
        # the L1 norm is the turning angle on the whole line, pi
        l1 = abs(math.atan(2 * a * t1) - math.atan(2 * a * t0))
        assert abs(tail(t0, t1) + l1 - math.pi) <= 1e-14

    def test_straight_parabola_has_no_tail(self):
        assert CV.parabola(0.0).kappa_l1_tail(-50, 50) == 0.0

    def test_summed_turns_bound_the_l1_norm(self, parabola_w50):
        # the turn of a step is the great-circle distance between its end
        # tangents, no longer than the tangent's path: on the parabola the
        # window's integral of kappa is 2 atan(100), on the helix kappa times
        # the length
        assert parabola_w50.turn <= 2.0 * math.atan(100.0)
        fc = CV.frame_curve(CV.helix(1.0, 0.5).window(6), 400)
        assert fc.turn <= 0.8 * fc.s[-1]

    @pytest.mark.parametrize("half", [1e3, 1e4, 1e5])
    def test_sbend_stepped_over_raises(self, half):
        # N = 20000 steps over the bend at |s| < 3 in turns of at most
        # 0.5 rad < MAX_STEP_TURN, and the trapezoid rule reads kappa_l1 at
        # 0.998, 0.81 and 7e-42 of the summed turns, about 1
        fc = CV.frame_curve(CV.sbend().window(half), 20000)
        assert abs(fc.turn - 1.0) <= 1e-3
        with pytest.raises(StepSizeError, match="increase N"):
            CV.curvature_norms(fc)

    def test_finer_grid_passes_the_l1_gate(self):
        # four times the steps of the case above: the trapezoid error
        # falls 16-fold, and kappa_l1 + tail = 1 to 2e-4
        fc = CV.frame_curve(CV.sbend().window(1e3), 80000)
        n = CV.curvature_norms(fc)
        assert n["l1"] >= (1.0 - CV.KAPPA_L1_TOL) * fc.turn
        assert abs(n["l1"] + n["tail"] - 1.0) <= 2e-4

    def test_sbend_odd_cancellation(self):
        fc = CV.frame_curve(CV.sbend().window(6), 4000)
        assert np.linalg.norm(CV.yvector(fc)) <= 1e-8

    def test_rotation(self):
        Yth = CV.rotation(np.pi / 2) @ np.array([np.pi, 0.0])
        assert np.abs(Yth - [0.0, np.pi]).max() <= 1e-14


class TestCurveParameters:
    @pytest.mark.parametrize("make, name", [
        (lambda v: CV.parabola(v), "parabola scale"),
        (lambda v: CV.circle(v), "circle radius"),
        (lambda v: CV.helix(v, 0.5), "helix radius"),
        (lambda v: CV.helix(1.0, v), "helix pitch"),
    ], ids=["parabola-scale", "circle-radius", "helix-radius", "helix-pitch"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, make, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make(value)


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


@pytest.fixture(scope="module")
def parabola_w50():
    return CV.frame_curve(CV.parabola().window(50), 20000)


def _row_csv(fc):
    """FramedCurve.to_csv as one f-string per row: the reference format."""
    lines = ["s,k1,k2,kappa"]
    for s, k1, k2, ka in zip(fc.s, fc.k1, fc.k2, fc.kappa):
        lines.append(f"{s:.17g},{k1:.17g},{k2:.17g},{ka:.17g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("curve", [CV.parabola().window(50), CV.sbend().window(6),
                                   CV.helix(1.0, 0.5).window(4 * math.pi)],
                         ids=["parabola", "sbend", "helix"])
def test_csv_matches_the_row_format(curve):
    fc = CV.frame_curve(curve, 4000)
    text = fc.to_csv()
    assert text == _row_csv(fc)
    rows = np.array([line.split(",") for line in text.splitlines()[1:]], dtype=float)
    assert np.array_equal(rows, np.column_stack([fc.s, fc.k1, fc.k2, fc.kappa]))


class TestScaleFamily:
    def test_direct_recompute(self, parabola_w50):
        # gamma_delta(s) = gamma(delta s)/delta: sup kappa scales by delta,
        # while the L1 norm and Y stay, as build_report(delta=) assumes
        fc = parabola_w50
        d = 0.5
        base = CV.parabola()
        scaled = CV.ParamCurve(
            dgamma=lambda t: base.dgamma(np.asarray(t) * d),
            ddgamma=lambda t: base.ddgamma(np.asarray(t) * d) * d,
            t0=-50 / d, t1=50 / d,
        )
        fcd = CV.frame_curve(scaled, 20000)
        n, nd = CV.curvature_norms(fc), CV.curvature_norms(fcd)
        assert abs(d * n["sup"] - nd["sup"]) <= 1e-6
        assert abs(n["l1"] - nd["l1"]) <= 1e-6
        assert np.abs(CV.yvector(fc) - CV.yvector(fcd)).max() <= 1e-6


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
        assert abs(arc.s[-1] - oracle) < 1e-5
