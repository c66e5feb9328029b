import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wgspec import conditions as CN
from wgspec.curves import rotation, theta_star
from wgspec.errors import HypothesisViolationError, InadmissibleGeometryError


class TestGap:
    def test_forced_value(self):
        assert abs(CN.gap_a0(math.pi**2, CN.Medium(1, 1)) - math.pi) <= 1e-15

    def test_quarter(self):
        assert abs(CN.gap_a0(0.25, CN.Medium(1, 1)) - 0.5) <= 1e-15

    def test_medium_speed(self):
        m = CN.Medium(eps0=0.25, mu0=1.0)  # c = 2
        assert abs(CN.gap_a0(math.pi**2 / 4, m) - math.pi) <= 1e-14

    def test_bad_medium(self):
        with pytest.raises(ValueError):
            CN.Medium(eps0=-1.0)


class TestTrappedCondition:
    def test_triangle_parabola_scaled(self):
        # triangle section, parabola bent at scale 0.02, frame aligned
        X = np.array([1.0, 1.0])
        Y = np.array([math.pi, 0.0])
        Yth = rotation(theta_star(X, Y)) @ Y
        tc = CN.trapped_condition(X, Yth, math.pi**2, 1.0, 0.04, math.pi)
        assert abs(tc.lhs - math.sqrt(2) * math.pi) <= 1e-12
        rhs_oracle = 2 * math.pi**2 * (0.04 / 0.96) * math.pi
        assert abs(tc.rhs - rhs_oracle) <= 1e-12
        assert tc.holds

    def test_straight_curve(self):
        tc = CN.trapped_condition((0, 0), (0, 0), math.pi**2, 1.0, 0.0, 0.0)
        assert tc.rhs == 0.0 and tc.lhs == 0.0
        assert not tc.holds and tc.boundary_case

    def test_zero_x(self):
        tc = CN.trapped_condition((0, 0), (math.pi, 0), 0.25, 1.0, 0.1, math.pi)
        assert tc.lhs == 0.0 and not tc.holds

    def test_inadmissible(self):
        with pytest.raises(InadmissibleGeometryError):
            CN.trapped_condition((1, 0), (1, 0), 1.0, 1.0, 2.0, 1.0)

    def test_eps0_variant(self):
        base = CN.trapped_condition((1, 1), (1, 0), 1.0, 0.5, 0.5, 1.0)
        alt = CN.trapped_condition((1, 1), (1, 0), 1.0, 0.5, 0.5, 1.0,
                                   eps0_in_rhs=True, eps0=2.0)
        assert abs(alt.rhs - base.rhs / 2.0) <= 1e-15

    def test_rhs_monotone_in_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            b = rng.uniform(0.1, 1.0)
            ks = rng.uniform(0.01, 0.8 / b)
            kl = rng.uniform(0.1, 5.0)
            lam = rng.uniform(0.5, 10.0)
            base = CN.trapped_condition((1, 0), (1, 0), lam, b, ks, kl).rhs
            assert CN.trapped_condition((1, 0), (1, 0), lam, b * 1.01, ks, kl).rhs > base
            assert CN.trapped_condition((1, 0), (1, 0), lam, b, ks * 1.01, kl).rhs > base
            assert CN.trapped_condition((1, 0), (1, 0), lam, b, ks, kl * 1.01).rhs > base


class TestDeltaStar:
    def test_triangle_parabola_value(self):
        ds = CN.delta_star((1, 1), (math.pi, 0), math.pi**2, 1.0, 2.0, math.pi)
        ref = math.sqrt(2) * math.pi / ((math.sqrt(2) * math.pi + 2 * math.pi**3) * 2)
        assert abs(ds - ref) <= 1e-12

    def test_clamped_at_one(self):
        ds = CN.delta_star((1e9, 0), (1e9, 0), 1.0, 0.5, 0.5, 1.0)
        assert ds == 1.0

    def test_random_scaling_consistency(self):
        # every delta below the threshold satisfies the scaled inequality
        rng = np.random.default_rng(9)
        for _ in range(20):
            X = rng.uniform(0.2, 2.0, 2)
            Y = rng.uniform(0.2, 2.0, 2)
            lam = rng.uniform(0.3, 12.0)
            b = rng.uniform(0.2, 1.5)
            ks = rng.uniform(0.2, 4.0)
            kl = rng.uniform(0.2, 4.0)
            ds = CN.delta_star(X, Y, lam, b, ks, kl)
            Yth = rotation(theta_star(X, Y)) @ Y
            for d in np.linspace(0, min(ds, 0.999 / (b * ks)), 12)[1:-1]:
                tc = CN.trapped_condition(X, Yth, lam, b, d * ks, kl)
                assert tc.holds

    def test_margin_vanishes_at_threshold(self):
        X = np.array([1.0, 1.0])
        Y = np.array([math.pi, 0.0])
        ds = CN.delta_star(X, Y, math.pi**2, 1.0, 2.0, math.pi)
        assert ds < 1.0
        Yth = rotation(theta_star(X, Y)) @ Y
        tc = CN.trapped_condition(X, Yth, math.pi**2, 1.0, 2.0 * ds, math.pi)
        assert abs(tc.lhs - tc.rhs) <= 1e-10 * tc.lhs


class TestSNormBound:
    def test_quarter_point(self):
        # dense-scan oracle of the no-twist envelope
        xs = np.linspace(-0.25, 0.25, 1_000_001)
        oracle = _no_twist_envelope(xs).max()
        val = CN.s_norm_bound(1.0, 0.25)
        assert abs(val - 1.0 / 3.0) <= 1e-9
        assert abs(val - oracle) <= 1e-9

    def test_straight(self):
        assert CN.s_norm_bound(1.0, 0.0) == 0.0

    def test_below_one_up_to_half(self):
        for r in np.arange(0.1, 0.5, 0.01):
            assert CN.s_norm_bound(1.0, r) < 1.0
        assert CN.s_norm_bound(1.0, 0.499) < 1.0

    def test_twist_branch_reduces(self):
        for r in (0.1, 0.25, 0.4):
            a = CN.s_norm_bound(1.0, r)
            g = CN.s_norm_bound(1.0, r, twist_dev_sup=1e-15)
            assert abs(a - g) <= 1e-10

    def test_twist_increases_bound(self):
        assert CN.s_norm_bound(1.0, 0.25, twist_dev_sup=0.5) > CN.s_norm_bound(1.0, 0.25)

    @settings(max_examples=200, deadline=None)
    @given(b=st.floats(0.01, 10.0), r=st.floats(0.0, 0.999),
           twist=st.floats(1e-17, 1e3))
    def test_twist_sweep_matches_2d_grid(self, b, r, twist):
        # the sup over the (u, v) rectangle sits on its edge v = b*twist
        grid = 257
        kappa_sup = r / b
        u = np.linspace(-b * kappa_sup, b * kappa_sup, grid)
        v = np.linspace(0.0, b * twist, grid)
        uu, vv = np.meshgrid(u, v, indexing="ij")
        l1, l2, l3 = CN._m_eigenvalues(uu, vv)
        oracle = np.maximum(np.abs(l1), np.maximum(np.abs(l2), np.abs(l3))).max()
        assert CN.s_norm_bound(b, kappa_sup, twist, grid=grid) == oracle


    @settings(max_examples=200, deadline=None)
    @given(b=st.floats(0.01, 10.0), r=st.floats(0.0, 0.999),
           grid=st.sampled_from([2, 3, 257, 4097]))
    def test_no_twist_matches_envelope(self, b, r, grid):
        # the twist sweep at v = 0 against the closed-form envelope on the
        # same grid and at the endpoint r
        kappa_sup = r / b
        rr = b * kappa_sup
        xs = np.linspace(-rr, rr, grid)
        old = max(_no_twist_envelope(xs).max(), _no_twist_envelope(np.array([rr]))[0])
        assert abs(CN.s_norm_bound(b, kappa_sup, grid=grid) - old) <= np.spacing(old)


def _no_twist_envelope(x):
    """Closed-form spectral-norm envelope without twist:
    max(|x|, (x^2 + |x|(2-x)) / (2(1-x)))."""
    return np.maximum(np.abs(x), (x * x + np.abs(x) * (2.0 - x)) / (2.0 * (1.0 - x)))


class TestLocalization:
    def test_interval(self):
        loc = CN.localization(math.pi, 1.0 / 3.0)
        assert abs(loc.interval[0] - 3 * math.pi / 4) <= 1e-14
        assert loc.interval[1] == math.pi
        assert loc.zero_isolated

    def test_degenerate_zero_bound(self):
        loc = CN.localization(1.0, 0.0)
        assert loc.interval == (1.0, 1.0)
        assert "empty interval" in loc.note

    def test_no_conclusion(self):
        loc = CN.localization(1.0, 2.0)
        assert loc.interval is None and not loc.zero_isolated

    def test_lower_edge_decreasing(self):
        vals = [CN.localization(1.0, s).interval[0] for s in np.linspace(0, 0.99, 25)]
        assert (np.diff(vals) < 0).all()


def gaussian_path(A, sigma, phi, width=10.0, n=4001):
    s = np.linspace(-width * sigma, width * sigma, n)
    mag = A * np.exp(-(s**2) / (2 * sigma**2))
    k = np.column_stack([mag * math.cos(phi), mag * math.sin(phi)])
    return s, k


class TestTrialEnergy:
    def test_triangle_parabola_negative_limit(self):
        # arclength path of the parabola bent at scale 0.02: curvature as a
        # function of arclength, whose line integral is the turning angle pi
        X = np.array([1.0, 1.0])
        th = theta_star(X, (math.pi, 0.0))
        t = np.linspace(-4000.0, 4000.0, 400001)
        a = 0.02
        speed = np.sqrt(1 + 4 * a * a * t * t)
        s = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(t))])
        s -= s[len(s) // 2]
        kap = 2 * a / (1 + 4 * a * a * t * t) ** 1.5
        kth = np.column_stack([math.cos(th) * kap, math.sin(th) * kap])
        te = CN.trial_energy(64, X, (s, kth), math.pi**2, 1.0, 0.04, math.pi)
        assert te.limit_bound < 0
        assert te.n_star is not None
        # the limit is the trapping margin scaled by lambda2/(2 mu0); the
        # margin uses the window's turning angle 2*atan(2aT), pi minus tail
        turn = 2 * math.atan(2 * a * 4000.0)
        margin = math.sqrt(2) * turn - 2 * math.pi**2 * (0.04 / 0.96) * math.pi
        assert abs(te.limit_bound + (math.pi**2 / 2) * margin) < 1e-4 * abs(margin)

    def test_orthogonal_x_positive(self):
        s, k = gaussian_path(0.3, 1.0, 0.0)
        X = np.array([0.0, 1.0])  # X . k_theta = 0 pointwise
        for n in (1, 4, 64, 4096):
            te = CN.trial_energy(n, X, (s, k), 2.0, 0.5, 0.3, 0.75)
            assert te.bound > 0.0

    def test_monotone_in_n(self):
        s, k = gaussian_path(0.4, 1.5, 0.3)
        X = np.array([1.0, 0.5])
        prev = None
        for n in [2**j for j in range(4, 14)]:
            te = CN.trial_energy(n, X, (s, k), 1.5, 0.6, 0.4, 1.2)
            if prev is not None:
                assert te.bound <= prev + 1e-12
            prev = te.bound


class TestRectangleClassify:
    def test_squat(self):
        r = CN.rectangle_classify(0.9 * math.pi**2, 1.0, 0.5)
        assert r.verdict == "discrete"

    def test_slightly_tall(self):
        r = CN.rectangle_classify(0.9 * math.pi**2, 1.0, 1.02)
        assert r.verdict == "discrete"

    def test_tall(self):
        r = CN.rectangle_classify(0.9 * math.pi**2, 1.0, 1.2)
        assert r.verdict == "embedded"

    def test_boundary_is_embedded(self):
        h = math.pi / math.sqrt(0.9 * math.pi**2)
        r = CN.rectangle_classify(0.9 * math.pi**2, 1.0, h)
        assert r.verdict == "embedded"

    def test_frequencies_symmetric(self):
        r = CN.rectangle_classify(0.5 * math.pi**2, 1.0, 0.7)
        assert r.eigenfrequencies[0] == -r.eigenfrequencies[1]

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolationError):
            CN.rectangle_classify(1.1 * math.pi**2, 1.0, 0.5)
        with pytest.raises(HypothesisViolationError):
            CN.rectangle_classify(-0.1, 1.0, 0.5)


class TestBuildReport:
    def test_full_report_json(self):
        import json

        rep = CN.build_report(
            X=(1, 1), Y=(math.pi, 0), lambda2=math.pi**2, b=1.0,
            kappa_sup=2.0, kappa_l1=math.pi, delta=0.02,
        )
        d = json.loads(rep.to_json())
        assert d["trapped"]["holds"]
        assert abs(d["delta_star"] - 0.03342753569613838) < 1e-12
        assert d["localization"]["interval"] is not None

    def test_invariant_holds_iff(self):
        rep = CN.build_report(X=(1, 1), Y=(math.pi, 0), lambda2=math.pi**2,
                              b=1.0, kappa_sup=2.0, kappa_l1=math.pi,
                              delta=0.02)
        assert rep.trapped.holds == (rep.trapped.lhs > rep.trapped.rhs)
        assert (rep.localization.interval is not None) == (rep.s_bound < 1.0)
