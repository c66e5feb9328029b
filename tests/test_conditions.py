import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wgspec import conditions as CN
from wgspec.curves import rotation, theta_star
from wgspec.errors import InadmissibleGeometryError


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


@pytest.mark.parametrize("call, message", [
    (lambda: CN.gap_a0(-1.0), "lambda2 must be nonnegative"),
    (lambda: CN.delta_star((1, 1), (math.pi, 0), math.pi**2, 0.0, 2.0, math.pi),
     "b and kappa_sup must be positive"),
    (lambda: CN.delta_star((1, 1), (math.pi, 0), math.pi**2, -1.0, 2.0, math.pi),
     "b and kappa_sup must be positive"),
    (lambda: CN.localization(1.0, -0.5), "s_bound must be nonnegative"),
], ids=["gap_a0", "delta_star b = 0", "delta_star b < 0", "localization"])
def test_out_of_range_inputs_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
    @example(b=0.5, r=2.220446049250313e-16, twist=1.0)
    def test_twist_sweep_matches_2d_grid(self, b, r, twist):
        # the sup over the (u, v) rectangle sits on its edge v = b*twist
        grid = 257
        kappa_sup = r / b
        u = np.linspace(-b * kappa_sup, b * kappa_sup, grid)
        v = np.linspace(0.0, b * twist, grid)
        uu, vv = np.meshgrid(u, v, indexing="ij")
        l1, l2, l3 = CN._m_eigenvalues(uu, vv)
        oracle = np.maximum(np.abs(l1), np.maximum(np.abs(l2), np.abs(l3))).max()
        assert CN.s_norm_bound(b, kappa_sup, twist) == oracle


    @settings(max_examples=200, deadline=None)
    @given(b=st.floats(0.01, 10.0), r=st.floats(0.0, 0.999),
           grid=st.sampled_from([2, 3, 257, 4097]))
    @example(b=1.0, r=1.5330121522432028e-155, grid=2)  # u^2 is subnormal
    def test_no_twist_matches_envelope(self, b, r, grid):
        # the twist sweep at v = 0 against the closed-form envelope on the
        # same grid and at the endpoint r
        kappa_sup = r / b
        rr = b * kappa_sup
        xs = np.linspace(-rr, rr, grid)
        old = max(_no_twist_envelope(xs).max(), _no_twist_envelope(np.array([rr]))[0])
        assert abs(CN.s_norm_bound(b, kappa_sup) - old) <= np.spacing(old)


class TestAdmissibilityGate:
    @settings(max_examples=100, deadline=None)
    @given(j=st.integers(-20, 20), k=st.integers(1, 53))
    def test_raises_exactly_at_one(self, j, k):
        # powers of two keep the products exact: b * kappa_sup = 1, 1 - 2^-k
        b = 2.0**j
        with pytest.raises(InadmissibleGeometryError):
            CN.s_norm_bound(b, 1.0 / b)
        with pytest.raises(InadmissibleGeometryError):
            CN.trapped_condition((1, 0), (1, 0), 1.0, b, 1.0 / b, 1.0)
        below = (1.0 - 2.0**-k) / b
        assert math.isfinite(CN.s_norm_bound(b, below, twist_dev_sup=1.0 / b))
        assert math.isfinite(
            CN.trapped_condition((1, 0), (1, 0), 1.0, b, below, 1.0).rhs)


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
