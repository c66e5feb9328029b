"""Spectral predictions for the bent/twisted tube: the gap edge, the
trapped-mode sufficient condition, the slightly-curved scaling threshold, and
the metric-perturbation norm bound with its localization interval."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InadmissibleGeometryError, OutsideHypothesesError


@dataclass(frozen=True)
class Medium:
    """Homogeneous isotropic medium; c = 1/sqrt(eps0*mu0)."""

    eps0: float = 1.0
    mu0: float = 1.0

    def __post_init__(self):
        if not (self.eps0 > 0 and self.mu0 > 0):
            raise ValueError("eps0 and mu0 must be positive")

    @property
    def c(self):
        return 1.0 / math.sqrt(self.eps0 * self.mu0)


@dataclass(frozen=True)
class TrappedCondition:
    lhs: float
    rhs: float
    holds: bool
    boundary_case: bool


@dataclass(frozen=True)
class Localization:
    interval: tuple | None
    zero_isolated: bool
    note: str = ""


@dataclass(frozen=True)
class ConditionReport:
    """Everything the toolkit can say about trapping for one geometry."""

    a0: float
    trapped: TrappedCondition
    delta_star: float
    s_bound: float
    localization: Localization
    trial: None = None  # no trial-field energy is computed; check reports keep the key
    inputs: dict = field(default_factory=dict)


def gap_a0(lambda2, medium: Medium = Medium()):
    """Gap edge sqrt(lambda2) * c of the straight reference tube."""
    if lambda2 < 0:
        raise ValueError("lambda2 must be nonnegative")
    return math.sqrt(lambda2) * medium.c


def _check_admissible(b, kappa_sup):
    if b * kappa_sup >= 1.0:
        raise InadmissibleGeometryError(
            f"b*sup(kappa) = {b * kappa_sup:.6g} >= 1: tube map not injective"
        )


def trapped_condition(X, Ytheta, lambda2, b, kappa_sup, kappa_l1,
                      eps0_in_rhs=False, eps0=1.0):
    """Sufficient trapping inequality X.Ytheta > 2*lambda2*b^2*sup*l1/(1-b*sup).

    Strict inequality; exact ties are reported as a boundary case, not a
    pass.  With eps0_in_rhs=True the right-hand side carries an extra 1/eps0
    (the two published forms of the threshold differ by that factor; the
    default follows the theorem-level statement).
    """
    _check_admissible(b, kappa_sup)
    X = np.asarray(X, dtype=float)
    Ytheta = np.asarray(Ytheta, dtype=float)
    lhs = float(X @ Ytheta)
    rhs = 2.0 * lambda2 * b * b * kappa_sup * kappa_l1 / (1.0 - b * kappa_sup)
    if eps0_in_rhs:
        rhs /= eps0
    return TrappedCondition(
        lhs=lhs, rhs=rhs, holds=lhs > rhs, boundary_case=lhs == rhs
    )


def delta_star(X, Y, lambda2, b, kappa_sup, kappa_l1):
    """Scaling threshold: the trapping inequality holds for every scale
    delta below min(|X||Y| / ((|X||Y| + 2 b l1 lambda2) b sup), 1)."""
    if b <= 0 or kappa_sup <= 0:
        raise ValueError("b and kappa_sup must be positive for the threshold")
    xy = float(np.linalg.norm(X) * np.linalg.norm(Y))
    return min(xy / ((xy + 2.0 * b * kappa_l1 * lambda2) * b * kappa_sup), 1.0)


def _m_eigenvalues(u, v):
    """Eigenvalues of the metric-perturbation matrix at k.y = u, |twist dev| |y| = v:
    u and -g -+ sqrt(g (g + 2)), with g = (u^2 + v^2) / (2 (1 - u)).

    Each operation rounds monotonically, so the computed g, and with it
    |lambda2| = g + sqrt(g (g + 2)) >= |lambda3|, never falls as v or u >= 0
    grows and is no larger at -u than at |u| (1 + |u| >= 1 - |u|): on any grid in
    |u| <= r, 0 <= v <= v_max the computed max is the value at (r, v_max)."""
    g = (u * u + v * v) / (2.0 * (1.0 - u))
    root = np.sqrt(g * (g + 2.0))
    return u, -(g + root), root - g


def s_norm_bound(b, kappa_sup, twist_dev_sup=0.0):
    """Upper bound for the metric-perturbation operator norm: the sup of the
    eigenvalue moduli over |u| <= r = b*kappa_sup, 0 <= v <= b*twist_dev_sup,
    attained at (u, v) = (+-r, b*twist_dev_sup), the only points evaluated.

    In v: |lambda1| = |u| does not depend on v, |lambda3| <= |lambda2|, and
    |lambda2| grows with v.  In u: with P = (u, 0), X = (0, v), Y = (2, v)
    q = u^2 + v^2 = |P - X|^2 and |P - Y|^2 - |P - X|^2 = 4 (1 - u),
    |lambda2| = (q + sqrt(q) sqrt((2 - u)^2 + v^2)) / (2 (1 - u))
              = 2 |P - X| / (|P - Y| - |P - X|),
    so |lambda2| <= c exactly where |P - X| <= c/(c + 2) |P - Y|: an
    Apollonius disk, which meets the u-axis in an interval.  The sublevel
    sets of |lambda1| = |u| are intervals too, hence so are those of the max
    of the three, and its sup over [-r, r] sits at an endpoint.

    Without twist deviation sqrt(q) = |u|, and the bound is the closed form
    max(|u|, (u^2 + |u| (2 - u)) / (2 (1 - u))) at u = +-r: no square root,
    so it stays exact where u^2 is subnormal.
    """
    _check_admissible(b, kappa_sup)
    r = b * kappa_sup
    u = np.array([-r, r])
    v = b * twist_dev_sup
    if v == 0.0:
        lam2 = (u * u + np.abs(u) * (2.0 - u)) / (2.0 * (1.0 - u))
    else:
        lam2 = -_m_eigenvalues(u, v)[1]  # |lambda3| <= |lambda2| as computed
    return float(np.maximum(np.abs(u), lam2).max())


def localization(a0, s_bound):
    """Localization interval [a0/(s_bound+1), a0) for gap eigenvalues.

    Only meaningful when the norm bound is < 1; otherwise no conclusion."""
    if s_bound < 0:
        raise ValueError("s_bound must be nonnegative")
    if s_bound >= 1.0:
        return Localization(interval=None, zero_isolated=False,
                            note="norm bound >= 1: no conclusion")
    lo = a0 / (s_bound + 1.0)
    note = ""
    if s_bound == 0.0:
        note = ("empty interval: no discrete spectrum in the open gap "
                "predicted at this bound")
    return Localization(interval=(lo, a0), zero_isolated=True, note=note)


def build_report(X, Y, lambda2, b, kappa_sup, kappa_l1, theta="auto",
                 medium: Medium = Medium(), twist_dev_sup=0.0,
                 eps0_in_rhs=False, delta=None, inputs=None):
    """Assemble the full condition report for one cross-section + curve.

    With delta given, the trapping test, the norm bound and the localization
    run at the scaled sup curvature delta*kappa_sup (the L1 norm and Y are
    scale-invariant), while delta_star always refers to the unscaled family.

    The hypotheses, checked first (OutsideHypothesesError names the input):
    all inputs finite, lambda2, b and delta (when given) positive, kappa_sup,
    kappa_l1 (its tail included) and twist_dev_sup nonnegative, theta a
    number or "auto".  InadmissibleGeometryError if b * delta * kappa_sup >= 1.
    """
    from .curves import rotation, theta_star as _theta_star

    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    for name, v in (("X", X), ("Y", Y), ("theta", 0.0 if theta == "auto" else theta)):
        if not np.isfinite(v).all():
            raise OutsideHypothesesError(f"{name} must be finite, got {v!r}")
    scalars = {"lambda2": lambda2, "b": b, "kappa_sup": kappa_sup,
               "kappa_l1": kappa_l1, "twist_dev_sup": twist_dev_sup}
    if delta is not None:
        scalars["delta"] = delta
    for name, value in scalars.items():
        positive = name in ("lambda2", "b", "delta")
        if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
            raise OutsideHypothesesError(
                f"{name} must be {'positive' if positive else 'nonnegative'} "
                f"and finite, got {float(value)!r}")
    if theta == "auto":
        if np.linalg.norm(X) > 0 and np.linalg.norm(Y) > 0:
            theta_val = _theta_star(X, Y)
        else:
            theta_val = 0.0
    else:
        theta_val = float(theta)
    Yth = rotation(theta_val) @ Y

    sup_eff = kappa_sup if delta is None else float(delta) * kappa_sup
    a0 = gap_a0(lambda2, medium)
    trapped = trapped_condition(
        X, Yth, lambda2, b, sup_eff, kappa_l1,
        eps0_in_rhs=eps0_in_rhs, eps0=medium.eps0,
    )
    if np.linalg.norm(X) > 0 and np.linalg.norm(Y) > 0 and kappa_sup > 0:
        dstar = delta_star(X, Y, lambda2, b, kappa_sup, kappa_l1)
    else:
        dstar = 0.0
    sb = s_norm_bound(b, sup_eff, twist_dev_sup)
    loc = localization(a0, sb)

    base_inputs = {
        "X": [float(v) for v in X],
        "Y": [float(v) for v in Y],
        "theta": theta_val,
        "lambda2": float(lambda2),
        "b": float(b),
        "kappa_sup": float(kappa_sup),
        "kappa_l1": float(kappa_l1),
        "eps0": medium.eps0,
        "mu0": medium.mu0,
        "twist_dev_sup": float(twist_dev_sup),
        "eps0_in_rhs": bool(eps0_in_rhs),
    }
    if inputs:
        base_inputs.update(inputs)
    return ConditionReport(
        a0=a0, trapped=trapped, delta_star=dstar, s_bound=sb,
        localization=loc, inputs=base_inputs,
    )
