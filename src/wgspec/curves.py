"""Base-curve geometry: arclength resampling, relatively adapted parallel
frames as running products of minimal rotations, curvature functionals, and
the alignment angle.

A framed curve carries a uniform arclength grid with an orthonormal frame
(e1, e2, e3), e1 the unit tangent, whose transverse vectors turn only along
the tangent direction; the transverse turning rates (k1, k2) integrate to
the bending vector Y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    SingularParametrizationError,
    StepSizeError,
    UndefinedAngleError,
)

_GAUSS_X, _GAUSS_W = leggauss(5)

# largest tangent turning angle (rad) that one grid step may take; on coarser
# grids the centered difference of the tangent misses much of the curvature
MAX_STEP_TURN = math.pi / 4


@dataclass(frozen=True)
class ParamCurve:
    """Parametrized 3D curve (2D curves promoted with zero third coordinate).

    gamma, dgamma, ddgamma map an array of parameters to (n, 3) arrays;
    ddgamma may be None when only frame transport is needed.
    kappa_l1_tail(t0, t1), when present, is the analytic curvature integral
    outside the window (arclength measure).
    """

    gamma: object
    dgamma: object
    ddgamma: object = None
    t0: float = -1.0
    t1: float = 1.0
    asymptotically_straight: bool = False
    kappa_l1_tail: object = None
    name: str = "curve"

    def window(self, half_width):
        """Same curve restricted to [-half_width, half_width]."""
        return replace(self, t0=-float(half_width), t1=float(half_width))


@dataclass(frozen=True)
class FramedCurve:
    """Curve samples on a uniform arclength grid with a transported frame;
    tail is the analytic curvature integral outside the window, None when
    the curve provides none."""

    s: np.ndarray
    t: np.ndarray
    gamma: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    kappa: np.ndarray
    tail: float | None = None
    name: str = "curve"

    def orthonormality_defect(self):
        return float(_frame_defect(self.e1, self.e2, self.e3).max())

    def to_csv(self):
        lines = ["s,k1,k2,kappa"]
        for s, k1, k2, ka in zip(self.s, self.k1, self.k2, self.kappa):
            lines.append(f"{s:.17g},{k1:.17g},{k2:.17g},{ka:.17g}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# built-in curves


def line():
    """The straight reference guide along the x-axis, gamma(t) = (t, 0, 0)."""

    def gamma(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([t, np.zeros_like(t), np.zeros_like(t)])

    def dgamma(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.tile([1.0, 0.0, 0.0], (len(t), 1))

    def ddgamma(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.zeros((len(t), 3))

    return ParamCurve(gamma, dgamma, ddgamma, asymptotically_straight=True,
                      kappa_l1_tail=lambda t0, t1: 0.0, name="line")


def circle(radius=1.0):
    R = float(radius)

    def gamma(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([R * np.cos(t), R * np.sin(t), np.zeros_like(t)])

    def dgamma(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([-R * np.sin(t), R * np.cos(t), np.zeros_like(t)])

    def ddgamma(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([-R * np.cos(t), -R * np.sin(t), np.zeros_like(t)])

    return ParamCurve(gamma, dgamma, ddgamma, name=f"circle(R={R:g})")


def helix(radius=1.0, pitch=0.5):
    R, p = float(radius), float(pitch)

    def gamma(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([R * np.cos(t), R * np.sin(t), p * t])

    def dgamma(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([-R * np.sin(t), R * np.cos(t), np.full_like(t, p)])

    def ddgamma(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([-R * np.cos(t), -R * np.sin(t), np.zeros_like(t)])

    return ParamCurve(gamma, dgamma, ddgamma, name=f"helix(R={R:g},p={p:g})")


def parabola(scale=1.0):
    """Planar parabola (t, scale*t^2, 0); signed curvature 2a/(1+4a^2 t^2)^(3/2)."""
    a = float(scale)

    def gamma(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([t, a * t * t, np.zeros_like(t)])

    def dgamma(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([np.ones_like(t), 2.0 * a * t, np.zeros_like(t)])

    def ddgamma(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([np.zeros_like(t), np.full_like(t, 2.0 * a), np.zeros_like(t)])

    def tail(t0, t1):
        # turning angle not captured by the window [t0, t1]
        return float((math.pi / 2 + math.atan(2 * a * t0)) + (math.pi / 2 - math.atan(2 * a * t1)))

    return ParamCurve(gamma, dgamma, ddgamma, asymptotically_straight=True,
                      kappa_l1_tail=tail, name=f"parabola(a={a:g})")


def sbend():
    """Arclength-parametrized planar S-curve with signed curvature s*exp(-s^2).

    The turning angle is phi(s) = (1 - exp(-s^2))/2, an even function, so the
    two bends cancel and Y = 0.
    """

    def phi(s):
        return 0.5 * (1.0 - np.exp(-np.asarray(s, dtype=float) ** 2))

    def dgamma(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        ph = phi(s)
        return np.column_stack([np.cos(ph), np.sin(ph), np.zeros_like(s)])

    def ddgamma(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        ph = phi(s)
        dph = s * np.exp(-(s**2))
        return np.column_stack([-np.sin(ph) * dph, np.cos(ph) * dph, np.zeros_like(s)])

    def gamma(s):
        # integrate the unit tangent over panels of width <= 0.05 between the
        # sorted knots (the parameters and 0), then shift so gamma(0) = 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        knots = np.unique(np.append(s, 0.0))
        gaps = np.diff(knots)
        npan = np.maximum(1, np.ceil(gaps / 0.05)).astype(int)
        gap = np.repeat(np.arange(len(gaps)), npan)
        first = np.concatenate([[0], np.cumsum(npan)])
        half = 0.5 * (gaps / npan)[gap]
        mid = knots[gap] + (2 * (np.arange(len(gap)) - first[gap]) + 1) * half
        ph = phi(mid[:, None] + half[:, None] * _GAUSS_X[None, :])
        w = half[:, None] * _GAUSS_W[None, :]
        seg = np.column_stack([(np.cos(ph) * w).sum(axis=1),
                               (np.sin(ph) * w).sum(axis=1)])
        pos = np.concatenate([np.zeros((1, 2)), np.cumsum(seg, axis=0)])[first]
        pos -= pos[np.searchsorted(knots, 0.0)]
        out = np.zeros((len(s), 3))
        out[:, :2] = pos[np.searchsorted(knots, s)]
        return out

    def tail(t0, t1):
        from scipy.integrate import quad

        lo = quad(lambda s: abs(s) * math.exp(-(s**2)), -np.inf, t0)[0]
        hi = quad(lambda s: abs(s) * math.exp(-(s**2)), t1, np.inf)[0]
        return float(lo + hi)

    return ParamCurve(gamma, dgamma, ddgamma, asymptotically_straight=True,
                      kappa_l1_tail=tail, name="sbend")


def from_samples(t, xyz):
    """Cubic-spline curve through (t_i, gamma_i) samples."""
    from scipy.interpolate import CubicSpline

    t = np.asarray(t, dtype=float)
    xyz = np.asarray(xyz, dtype=float)
    if xyz.ndim != 2 or xyz.shape[1] not in (2, 3):
        raise ValueError("samples must be (n, 2) or (n, 3)")
    if xyz.shape[1] == 2:
        xyz = np.column_stack([xyz, np.zeros(len(xyz))])
    if len(t) < 8:
        raise StepSizeError("too few curve samples; provide at least 8 points")
    sp = CubicSpline(t, xyz, axis=0)
    d1 = sp.derivative(1)
    d2 = sp.derivative(2)
    return ParamCurve(
        gamma=lambda s: np.atleast_2d(sp(np.asarray(s, dtype=float))),
        dgamma=lambda s: np.atleast_2d(d1(np.asarray(s, dtype=float))),
        ddgamma=lambda s: np.atleast_2d(d2(np.asarray(s, dtype=float))),
        t0=float(t[0]),
        t1=float(t[-1]),
        name="samples",
    )


# ---------------------------------------------------------------------------
# arclength resampling


@dataclass(frozen=True)
class ArcSamples:
    """Uniform arclength grid with positions and unit tangents; iterations
    and residual report the Newton solve for the node parameters."""

    s: np.ndarray
    t: np.ndarray
    gamma: np.ndarray
    tangent: np.ndarray
    total_length: float
    iterations: int = 0
    residual: float = 0.0


def arclength_resample(curve: ParamCurve, N):
    """Place N+1 equally spaced arclength nodes on the parameter window.

    The cumulative arclength is a composite 5-point Gauss quadrature of
    |gamma'| over 4N subintervals; node parameters are recovered by
    bracketed Newton on the monotone cumulative function, stopped once every
    node's arclength residual is at most 1e-13 * (1 + total length).
    """
    if N < 16:
        raise ValueError("N must be >= 16")
    N = int(N)
    t0, t1 = float(curve.t0), float(curve.t1)
    npan = 4 * N
    edges = np.linspace(t0, t1, npan + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GAUSS_X[None, :]).ravel()
    speeds = np.linalg.norm(curve.dgamma(nodes), axis=1)
    if speeds.min() < 1e-12:
        raise SingularParametrizationError(
            f"|gamma'| = {speeds.min():.3e} at a quadrature point"
        )
    panel = (speeds.reshape(npan, 5) * _GAUSS_W[None, :]).sum(axis=1) * half
    cum = np.concatenate([[0.0], np.cumsum(panel)])
    total = float(cum[-1])

    targets = np.linspace(0.0, total, N + 1)
    # the end nodes are t0 and t1; bracket each interior target in its
    # panel, then Newton with bisection fallback
    k = np.searchsorted(cum, targets[1:-1], side="right") - 1
    lo = edges[k].copy()
    hi = edges[k + 1].copy()
    t = 0.5 * (lo + hi)

    def partial(a, x):
        """Gauss-5 integral of |gamma'| from a to x (vectorized)."""
        m = 0.5 * (a + x)
        hw = 0.5 * (x - a)
        pts = m[:, None] + hw[:, None] * _GAUSS_X[None, :]
        sp = np.linalg.norm(
            curve.dgamma(pts.ravel()), axis=1
        ).reshape(len(a), 5)
        return (sp * _GAUSS_W[None, :]).sum(axis=1) * hw

    need = targets[1:-1] - cum[k]
    a = edges[k]
    tol = 1e-13 * (1.0 + total)
    for iterations in range(1, 81):
        f = partial(a, t) - need
        residual = float(np.abs(f).max())
        if residual <= tol:
            break
        df = np.linalg.norm(curve.dgamma(t), axis=1)
        hi = np.where(f > 0, np.minimum(t, hi), hi)
        lo = np.where(f <= 0, np.maximum(t, lo), lo)
        t_new = t - f / np.maximum(df, 1e-300)
        # after the update t is itself an end of the bracket, so a converged
        # Newton step may land on it; only a step past an end is rejected
        bad = (t_new < lo) | (t_new > hi) | ~np.isfinite(t_new)
        t = np.where(bad, 0.5 * (lo + hi), t_new)
    t = np.concatenate([[t0], t, [t1]])

    pts = curve.gamma(t)
    vel = curve.dgamma(t)
    tang = vel / np.linalg.norm(vel, axis=1)[:, None]
    return ArcSamples(
        s=targets, t=t, gamma=pts, tangent=tang, total_length=total,
        iterations=iterations, residual=residual,
    )


# ---------------------------------------------------------------------------
# frame transport


def default_transverse_frame(T0):
    """A deterministic transverse pair completing T0 to a positively oriented
    orthonormal frame; planar tangents get e3 = (0, 0, 1)."""
    T0 = np.asarray(T0, dtype=float)
    if abs(T0[2]) < 1e-12:
        e3 = np.array([0.0, 0.0, 1.0])
        e2 = np.cross(e3, T0)
        e2 /= np.linalg.norm(e2)
        return e2, e3
    u = np.zeros(3)
    u[int(np.argmin(np.abs(T0)))] = 1.0
    e2 = u - (u @ T0) * T0
    e2 /= np.linalg.norm(e2)
    e3 = np.cross(T0, e2)
    return e2, e3


def _tangent_derivative(tangent, h):
    """Centered differences of the unit tangent, one-sided at the ends."""
    T = tangent
    dT = np.empty_like(T)
    dT[1:-1] = (T[2:] - T[:-2]) / (2.0 * h)
    dT[0] = (-3.0 * T[0] + 4.0 * T[1] - T[2]) / (2.0 * h)
    dT[-1] = (3.0 * T[-1] - 4.0 * T[-2] + T[-3]) / (2.0 * h)
    return dT


def _frame_defect(e1, e2, e3):
    """Per-node max |G^T G - I| of the frames G = [e1 e2 e3]."""
    G = np.stack([e1, e2, e3], axis=2)
    return np.abs(np.einsum("nij,nik->njk", G, G) - np.eye(3)).max(axis=(1, 2))


def _reflections(v):
    """Householder reflections I - 2 v v^T / (v . v), one per row of v."""
    vn = v / np.linalg.norm(v, axis=1)[:, None]
    return np.eye(3) - 2.0 * vn[:, :, None] * vn[:, None, :]


def rapf(arc: ArcSamples, e2_0=None, e3_0=None, name="curve"):
    """Transport a relatively parallel transverse frame along the curve.

    Between grid nodes the tangent follows the great-circle arc from T_j to
    T_{j+1}; parallel transport e' = -(e . T') T along that arc is exactly the
    minimal rotation taking T_j to T_{j+1}, the reflection in the plane normal
    to T_j + T_{j+1} followed by the one normal to T_{j+1}.  The frame is the
    running product of these rotations (a log2(N) doubling scan) applied to
    (e2_0, e3_0), re-orthonormalized once against the tangent.  Turning rates
    are k1 = T'.e2, k2 = T'.e3 and kappa = |T'|, T' by centered differences.
    StepSizeError: a step turns T by more than MAX_STEP_TURN, or the raw
    frame drifts from orthonormal by more than 1e-8.
    """
    T = arc.tangent
    h = float(arc.s[1] - arc.s[0])
    if e2_0 is None or e3_0 is None:
        e2_0, e3_0 = default_transverse_frame(T[0])
    e2_0 = np.asarray(e2_0, dtype=float)
    e3_0 = np.asarray(e3_0, dtype=float)
    G0 = np.column_stack([T[0], e2_0, e3_0])
    if np.abs(G0.T @ G0 - np.eye(3)).max() > 1e-10:
        raise ValueError("initial frame is not orthonormal")
    if np.linalg.det(G0) < 0:
        raise ValueError("initial frame is not positively oriented")

    # the turning angle bounds the step; it also keeps T_j + T_{j+1} away
    # from 0, where the first reflection is undefined
    turn = np.arctan2(np.linalg.norm(np.cross(T[:-1], T[1:]), axis=1),
                      (T[:-1] * T[1:]).sum(axis=1))
    j = int(np.argmax(turn))
    if turn[j] > MAX_STEP_TURN:
        raise StepSizeError(
            f"tangent turns {turn[j]:.3g} rad at step {j + 1} "
            f"(limit {MAX_STEP_TURN:.3g}); increase N"
        )

    P = np.empty((len(T), 3, 3))
    P[0] = np.eye(3)
    P[1:] = _reflections(T[1:]) @ _reflections(T[:-1] + T[1:])
    k = 1
    while k < len(P):
        P[k:] = P[k:] @ P[:-k]
        k *= 2
    e2 = P @ e2_0
    e3 = P @ e3_0

    drift = _frame_defect(T, e2, e3)
    j = int(np.argmax(drift))
    if drift[j] > 1e-8:
        raise StepSizeError(f"frame drift {drift[j]:.2e} at step {j}; increase N")
    e2 = e2 - (e2 * T).sum(axis=1)[:, None] * T
    e2 /= np.linalg.norm(e2, axis=1)[:, None]
    e3 = np.cross(T, e2)

    dT = _tangent_derivative(T, h)
    return FramedCurve(
        s=arc.s, t=arc.t, gamma=arc.gamma, e1=T, e2=e2, e3=e3,
        k1=(dT * e2).sum(axis=1), k2=(dT * e3).sum(axis=1),
        kappa=np.linalg.norm(dT, axis=1), name=name,
    )


def frame_curve(curve: ParamCurve, N):
    """Resample to N arclength steps, transport the frame that starts from
    default_transverse_frame, and store the curve's analytic tail if any."""
    fc = rapf(arclength_resample(curve, N), name=curve.name)
    if curve.kappa_l1_tail is not None:
        return replace(fc, tail=float(curve.kappa_l1_tail(curve.t0, curve.t1)))
    return fc


# ---------------------------------------------------------------------------
# curvature functionals


def planar_signed_curvature(curve: ParamCurve, t):
    """Signed curvature (x'y'' - y'x'') / (x'^2 + y'^2)^(3/2) of a planar curve."""
    if curve.ddgamma is None:
        raise ValueError("curve does not provide a second derivative")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    d1 = curve.dgamma(t)
    d2 = curve.ddgamma(t)
    speed2 = d1[:, 0] ** 2 + d1[:, 1] ** 2
    if speed2.min() < 1e-24:
        raise SingularParametrizationError("|gamma'| ~ 0 in curvature formula")
    k = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed2**1.5
    return k if k.size > 1 else float(k[0])


def curvature_norms(fc: FramedCurve):
    """Windowed sup and L1 norms of kappa plus the tail term stored on the
    framed curve; a curve without one gets tail 0, flagged as missing."""
    sup = float(fc.kappa.max())
    l1 = float(np.trapezoid(fc.kappa, fc.s))
    missing = fc.tail is None
    return {"sup": sup, "l1": l1, "tail": 0.0 if missing else fc.tail,
            "tail_missing": missing}


def yvector(fc: FramedCurve):
    """Windowed bending vector Y = (integral of k1, integral of k2)."""
    return np.array([
        np.trapezoid(fc.k1, fc.s),
        np.trapezoid(fc.k2, fc.s),
    ])


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def yvector_theta(Y, theta):
    """Bending vector in the frame rotated by the constant angle theta."""
    return rotation(theta) @ np.asarray(Y, dtype=float)


def theta_star(X, Y):
    """Unique angle in [0, 2pi) rotating Y onto the direction of X."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if np.linalg.norm(X) == 0 or np.linalg.norm(Y) == 0:
        raise UndefinedAngleError("alignment angle undefined for zero vectors")
    ang = math.atan2(X[1], X[0]) - math.atan2(Y[1], Y[0])
    return ang % (2.0 * math.pi)


@dataclass(frozen=True)
class Admissibility:
    ok: bool
    det_lo: float
    det_hi: float


def admissibility(b, kappa_sup):
    """Tube-map admissibility b*sup(kappa) < 1 with the Jacobian bounds."""
    b = float(b)
    kappa_sup = float(kappa_sup)
    if b < 0 or kappa_sup < 0:
        raise ValueError("b and kappa_sup must be nonnegative")
    x = b * kappa_sup
    return Admissibility(ok=x < 1.0, det_lo=1.0 - x, det_hi=1.0 + x)


def scale_family(fc: FramedCurve, delta):
    """Functionals of the slightly-curved family at scale delta in (0, 1].

    The sup norm scales by delta while the L1 norm and Y are invariant, so no
    re-integration is needed.
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    norms = curvature_norms(fc)
    return {
        "delta": float(delta),
        "sup": delta * norms["sup"],
        "l1": norms["l1"],
        "tail": norms["tail"],
        "Y": yvector(fc),
    }
