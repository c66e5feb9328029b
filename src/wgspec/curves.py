"""Base-curve geometry: resampling on a parameter grid, relatively adapted
parallel frames as running sums of minimal-rotation angles, curvature
functionals, and the alignment angle.

A framed curve carries equally spaced parameters, their arclengths,
and an orthonormal frame (e1, e2, e3), e1 the unit tangent, whose transverse
vectors turn only along the tangent direction.  The transverse turning
rates (k1, k2) = (T'.e2, T'.e3) come from gamma'' at each node and
integrate to the bending vector Y.

The kernels work on component-major (3, n) arrays, one row per coordinate,
so a dot or cross product of n vectors is a few whole-row operations.  The
public arrays keep one vector per row: a ParamCurve's callables return
(n, 3), read through the transpose of their output, and the (N+1, 3) fields
of ArcSamples and FramedCurve are transposed views of (3, N+1) results.  The
built-in curves build gamma' and gamma'' as (3, n) arrays and return their
transposes, so reading them costs no copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    SingularParametrizationError,
    StepSizeError,
    UndefinedAngleError,
)

# the 5-point Gauss-Legendre rule on [-1, 1], the reprs of leggauss(5)'s
# nodes and weights, as literals: numpy.polynomial stays unimported
_GAUSS_X = np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                     0.5384693101056831, 0.906179845938664])
_GAUSS_W = np.array([0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
                     0.4786286704993663, 0.23692688505618928])

# rounds of the kappa_sup search between nodes: each samples kappa at 17
# points of a bracket and keeps the two steps around the largest, so 12
# rounds shrink a bracket 8^12 ~ 7e10-fold, where kappa is flat to rounding
KAPPA_SEARCH_ROUNDS = 12

# largest tangent turning angle (rad) that one grid step may take: it keeps
# T_j + T_{j+1} away from 0, where the minimal rotation is undefined.  It does
# not make the trapezoid rule resolve kappa between nodes: a grid can step
# over a bend in turns below the limit, which KAPPA_L1_TOL catches
MAX_STEP_TURN = math.pi / 4

# relative amount by which the trapezoid rule's integral of kappa may fall
# below the tangent's summed step turns, a lower bound of that integral,
# before the grid counts as too coarse.  Trapezoid / summed turns at
# N = 20000: 1.00001 on the parabola over [-50, 50]; 0.998 on the s-bend over
# [-1e3, 1e3], a kappa_l1 at least 0.17 % low, and 0.81 over [-1e4, 1e4].
# The lowest on the resolved grids in use is 0.99985, the s-bend over [-6, 6]
# at N = 400, which 1e-3 passes with a 6-fold margin
KAPPA_L1_TOL = 1e-3


def _dot(a, b):
    """Column dot products of two (3, n) arrays, summed (x + z) + y: the order
    of numpy's einsum row dot, so the (n, 3) row formulas give the same bits."""
    d = a[0] * b[0]
    d += a[2] * b[2]
    d += a[1] * b[1]
    return d


def _cross(a, b):
    """Column cross products of two (3, n) arrays."""
    c = np.empty_like(a)
    c[0] = a[1] * b[2] - a[2] * b[1]
    c[1] = a[2] * b[0] - a[0] * b[2]
    c[2] = a[0] * b[1] - a[1] * b[0]
    return c


def _columns(x):
    """A curve callable's (n, 3) output as a (3, n) array: no copy for the
    built-in curves, whose output is the transpose of one."""
    return np.ascontiguousarray(np.asarray(x, dtype=float).T)


def _vectors(t, x, y, z):
    """The (len(t), 3) vectors with components x, y, z, each an array over
    the parameters t or a scalar, as the transpose of a (3, len(t)) array."""
    v = np.empty((3, len(t)))
    v[0], v[1], v[2] = x, y, z
    return v.T


@dataclass(frozen=True)
class ParamCurve:
    """Parametrized 3D curve (2D curves promoted with zero third coordinate).

    dgamma, ddgamma map an array of parameters to (n, 3) arrays gamma',
    gamma''; both are required, as the frame comes from them alone.  A
    transposed (3, n) array is read without a copy; any other is copied once.
    kappa_l1_tail(t0, t1), when present, is the analytic curvature integral
    outside the window (arclength measure).
    """

    dgamma: object
    ddgamma: object
    t0: float = -1.0
    t1: float = 1.0
    asymptotically_straight: bool = False
    kappa_l1_tail: object = None
    name: str = "curve"

    def window(self, half_width):
        """Same curve restricted to [-half_width, half_width]; ValueError
        unless half_width is positive and finite."""
        if not 0.0 < half_width < math.inf:
            raise ValueError(f"window half-width must be positive and finite, "
                             f"got {half_width!r}")
        return replace(self, t0=-float(half_width), t1=float(half_width))


@dataclass(frozen=True)
class FramedCurve:
    """Equally spaced parameters t with their arclengths s
    (the running sum of the step arclengths panel), a transported frame and
    its orthonormality defect (the value that orthonormality_defect
    returns); tail is the analytic curvature integral outside the window,
    None when the curve provides none.  kappa_sup is
    the sup of the closed-form kappa over the window, maxima between nodes
    included, which frame_curve sets; rapf alone leaves it None.  turn is
    the tangent's turning angle summed over the grid steps: a lower bound
    of the integral of kappa, which curvature_norms checks the trapezoid
    rule's value against.

    e1, e2 and e3 are (N+1, 3), one vector per node: transposed views of
    the (3, N+1) arrays rapf computes, so their .T is C-contiguous."""

    s: np.ndarray
    panel: np.ndarray
    t: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    kappa: np.ndarray
    defect: float
    turn: float
    tail: float | None = None
    kappa_sup: float | None = None
    name: str = "curve"

    def orthonormality_defect(self):
        """Largest |G^T G - I| over the node frames G = [e1 e2 e3], as
        rapf's drift gate measured it on this frame."""
        return self.defect

    def to_csv(self):
        lines = ["s,k1,k2,kappa"]
        for s, k1, k2, ka in zip(self.s, self.k1, self.k2, self.kappa):
            lines.append(f"{s:.17g},{k1:.17g},{k2:.17g},{ka:.17g}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# built-in curves


def _finite(name, value):
    """value as a float; ValueError naming the parameter unless finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def line():
    """The straight reference guide along the x-axis, the curve (t, 0, 0)."""

    def dgamma(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return _vectors(t, 1.0, 0.0, 0.0)

    def ddgamma(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.zeros((3, len(t))).T

    return ParamCurve(dgamma, ddgamma, asymptotically_straight=True,
                      kappa_l1_tail=lambda t0, t1: 0.0, name="line")


def circle(radius=1.0):
    R = _finite("circle radius", radius)

    def dgamma(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return _vectors(t, -R * np.sin(t), R * np.cos(t), 0.0)

    def ddgamma(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return _vectors(t, -R * np.cos(t), -R * np.sin(t), 0.0)

    return ParamCurve(dgamma, ddgamma, name=f"circle(R={R:g})")


def helix(radius=1.0, pitch=0.5):
    R, p = _finite("helix radius", radius), _finite("helix pitch", pitch)

    def dgamma(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return _vectors(t, -R * np.sin(t), R * np.cos(t), p)

    def ddgamma(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return _vectors(t, -R * np.cos(t), -R * np.sin(t), 0.0)

    return ParamCurve(dgamma, ddgamma, name=f"helix(R={R:g},p={p:g})")


def parabola(scale=1.0):
    """Planar parabola (t, scale*t^2, 0); signed curvature 2a/(1+4a^2 t^2)^(3/2)."""
    a = _finite("parabola scale", scale)

    def dgamma(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return _vectors(t, 1.0, 2.0 * a * t, 0.0)

    def ddgamma(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return _vectors(t, 0.0, 2.0 * a, 0.0)

    def tail(t0, t1):
        # turning angle outside the window [t0, t1]: the tangent angle
        # atan(2 a t) runs from -sgn(a) pi/2 at t = -inf to sgn(a) pi/2
        end = math.pi / 2 * ((a > 0) - (a < 0))
        return float(abs(math.atan(2 * a * t0) + end) + abs(end - math.atan(2 * a * t1)))

    return ParamCurve(dgamma, ddgamma, asymptotically_straight=True,
                      kappa_l1_tail=tail, name=f"parabola(a={a:g})")


def sbend():
    """Arclength-parametrized planar S-curve with signed curvature s*exp(-s^2).

    The turning angle is phi(s) = (1 - exp(-s^2))/2, an even function, so the
    two bends cancel and Y = 0.
    """

    def gauss(s):
        # exp(-s^2), 0 where s^2 overflows to inf
        with np.errstate(over="ignore"):
            return np.exp(-(s**2))

    def dgamma(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        ph = 0.5 * (1.0 - gauss(s))
        return _vectors(s, np.cos(ph), np.sin(ph), 0.0)

    def ddgamma(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        e = gauss(s)
        ph, dph = 0.5 * (1.0 - e), s * e
        return _vectors(s, -np.sin(ph) * dph, np.cos(ph) * dph, 0.0)

    def beyond(x):
        # integral of |s| exp(-s^2) over [x, inf)
        e = 0.5 * math.exp(-x * x)
        return e if x >= 0 else 1.0 - e

    def tail(t0, t1):
        # the integrand is even, so (-inf, t0] carries beyond(-t0)
        return beyond(-t0) + beyond(t1)

    return ParamCurve(dgamma, ddgamma, asymptotically_straight=True,
                      kappa_l1_tail=tail, name="sbend")


def from_samples(t, xyz):
    """Cubic-spline curve through samples (t_i, x_i), by its derivatives."""
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
    d1, d2 = sp.derivative(1), sp.derivative(2)
    return ParamCurve(
        dgamma=lambda s: np.atleast_2d(d1(np.asarray(s, dtype=float))),
        ddgamma=lambda s: np.atleast_2d(d2(np.asarray(s, dtype=float))),
        t0=float(t[0]), t1=float(t[-1]), name="samples",
    )


# ---------------------------------------------------------------------------
# arclength resampling


@dataclass(frozen=True)
class ArcSamples:
    """Nodes at equally spaced parameters t with their arclengths s (the
    running sum of the step arclengths panel), unit tangents T and
    arclength derivatives T'.  tangent and dtangent are (N+1, 3), transposed
    views of the (3, N+1) arrays arclength_resample computes."""

    s: np.ndarray
    panel: np.ndarray
    t: np.ndarray
    tangent: np.ndarray
    dtangent: np.ndarray


def arclength_resample(curve: ParamCurve, N):
    """Sample the parameter window at N+1 equally spaced nodes.

    The cumulative arclength is a composite 5-point Gauss quadrature of
    |gamma'|, one panel per parameter step.  At each node
    T' = (gamma'' - (gamma''.T) T) / |gamma'|^2, exact for the given
    ddgamma.  SingularParametrizationError: the parameter step (t1 - t0) / N
    is not finite, or |gamma'| is below 1e-12 or not finite at a quadrature
    point or a node.
    """
    if N < 16:
        raise ValueError("N must be >= 16")
    N = int(N)
    t0, t1 = float(curve.t0), float(curve.t1)
    if not math.isfinite((t1 - t0) / N):
        raise SingularParametrizationError(
            f"the parameter window [{t0:g}, {t1:g}] has no finite grid step")
    t = np.linspace(t0, t1, N + 1)
    mid = 0.5 * (t[:-1] + t[1:])
    half = 0.5 * (t[1:] - t[:-1])
    # gamma' at the 5N quadrature points, panel by panel, then at the N+1
    # nodes; the points are filled one Gauss node at a time
    x = np.empty(6 * N + 1)
    for k, xk in enumerate(_GAUSS_X):
        np.add(mid, half * xk, out=x[k:5 * N:5])
    x[5 * N:] = t
    vel = _columns(curve.dgamma(x))
    # a square past the largest double is inf, which the check below reports
    with np.errstate(over="ignore"):
        speeds = np.sqrt(_dot(vel, vel))
    low, high = speeds.min(), speeds.max()
    if low < 1e-12 or not high < math.inf:
        raise SingularParametrizationError(
            f"|gamma'| = {low if low < 1e-12 else high:.3e} at a quadrature "
            f"point or node"
        )
    panel = speeds[:5 * N].reshape(N, 5) @ _GAUSS_W * half
    cum = np.concatenate([[0.0], np.cumsum(panel)])
    vel, speed = vel[:, 5 * N:], speeds[5 * N:]
    tang = vel / speed
    acc = _columns(curve.ddgamma(t))
    dtang = (acc - _dot(acc, tang) * tang) / speed**2
    return ArcSamples(s=cum, panel=panel, t=t, tangent=tang.T, dtangent=dtang.T)


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


def _frame_defect(e1, e2, e3):
    """Per-node max |G^T G - I| of the frames G = [e1 e2 e3], given as
    (3, n) arrays, from the six distinct entries of the symmetric G^T G."""
    d = np.array([_dot(e1, e1) - 1.0, _dot(e2, e2) - 1.0, _dot(e3, e3) - 1.0,
                  _dot(e1, e2), _dot(e1, e3), _dot(e2, e3)])
    return np.abs(d, out=d).max(axis=0)


def _transverse_basis(T):
    """A positively oriented orthonormal pair (u, v) normal to each unit
    column of the (3, n) array T: u = normalize(e_k x T) with k the index of
    the column's smallest entry in magnitude, the first of equal ones, so
    |e_k x T| >= sqrt(2/3), and v = T x u.

    Row i of e_k x T is e_k[i+1] T[i+2] - e_k[i+2] T[i+1] (rows mod 3): each
    term is T's entry where e_k has its 1 and the signed zero 0 T elsewhere,
    so the picks below give the product to the last bit, signed zeros
    included."""
    a = np.abs(T)
    first = (a[0] <= a[1]) & (a[0] <= a[2])
    second = ~first & (a[1] <= a[2])
    k = (first, second, ~(first | second))
    zero = 0.0 * T
    u = np.empty_like(T)
    for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        u[i] = np.where(k[j], T[l], zero[l]) - np.where(k[l], T[j], zero[j])
    u /= np.sqrt(_dot(u, u))
    return u, _cross(T, u)


def rapf(arc: ArcSamples, e2_0=None, e3_0=None, name="curve"):
    """Transport a relatively parallel transverse frame along the curve.

    Between grid nodes the tangent follows the great-circle arc from T_j to
    T_{j+1}; parallel transport e' = -(e . T') T along that arc is exactly the
    minimal rotation R_j taking T_j to T_{j+1}, the reflection in the plane
    normal to T_j + T_{j+1} followed by the one normal to T_{j+1}.  In the
    pointwise pairs (u_j, v_j) of _transverse_basis, R_j turns u_j into
    cos(alpha_j) u_{j+1} + sin(alpha_j) v_{j+1}, so the frame is
    e2 = cos(theta) u + sin(theta) v, e3 = T x e2 = cos(theta) v - sin(theta) u
    with theta the running sum of the alpha_j from the angle of e2_0.
    Turning rates are k1 = T'.e2, k2 = T'.e3 and kappa = |T'|, with
    T' = arc.dtangent.  The transport runs on the (3, N+1) transposes of
    the arc's fields, and e2, e3 are returned as (N+1, 3) views of (3, N+1)
    arrays.  turn is the sum of the step turning angles, a lower bound of
    the integral of kappa that curvature_norms holds the trapezoid rule's
    value to, within KAPPA_L1_TOL.  StepSizeError: a step turns T by more
    than MAX_STEP_TURN, or the frame drifts from orthonormal by more than
    1e-8.
    """
    T = arc.tangent.T
    if e2_0 is None or e3_0 is None:
        e2_0, e3_0 = default_transverse_frame(T[:, 0])
    e2_0 = np.asarray(e2_0, dtype=float)
    e3_0 = np.asarray(e3_0, dtype=float)
    G0 = np.column_stack([T[:, 0], e2_0, e3_0])
    if np.abs(G0.T @ G0 - np.eye(3)).max() > 1e-10:
        raise ValueError("initial frame is not orthonormal")
    if np.linalg.det(G0) < 0:
        raise ValueError("initial frame is not positively oriented")

    # the turning angle, 2 atan(|T_{j+1} - T_j| / |T_j + T_{j+1}|), bounds
    # the step; it also keeps T_j + T_{j+1} away from 0, where the first
    # reflection is undefined
    bis = T[:, :-1] + T[:, 1:]
    gap = T[:, 1:] - T[:, :-1]
    bb = _dot(bis, bis)
    turn = 2.0 * np.arctan2(np.sqrt(_dot(gap, gap)), np.sqrt(bb))
    j = int(np.argmax(turn))
    if turn[j] > MAX_STEP_TURN:
        raise StepSizeError(
            f"tangent turns {turn[j]:.3g} rad at step {j + 1} "
            f"(limit {MAX_STEP_TURN:.3g}); increase N"
        )

    # w_j = R_j u_j, the two reflections applied to u_j alone
    u, v = _transverse_basis(T)
    w = u[:, :-1] - (2.0 * _dot(bis, u[:, :-1]) / bb) * bis
    w -= (2.0 * _dot(T[:, 1:], w)) * T[:, 1:]
    alpha = np.arctan2(_dot(w, v[:, 1:]), _dot(w, u[:, 1:]))
    theta = (math.atan2(e2_0 @ v[:, 0], e2_0 @ u[:, 0])
             + np.concatenate([[0.0], np.cumsum(alpha)]))
    cos, sin = np.cos(theta), np.sin(theta)
    e2 = cos * u + sin * v
    e3 = cos * v - sin * u

    drift = _frame_defect(T, e2, e3)
    j = int(np.argmax(drift))
    if drift[j] > 1e-8:
        raise StepSizeError(f"frame drift {drift[j]:.2e} at step {j}; increase N")

    dT = arc.dtangent.T
    return FramedCurve(
        s=arc.s, panel=arc.panel, t=arc.t, e1=arc.tangent, e2=e2.T, e3=e3.T,
        k1=_dot(dT, e2), k2=_dot(dT, e3), kappa=np.sqrt(_dot(dT, dT)),
        defect=float(drift[j]), turn=float(turn.sum()), name=name,
    )


def frame_curve(curve: ParamCurve, N):
    """Resample to N parameter steps, transport the frame that starts from
    default_transverse_frame, and store the sup of kappa (_kappa_sup) and
    the curve's analytic tail if any."""
    fc = rapf(arclength_resample(curve, N), name=curve.name)
    tail = curve.kappa_l1_tail
    return replace(fc, kappa_sup=_kappa_sup(fc, curve),
                   tail=None if tail is None else float(tail(curve.t0, curve.t1)))


# ---------------------------------------------------------------------------
# curvature functionals


def _closed_form_kappa(curve: ParamCurve, t):
    """kappa = |gamma' x gamma''| / |gamma'|^3 at the parameters t."""
    d1 = _columns(curve.dgamma(t))
    n = _cross(d1, _columns(curve.ddgamma(t)))
    return np.sqrt(_dot(n, n)) / _dot(d1, d1) ** 1.5


def _kappa_sup(fc: FramedCurve, curve: ParamCurve):
    """sup kappa over the window of curve, which fc samples: the largest
    node value, raised to the closed form's maximum between nodes.

    Between nodes kappa can rise above them by about h^2 |kappa''| / 8, which
    the largest second difference of the node values bounds with room to
    spare; where that bound is at rounding level (a circle or a helix) the
    node value stands.  Otherwise the closed form is maximised on the two
    parameter intervals beside each node that is a local maximum within
    that bound of the largest, by KAPPA_SEARCH_ROUNDS of sampling and
    narrowing.  Every value taken is kappa at a point of the window, so the
    result lies between the node maximum and the true sup, and reaches the
    latter to rounding.
    """
    k, t = fc.kappa, fc.t
    sup = float(k.max())
    rise = np.abs(np.diff(k, 2)).max(initial=0.0)
    if rise <= 64 * np.finfo(float).eps * sup:
        return sup
    peak = np.flatnonzero(np.r_[True, k[1:] >= k[:-1]] & np.r_[k[:-1] >= k[1:], True]
                          & (k >= sup - rise))
    a, b = t[np.maximum(peak - 1, 0)], t[np.minimum(peak + 1, len(t) - 1)]
    rows = np.arange(len(peak))
    for _ in range(KAPPA_SEARCH_ROUNDS):
        x = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, 17)
        f = _closed_form_kappa(curve, x.ravel()).reshape(x.shape)
        sup = max(sup, float(f.max()))
        best = np.clip(f.argmax(axis=1), 1, 15)
        a, b = x[rows, best - 1], x[rows, best + 1]
    return sup


def curvature_norms(fc: FramedCurve):
    """Windowed sup and L1 norms of kappa plus the tail term stored on the
    framed curve; a curve without one gets tail 0, flagged as missing.
    The sup is the one frame_curve stored, maxima between nodes included.
    ValueError: fc carries no sup (a bare rapf result), as its node values
    alone can read low: the unsafe side of b sup(kappa) < 1.
    StepSizeError: the L1 norm, by the trapezoid rule, lies below fc.turn by
    more than KAPPA_L1_TOL relative.  Each step's turn is the great-circle
    distance between its end tangents, no longer than the tangent's path
    between them, so fc.turn is a lower bound of the L1 norm.  Below it,
    the grid steps over bends that the trapezoid rule misses and kappa_l1
    reads low, again the unsafe side."""
    if fc.kappa_sup is None:
        raise ValueError("framed curve carries no kappa_sup; build it with frame_curve")
    sup = fc.kappa_sup
    l1 = _trapezoid(fc, fc.kappa)
    if l1 < (1.0 - KAPPA_L1_TOL) * fc.turn:
        raise StepSizeError(
            f"kappa_l1 {l1:.6g} lies below the summed step turns {fc.turn:.6g}, "
            f"a lower bound of it, by more than {KAPPA_L1_TOL:g}; increase N")
    missing = fc.tail is None
    return {"sup": sup, "l1": l1, "tail": 0.0 if missing else fc.tail,
            "tail_missing": missing}


def yvector(fc: FramedCurve):
    """Windowed bending vector Y = (integral of k1, integral of k2)."""
    return np.array([_trapezoid(fc, fc.k1), _trapezoid(fc, fc.k2)])


def _trapezoid(fc: FramedCurve, f):
    """The trapezoid rule for the node values f over the step arclengths
    fc.panel: differences of the running sum fc.s would carry its rounding,
    of order eps s rather than eps panel."""
    return float(fc.panel @ (f[:-1] + f[1:])) / 2.0


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def theta_star(X, Y):
    """Unique angle in [0, 2pi) rotating Y onto the direction of X."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if np.linalg.norm(X) == 0 or np.linalg.norm(Y) == 0:
        raise UndefinedAngleError("alignment angle undefined for zero vectors")
    ang = math.atan2(X[1], X[0]) - math.atan2(Y[1], Y[0])
    return ang % (2.0 * math.pi)
