"""Cross-section analysis: the first nonzero Neumann eigenvalue enclosed
between a conforming (P1) upper bound and a Crouzeix-Raviart lower bound,
with a simplicity verdict that the enclosure proves, the boundary vector X,
and closed-form reference sections.

The two eigensolves of analyze share only the read-only mesh, so the
Crouzeix-Raviart solve runs on one worker thread while the calling thread
makes the P1 solve and everything computed from it.  The report is the same
bit for bit as when the two run one after the other.  Little of the two
solves runs at once, because the calls that dominate them hold the GIL:
scipy's f2py wrappers of LAPACK's band solves (dtbtrs, dpbtrs),
SuperLU.solve, and ARPACK's reverse-communication loop, which returns to
Python for every operator application.  The host is not the limit: on a
2-CPU host, two threads ran 0.8 to 1.2 times as fast as one after the
other for dtbtrs, dpbtrs and SuperLU.solve, against 1.6 to 1.7 times for a
numpy matrix product and 1.2 to 1.7 times for a CSR matrix-vector product.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSectionError
from .fem import cr_eigs, neumann_eigs
from .mesh import TriMesh


@dataclass(frozen=True)
class CrossSectionReport:
    """Everything the trapping condition needs from a cross-section.

    X_boundary is the boundary integral of n |psi|^2, by the edge Simpson
    quadrature that is exact for P1 fields (x_boundary).

    lambda2 and lambda3 are P1 eigenvalues, upper bounds by min-max for
    those of the meshed polygon.  The lower bounds come from the
    Crouzeix-Raviart eigenvalues t on the same mesh, lambda_k >= t / (1 +
    (0.1893 h)^2 t) with h the largest edge (Liu, Appl. Math. Comput. 267,
    2015; Carstensen & Gedicke, Math. Comp. 83, 2014); see fem.cr_eigs.
    discretization_error is the relative width (lambda2 - lower) / lower of
    lambda2's enclosure, and simple means lower(lambda3) > lambda2.  When
    analyze skips the lower bound, discretization_error is 0 and simple
    means gap_ratio > 10 tol.
    """

    lambda2: float
    lambda3: float
    simple: bool
    gap_ratio: float
    discretization_error: float
    X_boundary: np.ndarray
    b: float
    origin: np.ndarray
    psi: np.ndarray = field(repr=False)
    mesh_stats: dict = field(default_factory=dict)
    warnings: tuple = ()


def fix_sign(psi):
    """Deterministic eigenfunction sign: largest-magnitude nodal value positive."""
    i = int(np.argmax(np.abs(psi)))
    return psi if psi[i] >= 0 else -psi


def x_boundary(mesh: TriMesh, psi):
    """X = sum over boundary edges of n * len * Simpson(psi^2).

    Simpson quadrature is exact for the quadratic trace of a P1 field:
    integral of psi^2 over an edge = len * (pa^2 + pa pb + pb^2) / 3.
    """
    a = psi[mesh.boundary_edges[:, 0]]
    b = psi[mesh.boundary_edges[:, 1]]
    w = mesh.boundary_lengths * (a * a + a * b + b * b) / 3.0
    return (mesh.boundary_normals * w[:, None]).sum(axis=0)


def b_radius(mesh: TriMesh, origin=(0.0, 0.0)):
    """sup over the section of |y - origin|, attained at a boundary vertex."""
    origin = np.asarray(origin, dtype=float)
    bv = mesh.vertices[mesh.boundary_vertex_indices()]
    return float(np.sqrt(((bv - origin) ** 2).sum(axis=1)).max())


def analyze(mesh: TriMesh, origin=(0.0, 0.0), tol=1e-8, estimate_error=True):
    """Full cross-section report: lambda2 with simplicity verdict, X, b.

    lambda2 and lambda3 come from shift-invert Lanczos on the P1 pencil
    (fem.neumann_eigs); as Rayleigh quotients they bound the eigenvalues of
    the meshed polygon from above.  cr_eigs bounds both from below, by one
    Crouzeix-Raviart eigensolve on the same mesh.  lambda2 is then simple
    exactly when lower(lambda3) > upper(lambda2), which proves that the
    eigenvalues differ, and discretization_error is the relative width of
    lambda2's enclosure, (lambda2 - lower) / lower.  With
    estimate_error=False (cheap mode for sweeps) the lower bound is skipped:
    discretization_error is 0 and simple means only that the P1 gap ratio
    exceeds 10 * tol.  tol bounds the relative residual ||K u - lambda M u||
    / (lambda ||M u||) of every eigenpair, in every length unit.  ValueError
    if the origin is not finite.

    Threads: the P1 eigensolve, psi, X, b and the mesh stats are computed
    on the calling thread, where perfbench's span recorder, which keeps one
    stack per process, times neumann_eigs and assemble.  The CR eigensolve,
    which shares only the immutable mesh with them, starts before them on
    one worker thread and is collected last.  The two solves overlap
    little: the band and SuperLU solves and ARPACK's iteration that
    dominate both hold the GIL, although the host runs two threads at once
    (the module docstring).  Errors come in the
    sequential order: a P1 failure is raised even when the CR solve fails
    too, a CR SolverError or ValueError is raised as it is, and the worker
    is joined before analyze returns or raises.
    """
    origin = np.asarray(origin, dtype=float)
    if not np.isfinite(origin).all():
        raise ValueError(f"origin must be finite, got {origin.tolist()}")
    if not estimate_error:
        return _report(mesh, origin, tol, None)
    with ThreadPoolExecutor(max_workers=1) as worker:
        return _report(mesh, origin, tol, worker.submit(cr_eigs, mesh, 2, tol))


def _report(mesh, origin, tol, lower_bounds):
    """analyze's report from the P1 eigensolve on the calling thread and
    lower_bounds, a Future of the CR lower bounds of lambda2 and lambda3
    whose result is asked for last; without it (None) the verdict rests on
    the P1 gap."""
    spec = neumann_eigs(mesh, 2, tol=tol)
    lam2, lam3 = float(spec.eigenvalues[1]), float(spec.eigenvalues[2])
    gap_ratio = (lam3 - lam2) / lam2  # lam2 > 0, or neumann_eigs raises
    psi = fix_sign(spec.eigenvectors[:, 1])
    X_boundary = x_boundary(mesh, psi)
    b = b_radius(mesh, origin)
    mesh_stats = mesh.stats()

    if lower_bounds is None:
        disc_err = 0.0
        simple = gap_ratio > 10.0 * tol
    else:
        lower2, lower3 = lower_bounds.result()
        disc_err = float((lam2 - lower2) / lower2)
        simple = bool(lower3 > lam2)

    warnings = tuple(mesh.warnings)
    if not simple:
        warnings += (
            "lambda2 not simple at this resolution: X is representative only "
            "(it depends on the eigenfunction choice)",
        )
    return CrossSectionReport(
        lambda2=lam2,
        lambda3=lam3,
        simple=simple,
        gap_ratio=gap_ratio,
        discretization_error=disc_err,
        X_boundary=X_boundary,
        b=b,
        origin=origin,
        psi=psi,
        mesh_stats=mesh_stats,
        warnings=warnings,
    )


@dataclass(frozen=True)
class AnalyticSection:
    """Closed-form cross-section reference."""

    lambda2: float
    X: np.ndarray
    psi: object  # callable psi(y1, y2)
    name: str


def analytic_rectangle(ell, L):
    """Closed-form section for the rectangle (0, ell) x (0, L) with ell > L.

    lambda2 = pi^2/ell^2 with normalized eigenfunction
    sqrt(2/(ell L)) cos(pi y1 / ell); X vanishes by the point symmetry.
    """
    if not (ell > 0 and L > 0):
        raise ValueError("rectangle dimensions must be positive")
    if ell <= L:
        raise DegenerateSectionError(
            "closed form requires ell > L (equal sides make lambda2 degenerate, "
            "and for ell < L its mode is cos(pi y2 / L))"
        )
    ell, L = float(ell), float(L)
    amp = math.sqrt(2.0 / (ell * L))

    def psi(y1, y2):
        return amp * np.cos(np.pi * np.asarray(y1) / ell) + 0.0 * np.asarray(y2)

    return AnalyticSection(
        lambda2=math.pi**2 / ell**2,
        X=np.zeros(2),
        psi=psi,
        name=f"rectangle({ell:g}x{L:g})",
    )


def analytic_right_triangle():
    """Closed-form section for the right triangle (0,0)-(1,0)-(0,1).

    lambda2 = pi^2 is simple; the normalized eigenfunction is
    sqrt(2) (cos(pi y2) - cos(pi y1)) and X = (1, 1).
    """

    def psi(y1, y2):
        return math.sqrt(2.0) * (np.cos(np.pi * np.asarray(y2)) - np.cos(np.pi * np.asarray(y1)))

    return AnalyticSection(
        lambda2=math.pi**2,
        X=np.array([1.0, 1.0]),
        psi=psi,
        name="right-triangle",
    )
