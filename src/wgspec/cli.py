"""Command-line entry point: reproducible experiments with JSON/CSV output.

Exit codes: 0 success, 1 error, 2 success with warnings (e.g. a degenerate
second eigenvalue).  An error, malformed input included, prints one
``error: `` line to stderr.  The one exception is a usage error that
argparse catches (an unknown flag, a missing or non-numeric value, or two
inputs where the command takes one: two mesh sources for ``section``, a
named curve and ``--samples`` for ``curve``): argparse prints the usage and
exits with its own code 2.  Every JSON artifact echoes the invocation
arguments and a timestamp for reproducibility.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
import warnings

import numpy as np

# the FEM and mesh modules load scipy; the commands that use them import
# them, so `check` and `curve` run on numpy alone, except `curve --samples`,
# whose CubicSpline loads scipy
from . import conditions, curves


def _echo(args):
    return {
        "argv": list(getattr(args, "_argv", sys.argv[1:])),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "options": {k: (v if not isinstance(v, np.ndarray) else list(v))
                    for k, v in vars(args).items()
                    if not callable(v) and k != "_argv"},
    }


def _write(path, text):
    if path in (None, "-"):
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w") as f:
            f.write(text)


def _load_mesh(args):
    from . import mesh as meshmod

    if args.rect:
        ell, L, nx, ny = args.rect
        if not (nx.is_integer() and ny.is_integer()):
            raise ValueError(f"subdivision counts must be whole numbers, got "
                             f"{nx:g} and {ny:g}")
        return meshmod.gen_rectangle(float(ell), float(L), int(nx), int(ny))
    if args.triangle is not None:
        return meshmod.gen_right_triangle(int(args.triangle))
    if args.polygon:
        with open(args.polygon) as f:
            data = json.load(f)
        poly = meshmod.Polygon(np.asarray(data["loop"]), float(data["target_h"]))
        return meshmod.gen_polygon(poly)
    if args.gmsh:
        with open(args.gmsh) as f:
            return meshmod.import_gmsh22(f.read())
    if args.mesh_json:
        with open(args.mesh_json) as f:
            return meshmod.mesh_from_json(f.read())
    raise ValueError("no mesh source given")


def cmd_section(args):
    from . import crosssec

    mesh = _load_mesh(args)
    rep = crosssec.analyze(
        mesh, origin=tuple(args.origin), tol=args.tol,
        estimate_error=not args.fast,
    )
    payload = json.loads(rep.to_json())
    payload["config"] = _echo(args)
    _write(args.output, json.dumps(payload, indent=2))
    return 2 if not rep.simple else 0


_CURVES = {
    "line": lambda a: curves.line(),
    "circle": lambda a: curves.circle(a.radius),
    "helix": lambda a: curves.helix(a.radius, a.pitch),
    "parabola": lambda a: curves.parabola(a.scale),
    "sbend": lambda a: curves.sbend(),
}


def cmd_curve(args):
    if args.samples:
        # numpy warns on an empty file; the error below names the fault
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            data = np.loadtxt(args.samples, delimiter=",", ndmin=2)
        if not data.size:
            raise ValueError(f"no curve samples in {args.samples}")
        curve = curves.from_samples(data[:, 0], data[:, 1:])
    else:
        curve = _CURVES[args.kind](args).window(args.window)
    fc = curves.frame_curve(curve, args.n)
    norms = curves.curvature_norms(fc)
    Y = curves.yvector(fc)
    summary = {
        "name": fc.name,
        "window": [curve.t0, curve.t1],
        "n": args.n,
        "kappa_sup": norms["sup"],
        "kappa_l1": norms["l1"],
        "kappa_l1_tail": norms["tail"],
        "tail_missing": norms["tail_missing"],
        "Y": [float(Y[0]), float(Y[1])],
        "orthonormality_defect": fc.orthonormality_defect(),
        "config": _echo(args),
    }
    # for planar sign-constant curvature the tail extends Y exactly; k1 and
    # k2 are compared with kappa_sup, so the tests hold in every length unit
    sup = norms["sup"]
    planar = float(np.abs(fc.k2).max()) <= 1e-10 * sup
    sign_const = fc.k1.min() >= -1e-12 * sup or fc.k1.max() <= 1e-12 * sup
    if planar and sign_const and norms["tail"] > 0 and not norms["tail_missing"]:
        sgn = 1.0 if fc.k1.max() > 0 else -1.0
        summary["Y_total"] = [float(Y[0] + sgn * norms["tail"]), float(Y[1])]
    _write(args.output, json.dumps(summary, indent=2))
    if args.csv:
        _write(args.csv, fc.to_csv())
    return 2 if norms["tail_missing"] and not curve.asymptotically_straight else 0


def cmd_check(args):
    with open(args.section) as f:
        sec = json.load(f)
    with open(args.curve) as f:
        cur = json.load(f)
    medium = conditions.Medium(eps0=args.eps0, mu0=args.mu0)
    X = np.asarray(sec["X_boundary"], dtype=float)
    Y = np.asarray(cur.get("Y_total", cur["Y"]), dtype=float)
    kappa_l1 = cur["kappa_l1"] + cur.get("kappa_l1_tail", 0.0)
    rep = conditions.build_report(
        X=X, Y=Y,
        lambda2=sec["lambda2"], b=sec["b"],
        kappa_sup=cur["kappa_sup"],
        kappa_l1=kappa_l1,
        theta="auto" if args.theta == "auto" else float(args.theta),
        medium=medium,
        eps0_in_rhs=args.eps0_in_rhs,
        delta=args.delta,
        inputs={"section": args.section, "curve": args.curve,
                "delta": args.delta, "config": _echo(args)},
    )
    _write(args.output, rep.to_json())
    return 0 if rep.trapped.holds else 2


def cmd_shapederiv(args):
    from . import mesh as meshmod, shapederiv

    ell, L = args.rect
    if not (ell > 0 and L > 0):
        raise ValueError("rectangle dimensions must be positive")
    nx = 128 if args.nx is None else args.nx
    ny = max(4, int(round(nx * L / ell))) if args.ny is None else args.ny
    mesh = meshmod.gen_rectangle(ell, L, nx, ny)
    w = np.asarray(args.w, dtype=float)
    norm = np.linalg.norm(w)
    if not 0.0 < norm < np.inf:
        raise ValueError(f"--w must be a nonzero finite vector, got {args.w}")
    w = w / norm

    if args.analytic_compare:
        import math

        from .crosssec import analytic_rectangle
        from .fem import assemble, neumann_eigs

        # psi2 = sqrt(2/(ell L)) cos(pi x/ell); DegenerateSectionError unless
        # ell > L
        ref = analytic_rectangle(ell, L).psi(*mesh.vertices.T)
        matrices = assemble(mesh)
        M = matrices[1]
        spec = neumann_eigs(mesh, 1, tol=args.tol, matrices=matrices)
        lam2 = float(spec.eigenvalues[1])
        psi = spec.eigenvectors[:, 1]
        if psi @ (M @ ref) < 0:
            psi = -psi
        adj = shapederiv.adjoint_solve(mesh, lam2, psi, w, matrices, spec.factor)
        del spec  # its factors, before the closed forms' arrays
        # q and the integrand are linear in w: w1 (e1 form) + w2 (e2 form)
        x, y = mesh.vertices.T
        cos, sin = np.cos(np.pi * x / ell), np.sin(np.pi * x / ell)
        q_ref = (w[0] * (-(2.0 * math.sqrt(2.0) / math.pi) * math.sqrt(ell / L) * sin)
                 + w[1] * (math.sqrt(2.0 / ell)
                           * (-2.0 * y / math.sqrt(L) + math.sqrt(L)) * cos))
        integrand_ref = (w[0] * ((4 * np.pi / (ell**2 * L)) * cos * sin)
                         + w[1] * ((2 * np.pi**2 / ell**3) * (-2 * y / L + 1)
                                   * (sin**2 - cos**2)))
        err = adj.q - q_ref
        l2 = math.sqrt(err @ (M @ err)) / math.sqrt(q_ref @ (M @ q_ref))
        mids, vals = shapederiv.boundary_integrand(mesh, lam2, psi, adj.q, w)
        a = mesh.boundary_edges[:, 0]
        b = mesh.boundary_edges[:, 1]
        iref = 0.5 * (integrand_ref[a] + integrand_ref[b])
        payload = {
            "lambda2": lam2,
            "adjoint_l2_rel_error": l2,
            "integrand_max_error": float(np.abs(vals - iref).max()),
            "config": _echo(args),
        }
        _write(args.output, json.dumps(payload, indent=2))
        return 0

    c, R = args.bump_center, args.bump_radius
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    V = np.zeros_like(mesh.vertices)
    side = args.bump_side
    prof = np.cos(np.pi * (x - c) / (2 * R)) ** 2 * (np.abs(x - c) < R)
    # gen_rectangle places the top and bottom sides at exactly y = L and 0
    on_side = y == (L if side == "top" else 0.0)
    V[on_side, 1] = prof[on_side] if side == "top" else -prof[on_side]
    if not V.any():
        raise ValueError(f"the bump at --bump-center {c:g} with --bump-radius "
                         f"{R:g} moves no vertex of the {side} side, of length "
                         f"{ell:g}")
    rep = shapederiv.fd_check(mesh, V, w, tol=args.tol)
    payload = json.loads(rep.to_json())
    payload["config"] = _echo(args)
    _write(args.output, json.dumps(payload, indent=2))
    return 0


def cmd_sweep(args):
    from . import shapederiv

    lo, hi, step = args.radii
    if not (0.0 <= lo <= hi < np.inf and step > 0.0):
        raise ValueError(f"--radii needs 0 <= LO <= HI and STEP > 0, "
                         f"got {lo:g}:{hi:g}:{step:g}")
    radii = list(np.arange(lo, hi + 0.5 * step, step))
    rows = shapederiv.bump_sweep(
        args.rect[0], args.rect[1], args.side, args.center, radii,
        target_h=args.target_h, tol=args.tol,
    )
    _write(args.output, shapederiv.sweep_to_csv(rows))
    return 1 if all(r.X is None for r in rows) else 0


def _radii(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("radii must be lo:hi:step")
    return tuple(float(p) for p in parts)


class _Parser(argparse.ArgumentParser):
    """argparse takes a value that starts with '-' and a digit for a flag
    unless it is an integer or a plain decimal, so "--w -1e-3 1" or
    "--radii -0.1:0.2:0.1" would end as a usage error before the typed
    checks.  No wgspec flag starts with a digit, so every such value is a
    value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


_TOL_HELP = ("bound on each eigenpair's relative residual ||K u - lambda M u|| "
             "/ (lambda ||M u||), the same in every length unit")


def build_parser():
    p = _Parser(
        prog="wgspec",
        description="Spectral trapping toolkit for bent/twisted waveguides",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("section", help="analyze a cross-section mesh")
    source = s.add_mutually_exclusive_group()
    source.add_argument("--rect", nargs=4, type=float,
                        metavar=("ELL", "L", "NX", "NY"))
    source.add_argument("--triangle", type=int, metavar="N")
    source.add_argument("--polygon", metavar="FILE.json")
    source.add_argument("--gmsh", metavar="FILE.msh")
    source.add_argument("--mesh-json", metavar="FILE.json")
    s.add_argument("--origin", nargs=2, type=float, default=[0.0, 0.0])
    s.add_argument("--tol", type=float, default=1e-8, help=_TOL_HELP)
    s.add_argument("--fast", action="store_true",
                   help="skip the Crouzeix-Raviart lower bound of lambda2 "
                        "and lambda3: discretization_error is 0 and simple "
                        "compares the gap with 10 tol only")
    s.add_argument("-o", "--output", default="-")
    s.set_defaults(func=cmd_section)

    c = sub.add_parser("curve", help="frame a base curve and report norms")
    kind = c.add_mutually_exclusive_group()
    for name in _CURVES:
        kind.add_argument(f"--{name}", dest="kind", action="store_const",
                          const=name)
    kind.add_argument("--samples", metavar="FILE.csv")
    c.add_argument("--radius", type=float, default=1.0)
    c.add_argument("--pitch", type=float, default=0.5)
    c.add_argument("--scale", type=float, default=1.0)
    c.add_argument("--window", type=float, default=50.0)
    c.add_argument("--n", type=int, default=20000)
    c.add_argument("--csv", default=None)
    c.add_argument("-o", "--output", default="-")
    c.set_defaults(func=cmd_curve, kind="parabola")

    k = sub.add_parser("check", help="evaluate the trapping conditions")
    k.add_argument("--section", required=True)
    k.add_argument("--curve", required=True)
    k.add_argument("--theta", default="auto")
    k.add_argument("--delta", type=float, default=None,
                   help="evaluate the slightly-curved family at this scale")
    k.add_argument("--eps0", type=float, default=1.0)
    k.add_argument("--mu0", type=float, default=1.0)
    k.add_argument("--eps0-in-rhs", action="store_true")
    k.add_argument("-o", "--output", default="-")
    k.set_defaults(func=cmd_check)

    d = sub.add_parser("shapederiv", help="adjoint shape derivative checks")
    d.add_argument("--rect", nargs=2, type=float, default=[2.0, 1.0])
    d.add_argument("--nx", type=int)
    d.add_argument("--ny", type=int)
    d.add_argument("--w", nargs=2, type=float, required=True)
    d.add_argument("--analytic-compare", action="store_true")
    d.add_argument("--bump-side", choices=["top", "bottom"], default="top")
    # off the middle of the default 2 x 1 rectangle's top side, where the
    # derivative along e1 vanishes by symmetry
    d.add_argument("--bump-center", type=float, default=0.6)
    d.add_argument("--bump-radius", type=float, default=0.5)
    d.add_argument("--tol", type=float, default=1e-8, help=_TOL_HELP)
    d.add_argument("-o", "--output", default="-")
    d.set_defaults(func=cmd_shapederiv)

    w = sub.add_parser("sweep", help="bump-radius sweep on the rectangle")
    w.add_argument("--rect", nargs=2, type=float, default=[2 * np.pi, np.pi])
    w.add_argument("--side", choices=["top", "bottom", "left", "right"],
                   default="top")
    w.add_argument("--center", type=float, default=1.7)
    w.add_argument("--radii", type=_radii, default=(0.2, 0.64, 0.05),
                   metavar="LO:HI:STEP")
    w.add_argument("--target-h", type=float, default=0.06)
    w.add_argument("--tol", type=float, default=1e-8, help=_TOL_HELP)
    w.add_argument("-o", "--output", default="-")
    w.set_defaults(func=cmd_sweep)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = [str(a) for a in (argv if argv is not None else sys.argv[1:])]
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 1
    except (KeyError, json.JSONDecodeError) as exc:
        print(f"error: bad input schema: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
