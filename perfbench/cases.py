"""Seeded workloads of the wgspec benchmark: inputs, cases and output checks.

A workload is a list of cases that run one after another, a closed loop with
one client.  A case calls ``wgspec.cli.main`` in-process with the arguments
a user would type, then parses the JSON or CSV it wrote and checks it
against a closed form.  The one direct library call is the twisted
``conditions.build_report`` case, because the CLI has no twist option.

The seed draws geometry only: the rectangle length, the bump centres and
radius, and the helix radius and pitch.  Mesh resolutions and curve sample
counts are fixed per size, so every seed does the same amount of work.  Each
case returns its closed-form errors and its sizes; a case that raises, exits
with an unexpected code or fails a check counts as failed.
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass

import wgspec.cli
from wgspec import conditions

WORKLOADS = ("section", "polygon-sweep", "curve-check", "shape-fd")

# "full" is what the benchmark measures; "tiny" is a seconds-long smoke size
# for the benchmark's own tests.  Tolerances catch broken output; the errors
# themselves are reported as metrics.
SIZES = {
    "full": {
        "rect": (128, 64), "triangle": 128, "polygon_h": 0.06,
        "curve_n": 20000, "parabola_window": 50.0,
        "fd": (256, 32), "analytic": (128, 64),
        "tol": {"lambda2": 1e-3, "x": 2e-3, "polygon_lambda2": 1e-2,
                "kappa": 1e-4, "helix_y": 1e-3, "adjoint": 1e-2},
    },
    "tiny": {
        "rect": (16, 8), "triangle": 16, "polygon_h": 0.4,
        "curve_n": 400, "parabola_window": 5.0,
        "fd": (64, 8), "analytic": (32, 16),
        "tol": {"lambda2": 2e-2, "x": 0.1, "polygon_lambda2": 5e-2,
                "kappa": 1e-2, "helix_y": 5e-2, "adjoint": 5e-2},
    },
}

# Known defects at the seed commit stay visible through these limits rather
# than failing the case: the default-window parabola reports kappa_sup = 1.736
# against 2.  The limits are the ones tests/test_cli.py uses.
PARABOLA_KAPPA_ABS = 0.3
PARABOLA_Y_ABS = 0.05
FD_DISCREPANCY = 0.02  # tests/test_shapederiv.py::test_smooth_bump_agreement
CHECK_DELTA = 0.02  # scale of the slightly-curved family in `check`
CHECK_KEYS = {"a0", "trapped", "delta_star", "s_bound", "localization",
              "trial", "inputs"}

# closed-form reference section for `check`: the right triangle
TRIANGLE = {"lambda2": math.pi ** 2, "X_boundary": [1.0, 1.0], "b": 1.0}

# reference magnitudes that turn the absolute errors into relative ones
ERROR_SCALE = {"x_abs_err": math.sqrt(2.0), "y_abs_err": math.pi}


def probe_seconds():
    """Wall time of a fixed pure-Python loop: a measure of the host's speed.

    On a shared host, speed can drift by 20-30 % over minutes.  Pass
    times divided by the probe times measured in the same pass drift far
    less (run.py rescales them).
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    return time.perf_counter() - t0


class CheckError(Exception):
    """A case exited with an unexpected code or its output failed a check."""


@dataclass(frozen=True)
class Case:
    name: str
    run: object  # () -> (closed-form errors, sizes)


class Workload:
    """The cases of one workload and the tally of their outcomes."""

    def __init__(self, cases):
        self.cases = cases
        self.attempted = 0
        self.failures = []
        self.errors = {}  # "case.error name" -> closed-form error
        self.sizes = {}
        self.case_s = {case.name: [] for case in cases}  # wall time per pass

    def run_pass(self):
        """Run every case once, in order, each after a probe.

        Returns (wall time of the cases in s, mean probe time in s).
        """
        wall, probes = 0.0, []
        for case in self.cases:
            probes.append(probe_seconds())
            self.attempted += 1
            start = time.perf_counter()
            try:
                errors, sizes = case.run()
            except (Exception, SystemExit) as exc:
                self.failures.append(f"{case.name}: {type(exc).__name__}: {exc}")
                if not isinstance(exc, CheckError):
                    traceback.print_exc(file=sys.stderr)
                continue
            finally:
                self.case_s[case.name].append(time.perf_counter() - start)
                wall += self.case_s[case.name][-1]
            self.errors.update({f"{case.name}.{k}": v for k, v in errors.items()})
            if sizes:
                self.sizes[case.name] = sizes
        return wall, sum(probes) / len(probes)

    def closed_form_rel_err(self):
        """Largest closed-form error of the workload, each made relative."""
        rel = [v / ERROR_SCALE.get(k.rsplit(".", 1)[1], 1.0)
               for k, v in self.errors.items()]
        # nothing to compare when every case failed: report a 100 % error
        return max(rel) if rel else 1.0


def _cli(argv, expect=0):
    # looked up on the module at call time, so the traced run sees its wrapper
    code = wgspec.cli.main([str(a) for a in argv])
    if code != expect:
        raise CheckError(f"exit code {code}, expected {expect}")


def _load(path):
    with open(path) as f:
        return json.load(f)


def _within(what, value, reference, tol, scale=None):
    """Error of value against a closed form, relative to scale (|reference|)."""
    err = abs(value - reference) / (abs(reference) if scale is None else scale)
    if not err <= tol:
        raise CheckError(f"{what} = {value!r}, closed form {reference!r} "
                         f"(relative error {err:.3g} > {tol:g})")
    return err


def _x_err(X, ref, tol):
    err = math.hypot(X[0] - ref[0], X[1] - ref[1])
    if not err <= tol:
        raise CheckError(f"X = {X}, closed form {ref} (error {err:.3g} > {tol:g})")
    return err


def _dump(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# section: refinement error estimate and eigensolves on structured meshes


def _section(rng, size, d):
    ell = rng.uniform(1.8, 2.2)
    nx, ny = size["rect"]
    n_tri = size["triangle"]
    tol = size["tol"]

    def rect(fast):
        def run():
            out = d / ("rect_fast.json" if fast else "rect.json")
            _cli(["section", "--rect", ell, 1, nx, ny, "-o", out]
                 + (["--fast"] if fast else []))
            sec = _load(out)
            errors = {"lambda2_rel_err": _within(
                "lambda2", sec["lambda2"], math.pi ** 2 / ell ** 2, tol["lambda2"])}
            # psi ~ cos(pi x / ell): the side terms cancel, so X = 0
            _x_err(sec["X_boundary"], (0.0, 0.0), tol["x"])
            _within("b", sec["b"], math.hypot(ell, 1.0), 1e-12)
            return errors, sec["mesh_stats"]
        return run

    def triangle():
        out = d / "triangle.json"
        _cli(["section", "--triangle", n_tri, "-o", out])
        sec = _load(out)
        errors = {
            "lambda2_rel_err": _within("lambda2", sec["lambda2"], math.pi ** 2,
                                       tol["lambda2"]),
            "x_abs_err": _x_err(sec["X_boundary"], (1.0, 1.0), tol["x"]),
        }
        _within("b", sec["b"], 1.0, 1e-12)
        return errors, sec["mesh_stats"]

    params = {"ell": ell, "L": 1.0, "rect": [nx, ny], "triangle": n_tri}
    return params, [Case("section-rect", rect(False)),
                    Case("section-triangle", triangle),
                    Case("section-rect-fast", rect(True))]


# ---------------------------------------------------------------------------
# polygon-sweep: the polygon mesher on a closed-form rectangle and a bump


def _polygon_sweep(rng, size, d):
    ell, L = 2.0 * math.pi, math.pi
    h = size["polygon_h"]
    # small bumps, where the seed commit's mesher breaks its own contract
    # (max edge 1.195 h, min angle 9.8 degrees at r = 0.2)
    radius = rng.uniform(0.2, 0.3)
    center = rng.uniform(1.5, 4.5)
    loop = [[0.0, 0.0], [ell, 0.0], [ell, L], [0.0, L]]
    poly_file = d / "rect_polygon.json"
    _dump(poly_file, {"loop": loop, "target_h": h})
    tol = size["tol"]

    def polygon():
        out = d / "polygon_section.json"
        _cli(["section", "--polygon", poly_file, "--fast", "-o", out])
        sec = _load(out)
        errors = {"lambda2_rel_err": _within(
            "lambda2", sec["lambda2"], (math.pi / ell) ** 2, tol["polygon_lambda2"])}
        return errors, sec["mesh_stats"]

    def sweep():
        out = d / "sweep.csv"
        # one radius: lo = hi = radius, the step only has to be positive
        _cli(["sweep", "--rect", ell, L, "--side", "top", "--center", center,
              "--radii", f"{radius!r}:{radius!r}:0.1", "--target-h", h,
              "-o", out])
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != 1:
            raise CheckError(f"sweep wrote {len(rows)} rows, expected 1")
        row = rows[0]
        if row["error"]:
            raise CheckError(f"sweep row failed: {row['error']}")
        if float(row["r"]) != radius:
            raise CheckError(f"sweep row radius {row['r']}, expected {radius!r}")
        # a small outward bump moves lambda2 only slightly off the rectangle's
        _within("bumped lambda2", float(row["lambda2"]), (math.pi / ell) ** 2, 0.1)
        if not all(math.isfinite(float(row[k])) for k in ("X1", "X2", "simple_gap")):
            raise CheckError(f"non-finite sweep row {row}")
        return {}, {"radii": 1, "target_h": h}

    params = {"ell": ell, "L": L, "target_h": h, "bump_radius": radius,
              "bump_center": center, "side": "top"}
    return params, [Case("polygon-rect", polygon), Case("sweep-bump", sweep)]


# ---------------------------------------------------------------------------
# curve-check: frame transport, curvature norms, Y and the trapping report


def _curve_check(rng, size, d):
    R = rng.uniform(0.8, 1.2)
    p = rng.uniform(0.5, 0.8)
    n = size["curve_n"]
    tol = size["tol"]
    c2 = R * R + p * p
    half = 4.0 * math.pi  # helix window [-4 pi, 4 pi]
    section_file = d / "triangle_section.json"
    _dump(section_file, TRIANGLE)
    curve_files = {k: d / f"{k}.json" for k in ("parabola", "helix", "sbend")}

    def parabola():
        _cli(["curve", "--parabola", "--window", size["parabola_window"], "--n", n,
              "-o", curve_files["parabola"]])
        cur = _load(curve_files["parabola"])
        k_err = abs(cur["kappa_sup"] - 2.0)
        y_err = abs(cur["Y_total"][0] - math.pi)
        if not (k_err < PARABOLA_KAPPA_ABS and y_err < PARABOLA_Y_ABS):
            raise CheckError(f"parabola kappa_sup {cur['kappa_sup']}, "
                             f"Y_total {cur['Y_total']}")
        return {"kappa_sup_rel_err": k_err / 2.0, "y_abs_err": y_err}, {"N": cur["n"]}

    def helix():
        # no tail model for the helix, so the CLI warns with exit code 2
        _cli(["curve", "--helix", "--radius", R, "--pitch", p, "--window", half,
              "--n", n, "-o", curve_files["helix"]], expect=2)
        cur = _load(curve_files["helix"])
        # constant curvature R/c^2 and torsion tau = p/c^2: in the parallel
        # frame (k1, k2) = kappa (cos, sin)(tau s + const), so over the arc
        # length 2 half c, |Y| = 2 (kappa / tau) |sin(tau half c)|.  The sine
        # can vanish, so the error is taken relative to the amplitude.
        amplitude = 2.0 * R / p
        y_ref = amplitude * abs(math.sin(p * half / math.sqrt(c2)))
        errors = {
            "kappa_sup_rel_err": _within("helix kappa_sup", cur["kappa_sup"],
                                         R / c2, tol["kappa"]),
            "helix_y_rel_err": _within("helix |Y|", math.hypot(*cur["Y"]), y_ref,
                                       tol["helix_y"], scale=amplitude),
        }
        return errors, {"N": cur["n"]}

    def sbend():
        _cli(["curve", "--sbend", "--window", 6, "--n", n,
              "-o", curve_files["sbend"]])
        cur = _load(curve_files["sbend"])
        # the two bends cancel: Y = 0
        if not math.hypot(*cur["Y"]) < 1e-8:
            raise CheckError(f"sbend Y = {cur['Y']}, closed form 0")
        return {}, {"N": cur["n"]}

    def check(kind):
        def run():
            out = d / f"check_{kind}.json"
            cur = _load(curve_files[kind])
            Y = cur.get("Y_total", cur["Y"])
            l1 = cur["kappa_l1"] + cur["kappa_l1_tail"]
            k_eff = CHECK_DELTA * cur["kappa_sup"]
            lam2, b = TRIANGLE["lambda2"], TRIANGLE["b"]
            # theta = auto aligns Y with X, so X.Y_theta = |X| |Y|
            lhs = math.hypot(*TRIANGLE["X_boundary"]) * math.hypot(*Y)
            rhs = 2.0 * lam2 * b * b * k_eff * l1 / (1.0 - b * k_eff)
            _cli(["check", "--section", section_file, "--curve", curve_files[kind],
                  "--delta", CHECK_DELTA, "-o", out], expect=0 if lhs > rhs else 2)
            rep = _load(out)
            if set(rep) != CHECK_KEYS:
                raise CheckError(f"check keys {sorted(rep)}")
            _within("a0", rep["a0"], math.pi, 1e-12)
            # the sbend has Y = 0, so lhs = 0 and it cannot trap
            _within("trapping lhs", rep["trapped"]["lhs"], lhs, 1e-9,
                    scale=max(lhs, 1.0))
            _within("trapping rhs", rep["trapped"]["rhs"], rhs, 1e-9)
            return {}, {}
        return run

    def twisted_report():
        cur = _load(curve_files["helix"])
        r = TRIANGLE["b"] * cur["kappa_sup"]
        rep = conditions.build_report(
            X=TRIANGLE["X_boundary"], Y=cur["Y"], lambda2=TRIANGLE["lambda2"],
            b=TRIANGLE["b"], kappa_sup=cur["kappa_sup"],
            kappa_l1=cur["kappa_l1"], twist_dev_sup=p / c2,
        )
        # the norm bound grows with the twist; without it the bound is r/(1-r)
        if not (math.isfinite(rep.s_bound) and rep.s_bound >= r / (1.0 - r)):
            raise CheckError(f"twisted s_bound {rep.s_bound}, untwisted {r / (1 - r)}")
        return {}, {}

    params = {"helix_radius": R, "helix_pitch": p, "helix_window": half,
              "N": n, "check_delta": CHECK_DELTA, "twist_dev_sup": p / c2}
    return params, [
        Case("curve-parabola", parabola), Case("curve-helix", helix),
        Case("curve-sbend", sbend), Case("check-parabola", check("parabola")),
        Case("check-helix", check("helix")), Case("check-sbend", check("sbend")),
        Case("report-helix-twist", twisted_report),
    ]


# ---------------------------------------------------------------------------
# shape-fd: many solves on one connectivity, adjoint and deflated solves


def _shape_fd(rng, size, d):
    # off the rectangle's middle (x = 4), where the derivative along w = (1, 0)
    # vanishes by symmetry and the relative discrepancy is ill-conditioned
    center = rng.uniform(2.5, 3.5)
    fnx, fny = size["fd"]
    anx, any_ = size["analytic"]
    tol = size["tol"]

    def fd():
        out = d / "fd.json"
        _cli(["shapederiv", "--w", 1, 0, "--rect", 8, 1, "--nx", fnx, "--ny", fny,
              "--bump-center", center, "-o", out])
        rep = _load(out)
        if not rep["discrepancy"] < FD_DISCREPANCY:
            raise CheckError(f"fd_check discrepancy {rep['discrepancy']}")
        if rep["solvability_warning"]:
            raise CheckError("adjoint solvability warning on a simple eigenvalue")
        return {}, {"vertices": (fnx + 1) * (fny + 1), "triangles": 2 * fnx * fny}

    def analytic(w):
        # both axes run every pass, so the reported errors do not depend on
        # the seed; the CLI has closed forms for the two axes only
        def run():
            out = d / f"analytic_{w[0]}{w[1]}.json"
            _cli(["shapederiv", "--w", *w, "--analytic-compare", "--rect", 2, 1,
                  "--nx", anx, "--ny", any_, "-o", out])
            rep = _load(out)
            errors = {
                "lambda2_rel_err": _within("lambda2", rep["lambda2"],
                                           math.pi ** 2 / 4, tol["lambda2"]),
                "adjoint_rel_err": rep["adjoint_l2_rel_error"],
            }
            if not errors["adjoint_rel_err"] < tol["adjoint"]:
                raise CheckError(f"adjoint error {errors['adjoint_rel_err']}")
            return errors, {"vertices": (anx + 1) * (any_ + 1),
                            "triangles": 2 * anx * any_}
        return run

    params = {"fd_rect": [8.0, 1.0], "fd_mesh": [fnx, fny], "fd_w": [1, 0],
              "bump_center": center, "bump_radius": 0.5, "bump_side": "top",
              "analytic_rect": [2.0, 1.0], "analytic_mesh": [anx, any_]}
    return params, [Case("shapederiv-fd", fd),
                    Case("shapederiv-analytic-x", analytic((1, 0))),
                    Case("shapederiv-analytic-y", analytic((0, 1)))]


_BUILDERS = {"section": _section, "polygon-sweep": _polygon_sweep,
             "curve-check": _curve_check, "shape-fd": _shape_fd}


def build(workload, seed, size, workdir):
    """Write the seeded inputs of a workload to workdir; return (params, cases)."""
    return _BUILDERS[workload](random.Random(seed), SIZES[size], workdir)
