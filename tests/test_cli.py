import functools
import json
import math
import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import wgspec
from wgspec import shapederiv
from wgspec.cli import _write_report, build_parser, main


def run(args):
    return main([str(a) for a in args])


class TestSection:
    def test_triangle(self, tmp_path, capsys):
        out = tmp_path / "sec.json"
        code = run(["section", "--triangle", "48", "--fast", "-o", out])
        assert code == 0
        d = json.loads(out.read_text())
        assert np.abs(np.asarray(d["X_boundary"]) - 1.0).max() < 0.02
        assert d["config"]["argv"][0] == "section"

    def test_degenerate_exit_2(self, tmp_path):
        out = tmp_path / "sec.json"
        code = run(["section", "--rect", 1, 1, 24, 24, "--fast", "-o", out])
        assert code == 2
        assert json.loads(out.read_text())["simple"] is False

    def test_missing_file_exit_1(self, capsys):
        code = run(["section", "--gmsh", "/nonexistent/mesh.msh"])
        assert code == 1
        assert "/nonexistent/mesh.msh" in capsys.readouterr().err

    def test_gmsh_round_trip(self, tmp_path, gmsh22_text):
        from wgspec import mesh as M

        msh = tmp_path / "tri.msh"
        msh.write_text(gmsh22_text(M.gen_right_triangle(24)))
        out = tmp_path / "sec.json"
        assert run(["section", "--gmsh", msh, "--fast", "-o", out]) == 0
        assert json.loads(out.read_text())["b"] == 1.0

    @pytest.mark.parametrize("mesh, message", [
        # before: the entry 2.7 was truncated to 2 and the run failed later,
        # with "k + 2 exceeds the vertex count"
        ({"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 2.7]]},
         "triangles must hold whole-number vertex indices"),
        # before: reshaped into nine planar points, "4 vertices lie on no
        # triangle"
        ({"vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                       [0.5, 0.5, 0], [2, 0, 0]],
          "triangles": [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]},
         "vertices must have shape (nv, 2), got (6, 3)"),
        # before: regrouped into two triangles and a report written
        ({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
          "triangles": [[0, 1], [2, 1], [3, 2]]},
         "triangles must have shape (nt, 3), got (3, 2)"),
    ], ids=["fraction", "spatial vertices", "index pairs"])
    def test_malformed_mesh_json_exit_1(self, mesh, message, tmp_path, capsys):
        f, out = tmp_path / "mesh.json", tmp_path / "sec.json"
        f.write_text(json.dumps(mesh))
        assert run(["section", "--mesh-json", f, "--fast", "-o", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestCurve:
    def test_parabola_summary(self, tmp_path):
        out = tmp_path / "cur.json"
        csv = tmp_path / "cur.csv"
        code = run(["curve", "--parabola", "--window", 50, "--n", 20000,
                    "-o", out, "--csv", csv])
        assert code == 0
        d = json.loads(out.read_text())
        assert abs(d["kappa_sup"] - 2.0) <= 1e-12
        assert abs(d["Y_total"][0] - np.pi) < 1e-4
        header = csv.read_text().splitlines()[0]
        assert header == "s,k1,k2,kappa"

    def test_line_zero(self, tmp_path):
        out = tmp_path / "line.json"
        assert run(["curve", "--line", "--window", 5, "--n", 64, "-o", out]) == 0
        d = json.loads(out.read_text())
        assert d["kappa_sup"] == 0.0 and abs(d["kappa_l1"]) < 1e-12
        assert d["Y"] == [0.0, 0.0]

    def test_coarse_grid_exit_1(self, tmp_path, capsys):
        # at N = 16 the step from the apex t = 0 to t = 6.25 turns the
        # tangent by 1.49 rad > MAX_STEP_TURN
        out = tmp_path / "cur.json"
        assert run(["curve", "--parabola", "--n", 16, "-o", out]) == 1
        assert "increase N" in capsys.readouterr().err
        assert not out.exists()

    def test_tight_parabola(self, tmp_path):
        # apex curvature 2a = 4; the parameter grid has a node at the apex
        out = tmp_path / "cur.json"
        assert run(["curve", "--parabola", "--scale", 2, "-o", out]) == 0
        assert abs(json.loads(out.read_text())["kappa_sup"] - 4.0) <= 1e-12

    def test_mirrored_parabola(self, tmp_path):
        # scale -1 mirrors scale 1: the same tail, Y_total negated
        out = {}
        for a in (1, -1):
            f = tmp_path / f"cur{a}.json"
            assert run(["curve", "--parabola", "--scale", a, "--n", 2000, "-o", f]) == 0
            out[a] = json.loads(f.read_text())
        assert out[-1]["kappa_l1_tail"] == out[1]["kappa_l1_tail"]
        assert abs(out[-1]["kappa_l1_tail"] - 2 * (math.pi / 2 - math.atan(100))) <= 1e-14
        assert abs(out[-1]["Y_total"][0] + out[1]["Y_total"][0]) <= 1e-12
        assert abs(out[-1]["Y_total"][1]) <= 1e-12

    def test_straight_parabola(self, tmp_path):
        out = tmp_path / "cur.json"
        assert run(["curve", "--parabola", "--scale", 0, "--n", 2000, "-o", out]) == 0
        d = json.loads(out.read_text())
        assert d["kappa_l1_tail"] == 0.0 and "Y_total" not in d

    def test_sbend_sup_between_nodes(self, tmp_path):
        # |kappa| = |s| exp(-s^2) peaks at s = 1/sqrt(2), between nodes
        out = tmp_path / "sbend.json"
        assert run(["curve", "--sbend", "--window", 6, "-o", out]) == 0
        ref = math.exp(-0.5) / math.sqrt(2.0)
        assert abs(json.loads(out.read_text())["kappa_sup"] - ref) <= 1e-12

    def test_too_few_samples(self, tmp_path, capsys):
        f = tmp_path / "pts.csv"
        f.write_text("0,0,0,0\n1,1,0,0\n2,2,0,0\n")
        code = run(["curve", "--samples", f])
        assert code == 1
        assert "at least 8" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("0,1,0,0\n", "too few curve samples"),
        ("0\n1\n2\n3\n4\n5\n6\n7\n8\n", "samples must be (n, 2) or (n, 3)"),
    ], ids=["one row", "one column"])
    def test_one_row_or_column(self, text, message, tmp_path, capsys):
        # before: numpy's "too many indices for array"
        f, out = tmp_path / "pts.csv", tmp_path / "cur.json"
        f.write_text(text)
        assert run(["curve", "--samples", f, "-o", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()


    def test_planar_samples_are_lifted(self, tmp_path):
        # t, x, y rows frame the same curve as t, x, y, 0: the unit circle
        # over t in [0, 2], exit 2 as no tail model exists
        t = np.linspace(0.0, 2.0, 41)
        reports = []
        for cols in ([np.cos(t), np.sin(t)], [np.cos(t), np.sin(t), 0 * t]):
            f, out = tmp_path / f"pts{len(cols)}.csv", tmp_path / f"cur{len(cols)}.json"
            np.savetxt(f, np.column_stack([t, *cols]), delimiter=",")
            assert run(["curve", "--samples", f, "--n", 2000, "-o", out]) == 2
            d = json.loads(out.read_text())
            d.pop("config")
            reports.append(d)
        assert reports[0] == reports[1]
        assert abs(reports[0]["kappa_l1"] - 2.0) < 1e-4
        assert abs(reports[0]["kappa_sup"] - 1.0) < 5e-3


class TestCheck:
    def test_explicit_theta(self, tmp_path):
        # --theta rotates Y by the given angle in place of theta_star
        sec, cur, out = (tmp_path / f for f in ("sec.json", "cur.json", "chk.json"))
        sec.write_text(json.dumps({"lambda2": math.pi ** 2, "X_boundary": [1.0, 1.0],
                                   "b": 1.0}))
        cur.write_text(json.dumps({"kappa_sup": 2.0, "kappa_l1": math.pi,
                                   "Y": [math.pi, 0.0]}))
        assert run(["check", "--section", sec, "--curve", cur, "--theta", 0.3,
                    "--delta", 0.02, "-o", out]) == 0
        d = json.loads(out.read_text())
        assert d["inputs"]["theta"] == 0.3
        assert d["trapped"]["lhs"] == pytest.approx(
            math.pi * (math.cos(0.3) + math.sin(0.3)), rel=1e-15)

    def test_triangle_parabola(self, tmp_path):
        sec = tmp_path / "sec.json"
        cur = tmp_path / "cur.json"
        out = tmp_path / "check.json"
        assert run(["section", "--triangle", 48, "--fast", "-o", sec]) == 0
        assert run(["curve", "--parabola", "--window", 2, "--n", 20000,
                    "-o", cur]) == 0
        code = run(["check", "--section", sec, "--curve", cur,
                    "--delta", 0.02, "-o", out])
        assert code == 0
        d = json.loads(out.read_text())
        assert set(d) == {"a0", "trapped", "delta_star", "s_bound",
                          "localization", "trial", "inputs"}
        assert d["trial"] is None
        assert d["trapped"]["holds"] is True
        assert abs(d["delta_star"] - 0.033428) < 2e-3
        lo, hi = d["localization"]["interval"]
        assert 0 < lo < hi == d["a0"]

    def test_straight_line_no_trapping(self, tmp_path):
        sec = tmp_path / "sec.json"
        cur = tmp_path / "cur.json"
        out = tmp_path / "check.json"
        run(["section", "--triangle", 24, "--fast", "-o", sec])
        run(["curve", "--line", "--window", 5, "--n", 64, "-o", cur])
        code = run(["check", "--section", sec, "--curve", cur, "-o", out])
        assert code == 2
        d = json.loads(out.read_text())
        assert d["trapped"]["holds"] is False
        assert d["localization"]["interval"][0] == d["localization"]["interval"][1]

    def test_bad_schema_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nope": 1}))
        code = run(["check", "--section", bad, "--curve", bad])
        assert code == 1
        assert "schema" in capsys.readouterr().err


class TestShapederivCmd:
    def test_analytic_compare(self, tmp_path):
        out = tmp_path / "sd.json"
        code = run(["shapederiv", "--rect", 2, 1, "--nx", 48, "--w", 1, 0,
                    "--analytic-compare", "-o", out])
        assert code == 0
        d = json.loads(out.read_text())
        assert d["adjoint_l2_rel_error"] < 0.01
        assert d["integrand_max_error"] < 0.1

    def test_analytic_compare_factorizes_once(self, tmp_path, factorizations):
        # the eigensolve's factors precondition the adjoint's CG too
        code = run(["shapederiv", "--rect", 2, 1, "--nx", 48, "--w", 1, 0,
                    "--analytic-compare", "-o", tmp_path / "sd.json"])
        assert code == 0
        assert factorizations == ["_factor_spd"]

    def test_analytic_compare_oblique_w(self, tmp_path):
        # the adjoint is linear in w: its closed form is w1 (e1 form) +
        # w2 (e2 form)
        out = tmp_path / "sd.json"
        code = run(["shapederiv", "--rect", 2, 1, "--nx", 48, "--w", 1, 1,
                    "--analytic-compare", "-o", out])
        assert code == 0
        assert json.loads(out.read_text())["adjoint_l2_rel_error"] < 1e-2

    def test_default_bump_moves_the_section(self, tmp_path):
        # the default bump sits on the default rectangle's top side, off its
        # middle, where the derivative along e1 would vanish by symmetry
        out = tmp_path / "fd.json"
        assert run(["shapederiv", "--w", 1, 0, "--nx", 32, "-o", out]) == 0
        d = json.loads(out.read_text())
        assert d["adjoint_value"] > 0.5
        assert 0.0 < d["discrepancy"] < 2e-3

    def test_unknown_flag_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["shapederiv", "--rect", 2, 1, "--w", 1, 0, "--frobnicate"])
        assert exc.value.code == 2  # argparse usage error


class TestSweepCmd:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--rect", 6.2832, 3.1416, "--side", "top",
                    "--center", 1.7, "--radii", "0.2:0.4:0.2",
                    "--target-h", 0.12, "-o", out])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("r,X1,X2")
        rows = [ln.split(",") for ln in lines[1:]]
        norms = [np.hypot(float(r[1]), float(r[2])) for r in rows]
        assert norms[0] < norms[1]


@functools.lru_cache(maxsize=None)
def _unit_section(kind):
    """One small mesh of each kind in its own length unit."""
    from wgspec import mesh as M
    from wgspec.shapederiv import bump_rectangle_polygon

    if kind == "rect":
        return M.gen_rectangle(2.03, 1.0, 24, 12)
    if kind == "triangle":
        return M.gen_right_triangle(16)
    return M.gen_polygon(bump_rectangle_polygon(2.0, 1.0, "top", 0.9, 0.35, 0.15))


@functools.lru_cache(maxsize=None)
def _scaled_check(kind, s):
    """analyze's reports (with and without the enclosure) of the section
    scaled by s, and the exit code and report of `check` on the scaled
    section against the parabola scaled by s: (t, t^2 / s) for |t| <= 2 s."""
    from wgspec import crosssec as C, mesh as M

    base = _unit_section(kind)
    mesh = M.build_trimesh(base.vertices * s, base.triangles)
    full = C.analyze(mesh)
    fast = C.analyze(mesh, estimate_error=False)
    with tempfile.TemporaryDirectory() as d:
        sec, cur, out = (os.path.join(d, f) for f in
                         ("sec.json", "cur.json", "check.json"))
        _write_report(sec, full)
        assert run(["curve", "--parabola", "--scale", repr(1.0 / s), "--window",
                    repr(2.0 * s), "--n", 2000, "-o", cur]) == 0
        code = run(["check", "--section", sec, "--curve", cur, "--delta", 0.02,
                    "-o", out])
        with open(out) as f:
            return full, fast, code, json.load(f)


class TestLengthUnit:
    """The same section and curve in another length unit: lambda scales as
    1/s^2, X as 1/s and b as s, and every verdict stays."""

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["rect", "triangle", "bump"]),
           s=st.floats(1e-3, 1e3))
    def test_reports_scale_and_verdicts_stay(self, kind, s):
        ref_full, ref_fast, ref_code, ref_check = _scaled_check(kind, 1.0)
        full, fast, code, check = _scaled_check(kind, s)
        for rep, ref in ((full, ref_full), (fast, ref_fast)):
            for got, want in ((rep.lambda2 * s * s, ref.lambda2),
                              (rep.lambda3 * s * s, ref.lambda3),
                              (rep.b / s, ref.b)):
                assert abs(got - want) <= 1e-9 * want
            # X of the rectangle vanishes to rounding: sqrt(lambda2) sets
            # the scale of X
            scale = max(np.abs(ref.X_boundary).max(), math.sqrt(ref.lambda2))
            assert np.abs(rep.X_boundary * s - ref.X_boundary).max() <= 1e-9 * scale
        assert full.simple == fast.simple == ref_full.simple == ref_fast.simple
        assert code == ref_code
        assert check["trapped"]["holds"] == ref_check["trapped"]["holds"]

    def test_small_rectangle_passes_the_gate(self, tmp_path):
        # the residual gate is relative to lambda: the 2 x 1 rectangle in a
        # unit 100 times smaller passes too, with lambda2 scaled by 1e4
        lam = {}
        for rect in ((0.02, 0.01), (2, 1)):
            out = tmp_path / "sec.json"
            assert run(["section", "--rect", *rect, 64, 32, "--fast", "-o", out]) == 0
            lam[rect] = json.loads(out.read_text())["lambda2"]
        assert abs(lam[0.02, 0.01] * 1e-4 - lam[2, 1]) <= 1e-9 * lam[2, 1]

    def test_shapederiv_on_a_small_rectangle(self, tmp_path):
        # the bumped side is found by y == L, and the discrepancy, a ratio,
        # is the same in every unit
        d = {}
        for s in (1.0, 1e-3):
            out = tmp_path / "fd.json"
            assert run(["shapederiv", "--w", 1, 0, "--rect", 8 * s, s, "--nx", 64,
                        "--ny", 8, "--bump-center", repr(3 * s), "--bump-radius",
                        repr(0.5 * s), "-o", out]) == 0
            d[s] = json.loads(out.read_text())
        assert abs(d[1e-3]["discrepancy"] - d[1.0]["discrepancy"]) <= 1e-6
        assert d[1e-3]["solvability_warning"] is d[1.0]["solvability_warning"] is False

    def test_shapederiv_discrepancy_on_large_rectangles(self, tmp_path):
        # d(X.w)/dt is 3.4e-16 on the 8e7 x 1e7 rectangle: the discrepancy
        # has no floor in its units, so it reads as at 8 x 1
        d = {}
        for s in (1.0, 1e5, 1e7):
            out = tmp_path / "fd.json"
            assert run(["shapederiv", "--w", 1, 0, "--rect", 8 * s, s, "--nx", 64,
                        "--ny", 8, "--bump-center", repr(3 * s), "--bump-radius",
                        repr(0.5 * s), "-o", out]) == 0
            d[s] = json.loads(out.read_text())["discrepancy"]
        assert d[1.0] > 1e-4
        assert all(abs(v - d[1.0]) <= 1e-6 * d[1.0] for v in d.values()), d

    def test_tiny_parabola_keeps_its_tail(self, tmp_path):
        # the parabola (t, t^2) in a unit 1e7 times smaller: kappa_sup is
        # 2e7 and |k2| reaches 1.2e-9 by rounding, yet the curve is planar
        out = tmp_path / "cur.json"
        assert run(["curve", "--parabola", "--scale", 1e7, "--window", 5e-6,
                    "--n", 4000, "-o", out]) == 0
        d = json.loads(out.read_text())
        assert abs(d["kappa_sup"] * 1e-7 - 2.0) <= 1e-9
        assert abs(d["Y_total"][0] - np.pi) < 1e-3


def _argv_id(argv):
    return " ".join(str(a) for a in argv)


# the fields of a section and of a curve report that check reads
_SECTION = {"lambda2": 10, "X_boundary": [1, 1], "b": 1}
_CURVE = {"kappa_sup": 2, "kappa_l1": 3, "Y": [3, 0]}

# malformed input and a fragment of its error message
_MALFORMED = [
    (["shapederiv", "--w", 0, 0], "--w must be a nonzero"),
    (["shapederiv", "--w", "nan", 1], "--w must be a nonzero"),
    (["shapederiv", "--w", 1, 0, "--nx", 0], "subdivision counts"),
    (["shapederiv", "--w", 1, 0, "--ny", 0], "subdivision counts"),
    (["shapederiv", "--w", 1, 0, "--rect", 0, 1], "rectangle dimensions"),
    # the closed form holds on the wide rectangle only, where psi2 = cos(pi x/ell)
    (["shapederiv", "--w", 1, 0, "--analytic-compare", "--rect", 1, 2, "--nx", 16],
     "closed form requires ell > L"),
    (["curve", "--window", 0], "half-width"),
    (["curve", "--window", -1], "half-width"),
    (["curve", "--n", 3], "N must be"),
    (["curve", "--parabola", "--scale", "nan"], "parabola scale must be finite"),
    (["curve", "--helix", "--radius", "nan"], "helix radius must be finite"),
    (["curve", "--helix", "--pitch", "inf"], "helix pitch must be finite"),
    # an empty file: one error line, no numpy warning
    (["curve", "--samples", os.devnull], "no curve samples"),
    # N = 20000 steps over the s-bend's bend in turns below MAX_STEP_TURN:
    # before, exit 0 with kappa_l1 = 0.810 and 7.4e-42 for the true 1.  At
    # 1e200 s^2 overflows in the closed forms, which warned
    (["curve", "--sbend", "--window", "1e4"], "increase N"),
    (["curve", "--sbend", "--window", "1e5"], "increase N"),
    (["curve", "--sbend", "--window", "1e200"], "increase N"),
    # a grid step or |gamma'| past the largest double: before, numpy
    # warnings and then an unrelated error line
    (["curve", "--sbend", "--window", "1e308"], "no finite grid step"),
    (["curve", "--parabola", "--window", "1e160"], "|gamma'| = inf"),
    # check inputs outside the theorem's hypotheses, which must not give a
    # verdict: a right-hand side that is negative, zero or NaN
    (["check", "--section", _SECTION, "--curve", _CURVE, "--delta", -0.02],
     "error: delta must be positive and finite, got -0.02\n"),
    (["check", "--section", _SECTION, "--curve", _CURVE, "--delta", 0],
     "error: delta must be positive and finite, got 0.0\n"),
    (["check", "--section", _SECTION, "--curve", _CURVE, "--delta", "nan"],
     "error: delta must be positive and finite, got nan\n"),
    (["check", "--section", {**_SECTION, "lambda2": 0}, "--curve", _CURVE,
      "--delta", 0.02], "error: lambda2 must be positive and finite, got 0.0\n"),
    (["check", "--section", _SECTION, "--curve", {**_CURVE, "kappa_l1": -5},
      "--delta", 0.02],
     "error: kappa_l1 must be nonnegative and finite, got -5.0\n"),
    (["check", "--section", _SECTION, "--curve", {**_CURVE, "kappa_sup": -2},
      "--delta", 0.02],
     "error: kappa_sup must be nonnegative and finite, got -2.0\n"),
    (["sweep", "--radii", "0.2:0.5:0"], "--radii needs"),
    (["sweep", "--radii", "0.2:0.5:-0.1"], "--radii needs"),
    (["sweep", "--radii", "0.5:0.2:0.1"], "--radii needs"),
    (["sweep", "--radii=-0.1:0.2:0.1"], "--radii needs"),
    (["sweep", "--radii", "-0.1:0.2:0.1"], "--radii needs"),
    (["section"], "no mesh source"),
    (["section", "--triangle", 0], "n must be >= 1"),
    # one triangle: the counts the eigensolve has and needs, with or without
    # the Crouzeix-Raviart solve, which fails on its 3 edges too
    (["section", "--triangle", 1],
     "error: the mesh's vertex count is 3, and an eigensolve of 2 eigenpairs "
     "above the constant mode needs at least 4\n"),
    (["section", "--triangle", 1, "--fast"],
     "error: the mesh's vertex count is 3, and an eigensolve of 2 eigenpairs "
     "above the constant mode needs at least 4\n"),
    (["section", "--rect", 2, 1, 0, 4], "subdivision counts"),
    (["section", "--rect", 2, 1, 2.5, 4, "--fast"], "subdivision counts"),
    (["section", "--rect", 2, 1, "nan", 4, "--fast"], "subdivision counts"),
    # b would be NaN, which is not JSON
    (["section", "--triangle", 8, "--origin", "nan", 0, "--fast"],
     "origin must be finite"),
    (["section", "--gmsh", "/nonexistent/mesh.msh"], "no such file"),
    (["section", "--triangle", 8, "--tol", 0], "tol must be"),
    (["section", "--triangle", 8, "--tol", "nan"], "tol must be"),
    (["shapederiv", "--w", 1, 0, "--rect", 8, 1, "--nx", 32, "--ny", 4,
      "--tol", 0], "tol must be"),
    (["shapederiv", "--w", 1, 0, "--rect", 8, 1, "--nx", 32, "--ny", 4,
      "--tol", "nan"], "tol must be"),
    (["sweep", "--radii", "0.2:0.2:0.1", "--target-h", 0.3, "--tol", 0],
     "tol must be"),
    (["sweep", "--radii", "0.2:0.2:0.1", "--target-h", 0.3, "--tol", "nan"],
     "tol must be"),
    (["sweep", "--target-h", 0], "target_h must be positive"),
    (["sweep", "--target-h", -1], "target_h must be positive"),
    # a bump off the side would differentiate along V = 0 and report zeros
    (["shapederiv", "--w", 1, 0, "--nx", 32, "--bump-center", 4],
     "--bump-center 4 with --bump-radius 0.5 moves no vertex of the top side, "
     "of length 2"),
    # degenerate loops, a dict standing for its polygon file: a repeated
    # point, and a side that doubles back along itself
    (["section", "--polygon", {"loop": [[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]],
                               "target_h": 0.1}],
     "error: polygon loop touches itself: vertex (1, 0) lies on a segment that "
     "does not end at it\n"),
    (["section", "--polygon", {"loop": [[0, 0], [2, 0], [1, 0], [1, 1], [0, 1]],
                               "target_h": 0.1}],
     "error: polygon loop touches itself: vertex (1, 0) lies on a segment that "
     "does not end at it\n"),
]


def _written(argv, tmp_path):
    """argv with each dict written to a JSON file under tmp_path and
    replaced by its path."""
    out = list(argv)
    for i, a in enumerate(argv):
        if isinstance(a, dict):
            out[i] = tmp_path / f"arg{i}.json"
            out[i].write_text(json.dumps(a))
    return out


_VALID = [
    (["section", "--triangle", 8], 0),
    (["section", "--rect", 2, 1, 8, 4, "--fast"], 0),
    (["curve", "--line", "--window", 5, "--n", 64], 0),
    (["shapederiv", "--w", 1, 0, "--rect", 8, 1, "--nx", 32, "--ny", 4,
      "--bump-center", 3], 0),
    (["shapederiv", "--w", 0, 1, "--analytic-compare", "--rect", 2, 1,
      "--nx", 16], 0),
    (["sweep", "--radii", "0.2:0.2:0.1", "--target-h", 0.3], 0),
    (["section", "--rect", 1, 1, 8, 8], 2),  # the square: lambda2 double
    (["shapederiv", "--w", 1, 0, "--nx", 32], 0),  # the default bump
]


# usage errors that argparse catches, and a fragment of its message: two
# inputs where the command takes one, and a malformed --radii
_USAGE = [
    (["section", "--rect", 2, 1, 8, 4, "--triangle", 4, "--fast"],
     "argument --triangle: not allowed with argument --rect"),
    (["section", "--triangle", 4, "--polygon", "loop.json"],
     "argument --polygon: not allowed with argument --triangle"),
    (["section", "--gmsh", "m.msh", "--mesh-json", "m.json"],
     "argument --mesh-json: not allowed with argument --gmsh"),
    (["curve", "--helix", "--samples", "s.csv"],
     "argument --samples: not allowed with argument --helix"),
    (["curve", "--samples", "s.csv", "--parabola"],
     "argument --parabola: not allowed with argument --samples"),
    (["sweep", "--radii", "0.2:0.5"], "radii must be lo:hi:step"),
]


class TestExitCodes:
    """0 success, 1 error with one ``error: `` line, 2 success with warnings.
    Usage errors keep argparse's own exit 2 (test_unknown_flag_exit,
    test_usage_error_exit_2)."""

    @pytest.mark.parametrize("argv, message", _USAGE,
                             ids=[_argv_id(argv) for argv, _ in _USAGE])
    def test_usage_error_exit_2(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(argv + ["-o", out])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", _MALFORMED,
                             ids=[_argv_id(argv) for argv, _ in _MALFORMED])
    def test_malformed_input_exit_1(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(_written(argv, tmp_path) + ["-o", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, code", _VALID,
                             ids=[_argv_id(argv) for argv, _ in _VALID])
    def test_valid_input(self, argv, code, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(argv + ["-o", out]) == code
        assert capsys.readouterr().err == ""
        assert out.exists()


class TestSweepRadii:
    """sweep --radii LO:HI:STEP meshes LO + k STEP for k = 0, 1, ... up to
    HI; the radii are read where cmd_sweep hands them to bump_sweep."""

    @staticmethod
    def _radii(argv):
        seen = []

        def sweep(ell, L, side, center, radii, **kwargs):
            seen.extend(radii)
            return []

        with mock.patch.object(shapederiv, "bump_sweep", sweep):
            run(["sweep", *argv, "-o", os.devnull])
        return seen

    @settings(max_examples=100, deadline=None)
    @given(lo=st.floats(0.0, 10.0), step=st.floats(1e-3, 1.0),
           m=st.integers(0, 40), extra=st.floats(0.0, 0.999))
    @example(lo=0.2, step=0.1, m=1, extra=0.6)  # 0.2:0.36:0.1
    def test_grid(self, lo, step, m, extra):
        hi = lo + (m + extra) * step
        radii = self._radii(["--radii", f"{lo!r}:{hi!r}:{step!r}"])
        assert len(radii) == m + 1 and radii[0] == lo
        assert radii == [lo + k * step for k in range(m + 1)]
        # rounding is monotone, so lo + m step <= lo + (m + extra) step
        assert radii[-1] <= hi

    def test_default_radii(self):
        radii = self._radii([])
        assert radii == [0.2 + k * 0.05 for k in range(10)] and radii[-1] == 0.65


class TestSharedParser:
    """main parses each call with the one parser of the process: no call may
    leave state that a later call reads."""

    _DEFAULTS = {"section": ("origin", (0.0, 0.0)),
                 "shapederiv": ("rect", (2.0, 1.0)),
                 "sweep": ("rect", (2 * math.pi, math.pi))}

    def _defaults(self):
        argv = {"section": ["section"], "shapederiv": ["shapederiv", "--w", "1", "0"],
                "sweep": ["sweep"]}
        return {cmd: getattr(build_parser().parse_args(argv[cmd]), name)
                for cmd, (name, _) in self._DEFAULTS.items()}

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_kind_flag_is_not_kept(self, tmp_path):
        helix, bare = tmp_path / "helix.json", tmp_path / "bare.json"
        assert run(["curve", "--helix", "--window", 4 * math.pi, "--n", 4000,
                    "-o", helix]) == 2
        assert run(["curve", "--window", 5, "--n", 400, "-o", bare]) == 0
        assert json.loads(helix.read_text())["name"].startswith("helix")
        d = json.loads(bare.read_text())
        assert d["name"].startswith("parabola") and d["config"]["options"]["kind"] == "parabola"
        assert abs(d["kappa_sup"] - 2.0) <= 1e-12

    def test_fast_flag_is_not_kept(self, tmp_path):
        fast, full = tmp_path / "fast.json", tmp_path / "full.json"
        assert run(["section", "--triangle", 16, "--fast", "-o", fast]) == 0
        assert run(["section", "--triangle", 16, "-o", full]) == 0
        assert json.loads(fast.read_text())["discretization_error"] == 0
        assert json.loads(full.read_text())["discretization_error"] > 0

    def test_defaults_are_unchanged_by_calls(self, tmp_path):
        before = self._defaults()
        assert before == {cmd: v for cmd, (_, v) in self._DEFAULTS.items()}
        assert all(type(v) is tuple for v in before.values())
        # each command reads its default, then a given value of the same option
        for argv in (["section", "--triangle", 8, "--fast"],
                     ["section", "--triangle", 8, "--fast", "--origin", 0.25, 0.5],
                     ["shapederiv", "--w", 1, 0, "--nx", 16],
                     ["shapederiv", "--w", 1, 0, "--rect", 3, 1, "--nx", 24, "--ny", 8,
                      "--bump-center", 1.2],
                     ["sweep", "--radii", "0.2:0.2:0.1", "--target-h", 0.3],
                     ["sweep", "--rect", 3, 2, "--center", 1, "--radii", "0.2:0.2:0.1",
                      "--target-h", 0.3]):
            assert run(argv + ["-o", tmp_path / "out"]) == 0, argv
        assert self._defaults() == before
        assert all(type(v) is tuple for v in self._defaults().values())


class TestImports:
    def test_cli_without_numpy_polynomial(self):
        # the Gauss rule of the arclength quadrature is held as literals
        script = "import sys, wgspec.cli; assert 'numpy.polynomial' not in sys.modules"
        src = os.path.dirname(os.path.dirname(wgspec.__file__))
        done = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_curve_and_check_without_scipy(self, tmp_path):
        # scipy comes with the FEM and mesh modules, which only the section,
        # shapederiv and sweep commands import, and with --samples
        section = tmp_path / "sec.json"
        section.write_text(json.dumps(
            {"lambda2": np.pi ** 2, "X_boundary": [1.0, 1.0], "b": 1.0}))
        curve, report = tmp_path / "cur.json", tmp_path / "chk.json"
        script = f"""
import sys
import wgspec.cli
assert "scipy" not in sys.modules, "import"
for kind in ("--parabola", "--sbend"):
    assert wgspec.cli.main(["curve", kind, "--window", "5", "--n", "400",
                            "-o", {str(curve)!r}]) == 0, kind
    code = wgspec.cli.main(["check", "--section", {str(section)!r}, "--curve",
                           {str(curve)!r}, "--delta", "0.02", "-o", {str(report)!r}])
    assert code in (0, 2), (kind, code)
    assert "scipy" not in sys.modules, kind
"""
        src = os.path.dirname(os.path.dirname(wgspec.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert set(json.loads(report.read_text())) >= {"trapped", "delta_star"}
