"""Span recorder for the traced benchmark run.

While a ``Tracer`` is active it replaces each public function named in
``LAYERS`` by a wrapper, in every ``wgspec`` module namespace that binds
that function (``fem.neumann_eigs`` is also bound as
``crosssec.neumann_eigs`` and ``shapederiv.neumann_eigs``).  Each call
records a span (name, start, end, parent).  A span's self time is its
duration minus the durations of its direct child spans.  Leaving the
``with`` block puts the original functions back, so untraced passes run the
program unchanged.  The program's own files are not modified.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# public functions traced per layer; the key is the module that defines them
LAYERS = {
    "cli": ("main",),
    "mesh": ("gen_polygon", "build_trimesh", "refine_uniform", "perturb",
             "gen_rectangle", "gen_right_triangle"),
    "fem": ("assemble", "neumann_eigs", "solve_deflated"),
    "crosssec": ("analyze",),
    "curves": ("arclength_resample", "rapf", "curvature_norms", "yvector"),
    "conditions": ("build_report", "s_norm_bound"),
    "shapederiv": ("fd_check", "adjoint_solve", "harmonic_extension",
                   "bump_sweep"),
}

_MESH_MAKERS = ("mesh.gen_polygon", "mesh.build_trimesh", "mesh.refine_uniform",
                "mesh.perturb", "mesh.gen_rectangle", "mesh.gen_right_triangle")


class Tracer:
    """Context manager that records spans and counters of one pass."""

    def __init__(self):
        self.modules = {home: importlib.import_module(f"wgspec.{home}")
                        for home in LAYERS}
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = {}
        self._stack = []
        self._assembled = {}  # id -> mesh; the reference keeps ids unique
        self._saved = []

    def __enter__(self):
        for home, names in LAYERS.items():
            for name in names:
                original = getattr(self.modules[home], name)
                wrapper = self._wrap(f"{home}.{name}", original)
                for module in self.modules.values():
                    if vars(module).get(name) is original:
                        self._saved.append((module, name, original))
                        setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        self._assembled.clear()
        return False

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0,
                      self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            self._observe(name, args, result)
            return result

        return span

    def _max(self, key, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def _add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def _observe(self, name, args, result):
        """Counters read from a finished call's arguments and result."""
        if name in _MESH_MAKERS:
            self._max("mesh.vertices_max", result.num_vertices)
        if name == "mesh.gen_polygon":
            self._max("mesh.polygon.max_edge_over_h",
                      result.max_edge() / args[0].target_h)
            self.counters["mesh.polygon.min_angle_deg"] = min(
                self.counters.get("mesh.polygon.min_angle_deg", 180.0),
                result.min_angle_deg())
            self._add("mesh.polygon.warnings", len(result.warnings))
        elif name == "fem.assemble":
            self._assembled[id(args[0])] = args[0]
            self.counters["fem.assemble.distinct_meshes"] = len(self._assembled)
        elif name == "fem.neumann_eigs":
            self._add("fem.neumann_eigs.dofs", args[0].num_vertices)
            self._max("fem.neumann_eigs.max_residual",
                      float(result.residuals.max()))
        elif name == "curves.rapf":
            self._add("curves.rapf.steps", len(args[0].s) - 1)
            self._max("curves.orthonormality_defect",
                      result.orthonormality_defect())
        elif name == "shapederiv.bump_sweep":
            self._add("shapederiv.bump_sweep.failed_rows",
                      sum(row.X is None for row in result))

    def self_times(self):
        """{span name: (summed self time in s, call count)}."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - child[i], calls + 1)
        return out


def layer_metrics(tracers, scales):
    """Per-layer metric values from the tracers of the traced passes.

    Self times are multiplied by their pass's scale (its rescaling to the
    host's nominal speed), then the median over the passes is taken.  Counts
    and quality figures repeat exactly from pass to pass and are taken from
    the last one.  A layer the workload does not reach reports 0.
    """
    per_pass = [t.self_times() for t in tracers]
    last, counters = per_pass[-1], tracers[-1].counters
    values = {}
    for home, names in LAYERS.items():
        for name in names:
            key = f"{home}.{name}"
            values[f"{key}.self_s"] = statistics.median(
                p.get(key, (0.0, 0))[0] * scale for p, scale in zip(per_pass, scales))
            values[f"{key}.calls"] = last.get(key, (0.0, 0))[1]
    calls = values["fem.assemble.calls"]
    distinct = counters.get("fem.assemble.distinct_meshes", 0)
    values["fem.assemble.redundant_frac"] = 1.0 - distinct / calls if calls else 0.0
    for key in ("mesh.vertices_max", "mesh.polygon.max_edge_over_h",
                "mesh.polygon.min_angle_deg", "mesh.polygon.warnings",
                "fem.neumann_eigs.dofs", "fem.neumann_eigs.max_residual",
                "curves.rapf.steps", "curves.orthonormality_defect",
                "shapederiv.bump_sweep.failed_rows"):
        values[key] = counters.get(key, 0)
    return values
