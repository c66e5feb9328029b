"""Benchmark of the wgspec command-line pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload section --seed 1 --seconds 15 --trace 0

The workloads are defined in perfbench/cases.py and listed with their
metrics in BENCHMARK.json.  One run executes one workload in this process,
imports the program from ./src, and writes its seeded inputs to a temporary
directory under ./.perfbench_tmp, which it removes at the end.

Every run first makes one warm-up pass of the workload's cases at the tiny
size.  With --trace 0 it then measures set-up time in fresh interpreters and
times full-size passes until --seconds have been measured (at least two),
and prints the end-to-end metrics.  With --trace 1 it alternates untraced
passes and passes with every layer wrapped in spans (perfbench/spans.py),
and prints the per-layer metrics.  Every case checks its output; a failed
case counts in "failed".  Without ./src/wgspec the run exits with code 1
and prints no result.

Stdout gets one JSON line of details (seed, drawn parameters, case sizes and
errors, pass times, environment), then the result line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# BLAS threads are pinned before numpy loads, for steadier timings on a
# shared machine; the value is recorded with every result
BLAS_THREADS = "1"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
MIN_PASSES = 2
# do not start a pass that would end past this many seconds of run time
TIME_LIMIT_S = 150.0
SETUP_CODE = "import wgspec.cli; wgspec.cli.build_parser()"
# Times are reported at the host's nominal speed: wall time * PROBE_NOMINAL_S
# / the probe time measured alongside it (cases.probe_seconds).  The constant
# is the probe's time on a quiet 2-CPU Xeon host at 2.1 GHz.  Commits are
# compared on one host, so its value cancels out of every comparison.
PROBE_NOMINAL_S = 0.020


def _nominal(wall, probe):
    return wall * PROBE_NOMINAL_S / probe


def _import_program():
    """Import wgspec from ./src of this checkout, or exit with a message."""
    if not (SRC / "wgspec" / "cli.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'wgspec'}")
    sys.path.insert(0, str(SRC))
    import wgspec

    if Path(wgspec.__file__).resolve().parent != SRC / "wgspec":
        sys.exit(f"perfbench: imported wgspec from {wgspec.__file__}, not {SRC}")


def _setup_seconds(probe_seconds):
    """(wall time, probe time) of fresh interpreters that import the CLI and
    build its parser, each timed from this process after a probe."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        probe = probe_seconds()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - t0, probe))
    return times


def _environment():
    import numpy
    import scipy

    commit = "unknown"  # a checkout without .git; src_sha256 still identifies it
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "wgspec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _passes(workload, seconds, run_start, traced_pass=None):
    """Run passes until `seconds` of wall time are measured; at least
    MIN_PASSES.  With traced_pass given, untraced and traced passes
    alternate.  Returns the (wall, probe) times of the untraced and of the
    traced passes.
    """
    untraced, traced = [], []
    while True:
        untraced.append(workload.run_pass())
        if traced_pass is not None:
            traced.append(traced_pass())
        measured = sum(wall for wall, _ in untraced + traced)
        passes = len(untraced) + len(traced)
        if measured >= seconds and passes >= MIN_PASSES:
            return untraced, traced
        if time.perf_counter() - run_start + measured / passes > TIME_LIMIT_S:
            return untraced, traced


def main(argv=None):
    run_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="problem sizes; tiny is a smoke size for tests")
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    _import_program()
    import cases  # this file's directory is on sys.path when run as a script
    import spans

    if args.workload not in cases.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(cases.WORKLOADS)}")

    tmp_parent = ROOT / ".perfbench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=tmp_parent))
    try:
        # warm-up: the same cases at the tiny size reach every code path once
        # (lazy imports, first calls) for a second instead of a full pass
        (workdir / "warmup").mkdir()
        warmup = cases.Workload(
            cases.build(args.workload, args.seed, "tiny", workdir / "warmup")[1])
        warmup.run_pass()
        params, case_list = cases.build(args.workload, args.seed, args.size, workdir)
        workload = cases.Workload(case_list)
        details = {"workload": args.workload, "seed": args.seed, "size": args.size,
                   "trace": args.trace, "params": params}
        if args.trace:
            tracers = []

            def traced_pass():
                with spans.Tracer() as tracer:
                    times = workload.run_pass()
                tracers.append(tracer)
                return times

            untraced, traced = _passes(workload, args.seconds, run_start, traced_pass)
            values = spans.layer_metrics(
                tracers, [PROBE_NOMINAL_S / probe for _, probe in traced])
            values["trace.overhead_frac"] = (
                statistics.median(_nominal(*t) for t in traced)
                / statistics.median(_nominal(*t) for t in untraced) - 1.0)
            details["traced_pass_wall_probe_s"] = traced
            wanted = spec["per_layer"]
        else:
            setup = _setup_seconds(cases.probe_seconds)
            untraced, _ = _passes(workload, args.seconds, run_start)
            values = {
                "setup_s": statistics.median(_nominal(*t) for t in setup),
                "pass_s": statistics.median(_nominal(*t) for t in untraced),
                "peak_rss_mib":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "closed_form_rel_err": workload.closed_form_rel_err(),
            }
            details["setup_wall_probe_s"] = setup
            wanted = spec["end_to_end"]
        details.update(pass_wall_probe_s=untraced, case_wall_s=workload.case_s,
                       errors=workload.errors, sizes=workload.sizes,
                       failures=workload.failures[:20],
                       warmup_failures=warmup.failures, environment=_environment())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    failed = len(workload.failures)
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": workload.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
