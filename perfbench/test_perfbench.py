"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import cases  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_wrappers_removed_after_traced_pass(tmp_path):
    modules = spans.Tracer().modules.values()
    bindings = {(module, name): getattr(module, name)
                for module in modules for names in spans.LAYERS.values()
                for name in names if hasattr(module, name)}
    _, case_list = cases.build("shape-fd", 0, "tiny", tmp_path)
    workload = cases.Workload(case_list)
    with spans.Tracer() as tracer:
        # fem.neumann_eigs is bound in three modules; each binding is wrapped
        for module in modules:
            if (module, "neumann_eigs") in bindings:
                assert module.neumann_eigs is not bindings[(module, "neumann_eigs")]
        workload.run_pass()
    assert workload.failures == []
    for (module, name), original in bindings.items():
        assert getattr(module, name) is original, (module.__name__, name)

    times = tracer.self_times()
    assert times["cli.main"][1] == 3 and times["shapederiv.fd_check"][1] == 1
    # nested spans: self time never exceeds the span, and parents enclose children
    for name, start, end, parent in tracer.spans:
        if parent >= 0:
            _, p_start, p_end, _ = tracer.spans[parent]
            assert p_start <= start <= end <= p_end
    durations = {}
    for name, start, end, _ in tracer.spans:
        durations[name] = durations.get(name, 0.0) + end - start
    for name, (self_s, _) in times.items():
        assert 0.0 <= self_s <= durations[name] + 1e-9


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_same_seed_writes_identical_inputs(workload, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    params_a, _ = cases.build(workload, 7, "full", a)
    params_b, _ = cases.build(workload, 7, "full", b)
    params_c, _ = cases.build(workload, 8, "full", c)
    assert params_a == params_b
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert params_c != params_a
