"""Every public top-level function and class of wgspec has a caller in the
package or the benchmark, not only in the tests."""

import ast
import importlib
import pathlib
import re

import wgspec

# closed-form oracles that the tests compare against
TEST_ORACLES = {"analytic_right_triangle"}


def test_no_public_name_is_reached_only_from_tests():
    src = pathlib.Path(wgspec.__file__).parent
    bench = src.parents[1] / "perfbench"
    modules = sorted(src.glob("*.py"))
    text = "\n".join(p.read_text() for p in modules + sorted(bench.glob("*.py"))
                     if not p.name.startswith("test_"))
    unused = [
        node.name
        for p in modules
        for node in ast.parse(p.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and len(re.findall(rf"\b{node.name}\b", text)) == 1
    ]
    assert set(unused) <= TEST_ORACLES, sorted(set(unused) - TEST_ORACLES)


def test_benchmark_layers_are_bound():
    # perfbench/spans.py wraps each LAYERS name by getattr on wgspec.<module>:
    # a deleted or renamed function breaks every traced benchmark run
    spans = pathlib.Path(wgspec.__file__).parents[2] / "perfbench" / "spans.py"
    layers = next(
        ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    )
    missing = [f"{home}.{name}" for home, names in layers.items() for name in names
               if not hasattr(importlib.import_module(f"wgspec.{home}"), name)]
    assert layers and not missing, missing
