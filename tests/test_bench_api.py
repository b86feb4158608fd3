"""The benchmark under bench/ calls the library by name; a removed name would only show there as failed ops.

The bench sources are parsed, not imported or run.
"""

import ast
import importlib
from pathlib import Path

import graphmetrize

BENCH = Path(__file__).resolve().parent.parent / "bench"


def parsed(name):
    return ast.parse((BENCH / name).read_text(), filename=name)


def test_bench_gm_names_resolve():
    used = {
        (path.name, node.attr)
        for path in sorted(BENCH.glob("*.py"))
        for node in ast.walk(parsed(path.name))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "gm"
    }
    assert used
    assert [use for use in sorted(used) if not hasattr(graphmetrize, use[1])] == []


def test_bench_tracer_modules_import():
    modules = next(
        ast.literal_eval(node.value)
        for node in parsed("tracer.py").body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["MODULES"]
    )
    assert modules
    for module in modules:
        importlib.import_module(f"graphmetrize.{module}")
