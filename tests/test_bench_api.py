"""The benchmark under bench/ calls the library by name; a removed name or result field would only show there as failed ops.

The names bench/ uses are found by parsing its sources.  Its workloads
module is also loaded by path and run: the corpus's library calls and
the path workload's CLI commands at a tiny size, and the spectral
workload's CLI commands at the n = 200 its radii are tuned for, each with
its own checks.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import graphmetrize
from graphmetrize.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def parsed(name):
    return ast.parse((BENCH / name).read_text(), filename=name)


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it executes
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


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


def test_bench_corpus_verifies_through_the_library(workloads):
    items = workloads.CorpusWorkload(size=6, n_low=20, n_high=40).make(3)
    for _, values, center in items:
        out = workloads.verify_with_library(graphmetrize, graphmetrize.affinity_matrix(values), center)
        assert out["passed"]


def test_bench_path_workload_passes_its_checks(workloads, tmp_path):
    workload = workloads.PathWorkload(n=60)
    params = workload.params(1)
    for name, argv in workload.commands(tmp_path, params):
        assert main(argv) == 0, name
    checks = workload.checks(tmp_path, params, workload.oracle())
    assert {name: check() for name, check in checks.items()} == {name: [] for name in checks}


def test_bench_spectral_workload_passes_its_checks(workloads, tmp_path):
    workload = workloads.SpectralWorkload()
    params = workload.params(1)
    assert main(workload.setup_argv(tmp_path)) == 0
    for name, argv in workload.commands(tmp_path, params):
        assert main(argv) == 0, name
    checks = workload.checks(tmp_path, params, workload.oracle())
    assert {name: check() for name, check in checks.items()} == {name: [] for name in checks}
