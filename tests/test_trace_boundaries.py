"""The benchmark reaches into the package by name, and a name deleted or
renamed in the package would crash it.  Its tracer wraps every (layer, name)
in perfbench/spans.py's BOUNDARIES by getattr on orthosign.<layer>, and its
workloads, runner and smoke tests read orthosign.<layer>.<name> attributes.
The benchmark files are left as they are: spans.py is loaded from its path
with no bytecode written next to it, and the others are only parsed."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves(spans):
    assert spans.BOUNDARIES
    for layer, name in spans.BOUNDARIES:
        assert layer in spans.LAYERS
        module = importlib.import_module(f"orthosign.{layer}")
        assert callable(getattr(module, name, None)), f"orthosign.{layer}.{name} is traced but missing"


def layer_attributes(path: Path, layers) -> set:
    """(layer, name) for every attribute the file reads off a layer module it
    imported with `from orthosign import <layer>`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {alias.asname or alias.name: alias.name
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "orthosign"
             for alias in node.names if alias.name in layers}
    return {(bound[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound}


def test_every_benchmark_attribute_resolves(spans):
    for script in ("workloads.py", "run.py", "test_smoke.py"):
        used = layer_attributes(PERFBENCH / script, spans.LAYERS)
        assert used, f"perfbench/{script} reads no orthosign layer attribute"
        for layer, name in sorted(used):
            module = importlib.import_module(f"orthosign.{layer}")
            assert hasattr(module, name), f"perfbench/{script} uses orthosign.{layer}.{name}, which is missing"
