"""The benchmark's tracer wraps every (layer, name) in perfbench/spans.py's
BOUNDARIES by getattr on orthosign.<layer>; a name deleted or renamed in the
package would crash every traced benchmark run.  spans.py is loaded from its
path and left as it is: no bytecode is written next to it."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_boundary_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.BOUNDARIES
    for layer, name in spans.BOUNDARIES:
        assert layer in spans.LAYERS
        module = importlib.import_module(f"orthosign.{layer}")
        assert callable(getattr(module, name, None)), f"orthosign.{layer}.{name} is traced but missing"
