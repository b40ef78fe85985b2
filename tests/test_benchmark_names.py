"""The benchmark's tracer wraps package functions by name; those names must exist."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def test_every_traced_name_resolves_in_its_module():
    # parsed, not imported: the tracer needs numpy and the benchmark's own
    # import path, and a missing name would only show when it installs
    tree = ast.parse(TRACING.read_text())
    (layers,) = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)]
    missing = [f"{module}.{name}" for module, names in layers.items() for name in names
               if not hasattr(importlib.import_module(f"taupart.{module}"), name)]
    assert layers and not missing
