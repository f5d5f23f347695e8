"""Module layout: every import at module top, and every name the benchmark's
tracer binds (``cmbench/spans.py``) still present."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spans():
    spec = importlib.util.spec_from_file_location("cmbench_spans",
                                                  ROOT / "cmbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_function_level_imports():
    found = []
    for path in sorted((ROOT / "src" / "cmtori").glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_traced_names_resolve():
    spans = _spans()
    for name, (module, attr) in spans.SPANS.items():
        assert callable(getattr(importlib.import_module(module), attr)), name
    for metric, targets in spans.CACHES.items():
        for module, attr in targets:
            fn = getattr(importlib.import_module(module), attr)
            assert hasattr(fn, "cache_info"), (metric, module, attr)
