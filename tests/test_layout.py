"""Module layout: every import at module top, every module-level name used
by the program or the acceptance tests, and every name the benchmark's
tracer binds (``cmbench/spans.py``) still present."""

import ast
import importlib
import importlib.util
from collections import defaultdict
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


def test_every_import_is_used():
    """Each name a src/cmtori module imports is used in that module: no
    module imports a name only to re-export it."""
    unused = []
    for path in sorted((ROOT / "src" / "cmtori").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}:{name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_traced_names_resolve():
    spans = _spans()
    for name, (module, attr) in spans.SPANS.items():
        assert callable(getattr(importlib.import_module(module), attr)), name
    for metric, targets in spans.CACHES.items():
        for module, attr in targets:
            fn = getattr(importlib.import_module(module), attr)
            assert hasattr(fn, "cache_info"), (metric, module, attr)


# Library features no program path reaches, kept for callers of the package.
LIBRARY = {"certify_family", "split_classifier", "datum_to_json"}


def _is_all(node):
    """A module-level ``__all__ = ...``: listing a name there is no use of it."""
    return (isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in getattr(node, "targets", [getattr(node, "target", None)])))


def _program_names():
    """Name -> [(file, line)] of every identifier, attribute, imported name and
    string constant in the Python files of src/, scripts/ and cmbench/ and in
    tests/test_acceptance.py: the program, its tools and the acceptance tests,
    not the other tests.  Module-level ``__all__`` assignments are skipped."""
    paths = [path for folder in ("src", "scripts", "cmbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    used = defaultdict(list)
    for path in paths + [ROOT / "tests" / "test_acceptance.py"]:
        module = ast.parse(path.read_text())
        module.body = [node for node in module.body if not _is_all(node)]
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            used[name].append((path, node.lineno))
    return used


def test_every_module_level_definition_is_used():
    """Each module-level def or class in src/cmtori is named outside its own
    definition by the program, its scripts, the benchmark or the acceptance
    tests, or is one of the ``LIBRARY`` features.  A function only the other
    tests call belongs in a test module such as ``tests/references.py``."""
    used = _program_names()
    unused = []
    for path in sorted((ROOT / "src" / "cmtori").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name not in LIBRARY):
                own = range(node.lineno, node.end_lineno + 1)
                if all(p == path and line in own for p, line in used[node.name]):
                    unused.append(f"{path.name}:{node.name}")
    assert unused == []


def test_all_assignments_are_not_uses():
    body = ast.parse("__all__ = ['f']\n__all__ += ['g']\n__all__: list = []\nf = 1").body
    assert [_is_all(node) for node in body] == [True, True, True, False]
