"""hardgraph imports nothing outside the standard library, and no
``dataclasses``: its class set-up costs every cold start (the value types are
``NamedTuple``s and ``__slots__`` classes instead)."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def absolute_imports():
    """(file:line, module) for every absolute import in src/hardgraph/*.py."""
    for path in sorted((ROOT / "src" / "hardgraph").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            yield from ((f"{path.name}:{node.lineno}", name) for name in names)


def test_every_import_is_stdlib_or_hardgraph():
    outside = [f"{where}: {name}" for where, name in absolute_imports()
               if name.split(".")[0] not in sys.stdlib_module_names | {"hardgraph"}]
    assert outside == []


def test_no_dataclasses():
    assert [f"{where}: {name}" for where, name in absolute_imports()
            if name.split(".")[0] == "dataclasses"] == []


def test_no_runtime_dependencies_declared():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
