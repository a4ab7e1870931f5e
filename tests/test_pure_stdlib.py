"""hardgraph imports nothing outside the standard library, and no
``dataclasses``: its class set-up costs every cold start (the value types are
``NamedTuple``s and ``__slots__`` classes instead).  Its own modules form
layers: none imports one above it, but for the graph JSON stubs on ``ArchGraph``."""

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


def package_imports() -> set:
    """(importer, imported) for every relative import between src/hardgraph/*.py modules,
    at the top of a module or inside a function; ``__init__`` stands for the package."""
    modules = {path.stem for path in (ROOT / "src" / "hardgraph").glob("*.py")}
    edges = set()
    for module in modules:
        path = ROOT / "src" / "hardgraph" / f"{module}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = ([node.module] if node.module else
                         [a.name if a.name in modules else "__init__" for a in node.names])
                edges.update((module, name) for name in names if name != module)
    return edges


# bottom first; ArchGraph.to_json and from_json, in graph_ir, call into jsonio
LAYERS = ("__init__", "graph_ir", "jsonwriter", "jsonio", "layer_table", "metrics", "latency",
          "liveness", "blocks", "harmonic", "references", "registry", "catalog", "cli")


def test_the_only_two_way_import_is_graph_ir_and_jsonio():
    edges = package_imports()
    assert sorted(e for e in edges if e[::-1] in edges) == [("graph_ir", "jsonio"),
                                                            ("jsonio", "graph_ir")]
    assert {module for edge in edges for module in edge} <= set(LAYERS)
    upward = sorted((a, b) for a, b in edges if LAYERS.index(b) > LAYERS.index(a))
    assert upward == [("graph_ir", "jsonio")]


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
