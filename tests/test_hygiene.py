"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import subprocess
from pathlib import Path

import pytest

from conftest import fresh_python

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "torusclass").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (isinstance(node, ast.ImportFrom)
                                         and node.module == "__future__"):
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _unreferenced_private_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level _private functions and classes that no code in the
    sources refers to outside their own definition."""
    defined = {}  # name -> module
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined[node.name] = module
    referenced = set()
    for tree in trees.values():
        for top in tree.body:
            own = getattr(top, "name", None)  # a definition's references to itself
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return [f"{module}: {name}" for name, module in defined.items() if name not in referenced]


def test_sources_found():
    assert any(path.name == "isosearch.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_cli_import_loads_no_heavy_module():
    # a fresh interpreter pays for every module the CLI imports; these
    # pull in inspect, ast, dis, decimal or datetime and are not needed
    heavy = ("click", "inspect", "dataclasses", "fractions", "decimal")
    modules = tuple("torusclass." + path.stem for path in SOURCES if path.stem != "__init__")
    code = ("import sys, torusclass.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules]); "
            f"print([m for m in {modules!r} if m not in sys.modules])")
    proc = fresh_python("-c", code, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    # nothing heavy, and no module of the package left to a lazy import
    assert out.split("\n")[:2] == ["[]", "[]"]


def test_every_private_definition_is_used():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert _unreferenced_private_definitions(trees) == []
