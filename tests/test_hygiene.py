"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import fresh_python

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "torusclass").glob("*.py"))
BENCH_SOURCES = sorted((ROOT / "perfbench").glob("*.py"))


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


def _outside_imports(tree: ast.Module) -> list[str]:
    """Modules imported anywhere in the tree, nested imports included,
    that are neither in the standard library nor torusclass."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names | {"torusclass"}]
    return found


def _references(trees, strings: bool = False) -> set[str]:
    """Names that code in the trees refers to outside the top-level
    definition of the same name: as a name, an attribute or an imported
    name, and with `strings` also as a string (a function looked up by
    name)."""
    referenced = set()
    for tree in trees:
        for top in tree.body:
            own = getattr(top, "name", None)  # a definition's references to itself
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return referenced


def _unreferenced_definitions(trees: dict[str, ast.Module], private: bool,
                              callers=()) -> list[str]:
    """Module-level functions and classes, _private or public, that no code
    in the sources refers to outside their own definition, and that no code
    in `callers` refers to, by name or by a string."""
    defined = {}  # name -> module
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")
                    and node.name.startswith("_") == private):
                defined[node.name] = module
    referenced = _references(trees.values()) | _references(callers, strings=True)
    return [f"{module}: {name}" for name, module in defined.items() if name not in referenced]


def _module_level_empty_containers(tree: ast.Module) -> list[str]:
    """Module-level names bound to an empty {}, [], dict(), set() or list():
    state kept between calls, where the program means to keep none."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        empty = ((isinstance(value, ast.Dict) and not value.keys)
                 or (isinstance(value, ast.List) and not value.elts)
                 or (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                     and value.func.id in ("dict", "set", "list")
                     and not value.args and not value.keywords))
        if empty:
            found += [f"{ast.unparse(t)} (line {node.lineno})" for t in targets]
    return found


def test_sources_found():
    assert any(path.name == "isosearch.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_the_package(path):
    # the package declares no runtime dependency
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _outside_imports(tree) == []


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


def _trees(paths) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def test_every_private_definition_is_used():
    assert _unreferenced_definitions(_trees(SOURCES), private=True) == []


def test_every_public_definition_is_used_outside_the_tests():
    # a public function or class that only the tests call belongs in
    # tests/reference.py; the benchmark harness counts as a caller, also of
    # what its tracer wraps by name
    bench = _trees(BENCH_SOURCES).values()
    assert bench
    assert _unreferenced_definitions(_trees(SOURCES), private=False, callers=bench) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_empty_container(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _module_level_empty_containers(tree) == []
