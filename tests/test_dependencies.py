"""The package imports only the standard library, numpy and itself, and
holds only code that its products run or that it exports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import harmeans

SRC = Path(__file__).resolve().parents[1] / "src" / "harmeans"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "harmeans"}


def imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = sorted(set(imported_roots(tree)) - ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}"


def test_every_top_level_def_is_used_in_the_package_or_public():
    # code that only the tests call belongs in the tests, as an oracle
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")]
    references = [
        (node, node.id if isinstance(node, ast.Name) else node.attr)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    unused = []
    for tree in trees:
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = set(map(id, ast.walk(definition)))
            if definition.name not in harmeans.__all__ and not any(
                name == definition.name and id(node) not in own for node, name in references
            ):
                unused.append(definition.name)
    assert not unused, f"neither referenced in src/harmeans nor in __all__: {sorted(unused)}"


def test_import_loads_no_process_machinery():
    # the lab forks its workers on a cell's first split; importing the
    # package, as every `harmeans` command does first, stays as cheap as before
    code = ("import sys, harmeans, harmeans.cli; "
            "print(*sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert out.stdout.split() == [], out.stdout
