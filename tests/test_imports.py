"""Every name a module of the package imports is read in that module.

No linter ships with the project, so this is the check: each source file
is parsed, and a name bound by an import must be read somewhere in it.
Names listed in the module's __all__ are its exports and count as read;
__future__ imports are compiler directives, not names.
"""

import ast
from pathlib import Path

import pytest

import resilat

SOURCES = sorted(Path(resilat.__file__).parent.glob("*.py"))


def _exports(tree: ast.Module) -> set[str]:
    """The strings of a module-level __all__ list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, in order of import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # import a.b binds a
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read | _exports(tree)]


def test_the_check_sees_unused_and_exported_names():
    source = ("from __future__ import annotations\n"
              "import os.path, sys\n"
              "from json import dumps, loads as parse\n"
              "__all__ = ['dumps']\n"
              "print(os.sep)\n")
    assert unused_imports(source) == ["sys", "parse"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []
