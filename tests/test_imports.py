"""Every name a module of the package imports is read in that module, and
every private name a module defines is read somewhere in the package.

No linter ships with the project, so this is the check: each source file
is parsed, and a name bound by an import must be read somewhere in it.
Names listed in the module's __all__ are its exports and count as read;
__future__ imports are compiler directives, not names.  A module-level
function, class or constant whose name starts with one underscore must be
read by some module of the package: as a name, an attribute or an import.
A public module-level function or class must be named by a module of the
package, a demo, a benchmark file or a word of the README, so an API that
only its own tests call is caught.  So must a public method or property
of a class of the package: a module, a demo or a benchmark file reads it
as an attribute or names it in a string constant (the getattr dispatch
of the term nodes' op and the CLI's table ops), or a code span of the
README holds it.
"""

import ast
import re
from pathlib import Path

import pytest

import resilat

SOURCES = sorted(Path(resilat.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


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


def _defined(tree: ast.Module) -> list[str]:
    """The names a module's top-level statements define."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return out


def _read(trees) -> set[str]:
    """The names the trees read: as a name, an attribute or an import."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """module.name for each private module-level name of sources (module
    name -> text) that no module reads, in order of definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = _read(trees.values())
    return [f"{module}.{name}" for module, tree in trees.items() for name in _defined(tree)
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_the_check_sees_unread_private_names():
    sources = {
        "a": ("_LIMIT, _SPARE = 3, 4\n"
              "_count: int = 0\n"
              "class _Kept: pass\n"
              "def _helper(): return _LIMIT\n"
              "def _leftover(): pass\n"
              "__all__ = []\n"),
        "b": "from a import _Kept\nimport a\nprint(a._helper(), a._count)\n",
    }
    assert unread_private_names(sources) == ["a._SPARE", "a._leftover"]


def test_every_private_name_is_read():
    assert unread_private_names({path.stem: path.read_text() for path in SOURCES}) == []


def unnamed_public_names(sources: dict[str, str], readers: list[str], readme: str) -> list[str]:
    """module.name for each public module-level function or class of
    sources (module name -> text) that neither a module of sources nor a
    reader text reads, and that is no word of readme, in order of
    definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    named = _read([*trees.values(), *map(ast.parse, readers)]) | set(re.findall(r"\w+", readme))
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in named]


def test_the_check_sees_unnamed_public_names():
    sources = {
        "a": ("def imported(): pass\n"
              "def called(): pass\n"
              "class Documented: pass\n"
              "def spare(): pass\n"
              "class Unused: pass\n"
              "def _private(): pass\n"
              "LIMIT = 3\n"),
        "b": "from a import imported\n",
    }
    readers = ["import a\nprint(a.called())\n"]
    readme = "`Documented` is the one class; a spare part is not code.\n"
    assert unnamed_public_names(sources, readers, readme) == ["a.Unused"]


def test_every_public_name_is_named_outside_the_tests():
    readers = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    assert readers
    assert unnamed_public_names({path.stem: path.read_text() for path in SOURCES},
                                [path.read_text() for path in readers],
                                (ROOT / "README.md").read_text()) == []


def unnamed_public_members(sources: dict[str, str], readers: list[str], readme: str) -> list[str]:
    """module.Class.name for each public method or property of a
    module-level class of sources (module name -> text) that no module of
    sources and no reader text reads as an attribute or names in a string
    constant, and that no code span of readme holds, in order of
    definition.  Dunder methods are exempt."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    named = set()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    for _, span in re.findall(r"(`+)(.+?)\1", readme, re.S):
        named.update(re.findall(r"\w+", span))
    return [f"{module}.{cls.name}.{node.name}"
            for module, tree in trees.items() for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_") and node.name not in named]


def test_the_check_sees_unnamed_public_members():
    sources = {
        "a": ("class Box:\n"
              "    LIMIT = 3\n"
              "    def __init__(self): pass\n"
              "    def read(self): pass\n"
              "    def dispatched(self): pass\n"
              "    @property\n"
              "    def documented(self): pass\n"
              "    def spare(self): pass\n"
              "    @property\n"
              "    def unused(self): pass\n"
              "    def _private(self): pass\n"
              "def spare(): pass\n"),
        "b": "import a\nprint(getattr(a.Box(), 'dispatched'))\n",
    }
    readers = ["import a\na.Box().read()\n"]
    readme = "```\nBox().documented\n```\nA spare part and an unused one are not code.\n"
    assert unnamed_public_members(sources, readers, readme) == ["a.Box.spare", "a.Box.unused"]


def test_every_public_member_is_named_outside_the_tests():
    readers = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    assert unnamed_public_members({path.stem: path.read_text() for path in SOURCES},
                                  [path.read_text() for path in readers],
                                  (ROOT / "README.md").read_text()) == []
