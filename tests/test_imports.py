"""No module imports a name it never uses, and no module under ``src/``
defines a name that nothing reads.

Every ``.py`` under ``src/``, ``tests/`` and ``tools/`` is parsed with
``ast``.  A name counts as used when it is read anywhere in its module, in
code or in an annotation, or listed in the module's ``__all__``; scopes are
not told apart, so an import inside a function counts as used when the
name is read anywhere in the file.  ``from __future__`` imports are
directives, not names, and are skipped.

A module-level def, class or assignment under ``src/`` (dunder names
aside) is dead when no ``.py`` under ``src/``, ``bench/`` or ``tools/``
reads it: as a loaded name, as an attribute name, or as a name an import
lists.  A name that only tests read is dead too, because the product never
runs it; such code belongs under ``tests/``.  The scan does not tell
modules apart, so a name that another module reads off a different object
still counts as read.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for top in ("src", "tests", "tools") for path in (ROOT / top).rglob("*.py"))
READERS = ("src", "bench", "tools")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import json\nimport os.path\nfrom a import b as c, d\nfrom e import f\n"
        "__all__ = ['f']\n"
        "def g(x: d) -> None:\n    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(2, "json"), (4, "c")]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, ", ".join(f"{path.relative_to(ROOT)}:{line} {name}" for line, name in unused)


def defined_names(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name ``source`` binds at module level with a
    def, a class or an assignment, dunder names aside."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.extend(
                (node.lineno, sub.id)
                for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)
            )
    return [(line, name) for line, name in defined if not name.startswith("__")]


def read_names(source: str) -> set[str]:
    """Every name ``source`` reads: loaded names, attribute names and the
    names its imports list."""
    read: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(part for alias in node.names for part in alias.name.split("."))
    return read


def dead_names(sources: dict[str, str]) -> list[str]:
    """``path:line name`` for each module-level name of a ``src/`` module in
    ``sources`` (relative path to text) that no module under a top
    directory in :data:`READERS` reads."""
    read = set().union(
        *(read_names(text) for path, text in sources.items() if path.split("/")[0] in READERS)
    )
    return [
        f"{path}:{line} {name}"
        for path, text in sources.items() if path.startswith("src/")
        for line, name in defined_names(text) if name not in read
    ]


def test_the_scan_sees_a_dead_name():
    source = (
        "import os\nA, (B, C) = 1, (2, 3)\nD: int = A\n__all__ = []\n"
        "def f():\n    return B\nclass G:\n    pass\n"
    )
    assert defined_names(source) == [(2, "A"), (2, "B"), (2, "C"), (3, "D"), (5, "f"), (7, "G")]
    read = read_names(source + "from x import f\nos.G\n")
    assert {"A", "B", "f", "G"} <= read and not {"C", "D"} & read
    sources = {
        "src/m.py": "def used():\n    pass\ndef tested():\n    pass\n",
        "tools/t.py": "from m import used\n",
        "tests/test_m.py": "from m import tested\n",
    }
    assert dead_names(sources) == ["src/m.py:3 tested"]


def test_every_module_level_name_under_src_is_read():
    sources = {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for top in READERS for path in (ROOT / top).rglob("*.py")
    }
    dead = dead_names(sources)
    assert not dead, ", ".join(dead)
