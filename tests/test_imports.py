"""No module imports a name it never uses.

Every ``.py`` under ``src/``, ``tests/`` and ``tools/`` is parsed with
``ast``.  A name counts as used when it is read anywhere in its module, in
code or in an annotation, or listed in the module's ``__all__``; scopes are
not told apart, so an import inside a function counts as used when the
name is read anywhere in the file.  ``from __future__`` imports are
directives, not names, and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for top in ("src", "tests", "tools") for path in (ROOT / top).rglob("*.py"))


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
