"""Every name a module of the package imports is used in that module.

``__init__.py`` is exempt: its imports are the package's exports.  A name
counts as used when it appears as a name anywhere in the module's syntax
tree, so an import kept only for its side effects would need a use.
"""

import ast
from pathlib import Path

import pytest

import cellforest

PACKAGE = Path(cellforest.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names that ``source`` binds by an import and never reads, in order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in sorted(imported) if name not in used]


def test_the_checker_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom math import gcd as g, prod\nprint(prod)\n"
    assert unused_imports(source) == [(2, "os"), (3, "g")]
    assert unused_imports("import os.path\nos.path.join\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_uses(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
