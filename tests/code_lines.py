"""Code lines of each ``cellforest`` module, and their total.

A code line is a line that is not blank, is not only a comment and lies
outside every docstring (the leading string of a module, class or
function).  ``python tests/code_lines.py`` prints one ``count  module`` line
per module of ``src/cellforest`` and a ``total`` line; it reads the source
files only and imports nothing from the package.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cellforest"


def docstring_lines(tree):
    """The line numbers that docstrings occupy in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in ``source``."""
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


def main():
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:5d}  {path.name}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
