"""Count the code lines of each module of ``src/gkprep``.

A code line is a line that is not blank, not a ``#`` comment and not inside
a module, class or function docstring; docstrings are found from the AST.
The files are read as text and parsed, never imported.

    python tests/code_lines.py [SRC_DIR]

prints one ``<lines> <module>`` row per module, then ``<lines> total``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gkprep"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstring of the module and of every class and function."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(
        1 for number, line in enumerate(text.splitlines(), start=1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else SRC
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:5d} {path.stem}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
