"""Count the code lines of each module of ``src/gkprep``.

A code line is a line that is not blank, not a ``#`` comment and not inside
a module, class or function docstring; docstrings are found from the AST.
The files are read as text and parsed, never imported.

    python tests/code_lines.py [SRC_DIR]
    python tests/code_lines.py OLD_DIR NEW_DIR

The first form prints one ``<lines> <module>`` row per module, then
``<lines> total``.  The second prints ``<old> <new> <difference> <module>``
for every module of either directory (0 where a directory lacks it), then
the same row for the totals.
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


def module_lines(src: Path) -> dict[str, int]:
    return {path.stem: code_lines(path) for path in sorted(src.glob("*.py"))}


def main(argv: list[str]) -> int:
    if len(argv) > 3 or not all(Path(arg).is_dir() for arg in argv[1:]):
        print("usage: code_lines.py [SRC_DIR | OLD_DIR NEW_DIR], each an existing directory",
              file=sys.stderr)
        return 2
    tables = [module_lines(Path(arg)) for arg in argv[1:]] or [module_lines(SRC)]
    rows = [(stem, [table.get(stem, 0) for table in tables])
            for stem in sorted(set().union(*tables))]
    rows.append(("total", [sum(table.values()) for table in tables]))
    for name, counts in rows:
        fields = [f"{count:5d}" for count in counts]
        if len(counts) == 2:
            fields.append(f"{counts[1] - counts[0]:+5d}")
        print(*fields, name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
