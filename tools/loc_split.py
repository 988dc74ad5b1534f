"""Count the lines of Python files as code, docstring, comment and blank.

    python3 tools/loc_split.py [PATH ...]      # default: src/fbenv

A docstring is the leading string of a module, class or function, found
with ``ast``; all of its lines count, blank ones included. A comment line
holds nothing but a comment, found with ``tokenize``. A blank line is
empty or whitespace outside a docstring. Every other line is code, so a
line of code with a trailing comment is code. The four kinds sum to each
file's physical line count.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
DEFAULT_PATH = Path(__file__).resolve().parent.parent / "src" / "fbenv"


def split(source: str) -> dict[str, int]:
    """The line count of each kind in one file's ``source``."""
    lines = source.splitlines()
    kind = ["code"] * len(lines)
    for number, line in enumerate(lines):
        if not line.strip():
            kind[number] = "blank"
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        row, column = token.start
        if token.type == tokenize.COMMENT and not lines[row - 1][:column].strip():
            kind[row - 1] = "comment"
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                for number in range(first.lineno - 1, first.end_lineno):
                    kind[number] = "docstring"
    return {name: kind.count(name) for name in KINDS}


def files(paths: list[Path]) -> list[Path]:
    return sorted(p for path in paths for p in ([path] if path.is_file() else path.rglob("*.py")))


def main(argv: list[str]) -> int:
    paths = files([Path(arg) for arg in argv] or [DEFAULT_PATH])
    total = dict.fromkeys(KINDS, 0)
    width = max([len(str(path)) for path in paths] + [5])
    print(f"{'file':<{width}} " + " ".join(f"{name:>9}" for name in (*KINDS, "total")))
    for path in paths:
        counts = split(path.read_text(encoding="utf-8"))
        for name in KINDS:
            total[name] += counts[name]
        row = [counts[name] for name in KINDS] + [sum(counts.values())]
        print(f"{str(path):<{width}} " + " ".join(f"{value:>9}" for value in row))
    row = [total[name] for name in KINDS] + [sum(total.values())]
    print(f"{'total':<{width}} " + " ".join(f"{value:>9}" for value in row))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
