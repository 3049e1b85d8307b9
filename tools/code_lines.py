"""Count the lines and the code lines of each module of a Python package.

A code line holds a token that is not a comment and is no part of a
docstring (the string that opens a module, class or function body). Blank
lines, comment lines and docstrings are not code lines; a line of code that
ends in a comment is one.

    python3 tools/code_lines.py [PACKAGE_DIR]    # default: src/regeval

Prints one row per module, sorted by name, then the totals.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(lines, code lines) of the Python file at `path`."""
    source = path.read_bytes()
    code: set[int] = set()
    with path.open("rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in _NOT_CODE:
                code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/regeval")
    total_lines = total_code = 0
    print(f"{'module':<24} {'lines':>6} {'code':>6}")
    for path in sorted(root.glob("*.py")):
        lines, code = count(path)
        total_lines += lines
        total_code += code
        print(f"{path.name:<24} {lines:>6} {code:>6}")
    print(f"{'total':<24} {total_lines:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
