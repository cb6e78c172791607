"""Count the lines of Python modules: total lines and code lines.

A code line holds at least one token that is not a comment and is not
part of a docstring; blank lines, comment lines and docstring lines do not
count.  Tokens come from ``tokenize`` and docstrings from ``ast`` (the
first statement of a module, class or function body, when it is a string
constant).

Usage::

    python scripts/count_lines.py [DIR_OR_FILE ...]   # default: src/trialab

Prints one row per module and a total row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that never make a line a code line.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    skip = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        for line in range(tok.start[0], tok.end[0] + 1):
            if line not in skip:
                code.add(line)
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    paths = []
    for arg in argv or ["src/trialab"]:
        p = Path(arg)
        paths += sorted(p.glob("*.py")) if p.is_dir() else [p]
    total = code = 0
    print(f"{'module':<24s} {'lines':>6s} {'code':>6s}")
    for path in paths:
        t, c = count(path.read_text(encoding="utf-8"))
        total += t
        code += c
        print(f"{path.stem:<24s} {t:6d} {c:6d}")
    print(f"{'total':<24s} {total:6d} {code:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
