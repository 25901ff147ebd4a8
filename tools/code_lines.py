"""Code lines of each Python module, counted from its tokens, beside ``wc -l``.

Run from the root of a checkout:

    python tools/code_lines.py            # the modules under src/
    python tools/code_lines.py src tools  # or any files and directories

A code line holds at least one token other than a comment or a line
break; docstrings (the string that opens a module, class or function)
are left out, and so are blank lines.  A token that spans lines, such as
a triple-quoted string that is not a docstring, counts on every line it
spans.  Each module is printed with its code lines and its ``wc -l``
count, then each argument's total.  Only the stdlib is used.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(code lines, wc -l)`` of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings), source.count("\n")


def _modules(arg: Path) -> list[Path]:
    return sorted(arg.rglob("*.py")) if arg.is_dir() else [arg]


def main(argv: list[str]) -> int:
    for arg in map(Path, argv or ["src"]):
        total_code = total_lines = 0
        for path in _modules(arg):
            code, lines = count(path.read_text(encoding="utf-8"))
            total_code += code
            total_lines += lines
            print(f"{code:7,} {lines:7,}  {path}")
        print(f"{total_code:7,} {total_lines:7,}  {arg} (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
