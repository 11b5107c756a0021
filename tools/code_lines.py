"""Count the code lines of Python sources, leaving out docstrings, comments
and blank lines.

A line counts when a token other than a comment, a newline or indentation
starts or runs on it, and that token is not part of a docstring: a string
that stands alone as the first statement of a module, class or function.

Usage, from the root of a checkout:

    python3 tools/code_lines.py src/qcdensity

prints one line per file, then the total. With no path it counts
src/qcdensity. A path that does not exist, or any option, is a usage error
(exit status 2).
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(source: str) -> set[int]:
    """The lines spanned by the docstrings of the module and of its classes
    and functions."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    docstrings = _docstring_lines(source)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIPPED or token.start[0] in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="code_lines.py", add_help=False)
    parser.add_argument("paths", nargs="*", type=Path, default=[Path("src/qcdensity")])
    paths = parser.parse_args(argv).paths
    for path in paths:
        if not path.exists():
            parser.error(f"no such file or directory: {path}")
    total = 0
    for path in paths:
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            count = code_lines(file.read_text())
            total += count
            print(f"{count:6d} {file}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
