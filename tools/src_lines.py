"""Count the lines of the Python modules under a source tree.

For each module, and in total, prints the physical lines and the
code-only lines: lines that hold a token other than a comment and lie
outside every module, class and function docstring, so blank lines,
comment lines and docstrings do not count.  Standard library only.

    python tools/src_lines.py [ROOT]    # ROOT defaults to src
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(source: str) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(data: bytes) -> tuple[int, int]:
    """Physical and code-only line counts of one module's bytes."""
    source = data.decode("utf-8")
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(data.splitlines()), len(code - _docstring_lines(source))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default="src", type=Path)
    root = parser.parse_args(argv).root
    total_lines = total_code = 0
    print(f"{'lines':>7} {'code':>7}  module")
    for path in sorted(root.rglob("*.py")):
        lines, code = count_lines(path.read_bytes())
        total_lines += lines
        total_code += code
        print(f"{lines:>7} {code:>7}  {path.relative_to(root).as_posix()}")
    print(f"{total_lines:>7} {total_code:>7}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
