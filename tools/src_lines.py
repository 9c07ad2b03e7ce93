"""Count the lines of the Python modules under a source tree.

For each module, and in total, prints the physical lines and the
code-only lines: lines that hold a token other than a comment and lie
outside every module, class and function docstring, so blank lines,
comment lines and docstrings do not count.  Standard library only.

    python tools/src_lines.py [ROOT]        # ROOT defaults to src
    python tools/src_lines.py BASE HEAD     # HEAD's counts, and their change from BASE

Given two roots, each module of either tree is printed with HEAD's counts
(0 for a module HEAD lacks) and then their signed change against BASE's.
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


def _counts(root: Path) -> dict[str, tuple[int, int]]:
    """Physical and code-only lines of each module under ``root``, by path."""
    return {
        path.relative_to(root).as_posix(): count_lines(path.read_bytes())
        for path in sorted(root.rglob("*.py"))
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default="src", type=Path)
    parser.add_argument("head", nargs="?", default=None, type=Path)
    args = parser.parse_args(argv)
    head = _counts(args.head or args.root)
    base = {} if args.head is None else _counts(args.root)
    rows = [(name, head.get(name, (0, 0)), base.get(name, (0, 0)))
            for name in sorted(head.keys() | base.keys())]
    head_total = tuple(sum(row[1][i] for row in rows) for i in (0, 1))
    base_total = tuple(sum(row[2][i] for row in rows) for i in (0, 1))
    rows.append(("total", head_total, base_total))
    change = "" if args.head is None else f" {'+lines':>7} {'+code':>7}"
    print(f"{'lines':>7} {'code':>7}{change}  module")
    for name, now, before in rows:
        cells = f"{now[0]:>7} {now[1]:>7}"
        if args.head is not None:
            cells += f" {now[0] - before[0]:>+7} {now[1] - before[1]:>+7}"
        print(f"{cells}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
