"""The checked-in line counter: physical and code-only lines of a tree."""

import subprocess
import sys
from pathlib import Path

SRC_LINES = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

SAMPLE = '''"""A module docstring
over two lines."""

# a comment line
import math


def area(r):
    """One-line function docstring."""
    return math.pi * r * r  # a trailing comment
'''


def test_src_lines_counts_physical_and_code_only_lines(tmp_path):
    # 10 physical lines; code-only: the import, the def and the return.
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "sample.py").write_text(SAMPLE)
    (package / "empty.py").write_text("")
    out = subprocess.run(
        [sys.executable, str(SRC_LINES), str(tmp_path)],
        capture_output=True, text=True, check=True,
    ).stdout
    rows = [line.split() for line in out.splitlines()]
    assert rows == [
        ["lines", "code", "module"],
        ["0", "0", "pkg/empty.py"],
        ["10", "3", "pkg/sample.py"],
        ["10", "3", "total"],
    ]
