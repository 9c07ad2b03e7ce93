"""Repository tooling: the checked-in line counter, the report digest and
its per-command pin, the benchmark's span table against the package it
wraps, and the summary of paired benchmark runs."""

import ast
import importlib
import importlib.util
import io
import os
import platform
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC_LINES = ROOT / "tools" / "src_lines.py"
REPORT_DIGEST = ROOT / "tools" / "report_digest.py"
REPORT_PIN = Path(__file__).with_name("report_digests.txt")
BENCH_PAIRS = ROOT / "tools" / "bench_pairs.py"

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


def _timed_table() -> tuple:
    """The ``TIMED`` literal of ``bench/spans.py``, read without importing it."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TIMED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py has no TIMED table")


def test_every_benchmark_wrap_point_resolves():
    # A traced benchmark run wraps each (module, attribute); one that no
    # longer exists would stop it at install time.
    table = _timed_table()
    assert table
    for module_name, attr, _ in table:
        owner = importlib.import_module(f"tracecontracts.{module_name}")
        if "." in attr:
            class_name, method = attr.split(".")
            assert callable(vars(getattr(owner, class_name)).get(method)), (module_name, attr)
        else:
            assert callable(getattr(owner, attr, None)), (module_name, attr)


def _tool(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _digest_lines(text: str) -> dict[str, str]:
    """Command name to digest, from ``--each`` output; the total as ``total``."""
    digests = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            digest, _, name = line.partition("  ")
            digests[name or "total"] = digest
    return digests


def test_report_digest_is_the_same_in_a_fresh_and_a_warm_process():
    # A fresh process, pinned per command, then this one (whose memos may be
    # warm) twice; each run also checks that its second pass repeats its first.
    package_root = Path(importlib.import_module("tracecontracts").__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(package_root), *filter(None, [os.environ.get("PYTHONPATH")])])}
    fresh = subprocess.run([sys.executable, str(REPORT_DIGEST), "--each"], capture_output=True,
                           text=True, check=True, env=env).stdout
    assert re.fullmatch(r"([0-9a-f]{64}  \S+\n)+[0-9a-f]{64}\n", fresh)
    got, pinned = _digest_lines(fresh), _digest_lines(REPORT_PIN.read_text(encoding="utf-8"))
    moved = [name for name in {**pinned, **got} if got.get(name) != pinned.get(name)]
    versions = f"Python {platform.python_version()}, numpy {np.__version__}"
    assert not moved, f"report bytes moved for {moved} under {versions}; see {REPORT_PIN.name}"
    tool = _tool(REPORT_DIGEST)
    for _ in range(2):
        printed = io.StringIO()
        with redirect_stdout(printed):
            assert tool.main_digest(["--each"]) == 0
        assert printed.getvalue() == fresh


def test_report_digest_exits_one_when_a_second_pass_differs(monkeypatch, capsys):
    tool = _tool(REPORT_DIGEST)
    first, second = {"a": "1", "b": "2", "c": "3"}, {"a": "1", "b": "9", "c": "3"}
    monkeypatch.setattr(tool, "report_digests", lambda root: (first, second))
    assert tool.main_digest(["--each"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[:3] == ["1  a", "2  b", "3  c"]
    assert err == "second run differs: b\n"
    monkeypatch.setattr(tool, "report_digests", lambda root: (first, dict(first)))
    assert tool.main_digest([]) == 0
    assert capsys.readouterr().out.splitlines() == out.splitlines()[3:]


def _bench_run(rate: float, rss: float, digest: str, failed: int = 0) -> dict:
    metrics = {"frames_per_ref": {"value": rate, "unit": "frames/ref"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"result": {"correct": True, "attempted": 10, "failed": failed, "metrics": metrics},
            "report_digest": digest}


def test_bench_pairs_summary_reads_better_from_the_declared_metrics():
    summarize = _tool(BENCH_PAIRS).summarize
    metrics = [{"name": "frames_per_ref", "unit": "frames/ref", "better": "higher", "bound": 0.2},
               {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]
    pairs = [
        {"seed": 1, "parent": _bench_run(100, 50, "d1"), "change": _bench_run(120, 51, "d1")},
        {"seed": 2, "parent": _bench_run(110, 52, "d2"), "change": _bench_run(105, 49, "d2")},
        {"seed": 3, "parent": _bench_run(90, 50, "d3"), "change": _bench_run(130, 50, "x", 1)},
        {"seed": 4, "parent": _bench_run(100, 48, "d4"), "change": _bench_run(125, 47, "d4")},
    ]
    summary = summarize(pairs, metrics)
    rate, rss = summary["metrics"]["frames_per_ref"], summary["metrics"]["peak_rss_mb"]
    assert rate["parent"] == {"median": 100, "q1": 97.5, "q3": 102.5}
    assert rate["change"] == {"median": 122.5, "q1": 116.25, "q3": 126.25}
    assert (rate["change_wins"], rate["pairs"], rate["better"]) == (3, 4, "higher")
    assert (rss["change_wins"], rss["unit"]) == (2, "MB")  # a tie is no win
    assert summary["digests_agree"] == {"1": True, "2": True, "3": False, "4": True}
    assert summary["correct"] is True
    assert summary["failed"] == {"parent": 0, "change": 1}
    one = summarize(pairs[:1], metrics)["metrics"]["frames_per_ref"]
    assert one["parent"] == {"median": 100, "q1": 100, "q3": 100}
