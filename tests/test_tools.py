"""Repository tooling: the checked-in line counter, the report digest and
its per-command pin, the benchmark's span table against the package it
wraps, the package's exports against their readers outside the tests, the
package modules' imports against their reads, and the summary of paired
benchmark runs."""

import ast
import importlib
import importlib.util
import io
import json
import os
import platform
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

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


def test_src_lines_prints_the_change_from_a_base_tree(tmp_path):
    # The head edits sample.py, adds added.py and drops dropped.py.
    base, head = tmp_path / "base", tmp_path / "head"
    for root in (base, head):
        root.mkdir()
    (base / "sample.py").write_text(SAMPLE)
    (base / "dropped.py").write_text("x = 1\ny = 2\n")
    (head / "sample.py").write_text(SAMPLE + "\n\nPI2 = 2 * math.pi\n")
    (head / "added.py").write_text("# only a comment\n")
    out = subprocess.run(
        [sys.executable, str(SRC_LINES), str(base), str(head)],
        capture_output=True, text=True, check=True,
    ).stdout
    rows = [line.split() for line in out.splitlines()]
    assert rows == [
        ["lines", "code", "+lines", "+code", "module"],
        ["1", "0", "+1", "+0", "added.py"],
        ["0", "0", "-2", "-2", "dropped.py"],
        ["13", "4", "+3", "+1", "sample.py"],
        ["14", "4", "+2", "-1", "total"],
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


def test_every_package_export_is_read_outside_tests():
    # A name the package exports that only tests read belongs in tests/gen.py.
    # Readers, by word match: another package module than the defining one,
    # the README, or a script under bench/ or tools/.
    package = ROOT / "src" / "tracecontracts"
    tree = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert exports
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in package.glob("*.py") if path.stem != "__init__"}
    scripts = [path.read_text(encoding="utf-8")
               for folder in ("bench", "tools") for path in (ROOT / folder).rglob("*.py")]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unread = []
    for module, name in exports:
        word = re.compile(rf"\b{re.escape(name)}\b")
        texts = [text for stem, text in modules.items() if stem != module]
        if not any(word.search(text) for text in [*texts, readme, *scripts]):
            unread.append(f"{module}.{name}")
    assert not unread, f"exported but read only by tests: {unread}"


def test_no_package_module_imports_a_name_it_never_reads():
    # In every module but __init__.py, each imported name is read as a Name
    # in that module or listed in its __all__; the __future__ import is not
    # a name.
    unread = []
    for path in sorted((ROOT / "src" / "tracecontracts").glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exported = {name for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(target, "id", None) == "__all__" for target in node.targets)
                    for name in ast.literal_eval(node.value)}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read | exported:
                        unread.append(f"{path.stem}.{name}")
    assert not unread, f"imported but never read: {unread}"


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
    # Against the bounds: rate's parent median 100 allows 20, its IQR is 5.
    assert (rate["bound"], rate["worse_than_bound"], rate["unresolved"]) == (0.2, False, False)
    assert rate["gain_rule_met"] is False  # 3 wins of 4 pairs, under 0.9
    assert (rss["bound"], rss["worse_than_bound"], rss["unresolved"]) == (0.1, False, False)
    assert rss["gain_rule_met"] is False  # median 49.5 against 50, IQR 1
    won = summarize([pairs[0], *pairs[2:]], metrics)["metrics"]["frames_per_ref"]
    assert won["change_wins"] == won["pairs"] == 3
    assert won["gain_rule_met"] is True  # medians 100 and 125, IQR 5
    flipped = [{**metrics[0], "better": "lower"}, {**metrics[1], "bound": 0.01}]
    rate, rss = summarize(pairs, flipped)["metrics"].values()
    assert (rate["worse_than_bound"], rate["gain_rule_met"]) == (True, False)  # 22.5 > 20
    assert (rss["worse_than_bound"], rss["unresolved"]) == (False, True)  # IQR 1 > 0.5


def test_bench_pairs_refuses_zero_pairs(tmp_path, capsys):
    argv = [str(tmp_path), str(tmp_path), "--workload", "long_trace", "--pairs", "0",
            "--seconds", "1", "--seed", "1", "--out", str(tmp_path / "out.json")]
    with pytest.raises(SystemExit) as stop:
        _tool(BENCH_PAIRS).main(argv)
    assert stop.value.code == 2
    assert "--pairs must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


STUB_RUN = '''import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
workload, seed = args["--workload"], int(args["--seed"])
if seed >= FAIL_FROM:
    print("stub run failed", file=sys.stderr)
    raise SystemExit(3)
out = Path(".bench_out")
out.mkdir(exist_ok=True)
record = {"report_digest": "d", "machine": {"nproc": 1}}
(out / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))
metrics = {"frames_per_ref": {"value": 100.0 + seed, "unit": "frames/ref"}}
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}))
'''


def test_bench_pairs_keeps_the_finished_pairs_when_a_run_fails(tmp_path):
    # The change tree's run fails from seed 2 on, in pair 2, where it runs first.
    declared = {"end_to_end": [{"name": "frames_per_ref", "unit": "frames/ref",
                                "better": "higher", "bound": 0.2}]}
    trees = []
    for name, fail_from in (("parent", 99), ("change", 2)):
        (tmp_path / name / "bench").mkdir(parents=True)
        (tmp_path / name / "bench" / "run.py").write_text(
            STUB_RUN.replace("FAIL_FROM", str(fail_from)))
        (tmp_path / name / "BENCHMARK.json").write_text(json.dumps(declared))
        trees.append(str(tmp_path / name))
    out = tmp_path / "out.json"
    argv = [*trees, "--workload", "long_trace", "--pairs", "4", "--seconds", "1",
            "--seed", "1", "--out", str(out)]
    assert _tool(BENCH_PAIRS).main(argv) == 1
    result = json.loads(out.read_text())
    assert result["correct"] is False
    first, failed = result["runs"]
    assert (first["seed"], failed["seed"], failed["first"]) == (1, 2, "change")
    assert first["change"]["result"]["metrics"]["frames_per_ref"]["value"] == 101.0
    assert failed["change"] == {"returncode": 3, "stderr": ["stub run failed"]}
    assert "parent" not in failed
    assert result["metrics"]["frames_per_ref"]["pairs"] == 1
    assert result["digests_agree"] == {"1": True}
