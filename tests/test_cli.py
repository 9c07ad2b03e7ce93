"""Command line front end: exit codes, report files, determinism."""

import builtins
import codecs
import csv
import hashlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracecontracts
from tracecontracts import basis, contracts, frames, lexer, parser
from tracecontracts.basis import save_calibration
from tracecontracts.cli import main
from tracecontracts.contracts import default_contract_text, parse_contract_text
from tracecontracts.intervals import Matching
from tracecontracts.fixtures import bridge_fixture, calibration_cases, stress_track, worked_trace
from tracecontracts.tracefile import (
    TraceFile,
    TraceFormatError,
    load_trace,
    mask_to_string,
    parse_mask,
    save_trace,
    trace_from_dict,
)

from gen import (
    ALL_PREDICATES,
    NOT_LINE_ENDS,
    contract_mutations,
    contract_texts,
    fuzz_cases,
    fuzz_traces,
)


H = 0.02

WORKED_CONTRACT = """\
# per-clause radii chosen for the worked trace reading
set tolerance 0.08
set silence_radius 0.04
frame onset_guard : ref_onset -> N[0.06] pred_onset @ ref_onset
frame offset_guard : ref_offset -> N[0.08] pred_offset @ ref_offset
frame missing_guard : ref_active -> N[0.08] pred_active @ ref_active
frame spurious_guard : pred_active -> N[0.08] ref_active @ pred_active
frame silence_guard : pred_active -> N[0.04] ref_active @ pred_active
event duration_guard : duration_within @ matched_pairs
event fragmentation_guard : singly_covered @ reference_intervals
"""

# A frame clause that the witness pass does not count, so that a contract
# holding it is planned and evaluated.
PLANNED_CLAUSE = "frame reach_guard : ref_onset -> F[0.04] pred_onset @ ref_onset\n"


@pytest.fixture
def worked_files(tmp_path):
    contract_path = tmp_path / "worked.contract"
    contract_path.write_text(WORKED_CONTRACT)
    ref, pred, h = worked_trace()
    trace = TraceFile("worked", h, classes={"speech": (ref, pred)}, union=(ref, pred))
    trace_path = tmp_path / "worked.json"
    save_trace(trace, trace_path)
    return contract_path, trace_path


def read_report(path):
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
        assert first.startswith("# manifest=")
        return list(csv.DictReader(handle))


class TestCheck:
    def test_valid_contract_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "default.contract"
        path.write_text(default_contract_text(0.04))
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "7 clauses parsed" in out
        assert "lookahead" in out

    def test_misspelled_operator_exits_two_with_caret(self, tmp_path, capsys):
        path = tmp_path / "bad.contract"
        path.write_text("set tolerance 0.04\nframe x : a - > b @ a\n")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "^" in err
        caret_line = [l for l in err.splitlines() if l.strip() == "^"][0]
        source_line = [l for l in err.splitlines() if "a - > b" in l][0]
        assert source_line[caret_line.index("^")] == "-"

    def test_unknown_atoms_pass_check(self, tmp_path):
        path = tmp_path / "unknown.contract"
        path.write_text("set tolerance 0.04\nframe x : nonexistent_atom @ nonexistent_atom\n")
        assert main(["check", str(path)]) == 0

    @pytest.mark.parametrize("char", NOT_LINE_ENDS)
    def test_errors_keep_their_line_after_a_break_in_a_comment(self, char, tmp_path, capsys):
        path = tmp_path / "c.contract"
        text = f"set tolerance 0.04\n# one comment{char}more comment\nframe b : x - > y @ x\n"
        path.write_bytes(text.encode())
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{path}:3: error: undeclared character '-'\n")


class TestInit:
    def test_default_contract_to_stdout(self, capsys):
        assert main(["init", "--tolerance-ms", "80"]) == 0
        assert capsys.readouterr().out == default_contract_text(0.08)

    def test_default_contract_to_a_file(self, tmp_path, capsys):
        path = tmp_path / "default.contract"
        assert main(["init", "--out", str(path)]) == 0
        assert capsys.readouterr().out == f"wrote default contract to {path}\n"
        assert path.read_text(encoding="utf-8") == default_contract_text(0.04)


class TestMonitor:
    def test_worked_trace_rows(self, worked_files, tmp_path):
        contract_path, trace_path = worked_files
        out = tmp_path / "out"
        assert main(["monitor", str(contract_path), str(trace_path), "--out", str(out)]) == 0
        rows = read_report(out / "guard.csv")
        by_name = {row["clause_name"]: row for row in rows if row["class"] == "union"}
        assert float(by_name["onset_guard"]["score"]) == 1.0
        assert float(by_name["offset_guard"]["score"]) == 0.0
        assert float(by_name["duration_guard"]["score"]) == 0.0
        assert float(by_name["silence_guard"]["score"]) < 1.0
        # guard row order equals contract source order
        assert [row["clause_name"] for row in rows] == [
            "onset_guard",
            "offset_guard",
            "missing_guard",
            "spurious_guard",
            "silence_guard",
            "duration_guard",
            "fragmentation_guard",
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["run_id"]
        assert manifest["settings"]["matcher"] == "greedy"

    def test_identical_masks_all_ones(self, tmp_path):
        contract_path = tmp_path / "c.contract"
        contract_path.write_text(default_contract_text(0.04))
        ref, _, h = worked_trace()
        save_trace(TraceFile("perfect", h, union=(ref, ref)), tmp_path / "t.json")
        out = tmp_path / "out"
        assert main(["monitor", str(contract_path), str(tmp_path / "t.json"), "--out", str(out)]) == 0
        rows = read_report(out / "guard.csv")
        assert all(float(row["score"]) == 1.0 for row in rows)

    def test_reruns_are_byte_identical(self, worked_files, tmp_path):
        contract_path, trace_path = worked_files
        first, second = tmp_path / "r1", tmp_path / "r2"
        for out in (first, second):
            assert (
                main(
                    ["monitor", str(contract_path), str(trace_path), "--out", str(out), "--classes"]
                )
                == 0
            )
        for name in ("guard.csv", "witness.csv", "manifest.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_class_rows_include_macro(self, worked_files, tmp_path):
        contract_path, trace_path = worked_files
        out = tmp_path / "out"
        assert (
            main(["monitor", str(contract_path), str(trace_path), "--out", str(out), "--classes"])
            == 0
        )
        rows = read_report(out / "guard.csv")
        classes = {row["class"] for row in rows}
        assert classes == {"union", "speech", "macro"}

    def test_unknown_atom_exits_four(self, tmp_path):
        contract_path = tmp_path / "c.contract"
        contract_path.write_text(
            "set tolerance 0.04\nframe x : made_up_atom @ made_up_atom\n"
        )
        ref, pred, h = worked_trace()
        save_trace(TraceFile("t", h, union=(ref, pred)), tmp_path / "t.json")
        assert (
            main(
                ["monitor", str(contract_path), str(tmp_path / "t.json"), "--out", str(tmp_path / "o")]
            )
            == 4
        )

    def test_bad_trace_exits_three(self, worked_files, tmp_path):
        contract_path, _ = worked_files
        bad = tmp_path / "bad.json"
        bad.write_text('{"frame_step": 0.02, "union": {"ref": "01", "pred": "0102"}}')
        assert main(["monitor", str(contract_path), str(bad), "--out", str(tmp_path / "o")]) == 3
        bad.write_text('{"frame_step": 1e400, "union": {"ref": "01", "pred": "01"}}')
        assert main(["monitor", str(contract_path), str(bad), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("command", ["monitor", "sweep", "match-audit", "stream"])
    def test_undecodable_trace_exits_three(self, command, worked_files, tmp_path, capsys):
        contract_path, _ = worked_files
        bad = tmp_path / "bad.json"
        text = '{"frame_step": 0.02, "item_id": "x", "union": {"ref": "01", "pred": "01"}}'
        argv = {
            "monitor": ["monitor", str(contract_path)],
            "sweep": ["sweep", str(contract_path)],
            "match-audit": ["match-audit"],
            "stream": ["stream", str(contract_path), "--clause", "onset_guard"],
        }[command] + [str(bad), "--out", str(tmp_path / "o")]
        cases = [
            (text.replace('"x"', '"\xff"').encode("latin-1"), "not UTF-8 text"),
            (text.encode("utf-16"), "not UTF-8 text"),  # strict UTF-8, no detection
            (b"\xef\xbb\xbf" + text.encode(), "Unexpected UTF-8 BOM"),
        ]
        for data, message in cases:
            bad.write_bytes(data)
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"trace error: {bad}: ") and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["check", "monitor", "sweep", "select", "stream"])
    def test_undecodable_contract_exits_two(self, command, worked_files, tmp_path, capsys):
        _, trace_path = worked_files
        bad = tmp_path / "bad.contract"
        bad.write_bytes(b"set tolerance 0.04 # \xff\n")
        calibration_path = tmp_path / "cal.json"
        calibration_path.write_text("[]")
        argv = {
            "check": ["check", str(bad)],
            "monitor": ["monitor", str(bad), str(trace_path), "--out", str(tmp_path / "o")],
            "sweep": ["sweep", str(bad), str(trace_path), "--out", str(tmp_path / "o")],
            "select": ["select", str(bad), str(calibration_path), "--out", str(tmp_path / "o")],
            "stream": ["stream", str(bad), str(trace_path), "--clause", "x",
                       "--out", str(tmp_path / "o")],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"cannot read contract {bad}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["check", "monitor", "sweep"])
    def test_byte_order_mark_in_a_contract_exits_two(self, command, worked_files, tmp_path, capsys):
        contract_path, trace_path = worked_files
        bom = tmp_path / "bom.contract"
        bom.write_bytes(codecs.BOM_UTF8 + contract_path.read_bytes())
        out = tmp_path / "o"
        argv = [command, str(bom)] + ([] if command == "check" else [str(trace_path), "--out", str(out)])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read contract {bom}: ") and "byte order mark" in err
        assert not out.exists()

    def test_unreadable_trace_path_exits_three(self, worked_files, tmp_path, capsys):
        contract_path, _ = worked_files
        missing, out = tmp_path / "missing.json", tmp_path / "o"
        assert main(["monitor", str(contract_path), str(missing), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read trace {missing}: ") and "No such file" in err
        assert not out.exists()

    @pytest.mark.parametrize("data, message", [
        ("[]", "{path}: expected a JSON object"),
        ('{"union": {"ref": "01", "pred": "01"}}', "{path}: missing or invalid 'frame_step'"),
        # A frame step that is not a JSON number, which float() would take.
        *[('{"frame_step": %s, "union": {"ref": "01", "pred": "01"}}' % step,
           "{path}: missing or invalid 'frame_step'")
          for step in ("true", "false", '"0.02"', '"inf"')],
        # An integer past the float range reads as 1e400 does.
        pytest.param('{"frame_step": 1%s, "union": {"ref": "01", "pred": "01"}}' % ("0" * 400),
                     "{path}: frame_step must be finite and positive", id="frame_step-1e400-int"),
        ('{"frame_step": 0.02, "union": "01"}',
         "{path}.union: expected an object with 'ref' and 'pred'"),
        ('{"frame_step": 0.02, "union": {"ref": "01", "pred": "011"}}',
         "{path}.union: ref and pred lengths differ"),
        ('{"frame_step": 0.02, "union": {"ref": "01", "pred": "01"},'
         ' "classes": {"s": {"ref": "011", "pred": "011"}}}',
         "{path}: masks have inconsistent lengths [2, 3]"),
        ('{"frame_step": 0.02}', "{path}: trace needs 'union' masks or 'classes'"),
        # A `classes` that is not an object, a list of [name, pair] entries
        # (which dict() would take) included.
        *[('{"frame_step": 0.02, "union": {"ref": "01", "pred": "01"}, "classes": %s}' % classes,
           "{path}.classes: expected an object")
          for classes in ('"ab"', "5", "null", '[["x", {"ref": "01", "pred": "01"}]]')],
        # An `item_id` that is not a string, which str() would report as text.
        *[('{"item_id": %s, "frame_step": 0.02, "union": {"ref": "01", "pred": "01"}}' % item_id,
           "{path}.item_id: expected a string")
          for item_id in ("null", "7", '["a"]', '{"a": 1}')],
    ])
    def test_trace_schema_errors_exit_three(self, data, message, worked_files, tmp_path, capsys):
        contract_path, _ = worked_files
        bad, out = tmp_path / "bad.json", tmp_path / "o"
        with pytest.raises(TraceFormatError) as raised:
            trace_from_dict(json.loads(data), str(bad))
        assert str(raised.value) == message.format(path=bad)
        bad.write_text(data)
        assert main(["monitor", str(contract_path), str(bad), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "trace error: " + message.format(path=bad) + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("names", [("union", "macro"), ("speech", "macro"), ("union",)])
    def test_classes_named_like_the_union_or_macro_rows_are_refused(
        self, names, worked_files, tmp_path, capsys
    ):
        # Their rows could not be told from the union and macro rows, so
        # `monitor --classes` refuses the trace; commands that write no class
        # rows take it.
        contract_path, _ = worked_files
        ref, pred, h = worked_trace()
        trace_path, out = tmp_path / "classes.json", tmp_path / "o"
        save_trace(TraceFile("c", h, classes={name: (ref, pred) for name in names}), trace_path)
        argv = ["monitor", str(contract_path), str(trace_path), "--out", str(out)]
        assert main(argv + ["--classes"]) == 3
        reserved = next(name for name in names if name in ("union", "macro"))
        assert capsys.readouterr().err == (
            f"trace error: {trace_path}: class {reserved!r} would share the {reserved} rows\n"
        )
        assert not out.exists()
        for command in (argv, ["sweep", *argv[1:]], ["match-audit", *argv[2:]],
                        ["stream", *argv[1:], "--clause", "onset_guard"]):
            assert main(command) == 0, command
            shutil.rmtree(out)

    def test_trace_without_masks_has_no_union(self):
        with pytest.raises(TraceFormatError, match="^x: no union masks and no classes$"):
            TraceFile("x", 0.02).union_masks()

    def test_manifest_hashes_the_bytes_read_once(self, worked_files, tmp_path, monkeypatch):
        contract_path, trace_path = worked_files
        opened = []
        real_open = builtins.open

        def counting_open(path, *args, **kwargs):
            opened.append(os.fspath(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        out = tmp_path / "o"
        argv = ["monitor", str(contract_path), str(trace_path), "--classes", "--out", str(out)]
        assert main(argv) == 0
        assert opened.count(str(trace_path)) == opened.count(str(contract_path)) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == [
            {"path": "worked.json", "sha256": hashlib.sha256(trace_path.read_bytes()).hexdigest()}
        ]


def _masks(text: str) -> tuple[np.ndarray, np.ndarray]:
    mask = parse_mask(text, "test")
    return mask, mask.copy()


class TestOnePass:
    """The union row and the class rows, or a sweep's tolerances, are the
    groups of one monitor pass."""

    PURITY_EXACT = (
        "set tolerance 0.04\nset matcher exact\n"
        "event frag : singly_covered @ reference_intervals\n"
        "event pur : overlap_purity @ predicted_intervals\n"
    )

    def _run(self, tmp_path, contract_text, classes, *flags):
        contract_path, trace_path = tmp_path / "c.contract", tmp_path / "t.json"
        contract_path.write_text(contract_text)
        save_trace(TraceFile("t", 0.02, classes=classes), trace_path)
        out = tmp_path / "out"
        return main(["monitor", str(contract_path), str(trace_path), "--out", str(out), *flags])

    def _counted_work(self, tmp_path, monkeypatch, contract_text, commands):
        """The evaluations, distance passes and candidate tables of each
        command on a 3-class trace, and its witness rows."""
        rng = np.random.default_rng(7)
        classes = {name: (rng.random(900) < 0.4, rng.random(900) < 0.4) for name in "zyx"}
        contract_path, trace_path = tmp_path / "c.contract", tmp_path / "t.json"
        contract_path.write_text(contract_text)
        save_trace(TraceFile("t", 0.01, classes=classes), trace_path)
        calls = {"evaluate": 0, "_gap_distances": 0, "candidate_table": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        evaluate = tracecontracts.frames.EvaluationPlan.evaluate
        monkeypatch.setattr(tracecontracts.frames.EvaluationPlan, "evaluate",
                            counting("evaluate", evaluate))
        for module, name in ((tracecontracts.contracts, "_gap_distances"),
                             (tracecontracts.intervals, "candidate_table")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        work = []
        for k, (command, *flags) in enumerate(commands):
            out = tmp_path / f"out{k}"
            calls.update(dict.fromkeys(calls, 0))
            argv = [command, str(contract_path), str(trace_path), *flags, "--out", str(out)]
            assert main(argv) == 0
            rows = len(read_report(out / "witness.csv")) if command == "monitor" else None
            work.append((dict(calls), rows))
        return work

    COMMANDS = (("monitor", "--classes"), ("sweep", "--tolerances", "20,40,80,120,160"))

    def test_work_is_done_once_for_all_groups(self, tmp_path, monkeypatch, capsys):
        # A 3-class monitor --classes: one evaluation for the 4 rows, and one
        # distance pass for every witness pair of every row (4 pairs for the
        # default contract); a 5-tolerance sweep builds one candidate table
        # and makes one distance pass, its tolerances sharing their pairs.
        # The clause that only the plan evaluates makes the one evaluation.
        work = self._counted_work(tmp_path, monkeypatch, default_contract_text(0.04)
                                  + PLANNED_CLAUSE, self.COMMANDS)
        once = {"evaluate": 1, "_gap_distances": 1, "candidate_table": 1}
        assert work == [(once, 4), (once, None)]

    def test_the_default_contract_is_counted_by_the_distance_pass_alone(
        self, tmp_path, monkeypatch, capsys
    ):
        # Its five frame guards are x -> N[r] y @ x clauses: no plan is made
        # and nothing is evaluated, and the one distance pass counts them.
        frames._plan.cache_clear()
        work = self._counted_work(tmp_path, monkeypatch, default_contract_text(0.04),
                                  self.COMMANDS)
        counted = {"evaluate": 0, "_gap_distances": 1, "candidate_table": 1}
        assert work == [(counted, 4), (counted, None)]
        assert frames._plan.cache_info().misses == 0

    def test_a_default_select_is_counted_by_the_distance_pass_alone(
        self, tmp_path, monkeypatch, capsys
    ):
        # select monitors its basis: the default contract's five frame
        # guards plan and evaluate nothing, and each run of consecutive
        # cases of one length is one stack with one distance pass.
        frames._plan.cache_clear()
        cases = calibration_cases()
        short = [replace(case, id=f"{case.id}-short", ref_mask=case.ref_mask[:300],
                         pred_mask=case.pred_mask[:300]) for case in cases[:2]]
        stacks = [cases[:4], short[:1], cases[4:], short[1:]]
        contract_path, calibration_path = tmp_path / "c.contract", tmp_path / "cal.json"
        contract_path.write_text(default_contract_text(0.04))
        save_calibration([case for stack in stacks for case in stack], calibration_path)
        calls = {"evaluate": 0, "_gap_distances": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(frames.EvaluationPlan, "evaluate",
                            counting("evaluate", frames.EvaluationPlan.evaluate))
        monkeypatch.setattr(contracts, "_gap_distances",
                            counting("_gap_distances", contracts._gap_distances))
        argv = ["select", str(contract_path), str(calibration_path), "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert calls == {"evaluate": 0, "_gap_distances": len(stacks)}
        assert frames._plan.cache_info().misses == 0

    def test_union_bound_error_comes_before_its_class_context_error(self, tmp_path, capsys):
        # The union row runs first, its matcher before its clauses.
        classes = {"z": _masks("1100" * 30), "y": _masks("0" * 120)}
        assert self._run(tmp_path, self.PURITY_EXACT, classes, "--classes") == 5
        assert capsys.readouterr().err == (
            "matcher bound error: instance has 30x30 intervals, bound is 24\n"
        )

    def test_union_class_context_error_comes_before_a_class_bound_error(self, tmp_path, capsys):
        # Interleaved classes make one union run; class z is over the bound.
        classes = {"z": _masks("1100" * 30), "y": _masks("0011" * 30)}
        assert self._run(tmp_path, self.PURITY_EXACT, classes, "--classes") == 2
        assert capsys.readouterr().err == (
            "contract error: overlap_purity requires class-indexed monitoring (monitor_classes)\n"
        )

    def test_first_class_in_file_order_decides_a_bound_error(self, tmp_path, capsys):
        # Both classes are over the bound, z (26 runs) first in the file and
        # y (30 runs) first in sorted order; the union has 5 runs.
        contract = default_contract_text(0.04, matcher="exact")
        classes = {"z": _masks("1100" * 26 + "0000" * 4), "y": _masks("0011" * 30)}
        assert self._run(tmp_path, contract, classes) == 0
        assert self._run(tmp_path, contract, classes, "--classes") == 5
        assert capsys.readouterr().err == (
            "matcher bound error: instance has 26x26 intervals, bound is 24\n"
        )


class TestSweep:
    def test_default_grid_rows_and_radius_change(self, worked_files, tmp_path):
        contract_path, trace_path = worked_files
        out = tmp_path / "sweep"
        assert main(["sweep", str(contract_path), str(trace_path), "--out", str(out)]) == 0
        rows = read_report(out / "sweep.csv")
        tolerances = sorted({row["tolerance_ms"] for row in rows}, key=float)
        assert tolerances == ["20", "40", "80", "120", "160"]
        onset_formulas = {
            row["tolerance_ms"]: row["formula"]
            for row in rows
            if row["clause_name"] == "onset_guard"
        }
        assert len(set(onset_formulas.values())) == 5  # reparsed per tolerance
        assert "N[0.015]" in onset_formulas["20"]  # 0.06 s radius scaled by 20/80
        summary = read_report(out / "sweep_summary.csv")
        assert len(summary) == 1

    def test_flat_sweep_for_identical_masks(self, tmp_path):
        contract_path = tmp_path / "c.contract"
        contract_path.write_text(default_contract_text(0.04))
        ref, _, h = worked_trace()
        save_trace(TraceFile("perfect", h, union=(ref, ref)), tmp_path / "t.json")
        out = tmp_path / "sweep"
        assert main(["sweep", str(contract_path), str(tmp_path / "t.json"), "--out", str(out)]) == 0
        rows = read_report(out / "sweep.csv")
        means = [row for row in rows if row["clause_name"] == "mean_logic"]
        assert all(float(row["score"]) == 1.0 for row in means)

    @pytest.mark.parametrize("tolerance, grid", [("0.000000001", "1e303"),
                                                 ("1000000000", "1e-320")])
    def test_a_radius_scaled_out_of_range_exits_two(
        self, tolerance, grid, worked_files, tmp_path, capsys
    ):
        # The scale factor overflows to inf or underflows to 0.0.
        _, trace_path = worked_files
        contract_path, out = tmp_path / "c.contract", tmp_path / "o"
        contract_path.write_text(f"set tolerance {tolerance}\n"
                                 "frame onset_guard : ref_onset -> N[0.000000001] pred_onset"
                                 " @ ref_onset\n")
        argv = ["sweep", str(contract_path), str(trace_path), "--tolerances", grid]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("contract error: radius 1e-09 scaled by ")
        assert err.endswith(", not positive and finite\n") and err.count("\n") == 1
        assert not out.exists()

    def test_a_clause_named_mean_logic_is_refused(self, worked_files, tmp_path, capsys):
        # Its rows could not be told from the per-tolerance mean_logic rows,
        # so `sweep` refuses the contract before it reads a trace; commands
        # that write no mean_logic rows take it.
        _, trace_path = worked_files
        contract_path, out = tmp_path / "c.contract", tmp_path / "o"
        contract_path.write_text(
            "set tolerance 0.04\n"
            "frame mean_logic : ref_onset -> N[0.04] pred_onset @ ref_onset\n"
            "event duration_guard : duration_within @ matched_pairs\n"
        )
        calibration_path = tmp_path / "cal.json"
        save_calibration(calibration_cases(), calibration_path)
        argv = ["sweep", str(contract_path), str(trace_path), "--tolerances", "40"]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "contract error: clause 'mean_logic' would share the mean_logic rows\n"
        )
        assert not out.exists()
        assert main(["check", str(contract_path)]) == 0
        # The two clauses separate no calibration order, so `select` writes
        # its report and exits 6.
        for command, code in ((["monitor", *argv[1:3]], 0),
                              (["select", str(contract_path), str(calibration_path)], 6),
                              (["stream", *argv[1:3], "--clause", "mean_logic"], 0)):
            assert main(command + ["--out", str(out)]) == code, command
            assert (out / "manifest.json").exists()
            shutil.rmtree(out)

    def test_descending_grid_rejected(self, worked_files, tmp_path):
        contract_path, trace_path = worked_files
        code = main(
            [
                "sweep",
                str(contract_path),
                str(trace_path),
                "--out",
                str(tmp_path / "s"),
                "--tolerances",
                "80,40",
            ]
        )
        assert code == 2


class TestMatchAudit:
    def _save_case(self, case, path):
        save_trace(
            TraceFile(case.case_id, case.frame_step, union=(case.ref_mask, case.pred_mask)),
            path,
        )

    def test_bridge_case_changed_with_half_f1_shift(self, tmp_path):
        case = bridge_fixture()
        path = tmp_path / "bridge.json"
        self._save_case(case, path)
        out = tmp_path / "audit"
        assert (
            main(
                [
                    "match-audit",
                    str(path),
                    "--out",
                    str(out),
                    "--epsilon-ms",
                    str(case.epsilon * 1000.0),
                ]
            )
            == 0
        )
        (row,) = read_report(out / "match_audit.csv")
        assert row["changed"] == "true"
        assert int(row["greedy_matches"]) == 1
        assert int(row["exact_matches"]) == 2
        assert float(row["boundary_f1_delta"]) == pytest.approx(0.5)

    def test_nominal_and_split_unchanged(self, tmp_path):
        cases = [c for c in stress_track() if c.pattern in ("nominal", "split")]
        paths = []
        for case in cases:
            path = tmp_path / f"{case.case_id}.json"
            self._save_case(case, path)
            paths.append(str(path))
        out = tmp_path / "audit"
        assert main(["match-audit", *paths, "--out", str(out), "--epsilon-ms", "100"]) == 0
        rows = read_report(out / "match_audit.csv")
        assert len(rows) == len(cases)
        for row in rows:
            assert row["changed"] == "false"
            assert float(row["boundary_f1_delta"]) == 0.0

    def test_empty_predictions_have_no_deltas(self, tmp_path):
        ref, _, h = worked_trace()
        save_trace(TraceFile("empty", h, union=(ref, np.zeros_like(ref))), tmp_path / "t.json")
        out = tmp_path / "audit"
        assert main(["match-audit", str(tmp_path / "t.json"), "--out", str(out)]) == 0
        (row,) = read_report(out / "match_audit.csv")
        assert row["changed"] == "false"
        assert int(row["greedy_matches"]) == 0

    def test_strict_bound_exits_five(self, tmp_path):
        h = 0.02
        n = 4000
        ref = np.zeros(n, dtype=bool)
        for k in range(30):
            ref[k * 120 : k * 120 + 40] = True
        save_trace(TraceFile("big", h, union=(ref, ref)), tmp_path / "big.json")
        code = main(
            [
                "match-audit",
                str(tmp_path / "big.json"),
                "--out",
                str(tmp_path / "a"),
                "--strict-bound",
            ]
        )
        assert code == 5
        # without the flag the row is flagged, not fatal
        assert (
            main(["match-audit", str(tmp_path / "big.json"), "--out", str(tmp_path / "b")]) == 0
        )
        (row,) = read_report(tmp_path / "b" / "match_audit.csv")
        assert row["note"] == "bound_exceeded"


@pytest.mark.parametrize(
    "command, matcher, flags",
    [("monitor", "greedy", ["--matcher", "exact"]), ("monitor", "exact", []), ("sweep", "exact", [])],
)
def test_exact_matcher_over_the_bound_exits_five(command, matcher, flags, tmp_path, capsys):
    ref = np.zeros(4000, dtype=bool)
    for k in range(30):
        ref[k * 120 : k * 120 + 40] = True
    save_trace(TraceFile("big", 0.02, union=(ref, ref)), tmp_path / "big.json")
    contract_path = tmp_path / "c.contract"
    contract_path.write_text(default_contract_text(0.04, matcher=matcher))
    out = tmp_path / "out"
    argv = [command, str(contract_path), str(tmp_path / "big.json"), "--out", str(out), *flags]
    assert main(argv) == 5
    assert "matcher bound error: instance has 30x30 intervals" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags", [("monitor", []), ("monitor", ["--classes"]), ("sweep", [])]
)
def test_purity_clause_outside_class_context_exits_two(command, flags, tmp_path, capsys):
    # The union rows have no class context for overlap_purity, even with --classes.
    ref, pred, h = worked_trace()
    trace = TraceFile("t", h, classes={"speech": (ref, pred), "music": (pred, ref)})
    save_trace(trace, tmp_path / "t.json")
    contract_path = tmp_path / "c.contract"
    contract_path.write_text(
        default_contract_text(0.04) + "event purity_guard : overlap_purity @ predicted_intervals\n"
    )
    out = tmp_path / "out"
    argv = [command, str(contract_path), str(tmp_path / "t.json"), "--out", str(out), *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        "contract error: overlap_purity requires class-indexed monitoring (monitor_classes)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["monitor", "sweep", "select", "stream"])
def test_a_radius_too_large_for_the_frame_step_exits_two(command, worked_files, tmp_path, capsys):
    # 1e307 s over a 0.02 s step is more frames than a float holds; 1e300 s
    # is a finite count.
    _, trace_path = worked_files
    contract_path, out = tmp_path / "c.contract", tmp_path / "out"
    calibration_path = tmp_path / "cal.json"
    calibration_path.write_text(
        '[{"id": "x", "risk": 1, "frame_step": 0.02, "ref_mask": "0110", "pred_mask": "0110"}]'
    )
    argv = {
        "monitor": ["monitor", str(contract_path), str(trace_path)],
        "sweep": ["sweep", str(contract_path), str(trace_path)],
        "select": ["select", str(contract_path), str(calibration_path)],
        "stream": ["stream", str(contract_path), str(trace_path), "--clause", "far"],
    }[command] + ["--out", str(out)]
    far = "frame far : ref_onset -> N[1{}] pred_onset @ ref_onset\n"
    contract_path.write_text("set tolerance 0.04\n" + far.format("0" * 307))
    assert main(argv) == 2
    radius = "5e+306" if command == "sweep" else "1e+307"  # the sweep's first row is 20 ms
    assert capsys.readouterr().err == (
        f"contract error: radius {radius} spans too many frames of step 0.02 to count\n"
    )
    assert not out.exists()
    if command == "monitor":
        contract_path.write_text("set tolerance 0.04\n" + far.format("0" * 300))
        assert main(argv) == 0


def test_a_stream_past_every_frame_index_exits_two(tmp_path, capsys):
    # 40 ms at a 1e-300 s step: monitor counts its frames, stream cannot index them.
    contract_path, trace_path, out = tmp_path / "c.contract", tmp_path / "t.json", tmp_path / "out"
    contract_path.write_text(default_contract_text(0.04))
    trace_path.write_text('{"frame_step": 1e-300, "union": {"ref": "0110", "pred": "0100"}}')
    argv = [str(contract_path), str(trace_path), "--out", str(out)]
    assert main(["stream", *argv, "--clause", "onset_guard"]) == 2
    assert capsys.readouterr().err == (
        "contract error: lookahead radius 0.04 spans more frames of step 1e-300"
        " than a stream can index\n"
    )
    assert not out.exists()
    assert main(["monitor", *argv]) == 0


@pytest.mark.parametrize("command", ["check", "monitor"])
def test_a_radius_literal_past_every_float_exits_two_with_a_caret(
    command, worked_files, tmp_path, capsys
):
    # 320 nines read as an infinite float; the parser refuses it at its token.
    _, trace_path = worked_files
    contract_path, out = tmp_path / "c.contract", tmp_path / "out"
    line = f"frame f : ref_onset -> F[{'9' * 320}] pred_onset @ ref_onset"
    contract_path.write_text(f"set tolerance 0.04\n{line}\n")
    argv = [command, str(contract_path)]
    argv += [] if command == "check" else [str(trace_path), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{contract_path}:2: error: expected a finite radius, found 'F[")
    assert "Traceback" not in err
    caret_line = [l for l in err.splitlines() if l.strip() == "^"][0]
    source_line = [l for l in err.splitlines() if l.strip() == line][0]
    assert source_line[caret_line.index("^"):].startswith("F[9")
    assert not out.exists()


def test_a_sweep_of_a_contract_without_clauses_exits_two(worked_files, tmp_path, capsys):
    _, trace_path = worked_files
    contract_path, out = tmp_path / "c.contract", tmp_path / "out"
    contract_path.write_text("set tolerance 0.04\n")
    assert main(["check", str(contract_path)]) == 0
    assert "0 clauses parsed" in capsys.readouterr().out
    assert main(["sweep", str(contract_path), str(trace_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "contract error: a tolerance sweep needs at least one clause\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "monitor", "sweep"])
def test_rejected_contract_lines_exit_two_with_their_line(command, worked_files, tmp_path, capsys):
    # Each single departure from the language tables, and each check across lines.
    _, trace_path = worked_files
    contract = parse_contract_text(ALL_PREDICATES)
    cases = [(text, line) for _, text, line in contract_mutations(contract)]
    cases += [("frame a : x @ x\n", 0), ("set tolerance 0.04\nset silence_radius 0.05\n", 0)]
    path, out = tmp_path / "bad.contract", tmp_path / "out"
    argv = [command, str(path)] + ([] if command == "check" else [str(trace_path), "--out", str(out)])
    for text, line_number in cases:
        path.write_text(text)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{path}:{line_number}: error: ") and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("clause", [
    "foo -> N[0.04] pred_onset @ ref_onset",
    # The shape the witness pass counts, but for the unknown atom.
    "foo -> N[0.04] pred_onset @ foo",
    "ref_onset -> N[0.04] foo @ ref_onset",
])
@pytest.mark.parametrize("command", [["monitor"], ["monitor", "--classes"], ["sweep"], ["stream"]])
def test_unknown_atom_exits_four_naming_it(command, clause, worked_files, tmp_path, capsys):
    _, trace_path = worked_files
    contract_path, out = tmp_path / "c.contract", tmp_path / "out"
    text = f"set tolerance 0.04\nframe f : {clause}\n"
    contract_path.write_text(text)
    argv = [command[0], str(contract_path), str(trace_path), *command[1:], "--out", str(out)]
    assert main(argv + (["--clause", "f"] if command == ["stream"] else [])) == 4
    assert capsys.readouterr().err == "atom binding error: unknown atom 'foo'\n"
    assert not out.exists()
    ref, pred, h = worked_trace()
    with pytest.raises(tracecontracts.UnknownAtomError, match="unknown atom 'foo'"):
        tracecontracts.monitor(parse_contract_text(text), ref, pred, h)


def test_usage_errors_repeat_identically(capsys):
    # The parser is built once per process; reusing it changes no output.
    outputs = []
    for _ in range(2):
        for argv in (["monitor"], ["sweep", "c", "t", "--out", "o", "--tolerances", "0"], []):
            with pytest.raises(SystemExit) as stop:
                main(argv)
            outputs.append((stop.value.code, capsys.readouterr()))
        for argv in (["--help"], ["--version"], ["monitor", "--help"]):
            with pytest.raises(SystemExit) as stop:
                main(argv)
            outputs.append((stop.value.code, capsys.readouterr()))
    assert outputs[:6] == outputs[6:]
    assert [code for code, _ in outputs[:6]] == [2, 2, 2, 0, 0, 0]


class TestSelect:
    @pytest.mark.parametrize("risk", ["NaN", '"nan"'])
    def test_nan_calibration_risk_exits_three(self, risk, tmp_path, capsys):
        contract_path = tmp_path / "basis.contract"
        contract_path.write_text(default_contract_text(0.04))
        calibration_path = tmp_path / "cal.json"
        calibration_path.write_text(
            '[{"id": "x", "risk": %s, "frame_step": 0.02, "ref_mask": "01", "pred_mask": "01"}]'
            % risk
        )
        assert main(["select", str(contract_path), str(calibration_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"calibration error: {calibration_path}[0]: ") and "NaN" in err

    @pytest.mark.parametrize("frame_step", ["0", "-0.02", "NaN", "1e400", "null", "[0.01]"])
    def test_bad_calibration_frame_step_exits_three(self, frame_step, tmp_path, capsys):
        contract_path = tmp_path / "basis.contract"
        contract_path.write_text(default_contract_text(0.04))
        calibration_path = tmp_path / "cal.json"
        calibration_path.write_text(
            '[{"id": "x", "risk": 1, "frame_step": %s, "ref_mask": "01", "pred_mask": "01"}]'
            % frame_step
        )
        assert main(["select", str(contract_path), str(calibration_path)]) == 3
        assert "calibration error:" in capsys.readouterr().err

    def test_repeated_calibration_case_id_exits_three(self, tmp_path, capsys):
        # Two cases under one id would let select certify a pair as a < a.
        contract_path, out = tmp_path / "basis.contract", tmp_path / "out"
        contract_path.write_text(default_contract_text(0.04))
        calibration_path = tmp_path / "cal.json"
        case = '{"id": "a", "risk": %d, "frame_step": 0.02, "ref_mask": "0110", "pred_mask": "%s"}'
        calibration_path.write_text("[%s, %s]" % (case % (0, "0110"), case % (1, "0000")))
        argv = ["select", str(contract_path), str(calibration_path), "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"calibration error: {calibration_path}[1]: case id 'a' repeated\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("case_id", ["null", "1", '["a"]', '{"a": 1}'])
    def test_calibration_case_id_that_is_not_a_string_exits_three(
        self, case_id, tmp_path, capsys
    ):
        contract_path, out = tmp_path / "basis.contract", tmp_path / "out"
        contract_path.write_text(default_contract_text(0.04))
        calibration_path = tmp_path / "cal.json"
        case = '{"id": %s, "risk": %d, "frame_step": 0.02, "ref_mask": "0110", "pred_mask": "0110"}'
        calibration_path.write_text("[%s, %s]" % (case % ('"a"', 0), case % (case_id, 1)))
        argv = ["select", str(contract_path), str(calibration_path), "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"calibration error: {calibration_path}[1].id: expected a string\n"
        )
        assert not out.exists()

    def test_unreadable_calibration_exits_three(self, tmp_path, capsys):
        contract_path, out = tmp_path / "basis.contract", tmp_path / "out"
        contract_path.write_text(default_contract_text(0.04))
        for calibration_path in (tmp_path / "missing.json", tmp_path):
            argv = ["select", str(contract_path), str(calibration_path), "--out", str(out)]
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith("calibration error: ") and str(calibration_path) in err
            assert not out.exists()

    def test_undecodable_calibration_exits_three(self, tmp_path, capsys):
        contract_path = tmp_path / "basis.contract"
        contract_path.write_text(default_contract_text(0.04))
        calibration_path = tmp_path / "cal.json"
        for data in (b'[{"id": "\xff"}]', "[]".encode("utf-16"), b"\xef\xbb\xbf[]"):
            calibration_path.write_bytes(data)
            assert main(["select", str(contract_path), str(calibration_path)]) == 3
            assert capsys.readouterr().err.startswith(f"calibration error: {calibration_path}: ")

    def test_signatures_once_and_inputs_hashed_as_read(self, tmp_path, capsys, monkeypatch):
        # One clause evaluation of all cases serves classes, basis and selection.
        contract_path = tmp_path / "basis.contract"
        contract_path.write_bytes(default_contract_text(0.04).replace("\n", "\r\n").encode())
        calibration_path = tmp_path / "calibration.json"
        cases = calibration_cases()
        save_calibration(cases, calibration_path)
        seen = []
        case_values = basis._case_values

        def counting_case_values(contract, batch):
            seen.append([case.id for case in batch])
            return case_values(contract, batch)

        monkeypatch.setattr(basis, "_case_values", counting_case_values)
        out = tmp_path / "sel"
        assert main(["select", str(contract_path), str(calibration_path), "--out", str(out)]) == 0
        assert seen == [[case.id for case in cases]]
        manifest = json.loads((out / "manifest.json").read_text())
        assert [item["sha256"] for item in manifest["inputs"]] == [
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (contract_path, calibration_path)
        ]
        # The contract digest is of the text parsed, line ends read as "\n".
        text = default_contract_text(0.04)
        assert manifest["contract_sha256"] == hashlib.sha256(text.encode()).hexdigest()

    def test_exact_basis_over_the_bound_exits_five(self, tmp_path, capsys):
        contract_path = tmp_path / "basis.contract"
        contract_path.write_text(default_contract_text(0.04, matcher="exact"))
        calibration_path = tmp_path / "cal.json"
        mask = "1100" * 30
        calibration_path.write_text(
            '[{"id": "x", "risk": 1, "frame_step": 0.02, "ref_mask": "%s", "pred_mask": "%s"}]'
            % (mask, mask)
        )
        out = tmp_path / "sel"
        argv = ["select", str(contract_path), str(calibration_path), "--out", str(out)]
        assert main(argv) == 5
        assert "matcher bound error: instance has 30x30 intervals" in capsys.readouterr().err
        assert not out.exists()

    def test_nine_pathology_selection_report(self, tmp_path, capsys):
        contract_path = tmp_path / "basis.contract"
        contract_path.write_text(default_contract_text(0.04))
        calibration_path = tmp_path / "calibration.json"
        save_calibration(calibration_cases(), calibration_path)
        out = tmp_path / "sel"
        assert (
            main(["select", str(contract_path), str(calibration_path), "--out", str(out)]) == 0
        )
        printed = capsys.readouterr().out
        assert "selected contract:" in printed
        assert "separation certificate:" in printed
        selection_rows = read_report(out / "selection.csv")
        assert len(selection_rows) == 7
        retained = [row for row in selection_rows if row["retained"] == "true"]
        assert len(retained) == 7
        selected = [row for row in selection_rows if row["selected"] == "true"]
        assert 0 < len(selected) <= 7
        certificate_rows = read_report(out / "certificate.csv")
        assert len(certificate_rows) == 23  # strict risk pairs among 3/4/5 ranks

    def test_duplicate_and_constant_clauses_selection_report(self, tmp_path, capsys):
        # A renamed duplicate joins its original's class and is not retained;
        # a clause that holds wherever it is obligated is constant.
        contract_path = tmp_path / "basis.contract"
        contract_path.write_text(
            default_contract_text(0.04)
            + "frame onset_copy : ref_onset -> N[0.04] pred_onset @ ref_onset\n"
            + "frame always : ref_active -> ref_active @ ref_active\n"
        )
        calibration_path = tmp_path / "calibration.json"
        save_calibration(calibration_cases(), calibration_path)
        out = tmp_path / "sel"
        assert main(["select", str(contract_path), str(calibration_path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert "selected contract: missing_guard, spurious_guard, fragmentation_guard" in printed
        assert (out / "selection.csv").read_text().splitlines()[1:] == [
            "source_order,clause_name,kind,cost,constant,class_representative,retained,selected",
            "0,onset_guard,frame,5,false,onset_guard,true,false",
            "1,offset_guard,frame,5,false,offset_guard,true,false",
            "2,missing_guard,frame,5,false,missing_guard,true,true",
            "3,spurious_guard,frame,5,false,spurious_guard,true,true",
            "4,silence_guard,frame,5,false,silence_guard,true,false",
            "5,duration_guard,event,2,false,duration_guard,true,false",
            "6,fragmentation_guard,event,2,false,fragmentation_guard,true,true",
            "7,onset_copy,frame,5,false,onset_guard,false,false",
            "8,always,frame,4,true,always,false,false",
        ]
        witnesses = [
            ("early_onset", "late_onset", "missing_guard"),
            ("early_onset", "late_release", "spurious_guard"),
            ("early_onset", "early_release", "missing_guard"),
            ("early_onset", "length_distortion", "missing_guard"),
            ("early_onset", "fragmentation", "fragmentation_guard"),
            ("early_onset", "missing", "missing_guard"),
            ("early_onset", "extra", "spurious_guard"),
            ("early_onset", "silence_bleed", "spurious_guard"),
            ("late_onset", "missing", "missing_guard"),
            ("late_onset", "extra", "spurious_guard"),
            ("late_onset", "silence_bleed", "spurious_guard"),
            ("late_release", "missing", "missing_guard"),
            ("late_release", "extra", "spurious_guard"),
            ("late_release", "silence_bleed", "fragmentation_guard"),
            ("early_release", "missing", "missing_guard"),
            ("early_release", "extra", "spurious_guard"),
            ("early_release", "silence_bleed", "spurious_guard"),
            ("length_distortion", "missing", "missing_guard"),
            ("length_distortion", "extra", "spurious_guard"),
            ("length_distortion", "silence_bleed", "spurious_guard"),
            ("fragmentation", "missing", "missing_guard"),
            ("fragmentation", "extra", "spurious_guard"),
            ("fragmentation", "silence_bleed", "spurious_guard"),
        ]
        assert (out / "certificate.csv").read_text().splitlines()[1:] == [
            "low_risk_case,high_risk_case,witnessing_clause"
        ] + [",".join(row) for row in witnesses]

    @pytest.mark.parametrize("data, message", [
        ("{}", "{path}: expected a JSON array of cases"),
        ("[1]", "{path}[0]: expected an object"),
        ('[{"id": "x", "risk": 1, "frame_step": 0.02, "ref_mask": "01"}]',
         "{path}[0]: missing field 'pred_mask'"),
        # A risk or frame step that is not a JSON number, which float() would take.
        *[('[{"id": "x", "risk": %s, "frame_step": 0.02, "ref_mask": "01", "pred_mask": "01"}]'
           % risk, "{path}[0]: risk must be a JSON number, not NaN")
          for risk in ("true", "false", '"2"', "null")],
        *[('[{"id": "x", "risk": 1, "frame_step": %s, "ref_mask": "01", "pred_mask": "01"}]'
           % step, "{path}[0]: frame_step must be a JSON number")
          for step in ("true", '"0.02"', "[0.01]")],
        # An integer past the float range reads as 1e400 does.
        pytest.param(
            '[{"id": "x", "risk": 1, "frame_step": 1%s, "ref_mask": "01", "pred_mask": "01"}]'
            % ("0" * 400), "{path}[0]: frame step must be finite and positive, got inf",
            id="frame_step-1e400-int",
        ),
    ])
    def test_calibration_schema_errors_exit_three(self, data, message, tmp_path, capsys):
        contract_path, out = tmp_path / "basis.contract", tmp_path / "out"
        contract_path.write_text(default_contract_text(0.04))
        calibration_path = tmp_path / "cal.json"
        calibration_path.write_text(data)
        argv = ["select", str(contract_path), str(calibration_path), "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == "calibration error: " + message.format(path=calibration_path) + "\n"
        assert not out.exists()

    def test_infeasible_selection_names_the_unseparated_pair(self, tmp_path, capsys):
        # Equal masks at different risks: no clause can separate them.
        contract_path, out = tmp_path / "basis.contract", tmp_path / "out"
        contract_path.write_text(default_contract_text(0.04))
        calibration_path = tmp_path / "cal.json"
        case = '"frame_step": 0.02, "ref_mask": "0110", "pred_mask": "0110"'
        calibration_path.write_text(
            f'[{{"id": "low", "risk": 1, {case}}}, {{"id": "high", "risk": 2, {case}}}]'
        )
        argv = ["select", str(contract_path), str(calibration_path), "--out", str(out)]
        assert main(argv) == 6
        printed = capsys.readouterr().out
        assert printed.endswith("infeasible: no clause separates 'low' (lower risk) from 'high'\n")
        assert "selected contract:" not in printed
        assert sorted(os.listdir(out)) == ["certificate.csv", "manifest.json", "selection.csv"]
        # Without --out there is nothing to write, and the exit code still says so.
        assert main(argv[:-2]) == 6

    INFEASIBLE_BASIS = """set tolerance 0.04
set merge_gap 0.1
frame ops : pred_active -> N[0.04] ref_active @ pred_active
frame nest : ref_onset -> F[0.08] G[0.04] pred_active @ ref_onset
frame neg : !(pred_active & !ref_active) @ pred_active
frame shapes : ref_active U[0.2] ref_offset @ ref_onset
frame off : ref_offset -> N[0.04] pred_offset @ ref_offset
event dur : duration_within @ matched_pairs
event frag : singly_covered @ reference_intervals
"""

    def test_infeasible_selection_writes_its_report(self, tmp_path, capsys):
        # Merged back, the fragmented prediction looks nominal to the event
        # clauses, and no frame clause scores early_onset above it.
        contract_path, out = tmp_path / "basis.contract", tmp_path / "out"
        contract_path.write_text(self.INFEASIBLE_BASIS)
        calibration_path = tmp_path / "calibration.json"
        cases = calibration_cases()
        save_calibration(cases, calibration_path)
        argv = ["select", str(contract_path), str(calibration_path), "--out", str(out)]
        assert main(argv) == 6
        printed = capsys.readouterr().out
        assert printed.endswith(
            "infeasible: no clause separates 'early_onset' (lower risk) from 'fragmentation'\n"
        )
        candidates = parse_contract_text(self.INFEASIBLE_BASIS)
        classes, kept, _ = basis._selection(candidates, cases)
        class_of = {member: cls for cls in classes for member in cls.members}
        names = [c.name for c in candidates.clauses]
        rows = read_report(out / "selection.csv")
        assert [row["clause_name"] for row in rows] == names
        for order, row in enumerate(rows):
            cls = class_of[order]
            assert row["constant"] == ("true" if cls.constant else "false")
            assert row["class_representative"] == names[cls.representative]
            assert row["retained"] == ("true" if order in kept else "false")
            assert row["selected"] == "false"
        assert any(row["retained"] == "true" for row in rows)
        assert read_report(out / "certificate.csv") == []
        header = (out / "certificate.csv").read_text().splitlines()[1]
        assert header == "low_risk_case,high_risk_case,witnessing_clause"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "select"
        assert (out / "selection.csv").read_text().startswith(f"# manifest={manifest['run_id']}\n")

    def test_empty_calibration_is_vacuously_separating(self, tmp_path, capsys):
        contract_path = tmp_path / "basis.contract"
        contract_path.write_text(default_contract_text(0.04))
        calibration_path = tmp_path / "cal.json"
        calibration_path.write_text("[]")
        assert main(["select", str(contract_path), str(calibration_path)]) == 0
        printed = capsys.readouterr().out
        assert "selected contract: " in printed


class TestStream:
    def test_verdicts_match_offline_with_expected_lag(self, worked_files, tmp_path):
        contract_path, trace_path = worked_files
        out = tmp_path / "stream"
        assert (
            main(
                [
                    "stream",
                    str(contract_path),
                    str(trace_path),
                    "--clause",
                    "silence_guard",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        rows = read_report(out / "stream.csv")
        trace = load_trace(trace_path)
        assert len(rows) == trace.frame_count
        assert all(row["equal"] == "true" for row in rows)
        # silence radius 0.04 at h=0.02: two frames of right context mid-trace
        mid = [row for row in rows if row["frame_index"] == "50"][0]
        assert int(mid["emitted_after_frames"]) == 53

    def test_zero_lookahead_clause_streams_immediately(self, tmp_path):
        contract_path = tmp_path / "c.contract"
        contract_path.write_text(
            "set tolerance 0.04\nframe plain : ref_active -> pred_active @ ref_active\n"
        )
        ref, pred, h = worked_trace()
        save_trace(TraceFile("t", h, union=(ref, pred)), tmp_path / "t.json")
        out = tmp_path / "stream"
        assert (
            main(
                [
                    "stream",
                    str(contract_path),
                    str(tmp_path / "t.json"),
                    "--clause",
                    "plain",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        rows = read_report(out / "stream.csv")
        assert all(
            int(row["emitted_after_frames"]) == int(row["frame_index"]) + 1 for row in rows
        )

    def test_missing_clause_name_exits_two(self, worked_files, tmp_path):
        contract_path, trace_path = worked_files
        code = main(
            [
                "stream",
                str(contract_path),
                str(trace_path),
                "--clause",
                "nope",
                "--out",
                str(tmp_path / "s"),
            ]
        )
        assert code == 2


# The flag is rejected while arguments are parsed, before any file is read.
MS_FLAG_COMMANDS = {
    "sweep --tolerances": "sweep c.contract t.json --out o --tolerances 20,{},80",
    "monitor --soft-scale": "monitor c.contract t.json --out o --soft-scale {}",
    "match-audit --epsilon-ms": "match-audit t.json --out o --epsilon-ms {}",
    "init --tolerance-ms": "init --tolerance-ms {}",
}


@pytest.mark.parametrize("command", sorted(MS_FLAG_COMMANDS))
@pytest.mark.parametrize("value", ["0", "-40", "nan", "inf", "forty", "1e-322"])
def test_millisecond_flags_reject_non_positive_or_non_finite(command, value, capsys):
    argv = MS_FLAG_COMMANDS[command].replace("{}", value).split()
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert "finite positive number of milliseconds" in capsys.readouterr().err


def test_sweep_tolerances_must_ascend_in_seconds(worked_files, tmp_path, capsys):
    # Distinct in milliseconds, one value in seconds.
    contract_path, trace_path = worked_files
    argv = ["sweep", str(contract_path), str(trace_path), "--out", str(tmp_path / "o"),
            "--tolerances", "15.99271353184245,15.992713531842451"]
    assert main(argv) == 2
    assert "tolerances must be strictly ascending" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_init_tolerance_whose_silence_radius_underflows_exits_two(capsys):
    # 7e-321 ms is a nonzero tolerance in seconds; half of it is zero.
    assert main(["init", "--tolerance-ms", "7e-321"]) == 2
    assert "silence radius 0.0 must be in (0, tolerance]" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3", "2.5", "nan", "twenty"])
def test_match_audit_bound_must_be_a_positive_integer(value, capsys):
    # Rejected while arguments are parsed, before the trace is read.
    with pytest.raises(SystemExit) as stop:
        main(["match-audit", "t.json", "--out", "o", "--bound", value])
    assert stop.value.code == 2
    assert f"expected a positive integer, got {value!r}" in capsys.readouterr().err


def test_match_audit_bound_of_one_keeps_its_meaning(worked_files, tmp_path):
    # The worked trace has one run a side: within a bound of 1.
    _, trace_path = worked_files
    assert main(["match-audit", str(trace_path), "--out", str(tmp_path), "--bound", "1"]) == 0
    (row,) = read_report(tmp_path / "match_audit.csv")
    assert row["note"] == "" and row["exact_matches"] == "1"


class TestMaskStrings:
    @pytest.mark.parametrize("text", ["", "0", "1", "0110", "1" * 4000, "01" * 2000 + "1"])
    def test_round_trip(self, text):
        mask = parse_mask(text, "m")
        assert mask.dtype == bool
        assert mask.shape == (len(text),)
        assert mask.tolist() == [c == "1" for c in text]
        assert mask_to_string(mask) == text
        mask[:1] = True  # a parsed mask is a writable array of its own

    def test_to_string_accepts_sequences(self):
        assert mask_to_string([]) == ""
        assert mask_to_string([0, 1, 1, 0]) == "0110"
        assert mask_to_string(np.array([0.0, 2.0, -1.0])) == "011"
        assert mask_to_string(np.array([True, False, True])[::2]) == "11"

    @pytest.mark.parametrize("text", ["012", "0 1", "01\n", "1x", "١", "0¹", "0１", "0" * 3999 + "2"])
    def test_bad_strings_keep_their_message(self, text):
        with pytest.raises(TraceFormatError, match=r"^m: mask string must contain only 0/1$"):
            parse_mask(text, "m")

    def test_every_other_character_is_refused(self):
        # The check runs on bytes: each neighbour of "0" and "1", every other
        # ASCII byte and non-ASCII text (no UnicodeEncodeError) must fail.
        for code in [*range(256), 0x3000, 0xFF10, 0xFF11, 0x10FFFF]:
            if chr(code) in "01":
                continue
            for text in (chr(code), "01" + chr(code), chr(code) + "10"):
                with pytest.raises(TraceFormatError, match="mask string must contain only 0/1"):
                    parse_mask(text, "m")

    def test_other_values_keep_their_messages(self):
        with pytest.raises(TraceFormatError, match="m: mask array must be one-dimensional 0/1"):
            parse_mask([0, 2], "m")
        with pytest.raises(TraceFormatError, match="m: mask array must be numeric"):
            parse_mask(["a"], "m")
        with pytest.raises(TraceFormatError, match="m: mask must be a 0/1 string or array"):
            parse_mask(None, "m")
        assert parse_mask([], "m").shape == (0,)

    def test_saved_classes_load_back_in_their_order(self, tmp_path):
        # Class order decides which class's error `monitor --classes` reports.
        names = ["z", "speech", "a", "Music", "10", "2"]
        classes = {name: _masks(f"{k:04b}") for k, name in enumerate(names, 1)}
        save_trace(TraceFile("t", 0.02, classes=classes), tmp_path / "t.json")
        again = load_trace(tmp_path / "t.json")
        assert list(again.classes) == names
        assert {name: mask_to_string(ref) for name, (ref, _) in again.classes.items()} == {
            name: f"{k:04b}" for k, name in enumerate(names, 1)
        }
        save_trace(again, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "t.json").read_bytes()

    def test_empty_masks_load(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"frame_step": 0.02, "union": {"ref": "", "pred": ""}}')
        trace = load_trace(path)
        assert trace.frame_count == 0
        save_trace(trace, tmp_path / "again.json")
        assert load_trace(tmp_path / "again.json").union[0].shape == (0,)


class TestReportWriter:
    """Reruns write each report file in place, with the bytes of a fresh run."""

    @pytest.fixture
    def inputs(self, worked_files, tmp_path):
        contract_path, trace_path = worked_files
        default_path = tmp_path / "default.contract"
        default_path.write_text(default_contract_text(0.04))
        calibration_path = tmp_path / "calibration.json"
        save_calibration(calibration_cases(), calibration_path)
        return {
            "contract": str(contract_path),
            "trace": str(trace_path),
            "default": str(default_path),
            "calibration": str(calibration_path),
        }

    COMMANDS = {
        "monitor": ["monitor", "{contract}", "{trace}", "--classes"],
        "sweep": ["sweep", "{contract}", "{trace}"],
        "match-audit": ["match-audit", "{trace}"],
        "match-audit-over-bound": ["match-audit", "{trace}", "--bound", "1"],
        "select": ["select", "{default}", "{calibration}"],
        "stream": ["stream", "{contract}", "{trace}", "--clause", "silence_guard"],
        "init": ["init"],
    }

    @staticmethod
    def _argv(command, inputs, out):
        argv = [word.format(**inputs) for word in TestReportWriter.COMMANDS[command]]
        return argv + ["--out", str(out)]

    @staticmethod
    def _files(out: Path) -> dict[str, bytes]:
        if out.is_file():
            return {"": out.read_bytes()}
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    @staticmethod
    def _fill(out: Path, files: dict[str, bytes]) -> None:
        for name, data in files.items():
            (out / name if name else out).write_bytes(data)

    @pytest.mark.parametrize("command", ["monitor", "sweep", "match-audit", "select", "stream"])
    def test_stamp_time_records_a_utc_time_and_changes_nothing_else(
        self, command, inputs, tmp_path
    ):
        plain, stamped = tmp_path / "plain", tmp_path / "stamped"
        assert main(self._argv(command, inputs, plain)) == 0
        assert main(self._argv(command, inputs, stamped) + ["--stamp-time"]) == 0
        plain_files, stamped_files = self._files(plain), self._files(stamped)
        manifests = [json.loads(files.pop("manifest.json")) for files in (plain_files, stamped_files)]
        assert plain_files and stamped_files == plain_files
        assert manifests[1]["run_id"] == manifests[0]["run_id"]
        assert manifests[0]["generated_at"] is None
        stamp = manifests[1].pop("generated_at")
        assert datetime.fromisoformat(stamp).utcoffset() == timedelta(0)
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d+)?\+00:00", stamp)
        del manifests[0]["generated_at"]
        assert manifests[1] == manifests[0]

    @pytest.mark.parametrize("command", sorted(set(COMMANDS) - {"init"}))
    def test_an_out_that_is_a_regular_file_exits_two(self, command, inputs, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_bytes(b"not a directory\n")
        assert main(self._argv(command, inputs, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write report to {out}: ") and err.count("\n") == 1
        assert out.read_bytes() == b"not a directory\n"

    @pytest.mark.parametrize("command, blocked, before", [
        ("monitor", "guard.csv", []),
        ("monitor", "manifest.json", ["guard.csv", "witness.csv"]),
        ("stream", "stream.csv", []),
    ])
    def test_a_report_file_that_cannot_be_opened_exits_two(
        self, command, blocked, before, inputs, tmp_path, capsys
    ):
        # The files before it in the report are written; it and those after are not.
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert main(self._argv(command, inputs, out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot write report to {out}: ")
        assert captured.err.count("\n") == 1
        assert sorted(path.name for path in out.iterdir()) == sorted([blocked, *before])
        assert list((out / blocked).iterdir()) == []

    def test_init_out_that_is_a_directory_exits_two(self, inputs, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert main(self._argv("init", inputs, out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot write contract to {out}: ")
        assert captured.err.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("junk", ["longer", "shorter"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_rerun_into_prefilled_out_equals_a_fresh_run(self, command, junk, inputs, tmp_path):
        fresh = tmp_path / "fresh"
        assert main(self._argv(command, inputs, fresh)) == 0
        want = self._files(fresh)
        out = tmp_path / "rerun"
        if command != "init":
            out.mkdir()
            (out / "notes.txt").write_bytes(b"kept")
            want["notes.txt"] = b"kept"
        self._fill(out, {
            name: bytes(range(256)) * 256 if junk == "longer" else b"#" * (len(data) // 2)
            for name, data in want.items() if name != "notes.txt"
        })
        assert main(self._argv(command, inputs, out)) == 0
        assert self._files(out) == want

    def test_links_and_mode_survive_a_rerun(self, inputs, tmp_path):
        out = tmp_path / "out"
        argv = self._argv("monitor", inputs, out)
        assert main(argv) == 0
        want = self._files(out)
        linked = tmp_path / "guard-link.csv"
        os.link(out / "guard.csv", linked)
        target = tmp_path / "witness-target.csv"
        target.write_bytes(bytes(range(256)) * 256)
        (out / "witness.csv").unlink()
        (out / "witness.csv").symlink_to(target)
        linked.write_bytes(bytes(range(256)) * 256)
        os.chmod(out / "guard.csv", 0o640)
        inode = os.stat(linked).st_ino
        assert main(argv) == 0
        assert linked.read_bytes() == want["guard.csv"]
        assert os.stat(out / "guard.csv").st_ino == inode and os.stat(linked).st_nlink == 2
        assert os.stat(out / "guard.csv").st_mode & 0o777 == 0o640
        assert (out / "witness.csv").is_symlink()
        assert target.read_bytes() == want["witness.csv"]

    def test_init_writes_to_a_device(self, capsys):
        # A device has no length to cut: ftruncate would fail with EINVAL.
        assert main(["init", "--out", os.devnull]) == 0
        assert capsys.readouterr().out == f"wrote default contract to {os.devnull}\n"

    @pytest.mark.parametrize(
        "command, code",
        [
            (["monitor", "{atom}", "{trace}"], 4),
            (["stream", "{atom}", "{trace}", "--clause", "x"], 4),
            (["monitor", "{contract}", "{bad}"], 3),
            (["sweep", "{contract}", "{bad}"], 3),
            (["match-audit", "{bad}"], 3),
            (["stream", "{contract}", "{bad}", "--clause", "onset_guard"], 3),
        ],
    )
    def test_failing_command_leaves_out_unchanged(self, command, code, inputs, tmp_path):
        atom = tmp_path / "atom.contract"
        atom.write_text("set tolerance 0.04\nframe x : made_up_atom @ ref_active\n")
        bad = tmp_path / "bad.json"
        bad.write_text('{"frame_step": 0.02, "union": {"ref": "01"')
        paths = {**inputs, "atom": str(atom), "bad": str(bad)}
        out = tmp_path / "out"
        out.mkdir()
        before = {name: bytes(range(256)) * 4 for name in
                  ("guard.csv", "witness.csv", "sweep.csv", "match_audit.csv", "stream.csv",
                   "manifest.json")}
        self._fill(out, before)
        argv = [word.format(**paths) for word in command] + ["--out", str(out)]
        assert main(argv) == code
        assert self._files(out) == before

    def test_no_command_builds_a_pair_set(self, inputs, tmp_path, monkeypatch):
        # Reports read a matching's index arrays; its frozenset is built only
        # for a caller that reads it.
        built = []
        monkeypatch.setattr(Matching, "pairs", property(lambda matching: built.append(1)))
        codes = {command: main(self._argv(command, inputs, tmp_path / command))
                 for command in self.COMMANDS}
        assert codes == dict.fromkeys(self.COMMANDS, 0)
        assert not built

    def test_stream_holds_a_bounded_number_of_frames(self, tmp_path, capsys):
        # 2e5 frames: the stream command peaked at 85.2 MB of traced
        # allocations when it listed every atom value, emission and row
        # before writing, and at 2.2 MB converting and writing in chunks.
        rng = np.random.default_rng(5)

        def runs_mask(n):
            lengths = rng.integers(3, 80, size=n // 10)
            return np.repeat(np.arange(lengths.size) % 2 == 1, lengths)[:n]

        contract_path = tmp_path / "c.contract"
        contract_path.write_text(default_contract_text(0.04))
        trace_path = tmp_path / "t.json"
        save_trace(TraceFile("t", 0.01, union=(runs_mask(200_000), runs_mask(200_000))), trace_path)
        argv = ["stream", str(contract_path), str(trace_path), "--clause", "onset_guard",
                "--out", str(tmp_path / "o")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000
        assert "offline agreement: yes" in capsys.readouterr().out
        with open(tmp_path / "o" / "stream.csv", encoding="utf-8") as handle:
            assert sum(1 for _ in handle) == 200_002


def _few_runs(rng, n: int, runs: int) -> np.ndarray:
    """A mask of ``n`` frames with at most ``runs`` runs."""
    edges = np.sort(rng.choice(np.arange(1, n), size=2 * runs, replace=False))
    return np.cumsum(np.bincount(edges, minlength=n)) % 2 == 1


def _plans_made() -> int:
    """Plans walked so far: misses of the process's plan memo."""
    return frames._plan.cache_info().misses


class TestContractMemo:
    """In-process commands parse and plan each distinct contract text once;
    the contract file's bytes are still read and hashed on every command."""

    @pytest.fixture(autouse=True)
    def cleared(self):
        contracts._parsed_contract.cache_clear()
        contracts._regenerated.cache_clear()
        frames._plan.cache_clear()

    def test_a_second_command_parses_and_plans_nothing(self, worked_files, tmp_path, monkeypatch):
        # The memo holds the original parse_contract_text, so the lexer counts
        # the parses; the plan memo's misses count the plans.
        contract_path, trace_path = worked_files
        contract_path.write_text(WORKED_CONTRACT + PLANNED_CLAUSE)
        calls = {"tokenize": 0}
        tokenize = lexer.tokenize

        def counting(*args, **kwargs):
            calls["tokenize"] += 1
            return tokenize(*args, **kwargs)

        for module in (lexer, parser):
            monkeypatch.setattr(module, "tokenize", counting)
        for command, flags in (("monitor", ["--classes"]), ("sweep", []),
                               ("stream", ["--clause", "onset_guard"])):
            argv = [command, str(contract_path), str(trace_path), *flags]
            made = _plans_made()
            assert main(argv + ["--out", str(tmp_path / "first")]) == 0
            assert _plans_made() - made == 1
            calls["tokenize"], made = 0, _plans_made()
            assert main(argv + ["--out", str(tmp_path / "second")]) == 0
            assert (calls["tokenize"], _plans_made() - made) == (0, 0)
            for name in os.listdir(tmp_path / "first"):
                assert (tmp_path / "first" / name).read_bytes() == (
                    tmp_path / "second" / name
                ).read_bytes()
        contracts._parsed_contract.cache_clear()
        assert main(["check", str(contract_path)]) == 0
        assert calls["tokenize"] == 12  # a formula and an obligation per frame clause

    def test_a_matcher_override_plans_nothing_on_a_warm_contract(self, worked_files, tmp_path):
        # --matcher monitors the contract with that matcher, whose frame
        # formulas and grid are the kept contract's, so the plan memo serves
        # it, with the bytes of a run on cleared memos.
        contract_path, trace_path = worked_files
        contract_path.write_text(WORKED_CONTRACT + PLANNED_CLAUSE)
        argv = ["monitor", str(contract_path), str(trace_path), "--classes"]
        assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
        assert _plans_made() == 1
        for policy in ("exact", "greedy"):
            warm, cold = tmp_path / f"{policy}-warm", tmp_path / f"{policy}-cold"
            assert main(argv + ["--matcher", policy, "--out", str(warm)]) == 0
            assert _plans_made() == 1
            contracts._parsed_contract.cache_clear()
            frames._plan.cache_clear()
            assert main(argv + ["--matcher", policy, "--out", str(cold)]) == 0
            assert _plans_made() == 1
            for name in ("guard.csv", "witness.csv", "manifest.json"):
                assert (warm / name).read_bytes() == (cold / name).read_bytes()
            manifest = json.loads((warm / "manifest.json").read_text())
            assert manifest["settings"]["matcher"] == policy
        assert contracts.load_contract(contract_path).matcher == "greedy"

    def test_a_warm_select_plans_nothing(self, tmp_path):
        # The basis plan is the contract's own, kept by value, so only the
        # first select on a contract text plans; the reports and the exit
        # code (6 for the infeasible basis) do not change.  The default
        # contract's guards are counted, so its basis holds a clause that
        # only the plan evaluates.
        calibration_path = tmp_path / "calibration.json"
        save_calibration(calibration_cases(), calibration_path)
        texts = {"default": (default_contract_text(0.04) + PLANNED_CLAUSE, 0),
                 "infeasible": (TestSelect.INFEASIBLE_BASIS, 6)}
        for name, (text, code) in texts.items():
            contract_path = tmp_path / f"{name}.contract"
            contract_path.write_text(text)
            reports = []
            for run in ("cold", "warm", "warmer"):
                out = tmp_path / name / run
                made = _plans_made()
                assert main(["select", str(contract_path), str(calibration_path),
                             "--out", str(out)]) == code
                assert _plans_made() - made == (run == "cold")
                reports.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert reports[0] == reports[1] == reports[2]
            assert sorted(reports[0]) == ["certificate.csv", "manifest.json", "selection.csv"]

    def test_an_edited_contract_is_parsed_again(self, worked_files, tmp_path):
        contract_path, trace_path = worked_files
        argv = ["monitor", str(contract_path), str(trace_path), "--out", str(tmp_path / "out")]

        def manifest():
            assert main(argv) == 0
            return json.loads((tmp_path / "out" / "manifest.json").read_text())

        before, shared = manifest(), contracts.load_contract(contract_path)
        edited = WORKED_CONTRACT.replace("set tolerance 0.08", "set tolerance 0.1")
        contract_path.write_text(edited)
        after = manifest()
        assert before["settings"]["tolerance"] == 0.08 and after["settings"]["tolerance"] == 0.1
        assert after["contract_sha256"] == hashlib.sha256(edited.encode()).hexdigest()
        assert after["contract_sha256"] != before["contract_sha256"]
        assert contracts.load_contract(contract_path) is not shared
        # The old text again: its contract is still kept.  Other bytes of the
        # same text share it, and their own digest is taken.
        contract_path.write_bytes(WORKED_CONTRACT.replace("\n", "\r\n").encode())
        contract, text, digest = contracts._read_contract(contract_path)
        assert contract is shared and text == WORKED_CONTRACT
        assert digest == hashlib.sha256(contract_path.read_bytes()).hexdigest()
        assert manifest() == before

    def test_a_contract_that_does_not_parse_fails_on_every_call(self, tmp_path, capsys):
        path = tmp_path / "bad.contract"
        path.write_text("set tolerance 0.04\nframe x : a - > b @ a\n")
        errors = []
        for _ in range(3):
            assert main(["check", str(path)]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0].endswith("  frame x : a - > b @ a\n" + "  " + " " * 12 + "^\n")
        assert errors == errors[:1] * 3
        assert contracts._parsed_contract.cache_info().currsize == 0

    def test_reports_are_the_same_with_a_warm_or_a_cleared_memo(
        self, worked_files, tmp_path, capsys
    ):
        contract_path, trace_path = worked_files
        default_path = tmp_path / "default.contract"
        default_path.write_text(default_contract_text(0.04))
        calibration_path = tmp_path / "calibration.json"
        save_calibration(calibration_cases(), calibration_path)
        bridge = bridge_fixture()
        bridge_path = tmp_path / "bridge.json"
        save_trace(TraceFile("bridge", bridge.frame_step,
                             union=(bridge.ref_mask, bridge.pred_mask)), bridge_path)
        rng = np.random.default_rng(11)
        corpus = []
        for k in range(3):
            # Few runs per class, so that the exact matcher stays within its bound.
            classes = {name: (_few_runs(rng, 600, 4), _few_runs(rng, 600, 4))
                       for name in ("speech", "music", "noise")}
            corpus.append(str(tmp_path / f"clip{k}.json"))
            save_trace(TraceFile(f"clip{k}", 0.01, classes=classes), corpus[-1])
        traces = [str(trace_path), str(bridge_path), *corpus]
        default, worked = str(default_path), str(contract_path)
        commands = {
            "check": ["check", worked],
            "check-default": ["check", default],
            "monitor": ["monitor", default, *traces, "--classes"],
            "monitor-worked": ["monitor", worked, *traces, "--classes"],
            "monitor-exact": ["monitor", default, *traces, "--matcher", "exact"],
            "sweep": ["sweep", default, *traces],
            "sweep-worked": ["sweep", worked, *traces, "--tolerances", "30,60"],
            "select": ["select", default, str(calibration_path)],
            "stream": ["stream", worked, str(trace_path), "--clause", "silence_guard"],
        }

        def run(root, clear):
            seen = {}
            for name, argv in commands.items():
                if clear:
                    contracts._parsed_contract.cache_clear()
                out = root / name
                if argv[0] != "check":
                    argv = argv + ["--out", str(out)]
                code = main(argv)
                printed = capsys.readouterr().out.replace(str(root), "<out>")
                files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if (
                    out.exists()) else {}
                seen[name] = (code, printed, files)
            return seen

        cleared = run(tmp_path / "cleared", True)
        shared = contracts.load_contract(default_path)
        warming = run(tmp_path / "warming", False)
        warm = run(tmp_path / "warm", False)
        assert cleared == warming == warm
        assert all(code == 0 for code, _, _ in warm.values())
        assert len(warm["monitor-exact"][2]["guard.csv"].splitlines()) == 2 + 7 * len(traces)
        # --matcher monitors a copy of the kept contract, which is unchanged.
        assert contracts.load_contract(default_path) is shared
        assert shared.matcher == "greedy"


def test_cli_imports_scipy_only_for_exact_matching(worked_files, tmp_path):
    contract_path, trace_path = worked_files
    script = (
        "import sys\n"
        "from tracecontracts.cli import main\n"
        "assert main(['monitor', sys.argv[1], sys.argv[2], '--out', sys.argv[3]]) == 0\n"
        "assert 'scipy' not in sys.modules\n"
        "assert main(['monitor', sys.argv[1], sys.argv[2], '--matcher', 'exact',\n"
        "             '--out', sys.argv[4]]) == 0\n"
        "assert 'scipy.optimize' in sys.modules\n"
    )
    package_root = Path(tracecontracts.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(package_root), *filter(None, [os.environ.get("PYTHONPATH")])])}
    greedy, exact = tmp_path / "greedy", tmp_path / "exact"
    done = subprocess.run(
        [sys.executable, "-c", script, str(contract_path), str(trace_path), str(greedy), str(exact)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert (exact / "guard.csv").read_bytes() != b""


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading: str, language: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    # The CLI block, line by line, on fixture files named as in the README,
    # then the Python block.
    monkeypatch.chdir(tmp_path)
    ref, pred, h = worked_trace()
    save_trace(TraceFile("worked", h, classes={"speech": (ref, pred)}, union=(ref, pred)),
               tmp_path / "trace.json")
    save_calibration(calibration_cases(), tmp_path / "calibration.json")
    commands = [shlex.split(line, comments=True)
                for line in _readme_block("Quick start (CLI)", "sh").splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) == 7 and all(argv[0] == "tracecontracts" for argv in commands)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    reports = ["report/guard.csv", "report/witness.csv", "sweep/sweep.csv", "audit/match_audit.csv",
               "selection/selection.csv", "stream/stream.csv"]
    assert all((tmp_path / name).is_file() for name in reports)
    capsys.readouterr()
    exec(compile(_readme_block("Quick start (Python)", "python"), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed[:-1]] == [
        "onset_guard", "offset_guard", "missing_guard", "spurious_guard", "silence_guard",
        "duration_guard", "fragmentation_guard",
    ]


# The documented exit codes of a well-formed contract and trace: 0, 2 for a
# clause a command cannot evaluate, 4 an unknown atom, 5 the exact matcher's
# bound and 6 an infeasible selection.
FUZZ_EXITS = {0, 2, 4, 5, 6}


@settings(max_examples=60, deadline=None)
@given(contract_texts(), fuzz_traces(), fuzz_cases(),
       st.sampled_from(("20", "40", "20,40", "10,40,80")))
def test_the_accepted_language_runs_through_every_command(text, trace, cases, tolerances):
    # Every command on a contract the language accepts exits with a
    # documented code and raises nothing; exit 2 comes only from an
    # overlap_purity clause, which no command here gives class context to
    # on every row, or from a sweep with no clause to regenerate.  Every
    # counted report row adds up and scores in [0, 1].
    contract = parse_contract_text(text)
    purity = any(getattr(c, "predicate", None) == "overlap_purity" for c in contract.clauses)
    with tempfile.TemporaryDirectory() as work:
        root = Path(work)
        contract_path, trace_path, cases_path = (str(root / name) for name in
                                                 ("c.contract", "t.json", "cases.json"))
        Path(contract_path).write_text(text, encoding="utf-8")
        save_trace(trace, trace_path)
        save_calibration(cases, cases_path)
        out = root / "o"
        runs = [["check", contract_path],
                ["monitor", contract_path, trace_path, "--classes", "--out", str(out)],
                ["monitor", contract_path, trace_path, "--out", str(out)],
                ["sweep", contract_path, trace_path, "--tolerances", tolerances, "--out", str(out)],
                ["select", contract_path, cases_path, "--out", str(out)],
                ["match-audit", trace_path, "--out", str(out)]]
        runs += [["stream", contract_path, trace_path, "--clause", clause.name, "--out", str(out)]
                 for clause in contract.frame_clauses[:2]]
        for argv in runs:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            assert code in ({0} if argv[0] == "check" else FUZZ_EXITS), (argv[0], err.getvalue())
            if code == 2:
                assert purity or (argv[0] == "sweep" and not contract.clauses), err.getvalue()
            for name in ("guard.csv", "sweep.csv"):
                if (out / name).exists():
                    for row in read_report(out / name):
                        if row["obligated"]:
                            counts = [int(row[key]) for key in ("satisfied", "violated")]
                            assert int(row["obligated"]) == sum(counts), row
                            assert 0.0 <= float(row["score"]) <= 1.0, row
            shutil.rmtree(out, ignore_errors=True)
