"""Command line front end: exit codes, report files, determinism."""

import builtins
import csv
import hashlib
import json
import os

import numpy as np
import pytest

from tracecontracts import basis
from tracecontracts.basis import save_calibration
from tracecontracts.cli import main
from tracecontracts.contracts import default_contract_text, parse_contract_text
from tracecontracts.fixtures import bridge_fixture, calibration_cases, stress_track, worked_trace
from tracecontracts.tracefile import (
    TraceFile,
    TraceFormatError,
    load_trace,
    mask_to_string,
    parse_mask,
    save_trace,
)

from gen import ALL_PREDICATES, contract_mutations


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


@pytest.mark.parametrize("command", ["monitor", "sweep", "stream"])
def test_unknown_atom_exits_four_naming_it(command, worked_files, tmp_path, capsys):
    _, trace_path = worked_files
    contract_path, out = tmp_path / "c.contract", tmp_path / "out"
    contract_path.write_text("set tolerance 0.04\nframe f : foo -> N[0.04] pred_onset @ ref_onset\n")
    argv = [command, str(contract_path), str(trace_path), "--out", str(out)]
    assert main(argv + (["--clause", "f"] if command == "stream" else [])) == 4
    assert capsys.readouterr().err == "atom binding error: unknown atom 'foo'\n"
    assert not out.exists()


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
        # One clause evaluation per case serves classes, basis and selection.
        contract_path = tmp_path / "basis.contract"
        contract_path.write_bytes(default_contract_text(0.04).replace("\n", "\r\n").encode())
        calibration_path = tmp_path / "calibration.json"
        cases = calibration_cases()
        save_calibration(cases, calibration_path)
        seen = []
        case_values = basis._case_values

        def counting_case_values(candidates, case):
            seen.append(case.id)
            return case_values(candidates, case)

        monkeypatch.setattr(basis, "_case_values", counting_case_values)
        out = tmp_path / "sel"
        assert main(["select", str(contract_path), str(calibration_path), "--out", str(out)]) == 0
        assert seen == [case.id for case in cases]
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
@pytest.mark.parametrize("value", ["0", "-40", "nan", "inf", "forty"])
def test_millisecond_flags_reject_non_positive_or_non_finite(command, value, capsys):
    argv = MS_FLAG_COMMANDS[command].replace("{}", value).split()
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert "finite positive number of milliseconds" in capsys.readouterr().err


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

    def test_empty_masks_load(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"frame_step": 0.02, "union": {"ref": "", "pred": ""}}')
        trace = load_trace(path)
        assert trace.frame_count == 0
        save_trace(trace, tmp_path / "again.json")
        assert load_trace(tmp_path / "again.json").union[0].shape == (0,)
