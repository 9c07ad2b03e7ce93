#!/usr/bin/env python3
"""One SHA-256 over every report of a fixed set of in-process commands.

    PYTHONPATH=src python tools/report_digest.py [--each]

Runs ``check``, ``monitor --classes``, ``monitor --matcher exact`` (on
inputs within the exact matcher's bound), ``sweep``, ``match-audit``,
``select`` and ``stream`` through ``tracecontracts.cli.main`` in one
process.  The inputs are the built-in fixtures (the worked and fragmented
traces, the 24-case stress track, the bridge fixture and the calibration
cases) and a seeded 3-class corpus; the contracts are the default, one with
a merge gap, and one whose frame clauses have non-atom obligations.  A
fourth contract is only streamed: its clauses reach every template of the
streaming monitor (``!``, ``&``, ``|``, ``->``, ``N``, ``F``, ``G`` and a
nested ``U`` whose right side is also read by a window).

The digest covers, per command in order, its arguments, exit code,
standard output and error, and the name and bytes of every file it writes;
the scratch directory's path is replaced by ``<root>`` first.  Run it with
two trees' packages on the path: equal digests mean equal reports.  With
``--each`` a digest per command is printed before the total;
``tests/report_digests.txt`` pins that output, with the Python and numpy
versions it was made with.

The command list then runs a second time in the same process, into the
same ``--out`` directories, where the contract and plan memos are warm.
The printed digests are those of the first pass; if any command's second
digest differs from its first, the tool names it on standard error and
exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from tracecontracts.basis import save_calibration
from tracecontracts.cli import main
from tracecontracts.contracts import default_contract_text
from tracecontracts.fixtures import (
    bridge_fixture,
    calibration_cases,
    fragmented_trace,
    stress_track,
    worked_trace,
)
from tracecontracts.tracefile import TraceFile, save_trace

SEED = 20260
CLASSES = ("speech", "music", "noise")

# Frame witnesses over non-atom obligations, beside shapes without a witness.
NON_ATOM_OBLIGATIONS = """\
set tolerance 0.04
frame both_guard : ref_active -> N[0.04] pred_active @ ref_active & pred_active
frame bleed_guard : pred_active -> N[0.02] ref_active @ pred_active & !ref_active
frame lead_guard : ref_onset -> N[0.04] pred_onset @ F[0.04] ref_onset
frame offset_guard : ref_offset -> N[0.04] pred_offset @ ref_offset
frame hold_guard : ref_active U[0.2] ref_offset @ ref_onset
event duration_guard : duration_within @ matched_pairs threshold=0.1
event fragmentation_guard : singly_covered @ reference_intervals
event latency_guard : latency_window @ reference_intervals
"""

# Streamed only: every node kind of the streaming monitor's templates.
STREAM_TEMPLATES = """\
set tolerance 0.04
frame hold_guard : ref_active -> G[0.03] pred_active @ ref_active
frame soon_guard : ref_onset -> F[0.05] (pred_onset | pred_active) @ ref_onset
frame quiet_guard : !ref_active & N[0.02] !pred_active @ !ref_active
frame until_guard : ref_active U[0.1] (pred_active U[0.04] !ref_onset) | F[0.02] !ref_onset @ ref_active
"""


def _runs_mask(rng: np.random.Generator, n: int, runs: int) -> np.ndarray:
    """At most ``runs`` runs of 5-60 frames at random places."""
    mask = np.zeros(n, bool)
    for start in rng.integers(0, n - 60, runs):
        mask[start:start + rng.integers(5, 61)] = True
    return mask


def _write_inputs(root: Path) -> dict:
    """Contract, trace and calibration files under ``root``, by role."""
    contracts = {
        "default": default_contract_text(0.04),
        "merge": default_contract_text(0.04, merge_gap=0.03),
        "nonatom": NON_ATOM_OBLIGATIONS,
        "templates": STREAM_TEMPLATES,
    }
    for name, text in contracts.items():
        (root / f"{name}.contract").write_text(text, encoding="utf-8")
    traces = {}
    for name, (ref, pred, h) in (("worked", worked_trace()), ("fragmented", fragmented_trace())):
        traces[name] = TraceFile(name, h, union=(ref, pred))
    for case in [*stress_track(), bridge_fixture()]:
        traces[case.case_id] = TraceFile(case.case_id, case.frame_step,
                                         union=(case.ref_mask, case.pred_mask))
    rng = np.random.default_rng(SEED)
    few, dense = [], []
    for k in range(3):
        # Few runs per class, so that the exact matcher stays within its bound.
        few.append(f"clip{k}")
        traces[few[-1]] = TraceFile(few[-1], 0.01, classes={
            name: (_runs_mask(rng, 600, 4), _runs_mask(rng, 600, 4)) for name in CLASSES
        })
    for k in range(2):
        dense.append(f"dense{k}")
        traces[dense[-1]] = TraceFile(dense[-1], 0.01, classes={
            name: (rng.random(900) < 0.4, rng.random(900) < 0.3) for name in CLASSES
        })
    paths = {}
    for name, trace in traces.items():
        paths[name] = str(root / f"{name}.json")
        save_trace(trace, paths[name])
    save_calibration(calibration_cases(), root / "calibration.json")
    everything = list(paths.values())
    bounded = [p for name, p in paths.items() if not name.startswith("dense")]
    return {
        "contracts": {name: str(root / f"{name}.contract") for name in contracts},
        "all": everything,
        "bounded": bounded,
        "few": [paths[name] for name in few],
        "worked": paths["worked"],
        "bridge": paths["bridge_canonical"],
        "calibration": str(root / "calibration.json"),
    }


def _commands(inputs: dict) -> dict[str, list[str]]:
    """Each command's name and arguments, ``--out`` excepted, in run order."""
    commands = {}
    streams = {"default": ("onset_guard", "silence_guard"), "merge": ("missing_guard",),
               "nonatom": ("lead_guard", "hold_guard"),
               "templates": ("hold_guard", "soon_guard", "quiet_guard", "until_guard")}
    for name, contract in inputs["contracts"].items():
        if name != "templates":
            commands[f"check-{name}"] = ["check", contract]
            commands[f"monitor-{name}"] = ["monitor", contract, *inputs["all"], "--classes"]
            commands[f"monitor-exact-{name}"] = ["monitor", contract, *inputs["bounded"],
                                                 "--classes", "--matcher", "exact"]
            commands[f"sweep-{name}"] = ["sweep", contract, *inputs["all"]]
            commands[f"select-{name}"] = ["select", contract, inputs["calibration"]]
        for clause in streams[name]:
            for trace in ("worked", "bridge"):
                commands[f"stream-{name}-{clause}-{trace}"] = [
                    "stream", contract, inputs[trace], "--clause", clause]
    default = inputs["contracts"]["default"]
    commands["monitor-soft-scale"] = ["monitor", default, *inputs["few"], "--soft-scale", "20"]
    commands["sweep-two"] = ["sweep", default, *inputs["all"], "--tolerances", "30,60"]
    commands["match-audit"] = ["match-audit", *inputs["all"]]
    commands["match-audit-bound"] = ["match-audit", *inputs["all"], "--bound", "1",
                                     "--epsilon-ms", "20"]
    return commands


def _digest_of(root: Path, argv: list[str], out: Path) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv if argv[0] == "check" else [*argv, "--out", str(out)])
    digest = hashlib.sha256()
    head = [argv, code, stdout.getvalue(), stderr.getvalue()]
    digest.update(json.dumps(head).replace(str(root), "<root>").encode("utf-8"))
    for path in sorted(out.iterdir()) if out.exists() else []:
        data = path.read_bytes()
        digest.update(f"\n{path.name} {len(data)}\n".encode("utf-8") + data)
    return digest.hexdigest()


def report_digests(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """Each command's digest, in run order, with its files under ``root``:
    from a first pass, and from a second pass over the same commands and
    output directories."""
    commands = _commands(_write_inputs(root))
    return tuple({name: _digest_of(root, argv, root / "out" / name)
                  for name, argv in commands.items()} for _ in range(2))


def main_digest(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--each", action="store_true", help="also print each command's digest")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        digests, again = report_digests(Path(scratch))
    if args.each:
        for name, digest in digests.items():
            print(f"{digest}  {name}")
    total = hashlib.sha256("".join(f"{n} {d}\n" for n, d in digests.items()).encode("utf-8"))
    print(total.hexdigest())
    changed = [name for name, digest in digests.items() if again[name] != digest]
    for name in changed:
        print(f"second run differs: {name}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main_digest())
