"""Command line front end.

Subcommands: ``check`` validates a contract file, ``monitor`` evaluates
traces into guard/witness CSVs with a manifest, ``sweep`` re-monitors
under a tolerance grid, ``match-audit`` compares greedy and exact
interval matching, ``select`` runs risk-ordered contract selection, and
``stream`` replays one clause through the online monitor.

A process parses each distinct contract text once: every command still
reads and hashes its contract file's bytes, but a text read before yields
the same shared contract.  Plans are kept by value, not on the contract
(``frames.share_subformulas``), as are a sweep's regenerated contracts, so
in-process commands that monitor, sweep, select or stream equal formulas
on one grid plan them once.  ``monitor --matcher`` monitors the contract
with that matcher.  A fresh-process run reads one contract, so it neither
gains nor loses.

Flags take milliseconds; everything internal is seconds.  Outputs are
deterministic byte-for-byte for equal inputs and flags: every CSV starts
with a ``# manifest=<run id>`` comment line, where the run id is a hash
of the settings and input digests.  Exit codes: 0 success, 1 a
``stream`` verdict that differs from offline evaluation (the report is
still written), 2 contract or usage error (including a clause the
command cannot evaluate, such as ``overlap_purity`` on the union masks,
and an ``--out`` that cannot be made or opened), 3 trace format error,
4 atom binding error, 5 matching bound exceeded: by ``match-audit
--strict-bound``, or by an exact-matcher instance in ``monitor``,
``sweep`` or ``select``, 6 an infeasible ``select``: no candidate clause
separates some risk pair (the report is still written, nothing selected).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .basis import _calibration_cases, _selection, clause_cost
from .contracts import (
    MATCHER_POLICIES,
    SETTINGS,
    Contract,
    ContractError,
    ContractSyntaxError,
    FrameClause,
    GuardCoordinate,
    GuardVector,
    MonitorResult,
    _macro,
    _mean,
    _monitor,
    _read_contract,
    compile_contract,
    default_contract_text,
    tolerance_sweep,
)
from .frames import UnknownAtomError, derive_edge_atoms, evaluate
from .intervals import DEFAULT_EXACT_BOUND, AuditBoundError, Family, intervals, matcher_audit
from .parser import atom_names, format_formula, radius_sum, temporal_depth
from .streaming import StreamingMonitor
from .tracefile import TraceFormatError, canonical_json, load_trace, read_json, sha256_text

EXIT_OK = 0
EXIT_CONTRACT = 2
EXIT_TRACE = 3
EXIT_ATOM = 4
EXIT_BOUND = 5
EXIT_INFEASIBLE = 6


def _fmt_score(value: float) -> str:
    return f"{value:.6f}"


def _fmt_ms(value: float | None) -> str:
    return "" if value is None else f"{value:.3f}"


def _print_contract_error(path: str, error: ContractSyntaxError) -> None:
    print(f"{path}:{error.line_number}: error: {error.message}", file=sys.stderr)
    if error.line_text:
        print(f"  {error.line_text}", file=sys.stderr)
        if error.span is not None:
            print("  " + " " * error.span.start + "^", file=sys.stderr)


def _positive_ms(text: str) -> float:
    """Argument type of the millisecond flags: a finite number whose value in
    seconds, which the commands use, is positive."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value / 1000.0 > 0.0):
        raise argparse.ArgumentTypeError(
            f"expected a finite positive number of milliseconds, got {text!r}"
        )
    return value


def _positive_count(text: str) -> int:
    """Argument type of ``--bound``: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _positive_ms_list(text: str) -> list[float]:
    return [_positive_ms(part) for part in text.split(",")]


def _load_contract(path: str) -> tuple[Contract, str, str]:
    """:func:`contracts._read_contract`, with its errors reported."""
    try:
        return _read_contract(path)
    except ContractSyntaxError as error:
        _print_contract_error(path, error)
        raise SystemExit(EXIT_CONTRACT) from None
    except (OSError, UnicodeDecodeError) as error:
        print(f"cannot read contract {path}: {error}", file=sys.stderr)
        raise SystemExit(EXIT_CONTRACT) from None


def _load_traces(paths) -> list:
    traces = []
    for path in paths:
        try:
            traces.append((path, load_trace(path)))
        except OSError as error:
            print(f"cannot read trace {path}: {error}", file=sys.stderr)
            raise SystemExit(EXIT_TRACE) from None
    return traces


def _contract_settings(contract: Contract) -> dict:
    return {key: getattr(contract, key) for key in SETTINGS}


@contextlib.contextmanager
def _in_place(path: str):
    """Text handle that overwrites ``path`` in place.

    The file is opened without truncation, so rewriting an existing report
    does not wait on writeback of the old bytes; once the new text is
    flushed, a longer old file is cut at the new end (a device has no
    length to cut).  The inode, its hard links and its mode are kept, as
    with ``open(path, "w")``.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
        yield handle
        handle.flush()
        end = os.lseek(fd, 0, os.SEEK_CUR)
        if os.fstat(fd).st_size > end:
            os.ftruncate(fd, end)


def _write_report(
    args, command: str, contract_text: str | None, settings: dict, inputs, flags: dict, tables: dict
) -> None:
    """Write each ``name: (header, rows)`` table and then ``manifest.json``
    under ``args.out``; every CSV starts with the manifest's run id.
    ``rows`` may be any iterable, consumed once as it is written.
    ``inputs`` are (path, SHA-256) pairs, each digest that of the bytes
    parsed."""
    manifest = {
        "tool": "tracecontracts",
        "version": __version__,
        "command": command,
        "contract_sha256": sha256_text(contract_text) if contract_text is not None else None,
        "settings": settings,
        "inputs": [
            {"path": os.path.basename(str(path)), "sha256": digest}
            for path, digest in inputs
        ],
        "flags": flags,
    }
    manifest["run_id"] = sha256_text(canonical_json(manifest))[:16]
    manifest["generated_at"] = (
        datetime.now(timezone.utc).isoformat() if args.stamp_time else None
    )
    try:
        os.makedirs(args.out, exist_ok=True)
        for name, (header, rows) in tables.items():
            with _in_place(os.path.join(args.out, name)) as handle:
                handle.write(f"# manifest={manifest['run_id']}\n")
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(rows)
        with _in_place(os.path.join(args.out, "manifest.json")) as handle:
            handle.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except OSError as error:
        print(f"cannot write report to {args.out}: {error}", file=sys.stderr)
        raise SystemExit(EXIT_CONTRACT) from None


def _coordinate_cells(coord: GuardCoordinate) -> list[str]:
    return [
        coord.name,
        _fmt_score(coord.score),
        str(coord.obligated),
        str(coord.satisfied),
        str(coord.violated),
    ]


def _guard_rows(item_id: str, class_name: str, guards: GuardVector) -> list[list[str]]:
    return [
        [item_id, class_name, *_coordinate_cells(coord), _fmt_ms(coord.witness_mean)]
        for coord in guards
    ]


def _witness_row(item_id, class_name, result: MonitorResult, soft: float) -> list[str]:
    witness = result.witnesses
    duration_mae_ms = _mean(witness.duration_abs_diffs, 1000.0)
    extra_mean = _mean(witness.fragmentation_extra_counts)
    return [
        item_id,
        class_name,
        _fmt_ms(witness.onset_mae_ms),
        _fmt_ms(witness.offset_mae_ms),
        str(witness.onset_excluded),
        str(witness.offset_excluded),
        _fmt_ms(duration_mae_ms),
        "" if extra_mean is None else f"{extra_mean:.3f}",
        _fmt_score(soft),
    ]


GUARD_HEADER = [
    "item_id",
    "class",
    "clause_name",
    "score",
    "obligated",
    "satisfied",
    "violated",
    "witness_mean_ms",
]

WITNESS_HEADER = [
    "item_id",
    "class",
    "onset_mae_ms",
    "offset_mae_ms",
    "onset_excluded",
    "offset_excluded",
    "duration_mae_ms",
    "fragmentation_extra_mean",
    "soft_boundary",
]


def cmd_check(args) -> int:
    contract, _, _ = _load_contract(args.contract)
    # Lookahead in seconds does not depend on the grid and a check has no
    # trace, so any frame step serves.
    reach = compile_contract(contract, 1.0).reach
    print(
        f"contract: tolerance={contract.tolerance}s silence_radius={contract.silence_radius}s "
        f"merge_gap={contract.merge_gap}s matcher={contract.matcher}"
    )
    for clause in contract.clauses:
        if isinstance(clause, FrameClause):
            formula = clause.formula
            print(
                f"frame {clause.name}: {format_formula(formula)} @ "
                f"{format_formula(clause.obligation)} "
                f"(depth={temporal_depth(formula)}, radius_sum={radius_sum(formula):.3f}s, "
                f"lookahead={reach[formula].seconds:.3f}s)"
            )
        else:
            params = " ".join(f"{k}={v}" for k, v in clause.params)
            suffix = f" {params}" if params else ""
            print(f"event {clause.name}: {clause.predicate} @ {clause.obligation}{suffix}")
    print(f"{len(contract.clauses)} clauses parsed")
    return EXIT_OK


def cmd_monitor(args) -> int:
    contract, contract_text, _ = _load_contract(args.contract)
    if args.matcher:
        contract = dataclasses.replace(contract, matcher=args.matcher)
    traces = _load_traces(args.traces)
    soft_scale = args.soft_scale / 1000.0
    guard_rows: list[list[str]] = []
    witness_rows: list[list[str]] = []
    for path, trace in traces:
        # The union row and the class rows are the groups of one pass; its
        # errors are those of the union row first, then of the classes in order.
        classes = list(trace.classes) if args.classes else []
        for name in classes:
            if name in ("union", "macro"):
                raise TraceFormatError(f"{path}: class {name!r} would share the {name} rows")
        pairs = [trace.union_masks(), *(trace.classes[name] for name in classes)]
        runs, results = _monitor([contract], pairs, trace.frame_step, [None, *classes])
        soft = runs.soft_boundary(soft_scale)
        rows = [("union", 0), *sorted((name, g) for g, name in enumerate(classes, 1))]
        for class_name, g in rows:
            guard_rows.extend(_guard_rows(trace.item_id, class_name, results[g].guards))
            witness_rows.append(_witness_row(trace.item_id, class_name, results[g], soft[g]))
        if classes:
            guard_rows.extend(_guard_rows(trace.item_id, "macro", _macro(contract, results[1:])))
    _write_report(
        args,
        "monitor",
        contract_text,
        {**_contract_settings(contract), "soft_scale_ms": args.soft_scale},
        [(path, trace.sha256) for path, trace in traces],
        {"classes": bool(args.classes)},
        {"guard.csv": (GUARD_HEADER, guard_rows), "witness.csv": (WITNESS_HEADER, witness_rows)},
    )
    print(f"wrote {len(guard_rows)} guard rows for {len(traces)} trace(s) to {args.out}")
    return EXIT_OK


SWEEP_HEADER = [
    "tolerance_ms",
    "item_id",
    "class",
    "clause_name",
    "score",
    "obligated",
    "satisfied",
    "violated",
    "formula",
]


def cmd_sweep(args) -> int:
    contract, contract_text, _ = _load_contract(args.contract)
    if "mean_logic" in (clause.name for clause in contract.clauses):
        raise ContractError("clause 'mean_logic' would share the mean_logic rows")
    traces = _load_traces(args.traces)
    tolerances_ms = args.tolerances
    tolerances = [t / 1000.0 for t in tolerances_ms]
    if any(b <= a for a, b in zip(tolerances, tolerances[1:])):
        print("tolerances must be strictly ascending", file=sys.stderr)
        return EXIT_CONTRACT
    rows: list[list[str]] = []
    summary_rows: list[list[str]] = []
    for path, trace in traces:
        ref, pred = trace.union_masks()
        sweep = tolerance_sweep(contract, ref, pred, trace.frame_step, tolerances)
        for t_ms, row in zip(tolerances_ms, sweep.rows):
            formulas = row.formula_texts
            for coord in row.guards:
                rows.append(
                    [
                        f"{t_ms:g}",
                        trace.item_id,
                        "union",
                        *_coordinate_cells(coord),
                        formulas.get(coord.name, ""),
                    ]
                )
            rows.append(
                [
                    f"{t_ms:g}",
                    trace.item_id,
                    "union",
                    "mean_logic",
                    _fmt_score(row.mean_logic),
                    "",
                    "",
                    "",
                    "",
                ]
            )
        summary_rows.append(
            [trace.item_id, "union", _fmt_score(sweep.integral), _fmt_score(sweep.span)]
        )
    _write_report(
        args,
        "sweep",
        contract_text,
        {**_contract_settings(contract), "tolerances_ms": tolerances_ms},
        [(path, trace.sha256) for path, trace in traces],
        {},
        {
            "sweep.csv": (SWEEP_HEADER, rows),
            "sweep_summary.csv": (["item_id", "class", "integral", "span"], summary_rows),
        },
    )
    print(f"wrote sweep over {len(tolerances)} tolerances for {len(traces)} trace(s) to {args.out}")
    return EXIT_OK


AUDIT_HEADER = [
    "item_id",
    "epsilon_ms",
    "ref_count",
    "pred_count",
    "greedy_matches",
    "exact_matches",
    "changed",
    "greedy_boundary_f1",
    "exact_boundary_f1",
    "boundary_f1_delta",
    "duration_delta",
    "fragmentation_delta",
    "note",
]


def cmd_match_audit(args) -> int:
    traces = _load_traces(args.traces)
    epsilon = args.epsilon_ms / 1000.0
    rows = []
    for path, trace in traces:
        h = trace.frame_step
        ref, pred = trace.union_masks()
        refs, preds = (Family(lo * h, hi * h) for lo, hi in (intervals(ref, h), intervals(pred, h)))
        head = [trace.item_id, f"{args.epsilon_ms:g}", str(len(refs)), str(len(preds))]
        try:
            audit = matcher_audit(refs, preds, epsilon, bound=args.bound)
        except AuditBoundError as error:
            if args.strict_bound:
                print(f"audit bound exceeded: {error}", file=sys.stderr)
                return EXIT_BOUND
            rows.append(head + [""] * 8 + ["bound_exceeded"])
            continue
        scores = (audit.greedy_boundary_f1, audit.exact_boundary_f1, audit.boundary_f1_delta,
                  audit.duration_delta, audit.fragmentation_delta)
        rows.append(head + [str(len(audit.greedy)), str(len(audit.exact)),
                            "true" if audit.changed else "false", *map(_fmt_score, scores), ""])
    _write_report(
        args,
        "match-audit",
        None,
        {"epsilon_ms": args.epsilon_ms, "bound": args.bound},
        [(path, trace.sha256) for path, trace in traces],
        {"strict_bound": bool(args.strict_bound)},
        {"match_audit.csv": (AUDIT_HEADER, rows)},
    )
    print(f"wrote matcher audit for {len(traces)} trace(s) to {args.out}")
    return EXIT_OK


def cmd_select(args) -> int:
    contract, contract_text, contract_digest = _load_contract(args.basis)
    try:
        data, calibration_digest = read_json(args.calibration)
        cases = _calibration_cases(data, args.calibration)
    except (TraceFormatError, OSError) as error:
        print(f"calibration error: {error}", file=sys.stderr)
        return EXIT_TRACE
    classes, kept, selection = _selection(contract, cases)
    clauses = contract.clauses
    print(f"calibration: {len(cases)} cases, {len(clauses)} candidate clauses")
    print("observational classes:")
    for cls in classes:
        names = ", ".join(clauses[m].name for m in cls.members)
        tag = " (constant)" if cls.constant else ""
        print(f"  [{names}]{tag}")
    print("retained basis: " + ", ".join(clauses[order].name for order in kept))
    if selection.feasible:
        print("selected contract: " + ", ".join(c.name for c in selection.selected))
        print("separation certificate:")
        for low, high, order in selection.certificate:
            print(f"  {low} < {high}: {clauses[order].name}")
    else:
        low, high = selection.unseparated_pair
        print(f"infeasible: no clause separates {low!r} (lower risk) from {high!r}")
    if args.out:
        # An infeasible selection selects nothing and certifies no pair.
        class_of = {member: cls for cls in classes for member in cls.members}
        selection_rows = [
            [
                str(order),
                clause.name,
                "frame" if isinstance(clause, FrameClause) else "event",
                str(clause_cost(clause)),
                "true" if class_of[order].constant else "false",
                clauses[class_of[order].representative].name,
                "true" if order in kept else "false",
                "true" if clause in selection.selected else "false",
            ]
            for order, clause in enumerate(clauses)
        ]
        certificate_rows = [
            [low, high, clauses[order].name] for low, high, order in selection.certificate
        ]
        _write_report(
            args,
            "select",
            contract_text,
            {"tolerance": contract.tolerance, "matcher": contract.matcher},
            [(args.basis, contract_digest), (args.calibration, calibration_digest)],
            {},
            {
                "selection.csv": (
                    ["source_order", "clause_name", "kind", "cost", "constant",
                     "class_representative", "retained", "selected"],
                    selection_rows,
                ),
                "certificate.csv": (
                    ["low_risk_case", "high_risk_case", "witnessing_clause"],
                    certificate_rows,
                ),
            },
        )
    return EXIT_OK if selection.feasible else EXIT_INFEASIBLE


STREAM_HEADER = ["frame_index", "emitted_after_frames", "verdict", "offline", "equal"]

# The verdict, offline and equal cells of a ``stream`` row: STREAM_FLAGS[verdict][offline].
STREAM_FLAGS = tuple(
    tuple((str(verdict), str(offline), "true" if verdict == offline else "false")
          for offline in (0, 1))
    for verdict in (0, 1)
)

# Frames whose atom values are held as Python objects at once by ``stream``.
STREAM_CHUNK = 4096


def _stepped(stream: StreamingMonitor, env):
    """Feed every frame of ``env`` to ``stream``, then finalize it; yield
    (frames received, verdicts emitted) after each call.  A frame holds only
    the atoms the formula reads (a name ``env`` lacks stays missing, for the
    monitor to report); the atom columns are converted to Python values one
    chunk at a time."""
    read = atom_names(stream.formula)
    names = tuple(name for name in env.atoms if name in read)
    step = stream.step
    for lo in range(0, env.frame_count, STREAM_CHUNK):
        columns = [env.atoms[name][lo : lo + STREAM_CHUNK].tolist() for name in names]
        for after, values in enumerate(zip(*columns), lo + 1):
            yield after, step(dict(zip(names, values)))
    yield env.frame_count, stream.finalize()


def cmd_stream(args) -> int:
    contract, contract_text, _ = _load_contract(args.contract)
    traces = _load_traces([args.trace])
    _, trace = traces[0]
    clause = next(
        (
            c
            for c in contract.clauses
            if isinstance(c, FrameClause) and c.name == args.clause
        ),
        None,
    )
    if clause is None:
        names = ", ".join(c.name for c in contract.clauses if isinstance(c, FrameClause))
        print(f"no frame clause named {args.clause!r}; available: {names}", file=sys.stderr)
        return EXIT_CONTRACT
    ref, pred = trace.union_masks()
    env = derive_edge_atoms(ref, pred, trace.frame_step)
    offline = evaluate(clause.formula, env).tobytes()  # one 0/1 byte per frame
    stream = StreamingMonitor(clause.formula, trace.frame_step)
    disagreements = 0

    def rows():
        nonlocal disagreements
        for after, verdicts in _stepped(stream, env):
            for index, verdict in verdicts:
                expected = offline[index]
                disagreements += verdict != expected
                shown, wanted, equal = STREAM_FLAGS[verdict][expected]
                yield [index, after, shown, wanted, equal]

    _write_report(
        args,
        "stream",
        contract_text,
        {"clause": args.clause, "lookahead_frames": stream.lookahead_frames},
        [(args.trace, trace.sha256)],
        {},
        {"stream.csv": (STREAM_HEADER, rows())},
    )
    print(
        f"streamed {env.frame_count} frames, lookahead {stream.lookahead_frames} frames, "
        f"offline agreement: {'NO' if disagreements else 'yes'}"
    )
    return 1 if disagreements else EXIT_OK


def cmd_init(args) -> int:
    text = default_contract_text(args.tolerance_ms / 1000.0)
    if args.out:
        try:
            with _in_place(args.out) as handle:
                handle.write(text)
        except OSError as error:
            print(f"cannot write contract to {args.out}: {error}", file=sys.stderr)
            return EXIT_CONTRACT
        print(f"wrote default contract to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and reused."""
    parser = argparse.ArgumentParser(
        prog="tracecontracts",
        description="Boundary contract monitoring for finite binary traces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # Every command that writes a manifest can stamp it with the time.
    stamp = argparse.ArgumentParser(add_help=False)
    stamp.add_argument("--stamp-time", action="store_true")

    p_check = sub.add_parser("check", help="parse and describe a contract file")
    p_check.add_argument("contract")
    p_check.set_defaults(func=cmd_check)

    p_monitor = sub.add_parser("monitor", parents=[stamp], help="evaluate contract guards on trace files")
    p_monitor.add_argument("contract")
    p_monitor.add_argument("traces", nargs="+")
    p_monitor.add_argument("--out", required=True, help="output directory")
    p_monitor.add_argument("--matcher", choices=MATCHER_POLICIES, default=None)
    p_monitor.add_argument("--classes", action="store_true", help="also report per-class and macro rows")
    p_monitor.add_argument("--soft-scale", type=_positive_ms, default=50.0, metavar="MS")
    p_monitor.set_defaults(func=cmd_monitor)

    p_sweep = sub.add_parser("sweep", parents=[stamp], help="re-monitor under a tolerance grid")
    p_sweep.add_argument("contract")
    p_sweep.add_argument("traces", nargs="+")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument(
        "--tolerances", type=_positive_ms_list, default="20,40,80,120,160", metavar="MS,MS,..."
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_audit = sub.add_parser("match-audit", parents=[stamp],
                             help="compare greedy and exact interval matching")
    p_audit.add_argument("traces", nargs="+")
    p_audit.add_argument("--out", required=True)
    p_audit.add_argument("--epsilon-ms", type=_positive_ms, default=80.0)
    p_audit.add_argument("--bound", type=_positive_count, default=DEFAULT_EXACT_BOUND)
    p_audit.add_argument("--strict-bound", action="store_true", help="exit 5 when the bound is exceeded")
    p_audit.set_defaults(func=cmd_match_audit)

    p_select = sub.add_parser("select", parents=[stamp], help="risk-ordered contract selection")
    p_select.add_argument("basis", help="candidate basis contract file")
    p_select.add_argument("calibration", help="calibration set JSON")
    p_select.add_argument("--out", default=None)
    p_select.set_defaults(func=cmd_select)

    p_stream = sub.add_parser("stream", parents=[stamp],
                              help="replay one frame clause through the online monitor")
    p_stream.add_argument("contract")
    p_stream.add_argument("trace")
    p_stream.add_argument("--clause", required=True)
    p_stream.add_argument("--out", required=True)
    p_stream.set_defaults(func=cmd_stream)

    p_init = sub.add_parser("init", help="emit the default contract file")
    p_init.add_argument("--tolerance-ms", type=_positive_ms, default=40.0)
    p_init.add_argument("--out", default=None)
    p_init.set_defaults(func=cmd_init)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as stop:
        return int(stop.code) if stop.code is not None else 0
    except ContractError as error:
        print(f"contract error: {error}", file=sys.stderr)
        return EXIT_CONTRACT
    except UnknownAtomError as error:
        print(f"atom binding error: {error}", file=sys.stderr)
        return EXIT_ATOM
    except TraceFormatError as error:
        print(f"trace error: {error}", file=sys.stderr)
        return EXIT_TRACE
    except AuditBoundError as error:
        print(f"matcher bound error: {error}", file=sys.stderr)
        return EXIT_BOUND


if __name__ == "__main__":
    sys.exit(main())
