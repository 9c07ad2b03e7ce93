#!/usr/bin/env python3
"""Benchmark for tracecontracts: one seeded workload per invocation.

    python3 bench/run.py --workload long_trace --seed 1 --seconds 35 --trace 0

Run from the repository root (or any copy of it that holds ``src/``).
With ``--trace 0`` the run is timed with no instrumentation and the
result carries the end-to-end metrics.  With ``--trace 1`` the program's
public functions are wrapped to record spans for the first half of
``--seconds``, the per-layer metrics are derived from those spans, and the
same operations are then replayed without wrappers to give the tracing
overhead and a second report digest.

The report lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results, machine facts and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_DIR = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 5

def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("long_trace", "clip_corpus", "stream_replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> float:
    """Import the package from this tree's ``src``; return the seconds taken.

    numpy and scipy are loaded first and not timed: their import is most of
    a second of shared-library loading whose time swings by a third between
    runs, and no change to the package makes it faster or slower.
    """
    if not os.path.isfile(os.path.join(SRC, "tracecontracts", "__init__.py")):
        raise SystemExit(f"error: no tracecontracts sources under {SRC}")
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401

    start = perf_counter()
    sys.path.insert(0, SRC)
    import tracecontracts
    from tracecontracts import cli  # noqa: F401  (imports every layer)

    elapsed = perf_counter() - start
    where = os.path.realpath(tracecontracts.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: imported tracecontracts from {where}, not {SRC}")
    return elapsed


def layer_metrics(tracer, rec, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run: per-operation times and counts."""
    ops = rec.attempted
    t = tracer.layer_times()
    c = tracer.counts

    def per_op(value):
        return value / ops

    base = c["intervals.candidate_base"]
    return {
        "intervals.candidates_s": (per_op(t["intervals.candidates"]["total"]), "s/op"),
        "intervals.covering_s": (per_op(t["intervals.covering"]["total"]), "s/op"),
        "intervals.covering_calls": (per_op(t["intervals.covering"]["calls"]), "count/op"),
        "intervals.extract_s": (per_op(t["intervals.extract"]["total"]), "s/op"),
        "intervals.match_s": (per_op(t["intervals.match"]["total"]), "s/op"),
        "intervals.exact_bound_exceeded": (per_op(c["intervals.exact_bound_exceeded"]), "count/op"),
        "intervals.greedy_exact_disagreements": (
            per_op(c["intervals.greedy_exact_disagreements"]), "count/op"),
        "intervals.ref_runs": (per_op(c["intervals.ref_runs"]), "count/op"),
        "intervals.pred_runs": (per_op(c["intervals.pred_runs"]), "count/op"),
        "intervals.candidate_pairs": (per_op(c["intervals.candidate_pairs"]), "count/op"),
        "intervals.matched_pairs": (per_op(c["intervals.matched_pairs"]), "count/op"),
        "intervals.candidate_yield": (c["intervals.candidate_pairs"] / base if base else 0.0,
                                      "ratio"),
        "frames.derive_atoms_s": (per_op(t["frames.derive_atoms"]["total"]), "s/op"),
        "frames.score_s": (per_op(t["frames.score"]["total"]), "s/op"),
        "frames.evaluate_s": (per_op(t["frames.evaluate"]["total"]), "s/op"),
        "frames.score_calls": (per_op(t["frames.score"]["calls"]), "count/op"),
        "parser.parse_s": (per_op(t["parser.parse"]["total"]), "s/op"),
        "parser.parse_calls": (per_op(t["parser.parse"]["calls"]), "count/op"),
        "contracts.retolerance_s": (per_op(t["contracts.retolerance"]["total"]), "s/op"),
        "contracts.monitor_s": (per_op(t["contracts.monitor"]["total"]), "s/op"),
        "contracts.monitor_self_s": (per_op(t["contracts.monitor"]["self"]), "s/op"),
        "contracts.monitor_calls": (per_op(t["contracts.monitor"]["calls"]), "count/op"),
        "contracts.soft_boundary_s": (per_op(t["contracts.soft_boundary"]["total"]), "s/op"),
        "tracefile.load_s": (per_op(t["tracefile.load"]["total"]), "s/op"),
        "tracefile.bytes_read": (per_op(c["tracefile.bytes_read"]), "bytes/op"),
        "cli.command_s": (per_op(t["cli.command"]["total"]), "s/op"),
        "cli.self_s": (per_op(t["cli.command"]["self"]), "s/op"),
        "cli.report_bytes": (per_op(c["cli.report_bytes"]), "bytes/op"),
        "basis.select_s": (per_op(t["basis.select"]["outer"]), "s/op"),
        "basis.clause_value_calls": (per_op(t["basis.clause_value"]["calls"]), "count/op"),
        "streaming.step_s": (per_op(t["streaming.step"]["total"]), "s/op"),
        "streaming.finalize_s": (per_op(t["streaming.finalize"]["total"]), "s/op"),
        "streaming.verdicts": (per_op(c["streaming.verdicts"]), "count/op"),
        "streaming.peak_buffered_rows": (c["streaming.peak_buffered_rows"], "rows"),
        "streaming.emission_delay_frames": (rec.emission_delay, "frames"),
        "bench.trace_overhead_ratio": (overhead_ratio, "ratio"),
    }


def _report_lines(title: str, metrics: dict, extras: list[str]) -> list[str]:
    lines = [title]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<40} {value:>16.6g} {unit}")
    lines.extend(f"  {line}" for line in extras)
    return lines


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not args.seconds > 0:
        raise SystemExit("error: --seconds must be positive")
    import_s = _import_program()

    from measure import Recorder, machine_facts, median_ms, peak_rss_mb, tail
    from spans import Tracer
    from workloads import WORKLOADS

    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - start)
        setup_s = import_s + statistics.median(setup_times)
        workload.prepare_checks()

        if args.trace:
            tracer = Tracer()
            rec = Recorder(tracer)
            tracer.install()
            try:
                workload.run(rec, args.seconds / 2)
            finally:
                tracer.uninstall()
            plain = Recorder()
            workload.run(plain, None, max_ops=rec.attempted)
            overhead = rec.measured_s / plain.measured_s
            digests_equal = rec.report_digest() == plain.report_digest()
            correct = rec.correct and plain.correct and digests_equal
            metrics = layer_metrics(tracer, rec, overhead)
            os.makedirs(OUT_DIR, exist_ok=True)
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.npz")
            tracer.save(spans_path)
        else:
            rec = Recorder()
            workload.run(rec, args.seconds)
            peak_mb = peak_rss_mb()  # before any summary allocates
            correct = rec.correct
            metrics = {
                "setup_s": (setup_s, "s"),
                "frames_per_ref": (rec.frames / rec.measured_s * rec.ref_s, "frames/ref"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
        sizes = workload.sizes()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = rec.op_seconds
    tail_info = tail(samples)
    if tail_info is None:
        tail_line = f"op_tail_ms omitted: no percentile has 10 samples beyond it (n={samples.size})"
    else:
        label, value, n = tail_info
        tail_line = f"op_tail_ms {value * 1000.0:.6g} ms ({label}, n={n})"
    extras = [
        f"frames_per_s {rec.frames / rec.measured_s:.6g} 1/s",
        f"ref_ms {rec.ref_s * 1000.0:.6g} ms (mean of {rec.probes} reference-kernel runs)",
        f"op_p50_ms {median_ms(samples):.6g} ms (n={samples.size} of {rec.attempted} operations)",
        tail_line,
        f"ops_failed_ratio {rec.failed / rec.attempted:.6g} ({rec.failed}/{rec.attempted}"
        f" operations; by kind {json.dumps(rec.failures, sort_keys=True)})",
        f"bound_exceeded_ratio {rec.bound_exceeded / rec.attempted:.6g} ({rec.bound_exceeded}"
        f"/{rec.attempted} operations with a bound_exceeded audit row; not failures)",
        f"measured_s {rec.measured_s:.6g} s over {rec.frames} frames",
        f"report_digest {rec.report_digest()}",
    ]
    if args.workload == "stream_replay":
        extras.append(f"emission_delay_frames {rec.emission_delay} frames")
    if args.trace:
        base = tracer.counts["intervals.candidate_base"]
        extras.append(f"candidate_yield base: {base} ref x pred run pairs over candidates calls")
        extras.append(f"untraced replay digest {plain.report_digest()} "
                      f"({'equal' if digests_equal else 'DIFFERENT'})")
        extras.append(f"spans {len(tracer.start)} written to {os.path.relpath(spans_path, ROOT)}")
    extras.extend(f"failure: {message}" for message in rec.messages)

    facts = machine_facts(ROOT)
    title = (f"tracecontracts benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}")
    print("\n".join(_report_lines(title, metrics, extras)))
    print("facts " + json.dumps({"machine": facts, "sizes": sizes}, sort_keys=True))

    result = {
        "correct": bool(correct),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=facts, sizes=sizes, notes=extras,
                  report_digest=rec.report_digest())
    record_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
