"""Span recording for the traced run, from outside the program.

:meth:`Tracer.install` replaces every module attribute through which the
program reaches a timed public function with a pass-through wrapper.  A
function imported by name into several modules (``covering_counts`` is
called through both ``intervals`` and ``contracts``) is replaced in each
of them, so every call site records a span.  Each span keeps its name,
start, end, parent span and operation id in flat arrays that stay in
memory until :meth:`Tracer.save`.  Counts are taken by hooks at the same
boundaries.  The timed (untraced) run never installs the wrappers.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "tracecontracts"

# (module, attribute, span name).  Functions that share a span name are one
# layer entry point: basis selection nests ``retained_basis`` ->
# ``observational_classes``, and only outermost spans count toward its time.
TIMED = (
    ("tracefile", "load_trace", "tracefile.load"),
    ("parser", "parse_text", "parser.parse"),
    ("contracts", "retolerance", "contracts.retolerance"),
    ("contracts", "monitor", "contracts.monitor"),
    ("contracts", "soft_boundary", "contracts.soft_boundary"),
    ("frames", "derive_edge_atoms", "frames.derive_atoms"),
    ("frames", "score", "frames.score"),
    ("frames", "evaluate", "frames.evaluate"),
    ("intervals", "extract_intervals", "intervals.extract"),
    ("intervals", "candidates", "intervals.candidates"),
    ("intervals", "covering_counts", "intervals.covering"),
    ("intervals", "match_greedy", "intervals.match"),
    ("intervals", "match_exact", "intervals.match"),
    ("intervals", "matcher_audit", "intervals.audit"),
    ("basis", "observational_classes", "basis.select"),
    ("basis", "retained_basis", "basis.select"),
    ("basis", "select_contract", "basis.select"),
    ("basis", "clause_value", "basis.clause_value"),
    ("cli", "main", "cli.command"),
    ("streaming", "StreamingMonitor.step", "streaming.step"),
    ("streaming", "StreamingMonitor.finalize", "streaming.finalize"),
)

COUNTERS = (
    "tracefile.bytes_read",
    "intervals.ref_runs",
    "intervals.pred_runs",
    "intervals.candidate_pairs",
    "intervals.candidate_base",
    "intervals.matched_pairs",
    "intervals.exact_bound_exceeded",
    "intervals.greedy_exact_disagreements",
    "streaming.verdicts",
    "streaming.peak_buffered_rows",
    "cli.report_bytes",
)


def _out_dir(argv) -> str | None:
    argv = list(argv or ())
    for flag, value in zip(argv, argv[1:]):
        if flag == "--out":
            return value
    return None


def _hook_load(counts, args, result) -> None:
    counts["tracefile.bytes_read"] += os.path.getsize(args[0])


def _hook_candidates(counts, args, result) -> None:
    refs, preds = len(args[0]), len(args[1])
    counts["intervals.ref_runs"] += refs
    counts["intervals.pred_runs"] += preds
    counts["intervals.candidate_pairs"] += len(result)
    counts["intervals.candidate_base"] += refs * preds


def _hook_match(counts, args, result) -> None:
    counts["intervals.matched_pairs"] += len(result)


def _hook_audit(counts, args, result) -> None:
    counts["intervals.greedy_exact_disagreements"] += int(result.changed)


def _hook_step(counts, args, result) -> None:
    counts["streaming.verdicts"] += len(result)
    rows = args[0].buffered_rows
    if rows > counts["streaming.peak_buffered_rows"]:
        counts["streaming.peak_buffered_rows"] = rows


def _hook_finalize(counts, args, result) -> None:
    counts["streaming.verdicts"] += len(result)


def _hook_cli(counts, args, result) -> None:
    out = _out_dir(args[0] if args else None)
    if out and os.path.isdir(out):
        counts["cli.report_bytes"] += sum(
            entry.stat().st_size for entry in os.scandir(out) if entry.is_file()
        )


HOOKS = {
    "load_trace": _hook_load,
    "candidates": _hook_candidates,
    "match_greedy": _hook_match,
    "match_exact": _hook_match,
    "matcher_audit": _hook_audit,
    "StreamingMonitor.step": _hook_step,
    "StreamingMonitor.finalize": _hook_finalize,
    "main": _hook_cli,
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = sorted({span for _, _, span in TIMED})
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("q")
        self.op = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, span: str, hook, audit_error):
        name_id = self.name_ids[span]
        names, starts, ends, parents, op_ids = (
            self.span_name, self.start, self.end, self.parent, self.op_id
        )
        stack = self._stack
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            op_ids.append(tracer.op)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except audit_error:
                counts["intervals.exact_bound_exceeded"] += 1
                raise
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every timed function at each module attribute that holds it."""
        if self._patched:
            raise RuntimeError("wrappers are already installed")
        from tracecontracts.intervals import AuditBoundError

        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module_name, attr, span in TIMED:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            hook = HOOKS.get(attr)
            audit_error = AuditBoundError if attr == "match_exact" else ()
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self._wrap(original, span, hook, audit_error))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span, hook, audit_error)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, target, key: str, value) -> None:
        self._patched.append((target, key, getattr(target, "__dict__")[key]))
        setattr(target, key, value)

    def uninstall(self) -> None:
        """Put every original attribute back, last patch first."""
        while self._patched:
            target, key, original = self._patched.pop()
            setattr(target, key, original)

    # -- summaries --------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        # Copies, so the arrays can still grow after a summary is taken.
        return {
            "span_name": np.array(self.span_name, dtype=np.uint16),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op_id": np.array(self.op_id, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        """Write every span and the span-name table to an ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.columns())

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds, outermost seconds, calls.

        Self time is a span's duration minus its direct children's, which
        never overlap in one thread.  Outermost time counts only spans
        whose parent has a different name.
        """
        cols = self.columns()
        names, parent = cols["span_name"], cols["parent"]
        dur = cols["end"] - cols["start"]
        k = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        parent_name = np.full(dur.size, -1, dtype=np.int64)
        parent_name[has_parent] = names[parent[has_parent]]
        outer = parent_name != names
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        outermost = np.bincount(names[outer], weights=dur[outer], minlength=k)
        calls = np.bincount(names, minlength=k)
        return {
            name: {
                "total": float(total[i]),
                "self": float(own[i]),
                "outer": float(outermost[i]),
                "calls": int(calls[i]),
            }
            for i, name in enumerate(self.names)
        }
