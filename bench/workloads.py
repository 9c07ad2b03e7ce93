"""The three benchmark workloads: set-up, timed operations and output checks.

Every workload calls the program through module attributes
(``contracts.monitor``, ``cli.main``, ``streaming.StreamingMonitor``) so
that the traced run's wrappers, when installed, see each call.

A run repeats passes over the workload's inputs.  It stops at the first
operation boundary (a pass boundary for ``stream_replay``, whose verdicts
are only complete after ``finalize``) after ``seconds`` have elapsed and
at least one full pass is done, or after exactly ``max_ops`` operations
when replaying a traced run.  Every pass re-checks every output, and each
input's report digest must equal the one from the first pass.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
from contextlib import redirect_stdout
from time import perf_counter

import numpy as np

import inputs
from measure import BOUND_EXCEEDED, CHECK, EXCEPTION, EXIT_CODE, Recorder
from tracecontracts import cli, contracts, fixtures, frames, streaming
from tracecontracts.basis import save_calibration

TOLERANCE = 0.04
SWEEP_MS = "20,40,80,120,160"
SWEEP_COUNT = len(SWEEP_MS.split(","))


def _guard_problem(coords) -> str | None:
    """First guard coordinate breaking the count identity or the score range."""
    for c in coords:
        if c.obligated != c.satisfied + c.violated:
            return f"{c.name}: obligated {c.obligated} != {c.satisfied} + {c.violated}"
        if not (0.0 <= c.score <= 1.0):
            return f"{c.name}: score {c.score!r} outside [0, 1]"
    return None


def _guard_text(coords) -> str:
    return "".join(
        f"{c.name},{c.kind},{c.score!r},{c.obligated},{c.satisfied},{c.violated},"
        f"{c.witness_mean!r}\n"
        for c in coords
    )


class _Workload:
    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Generate the inputs (and write any files); timed as set-up."""
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Untimed work the output checks need, done before any tracing."""

    def sizes(self) -> dict:
        raise NotImplementedError

    def run(self, rec: Recorder, seconds: float | None, max_ops: int | None = None) -> None:
        raise NotImplementedError

    @staticmethod
    def _done(rec: Recorder, t0: float, seconds, max_ops, full_pass: bool) -> bool:
        if max_ops is not None:
            return rec.attempted >= max_ops
        return full_pass and perf_counter() - t0 >= seconds


class LongTrace(_Workload):
    """Long traces in memory through ``monitor`` and ``soft_boundary``."""

    name = "long_trace"

    def __init__(self, seed: int, workdir: str, traces: int = 8, frames: int = 100_000) -> None:
        super().__init__(seed, workdir)
        self.count = traces
        self.frame_count = frames

    def setup(self) -> None:
        self.traces = inputs.long_traces(self.seed, self.count, self.frame_count)
        self.contract = contracts.default_contract(TOLERANCE)

    def sizes(self) -> dict:
        return {
            "traces": self.count,
            "inputs": [vars(info) for _, _, info in self.traces],
        }

    def run(self, rec: Recorder, seconds, max_ops=None) -> None:
        h = inputs.FRAME_STEP
        t0 = perf_counter()
        i = 0
        while not self._done(rec, t0, seconds, max_ops, i >= self.count):
            ref, pred, info = self.traces[i % self.count]
            i += 1
            rec.begin()
            start = perf_counter()
            try:
                result = contracts.monitor(self.contract, ref, pred, h)
                soft = contracts.soft_boundary(ref, pred, h)
            except Exception as exc:  # a raised exception is a failed operation
                rec.op(perf_counter() - start, info.frames)
                rec.fail(EXCEPTION, f"{info.name}: {exc!r}")
                continue
            rec.op(perf_counter() - start, info.frames)
            problem = _guard_problem(result.guards)
            if problem is None and not 0.0 <= soft <= 1.0:
                problem = f"soft boundary {soft!r} outside [0, 1]"
            if problem is None and (
                len(result.ref_intervals) != info.ref_runs
                or len(result.pred_intervals) != info.pred_runs
            ):
                problem = (
                    f"runs {len(result.ref_intervals)}/{len(result.pred_intervals)},"
                    f" generated {info.ref_runs}/{info.pred_runs}"
                )
            if problem is not None:
                rec.fail(CHECK, f"{info.name}: {problem}")
                continue
            w = result.witnesses
            text = _guard_text(result.guards) + repr(
                (w.onset_mae_ms, w.offset_mae_ms, w.onset_excluded, w.offset_excluded,
                 w.duration_abs_diffs, w.fragmentation_extra_counts, soft)
            )
            rec.digest(info.name, hashlib.sha256(text.encode()).hexdigest())


class _Discard(io.TextIOBase):
    """Text sink for the CLI's progress lines."""

    def write(self, text: str) -> int:
        return len(text)


def _csv_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _count_problem(rows, score_key: str = "score") -> str | None:
    for row in rows:
        if row["obligated"] == "":
            counts_ok = True
        else:
            counts_ok = int(row["obligated"]) == int(row["satisfied"]) + int(row["violated"])
        score = float(row[score_key])
        if not counts_ok:
            return f"{row['clause_name']}: obligated != satisfied + violated"
        if not 0.0 <= score <= 1.0:
            return f"{row['clause_name']}: score {score!r} outside [0, 1]"
    return None


def _dir_digest(directory: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


class ClipCorpus(_Workload):
    """Short 3-class trace files through in-process ``cli.main``."""

    name = "clip_corpus"

    def __init__(self, seed: int, workdir: str, clips: int = 24) -> None:
        super().__init__(seed, workdir)
        self.lengths = inputs.clip_lengths(clips)

    def setup(self) -> None:
        clip_dir = os.path.join(self.workdir, "clips")
        os.makedirs(clip_dir, exist_ok=True)
        corpus = inputs.clip_corpus(self.seed, self.lengths)
        self.infos = [info for _, info in corpus]
        self.paths = inputs.write_corpus(corpus, clip_dir)
        self.contract_path = os.path.join(self.workdir, "default.contract")
        with open(self.contract_path, "w", encoding="utf-8") as handle:
            handle.write(contracts.default_contract_text(TOLERANCE))
        self.calibration_path = os.path.join(self.workdir, "calibration.json")
        cases = fixtures.calibration_cases()
        save_calibration(cases, self.calibration_path)
        self.calibration_frames = sum(len(case.ref_mask) for case in cases)
        self.ops = self._pass_ops()

    def sizes(self) -> dict:
        return {
            "clips": len(self.infos),
            "ops_per_pass": len(self.ops),
            "calibration_frames": self.calibration_frames,
            "inputs": [vars(info) for info in self.infos],
        }

    def _out(self, *parts) -> str:
        return os.path.join(self.workdir, "out", *parts)

    def _pass_ops(self) -> list[tuple[str, list[str], int, str]]:
        """(report key, argv, frames, kind) for every invocation of one pass."""
        ops = []
        for path, info in zip(self.paths, self.infos):
            stem = info.name
            ops.append((f"{stem}/monitor", ["monitor", self.contract_path, path, "--classes",
                        "--out", self._out(stem, "monitor")], info.frames, "monitor"))
            ops.append((f"{stem}/sweep", ["sweep", self.contract_path, path, "--tolerances",
                        SWEEP_MS, "--out", self._out(stem, "sweep")],
                        info.frames * SWEEP_COUNT, "sweep"))
            ops.append((f"{stem}/match-audit", ["match-audit", path, "--epsilon-ms",
                        f"{TOLERANCE * 1000:g}", "--out", self._out(stem, "audit")],
                        info.frames, "match-audit"))
        ops.append(("select", ["select", self.contract_path, self.calibration_path,
                    "--out", self._out("select")], self.calibration_frames, "select"))
        return ops

    def run(self, rec: Recorder, seconds, max_ops=None) -> None:
        t0 = perf_counter()
        i = 0
        with redirect_stdout(_Discard()):
            while not self._done(rec, t0, seconds, max_ops, i >= len(self.ops)):
                key, argv, frame_count, kind = self.ops[i % len(self.ops)]
                i += 1
                rec.begin()
                start = perf_counter()
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a raised exception is a failed operation
                    rec.op(perf_counter() - start, frame_count)
                    rec.fail(EXCEPTION, f"{key}: {exc!r}")
                    continue
                rec.op(perf_counter() - start, frame_count)
                if code != 0:
                    rec.fail(EXIT_CODE, f"{key}: exit code {code}")
                    continue
                self._check(rec, key, kind, argv[-1])

    def _check(self, rec: Recorder, key: str, kind: str, out: str) -> None:
        problem = None
        if kind == "monitor":
            problem = _count_problem(_csv_rows(os.path.join(out, "guard.csv")))
        elif kind == "sweep":
            problem = _count_problem(_csv_rows(os.path.join(out, "sweep.csv")))
        elif kind == "match-audit":
            notes = [row["note"] for row in _csv_rows(os.path.join(out, "match_audit.csv"))]
            if BOUND_EXCEEDED in notes:
                rec.bound_exceeded += 1
        elif kind == "select" and not os.path.exists(os.path.join(out, "selection.csv")):
            problem = "no selection.csv (selection infeasible)"
        if problem is not None:
            rec.fail(CHECK, f"{key}: {problem}")
        rec.digest(key, _dir_digest(out))


class StreamReplay(_Workload):
    """One trace stepped frame by frame through one monitor per frame clause."""

    name = "stream_replay"

    def __init__(self, seed: int, workdir: str, frames: int = 100_000) -> None:
        super().__init__(seed, workdir)
        self.frame_count = frames

    def setup(self) -> None:
        ref, pred, self.info = inputs.union_pair(self.seed, self.frame_count, "stream")
        env = frames.derive_edge_atoms(ref, pred, inputs.FRAME_STEP)
        self.env = env
        self.atom_names = tuple(env.atoms)
        self.rows = list(zip(*(env.atoms[name].tolist() for name in self.atom_names)))
        self.clauses = contracts.default_contract(TOLERANCE).frame_clauses

    def prepare_checks(self) -> None:
        self.offline = [
            frames.evaluate(clause.formula, self.env).astype(np.int8) for clause in self.clauses
        ]

    def sizes(self) -> dict:
        return {"clauses": len(self.clauses), "inputs": [vars(self.info)]}

    def run(self, rec: Recorder, seconds, max_ops=None) -> None:
        t0 = perf_counter()
        done_pass = False
        while not self._done(rec, t0, seconds, max_ops, done_pass):
            self._pass(rec)
            done_pass = True

    def _pass(self, rec: Recorder) -> None:
        h = inputs.FRAME_STEP
        n = len(self.rows)
        names = self.atom_names
        monitors = [streaming.StreamingMonitor(c.formula, h) for c in self.clauses]
        steps = [m.step for m in monitors]
        verdicts = [np.full(n, -1, dtype=np.int8) for _ in monitors]
        last = [-1] * len(monitors)
        delay = 0
        order_ok = True

        def record(k: int, out, completing_frame: int) -> None:
            nonlocal delay, order_ok
            for index, verdict in out:
                order_ok = order_ok and index > last[k]
                last[k] = index
                verdicts[k][index] = verdict
                delay = max(delay, completing_frame - index)

        for i, row in enumerate(self.rows):
            frame = dict(zip(names, row))
            rec.begin()
            start = perf_counter()
            outs = [step(frame) for step in steps]
            rec.op(perf_counter() - start, 1)
            for k, out in enumerate(outs):
                record(k, out, i)
        start = perf_counter()
        tails = [m.finalize() for m in monitors]
        rec.extra_time(perf_counter() - start)
        for k, out in enumerate(tails):
            record(k, out, n - 1)
        rec.emission_delay = max(rec.emission_delay, delay)
        wrong = np.zeros(n, dtype=bool)
        for got, want in zip(verdicts, self.offline):
            wrong |= got != want
        if wrong.any():
            first = int(np.flatnonzero(wrong)[0])
            rec.fail(CHECK, f"streaming verdicts differ from offline at frame {first}",
                     count=int(np.count_nonzero(wrong)))
        if not order_ok:
            rec.fail(CHECK, "verdicts emitted out of frame order")
        digest = hashlib.sha256()
        for got in verdicts:
            digest.update(got.tobytes())
        digest.update(str(delay).encode())
        rec.digest("stream", digest.hexdigest())


WORKLOADS = {cls.name: cls for cls in (LongTrace, ClipCorpus, StreamReplay)}
