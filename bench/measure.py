"""Timing summaries, the per-run recorder, and machine facts."""

from __future__ import annotations

import hashlib
import os
import platform
import random
import resource
import sys
from time import perf_counter

import numpy as np

# (label, numerator, denominator): percentile q = numerator / denominator.
TAIL_PERCENTILES = (("p99.9", 999, 1000), ("p99", 99, 100), ("p90", 9, 10))
MIN_BEYOND = 10

# Operation times kept per run.  The buffer is written in full up front, so
# the benchmark's own memory does not grow with the number of operations a
# faster program completes; past this count a uniform reservoir sample of
# the times is kept.
SAMPLE_CAPACITY = 1 << 20

# The speed of a shared host drifts by tens of percent over seconds to
# minutes, for all code alike.  Between operations, at most every
# PROBE_INTERVAL_S, the recorder times one run of a fixed reference kernel;
# throughput per mean kernel time cancels most of that drift.
PROBE_INTERVAL_S = 0.25
_PROBE_ITEMS = tuple((i * 0.37 % 1.0, i * 0.61 % 1.0 + 0.5) for i in range(64))


def probe_kernel(rounds: int = 20_000) -> float:
    """The fixed pure-Python reference work (10 to 20 ms on a 2-core Xeon VM)."""
    acc = 0.0
    items = _PROBE_ITEMS
    for i in range(rounds):
        lo, hi = items[i & 63]
        acc += max(0.0, min(hi, 1.2) - max(lo, 0.3))
    return acc


# Failure kinds: each means an operation raised, exited nonzero or gave a
# wrong output.
EXCEPTION = "exception"
EXIT_CODE = "exit_code"
CHECK = "check"

# The note of a match-audit row whose instance is over the exact matcher's
# bound.  The program reports that limit in a correct output, so such an
# operation is tallied apart from the failures.
BOUND_EXCEEDED = "bound_exceeded"


def nearest_rank(sorted_values, numerator: int, denominator: int) -> tuple[float, int]:
    """(percentile value, samples beyond it) by the nearest-rank rule."""
    n = len(sorted_values)
    rank = -(-n * numerator // denominator)  # ceil(n * q) in integers
    return sorted_values[max(rank, 1) - 1], n - rank


def tail(samples) -> tuple[str, float, int] | None:
    """The highest of p99.9, p99 and p90 with at least ten samples beyond it.

    Returns (label, value, sample count), or ``None`` when none qualifies.
    """
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    for label, numerator, denominator in TAIL_PERCENTILES:
        if not ordered.size:
            break
        value, beyond = nearest_rank(ordered, numerator, denominator)
        if beyond >= MIN_BEYOND:
            return label, float(value), ordered.size
    return None


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Operation times, frames, failures and report digests of one run.

    ``measured_s`` is the sum of the timed regions: the operations, plus
    timed work that belongs to no single operation, added with
    :meth:`extra_time` (the streaming ``finalize`` calls).  ``ref_s`` is
    the mean time of the reference kernel over the run.  ``bound_exceeded``
    counts the operations whose audit reached the exact matcher's bound.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self._samples = np.ones(SAMPLE_CAPACITY)
        self._reservoir = random.Random(0)
        self.attempted = 0
        self.op_total_s = 0.0
        self.frames = 0
        self.extra_s = 0.0
        self.failures: dict[str, int] = {}
        self.messages: list[str] = []
        self.emission_delay = 0
        self.bound_exceeded = 0
        self._digests: dict[str, str] = {}
        self.probe_s = 0.0
        self.probes = 0
        self._next_probe = 0.0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        return not self.failures

    @property
    def measured_s(self) -> float:
        return self.op_total_s + self.extra_s

    @property
    def ref_s(self) -> float:
        return self.probe_s / self.probes

    @property
    def op_seconds(self) -> np.ndarray:
        """Every operation time, or a uniform sample of SAMPLE_CAPACITY of them."""
        return self._samples[: min(self.attempted, SAMPLE_CAPACITY)].copy()

    def begin(self) -> None:
        """Mark the start of the next operation for the span recorder."""
        if self.tracer is not None:
            self.tracer.op = self.attempted

    def op(self, seconds: float, frames: int) -> None:
        slot = self.attempted
        if slot >= SAMPLE_CAPACITY:
            slot = self._reservoir.randrange(slot + 1)
        if slot < SAMPLE_CAPACITY:
            self._samples[slot] = seconds
        self.attempted += 1
        self.op_total_s += seconds
        self.frames += frames
        if perf_counter() >= self._next_probe:
            start = perf_counter()
            probe_kernel()
            end = perf_counter()
            self.probe_s += end - start
            self.probes += 1
            self._next_probe = end + PROBE_INTERVAL_S

    def extra_time(self, seconds: float) -> None:
        self.extra_s += seconds

    def fail(self, kind: str, message: str, count: int = 1) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + count
        line = f"{kind}: {message}"
        if len(self.messages) < 20 and line not in self.messages:
            self.messages.append(line)

    def digest(self, key: str, value: str) -> bool:
        """Keep the first digest of ``key``; a later different one fails a check."""
        first = self._digests.setdefault(key, value)
        if first != value:
            self.fail(CHECK, f"{key}: report differs from the first pass")
            return False
        return True

    def report_digest(self) -> str:
        """One digest over every input's report, in key order."""
        combined = hashlib.sha256()
        for key in sorted(self._digests):
            combined.update(f"{key}={self._digests[key]}\n".encode())
        return combined.hexdigest()


def median_ms(samples) -> float:
    return float(np.median(samples)) * 1000.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: str) -> str | None:
    """HEAD of ``root``'s git directory, read from its files; None outside git."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def machine_facts(root: str) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
    }
