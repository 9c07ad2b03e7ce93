"""The benchmark's own checks, at toy sizes: ``python -m pytest bench``."""

from __future__ import annotations

import numpy as np
import pytest

import inputs
import measure
from measure import Recorder, tail
from spans import Tracer
from workloads import ClipCorpus, LongTrace, StreamReplay
from tracecontracts import contracts, intervals


def _toy(name: str, seed: int, workdir):
    if name == "long_trace":
        return LongTrace(seed, str(workdir), traces=2, frames=4_000)
    if name == "clip_corpus":
        return ClipCorpus(seed, str(workdir), clips=2)
    return StreamReplay(seed, str(workdir), frames=2_000)


def _one_pass(workload, tracer=None) -> Recorder:
    rec = Recorder(tracer)
    workload.run(rec, seconds=0.0)
    return rec


def test_generator_is_deterministic_per_seed():
    a_ref, a_pred, a_info = inputs.union_pair(7, 10_000)
    b_ref, b_pred, b_info = inputs.union_pair(7, 10_000)
    c_ref, _, _ = inputs.union_pair(8, 10_000)
    assert np.array_equal(a_ref, b_ref) and np.array_equal(a_pred, b_pred)
    assert a_info == b_info
    assert not np.array_equal(a_ref, c_ref)
    assert inputs.clip_corpus(3, [1_000, 2_000]) == inputs.clip_corpus(3, [1_000, 2_000])


def test_generator_records_frames_and_run_counts():
    ref, pred, info = inputs.union_pair(5, 20_000)
    slots = 20_000 // inputs.SLOT_FRAMES
    assert info.frames == ref.size == 20_000
    assert info.ref_runs == slots == inputs.run_count(ref)
    assert info.pred_runs == slots + round(inputs.SPLIT_SHARE * slots) == inputs.run_count(pred)


@pytest.mark.parametrize("name", ["long_trace", "clip_corpus", "stream_replay"])
def test_wrapped_and_unwrapped_runs_give_identical_digests(name, tmp_path):
    workload = _toy(name, 11, tmp_path / name)
    workload.setup()
    workload.prepare_checks()
    plain = _one_pass(workload)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _one_pass(workload, tracer)
    finally:
        tracer.uninstall()
    assert plain.correct and traced.correct
    assert plain.report_digest() == traced.report_digest()
    assert len(tracer.start) > 0
    assert all(end >= start for start, end in zip(tracer.start, tracer.end))


def test_wrappers_see_calls_through_every_importing_module(tmp_path):
    # monitor reaches covering_counts once through intervals
    # (fragmentation_score) and twice through contracts (witnesses).
    workload = _toy("long_trace", 4, tmp_path)
    workload.setup()
    tracer = Tracer()
    tracer.install()
    try:
        rec = _one_pass(workload, tracer)
    finally:
        tracer.uninstall()
    times = tracer.layer_times()
    assert times["contracts.monitor"]["calls"] == rec.attempted
    assert times["intervals.covering"]["calls"] == 3 * rec.attempted
    assert 0.0 <= times["contracts.monitor"]["self"] <= times["contracts.monitor"]["total"]


def test_uninstall_restores_every_attribute():
    originals = (contracts.monitor, contracts.covering_counts, intervals.covering_counts)
    tracer = Tracer()
    tracer.install()
    assert contracts.covering_counts is not originals[1]
    assert intervals.covering_counts is not originals[2]
    tracer.uninstall()
    assert (contracts.monitor, contracts.covering_counts, intervals.covering_counts) == originals


def test_same_seed_gives_equal_digests(tmp_path):
    first = _toy("long_trace", 3, tmp_path / "a")
    second = _toy("long_trace", 3, tmp_path / "b")
    for workload in (first, second):
        workload.setup()
    assert _one_pass(first).report_digest() == _one_pass(second).report_digest()


@pytest.mark.parametrize(
    "n, expected",
    [(99, None), (100, "p90"), (999, "p90"), (1_000, "p99"), (9_999, "p99"), (10_000, "p99.9")],
)
def test_tail_needs_ten_samples_beyond_the_percentile(n, expected):
    found = tail(range(n))
    assert (found[0] if found else None) == expected
    if found:
        label, value, count = found
        assert count == n
        assert sum(1 for x in range(n) if x > value) >= 10


def test_bound_exceeded_row_is_tallied_apart_from_failures(tmp_path):
    # Two clips, 10 s and 60 s: the long one has more runs than the exact
    # matcher's audit bound of 24.
    workload = _toy("clip_corpus", 2, tmp_path)
    workload.setup()
    assert max(info.pred_runs for info in workload.infos) > 24
    rec = _one_pass(workload)
    assert rec.bound_exceeded == 1
    assert rec.failures == {} and rec.failed == 0
    assert rec.correct


def test_changed_report_fails_a_check():
    rec = Recorder()
    assert rec.digest("item", "aa")
    assert not rec.digest("item", "bb")
    assert rec.failed == 1 and not rec.correct


def test_operation_times_past_capacity_are_a_uniform_sample(monkeypatch):
    monkeypatch.setattr(measure, "SAMPLE_CAPACITY", 100)
    rec = Recorder()
    for i in range(1_000):
        rec.op(float(i), 2)
    kept = rec.op_seconds
    assert rec.attempted == 1_000 and rec.frames == 2_000
    assert rec.measured_s == sum(range(1_000))
    assert kept.size == 100 and len(set(kept.tolist())) == 100
    assert set(kept.tolist()) <= set(map(float, range(1_000)))
    assert kept.max() >= 100  # later operations replaced early ones
    assert rec.probes >= 1 and rec.ref_s > 0.0
