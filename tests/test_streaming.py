"""Streaming monitor: offline equivalence, bounded buffering, no revision."""

import random

import pytest

from tracecontracts.frames import TraceEnvironment, UnknownAtomError, evaluate
from tracecontracts.parser import Atom, Near, parse_text
from tracecontracts.streaming import StreamingMonitor

from gen import random_env, random_formula


def stream_all(formula, env):
    monitor = StreamingMonitor(formula, env.frame_step)
    emissions = []
    max_pending = 0
    max_rows = 0
    for i in range(env.frame_count):
        frame = {name: bool(values[i]) for name, values in env.atoms.items()}
        emissions.extend(monitor.step(frame))
        max_pending = max(max_pending, monitor.frames_received - monitor.next_emission_index)
        max_rows = max(max_rows, monitor.buffered_rows)
    emissions.extend(monitor.finalize())
    return monitor, emissions, max_pending, max_rows


def test_full_trace_replay_matches_offline_bit_for_bit():
    rng = random.Random(31)
    for _ in range(300):
        env = random_env(rng, rng.randint(0, 60))
        formula = random_formula(rng, rng.randint(0, 4))
        offline = [bool(v) for v in evaluate(formula, env)]
        monitor, emissions, max_pending, _ = stream_all(formula, env)
        indices = [i for i, _ in emissions]
        assert indices == list(range(env.frame_count))  # emitted once, in order
        assert [v for _, v in emissions] == offline
        assert max_pending <= monitor.lookahead_frames + 1


def test_zero_lookahead_emits_immediately():
    env = random_env(random.Random(3), 20)
    formula = parse_text("a & !b")
    monitor = StreamingMonitor(formula, env.frame_step)
    assert monitor.lookahead_frames == 0
    for i in range(env.frame_count):
        frame = {name: bool(values[i]) for name, values in env.atoms.items()}
        out = monitor.step(frame)
        assert [index for index, _ in out] == [i]


def test_near_waits_for_its_right_radius():
    # radius 0.04 at h=0.02 needs two future frames: index 0 emits on step 3
    monitor = StreamingMonitor(Near(Atom("a"), 0.04), 0.02)
    assert monitor.step({"a": False}) == []
    assert monitor.step({"a": False}) == []
    out = monitor.step({"a": True})
    assert [index for index, _ in out] == [0]
    assert out[0][1] is True


def test_trace_shorter_than_lookahead_flushes_at_finalize():
    monitor = StreamingMonitor(Near(Atom("a"), 0.2), 0.02)
    collected = []
    for value in (True, False):
        collected.extend(monitor.step({"a": value}))
    assert collected == []
    collected.extend(monitor.finalize())
    assert [index for index, _ in collected] == [0, 1]
    assert all(verdict for _, verdict in collected)


def test_empty_trace_finalize_is_empty():
    monitor = StreamingMonitor(parse_text("N[0.04] a"), 0.02)
    assert monitor.finalize() == []


def test_finalize_is_idempotent_and_step_after_finalize_errors():
    monitor = StreamingMonitor(parse_text("a"), 0.02)
    monitor.step({"a": True})
    monitor.finalize()
    assert monitor.finalize() == []
    with pytest.raises(RuntimeError):
        monitor.step({"a": False})


def test_a_step_taken_before_finalize_is_refused_after_it():
    monitor = StreamingMonitor(parse_text("N[0.04] a"), 0.02)
    step = monitor.step
    step({"a": True})
    monitor.finalize()
    with pytest.raises(RuntimeError, match="monitor is finalized"):
        step({"a": False})


def test_a_refused_step_reads_no_frame_and_changes_nothing():
    monitor = StreamingMonitor(parse_text("a U[0.04] b"), 0.02)
    for value in (True, False, True):
        monitor.step({"a": value, "b": not value})
    monitor.finalize()
    received, emission = monitor.frames_received, monitor.next_emission_index
    with pytest.raises(RuntimeError):
        monitor.step({})  # a read would raise UnknownAtomError
    assert (monitor.frames_received, monitor.next_emission_index) == (received, emission)


def test_step_is_the_generated_function_and_the_class_form_steps_the_monitor():
    rng = random.Random(5)
    env = random_env(rng, 40)
    formula = parse_text("(N[0.04] a -> F[0.06] b) U[0.08] G[0.04] a")
    bound, unbound = StreamingMonitor(formula, 0.02), StreamingMonitor(formula, 0.02)
    assert bound.step.__code__.co_filename == "<streaming kernel>"
    for i in range(env.frame_count):
        frame = {name: bool(values[i]) for name, values in env.atoms.items()}
        assert StreamingMonitor.step(unbound, frame) == bound.step(frame)
    assert unbound.finalize() == bound.finalize()


def test_missing_atom_raises():
    monitor = StreamingMonitor(parse_text("a & b"), 0.02)
    with pytest.raises(UnknownAtomError):
        monitor.step({"a": True})


def test_extra_atoms_in_frames_are_ignored():
    monitor = StreamingMonitor(parse_text("a"), 0.02)
    out = monitor.step({"a": True, "spare": False})
    assert out == [(0, True)]


BOUNDED_FORMULAS = (
    "(N[0.04] a -> F[0.06] b) U[0.08] G[0.04] a",
    "!a & (b | a -> b)",  # pointwise only
    "N[0.06] (a -> N[0.04] b)",
    "F[0.06] F[0.04] a",
    "G[0.06] (a | G[0.04] b)",
    "(a U[0.06] b) U[0.08] (N[0.04] a U[0.04] b)",
)


def test_buffer_stays_bounded_on_long_traces():
    rng = random.Random(99)
    for text in BOUNDED_FORMULAS:
        formula = parse_text(text)
        monitor = StreamingMonitor(formula, 0.02)
        limit = monitor.lookahead_frames + monitor.backward_frames + 2
        emitted = []
        rows = [{"a": rng.random() < 0.5, "b": rng.random() < 0.5} for _ in range(2000)]
        for row in rows:
            emitted.extend(monitor.step(row))
            assert monitor.buffered_rows <= limit
        emitted.extend(monitor.finalize())
        env = TraceEnvironment(0.02, len(rows), {k: [row[k] for row in rows] for k in "ab"})
        assert [v for _, v in emitted] == evaluate(formula, env).tolist()
