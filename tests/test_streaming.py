"""Streaming monitor: offline equivalence, bounded buffering, no revision."""

import random

import pytest

from tracecontracts.frames import (
    TraceEnvironment,
    UnknownAtomError,
    evaluate,
    radius_frames,
    share_subformulas,
)
from tracecontracts.parser import Atom, Near, parse_text
from tracecontracts import streaming
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


def test_a_second_finalize_emits_nothing_and_leaves_nothing_pending():
    monitor = StreamingMonitor(parse_text("N[0.06] a"), 0.02)
    for value in (True, False, False, True, False):
        monitor.step({"a": value})
    assert [index for index, _ in monitor.finalize()] == [2, 3, 4]
    assert monitor.finalize() == []
    assert monitor.next_emission_index == monitor.frames_received == 5


def test_a_node_of_delay_zero_has_no_finalize_block(monkeypatch):
    sources = []

    def compiling(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(streaming, "_compile", compiling)
    formula = parse_text("!ref_active & N[0.02] !pred_active")
    monitor = StreamingMonitor(formula, 0.01)
    (source,) = sources
    finish = source.split("def finish():", 1)[1]
    # Only the N node and the & above it have frames left after the last one;
    # the N node's child makes none, so the N node only emits there.
    assert [line.strip() for line in finish.splitlines() if "<= t < n +" in line] == [
        "if 2 <= t < n + 2:", "if 2 <= t < n + 2:"
    ]
    assert "not " not in finish
    rng = random.Random(17)
    for _ in range(50):
        env = random_env(rng, rng.randint(0, 30), ("ref_active", "pred_active"), h=0.01)
        monitor = StreamingMonitor(formula, env.frame_step)
        emissions = []
        for i in range(env.frame_count):
            emissions += monitor.step({name: bool(v[i]) for name, v in env.atoms.items()})
        emissions += monitor.finalize()
        assert [v for _, v in emissions] == [bool(v) for v in evaluate(formula, env)]


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


def _rings(monitor: StreamingMonitor) -> dict[str, list]:
    return {name: ring for name, ring in monitor._finish.__globals__.items()
            if name[0] == "r" and name[1:].isdigit()}


def test_windows_and_until_take_their_children_in_as_made_and_keep_no_ring():
    for text in ("N[0.04] a", "F[0.04] a", "G[0.04] a", "a U[0.04] b"):
        monitor = StreamingMonitor(parse_text(text), 0.02)
        assert _rings(monitor) == {}
        assert monitor._widest == 1


def test_a_ring_is_kept_only_for_a_pointwise_read_at_a_later_step():
    # ``->`` reads x at its own delay, the window's; the window reads y as made.
    for h in (0.01, 0.02, 1.0 / 3.0):
        formula = parse_text("x -> N[0.5] y")
        monitor = StreamingMonitor(formula, h)
        x = share_subformulas([formula], h).nodes.index(Atom("x"))
        assert {name: len(ring) for name, ring in _rings(monitor).items()} == {
            f"r{x}": radius_frames(0.5, h) + 1
        }
        assert monitor._widest == radius_frames(0.5, h) + 1


def test_a_huge_radius_builds_one_ring_of_its_reach():
    monitor = StreamingMonitor(parse_text("ref_onset -> N[1000.0] pred_onset"), 0.01)
    assert sum(map(len, _rings(monitor).values())) == 100001


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
