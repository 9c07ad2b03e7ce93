"""Optimised paths against their naive oracles.

The vectorised and range-scan interval layer: every comparison is
exact, with equal interval tuples with equal float reprs, candidate pairs
in the same order with the same cost floats, and edge-time arrays equal
bit for bit.  The evaluation plan: its reach walker against tree
recursion, and its stacked evaluation against per-frame window scans.
The shift-doubling window, erosion and until kernels against prefix sums,
array for array, and the witness distances against the all-frames lookup.
The fixed-delay streaming monitor against the pump engine, step by step.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecontracts.basis import _universe
from tracecontracts.contracts import (
    _edge_times,
    _nearest_distances,
    latency_score,
    purity_score,
)
from tracecontracts.fixtures import bridge_fixture, calibration_cases, stress_track
from tracecontracts.frames import (
    TraceEnvironment,
    _until,
    _window_all,
    _window_exists,
    share_subformulas,
)
from tracecontracts.intervals import (
    Interval,
    candidates,
    covering_counts,
    extract_intervals,
)
from tracecontracts.parser import Always, And, Atom, Future, Near, Not, Or, Until, walk
from tracecontracts.streaming import StreamingMonitor

from gen import (
    NaiveStreamingMonitor,
    naive_backward_frames,
    naive_candidates,
    naive_covering_counts,
    naive_edge_times,
    naive_evaluate,
    naive_extract_intervals,
    naive_latency_score,
    naive_lookahead,
    naive_lookahead_frames,
    naive_purity_score,
    prefix_nearest_distances,
    prefix_until,
    prefix_window_all,
    prefix_window_exists,
    random_env,
    random_formula,
)

STEPS = (0.01, 0.02, 0.0125, 1.0 / 3.0, 1.0)
GAP_FRAMES = (0, 1, 3)


def _event_mask(rng: random.Random, n: int) -> np.ndarray:
    """Runs of 1-40 frames separated by 1-12 quiet frames."""
    mask = np.zeros(n, dtype=bool)
    i = rng.randint(0, 5)
    while i < n:
        length = rng.randint(1, 40)
        mask[i : i + length] = True
        i += length + rng.randint(1, 12)
    return mask


def _random_masks(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 300)
        h = rng.choice(STEPS)
        if rng.random() < 0.5:
            yield _event_mask(rng, n), _event_mask(rng, n), h
        else:
            density = rng.random()
            yield (
                np.array([rng.random() < density for _ in range(n)], dtype=bool),
                np.array([rng.random() < density for _ in range(n)], dtype=bool),
                h,
            )


def _fixture_masks():
    for case in stress_track() + [bridge_fixture()]:
        yield case.ref_mask, case.pred_mask, case.frame_step, case.epsilon
    for case in calibration_cases():
        yield case.ref_mask, case.pred_mask, case.frame_step, 0.04


def _assert_same_intervals(fast, slow):
    assert fast == slow
    assert repr(fast) == repr(slow)


def _assert_same_relations(refs, preds, epsilon):
    fast = candidates(refs, preds, epsilon)
    slow = naive_candidates(refs, preds, epsilon)
    assert fast == slow
    assert repr(fast) == repr(slow)
    assert covering_counts(refs, preds) == naive_covering_counts(refs, preds)
    assert covering_counts(preds, refs) == naive_covering_counts(preds, refs)
    for lead, lag in ((epsilon, 2.0 * epsilon), (0.0, epsilon)):
        assert latency_score(refs, preds, lead, lag) == naive_latency_score(
            refs, preds, lead, lag
        )


class TestExtraction:
    def test_random_masks_and_merge_gaps(self):
        for ref, pred, h in _random_masks(31, 300):
            # k * h - 1e-9 puts a k-frame gap exactly on the slack of the test.
            gaps = [k * h for k in GAP_FRAMES] + [k * h - 1e-9 for k in GAP_FRAMES[1:]]
            for gap in gaps:
                for mask in (ref, pred):
                    _assert_same_intervals(
                        extract_intervals(mask, h, gap), naive_extract_intervals(mask, h, gap)
                    )

    def test_fixtures(self):
        for ref, pred, h, _ in _fixture_masks():
            for frames in GAP_FRAMES:
                for mask in (ref, pred):
                    _assert_same_intervals(
                        extract_intervals(mask, h, frames * h),
                        naive_extract_intervals(mask, h, frames * h),
                    )

    def test_edge_times_bit_identical(self):
        for ref, pred, h in _random_masks(32, 200):
            for mask in (ref, pred):
                fast = _edge_times(mask, h)
                slow = naive_edge_times(mask, h)
                assert fast.dtype == slow.dtype
                assert fast.tobytes() == slow.tobytes()


class TestPairRelations:
    def test_random_masks_and_merge_gaps(self):
        for ref, pred, h in _random_masks(33, 120):
            for frames in GAP_FRAMES:
                refs = extract_intervals(ref, h, frames * h)
                preds = extract_intervals(pred, h, frames * h)
                for epsilon in (0.02, 0.04, 0.1):
                    _assert_same_relations(refs, preds, epsilon)

    def test_fixtures(self):
        for ref, pred, h, epsilon in _fixture_masks():
            refs = extract_intervals(ref, h)
            preds = extract_intervals(pred, h)
            _assert_same_relations(refs, preds, epsilon)

    def test_purity_on_random_classes(self):
        rng = random.Random(34)
        for _ in range(100):
            n = rng.randint(0, 200)
            h = rng.choice(STEPS)
            class_refs = {
                cls: extract_intervals(_event_mask(rng, n), h) for cls in ("a", "b", "c")
            }
            preds = extract_intervals(_event_mask(rng, n), h)
            for cls in class_refs:
                assert purity_score(cls, preds, class_refs) == naive_purity_score(
                    cls, preds, class_refs
                )


# Arbitrary interval lists: unsorted, overlapping, nested and repeated.
_ENDPOINT = st.one_of(
    st.integers(0, 40).map(lambda k: k * 0.02),
    st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
)
_INTERVAL = st.tuples(_ENDPOINT, _ENDPOINT).filter(lambda ab: ab[0] != ab[1]).map(
    lambda ab: Interval(min(ab), max(ab))
)
_FAMILY = st.lists(_INTERVAL, max_size=10)


@settings(max_examples=150, deadline=None)
@given(_FAMILY, _FAMILY, st.sampled_from((0.01, 0.04, 0.1, 0.3)))
def test_arbitrary_interval_lists(refs, preds, epsilon):
    _assert_same_relations(refs, preds, epsilon)


@settings(max_examples=100, deadline=None)
@given(_FAMILY, _FAMILY, _FAMILY)
def test_purity_on_arbitrary_interval_lists(preds, first, second):
    class_refs = {"x": first, "y": second}
    for cls in class_refs:
        assert purity_score(cls, preds, class_refs) == naive_purity_score(
            cls, preds, class_refs
        )


# ---------------------------------------------------------------------------
# Evaluation plan


def _with_duplicates(rng: random.Random, h: float, atoms=("a", "b", "c")):
    """A random formula and variants that repeat it as a subtree."""
    f = random_formula(rng, rng.randint(0, 4), atoms, h)
    g = random_formula(rng, rng.randint(0, 3), atoms, h)
    radius = rng.randint(1, 4) * h * rng.choice((1.0, 0.75, 1.4))
    return [f, And(f, f), Or(Not(f), Near(f, radius)), Until(Near(g, radius), And(g, f), radius)]


def test_reach_walker_matches_tree_recursion():
    rng = random.Random(41)
    for _ in range(300):
        h = rng.choice(STEPS)
        formulas = _with_duplicates(rng, h)
        plan = share_subformulas(formulas, h)
        assert plan.node_count == len({node for f in formulas for node in walk(f)})
        for node, reach in plan.reach.items():
            assert reach.seconds == naive_lookahead(node)
            assert reach.frames == naive_lookahead_frames(node, h)
            assert reach.backward == naive_backward_frames(node, h)


def test_stacked_plan_rows_match_window_scans():
    # Every environment over two atoms and n frames, as basis enumerates them.
    rng = random.Random(43)
    h = 0.02
    for n in (1, 2, 4):
        stacked = _universe(("a", "b"), n)
        rows = stacked["a"].shape[0]
        for _ in range(8):
            formulas = _with_duplicates(rng, h, ("a", "b"))
            values = share_subformulas(formulas, h).evaluate(stacked)
            for formula in formulas:
                assert values[formula].shape == (rows, n)
                for row in range(rows):
                    env = TraceEnvironment(h, n, {k: v[row] for k, v in stacked.items()})
                    assert values[formula][row].tolist() == naive_evaluate(formula, env)


# Frame kernels


DENSITIES = (0.0, 0.05, 0.5, 0.95, 1.0)


def _kernel_inputs(seed: int):
    """(stacked mask, radius) over lengths 0-3 and up to 200 frames, with
    zero to two leading axes, every density from all-false to all-true,
    and radii from 1 to past the trace length."""
    rng = np.random.default_rng(seed)
    lengths = [0, 1, 2, 3] + [int(n) for n in rng.integers(4, 201, size=12)]
    for n in lengths:
        for lead in ((), (3,), (2, 3)):
            for density in DENSITIES:
                mask = rng.random(lead + (n,)) < density
                for r in sorted({1, 2, 3, max(1, n // 2), n, n + 1, n + 7}):
                    yield mask, r


def _assert_fresh_equal(got: np.ndarray, want: np.ndarray, *inputs: np.ndarray) -> None:
    assert got.dtype == bool
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert not any(np.shares_memory(got, x) for x in inputs)


def test_window_kernels_match_prefix_sums():
    for mask, r in _kernel_inputs(59):
        n = mask.shape[-1]
        for back, ahead in ((r, r), (0, r), (r + n + 1, r), (r, 0)):
            got = _window_exists(mask, back, ahead)
            _assert_fresh_equal(got, prefix_window_exists(mask, back, ahead), mask)
        _assert_fresh_equal(_window_all(mask, r), prefix_window_all(mask, r), mask)


def test_until_kernel_matches_prefix_sums():
    rng = np.random.default_rng(61)
    for phi, r in _kernel_inputs(67):
        psi = rng.random(phi.shape) < rng.choice(DENSITIES)
        got = _until(phi, psi, r)
        _assert_fresh_equal(got, prefix_until(phi, psi, r), phi, psi)


def test_temporal_nodes_match_window_scans():
    # Plan evaluation of each operator at radii 1 to past the trace length,
    # including traces of 0-3 frames and all-false and all-true atoms.
    rng = random.Random(71)
    h = 0.01
    for trial in range(300):
        n = trial % 4 if trial < 40 else rng.randint(4, 60)
        density = DENSITIES[trial % len(DENSITIES)]
        env = random_env(rng, n, h=h, density=density)
        radius = rng.randint(1, n + 3) * h
        a, b = Atom("a"), Atom("b")
        formulas = [
            Near(a, radius),
            Future(a, radius),
            Always(a, radius),
            Until(a, b, radius),
            Always(Near(Not(a), radius), radius),
        ]
        values = share_subformulas(formulas, h).evaluate(env.atoms)
        for formula in formulas:
            assert values[formula].tolist() == naive_evaluate(formula, env)


def _assert_same_distances(obligated, witnesses, h):
    got = _nearest_distances(obligated, witnesses, h)
    want = prefix_nearest_distances(obligated, witnesses, h)
    if want is None:
        assert got is None
        return
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    if want.size:
        assert np.mean(got).tobytes() == np.mean(want).tobytes()


def test_witness_distances_match_all_frames_lookup():
    rng = np.random.default_rng(73)
    for n in [0, 1, 2, 3] + [int(n) for n in rng.integers(4, 201, size=40)]:
        h = float(rng.choice(STEPS))
        for p in DENSITIES:
            for q in DENSITIES:
                _assert_same_distances(rng.random(n) < p, rng.random(n) < q, h)
    # No obligated frames: an empty array, even without witnesses.
    assert _nearest_distances(np.zeros(5, bool), np.zeros(5, bool), 0.01).size == 0
    # No witness frames at all.
    assert _nearest_distances(np.ones(5, bool), np.zeros(5, bool), 0.01) is None
    for ref, pred, h in _random_masks(79, 60):
        _assert_same_distances(ref, pred, h)
        _assert_same_distances(pred, ref, h)


# Streaming


def _frame_rows(env: TraceEnvironment, kind: str) -> list[dict]:
    """The environment's frames as Python bools, numpy bools or ints."""
    names = tuple(env.atoms)
    rows = []
    for i in range(env.frame_count):
        values = [env.atoms[name][i] for name in names]
        if kind == "bool":
            values = [bool(v) for v in values]
        elif kind == "int":
            values = [int(v) for v in values]
        rows.append(dict(zip(names, values)))
    return rows


def _assert_same_stream(formula, h: float, rows: list[dict]) -> None:
    fast = StreamingMonitor(formula, h)
    slow = NaiveStreamingMonitor(formula, h)
    assert fast.lookahead_frames == slow.lookahead_frames
    assert fast.backward_frames == slow.backward_frames
    outputs = [(fast.step(row), slow.step(row)) for row in rows]
    outputs.append((fast.finalize(), slow.finalize()))
    for got, want in outputs:
        assert got == want
        assert all(type(verdict) is bool for _, verdict in got)
    assert fast.next_emission_index == slow.next_emission_index == len(rows)


def test_streaming_steps_match_pump_engine():
    # Per-step emission lists, not only the final verdicts, on formulas with
    # until and repeated subtrees, on traces of every length up to well past
    # the lookahead, with frames given as Python bools, numpy bools and ints.
    rng = random.Random(47)
    for trial in range(150):
        h = rng.choice(STEPS)
        kind = ("bool", "numpy", "int")[trial % 3]
        for formula in _with_duplicates(rng, h):
            lookahead = StreamingMonitor(formula, h).lookahead_frames
            n = rng.randint(0, 3 * lookahead + 8)
            _assert_same_stream(formula, h, _frame_rows(random_env(rng, n, h=h), kind))


def test_streaming_traces_shorter_than_the_lookahead_match_pump_engine():
    rng = random.Random(53)
    checked = 0
    while checked < 200:
        h = rng.choice(STEPS)
        formula = Until(random_formula(rng, 3, h=h), random_formula(rng, 3, h=h), 4 * h)
        lookahead = StreamingMonitor(formula, h).lookahead_frames
        n = rng.randint(0, lookahead - 1)
        kind = ("bool", "numpy", "int")[checked % 3]
        _assert_same_stream(formula, h, _frame_rows(random_env(rng, n, h=h), kind))
        checked += 1
