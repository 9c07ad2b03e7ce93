"""Optimised paths against their naive oracles.

The vectorised and range-scan interval layer: every comparison is
exact, with equal interval tuples with equal float reprs, candidate pairs
in the same order with the same cost floats, and edge-time arrays equal
bit for bit.  The array interval layer against the object layer it
replaced: equal reprs of candidates, matchings (frozenset order
included), event scores, matcher audits and whole monitor results.  The evaluation plan: its reach walker against tree
recursion, and its stacked evaluation against per-frame window scans.
The shift-doubling window, erosion and until kernels against prefix sums,
array for array, the witness distances against the all-frames lookup,
and the frame clauses the witness pass counts against ``frames.score``.
The fixed-delay streaming monitor against the pump engine, step by step.
The operator-table parser and renderer against the recursive-descent ones:
equal trees, node spans, errors and renderings.  The lexer's identifier
pattern against the per-character scanner: equal tokens and errors.
Satisfiability from the truth signature against trying every assignment.
Trace rasterization and the pathology run-move table against one slice
per event and one arm per kind: equal array bytes, dtype and shape, or
equal exception types and messages.  Two kinds of property stand beside
the oracles: matching decomposes over activity components, and the finite
core keeps its laws (duality, monotone radii, the one-frame unrolling of
until) on the plan and the streaming monitor.  The window fragment's frame
valuations are its continuous-time interval semantics sampled on the grid.
"""

import ast
import dataclasses
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracecontracts.basis import (
    CalibrationCase,
    clause_signatures,
)
from tracecontracts.contracts import (
    EDGE_PAIRS,
    ContractError,
    FrameClause,
    GuardCoordinate,
    GuardVector,
    _frame_runs,
    _gap_distances,
    _macro,
    _monitor,
    _route,
    _trace_runs,
    compile_contract,
    contract_to_text,
    default_contract,
    default_contract_text,
    latency_score,
    monitor,
    monitor_classes,
    parse_contract_text,
    purity_score,
    soft_boundary,
    tolerance_sweep,
)
from tracecontracts.fixtures import (
    PATHOLOGY_KINDS,
    TracePathology,
    apply_pathology,
    bridge_fixture,
    calibration_cases,
    make_trace,
    stress_track,
)
from tracecontracts.frames import (
    EvalStats,
    TraceEnvironment,
    UnknownAtomError,
    _until,
    _window_all,
    _window_exists,
    derive_edge_atoms,
    evaluate,
    radius_frames,
    share_subformulas,
)
from tracecontracts.intervals import (
    AuditBoundError,
    Interval,
    _run_edges,
    candidates,
    covering_counts,
    extract_intervals,
    match_exact,
    match_greedy,
    matcher_audit,
)
from tracecontracts.lexer import LexError, tokenize
from tracecontracts.parser import (
    Always,
    And,
    Atom,
    Future,
    Implies,
    Near,
    Not,
    Or,
    ParseError,
    Until,
    format_formula,
    parse_text,
    walk,
)
from tracecontracts import frames, intervals, streaming
from tracecontracts.streaming import StreamingMonitor

from gen import (
    ALL_PREDICATES,
    CandidatePair,
    loop_clause_signatures,
    loop_macro,
    loop_monitor_classes,
    loop_tolerance_sweep,
    NaiveStreamingMonitor,
    enumerate_formulas,
    gap_run_distances,
    group_soft_boundary,
    naive_backward_frames,
    naive_candidates,
    naive_covering_counts,
    naive_edge_times,
    naive_apply_pathology,
    naive_evaluate,
    naive_extract_intervals,
    naive_format,
    naive_latency_score,
    naive_lookahead,
    naive_lookahead_frames,
    naive_make_trace,
    naive_parse,
    naive_purity_score,
    naive_satisfiable,
    naive_tokenize,
    object_candidates,
    object_covering_counts,
    object_latency_score,
    object_match_exact,
    object_match_greedy,
    object_matcher_audit,
    object_monitor,
    object_purity_score,
    pair_table,
    pair_witness,
    prefix_nearest_distances,
    prefix_until,
    prefix_window_all,
    prefix_window_exists,
    random_env,
    random_formula,
    satisfiable,
    scan_greedy,
    table_pairs,
    universe,
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
    fast = table_pairs(candidates(refs, preds, epsilon))
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
        # A stack's edges are each row's own, row g's placed g * (2n + 1)
        # frames on, and no two rows' edges lie within n frames; a row's edge
        # times in seconds from its own start are those of its intervals.
        for ref, pred, h in _random_masks(32, 200):
            stack = np.stack((pred, ref, np.zeros_like(ref), pred))
            n, stride = ref.size, 2 * ref.size + 1
            edges = _run_edges(stack)
            cut = edges.searchsorted(np.arange(len(stack) + 1) * stride)
            assert cut[-1] == edges.size
            last = None
            for g, mask in enumerate(stack):
                own, placed = _run_edges(mask), edges[cut[g]:cut[g + 1]]
                assert placed.dtype == own.dtype
                assert np.array_equal(placed - g * stride, own)
                fast, slow = own * h, naive_edge_times(mask, h)
                assert fast.dtype == slow.dtype
                assert fast.tobytes() == slow.tobytes()
                if placed.size:
                    assert last is None or placed[0] - last > n
                    last = placed[-1]


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
# Array interval layer against the object layer


def _outcome(call):
    """The repr of a call's result, or the type and text of what it raised."""
    try:
        return repr(call())
    except (AuditBoundError, ContractError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_same_matching(fast, slow):
    assert fast == slow
    assert repr(fast) == repr(slow)  # frozenset iteration order included


def _assert_same_event_layer(refs, preds, epsilon, class_refs=None):
    refs, preds = tuple(refs), tuple(preds)
    fast = candidates(refs, preds, epsilon)
    slow = object_candidates(refs, preds, epsilon)
    assert repr(table_pairs(fast)) == repr(slow)  # pair order and cost bits
    assert covering_counts(refs, preds) == object_covering_counts(refs, preds)
    _assert_same_matching(match_greedy(fast), object_match_greedy(slow))
    assert _outcome(lambda: match_exact(fast)) == _outcome(lambda: object_match_exact(slow))
    if np.unique(fast.ref_index).size <= 24 and np.unique(fast.pred_index).size <= 24:
        _assert_same_matching(match_exact(fast), object_match_exact(slow))
    _assert_same_audit(refs, preds, epsilon)
    for lead, lag in ((epsilon, 2.0 * epsilon), (0.0, epsilon)):
        assert repr(latency_score(refs, preds, lead, lag)) == repr(
            object_latency_score(refs, preds, lead, lag)
        )
    class_refs = class_refs or {}
    for cls in [*class_refs, "absent"]:
        assert repr(purity_score(cls, preds, class_refs)) == repr(
            object_purity_score(cls, preds, class_refs)
        )


def _assert_same_audit(refs, preds, epsilon, bound=24):
    # Both matchings with their event scores, or the bound error's type and text.
    assert _outcome(lambda: matcher_audit(refs, preds, epsilon, bound)) == _outcome(
        lambda: object_matcher_audit(refs, preds, epsilon, bound)
    )


class TestArrayEventLayer:
    def test_random_masks_and_merge_gaps(self):
        for ref, pred, h in _random_masks(81, 120):
            for frames in GAP_FRAMES:
                refs = extract_intervals(ref, h, frames * h)
                preds = extract_intervals(pred, h, frames * h)
                for epsilon in (0.02, 0.04, 0.1):
                    _assert_same_event_layer(refs, preds, epsilon, {"r": refs, "p": preds})

    def test_fixtures(self):
        for ref, pred, h, epsilon in _fixture_masks():
            refs, preds = extract_intervals(ref, h), extract_intervals(pred, h)
            _assert_same_event_layer(refs, preds, epsilon, {"r": refs, "p": preds})

    def test_empty_families(self):
        one = (Interval(0.1, 0.3),)
        for refs, preds in (((), ()), (one, ()), ((), one)):
            _assert_same_event_layer(refs, preds, 0.04, {"a": refs, "b": ()})
            _assert_same_event_layer(refs, preds, 0.04, {})

    def test_equal_cost_ties_keep_candidate_order(self):
        # Duplicated intervals tie on every key; mirrored predictions tie on
        # cost and break on position.
        same = (Interval(0.0, 1.0),) * 3
        mirrored = (Interval(0.5, 1.5), Interval(-0.5, 0.5), Interval(0.25, 1.25))
        for refs, preds in ((same, same), (same[:1], mirrored), (mirrored, same)):
            _assert_same_event_layer(refs, preds, 1.0, {"a": refs, "b": preds})
            for bound in (1, 2, 3):
                _assert_same_audit(refs, preds, 1.0, bound)
        rng = random.Random(89)
        ref, pred = Interval(0.0, 1.0), Interval(0.0, 1.0)
        cands = [CandidatePair(i % 3, i // 3, ref, pred, -1.0) for i in range(9)]
        for _ in range(20):
            rng.shuffle(cands)
            table = pair_table(cands)
            _assert_same_matching(match_greedy(table), object_match_greedy(cands))
            _assert_same_matching(match_exact(table), object_match_exact(cands))

    def test_arbitrary_candidate_lists(self):
        # Few distinct costs and endpoints, so cost ties that break on
        # position, conflicts, and repeated (reference, prediction) pairs
        # with different costs are common.
        rng = random.Random(91)
        grid = [Interval(a / 4, b / 4) for a in range(4) for b in range(a + 1, 5)]
        for _ in range(400):
            cands = [
                CandidatePair(
                    rng.randrange(5), rng.randrange(5), rng.choice(grid), rng.choice(grid),
                    rng.choice((-1.0, 0.0, 0.5, 1.0)),
                )
                for _ in range(rng.randint(0, 12))
            ]
            table = pair_table(cands)
            _assert_same_matching(match_greedy(table), object_match_greedy(cands))
            _assert_same_matching(match_exact(table), object_match_exact(cands))

    def test_purity_totals_sum_in_reference_order(self):
        # Sixty-four overlaps with full mantissas, where a pairwise or
        # reordered sum rounds differently; a rival class one step either
        # side of the dominance margin turns that last bit into a verdict.
        preds = [Interval(0.0, 100.0)]
        for seed in range(10):
            rng = random.Random(seed)
            first = [Interval(0.0, rng.random()) for _ in range(64)]
            margin = sum(iv.end for iv in first) - 1e-9
            for rival in (margin, math.nextafter(margin, 0.0)):
                class_refs = {"x": first, "y": [Interval(0.0, rival)]}
                for cls in class_refs:
                    assert repr(purity_score(cls, preds, class_refs)) == repr(
                        object_purity_score(cls, preds, class_refs)
                    )


_NESTED = _INTERVAL.filter(lambda iv: iv.length > 1e-6).map(
    lambda iv: [iv, Interval(iv.start + iv.length / 4, iv.end - iv.length / 4)]
)
_MESSY = st.tuples(_FAMILY, st.lists(_NESTED, max_size=3)).flatmap(
    lambda parts: st.permutations(
        parts[0] + parts[0][: len(parts[0]) // 2] + [iv for pair in parts[1] for iv in pair]
    )
)


@settings(max_examples=150, deadline=None)
@given(_MESSY, _MESSY, _MESSY, st.sampled_from((0.01, 0.04, 0.1, 0.3)))
def test_array_layer_on_unsorted_nested_duplicated_lists(refs, preds, other, epsilon):
    _assert_same_event_layer(refs, preds, epsilon, {"refs": refs, "other": other})


@settings(max_examples=200, deadline=None)
@given(_MESSY, _MESSY, st.sampled_from((0.01, 0.04, 0.1, 0.3)), st.integers(1, 30))
def test_matcher_audit_on_unsorted_nested_duplicated_lists(refs, preds, epsilon, bound):
    _assert_same_audit(refs, preds, epsilon, bound)


# Few costs and endpoints, so that cost ties are decided by each of the four
# position keys in turn, and few indices, so that (reference, prediction)
# pairs repeat and candidates contend for their sides.
_TIE_GRID = [Interval(a, b) for a in (0.0, 1.0) for b in (2.0, 3.0)]
_TIED_CANDIDATES = st.lists(st.builds(
    CandidatePair, st.integers(0, 4), st.integers(0, 4), st.sampled_from(_TIE_GRID),
    st.sampled_from(_TIE_GRID), st.sampled_from((0.0, 1.0)),
), max_size=12)


@st.composite
def _zigzag_chain(draw):
    """Prediction j straddles references j and j + 1, with costs rising
    along the chain, some tied: every candidate is contested."""
    n = draw(st.integers(1, 8))
    costs = sorted(draw(st.lists(st.integers(0, 3), min_size=2 * n, max_size=2 * n)))
    refs = [Interval(2.0 * i, 2.0 * i + 1.5) for i in range(n + 1)]
    preds = [Interval(2.0 * j + 1.0, 2.0 * j + 2.5) for j in range(n)]
    return [CandidatePair(j + side, j, refs[j + side], preds[j], float(costs[2 * j + side]))
            for j in range(n) for side in (0, 1)]


@st.composite
def _scan_tables(draw):
    """A candidate table of up to three parts on runs of their own, in
    shuffled order, and the sort keys ranked before its cost: none, or each
    candidate's part as a batch's row."""
    parts = draw(st.lists(st.one_of(_TIED_CANDIDATES, _zigzag_chain()), max_size=3))
    cands, rows, ref_base, pred_base = [], [], 0, 0
    for row, part in enumerate(parts):
        cands += [dataclasses.replace(c, ref_index=c.ref_index + ref_base,
                                      pred_index=c.pred_index + pred_base) for c in part]
        rows += [row] * len(part)
        ref_base += 1 + max((c.ref_index for c in part), default=-1)
        pred_base += 1 + max((c.pred_index for c in part), default=-1)
    order = draw(st.permutations(range(len(cands))))
    first = [np.array([rows[k] for k in order])] if draw(st.booleans()) else []
    return pair_table([cands[k] for k in order]), first


@settings(max_examples=300, deadline=None)
@given(_scan_tables())
@example((pair_table([]), []))
def test_greedy_scan_keeps_what_a_scan_of_every_candidate_keeps(case):
    table, first = case
    refs, preds = intervals._greedy_scan(table, *first)
    assert (refs.tolist(), preds.tolist()) == scan_greedy(table, *first)
    kept = list(zip(*scan_greedy(table)))
    assert repr(match_greedy(table)) == f"Matching(pairs={frozenset(set(kept))!r}, policy='greedy')"


def _painted(n: int, active: bool, cuts) -> np.ndarray:
    """A mask of ``n`` frames whose stretches end at the ascending frames
    ``cuts``, alternately active and not from ``active`` on; what the
    stretches leave is inactive."""
    mask, at = np.zeros(n, bool), 0
    for cut in cuts:
        mask[at:cut] = active
        at, active = cut, not active
    return mask


@st.composite
def _stretch_masks(draw):
    """A reference and a prediction mask of one length, 20 to 400 frames.
    The prediction's stretches end where the reference's do, each end a few
    frames off, so that candidates abound, or where its own do."""
    def cuts():
        count = draw(st.integers(0, 40))
        return np.cumsum(draw(st.lists(st.integers(1, 30), min_size=count, max_size=count)))

    n, active, ref_cuts = draw(st.integers(20, 400)), draw(st.booleans()), cuts()
    if draw(st.booleans()):
        shifts = draw(st.lists(st.integers(-3, 3), min_size=ref_cuts.size, max_size=ref_cuts.size))
        pred_cuts = np.maximum.accumulate(np.maximum(ref_cuts + np.array(shifts, int), 0))
        return _painted(n, active, ref_cuts), _painted(n, active, pred_cuts)
    return _painted(n, active, ref_cuts), _painted(n, draw(st.booleans()), cuts())


def _matched_cost(table, matching) -> float:
    costs = dict(zip(zip(table.ref_index.tolist(), table.pred_index.tolist()), table.cost.tolist()))
    return sum(costs[pair] for pair in matching.pairs)


@settings(max_examples=200, deadline=None)
@given(_stretch_masks(), st.sampled_from((0, 1, 3)), st.sampled_from((0.01, 0.04, 0.1)))
def test_matching_decomposes_over_activity_components(masks, gap, epsilon):
    # A component is a maximal run of frames where either side's merged
    # runs are active; no candidate joins two, so each matches on its own.
    h = 0.01
    runs = [intervals.intervals(mask, h, gap * h) for mask in masks]
    active = np.zeros(masks[0].size, bool)
    for lo, hi in runs:
        for a, b in zip(lo.tolist(), hi.tolist()):
            active[a:b] = True
    first, last = intervals.intervals(active, h)
    comps = [first.searchsorted(lo, side="right") - 1 for lo, _ in runs]
    for (lo, hi), comp in zip(runs, comps):
        assert np.all(first[comp] <= lo) and np.all(hi <= last[comp])
    refs, preds = (intervals.Family(lo * h, hi * h) for lo, hi in runs)
    table = candidates(refs, preds, epsilon)
    assert np.array_equal(comps[0][table.ref_index], comps[1][table.pred_index])
    within = all(np.unique(side).size <= intervals.DEFAULT_EXACT_BOUND
                 for side in (table.ref_index, table.pred_index))
    greedy, count, cost = set(), 0, 0.0
    for c in range(first.size):
        ri, pi = ((comp == c).nonzero()[0] for comp in comps)
        sub = candidates(intervals.Family(refs.start[ri], refs.end[ri]),
                         intervals.Family(preds.start[pi], preds.end[pi]), epsilon)
        greedy |= {(int(ri[a]), int(pi[b])) for a, b in match_greedy(sub).pairs}
        if within:
            exact = match_exact(sub)
            count, cost = count + len(exact), cost + _matched_cost(sub, exact)
    assert match_greedy(table).pairs == greedy
    if within:
        exact = match_exact(table)
        assert len(exact) == count
        assert math.isclose(_matched_cost(table, exact), cost)


MIXED_CONTRACT = """set tolerance 0.03
set merge_gap 0.02
frame a : ref_active -> N[0.03] pred_onset @ ref_active & !pred_active
frame e : ref_active -> N[0.03] pred_active @ ref_active & !pred_active
frame b : ref_onset -> F[0.05] pred_active @ ref_onset
frame c : pred_active -> N[0.01] ref_active @ pred_active
frame d : ref_offset -> N[0.03] pred_offset @ ref_offset
event dur : duration_within @ matched_pairs threshold=0.05
event frag : singly_covered @ reference_intervals
event lat : latency_window @ reference_intervals lead=0.02 lag=0.06
"""

PURITY_CONTRACT = """set tolerance 0.04
set merge_gap 0.02
frame on : ref_onset -> N[0.04] pred_onset @ ref_onset
event pur : overlap_purity @ predicted_intervals
event frag : singly_covered @ reference_intervals
event dur : duration_within @ matched_pairs
"""


def _monitor_contracts():
    return [
        default_contract(0.04),
        default_contract(0.04, merge_gap=0.03),
        default_contract(0.02, matcher="exact"),
        parse_contract_text(MIXED_CONTRACT),
    ]


def _monitor_inputs(seed: int, count: int):
    yield from _random_masks(seed, count)
    for ref, pred, h, _ in _fixture_masks():
        yield ref, pred, h


def test_monitor_results_match_object_monitor():
    for ref, pred, h in _monitor_inputs(83, 40):
        env = derive_edge_atoms(ref, pred, h)
        for contract in _monitor_contracts():
            plan = compile_contract(contract, h)
            assert _outcome(lambda: monitor(contract, ref, pred, h)) == _outcome(
                lambda: object_monitor(contract, plan, env)
            )


def test_sweep_rows_match_object_monitor():
    # One set of runs serves every tolerance of the sweep.
    for ref, pred, h in _random_masks(85, 25):
        env = derive_edge_atoms(ref, pred, h)
        for contract in (_monitor_contracts()[1], _monitor_contracts()[3]):
            sweep = tolerance_sweep(contract, ref, pred, h, [0.01, 0.03, 0.05, 0.2])
            for row in sweep.rows:
                plan = compile_contract(row.contract, h)
                assert repr(row.result) == repr(object_monitor(row.contract, plan, env))


def test_class_results_with_purity_match_object_monitor():
    rng = random.Random(87)
    contract = parse_contract_text(PURITY_CONTRACT)
    for _ in range(40):
        n = rng.randint(0, 250)
        h = rng.choice(STEPS)
        masks = {cls: (_event_mask(rng, n), _event_mask(rng, n)) for cls in ("a", "b", "c")}
        result = monitor_classes(contract, masks, h)
        plan = compile_contract(contract, h)
        class_refs = {
            cls: naive_extract_intervals(ref, h, contract.merge_gap)
            for cls, (ref, _) in masks.items()
        }
        for cls, (ref, pred) in masks.items():
            want = object_monitor(contract, plan, derive_edge_atoms(ref, pred, h), (cls, class_refs))
            assert repr(result.per_class[cls]) == repr(want)


# ---------------------------------------------------------------------------
# The batched pass against one pass per group

# 1/32 s is exact in binary, so mirrored runs give candidates of equal cost.
CLASS_STEPS = (0.01, 0.02, 0.03125, 1.0 / 3.0)


def _class_masks(rng: random.Random, n: int, count: int) -> dict:
    """1-4 classes: event runs, empty classes, classes with no predicted run,
    twins of the class before (equal candidates in two groups) and mirrored
    predictions (two candidates of equal cost for one reference)."""
    masks: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for k in range(count):
        kind = rng.choice(("events", "events", "empty", "no_pred", "twin", "mirror"))
        ref = _event_mask(rng, n)
        if kind == "empty":
            pair = (np.zeros(n, bool), np.zeros(n, bool))
        elif kind == "no_pred":
            pair = (ref, np.zeros(n, bool))
        elif kind == "twin" and masks:
            pair = tuple(mask.copy() for mask in list(masks.values())[-1])
        elif kind == "mirror":
            ref, pred = np.zeros(n, bool), np.zeros(n, bool)
            for start in range(2, n - 12, 14):
                ref[start : start + 8] = True
                pred[start - 1 : start + 3] = True  # cost 3 frames, as is its mirror
                pred[start + 5 : start + 9] = True
            pair = (ref, pred)
        else:
            pair = (ref, _event_mask(rng, n))
        masks["zyxw"[k]] = pair  # file order, not sorted order
    return masks


def _class_contracts():
    return _monitor_contracts() + [
        parse_contract_text(PURITY_CONTRACT),
        parse_contract_text(PURITY_CONTRACT + "set matcher exact\n"),
    ]


def test_class_rows_match_one_pass_per_class():
    rng = random.Random(91)
    seen = set()
    for trial in range(50):
        n = rng.randint(0, 160 if trial % 2 else 260)
        h = rng.choice(CLASS_STEPS)
        masks = _class_masks(rng, n, rng.randint(1, 4))
        for contract in _class_contracts():
            got = _outcome(lambda: monitor_classes(contract, masks, h))
            assert got == _outcome(lambda: loop_monitor_classes(contract, masks, h)), (
                trial, contract_to_text(contract)
            )
            seen.add((contract.matcher, got.split("(")[0].split(":")[0]))
    # The exact matcher ran within its bound, and past it.
    assert {("exact", "ClassMonitorResult"), ("exact", "AuditBoundError")} <= seen


def test_union_and_class_rows_in_one_pass_match_their_own_passes():
    # The monitor command's batch: the union row, then every class in file
    # order.  The first row in that order decides any error, and within a
    # row the matcher bound comes before a clause that needs class context.
    rng = random.Random(92)
    seen = set()
    for trial in range(40):
        n = rng.randint(0, 200)
        h = rng.choice(CLASS_STEPS)
        masks = _class_masks(rng, n, rng.randint(1, 4))
        sides = [[pair[side] for pair in masks.values()] for side in (0, 1)]
        union = tuple(np.logical_or.reduce(side) for side in sides)
        for contract in _class_contracts():

            def one_by_one():
                plan = compile_contract(contract, h)
                rows = [object_monitor(contract, plan, derive_edge_atoms(*union, h))]
                return rows + list(loop_monitor_classes(contract, masks, h).per_class.values())

            pairs = [union, *masks.values()]
            got = _outcome(lambda: _monitor([contract], pairs, h, [None, *masks])[1])
            assert got == _outcome(one_by_one), (trial, contract_to_text(contract))
            seen.add(got.split(":")[0] if "Error" in got[:20] else "results")
    assert seen == {"results", "AuditBoundError", "ContractError"}


def test_sweep_matches_one_pass_per_tolerance():
    rng = random.Random(93)
    grid = (0.005, 0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.2)
    for ref, pred, h in _random_masks(93, 30):
        for contract in _monitor_contracts() + [parse_contract_text(PURITY_CONTRACT)]:
            tolerances = sorted(rng.sample(grid, rng.randint(1, 5)))
            assert _outcome(lambda: tolerance_sweep(contract, ref, pred, h, tolerances)) == (
                _outcome(lambda: loop_tolerance_sweep(contract, ref, pred, h, tolerances))
            ), contract_to_text(contract)


def _calibration(rng: random.Random) -> list[CalibrationCase]:
    """1-9 cases of mixed lengths and frame steps, several of one length."""
    lengths = rng.sample((0, 1, 30, 90, 160), 3)
    cases = []
    for index in range(rng.randint(1, 9)):
        n, h = rng.choice(lengths), rng.choice((0.01, 0.02))
        ref, pred = _event_mask(rng, n), _event_mask(rng, n)
        cases.append(CalibrationCase(
            f"c{index}", tuple(ref.astype(int).tolist()), tuple(pred.astype(int).tolist()),
            float(rng.randint(1, 4)), h,
        ))
    return cases


def test_clause_signatures_match_one_pass_per_case():
    rng = random.Random(95)
    corpora = [calibration_cases()] + [_calibration(rng) for _ in range(30)]
    contracts = _monitor_contracts() + [parse_contract_text(PURITY_CONTRACT)]
    for cases in corpora:
        for contract in contracts:
            assert _outcome(lambda: clause_signatures(contract, cases)) == _outcome(
                lambda: loop_clause_signatures(contract, cases)
            ), contract_to_text(contract)


# ---------------------------------------------------------------------------
# Evaluation plan


def _with_duplicates(rng: random.Random, h: float, atoms=("a", "b", "c")):
    """A random formula and variants that repeat it as a subtree."""
    f = random_formula(rng, rng.randint(0, 4), atoms, h)
    g = random_formula(rng, rng.randint(0, 3), atoms, h)
    radius = rng.randint(1, 4) * h * rng.choice((1.0, 0.75, 1.4))
    return [f, And(f, f), Or(Not(f), Near(f, radius)), Until(Near(g, radius), And(g, f), radius)]


def test_satisfiable_matches_assignment_enumeration():
    rng = random.Random(29)
    outcomes = set()
    for _ in range(3000):
        formula = random_formula(rng, 3, atoms=("a", "b"))
        n = rng.randint(0, 4)
        got = satisfiable(formula, ("a", "b"), n, 0.02)
        assert got == naive_satisfiable(formula, ("a", "b"), n, 0.02), (format_formula(formula), n)
        outcomes.add((got, n > 0))
    assert outcomes == {(True, True), (False, True), (False, False)}


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


@pytest.mark.parametrize("h", [0.01, 0.02, 1024 / 44100])
def test_the_plan_memo_gives_a_fresh_walks_plan(h):
    # Random lists with duplicates, reordered and reparsed with other spans:
    # the kept plan equals the walk run afresh, field by field and in every
    # valuation, and equal lists share it.
    rng = random.Random(round(h * 1e6))
    frames._plan.cache_clear()
    for _ in range(80):
        pool = _with_duplicates(rng, h)
        formulas = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        reparsed = [parse_text("  " + format_formula(f)) for f in formulas]
        env = random_env(rng, rng.randint(1, 40), h=h)
        for listed in (formulas, formulas[::-1], reparsed):
            plan = share_subformulas(listed, h)
            fresh = frames._plan.__wrapped__(tuple(listed), h)
            for field in dataclasses.fields(fresh):
                assert getattr(plan, field.name) == getattr(fresh, field.name), field.name
            got, want = plan.evaluate(env.atoms), fresh.evaluate(env.atoms)
            assert list(got) == list(want)
            assert all(np.array_equal(got[f], want[f]) for f in want)
        assert share_subformulas(reparsed, h) is share_subformulas(formulas, h)


def test_stacked_plan_rows_match_window_scans():
    # Every environment over two atoms and n frames, stacked by `universe`.
    rng = random.Random(43)
    h = 0.02
    for n in (1, 2, 4):
        stacked = universe(("a", "b"), n)
        rows = stacked["a"].shape[0]
        for _ in range(8):
            formulas = _with_duplicates(rng, h, ("a", "b"))
            values = share_subformulas(formulas, h).evaluate(stacked)
            for formula in formulas:
                assert values[formula].shape == (rows, n)
                for row in range(rows):
                    env = TraceEnvironment(h, n, {k: v[row] for k, v in stacked.items()})
                    assert values[formula][row].tolist() == naive_evaluate(formula, env)


def _in_place_formulas(rng: random.Random, h: float, atoms=("a", "b", "c")):
    """Roots whose evaluation reuses dying buffers: a root that is also a
    subformula of other roots, ``x -> x``, ``N[r] y -> N[r] y`` with the
    window not a root, and chains of pointwise nodes over windows."""
    f = random_formula(rng, rng.randint(1, 4), atoms, h)
    g = random_formula(rng, rng.randint(0, 3), atoms, h)
    radius = rng.randint(1, 4) * h * rng.choice((1.0, 0.75, 1.4))
    y = Near(Atom(rng.choice(atoms)), radius)
    z = Future(g, radius)
    return [
        f,
        Implies(f, f),
        Implies(g, g),
        Implies(y, y),
        Not(Not(Or(f, z))),
        And(Implies(Always(f, radius), Near(g, radius)), Until(z, Not(f), radius)),
    ]


def test_plan_roots_match_window_scans_with_buffers_reused():
    rng = random.Random(83)
    for trial in range(240):
        h = rng.choice(STEPS)
        if trial % 4 == 0:
            # Stacked leading axes: every environment over two atoms.
            formulas = _in_place_formulas(rng, h, ("a", "b"))
            atoms = universe(("a", "b"), rng.randint(1, 3))
            rows = [{k: v[row] for k, v in atoms.items()} for row in range(len(atoms["a"]))]
        else:
            formulas = _in_place_formulas(rng, h)
            atoms = random_env(rng, rng.randint(0, 40), h=h).atoms
            rows = [atoms]
        copies = {name: values.copy() for name, values in atoms.items()}
        plan = share_subformulas(formulas, h)
        stats = EvalStats()
        values = plan.evaluate(atoms, stats)
        leaves = {node for f in formulas for node in walk(f) if isinstance(node, Atom)}
        assert set(values) == set(formulas) | leaves
        assert all(values[leaf] is atoms[leaf.name] for leaf in leaves)
        n = next(iter(atoms.values())).shape[-1]
        for formula in formulas:
            assert values[formula].shape == next(iter(atoms.values())).shape
            for index, row in enumerate(rows):
                env = TraceEnvironment(h, n, row)
                got = values[formula][index] if len(rows) > 1 else values[formula]
                assert got.tolist() == naive_evaluate(formula, env)
        kept = {formula: values[formula].copy() for formula in formulas}
        plan.evaluate(atoms)
        for formula in formulas:
            assert np.array_equal(values[formula], kept[formula])
        for name, values_in in atoms.items():
            assert np.array_equal(values_in, copies[name])
        assert stats.node_visits == plan.node_count
        assert stats.element_ops == plan.node_count * next(iter(atoms.values())).size


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


def _nearest_distances(obligated, witnesses, h):
    """Seconds from each obligated frame of two masks to the nearest witness
    frame, as the witness pass lays out :func:`_gap_distances`; ``None``
    when there are no witness frames at all."""
    obligated, witnesses = _frame_runs(obligated), _frame_runs(witnesses)
    total = int((obligated.end - obligated.start).sum())
    if total == 0:
        return np.zeros(0)
    if len(witnesses) == 0:
        return None
    where, near = _gap_distances(obligated, witnesses)
    distances = np.zeros(total)
    distances[where] = near * h
    return distances


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


def test_witness_summaries_match_all_frames_lookup():
    # One pass gives, per pair and group, the mean in ms, None when there
    # are no obligated or no witness frames, and the obligated frame count
    # when there are no witness frames.  Each pair is stacked with groups
    # that lack its witnesses, and a group reads only its own.
    pairs = [
        (np.zeros(6, bool), np.zeros(6, bool), 0.01),
        (np.zeros(6, bool), _runs_mask(6, (2, 4)), 0.01),
        (_runs_mask(6, (1, 3)), np.zeros(6, bool), 0.01),
        *_random_masks(89, 60),
    ]
    keys = [
        (Atom("ref_active"), Atom("pred_active")),
        (Atom("pred_active"), Atom("ref_active")),
        (Atom("ref_onset"), Atom("pred_onset")),
        (Atom("ref_offset"), Atom("pred_offset")),
        (Not(Atom("pred_active")), Atom("ref_onset")),
    ]
    for ref, pred, h in pairs:
        none = np.zeros_like(ref)
        stack = [(ref, pred), (none, ref), (pred, ref), (ref, none), (ref, pred)]
        runs = _trace_runs(*(np.stack(side) for side in zip(*stack)), h, 0.0)
        plan = share_subformulas([f for key in keys for f in key], h)
        values = plan.evaluate(runs.atoms)
        found, counts = runs.witnesses(keys, values)
        assert list(found) == keys and counts == {}
        for obligation, witness in keys:
            summaries = found[obligation, witness]
            assert len(summaries) == len(stack)
            for group, (mean, excluded) in zip(stack, summaries):
                env = derive_edge_atoms(*group, h)
                alone = plan.evaluate(env.atoms)
                want = prefix_nearest_distances(alone[obligation], alone[witness], h)
                count = int(np.count_nonzero(alone[obligation]))
                assert excluded == (count if want is None else 0)
                if want is None or want.size == 0:
                    assert mean is None
                else:
                    assert mean == float(np.mean(want) * 1000.0)


# A contract whose frame witnesses read non-atom obligations, with a merge gap.
NON_ATOM_OBLIGATIONS = """\
set tolerance 0.04
set merge_gap 0.03
frame both_guard : ref_active -> N[0.04] pred_active @ ref_active & pred_active
frame bleed_guard : pred_active -> N[0.02] ref_active @ pred_active & !ref_active
frame near_guard : ref_onset -> N[0.04] pred_onset @ F[0.04] ref_onset
frame plain_guard : ref_offset -> N[0.04] pred_offset @ ref_offset
frame shape_guard : G[0.02] ref_active @ ref_active
event duration_guard : duration_within @ matched_pairs
"""


def _witness_stacks(seed: int, count: int):
    """Random ``(G, n)`` stacks, G 1-5 and n 0-300, whose groups include one
    with no frames of either side, one with every frame of both, and one
    with runs on one side only."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        groups, n = int(rng.integers(1, 6)), int(rng.integers(0, 301))
        h = (0.01, 1.0 / 3.0, 1024 / 44100)[trial % 3]
        masks = rng.random((2, groups, n)) < rng.choice([0.02, 0.3, 0.7, 0.97], (2, groups, 1))
        kind = trial % 4
        g = int(rng.integers(groups))
        if kind == 1:
            masks[:, g] = False
        elif kind == 2:
            masks[:, g] = True
        elif kind == 3:
            masks[int(rng.integers(2)), g] = False
        yield masks[0], masks[1], h


def test_one_witness_pass_matches_a_pass_per_pair():
    contracts = [
        default_contract(0.04),
        default_contract(0.08, merge_gap=0.05),
        parse_contract_text(NON_ATOM_OBLIGATIONS),
    ]
    for ref, pred, h in _witness_stacks(97, 90):
        for contract in contracts:
            runs, results = _monitor([contract], zip(ref, pred), h, [None] * len(ref))
            values = compile_contract(contract, h).evaluate(runs.atoms)
            witness_pairs = [_route(c, runs)[0] for c in contract.frame_clauses]
            pairs = list(dict.fromkeys([p for p in witness_pairs if p] + list(EDGE_PAIRS)))
            found, _ = runs.witnesses(pairs, values)
            want = {pair: pair_witness(runs, *pair, values) for pair in pairs}
            assert found == want
            for g, result in enumerate(results):
                for clause, coord in zip(contract.clauses, result.guards):
                    pair = _route(clause, runs)[0] if isinstance(clause, FrameClause) else None
                    if pair is not None:
                        assert coord.witness_mean == want[pair][g][0]
                witnesses = result.witnesses
                onset, offset = (want[pair][g] for pair in EDGE_PAIRS)
                assert (witnesses.onset_mae_ms, witnesses.onset_excluded) == onset
                assert (witnesses.offset_mae_ms, witnesses.offset_excluded) == offset


EDGE_ATOM_NAMES = ("ref_active", "pred_active", "ref_onset", "pred_onset", "ref_offset",
                   "pred_offset")


def _counted_contract(rng) -> str:
    """A contract of ``x -> N[r] y @ x`` clauses over random edge atoms,
    x = y included, radii from under a frame step to past every trace."""
    lines = ["set tolerance 0.04"]
    for k in range(6):
        x, y = (EDGE_ATOM_NAMES[i] for i in rng.integers(6, size=2))
        radius = float(rng.choice([0.004, 0.01, 0.02, 0.04, 0.5, 5.0, 40.0]))
        lines.append(f"frame c{k} : {x} -> N[{radius}] {y} @ {x}")
    return "\n".join(lines) + "\n"


def _assert_counted_as_scored(contract, result, ref, pred, h):
    """Every counted coordinate's counts and score are ``frames.score`` of
    its clause on the edge atoms of the one trace pair."""
    runs = _trace_runs(ref[None], pred[None], h, contract.merge_gap)
    env = derive_edge_atoms(ref, pred, h)
    counted = 0
    for clause, coord in zip(contract.clauses, result.guards):
        if isinstance(clause, FrameClause) and _route(clause, runs)[1]:
            counted += 1
            want = frames.score(clause.formula, clause.obligation, env)
            got = (coord.obligated, coord.satisfied, coord.violated, coord.score)
            assert got == (want.obligated, want.satisfied, want.violated, want.score)
    assert counted == len(contract.frame_clauses)


def test_counted_clauses_score_as_the_plan_does(monkeypatch):
    # Stacks of 1-5 groups and 0-300 frames on three steps, 1024/44100
    # included, with groups that have no frames, every frame, or runs on
    # one side only; radii below a step and past every trace.  Monitored,
    # as classes and swept, no routed clause is evaluated by a plan.
    rng = np.random.default_rng(109)
    evaluations = []
    evaluate = frames.EvaluationPlan.evaluate

    def counting(plan, *args, **kwargs):
        evaluations.append(plan)
        return evaluate(plan, *args, **kwargs)

    monkeypatch.setattr(frames.EvaluationPlan, "evaluate", counting)
    checks = []  # (contract, result, ref, pred, h), scored after monitoring
    for trial, (ref, pred, h) in enumerate(_witness_stacks(113, 120)):
        contracts = [default_contract(float(rng.choice([0.005, 0.04, 0.3, 10.0]))),
                     parse_contract_text(_counted_contract(rng))]
        for contract in contracts:
            _, results = _monitor([contract], zip(ref, pred), h, [None] * len(ref))
            classes = monitor_classes(contract, {str(g): pair for g, pair in
                                                 enumerate(zip(ref, pred))}, h)
            for stack in (results, classes.per_class.values()):
                checks += [(contract, result, r, p, h) for result, r, p in zip(stack, ref, pred)]
            if trial % 3 == 0:
                sweep = tolerance_sweep(contract, ref[0], pred[0], h, (0.01, 0.04, 0.08, 2.0, 30.0))
                checks += [(row.contract, row.result, ref[0], pred[0], h) for row in sweep.rows]
    assert evaluations == []
    for check in checks:
        _assert_counted_as_scored(*check)
    # n = 0: every obligation set is empty and scores one.
    empty = np.zeros(0, bool)
    result = monitor(default_contract(0.04), empty, empty, 0.01)
    assert all(c.score == 1.0 and c.obligated == 0 for c in result.guards)
    _assert_counted_as_scored(default_contract(0.04), result, empty, empty, 0.01)


def test_searchsorted_gap_ranges_match_the_overlap_scan():
    for ref, pred, h in _random_masks(101, 150):
        for obligated, witnesses in ((ref, pred), (pred, ref), (ref, ref), (ref, ~pred)):
            got = _nearest_distances(obligated, witnesses, h)
            want = gap_run_distances(_frame_runs(obligated), _frame_runs(witnesses), h)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.tobytes() == want.tobytes()


def test_every_group_soft_boundary_matches_a_scan_per_group():
    for ref, pred, h in _witness_stacks(103, 90):
        runs = _trace_runs(ref, pred, h, 0.0)
        for scale in (0.05, 0.013, 1.0):
            scores = runs.soft_boundary(scale)
            assert scores == [group_soft_boundary(runs, g, scale) for g in range(len(ref))]
            assert scores == [soft_boundary(r, p, h, scale) for r, p in zip(ref, pred)]


def test_add_reduce_over_count_is_np_mean_bit_for_bit():
    # Witness means reduce slices of a larger array at arbitrary offsets.
    rng = np.random.default_rng(107)
    pool = rng.random(20000) * rng.choice([1e-3, 1.0, 1e3], 20000) - 0.2
    for _ in range(600):
        size = int(rng.integers(1, 5001))
        lo = int(rng.integers(0, pool.size - size + 1))
        x = pool[lo:lo + size]
        assert (np.add.reduce(x) / x.size).tobytes() == np.mean(x).tobytes()
        assert float(np.add.reduce(x) / size * 1000.0) == float(np.mean(x) * 1000.0)


def test_row_means_of_a_contiguous_array_are_np_mean_bit_for_bit():
    # ``_macro`` takes every clause's class mean as one row of a (clauses x
    # classes) array; 1-11 classes, as a corpus has.
    rng = np.random.default_rng(109)
    for classes in range(1, 12):
        rows = rng.random((2000, classes)) * rng.choice([1e-3, 1.0, 1e3], (2000, classes)) - 0.2
        rows[rng.random(2000) < 0.2] = 1.0  # vacuous coordinates score one
        got = np.mean(np.array(rows.tolist(), dtype=float), axis=1)
        want = [np.mean(row) for row in rows.tolist()]
        assert got.tobytes() == np.array(want).tobytes()
        witnesses = [row[: int(rng.integers(1, classes + 1))] for row in rows.tolist()[:500]]
        for w in witnesses:
            assert (np.add.reduce(w, dtype=float) / len(w)).tobytes() == np.mean(w).tobytes()


def test_macro_matches_a_mean_per_list():
    rng = random.Random(113)
    contract = default_contract(0.04)
    for _ in range(300):
        results = []
        for _ in range(rng.randint(1, 11)):
            coordinates = tuple(
                GuardCoordinate(
                    clause.name, "frame", rng.choice([1.0, 0.0, rng.random(), 1 / 3]),
                    rng.randint(0, 50), rng.randint(0, 50), rng.randint(0, 50),
                    rng.choice([None, rng.random() * 40.0, float(rng.randint(0, 9))]),
                )
                for clause in contract.clauses
            )
            results.append(SimpleNamespace(guards=GuardVector(coordinates)))
        got, want = _macro(contract, results), loop_macro(contract, results)
        assert got == want
        for a, b in zip(got, want):
            assert type(a.score) is float and a.score.hex() == b.score.hex()
            assert (a.witness_mean is None) == (b.witness_mean is None)
            if a.witness_mean is not None:
                assert type(a.witness_mean) is float
                assert a.witness_mean.hex() == b.witness_mean.hex()


def _runs_mask(n: int, *runs: tuple[int, int]) -> np.ndarray:
    mask = np.zeros(n, bool)
    for start, end in runs:
        mask[start:end] = True
    return mask


def test_gap_indexed_witnesses_at_the_outer_gaps():
    # A frame in gap k takes witness runs k - 1 and k; the outer gaps have one.
    n = 40
    cases = [
        # obligated frames before the first witness run
        (_runs_mask(n, (0, 6), (8, 9), (13, 14)), _runs_mask(n, (12, 15), (20, 22))),
        # obligated frames after the last witness run
        (_runs_mask(n, (10, 12), (30, 40)), _runs_mask(n, (5, 9), (14, 16))),
        # exactly one witness run, with obligated frames on both sides
        (_runs_mask(n, (0, 40)), _runs_mask(n, (17, 19))),
        (_runs_mask(n, (2, 3), (39, 40)), _runs_mask(n, (0, 1))),
        # no witness run
        (_runs_mask(n, (3, 9)), _runs_mask(n)),
        # every obligated frame witnessed
        (_runs_mask(n, (4, 7), (20, 21)), _runs_mask(n, (2, 9), (18, 25))),
    ]
    for h in STEPS:
        for obligated, witnesses in cases:
            _assert_same_distances(obligated, witnesses, h)
    assert _nearest_distances(*cases[4], 0.01) is None
    assert not _nearest_distances(*cases[5], 0.01).any()
    one_run = _nearest_distances(_runs_mask(8, (0, 8)), _runs_mask(8, (3, 5)), 1.0)
    assert one_run.tolist() == [3.0, 2.0, 1.0, 0.0, 0.0, 1.0, 2.0, 3.0]


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


# Names that are keywords, hold operators, quotes or format braces, or equal
# names the generated step function binds.
_ODD_ATOM_NAMES = ("x-1", "for", "a'); import os; ('", 'b"\\', "{0}", "r0", "a1", "t", "deque")


def test_streaming_atom_names_are_read_as_values():
    rng = random.Random(59)
    for trial in range(60):
        h = rng.choice(STEPS)
        atoms = rng.sample(_ODD_ATOM_NAMES, 3)
        for formula in _with_duplicates(rng, h, atoms):
            env = random_env(rng, rng.randint(0, 30), atoms, h)
            rows = _frame_rows(env, ("bool", "numpy", "int")[trial % 3])
            _assert_same_stream(formula, h, rows)
            monitor = StreamingMonitor(formula, h)
            verdicts = [v for row in rows for _, v in monitor.step(row)]
            verdicts += [v for _, v in monitor.finalize()]
            assert verdicts == evaluate(formula, env).tolist()
    for name in _ODD_ATOM_NAMES:
        monitor = StreamingMonitor(And(Atom("present"), Near(Atom(name), 0.04)), 0.02)
        with pytest.raises(UnknownAtomError) as caught:
            monitor.step({"present": True})
        assert caught.value.name == name


def test_streaming_monitors_keep_separate_state():
    # Monitors of one formula, and of an equal formula built apart, share
    # generated code; stepped in turn on their own traces, and finalized
    # while the others still step, each must match its own pump engine.
    rng = random.Random(61)
    for _ in range(80):
        h = rng.choice(STEPS)
        seed, depth = rng.random(), rng.randint(1, 4)
        formula = random_formula(random.Random(seed), depth, h=h)
        twin = random_formula(random.Random(seed), depth, h=h)
        assert twin == formula and twin is not formula
        pairs = [(StreamingMonitor(f, h), NaiveStreamingMonitor(f, h))
                 for f in (formula, formula, twin, Until(formula, twin, 3 * h))]
        traces = [_frame_rows(random_env(rng, rng.randint(0, 30), h=h), "bool") for _ in pairs]
        for t in range(max(map(len, traces)) + 1):
            for (fast, slow), rows in zip(pairs, traces):
                if t < len(rows):
                    assert fast.step(rows[t]) == slow.step(rows[t])
                elif t == len(rows):
                    assert fast.finalize() == slow.finalize()


def _steady_bound(formula, h: float) -> int:
    """The first step at which every update of the formula's monitor runs:
    its lookahead, as no update has a block after its node's emission."""
    return naive_lookahead_frames(formula, h)


# A ``U`` and a window that take in one child; pointwise nodes over children
# of unequal delays, which read the nearer one from its ring; a ``U`` over
# children of unequal delays; ``G`` windows whose right pads ``finalize``
# reads as true.
_SWITCH_FORMULAS = (
    "(a U[0.04] (b & c)) & F[0.02] (b & c)",
    "(a U[0.06] !b) | N[0.02] !b",
    "G[0.06] a",
    "G[0.04] (a | N[0.02] b) -> !G[0.02] c",
    "(b U[0.04] G[0.02] a) U[0.02] (c & G[0.02] a)",
)


def test_streaming_switch_from_warm_up_to_steady_matches_pump_engine():
    # Each monitor runs its guarded warm-up body until its steady bound and
    # one guard-free body after it; streams end from two frames before that
    # bound to two after it, so finalize starts in either body.
    rng = random.Random(67)
    formulas = [(parse_text(text), h) for text in _SWITCH_FORMULAS for h in STEPS]
    for _ in range(150):
        h = rng.choice(STEPS)
        formulas.append((random_formula(rng, rng.randint(1, 4), h=h), h))
    kinds = {type(node) for formula, _ in formulas for node in walk(formula)}
    assert kinds == {Atom, Not, And, Or, Implies, Near, Future, Always, Until}
    for trial, (formula, h) in enumerate(formulas):
        bound = _steady_bound(formula, h)
        for n in range(max(0, bound - 2), bound + 3):
            env = random_env(rng, n, h=h)
            rows = _frame_rows(env, ("bool", "numpy", "int")[trial % 3])
            _assert_same_stream(formula, h, rows)
            monitor = StreamingMonitor(formula, h)
            verdicts = [v for row in rows for _, v in monitor.step(row)]
            verdicts += [v for _, v in monitor.finalize()]
            assert verdicts == evaluate(formula, env).tolist(), (format_formula(formula), h, n)


def _schedule_guards(nodes) -> list[int]:
    """The ``N`` of every ``if t >= N`` among ``nodes`` and their descendants."""
    return [
        node.test.comparators[0].value
        for top in nodes for node in ast.walk(top)
        if isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name) and node.test.left.id == "t"
        and isinstance(node.test.ops[0], ast.GtE)
    ]


def test_streaming_steady_body_has_one_guard_and_rings_only_for_later_reads(monkeypatch):
    # The step function refuses a finalized monitor right after ``t =
    # received``, before it reads an atom; its first ``if t >= bound:`` wraps
    # a body without schedule guards, the bound of the switch test above; a
    # node that no later step reads keeps no ring.
    sources = []
    generate = streaming._kernel_source
    monkeypatch.setattr(streaming, "_kernel_source",
                        lambda *args: sources.append(generate(*args)) or sources[-1])
    rng = random.Random(73)
    formulas = [(parse_text(text), h) for text in _SWITCH_FORMULAS for h in STEPS]
    for kind in ("a", "!a", "a & b", "a | b", "a -> b", "N[0.04] a", "F[0.04] a", "G[0.04] a",
                 "a U[0.04] b"):
        formulas += [(parse_text(kind), h) for h in STEPS]
    for _ in range(200):
        h = rng.choice(STEPS)
        formulas.append((random_formula(rng, rng.randint(0, 4), h=h), h))
    for formula, h in formulas:
        monitor = StreamingMonitor(formula, h)
        tree = ast.parse(sources[-1])
        step = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "step")
        head, refusal, *rest = [node for node in step.body if not isinstance(node, ast.Nonlocal)]
        assert ast.unparse(head) == "t = received"
        assert ast.unparse(refusal) == "if done:\n    raise RuntimeError('monitor is finalized')"
        body = [node for node in rest if not isinstance(node, ast.Try)]
        bound = _steady_bound(formula, h)
        if bound:
            switch = next(node for node in body
                          if isinstance(node, ast.If) and ast.unparse(node.test).startswith("t >= "))
            assert _schedule_guards([switch])[0] == bound
            assert _schedule_guards(switch.body) == []
        else:
            assert _schedule_guards(body) == []
        rings = {name: ring for name, ring in monitor._finish.__globals__.items()
                 if name[0] == "r" and name[1:].isdigit()}
        assert all(len(ring) > 1 for ring in rings.values()), format_formula(formula)
        assert max(map(len, rings.values()), default=1) == monitor._widest


def _kernel_functions(monkeypatch, name: str) -> list[ast.FunctionDef]:
    """The generated function ``name`` of each monitor built from now on."""
    functions = []
    generate = streaming._kernel_source

    def generating(*args):
        source = generate(*args)
        functions.append(next(node for node in ast.walk(ast.parse(source))
                              if isinstance(node, ast.FunctionDef) and node.name == name))
        return source

    monkeypatch.setattr(streaming, "_kernel_source", generating)
    return functions


def test_streaming_finish_reads_only_values_it_makes(monkeypatch):
    # ``finish`` runs on frames past the last one, where no atom and no node
    # of delay 0 makes a value: every value local it reads, it assigns.
    finishes = _kernel_functions(monkeypatch, "finish")
    rng = random.Random(79)
    formulas = [(parse_text(text), h) for text in _SWITCH_FORMULAS for h in STEPS]
    for _ in range(200):
        h = rng.choice(STEPS)
        formulas.append((random_formula(rng, rng.randint(0, 4), h=h), h))
    for formula, h in formulas:
        StreamingMonitor(formula, h)
        values = [node for node in ast.walk(finishes[-1]) if isinstance(node, ast.Name)
                  and node.id[0] == "x" and node.id[1:].isdigit()]
        read = {node.id for node in values if isinstance(node.ctx, ast.Load)}
        made = {node.id for node in values if isinstance(node.ctx, ast.Store)}
        assert read <= made, (format_formula(formula), h)


# Windows over children of delay 0 and above it; ``U`` over children of
# unequal delays, whose frames arrive past the window's right edge ``i + r``.
_WITNESS_TEMPLATES = (
    "N[{}] a", "F[{}] a", "G[{}] a", "a U[{}] b", "a U[{}] a",
    "F[{}] F[{}] a", "G[{}] N[{}] b", "N[{}] G[{}] (a | b)", "G[{}] F[{}] !a",
    "N[{}] (a U[{}] b)", "(N[{}] a) U[{}] b", "a U[{}] F[{}] b",
    "(G[{}] a) U[{}] N[{}] b", "(a U[{}] b) U[{}] G[{}] c",
)


def test_streaming_window_witnesses_match_pump_engine_and_offline():
    # Radii from one frame to past the stream's end, on streams of 0 to
    # three lookaheads, sparse and dense.
    rng = random.Random(83)
    for template in _WITNESS_TEMPLATES:
        for trial in range(12):
            h = rng.choice(STEPS)
            radii = [rng.choice((1, 2, 3, 7, 20)) * h for _ in range(template.count("{}"))]
            formula = parse_text(template.format(*radii))
            lookahead = StreamingMonitor(formula, h).lookahead_frames
            for n in sorted({0, 1, lookahead, 3 * lookahead, rng.randint(0, 3 * lookahead)}):
                env = random_env(rng, n, h=h, density=rng.choice((0.05, 0.5, 0.95)))
                rows = _frame_rows(env, ("bool", "numpy", "int")[trial % 3])
                _assert_same_stream(formula, h, rows)
                monitor = StreamingMonitor(formula, h)
                verdicts = [v for row in rows for _, v in monitor.step(row)]
                verdicts += [v for _, v in monitor.finalize()]
                assert verdicts == evaluate(formula, env).tolist(), (format_formula(formula), h, n)


class _Truth:
    """An atom value whose truth is its own ``__bool__``, counted."""

    def __init__(self, value: bool) -> None:
        self.value = value
        self.calls = 0

    def __bool__(self) -> bool:
        self.calls += 1
        return self.value


class _NoTruth:
    def __bool__(self) -> bool:
        raise ZeroDivisionError("no truth value")


def _atom_value(rng: random.Random, truth: bool):
    kind = rng.randrange(4)
    if kind == 0:
        return int(truth)
    if kind == 1:
        return np.bool_(truth)
    if kind == 2:
        return rng.choice(["x", "0", "False", " "]) if truth else ""
    return _Truth(truth)


def test_streaming_atom_truth_is_the_truth_of_bool():
    # 0/1 ints, numpy bools, strings and objects with their own __bool__ read
    # as bool() reads them, each taken once per frame; an exception from
    # __bool__ is raised as it is.
    rng = random.Random(71)
    for _ in range(120):
        h = rng.choice(STEPS)
        formula = random_formula(rng, rng.randint(0, 4), h=h)
        read = {node.name for node in walk(formula) if isinstance(node, Atom)}
        env = random_env(rng, rng.randint(0, 40), h=h)
        rows = [{name: _atom_value(rng, bool(values[i])) for name, values in env.atoms.items()}
                for i in range(env.frame_count)]
        _assert_same_stream(formula, h, rows)
        calls = [{name: getattr(v, "calls", 0) for name, v in row.items()} for row in rows]
        monitor = StreamingMonitor(formula, h)
        verdicts = [v for row in rows for _, v in monitor.step(row)]
        verdicts += [v for _, v in monitor.finalize()]
        assert verdicts == evaluate(formula, env).tolist()
        for row, before in zip(rows, calls):
            for name, value in row.items():
                if isinstance(value, _Truth):
                    assert value.calls == before[name] + (name in read)
    for text in ("a", "N[0.04] a & b", "b U[0.04] !a"):
        monitor = StreamingMonitor(parse_text(text), 0.02)
        monitor.step({"a": True, "b": False})
        with pytest.raises(ZeroDivisionError, match="no truth value"):
            monitor.step({"a": _NoTruth(), "b": True})
        with pytest.raises(UnknownAtomError) as caught:
            StreamingMonitor(parse_text(text), 0.02).step({"b": True})
        assert caught.value.name == "a"


# ---------------------------------------------------------------------------
# Laws of the finite core, on the plan and on the streaming monitor, with
# radii of exactly k frames.

_LAW_STEPS = (0.01, 0.02, 1024 / 44100)


@st.composite
def _two_atoms(draw):
    n = draw(st.integers(0, 60))
    return {name: np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)
            for name in ("p", "q")}


def _radius(k: int, h: float) -> float:
    radius = k * h
    assert radius_frames(radius, h) == k
    return radius


def _streamed(formula, h: float, atoms) -> list[bool]:
    monitor = StreamingMonitor(formula, h)
    rows = [dict(zip(atoms, values)) for values in zip(*(a.tolist() for a in atoms.values()))]
    verdicts = [v for row in rows for _, v in monitor.step(row)]
    return verdicts + [v for _, v in monitor.finalize()]


@settings(max_examples=200, deadline=None)
@given(_two_atoms(), st.sampled_from(_LAW_STEPS), st.integers(2, 12))
def test_always_is_not_future_not(atoms, h, k):
    r, p = _radius(k, h), Atom("p")
    always, dual = Always(p, r), Not(Future(Not(p), r))
    values = share_subformulas([always, dual], h).evaluate(atoms)
    assert np.array_equal(values[always], values[dual])
    assert _streamed(always, h, atoms) == _streamed(dual, h, atoms) == values[always].tolist()


@settings(max_examples=200, deadline=None)
@given(_two_atoms(), st.sampled_from(_LAW_STEPS), st.integers(2, 12), st.integers(2, 12))
def test_future_and_near_grow_and_always_shrinks_with_the_radius(atoms, h, k, m):
    small, large = _radius(min(k, m), h), _radius(max(k, m), h)
    p = Atom("p")
    pairs = [(cls(p, small), cls(p, large)) for cls in (Future, Near, Always)]
    values = share_subformulas([f for pair in pairs for f in pair], h).evaluate(atoms)
    (f_small, f_large), (n_small, n_large), (g_small, g_large) = (
        (values[a], values[b]) for a, b in pairs
    )
    assert np.all(f_small <= f_large) and np.all(n_small <= n_large)
    assert np.all(g_large <= g_small)


@settings(max_examples=200, deadline=None)
@given(_two_atoms(), st.sampled_from(_LAW_STEPS), st.integers(2, 12))
def test_until_unrolls_by_one_frame(atoms, h, k):
    p, q = Atom("p"), Atom("q")
    until, shorter = Until(p, q, _radius(k, h)), Until(p, q, _radius(k - 1, h))
    values = share_subformulas([until, shorter], h).evaluate(atoms)
    later = np.append(values[shorter][1:], False)  # false past the last frame
    assert np.array_equal(values[until], atoms["q"] | (atoms["p"] & later))


# ---------------------------------------------------------------------------
# The window fragment embeds in continuous time after grid projection: a
# formula over piecewise-constant signals, evaluated on half-open interval
# sets with exact endpoints (Maler & Nickovic, FORMATS 2004), and sampled at
# the grid points, is the frame valuation.

# Each law step as the exact rational it stands for.
_EXACT_STEPS = {0.01: Fraction("0.01"), 0.02: Fraction("0.02"), 1024 / 44100: Fraction(1024, 44100)}

# Radii of at most four decimals, 0.1 ms to 150 ms.  At each law step their
# exact quotient is a whole number of frames or more than 1e-6 frames from
# one, so float division, less the grid tolerance, rounds it up as exact
# arithmetic does.
_FOUR_DECIMAL_RADII = st.integers(1, 1500).map(lambda k: float(f"{k / 10000:.4f}"))


def _window_formulas():
    """Formulas over ``p`` and ``q`` of ``!``, ``&``, ``|``, ``->``, ``F``,
    ``N``, ``G`` and ``U``."""
    def grow(kids):
        binary = st.tuples(st.sampled_from((And, Or, Implies)), kids, kids)
        window = st.tuples(st.sampled_from((Future, Near, Always)), kids, _FOUR_DECIMAL_RADII)
        until = st.tuples(kids, kids, _FOUR_DECIMAL_RADII)
        return st.one_of(kids.map(Not), binary.map(lambda t: t[0](t[1], t[2])),
                         window.map(lambda t: t[0](t[1], t[2])), until.map(lambda t: Until(*t)))

    return st.recursive(st.sampled_from((Atom("p"), Atom("q"))), grow, max_leaves=6)


def _interval_oracle(formula, atoms: dict[str, np.ndarray], h: float) -> list[bool]:
    """The formula's truth at each grid point ``i * step`` of ``[0, n * step)``,
    from its satisfaction set as sorted disjoint half-open intervals with
    ``Fraction`` endpoints, restricted to ``[0, n * step)``.  Frame i's value
    holds on ``[i * step, (i + 1) * step)``.  A radius r projects to
    ``R = max(1, ceil(r / step)) * step``, from its decimal text; it must
    be ``radius_frames(r, h)`` frames.  ``F[R]`` is the union of
    ``[a - R, b)`` over the child's intervals ``[a, b)``, ``N[R]`` that of
    ``[a - R, b + R)``, and ``G[R] p`` is ``!F[R] !p``.  ``p U[R] q`` holds
    at t when q holds at some t' in ``[t, t + R]`` and p on ``[t, t')``:
    that is q's intervals, and ``[max(a, c - R), c)`` for each maximal
    interval ``[a, b)`` of p and each interval of q that starts at c in
    ``[a, b]``."""
    step = _EXACT_STEPS[h]
    n = len(atoms["p"])
    end = n * step

    def union(spans):
        out = []
        for a, b in sorted((max(a, 0), min(b, end)) for a, b in spans):
            if a >= b:
                continue
            if out and a <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], b))
            else:
                out.append((a, b))
        return out

    def complement(spans):
        edges = [Fraction(0), *(x for span in spans for x in span), end]
        return union(zip(edges[0::2], edges[1::2]))

    def holds(f):
        if isinstance(f, Atom):
            return union((i * step, (i + 1) * step) for i in np.flatnonzero(atoms[f.name]).tolist())
        if isinstance(f, Not):
            return complement(holds(f.child))
        if isinstance(f, (And, Or, Implies)):
            left, right = holds(f.left), holds(f.right)
            if isinstance(f, And):
                return complement(union(complement(left) + complement(right)))
            return union((complement(left) if isinstance(f, Implies) else left) + right)
        frames = max(1, math.ceil(Fraction(repr(f.radius)) / step))
        assert radius_frames(f.radius, h) == frames, (f.radius, h)
        R = frames * step
        if isinstance(f, Always):
            return complement(union((a - R, b) for a, b in complement(holds(f.child))))
        if isinstance(f, Until):
            left, right = holds(f.left), holds(f.right)
            return union(right + [(max(a, c - R), c) for a, b in left for c, _ in right
                                  if a <= c <= b])
        return union((a - R, b + (R if isinstance(f, Near) else 0)) for a, b in holds(f.child))

    spans = holds(formula)
    return [any(a <= i * step < b for a, b in spans) for i in range(n)]


# 0.07 s over 0.01 s is 7.000000000000001 in floats: without the grid
# tolerance it would project to 8 frames, and F would see frame 8.
_SEVENTH = {"p": np.arange(12) == 8, "q": np.zeros(12, bool)}
_SEVENTH_UNTIL = {"p": np.arange(12) < 8, "q": np.arange(12) == 8}


@settings(max_examples=200, deadline=None)
@given(_two_atoms(), st.sampled_from(_LAW_STEPS), _window_formulas())
@example(_SEVENTH, 0.01, Future(Atom("p"), 0.07))
@example(_SEVENTH, 0.01, Always(Not(Atom("p")), 0.07))
@example(_SEVENTH_UNTIL, 0.01, Until(Atom("p"), Atom("q"), 0.07))
def test_the_window_fragment_is_its_interval_semantics_on_the_grid(atoms, h, formula):
    want = _interval_oracle(formula, atoms, h)
    assert share_subformulas([formula], h).evaluate(atoms)[formula].tolist() == want
    assert naive_evaluate(formula, TraceEnvironment(h, len(want), atoms)) == want
    stream = StreamingMonitor(formula, h)
    verdicts = [v for t in range(len(want)) for v in stream.step(
        {name: bool(mask[t]) for name, mask in atoms.items()}
    )] + stream.finalize()
    assert verdicts == list(enumerate(want))


# ---------------------------------------------------------------------------
# The operator-table parser and renderer against recursive descent.

_PARSER_VOCABULARY = ["a", "b", "!", "&", "|", "->", "(", ")", "N[0.04]", "U[0.04]"]
_RANDOM_VOCABULARY = _PARSER_VOCABULARY + [
    "3", "0.5", "[", "]", "N", "F", "G", "U", "F[0.1]", "G[2]", "N[0]", "U[0.0]", "G[0.000]",
    "a1", "$",
]


def _parse_outcome(parse, source):
    try:
        return parse(source)
    except (ParseError, LexError) as error:
        return error


def _assert_same_parse(source):
    got, want = _parse_outcome(parse_text, source), _parse_outcome(naive_parse, source)
    assert type(got) is type(want), source
    if isinstance(want, ParseError):
        assert (got.expected, got.found, got.span, str(got)) == (
            want.expected, want.found, want.span, str(want)
        ), source
    elif isinstance(want, LexError):
        assert (got.message, got.span) == (want.message, want.span), source
    else:
        assert got == want and repr(got) == repr(want), source
        assert [node.span for node in walk(got)] == [node.span for node in walk(want)], source
        assert format_formula(got) == naive_format(want), source
    return want


def test_parser_matches_recursive_descent_on_short_token_strings():
    outcomes = set()
    for length in range(5):
        for combo in itertools.product(_PARSER_VOCABULARY, repeat=length):
            outcomes.add(type(_assert_same_parse(" ".join(combo))))
    assert outcomes == {ParseError, Atom, Not, And, Or, Implies, Near, Until}


def test_parser_matches_recursive_descent_on_random_strings():
    # Digits, stray brackets, radius-less temporals and zero radii, joined
    # with and without spaces so that brackets and digits also meet names.
    rng = random.Random(61)
    outcomes = set()
    for _ in range(20000):
        words = rng.choices(_RANDOM_VOCABULARY, k=rng.randint(1, 9))
        source = rng.choice((" ", "")).join(words)
        outcomes.add(type(_assert_same_parse(source)))
    assert {ParseError, LexError, Until, Implies} <= outcomes


def test_renderer_matches_per_class_arms():
    rng = random.Random(67)
    formulas = enumerate_formulas(2) + [random_formula(rng, rng.randint(0, 6)) for _ in range(3000)]
    for formula in formulas:
        text = format_formula(formula)
        assert text == naive_format(formula)
        _assert_same_parse(text)


# ---------------------------------------------------------------------------
# The identifier pattern against the per-character scanner.

# Non-ASCII letters and digits (Latin, Greek, Arabic-Indic, superscript,
# Roman numeral, Kelvin sign, dotless i, long s), which the lexer refuses.
_NON_ASCII = ["\u00e9", "\u00df", "\u03a9", "\u0663", "\u00b2", "\u216b", "\u212a", "\u0131", "\u017f"]
_LEXER_CHARACTERS = list("aZ_09.x[]()!&|->: \t$") + _NON_ASCII


def _lex_outcome(scan, source):
    try:
        return scan(source)
    except LexError as error:
        return error


def _assert_same_tokens(source):
    got, want = _lex_outcome(tokenize, source), _lex_outcome(naive_tokenize, source)
    assert type(got) is type(want), source
    if isinstance(want, LexError):
        assert (got.message, got.span, str(got)) == (want.message, want.span, str(want)), source
    else:
        assert got == want, source
    return want


def test_lexer_matches_character_scan_on_parser_vocabulary():
    for length in range(4):
        for combo in itertools.product(_RANDOM_VOCABULARY, repeat=length):
            _assert_same_tokens(" ".join(combo))
            _assert_same_tokens("".join(combo))


def test_lexer_matches_character_scan_on_random_strings():
    rng = random.Random(71)
    outcomes = set()
    for _ in range(20000):
        source = "".join(rng.choices(_LEXER_CHARACTERS, k=rng.randint(0, 12)))
        outcome = _assert_same_tokens(source)
        outcomes.add("error" if isinstance(outcome, LexError) else "tokens")
    assert outcomes == {"error", "tokens"}
    for letter in _NON_ASCII:
        error = _assert_same_tokens(f"ab{letter}c")
        assert isinstance(error, LexError) and error.span.start == 2


def test_lexer_matches_character_scan_on_every_short_radius():
    # Every string of up to five radius characters after a temporal name
    # (attached radii) and after an identifier (stray brackets and numbers).
    outcomes = set()
    count = 0
    for head in ("N", "U", "a "):
        for length in range(6):
            for combo in itertools.product("[]0.x5 ", repeat=length):
                outcome = _assert_same_tokens(head + "".join(combo))
                outcomes.add(outcome.message if isinstance(outcome, LexError) else "tokens")
                count += 1
    assert count == 58824
    assert outcomes == {
        "tokens",
        "unterminated radius bracket",
        "malformed decimal literal",
        "undeclared character '.'",
    }


def test_lexer_matches_character_scan_on_fixture_contract_lines():
    texts = (default_contract_text(0.04), ALL_PREDICATES, MIXED_CONTRACT, PURITY_CONTRACT)
    for line in "".join(texts).splitlines():
        _assert_same_tokens(line)
        if ":" in line:
            formula, _, obligation = line.split(":", 1)[1].partition("@")
            assert not isinstance(_assert_same_tokens(formula), LexError), line
            _assert_same_tokens(obligation)


# ---------------------------------------------------------------------------
# Trace rasterization and the pathology run-move table against one slice per
# event and one arm per pathology kind


def _array_outcome(call):
    """dtype, shape and bytes of a call's array, or the type and text of
    what it raised."""
    try:
        got = call()
    except Exception as error:
        return type(error), str(error)
    return got.dtype, got.shape, got.tobytes()


def test_pathologies_match_per_kind_arms():
    rng = random.Random(37)
    outcomes = set()
    for _ in range(250):
        n = rng.randint(0, 200)
        h = rng.choice((0.01, 0.02, 0.04))
        if rng.random() < 0.5:
            mask = _event_mask(rng, n)
        else:
            density = rng.random()
            mask = np.array([rng.random() < density for _ in range(n)], dtype=bool)
        magnitudes = (
            rng.randint(1, 12) * h,  # on the grid
            rng.uniform(0.001, 0.5),  # almost surely off it
            None,
            0,
            -rng.randint(1, 5) * h,
            rng.randint(0, 5),  # a count, in frames or seconds
        )
        for kind in PATHOLOGY_KINDS:
            for magnitude in magnitudes:
                pathology = TracePathology(kind, magnitude)
                got = _array_outcome(lambda: apply_pathology(mask, pathology, h))
                want = _array_outcome(lambda: naive_apply_pathology(mask, pathology, h))
                assert got == want, (kind, magnitude, h, mask.tobytes())
                outcomes.add(got[0])
    assert outcomes == {np.dtype(bool), ValueError}


def test_make_trace_matches_one_slice_per_event():
    rng = random.Random(41)
    outcomes = set()
    for _ in range(5000):
        n = rng.randint(0, 300)
        h = rng.choice(STEPS)
        events = []
        for _ in range(rng.randint(0, 6)):
            start = rng.uniform(-0.1, n * h + 0.1)
            end = start + rng.uniform(-0.05, 2.0)
            if rng.random() < 0.5:
                start, end = round(start / h) * h, round(end / h) * h
            events.append((start, end))
        got = _array_outcome(lambda: make_trace(events, n, h))
        assert got == _array_outcome(lambda: naive_make_trace(events, n, h)), (events, n, h)
        outcomes.add(got[0])
    assert outcomes == {np.dtype(bool), ValueError}
