"""Interval extraction, candidate costs, and matching policies."""

import gc
import random

import numpy as np
import pytest

from tracecontracts import intervals
from tracecontracts.fixtures import make_trace
from tracecontracts.intervals import (
    AuditBoundError,
    Interval,
    Matching,
    boundary_f1,
    candidate_table,
    candidates,
    covering_counts,
    extract_intervals,
    match_exact,
    match_greedy,
    matcher_audit,
)

from gen import (
    brute_force_optimum,
    matched_preds,
    matched_refs,
    matching_cost,
    pair_table,
    table_pairs,
)

NO_CANDIDATES = candidates((), (), 0.04)


class TestExtraction:
    def test_basic_runs(self):
        out = extract_intervals([0, 1, 1, 0, 1, 0], 0.02, 0.0)
        assert out == (Interval(0.02, 0.06), Interval(0.08, 0.10))

    def test_merge_gap_combines_short_silence(self):
        out = extract_intervals([0, 1, 1, 0, 1, 0], 0.02, 0.02)
        assert out == (Interval(0.02, 0.10),)
        # reference scan: the 1-frame gap (0.02 s) is within the merge gap
        assert extract_intervals([0, 1, 1, 0, 0, 1], 0.02, 0.02) == (
            Interval(0.02, 0.06),
            Interval(0.10, 0.12),
        )

    def test_all_zero(self):
        assert extract_intervals([0, 0, 0], 0.02) == ()

    @pytest.mark.parametrize(
        "mask", [[0, 2, float("nan"), 0, 1], [0, 2, 0, 1], [0, -1, 1], [float("nan"), 1]]
    )
    def test_non_binary_mask_rejected(self, mask):
        with pytest.raises(ValueError, match="0/1"):
            extract_intervals(mask, 0.01)

    @pytest.mark.parametrize("h", [float("inf"), float("nan"), 0.0, -0.01])
    def test_frame_step_must_be_finite_and_positive(self, h):
        with pytest.raises(ValueError, match="frame step"):
            extract_intervals([0, 1, 1, 0], h)

    @pytest.mark.parametrize("gap", [float("nan"), float("inf"), -0.02])
    @pytest.mark.parametrize("extract", [intervals.intervals, extract_intervals])
    def test_merge_gap_must_be_nonnegative_and_finite(self, extract, gap):
        with pytest.raises(ValueError, match="merge gap must be nonnegative and finite"):
            extract([0, 1, 0, 1], 0.02, gap)

    def test_run_to_the_end(self):
        assert extract_intervals([0, 1, 1], 0.02) == (Interval(0.02, 0.06),)

    def test_half_open_discipline(self):
        # adjacent extracted intervals never share an endpoint frame
        rng = random.Random(4)
        for _ in range(100):
            mask = [rng.random() < 0.5 for _ in range(rng.randint(0, 50))]
            intervals = extract_intervals(mask, 0.02)
            for first, second in zip(intervals, intervals[1:]):
                assert second.start - first.end >= 0.02 - 1e-9

    def test_rasterize_inverse(self):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randint(0, 60)
            mask = np.array([rng.random() < 0.4 for _ in range(n)], dtype=bool)
            intervals = extract_intervals(mask, 0.02)
            rebuilt = make_trace(intervals, n, 0.02)
            assert (rebuilt == mask).all()


class TestCandidates:
    def test_worked_pair_cost(self):
        ref = Interval(1.0, 2.0)
        pred = Interval(1.06, 2.4)
        # arithmetic oracle straight from the endpoints
        expected = abs(1.0 - 1.06) + abs(2.0 - 2.4) - 0.94
        (cost,) = candidates([ref], [pred], 0.04).cost.tolist()
        assert cost == pytest.approx(expected)
        assert cost == pytest.approx(-0.48)

    def test_disjoint_intervals_are_not_candidates(self):
        assert len(candidates([Interval(0.0, 1.0)], [Interval(1.0, 2.0)], 0.04)) == 0

    def test_identical_intervals_cost_is_negative_length(self):
        (cost,) = candidates([Interval(0.5, 1.3)], [Interval(0.5, 1.3)], 0.04).cost.tolist()
        assert cost == pytest.approx(-0.8)

    def test_candidates_is_the_table_path(self):
        assert candidates is candidate_table
        table = candidates([Interval(0.0, 1.0), Interval(2.0, 3.0)],
                           [Interval(0.02, 1.0), Interval(2.0, 2.9), Interval(2.5, 3.5)], 0.04)
        assert len(table) == table.cost.size == 2
        assert table.ref_index.tolist() == [0, 1] and table.pred_index.tolist() == [0, 1]

    def test_endpoint_window_is_three_tolerances(self):
        ref = [Interval(1.0, 2.0)]
        near = [Interval(1.11, 3.0)]  # onset diff 0.11 <= 0.12
        far = [Interval(1.13, 3.0)]   # both endpoint diffs exceed 0.12
        assert len(candidates(ref, near, 0.04)) == 1
        assert len(candidates(ref, far, 0.04)) == 0

    def test_overlap_of_touching_intervals_is_zero(self):
        assert covering_counts([Interval(0.0, 1.0)], [Interval(1.0, 2.0)]) == (0,)
        assert covering_counts([Interval(0.0, 1.0)], [Interval(0.99, 2.0)]) == (1,)


class TestGreedy:
    def test_separated_case_matches_both(self):
        refs = [Interval(1.0, 1.5), Interval(2.0, 2.5)]
        preds = [Interval(1.02, 1.52), Interval(2.02, 2.52)]
        matching = match_greedy(candidates(refs, preds, 0.04))
        assert matching.pairs == {(0, 0), (1, 1)}

    def test_empty_candidates(self):
        assert match_greedy(NO_CANDIDATES).pairs == frozenset()

    def test_input_order_never_changes_the_result(self):
        rng = random.Random(12)
        for _ in range(100):
            refs = _random_intervals(rng, 4)
            preds = _random_intervals(rng, 4)
            cands = list(table_pairs(candidates(refs, preds, 0.08)))
            baseline = match_greedy(pair_table(cands))
            for _ in range(3):
                rng.shuffle(cands)
                assert match_greedy(pair_table(cands)).pairs == baseline.pairs


def _random_intervals(rng, max_count):
    cursor = 0.0
    out = []
    for _ in range(rng.randint(0, max_count)):
        cursor += rng.randint(1, 6) * 0.02
        start = cursor
        cursor += rng.randint(1, 10) * 0.02
        out.append(Interval(start, cursor))
    return out


class TestMatchingValue:
    """A matching holds its kept index arrays; its pair set is built on first read."""

    REFS = (Interval(0.0, 1.0), Interval(1.0, 2.0), Interval(3.0, 4.0))
    PREDS = (Interval(0.5, 1.5), Interval(1.05, 2.0), Interval(3.02, 4.0))

    def test_value_does_not_depend_on_reading_the_pairs(self):
        table = candidates(self.REFS, self.PREDS, 0.2)
        for match in (match_greedy, match_exact):
            unread, read = match(table), match(table)
            assert len(unread) == 3
            ri, pi = unread.index_arrays
            assert (ri.tolist(), pi.tolist()) == ([0, 1, 2], [0, 1, 2])
            assert "pairs" not in vars(unread)  # len() and index_arrays build no set
            assert read.pairs == {(0, 0), (1, 1), (2, 2)}
            assert unread == read and hash(unread) == hash(read)
            assert repr(unread) == repr(read) and len(unread) == len(read)
            assert hash(read) == hash((read.pairs, read.policy))
            assert repr(read) == f"Matching(pairs={read.pairs!r}, policy={read.policy!r})"
        assert match_greedy(table) != match_exact(table)  # the policy is part of the value

    def test_pairs_fill_in_kept_order(self):
        # Greedy fills a set first, exact a frozenset directly: each fixes its
        # frozenset's iteration order, and so its repr.
        kept = [(k, (7 * k) % 11) for k in (4, 0, 9, 2, 7)]
        ri, pi = map(np.array, zip(*kept))
        assert repr(Matching(ri, pi, "greedy").pairs) == repr(frozenset(set(kept)))
        assert repr(Matching(ri, pi, "exact").pairs) == repr(frozenset(kept))


class TestExact:
    def test_single_candidate(self):
        refs = [Interval(1.0, 1.5)]
        preds = [Interval(1.02, 1.48)]
        matching = match_exact(candidates(refs, preds, 0.04))
        assert matching.pairs == {(0, 0)}

    def test_optimal_on_random_small_instances(self):
        rng = random.Random(21)
        checked = 0
        for _ in range(300):
            refs = _random_intervals(rng, 4)
            preds = _random_intervals(rng, 4)
            table = candidates(refs, preds, 0.1)
            if not table:
                continue
            checked += 1
            pairs = table_pairs(table)
            best_count, best_cost = brute_force_optimum(pairs)
            exact = match_exact(table)
            assert len(exact) == best_count
            assert matching_cost(pairs, exact) == pytest.approx(best_cost)
        assert checked > 100

    def test_bound_enforced(self):
        refs = [Interval(i * 1.0, i * 1.0 + 0.5) for i in range(30)]
        preds = [Interval(i * 1.0 + 0.02, i * 1.0 + 0.5) for i in range(30)]
        with pytest.raises(AuditBoundError):
            match_exact(candidates(refs, preds, 0.04), bound=24)


class TestBoundaryF1:
    def test_perfect_families(self):
        refs = [Interval(0.0, 1.0)]
        matching = match_greedy(candidates(refs, refs, 0.04))
        assert boundary_f1(refs, refs, matching) == 1.0

    def test_empty_both_sides(self):
        assert boundary_f1((), (), match_greedy(NO_CANDIDATES)) == 1.0

    def test_one_side_empty(self):
        assert boundary_f1([Interval(0.0, 1.0)], (), match_greedy(NO_CANDIDATES)) == 0.0
        assert boundary_f1((), [Interval(0.0, 1.0)], match_greedy(NO_CANDIDATES)) == 0.0


class TestEventScores:
    """The audit's duration and fragmentation scores, under both policies."""

    def test_duration_threshold(self):
        # The audit's threshold is twice its tolerance.
        refs = (Interval(0.0, 1.0),)
        preds = (Interval(0.0, 1.3),)
        for epsilon, score in ((0.2, 1.0), (0.1, 0.0)):
            audit = matcher_audit(refs, preds, epsilon)
            assert audit.greedy_duration.score == audit.exact_duration.score == score

    def test_duration_vacuous_when_nothing_matched(self):
        audit = matcher_audit((), (), 0.1)
        for value in (audit.greedy_duration, audit.exact_duration):
            assert value.score == 1.0 and value.obligated == 0

    def test_fragmentation_requires_match_and_single_cover(self):
        refs = (Interval(0.0, 1.0),)
        preds = (Interval(0.0, 0.4), Interval(0.5, 1.0))
        audit = matcher_audit(refs, preds, 0.1)
        assert len(audit.greedy) == len(audit.exact) == 1
        # matched but covered by two predictions
        assert audit.greedy_fragmentation.score == audit.exact_fragmentation.score == 0.0

    def test_partition_identity_for_event_scores(self):
        refs = (Interval(0.0, 1.0), Interval(2.0, 2.5))
        preds = (Interval(0.0, 1.0),)
        audit = matcher_audit(refs, preds, 0.1)
        for value in (
            audit.greedy_duration,
            audit.exact_duration,
            audit.greedy_fragmentation,
            audit.exact_fragmentation,
        ):
            assert value.satisfied + value.violated == value.obligated


class TestMatcherAudit:
    def test_identical_families_have_no_deltas(self):
        refs = (Interval(1.0, 1.5), Interval(2.0, 2.2))
        audit = matcher_audit(refs, refs, 0.08)
        assert not audit.changed
        assert audit.boundary_f1_delta == 0.0
        assert audit.duration_delta == 0.0
        assert audit.fragmentation_delta == 0.0

    def test_an_instance_over_the_bound_stops_before_the_greedy_matching(self, monkeypatch):
        # Its exact half raises first; the error holds no frame in a cycle.
        scans = []
        real = intervals._greedy_scan
        monkeypatch.setattr(intervals, "_greedy_scan", lambda *a: scans.append(1) or real(*a))
        runs = tuple(Interval(k, k + 0.5) for k in range(3))
        assert len(matcher_audit(runs, runs, 0.08, bound=3).exact) == 3
        assert len(scans) == 1
        gc.collect()
        gc.disable()
        try:
            with pytest.raises(AuditBoundError, match=r"^instance has 3x3 intervals, bound is 2$"):
                matcher_audit(runs, runs, 0.08, bound=2)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(scans) == 1

    def test_policies_always_return_candidate_subsets(self):
        rng = random.Random(55)
        for _ in range(100):
            refs = _random_intervals(rng, 4)
            preds = _random_intervals(rng, 4)
            cands = candidates(refs, preds, 0.1)
            allowed = set(zip(cands.ref_index.tolist(), cands.pred_index.tolist()))
            for matching in (match_greedy(cands), match_exact(cands)):
                assert matching.pairs <= allowed
                assert len(matched_refs(matching)) == len(matching.pairs)
                assert len(matched_preds(matching)) == len(matching.pairs)
