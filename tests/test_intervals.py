"""Interval extraction, candidate costs, and matching policies."""

import random

import numpy as np
import pytest

from tracecontracts.fixtures import make_trace
from tracecontracts.intervals import (
    AuditBoundError,
    Interval,
    boundary_f1,
    candidates,
    duration_score,
    extract_intervals,
    fragmentation_score,
    match_exact,
    match_greedy,
    matcher_audit,
    overlap_length,
)

from gen import brute_force_optimum, matching_cost


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
        (pair,) = candidates([ref], [pred], 0.04)
        assert pair.cost == pytest.approx(expected)
        assert pair.cost == pytest.approx(-0.48)

    def test_disjoint_intervals_are_not_candidates(self):
        assert candidates([Interval(0.0, 1.0)], [Interval(1.0, 2.0)], 0.04) == ()

    def test_identical_intervals_cost_is_negative_length(self):
        (pair,) = candidates([Interval(0.5, 1.3)], [Interval(0.5, 1.3)], 0.04)
        assert pair.cost == pytest.approx(-0.8)

    def test_endpoint_window_is_three_tolerances(self):
        ref = [Interval(1.0, 2.0)]
        near = [Interval(1.11, 3.0)]  # onset diff 0.11 <= 0.12
        far = [Interval(1.13, 3.0)]   # both endpoint diffs exceed 0.12
        assert len(candidates(ref, near, 0.04)) == 1
        assert candidates(ref, far, 0.04) == ()

    def test_overlap_of_touching_intervals_is_zero(self):
        assert overlap_length(Interval(0.0, 1.0), Interval(1.0, 2.0)) == 0.0


class TestGreedy:
    def test_separated_case_matches_both(self):
        refs = [Interval(1.0, 1.5), Interval(2.0, 2.5)]
        preds = [Interval(1.02, 1.52), Interval(2.02, 2.52)]
        matching = match_greedy(candidates(refs, preds, 0.04))
        assert matching.pairs == {(0, 0), (1, 1)}

    def test_empty_candidates(self):
        assert match_greedy(()).pairs == frozenset()

    def test_input_order_never_changes_the_result(self):
        rng = random.Random(12)
        for _ in range(100):
            refs = _random_intervals(rng, 4)
            preds = _random_intervals(rng, 4)
            cands = list(candidates(refs, preds, 0.08))
            baseline = match_greedy(cands)
            for _ in range(3):
                rng.shuffle(cands)
                assert match_greedy(cands).pairs == baseline.pairs


def _random_intervals(rng, max_count):
    cursor = 0.0
    out = []
    for _ in range(rng.randint(0, max_count)):
        cursor += rng.randint(1, 6) * 0.02
        start = cursor
        cursor += rng.randint(1, 10) * 0.02
        out.append(Interval(start, cursor))
    return out


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
            cands = candidates(refs, preds, 0.1)
            if not cands:
                continue
            checked += 1
            best_count, best_cost = brute_force_optimum(cands)
            exact = match_exact(cands)
            assert len(exact) == best_count
            assert matching_cost(cands, exact) == pytest.approx(best_cost)
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
        assert boundary_f1((), (), match_greedy(())) == 1.0

    def test_one_side_empty(self):
        assert boundary_f1([Interval(0.0, 1.0)], (), match_greedy(())) == 0.0
        assert boundary_f1((), [Interval(0.0, 1.0)], match_greedy(())) == 0.0


class TestEventScores:
    def test_duration_threshold(self):
        refs = (Interval(0.0, 1.0),)
        preds = (Interval(0.0, 1.3),)
        matching = match_greedy(candidates(refs, preds, 0.1))
        assert duration_score(refs, preds, matching, 0.4).score == 1.0
        assert duration_score(refs, preds, matching, 0.2).score == 0.0

    def test_duration_vacuous_when_nothing_matched(self):
        value = duration_score((), (), match_greedy(()), 0.1)
        assert value.score == 1.0 and value.obligated == 0

    def test_fragmentation_requires_match_and_single_cover(self):
        refs = (Interval(0.0, 1.0),)
        preds = (Interval(0.0, 0.4), Interval(0.5, 1.0))
        matching = match_greedy(candidates(refs, preds, 0.1))
        value = fragmentation_score(refs, preds, matching)
        assert value.score == 0.0  # matched but covered by two predictions

    def test_partition_identity_for_event_scores(self):
        refs = (Interval(0.0, 1.0), Interval(2.0, 2.5))
        preds = (Interval(0.0, 1.0),)
        matching = match_greedy(candidates(refs, preds, 0.1))
        for value in (
            duration_score(refs, preds, matching, 0.1),
            fragmentation_score(refs, preds, matching),
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

    def test_policies_always_return_candidate_subsets(self):
        rng = random.Random(55)
        for _ in range(100):
            refs = _random_intervals(rng, 4)
            preds = _random_intervals(rng, 4)
            cands = candidates(refs, preds, 0.1)
            allowed = {(c.ref_index, c.pred_index) for c in cands}
            for matching in (match_greedy(cands), match_exact(cands)):
                assert matching.pairs <= allowed
                assert len(matching.matched_refs) == len(matching.pairs)
                assert len(matching.matched_preds) == len(matching.pairs)
