"""Contract engine: default guards, monitoring, sweeps, soft scores, files."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings

from tracecontracts import contracts, frames, lexer, parser
from tracecontracts.contracts import (
    Contract,
    ContractError,
    ContractSyntaxError,
    EventClause,
    FrameClause,
    compile_contract,
    contract_to_text,
    default_contract,
    default_contract_text,
    latency_score,
    load_contract,
    mean_logic,
    monitor,
    monitor_classes,
    parse_contract_text,
    purity_score,
    retolerance,
    soft_boundary,
    tolerance_sweep,
)
from tracecontracts.fixtures import (
    TracePathology,
    apply_pathology,
    fragmented_trace,
    make_trace,
    worked_trace,
)
from tracecontracts.frames import derive_edge_atoms, radius_frames
from tracecontracts.intervals import Interval, extract_intervals
from tracecontracts.parser import format_formula, parse_text

from gen import (
    ALL_PREDICATES,
    contract_mutations,
    random_formula,
    random_mask,
    table_contracts,
)


class TestDefaultContract:
    def test_guard_order_and_formulas(self):
        contract = default_contract(0.04)
        assert [c.name for c in contract.clauses] == [
            "onset_guard",
            "offset_guard",
            "missing_guard",
            "spurious_guard",
            "silence_guard",
            "duration_guard",
            "fragmentation_guard",
        ]
        onset = contract.clauses[0]
        assert format_formula(onset.formula) == "ref_onset -> N[0.04] pred_onset"
        assert format_formula(onset.obligation) == "ref_onset"

    def test_silence_guard_obligation_and_radius(self):
        contract = default_contract(0.04)
        silence = contract.clauses[4]
        assert format_formula(silence.obligation) == "pred_active"
        assert format_formula(silence.formula) == "pred_active -> N[0.02] ref_active"
        assert contract.silence_radius == pytest.approx(0.02)

    def test_validation(self):
        with pytest.raises(ContractError):
            default_contract(0.04, silence_radius=0.08)  # larger than tolerance
        with pytest.raises(ContractError):
            Contract(0.04, 0.02, 0.0, "weird", ())
        with pytest.raises(ContractError):
            Contract(
                0.04,
                0.02,
                0.0,
                "greedy",
                (
                    EventClause("dup", "matched_pairs", "duration_within"),
                    EventClause("dup", "reference_intervals", "singly_covered"),
                ),
            )


class TestMonitorWorkedTrace:
    def test_verdicts_match_the_reading(self):
        ref, pred, h = worked_trace()
        at_60 = monitor(default_contract(0.06), ref, pred, h)
        at_80 = monitor(default_contract(0.08), ref, pred, h)
        assert at_60.guards.get("onset_guard").score == 1.0
        assert at_80.guards.get("offset_guard").score == 0.0
        assert at_60.guards.get("duration_guard").score == 0.0
        assert at_80.guards.get("duration_guard").score == 0.0
        assert at_80.guards.get("silence_guard").score < 1.0
        assert at_80.guards.get("spurious_guard").score < 1.0
        assert at_80.guards.get("missing_guard").score == 1.0

    def test_edge_witnesses(self):
        ref, pred, h = worked_trace()
        result = monitor(default_contract(0.08), ref, pred, h)
        assert result.witnesses.onset_mae_ms == pytest.approx(60.0)
        assert result.witnesses.offset_mae_ms == pytest.approx(400.0)
        assert result.witnesses.duration_abs_diffs == (pytest.approx(0.34),)
        assert result.guards.get("onset_guard").witness_mean == pytest.approx(60.0)

    def test_identical_masks_are_perfect(self):
        ref, _, h = worked_trace()
        result = monitor(default_contract(0.04), ref, ref, h)
        assert result.guards.scores == (1.0,) * 7
        assert result.witnesses.onset_mae_ms == pytest.approx(0.0)
        assert result.witnesses.fragmentation_extra_counts == (0,)

    def test_fragmented_prediction_fails_fragmentation_guard(self):
        ref, pred, h = fragmented_trace()
        result = monitor(default_contract(0.04), ref, pred, h)
        assert result.guards.get("fragmentation_guard").score < 1.0
        assert result.witnesses.fragmentation_extra_counts[0] >= 2

    def test_empty_traces_score_vacuously_one(self):
        result = monitor(default_contract(0.04), [], [], 0.02)
        assert result.guards.scores == (1.0,) * 7

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            monitor(default_contract(0.04), [0, 1], [0, 1, 1], 0.02)

    def test_partition_identity_for_every_coordinate(self):
        rng = random.Random(6)
        contract = default_contract(0.04)
        for _ in range(50):
            n = rng.randint(0, 80)
            result = monitor(contract, random_mask(rng, n), random_mask(rng, n), 0.02)
            for coord in result.guards:
                assert coord.satisfied + coord.violated == coord.obligated


class TestThresholdRecovery:
    def test_edge_guard_verdicts_equal_distance_thresholding(self):
        rng = random.Random(27)
        for _ in range(100):
            n = rng.randint(1, 80)
            h = 0.02
            ref = random_mask(rng, n)
            pred = random_mask(rng, n)
            env = derive_edge_atoms(ref, pred, h)
            tolerance = rng.randint(1, 5) * h
            r = radius_frames(tolerance, h)
            from tracecontracts.frames import evaluate
            from tracecontracts.parser import parse_text

            guard = evaluate(
                parse_text(f"ref_onset -> N[{tolerance}] pred_onset"), env
            )
            ref_onsets = np.flatnonzero(env.atoms["ref_onset"])
            pred_onsets = np.flatnonzero(env.atoms["pred_onset"])
            for i in ref_onsets:
                if pred_onsets.size == 0:
                    nearest = None
                else:
                    nearest = np.min(np.abs(pred_onsets - i)) * h
                expected = nearest is not None and nearest <= r * h + 1e-9
                assert bool(guard[i]) == expected


class TestMeanLogic:
    def test_examples(self):
        ref, _, h = worked_trace()
        result = monitor(default_contract(0.04), ref, ref, h)
        assert mean_logic(result.guards) == 1.0

    def test_reconstruction_from_reported_coordinates(self):
        ref, pred, h = worked_trace()
        result = monitor(default_contract(0.08), ref, pred, h)
        assert mean_logic(result.guards) == pytest.approx(
            sum(result.guards.scores) / len(result.guards)
        )

    def test_seven_coordinate_arithmetic(self):
        from tracecontracts.contracts import GuardCoordinate, GuardVector

        vector = GuardVector(
            tuple(
                GuardCoordinate(f"g{i}", "frame", s, 1, int(s), 1 - int(s))
                for i, s in enumerate((0.5, 0.5, 1.0, 1.0, 1.0, 0.0, 1.0))
            )
        )
        assert mean_logic(vector) == pytest.approx(5.0 / 7.0)

    def test_empty_vector_rejected(self):
        from tracecontracts.contracts import GuardVector

        with pytest.raises(ValueError):
            mean_logic(GuardVector(()))


class TestClasses:
    def test_single_class_macro_equals_per_class(self):
        ref, pred, h = worked_trace()
        out = monitor_classes(default_contract(0.08), {"speech": (ref, pred)}, h)
        assert out.macro.scores == out.per_class["speech"].guards.scores

    def test_vacuous_class_keeps_macro_at_one(self):
        ref, _, h = worked_trace()
        empty = np.zeros_like(ref)
        out = monitor_classes(
            default_contract(0.04),
            {"speech": (ref, ref), "tone": (empty, empty)},
            h,
        )
        assert out.macro.scores == (1.0,) * 7

    def test_macro_is_the_exact_mean(self):
        rng = random.Random(41)
        h = 0.02
        masks = {
            "speech": (random_mask(rng, 60), random_mask(rng, 60)),
            "tone": (random_mask(rng, 60), random_mask(rng, 60)),
            "burst": (random_mask(rng, 60), random_mask(rng, 60)),
        }
        out = monitor_classes(default_contract(0.04), masks, h)
        for position in range(7):
            expected = np.mean(
                [r.guards.coordinates[position].score for r in out.per_class.values()]
            )
            assert out.macro.coordinates[position].score == pytest.approx(float(expected))

    def test_union_can_hide_typed_failure(self):
        # swap the two class predictions: union activity is identical,
        # class-indexed scores collapse
        h = 0.02
        a = make_trace([Interval(1.0, 2.0)], 300, h)
        b = make_trace([Interval(3.0, 4.0)], 300, h)
        union_ref = a | b
        contract = default_contract(0.04)
        union_result = monitor(contract, union_ref, union_ref, h)
        swapped = monitor_classes(contract, {"x": (a, b), "y": (b, a)}, h)
        assert mean_logic(union_result.guards) == 1.0
        assert mean_logic(swapped.macro) < 1.0

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError):
            monitor_classes(
                default_contract(0.04),
                {"x": ([0, 1], [0, 1]), "y": ([0, 1, 1], [0, 1, 1])},
                0.02,
            )


class TestEventClauseExtensions:
    def test_latency_window(self):
        refs = (Interval(1.0, 2.0),)
        preds = (Interval(1.05, 2.0),)
        assert latency_score(refs, preds, lead=0.04, lag=0.08).score == 1.0
        assert latency_score(refs, preds, lead=0.04, lag=0.04).score == 0.0
        assert latency_score((), preds, 0.04, 0.08).score == 1.0

    def test_purity_dominant_class(self):
        class_refs = {
            "speech": (Interval(1.0, 2.0),),
            "tone": (Interval(3.0, 4.0),),
        }
        good = purity_score("speech", (Interval(1.1, 1.9),), class_refs)
        wrong = purity_score("tone", (Interval(1.1, 1.9),), class_refs)
        assert good.score == 1.0
        assert wrong.score == 0.0

    def test_purity_ties_fail(self):
        class_refs = {
            "speech": (Interval(0.0, 1.0),),
            "tone": (Interval(1.0, 2.0),),
        }
        straddling = purity_score("speech", (Interval(0.5, 1.5),), class_refs)
        assert straddling.score == 0.0

    def test_purity_requires_class_context_in_monitor(self):
        contract = Contract(
            0.04,
            0.02,
            0.0,
            "greedy",
            (EventClause("purity", "predicted_intervals", "overlap_purity"),),
        )
        with pytest.raises(ContractError):
            monitor(contract, [0, 1], [0, 1], 0.02)
        out = monitor_classes(contract, {"speech": ([0, 1, 1, 0], [0, 1, 1, 0])}, 0.02)
        assert out.macro.scores == (1.0,)


class TestEventClauseStability:
    def test_values_stable_under_small_endpoint_jitter(self):
        # fixed families and covering counts, margins beyond twice the jitter
        h = 0.02
        eta = h  # one frame of jitter
        contract = default_contract(0.1)
        ref = make_trace([Interval(1.0, 2.0), Interval(3.0, 3.7)], 300, h)
        base_pred = make_trace([Interval(1.02, 2.04), Interval(3.02, 3.68)], 300, h)
        base = monitor(contract, ref, base_pred, h)
        rng = random.Random(90)
        for _ in range(20):
            jds = [rng.choice((-1, 0, 1)) for _ in range(4)]
            jittered = make_trace(
                [
                    Interval(1.02 + jds[0] * eta, 2.04 + jds[1] * eta),
                    Interval(3.02 + jds[2] * eta, 3.68 + jds[3] * eta),
                ],
                300,
                h,
            )
            result = monitor(contract, ref, jittered, h)
            assert result.matching.pairs == base.matching.pairs
            assert result.guards.get("duration_guard").score == base.guards.get(
                "duration_guard"
            ).score
            assert result.guards.get("fragmentation_guard").score == base.guards.get(
                "fragmentation_guard"
            ).score


class TestLateTailSeparation:
    def test_late_release_passes_onset_fails_offset_and_duration(self):
        h = 0.02
        ref = make_trace([Interval(1.0, 2.0)], 200, h)
        pred = apply_pathology(ref, TracePathology("late_release", 0.4), h)
        result = monitor(default_contract(0.08), ref, pred, h)
        assert result.guards.get("onset_guard").score == 1.0
        assert result.guards.get("offset_guard").score == 0.0
        assert result.guards.get("duration_guard").score == 0.0
        assert result.guards.get("silence_guard").score < 1.0


class TestMatcherPolicyInvariance:
    def test_frame_coordinates_never_depend_on_the_matcher(self):
        rng = random.Random(61)
        base = default_contract(0.06)
        exact = Contract(
            base.tolerance, base.silence_radius, base.merge_gap, "exact", base.clauses
        )
        for _ in range(50):
            n = rng.randint(0, 100)
            ref = random_mask(rng, n)
            pred = random_mask(rng, n)
            greedy_result = monitor(base, ref, pred, 0.02)
            exact_result = monitor(exact, ref, pred, 0.02)
            for name in (
                "onset_guard",
                "offset_guard",
                "missing_guard",
                "spurious_guard",
                "silence_guard",
            ):
                assert greedy_result.guards.get(name) == exact_result.guards.get(name)


class TestSoftBoundary:
    def test_identical_masks(self):
        ref, _, h = worked_trace()
        assert soft_boundary(ref, ref, h) == 1.0

    def test_edgeless_prediction_scores_zero(self):
        ref, _, h = worked_trace()
        assert soft_boundary(ref, np.zeros_like(ref), h) == 0.0
        assert soft_boundary(np.zeros_like(ref), np.zeros_like(ref), h) == 1.0

    def test_single_edge_pair_at_scale_distance(self):
        h = 0.02
        scale = 0.1
        ref = make_trace([Interval(1.0, 2.0)], 200, h)
        pred = make_trace([Interval(1.1, 2.1)], 200, h)
        got = soft_boundary(ref, pred, h, scale)
        assert got == pytest.approx(np.exp(-1.0))

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            soft_boundary([0, 1], [0, 1], 0.02, 0.0)

    @pytest.mark.parametrize("scale", [math.inf, math.nan])
    def test_scale_must_be_finite(self, scale):
        # An infinite scale would credit every edge in full, whatever the distance.
        with pytest.raises(ValueError, match="finite"):
            soft_boundary([1, 1, 0, 0], [0, 0, 1, 1], 0.01, scale)

    def test_mask_lengths_must_agree(self):
        ref, pred = [1, 1, 0, 0], [1, 1, 0, 0, 0, 0, 1, 1]
        with pytest.raises(ValueError, match="mask lengths differ: 4 vs 8"):
            soft_boundary(ref, pred, 0.01)
        with pytest.raises(ValueError, match="mask lengths differ: 4 vs 8"):
            monitor(default_contract(0.04), ref, pred, 0.01)

    @pytest.mark.parametrize("h", [float("inf"), float("nan"), 0.0, -0.02])
    def test_frame_step_must_be_finite_and_positive(self, h):
        with pytest.raises(ValueError, match="frame step"):
            soft_boundary([0, 1, 0], [0, 1, 1], h)

    @pytest.mark.parametrize("mask", [[0, 2, 0], [0, -1, 0], [0, float("nan"), 0]])
    def test_non_binary_masks_rejected(self, mask):
        with pytest.raises(ValueError, match="0/1"):
            soft_boundary(mask, [0, 1, 0], 0.02)
        with pytest.raises(ValueError, match="0/1"):
            monitor(default_contract(0.04), [0, 1, 0], mask, 0.02)


class TestToleranceSweep:
    GRID = (0.02, 0.04, 0.08, 0.12, 0.16)

    def test_formulas_are_regenerated_and_reparsed(self):
        ref, pred, h = worked_trace()
        sweep = tolerance_sweep(default_contract(0.04), ref, pred, h, self.GRID)
        onset_texts = [row.formula_texts["onset_guard"] for row in sweep.rows]
        assert onset_texts == [
            "ref_onset -> N[0.02] pred_onset",
            "ref_onset -> N[0.04] pred_onset",
            "ref_onset -> N[0.08] pred_onset",
            "ref_onset -> N[0.12] pred_onset",
            "ref_onset -> N[0.16] pred_onset",
        ]

    def test_frame_guards_non_decreasing_in_tolerance(self):
        rng = random.Random(50)
        contract = default_contract(0.04)
        frame_names = ("onset_guard", "offset_guard", "missing_guard", "spurious_guard")
        for _ in range(30):
            n = rng.randint(1, 120)
            ref = random_mask(rng, n)
            pred = random_mask(rng, n)
            sweep = tolerance_sweep(contract, ref, pred, 0.02, self.GRID)
            for name in frame_names:
                scores = [row.guards.get(name).score for row in sweep.rows]
                assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_identical_masks_sweep_flat_at_one(self):
        ref, _, h = worked_trace()
        sweep = tolerance_sweep(default_contract(0.04), ref, ref, h, self.GRID)
        assert all(row.mean_logic == 1.0 for row in sweep.rows)
        assert sweep.integral == pytest.approx(1.0)
        assert sweep.span == 0.0

    def test_regenerated_formulas_round_trip_through_their_text(self):
        # Radii scale on the trees; each sweep formula's rendering still
        # parses back to exactly the tree that was evaluated.
        rng = random.Random(95)
        ref, pred, h = worked_trace()
        atoms = ("ref_active", "pred_active", "ref_onset", "pred_offset")
        for _ in range(20):
            clauses = tuple(
                FrameClause(
                    f"c{i}", random_formula(rng, 4, atoms, h), random_formula(rng, 2, atoms, h)
                )
                for i in range(3)
            )
            contract = Contract(0.04, 0.02, 0.0, "greedy", clauses)
            tolerances = sorted({rng.uniform(0.001, 0.3) for _ in range(4)})
            sweep = tolerance_sweep(contract, ref, pred, h, tolerances)
            for row in sweep.rows:
                for clause in row.contract.frame_clauses:
                    for formula in (clause.formula, clause.obligation):
                        assert parse_text(format_formula(formula)) == formula

    def test_tolerances_must_ascend(self):
        ref, pred, h = worked_trace()
        with pytest.raises(ValueError):
            tolerance_sweep(default_contract(0.04), ref, pred, h, (0.04, 0.04))


class TestContractFiles:
    def test_round_trip_default(self):
        contract = default_contract(0.08, merge_gap=0.04, matcher="exact")
        text = contract_to_text(contract)
        parsed = parse_contract_text(text)
        assert parsed == contract

    def test_comments_and_params(self):
        text = (
            "# boundary contract\n"
            "set tolerance 0.04\n"
            "frame onset : ref_onset -> N[0.06] pred_onset @ ref_onset  # per-clause radius\n"
            "event dur : duration_within @ matched_pairs threshold=0.1\n"
        )
        contract = parse_contract_text(text)
        assert contract.silence_radius == pytest.approx(0.02)
        assert isinstance(contract.clauses[0], FrameClause)
        assert contract.clauses[1].param("threshold", 0.0) == pytest.approx(0.1)

    def test_formula_errors_carry_line_and_span(self):
        text = "set tolerance 0.04\nframe bad : ref_onset - > x @ ref_onset\n"
        with pytest.raises(ContractSyntaxError) as excinfo:
            parse_contract_text(text)
        error = excinfo.value
        assert error.line_number == 2
        assert error.span is not None
        assert error.line_text[error.span.start] == "-"

    def test_missing_tolerance_rejected(self):
        with pytest.raises(ContractSyntaxError):
            parse_contract_text("frame a : x @ x\n")

    def test_retolerance_scales_everything_but_merge_gap(self):
        contract = parse_contract_text(
            "set tolerance 0.04\nset merge_gap 0.06\n"
            "frame onset : ref_onset -> N[0.04] pred_onset @ ref_onset\n"
            "event dur : duration_within @ matched_pairs threshold=0.08\n"
        )
        doubled = retolerance(contract, 0.08)
        assert doubled.merge_gap == pytest.approx(0.06)
        assert doubled.silence_radius == pytest.approx(0.04)
        assert format_formula(doubled.clauses[0].formula) == "ref_onset -> N[0.08] pred_onset"
        assert doubled.clauses[1].param("threshold", 0.0) == pytest.approx(0.16)

    def test_latency_clause_from_file_through_monitor(self):
        text = (
            "set tolerance 0.04\n"
            "frame onset : ref_onset -> N[0.04] pred_onset @ ref_onset\n"
            "event latency : latency_window @ reference_intervals lead=0.04 lag=0.08\n"
        )
        contract = parse_contract_text(text)
        ref = make_trace([Interval(1.0, 2.0)], 200, 0.02)
        on_time = apply_pathology(ref, TracePathology("late_onset", 0.06), 0.02)
        too_late = apply_pathology(ref, TracePathology("late_onset", 0.2), 0.02)
        assert monitor(contract, ref, on_time, 0.02).guards.get("latency").score == 1.0
        assert monitor(contract, ref, too_late, 0.02).guards.get("latency").score == 0.0

    def test_merge_gap_heals_fragmented_predictions(self):
        h = 0.02
        ref = make_trace([Interval(1.0, 2.0)], 200, h)
        pred = apply_pathology(ref, TracePathology("fragmentation", 3), h)
        strict = monitor(default_contract(0.04), ref, pred, h)
        merged = monitor(default_contract(0.04, merge_gap=0.02), ref, pred, h)
        assert strict.guards.get("fragmentation_guard").score == 0.0
        assert merged.guards.get("fragmentation_guard").score == 1.0

    def test_default_text_mentions_every_guard(self):
        text = default_contract_text(0.04)
        for name in (
            "onset_guard",
            "offset_guard",
            "missing_guard",
            "spurious_guard",
            "silence_guard",
            "duration_guard",
            "fragmentation_guard",
        ):
            assert name in text


class TestResultRuns:
    def test_lazy_tuples_equal_extraction_and_are_kept(self):
        rng = random.Random(97)
        for merge_gap in (0.0, 0.03):
            contract = default_contract(0.04, merge_gap=merge_gap)
            for _ in range(20):
                n = rng.randint(0, 200)
                ref, pred = random_mask(rng, n), random_mask(rng, n)
                result = monitor(contract, ref, pred, 0.01)
                assert result.ref_intervals == extract_intervals(ref, 0.01, merge_gap)
                assert result.pred_intervals == extract_intervals(pred, 0.01, merge_gap)
                assert result.ref_intervals is result.ref_intervals
                assert result.pred_intervals is result.pred_intervals

    def test_runs_are_read_only(self):
        ref, pred, h = worked_trace()
        result = monitor(default_contract(0.04), ref, pred, h)
        for array in (result.refs.start, result.refs.end, result.preds.start, result.preds.end):
            with pytest.raises(ValueError):
                array[0] = -1.0

    def test_equality_and_hash_do_not_depend_on_reading_the_tuples(self):
        ref, pred, h = fragmented_trace()
        contract = default_contract(0.04)
        first, unread = monitor(contract, ref, pred, h), monitor(contract, ref, pred, h)
        read = monitor(contract, ref, pred, h)
        read.ref_intervals, read.pred_intervals
        record = (first.guards, first.witnesses, extract_intervals(ref, h),
                  extract_intervals(pred, h), first.matching)
        assert hash(unread) == hash(read) == hash(record)
        assert first == unread == read
        assert hash(first) == hash(record)
        assert first != monitor(contract, ref, ref, h)
        assert repr(first) == (
            f"MonitorResult(guards={record[0]!r}, witnesses={record[1]!r}, "
            f"ref_intervals={record[2]!r}, pred_intervals={record[3]!r}, matching={record[4]!r})"
        )


class TestPlanMemo:
    def test_a_filled_memo_is_no_part_of_the_contract_value(self):
        fresh, used = default_contract(0.04), default_contract(0.04)
        plan = compile_contract(used, 0.01)
        assert compile_contract(used, 0.01) is plan
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert contract_to_text(used) == contract_to_text(fresh)

    def test_replace_starts_empty_and_each_grid_has_its_plan(self):
        contract = default_contract(0.04)
        plan = compile_contract(contract, 0.01)
        coarse = compile_contract(contract, 0.02)
        assert coarse is not plan and coarse.radii != plan.radii
        assert compile_contract(contract, 0.01) is plan
        changed = dataclasses.replace(contract, matcher="exact")
        assert changed._plans == {}
        assert compile_contract(changed, 0.01) is not plan


class TestWorkCounts:
    """Work counted, not timed: the per-call and per-run work `monitor` no
    longer does stays undone."""

    def test_one_plan_and_no_interval_objects(self, monkeypatch):
        rng = random.Random(99)
        h = 0.01
        pairs = [(random_mask(rng, 300), random_mask(rng, 300)) for _ in range(8)]
        classes = {name: (random_mask(rng, 300), random_mask(rng, 300)) for name in "abc"}
        contract = default_contract(0.04)
        calls = {"plan": 0, "interval": 0}
        plan, post_init = frames.share_subformulas, Interval.__post_init__

        def counting_plan(*args):
            calls["plan"] += 1
            return plan(*args)

        def counting_post_init(interval):
            calls["interval"] += 1
            post_init(interval)

        for module in (frames, contracts):
            monkeypatch.setattr(module, "share_subformulas", counting_plan)
        monkeypatch.setattr(Interval, "__post_init__", counting_post_init)
        results = [monitor(contract, ref, pred, h) for ref, pred in pairs]
        results += monitor_classes(contract, classes, h).per_class.values()
        assert calls == {"plan": 1, "interval": 0}
        # The counter sees the objects a reader asks for.
        assert len(results[0].ref_intervals) == len(results[0].refs) > 0
        assert calls["interval"] == len(results[0].refs)

    def test_sweep_plans_once(self, monkeypatch):
        # Every regenerated contract's frame formulas go into one plan.
        ref, pred, h = worked_trace()
        plans = []
        plan = frames.share_subformulas

        def counting_plan(formulas, step):
            plans.append(plan(formulas, step))
            return plans[-1]

        for module in (frames, contracts):
            monkeypatch.setattr(module, "share_subformulas", counting_plan)
        tolerances = (0.02, 0.04, 0.08, 0.12, 0.16)
        sweep = tolerance_sweep(default_contract(0.04), ref, pred, h, tolerances)
        assert len(plans) == 1
        assert set(plans[0].roots) == {
            f for row in sweep.rows for c in row.contract.frame_clauses
            for f in (c.formula, c.obligation)
        }
        for tolerance, row in zip(tolerances, sweep.rows):
            assert row.result == monitor(retolerance(default_contract(0.04), tolerance), ref, pred, h)

    def test_sweep_tokenizes_nothing(self, monkeypatch):
        ref, pred, h = worked_trace()
        contract = default_contract(0.04)
        sources = []
        tokenize = lexer.tokenize

        def counting_tokenize(source):
            sources.append(source)
            return tokenize(source)

        for module in (lexer, parser):
            monkeypatch.setattr(module, "tokenize", counting_tokenize)
        tolerance_sweep(contract, ref, pred, h, (0.02, 0.04, 0.08, 0.12, 0.16))
        assert sources == []
        parse_text("ref_active")
        assert sources == ["ref_active"]

    def test_event_diffs_and_extras_once_per_monitor_call(self, monkeypatch):
        # Every event clause scores from the one pass of each the monitor makes.
        rng = random.Random(41)
        contract = parse_contract_text(ALL_PREDICATES.replace("event pur", "# event pur"))
        calls = {"length_diffs": 0, "fragmentation_extras": 0}

        def counting(name):
            real = getattr(contracts, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(contracts, name, counting(name))
        for _ in range(5):
            monitor(contract, random_mask(rng, 400), random_mask(rng, 400), 0.01)
        assert calls == {"length_diffs": 5, "fragmentation_extras": 5}


class TestLanguageTables:
    """Settings and event predicates are read from one table each: what the
    tables allow round-trips, and every single departure is a line error."""

    @settings(max_examples=150, deadline=None)
    @given(table_contracts())
    def test_rendering_parses_back_to_the_contract(self, contract):
        assert parse_contract_text(contract_to_text(contract)) == contract

    @settings(max_examples=25, deadline=None)
    @given(table_contracts())
    def test_each_mutation_is_an_error_on_its_line(self, contract):
        for label, text, line_number in contract_mutations(contract):
            with pytest.raises(ContractSyntaxError) as excinfo:
                parse_contract_text(text)
            assert excinfo.value.line_number == line_number, label
            assert excinfo.value.line_text == text.splitlines()[line_number - 1]

    def test_mutations_of_a_contract_with_every_predicate(self):
        mutations = contract_mutations(parse_contract_text(ALL_PREDICATES))
        labels = {label for label, _, _ in mutations}
        assert {"unknown key", "repeated key", "merge_gap abc", "tolerance inf",
                "dur @ reference_intervals", "frag unknown parameter",
                "lat repeated lead", "pur @ matched_pairs"} <= labels
        for label, text, line_number in mutations:
            with pytest.raises(ContractSyntaxError) as excinfo:
                parse_contract_text(text)
            assert excinfo.value.line_number == line_number, label

    @pytest.mark.parametrize("text", [
        "frame a : x @ x\n",
        "set tolerance 0.04\nset silence_radius 0.05\n",
        "set tolerance -0.04\n",
        "set tolerance 0.04\nset merge_gap -1\n",
        "set tolerance 0.04\nset matcher fast\n",
        "set tolerance 0.04\nframe a : x @ x\nframe a : y @ y\n",
    ])
    def test_checks_across_lines_report_line_zero(self, text):
        with pytest.raises(ContractSyntaxError) as excinfo:
            parse_contract_text(text)
        assert excinfo.value.line_number == 0

    def test_defaults_come_from_the_table(self):
        # A clause without parameters scores as with its table defaults spelled out.
        rng = random.Random(13)
        tolerance = 0.03
        bare = parse_contract_text(
            "set tolerance 0.03\n"
            "event dur : duration_within @ matched_pairs\n"
            "event lat : latency_window @ reference_intervals\n"
        )
        spelled = Contract(tolerance, tolerance / 2, 0.0, "greedy", tuple(
            EventClause(c.name, c.obligation, c.predicate, tuple(
                (key, factor * tolerance)
                for key, factor in contracts.EVENT_PREDICATES[c.predicate][1].items()
            )) for c in bare.clauses
        ))
        assert [c.params for c in spelled.clauses] == [
            (("threshold", 0.06),), (("lead", 0.03), ("lag", 0.06))
        ]
        for _ in range(20):
            ref, pred = random_mask(rng, 300), random_mask(rng, 300)
            assert monitor(bare, ref, pred, 0.01).guards == monitor(spelled, ref, pred, 0.01).guards

    def test_the_api_checks_what_the_parser_checks(self):
        for args in [
            ("d", "reference_intervals", "duration_within"),
            ("d", "matched_pairs", "duration_within", (("thresold", 0.1),)),
            ("d", "matched_pairs", "duration_within", (("threshold", 0.1), ("threshold", 0.2))),
            ("d", "matched_pairs", "duration_within", (("threshold", math.inf),)),
            ("d", "matched_pairs", "duration_within", (("threshold", math.nan),)),
            ("f", "reference_intervals", "singly_covered", (("lead", 0.1),)),
        ]:
            with pytest.raises(ContractError):
                EventClause(*args)
        for settings_ in [(math.inf, 0.02, 0.0), (0.04, 0.02, math.nan), (0.04, 0.02, math.inf)]:
            with pytest.raises(ContractError):
                Contract(*settings_, "greedy", ())

    @pytest.mark.parametrize("data", [
        b"set tolerance 0.04 # \xff\n",
        "set tolerance 0.04\n".encode("utf-16"),
        b"\xef\xbb\xbfset tolerance 0.04\n",
    ])
    def test_load_contract_refuses_what_is_not_utf8_text(self, data, tmp_path):
        path = tmp_path / "bad.contract"
        path.write_bytes(data)
        with pytest.raises(ContractSyntaxError):
            load_contract(path)

    def test_load_contract_reads_line_ends_as_newlines(self, tmp_path):
        path = tmp_path / "crlf.contract"
        text = contract_to_text(parse_contract_text(ALL_PREDICATES))
        path.write_bytes(text.replace("\n", "\r\n").encode())
        assert load_contract(path) == parse_contract_text(text)
