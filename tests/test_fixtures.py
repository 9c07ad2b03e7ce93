"""Trace generator: rasterization, pathologies, stress geometry."""

import hashlib

import pytest

from tracecontracts.contracts import default_contract, monitor
from tracecontracts.fixtures import (
    StressCase,
    TracePathology,
    apply_pathology,
    bridge_fixture,
    calibration_cases,
    fragmented_trace,
    make_trace,
    stress_track,
    worked_trace,
)
from tracecontracts.intervals import Interval, extract_intervals


H = 0.02


class TestMakeTrace:
    def test_second_long_event(self):
        mask = make_trace([Interval(1.0, 2.0)], 600, H)
        assert mask[50:100].all()
        assert not mask[:50].any()
        assert not mask[100:].any()

    def test_empty_event_list(self):
        assert not make_trace([], 100, H).any()

    def test_round_trip_with_extraction(self):
        events = [Interval(0.2, 0.5), Interval(1.0, 1.02), Interval(2.0, 2.4)]
        mask = make_trace(events, 150, H)
        extracted = extract_intervals(mask, H)
        assert len(extracted) == len(events)
        for got, expected in zip(extracted, events):
            assert got.start == pytest.approx(expected.start)
            assert got.end == pytest.approx(expected.end)

    def test_out_of_range_event_rejected(self):
        with pytest.raises(ValueError):
            make_trace([Interval(1.0, 4.0)], 100, H)  # horizon is 2.0 s


class TestPathologies:
    def test_nominal_is_identity(self):
        ref = make_trace([Interval(1.0, 2.0)], 200, H)
        pred = apply_pathology(ref, TracePathology("nominal"), H)
        assert (pred == ref).all()
        assert pred is not ref

    def test_late_release_worked_magnitude(self):
        ref = make_trace([Interval(1.0, 2.0)], 200, H)
        pred = apply_pathology(ref, TracePathology("late_release", 0.40), H)
        (run,) = extract_intervals(pred, H)
        assert run.start == pytest.approx(1.0)
        assert run.end == pytest.approx(2.4)

    def test_fragmentation_splits_inside_the_support(self):
        ref = make_trace([Interval(1.0, 2.0)], 200, H)
        pred = apply_pathology(ref, TracePathology("fragmentation", 3), H)
        pieces = extract_intervals(pred, H)
        assert len(pieces) == 3
        for piece in pieces:
            assert piece.start >= 1.0 - 1e-9
            assert piece.end <= 2.0 + 1e-9
        assert not (pred & ~ref).any()  # fragments stay inside the event

    def test_every_pathology_keeps_length_and_is_deterministic(self):
        ref = make_trace([Interval(1.0, 2.0), Interval(3.0, 3.5)], 300, H)
        specs = [
            TracePathology("nominal"),
            TracePathology("late_onset", 0.1),
            TracePathology("early_onset", 0.1),
            TracePathology("late_release", 0.2),
            TracePathology("early_release", 0.2),
            TracePathology("missing"),
            TracePathology("extra", 2),
            TracePathology("silence_bleed", 0.06),
            TracePathology("length_distortion", 0.1),
            TracePathology("fragmentation", 2),
        ]
        for spec in specs:
            first = apply_pathology(ref, spec, H)
            second = apply_pathology(ref, spec, H)
            assert first.shape == ref.shape
            assert (first == second).all()

    def test_off_grid_magnitude_rejected(self):
        ref = make_trace([Interval(1.0, 2.0)], 200, H)
        with pytest.raises(ValueError):
            apply_pathology(ref, TracePathology("late_onset", 0.013), H)

    def test_stress_shapes_are_not_plain_pathologies(self):
        ref = make_trace([Interval(1.0, 2.0)], 200, H)
        with pytest.raises(ValueError):
            apply_pathology(ref, TracePathology("bridge_left", 1), H)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TracePathology("upside_down")


class TestTaxonomyDirections:
    """Each pathology moves the coordinates its failure class names."""

    def _guards(self, pathology):
        ref = make_trace([Interval(1.0, 2.0), Interval(4.0, 5.5)], 400, H)
        pred = apply_pathology(ref, pathology, H)
        return monitor(default_contract(0.04), ref, pred, H).guards

    def test_late_release_spares_the_onset(self):
        guards = self._guards(TracePathology("late_release", 0.4))
        assert guards.get("onset_guard").score == 1.0
        assert guards.get("offset_guard").score < 1.0
        assert guards.get("duration_guard").score < 1.0
        assert guards.get("silence_guard").score < 1.0

    def test_late_onset_spares_the_offset(self):
        guards = self._guards(TracePathology("late_onset", 0.2))
        assert guards.get("offset_guard").score == 1.0
        assert guards.get("onset_guard").score < 1.0
        assert guards.get("missing_guard").score < 1.0

    def test_extra_hits_precision_not_recall(self):
        guards = self._guards(TracePathology("extra", 2))
        assert guards.get("missing_guard").score == 1.0
        assert guards.get("onset_guard").score == 1.0
        assert guards.get("spurious_guard").score < 1.0
        assert guards.get("silence_guard").score < 1.0

    def test_fragmentation_hits_decomposition(self):
        guards = self._guards(TracePathology("fragmentation", 3))
        assert guards.get("fragmentation_guard").score == 0.0
        assert guards.get("onset_guard").score == 1.0
        assert guards.get("offset_guard").score == 1.0


class TestWorkedTrace:
    def test_geometry(self):
        ref, pred, h = worked_trace()
        (ref_run,) = extract_intervals(ref, h)
        (pred_run,) = extract_intervals(pred, h)
        assert (ref_run.start, ref_run.end) == (pytest.approx(1.0), pytest.approx(2.0))
        assert (pred_run.start, pred_run.end) == (pytest.approx(1.06), pytest.approx(2.4))


class TestStressTrack:
    def test_track_composition(self):
        cases = stress_track()
        assert len(cases) == 24
        by_pattern = {}
        for case in cases:
            by_pattern.setdefault(case.pattern, []).append(case)
        assert len(by_pattern["left_bridge"]) == 12
        assert len(by_pattern["nominal"]) == 4
        assert len(by_pattern["right_bridge"]) == 4
        assert len(by_pattern["split"]) == 4
        ids = [case.case_id for case in cases]
        assert len(set(ids)) == len(ids)

    def test_masks_are_equal_length_pairs(self):
        for case in stress_track():
            assert isinstance(case, StressCase)
            assert case.ref_mask.shape == case.pred_mask.shape

    def test_bridge_fixture_geometry(self):
        case = bridge_fixture()
        refs = extract_intervals(case.ref_mask, case.frame_step)
        preds = extract_intervals(case.pred_mask, case.frame_step)
        assert len(refs) == 2
        assert len(preds) == 2

    def test_policy_divergence_lives_in_the_left_bridge_family(self):
        from tracecontracts.intervals import matcher_audit

        changed_by_pattern = {}
        for case in stress_track():
            refs = extract_intervals(case.ref_mask, case.frame_step)
            preds = extract_intervals(case.pred_mask, case.frame_step)
            audit = matcher_audit(refs, preds, case.epsilon)
            changed_by_pattern.setdefault(case.pattern, []).append(audit.changed)
        assert any(changed_by_pattern["left_bridge"])
        assert not all(changed_by_pattern["left_bridge"])
        for pattern in ("nominal", "right_bridge", "split"):
            assert not any(changed_by_pattern[pattern])


class TestCalibrationCases:
    def test_nine_named_cases(self):
        cases = calibration_cases()
        assert [c.id for c in cases] == [
            "early_onset",
            "late_onset",
            "late_release",
            "early_release",
            "length_distortion",
            "fragmentation",
            "missing",
            "extra",
            "silence_bleed",
        ]
        risks = {c.id: c.risk for c in cases}
        assert risks["early_onset"] == 3.0
        assert risks["missing"] == risks["extra"] == risks["silence_bleed"] == 5.0

    def test_masks_are_equal_length(self):
        for case in calibration_cases():
            assert len(case.ref_mask) == len(case.pred_mask)
            assert set(case.ref_mask) <= {0, 1}


# SHA-256 of every built-in fixture's masks and labels, fed in by
# ``_fixture_digest``; the scoring tests and the calibration set rest on them.
FIXTURE_DIGEST = "7fc621370b4fa86e6d8489688cc51ec5b2dd3ed25b4360596c283b8a9090b699"


def _fixture_digest() -> str:
    digest = hashlib.sha256()

    def masks(*arrays):
        for mask in arrays:
            digest.update(repr((mask.dtype, mask.shape)).encode())
            digest.update(mask.tobytes())

    for case in calibration_cases():
        digest.update(repr((case.id, case.risk, case.frame_step)).encode())
        digest.update(bytes(case.ref_mask))
        digest.update(bytes(case.pred_mask))
    for case in stress_track() + [bridge_fixture()]:
        digest.update(repr((case.pattern, case.case_id, case.epsilon, case.frame_step)).encode())
        masks(case.ref_mask, case.pred_mask)
    for ref, pred, h in (worked_trace(), fragmented_trace()):
        digest.update(repr(h).encode())
        masks(ref, pred)
    return digest.hexdigest()


def test_built_in_fixtures_keep_their_masks():
    assert _fixture_digest() == FIXTURE_DIGEST
