"""Finite-universe checks and risk-ordered selection."""

import gc
import itertools
from dataclasses import replace

import pytest

from tracecontracts.basis import (
    CalibrationCase,
    EnumerationBoundError,
    PROFILES,
    basis_from_contract,
    clause_signatures,
    load_calibration,
    observational_classes,
    profile_score,
    retained_basis,
    satisfiable,
    save_calibration,
    select_contract,
    truth_signature,
)
from tracecontracts.contracts import (
    contract_to_text,
    default_contract,
    mean_logic,
    monitor,
    parse_contract_text,
)
from tracecontracts.fixtures import calibration_cases, worked_trace
from tracecontracts.frames import TraceEnvironment, evaluate
from tracecontracts.intervals import AuditBoundError
from tracecontracts.parser import parse_text

from gen import is_separating


H = 0.02


class TestTruthSignatures:
    def test_double_negation(self):
        assert truth_signature(parse_text("!!a"), ["a"], 4, H) == truth_signature(
            parse_text("a"), ["a"], 4, H
        )

    def test_near_sees_the_left_neighbor(self):
        near = truth_signature(parse_text("N[0.02] a"), ["a"], 2, H)
        future = truth_signature(parse_text("F[0.02] a"), ["a"], 2, H)
        assert near != future
        # enumeration oracle: they differ exactly on the environment a=[1,0]
        env = TraceEnvironment(H, 2, {"a": [1, 0]})
        assert bool(evaluate(parse_text("N[0.02] a"), env)[1])
        assert not bool(evaluate(parse_text("F[0.02] a"), env)[1])

    def test_contradiction_is_all_false(self):
        signature = truth_signature(parse_text("a & !a"), ["a"], 3, H)
        assert set(signature) == {0}

    def test_equal_signature_implies_equal_valuations_everywhere(self):
        # exhaustive at a small universe: any two formulas with equal
        # signatures evaluate identically on every environment
        formulas = [
            parse_text(s)
            for s in ("a", "!!a", "a | a", "a & a", "N[0.02] a", "F[0.02] a", "!a", "a -> a")
        ]
        n = 3
        signatures = {format(i): truth_signature(f, ["a"], n, H) for i, f in enumerate(formulas)}
        for (i, f), (j, g) in itertools.combinations(enumerate(formulas), 2):
            if signatures[format(i)] != signatures[format(j)]:
                continue
            for bits in range(2 ** n):
                env = TraceEnvironment(H, n, {"a": [(bits >> k) & 1 for k in range(n)]})
                assert (evaluate(f, env) == evaluate(g, env)).all()

    def test_bound_enforced(self):
        with pytest.raises(EnumerationBoundError):
            truth_signature(parse_text("a"), ["a", "b", "c"], 12, H)


class TestSatisfiable:
    def test_atom(self):
        assert satisfiable(parse_text("a"), ["a"], 2, H)

    def test_contradiction(self):
        assert not satisfiable(parse_text("a & !a"), ["a"], 3, H)

    def test_clipped_always(self):
        assert satisfiable(parse_text("G[0.06] a"), ["a"], 2, H)

    def test_empty_grid_unsatisfiable(self):
        assert not satisfiable(parse_text("a"), ["a"], 0, H)


def _tiny_case(case_id, ref, pred, risk):
    return CalibrationCase(case_id, tuple(ref), tuple(pred), risk, H)


class TestObservationalClasses:
    def test_duplicate_clause_lands_in_one_class(self):
        contract = default_contract(0.04)
        basis = basis_from_contract(contract)
        # duplicate the onset guard under a new name at the end
        from dataclasses import replace

        from tracecontracts.basis import BasisClause

        duplicate = BasisClause(
            replace(contract.clauses[0], name="onset_copy"), 7, basis.clauses[0].cost
        )
        extended = type(basis)(basis.clauses + (duplicate,), basis.tolerance)
        cases = calibration_cases()
        classes = observational_classes(extended, cases)
        onset_class = next(c for c in classes if 0 in c.members)
        assert 7 in onset_class.members
        retained = retained_basis(extended, cases)
        assert [c.name for c in retained.clauses].count("onset_copy") == 0
        assert "onset_guard" in [c.name for c in retained.clauses]

    def test_empty_calibration_puts_everything_in_one_constant_class(self):
        basis = basis_from_contract(default_contract(0.04))
        classes = observational_classes(basis, [])
        assert len(classes) == 1
        assert classes[0].constant
        assert retained_basis(basis, []).clauses == ()

    def test_onset_and_offset_differ_on_the_worked_trace(self):
        ref, pred, _ = worked_trace()
        case = _tiny_case("worked", ref.astype(int), pred.astype(int), 1.0)
        basis = basis_from_contract(default_contract(0.08))
        signatures = clause_signatures(basis, [case])
        assert signatures[0].values != signatures[1].values

    def test_all_constant_basis_retains_nothing(self):
        # perfect pairs leave every clause at 1.0 on every case
        perfect = [
            _tiny_case("p1", [0, 1, 1, 0], [0, 1, 1, 0], 1.0),
            _tiny_case("p2", [1, 1, 0, 0], [1, 1, 0, 0], 2.0),
        ]
        basis = basis_from_contract(default_contract(0.04))
        classes = observational_classes(basis, perfect)
        assert all(cls.constant for cls in classes)
        assert retained_basis(basis, perfect).clauses == ()

    def test_retained_basis_is_idempotent(self):
        basis = basis_from_contract(default_contract(0.04))
        cases = calibration_cases()
        once = retained_basis(basis, cases)
        twice = retained_basis(once, cases)
        assert [c.source_order for c in twice.clauses] == [
            c.source_order for c in once.clauses
        ]


class TestSelection:
    def test_single_pair_single_clause(self):
        low = _tiny_case("good", [0, 1, 1, 0], [0, 1, 1, 0], 1.0)
        high = _tiny_case("bad", [0, 1, 1, 0], [0, 0, 0, 0], 2.0)
        basis = basis_from_contract(default_contract(0.04))
        selection = select_contract(basis, [low, high])
        assert selection.feasible
        assert len(selection.selected) == 1

    def test_unseparable_pair_reported(self):
        low = _tiny_case("u", [0, 1], [0, 1], 1.0)
        high = _tiny_case("v", [0, 1], [0, 1], 2.0)  # identical behavior, higher risk
        basis = basis_from_contract(default_contract(0.04))
        selection = select_contract(basis, [low, high])
        assert not selection.feasible
        assert selection.unseparated_pair == ("u", "v")

    def test_empty_calibration_selects_the_empty_contract(self):
        basis = basis_from_contract(default_contract(0.04))
        selection = select_contract(basis, [])
        assert selection.feasible
        assert selection.selected == ()

    def test_nine_pathology_calibration(self):
        cases = calibration_cases()
        basis = basis_from_contract(default_contract(0.04))
        signatures = clause_signatures(basis, cases)
        values = {s.clause_id: s.values for s in signatures}
        # the full seven-guard set separates the declared risk order
        assert is_separating(values, cases, list(values))
        retained = retained_basis(basis, cases)
        assert len(retained.clauses) == 7  # all guards distinct and nonconstant here
        selection = select_contract(retained, cases)
        assert selection.feasible
        selected_ids = [c.source_order for c in selection.selected]
        assert is_separating(values, cases, selected_ids)
        # independent brute-force check of lexicographic minimality
        clause_list = list(retained.clauses)
        best = None
        for size in range(len(clause_list) + 1):
            for subset in itertools.combinations(clause_list, size):
                if is_separating(values, cases, [c.source_order for c in subset]):
                    key = (
                        len(subset),
                        sum(c.cost for c in subset),
                        tuple(sorted(c.source_order for c in subset)),
                    )
                    if best is None or key < best:
                        best = key
            if best is not None:
                break
        assert best is not None
        got_key = (
            len(selection.selected),
            sum(c.cost for c in selection.selected),
            tuple(sorted(selected_ids)),
        )
        assert got_key == best
        # certificate witnesses are real
        for low_id, high_id, order in selection.certificate:
            i = next(k for k, c in enumerate(cases) if c.id == low_id)
            j = next(k for k, c in enumerate(cases) if c.id == high_id)
            assert values[order][i] > values[order][j]

    def test_signatures_read_the_monitor_coordinates(self):
        cases = calibration_cases()
        contract = default_contract(0.04)
        signatures = clause_signatures(basis_from_contract(contract), cases)
        for k, case in enumerate(cases):
            result = monitor(contract, case.ref_mask, case.pred_mask, case.frame_step)
            assert tuple(sig.values[k] for sig in signatures) == result.guards.scores

    def test_frame_only_exact_basis_never_runs_the_matcher(self):
        # 30 runs per mask: more than the exact matcher's bound of 24
        many_runs = _tiny_case("many", [1, 1, 0] * 30, [0, 1, 1] * 30, 1.0)
        contract = parse_contract_text(
            "set tolerance 0.04\nset matcher exact\n"
            "frame on : ref_onset -> N[0.04] pred_onset @ ref_onset\n"
        )
        (signature,) = clause_signatures(basis_from_contract(contract), [many_runs])
        assert signature.values == (1.0,)
        with_event = parse_contract_text(
            contract_to_text(contract) + "event dur : duration_within @ matched_pairs\n"
        )
        with pytest.raises(AuditBoundError):
            clause_signatures(basis_from_contract(with_event), [many_runs])

    def test_over_bound_monitor_and_select_leave_no_cyclic_garbage(self):
        # 40 runs per mask, over the exact matcher's bound of 24: the raised
        # error must not hold, through its traceback, a frame that holds it.
        many_runs = [_tiny_case(name, [1, 1, 0] * 40, [0, 1, 1] * 40, risk)
                     for name, risk in (("many", 1.0), ("more", 2.0))]
        contract = parse_contract_text(
            "set tolerance 0.04\nset matcher exact\n"
            "frame on : ref_onset -> N[0.04] pred_onset @ ref_onset\n"
            "event dur : duration_within @ matched_pairs\n"
        )
        basis = basis_from_contract(contract)
        message = r"^instance has 40x40 intervals, bound is 24$"
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                with pytest.raises(AuditBoundError, match=message):
                    monitor(contract, many_runs[0].ref_mask, many_runs[0].pred_mask, H)
                with pytest.raises(AuditBoundError, match=message):
                    select_contract(basis, many_runs)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_event_clauses_reject_a_negative_merge_gap(self):
        basis = replace(basis_from_contract(default_contract(0.04)), merge_gap=-0.02)
        with pytest.raises(ValueError, match="merge gap must be nonnegative"):
            clause_signatures(basis, calibration_cases()[:1])

    def test_risk_ties_impose_no_constraints(self):
        same = [
            _tiny_case("x", [0, 1], [0, 1], 2.0),
            _tiny_case("y", [0, 1], [0, 0], 2.0),
        ]
        basis = basis_from_contract(default_contract(0.04))
        selection = select_contract(basis, same)
        assert selection.feasible
        assert selection.selected == ()


class TestCalibrationFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "calibration.json"
        cases = calibration_cases()
        save_calibration(cases, path)
        loaded = load_calibration(path)
        assert loaded == cases
        for case in loaded + cases:
            assert {type(v) for v in case.ref_mask + case.pred_mask} == {int}


class TestProfiles:
    def _vector(self, tolerance=0.08):
        ref, pred, h = worked_trace()
        return monitor(default_contract(tolerance), ref, pred, h).guards

    def test_uniform_weights_equal_mean_logic(self):
        vector = self._vector()
        got = profile_score(vector, PROFILES["balanced"])
        assert got.score == pytest.approx(mean_logic(vector))

    def test_single_weight_selects_that_coordinate(self):
        vector = self._vector()
        got = profile_score(vector, {"missing_guard": 1.0})
        assert got.score == vector.get("missing_guard").score
        assert got.lead_coordinate == "missing_guard"

    def test_profiles_can_cross_leaders(self):
        # truncated support loses under support_recall but keeps event
        # integrity; fragmentation is the other way around
        from tracecontracts.fixtures import TracePathology, apply_pathology, make_trace
        from tracecontracts.intervals import Interval

        contract = default_contract(0.06)
        ref = make_trace([Interval(1.0, 2.0)], 200, H)
        truncated = apply_pathology(ref, TracePathology("early_release", 0.5), H)
        fragmented = apply_pathology(ref, TracePathology("fragmentation", 3), H)
        vector_a = monitor(contract, ref, truncated, H).guards
        vector_b = monitor(contract, ref, fragmented, H).guards
        support = (
            profile_score(vector_a, PROFILES["support_recall"]).score,
            profile_score(vector_b, PROFILES["support_recall"]).score,
        )
        integrity = (
            profile_score(vector_a, PROFILES["event_integrity"]).score,
            profile_score(vector_b, PROFILES["event_integrity"]).score,
        )
        assert support[1] > support[0]
        assert integrity[0] > integrity[1]

    def test_zero_and_unknown_weights_rejected(self):
        vector = self._vector()
        with pytest.raises(ValueError):
            profile_score(vector, {"onset_guard": 0.0})
        with pytest.raises(ValueError):
            profile_score(vector, {"not_a_guard": 1.0})
