"""Finite-universe checks (with the test helpers of ``gen``), risk-ordered
selection, calibration files and risk profiles."""

import gc
import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecontracts.basis import (
    CalibrationCase,
    _selection,
    clause_cost,
    clause_signatures,
    load_calibration,
    observational_classes,
    retained_basis,
    save_calibration,
    select_contract,
)
from tracecontracts.contracts import (
    ContractError,
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

from gen import (
    PROFILES,
    EnumerationBoundError,
    is_separating,
    profile_score,
    satisfiable,
    truth_signature,
)


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


def _with_and_without_events(contract):
    """The contract, and the contract of its frame clauses alone."""
    return contract, replace(contract, clauses=contract.frame_clauses)


class TestObservationalClasses:
    def test_duplicate_clause_lands_in_one_class(self):
        contract = default_contract(0.04)
        # duplicate the onset guard under a new name at the end
        duplicate = replace(contract.clauses[0], name="onset_copy")
        extended = replace(contract, clauses=contract.clauses + (duplicate,))
        cases = calibration_cases()
        classes = observational_classes(extended, cases)
        onset_class = next(c for c in classes if 0 in c.members)
        assert 7 in onset_class.members
        retained = retained_basis(extended, cases)
        assert [c.name for c in retained.clauses].count("onset_copy") == 0
        assert "onset_guard" in [c.name for c in retained.clauses]

    def test_empty_calibration_puts_everything_in_one_constant_class(self):
        contract = default_contract(0.04)
        classes = observational_classes(contract, [])
        assert len(classes) == 1
        assert classes[0].constant
        assert retained_basis(contract, []).clauses == ()

    def test_onset_and_offset_differ_on_the_worked_trace(self):
        ref, pred, _ = worked_trace()
        case = _tiny_case("worked", ref.astype(int), pred.astype(int), 1.0)
        contract = default_contract(0.08)
        signatures = clause_signatures(contract, [case])
        assert signatures[0] != signatures[1]

    def test_all_constant_basis_retains_nothing(self):
        # perfect pairs leave every clause at 1.0 on every case
        perfect = [
            _tiny_case("p1", [0, 1, 1, 0], [0, 1, 1, 0], 1.0),
            _tiny_case("p2", [1, 1, 0, 0], [1, 1, 0, 0], 2.0),
        ]
        contract = default_contract(0.04)
        classes = observational_classes(contract, perfect)
        assert all(cls.constant for cls in classes)
        assert retained_basis(contract, perfect).clauses == ()

    def test_retained_basis_is_idempotent(self):
        contract = default_contract(0.04)
        cases = calibration_cases()
        once = retained_basis(contract, cases)
        twice = retained_basis(once, cases)
        assert twice.clauses == once.clauses


class TestSelection:
    def test_single_pair_single_clause(self):
        low = _tiny_case("good", [0, 1, 1, 0], [0, 1, 1, 0], 1.0)
        high = _tiny_case("bad", [0, 1, 1, 0], [0, 0, 0, 0], 2.0)
        contract = default_contract(0.04)
        selection = select_contract(contract, [low, high])
        assert selection.feasible
        assert len(selection.selected) == 1

    def test_unseparable_pair_reported(self):
        low = _tiny_case("u", [0, 1], [0, 1], 1.0)
        high = _tiny_case("v", [0, 1], [0, 1], 2.0)  # identical behavior, higher risk
        contract = default_contract(0.04)
        selection = select_contract(contract, [low, high])
        assert not selection.feasible
        assert selection.unseparated_pair == ("u", "v")

    def test_empty_calibration_selects_the_empty_contract(self):
        contract = default_contract(0.04)
        selection = select_contract(contract, [])
        assert selection.feasible
        assert selection.selected == ()

    def test_nine_pathology_calibration(self):
        cases = calibration_cases()
        contract = default_contract(0.04)
        values = dict(enumerate(clause_signatures(contract, cases)))
        # the full seven-guard set separates the declared risk order
        assert is_separating(values, cases, list(values))
        retained = retained_basis(contract, cases)
        assert len(retained.clauses) == 7  # all guards distinct and nonconstant here
        selection = select_contract(retained, cases)
        assert selection.feasible
        order_of = {c.name: k for k, c in enumerate(contract.clauses)}
        selected_ids = [order_of[c.name] for c in selection.selected]
        assert is_separating(values, cases, selected_ids)
        # independent brute-force check of lexicographic minimality
        clause_list = list(retained.clauses)
        best = None
        for size in range(len(clause_list) + 1):
            for subset in itertools.combinations(clause_list, size):
                if is_separating(values, cases, [order_of[c.name] for c in subset]):
                    key = (
                        len(subset),
                        sum(clause_cost(c) for c in subset),
                        tuple(sorted(order_of[c.name] for c in subset)),
                    )
                    if best is None or key < best:
                        best = key
            if best is not None:
                break
        assert best is not None
        got_key = (
            len(selection.selected),
            sum(clause_cost(c) for c in selection.selected),
            tuple(sorted(selected_ids)),
        )
        assert got_key == best
        # certificate witnesses are real
        for low_id, high_id, order in selection.certificate:
            i = next(k for k, c in enumerate(cases) if c.id == low_id)
            j = next(k for k, c in enumerate(cases) if c.id == high_id)
            full_order = order_of[retained.clauses[order].name]
            assert values[full_order][i] > values[full_order][j]

    def test_signatures_read_the_monitor_coordinates(self):
        cases = calibration_cases()
        contract = default_contract(0.04)
        signatures = clause_signatures(contract, cases)
        for k, case in enumerate(cases):
            result = monitor(contract, case.ref_mask, case.pred_mask, case.frame_step)
            assert tuple(sig[k] for sig in signatures) == result.guards.scores

    def test_frame_only_exact_basis_never_runs_the_matcher(self):
        # 30 runs per mask: more than the exact matcher's bound of 24
        many_runs = _tiny_case("many", [1, 1, 0] * 30, [0, 1, 1] * 30, 1.0)
        contract = parse_contract_text(
            "set tolerance 0.04\nset matcher exact\n"
            "frame on : ref_onset -> N[0.04] pred_onset @ ref_onset\n"
        )
        (signature,) = clause_signatures(contract, [many_runs])
        assert signature == (1.0,)
        with_event = parse_contract_text(
            contract_to_text(contract) + "event dur : duration_within @ matched_pairs\n"
        )
        with pytest.raises(AuditBoundError):
            clause_signatures(with_event, [many_runs])

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
        message = r"^instance has 40x40 intervals, bound is 24$"
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                with pytest.raises(AuditBoundError, match=message):
                    monitor(contract, many_runs[0].ref_mask, many_runs[0].pred_mask, H)
                with pytest.raises(AuditBoundError, match=message):
                    select_contract(contract, many_runs)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_event_clauses_reject_a_negative_merge_gap(self):
        # A contract's settings are checked with or without event clauses.
        cases = calibration_cases()[:1]
        for contract in _with_and_without_events(default_contract(0.04)):
            with pytest.raises(ContractError, match="merge gap must be nonnegative"):
                clause_signatures(replace(contract, merge_gap=-0.02), cases)
            for tolerance in (0.0, -0.04, math.inf, math.nan):
                with pytest.raises(ContractError, match="tolerance must be positive and finite"):
                    clause_signatures(replace(contract, tolerance=tolerance), cases)

    def test_an_unknown_basis_matcher_is_refused(self):
        # 30 runs per mask, over the exact matcher's bound of 24: an unknown
        # policy must not run as the exact matcher.
        many_runs = _tiny_case("many", [1, 1, 0] * 30, [0, 1, 1] * 30, 1.0)
        for candidate in _with_and_without_events(default_contract(0.04)):
            with pytest.raises(ContractError, match="^unknown matcher policy 'foo'$"):
                clause_signatures(replace(candidate, matcher="foo"), [many_runs])

    def test_errors_come_in_case_order_across_interleaved_lengths(self):
        # 120, 90 and 120 frames with 20, 30 and 40 runs per mask: the first
        # over-bound case in order is the 90-frame one, between two cases of
        # another length.  A bad mask is refused before any case is monitored.
        def case(name, runs, n):
            pad = [0] * (n - 3 * runs)
            return _tiny_case(name, [1, 1, 0] * runs + pad, [0, 1, 1] * runs + pad, 1.0)

        cases = [case("a", 20, 120), case("b", 30, 90), case("c", 40, 120)]
        contract = parse_contract_text(
            "set tolerance 0.04\nset matcher exact\n"
            "frame on : ref_onset -> N[0.04] pred_onset @ ref_onset\n"
            "event dur : duration_within @ matched_pairs\n"
        )
        with pytest.raises(AuditBoundError, match=r"^instance has 30x30 intervals, bound is 24$"):
            clause_signatures(contract, cases)
        bad = replace(cases[0], id="bad", pred_mask=(2,) * 120)
        with pytest.raises(ValueError, match="pred_mask must contain only 0/1 values"):
            clause_signatures(contract, cases + [bad])

    def test_risk_ties_impose_no_constraints(self):
        same = [
            _tiny_case("x", [0, 1], [0, 1], 2.0),
            _tiny_case("y", [0, 1], [0, 0], 2.0),
        ]
        contract = default_contract(0.04)
        selection = select_contract(contract, same)
        assert selection.feasible
        assert selection.selected == ()


# Candidate clauses: the default guards at three tolerances, so that equal
# radii repeat a clause under another name, and a clause that holds wherever
# it is obligated, which is constant on every case.
_POOL = tuple(
    clause for tolerance in (0.02, 0.04, 0.06) for clause in default_contract(tolerance).clauses
) + parse_contract_text(
    "set tolerance 0.04\nframe always : ref_active -> ref_active @ ref_active\n"
).clauses
_SELECTION_CONTRACTS = st.lists(st.sampled_from(_POOL), max_size=8).map(
    lambda clauses: replace(default_contract(0.04), clauses=tuple(
        replace(clause, name=f"c{k}") for k, clause in enumerate(clauses)
    ))
)


@st.composite
def _selection_case(draw, index):
    """A reference of a few runs within 40 frames, and a prediction that
    shifts it and flips up to two spans of it.  A case without damage is
    at risk 1 and any other at risk 2 or 3, so cases tie, and a case whose
    damage no clause sees is unseparable."""
    runs = draw(st.lists(st.integers(1, 8), max_size=8))
    ref = [k % 2 for k, length in enumerate(runs) for _ in range(length)][:40]
    shift = draw(st.integers(-6, 6))
    spans = draw(st.lists(st.tuples(st.integers(0, 39), st.integers(1, 6)), max_size=2))
    flipped = {t for start, length in spans for t in range(start, start + length)}
    pred = [ref[min(max(t - shift, 0), len(ref) - 1)] ^ (t in flipped) for t in range(len(ref))]
    risk = 1.0 if pred == ref else draw(st.sampled_from((2.0, 3.0)))
    h = draw(st.sampled_from((0.01, 0.02)))
    return CalibrationCase(f"k{index}", tuple(ref), tuple(pred), risk, h)


_SELECTION_CASES = st.integers(0, 6).flatmap(
    lambda count: st.tuples(*(_selection_case(i) for i in range(count))).map(list)
)


def _least_separating(contract, values, cases, orders):
    """Brute force: the least separating subset of ``orders`` by (size,
    summed clause cost, sorted positions), or ``None``."""
    keys = [
        (size, sum(clause_cost(contract.clauses[k]) for k in subset), subset)
        for size in range(len(orders) + 1)
        for subset in itertools.combinations(orders, size)
        if is_separating(values, cases, subset)
    ]
    return min(keys, default=None)


@settings(max_examples=80, deadline=None)
@given(_SELECTION_CONTRACTS, _SELECTION_CASES)
def test_selection_is_the_lexicographic_minimum(contract, cases):
    values = dict(enumerate(clause_signatures(contract, cases)))
    orders = tuple(range(len(contract.clauses)))
    pairs = [(i, j) for i, u in enumerate(cases) for j, v in enumerate(cases) if u.risk < v.risk]
    selection = select_contract(contract, cases)
    best = _least_separating(contract, values, cases, orders)
    if best is None:
        assert not selection.feasible and selection.selected == () == selection.certificate
        i, j = next((i, j) for i, j in pairs if not any(values[k][i] > values[k][j] for k in orders))
        assert selection.unseparated_pair == (cases[i].id, cases[j].id)
    else:
        assert selection.feasible and selection.unseparated_pair is None
        selected = tuple(contract.clauses.index(clause) for clause in selection.selected)
        assert (len(selected), sum(map(clause_cost, selection.selected)), selected) == best
        assert [(low, high) for low, high, _ in selection.certificate] == [
            (cases[i].id, cases[j].id) for i, j in pairs
        ]
        for (i, j), (_, _, witness) in zip(pairs, selection.certificate):
            assert witness in selected and values[witness][i] > values[witness][j]
    classes, kept, retained_selection = _selection(contract, cases)
    assert kept == tuple(sorted(cls.representative for cls in classes if not cls.constant))
    kept_best = _least_separating(contract, values, cases, kept)
    assert retained_selection.feasible == (kept_best is not None) == (best is not None)
    if kept_best is not None:
        assert tuple(contract.clauses.index(c) for c in retained_selection.selected) == kept_best[2]


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
