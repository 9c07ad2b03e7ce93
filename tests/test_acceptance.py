"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line after its assertions hold (run with
``pytest tests/test_acceptance.py -s`` to see them).  Tolerances are
stated inline; counts and bounds match the criterion text exactly.
"""

import random
import time

import numpy as np
import pytest

from tracecontracts.basis import clause_signatures, retained_basis, select_contract
from tracecontracts.cli import main
from tracecontracts.contracts import default_contract, monitor, tolerance_sweep
from tracecontracts.fixtures import bridge_fixture, calibration_cases, stress_track, worked_trace
from tracecontracts.frames import TraceEnvironment, evaluate, score
from tracecontracts.intervals import (
    Interval,
    candidates,
    extract_intervals,
    match_exact,
    matcher_audit,
)
from tracecontracts.parser import Atom, Near, format_formula, parse_text
from tracecontracts.streaming import StreamingMonitor
from tracecontracts.tracefile import TraceFile, save_trace

from gen import (
    brute_force_optimum,
    enumerate_formulas,
    is_separating,
    matching_cost,
    naive_evaluate,
    random_env,
    random_formula,
    random_mask,
    table_pairs,
)


def test_01_worked_trace_reproduction():
    started = time.perf_counter()
    ref, pred, h = worked_trace()
    at_60 = monitor(default_contract(0.06), ref, pred, h)
    at_80 = monitor(default_contract(0.08), ref, pred, h)
    assert at_60.guards.get("onset_guard").score == 1.0
    assert at_80.guards.get("offset_guard").score == 0.0
    assert at_60.guards.get("duration_guard").score == 0.0
    assert at_80.guards.get("duration_guard").score == 0.0
    assert at_80.guards.get("silence_guard").score < 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 01 PASS worked trace: onset=1.0@60ms offset=0.0@80ms "
        f"duration=0.0 silence<1.0 in {elapsed:.3f}s"
    )


def test_02_obligation_sample_identity():
    env = TraceEnvironment(
        0.02, 6, {"phi": [1, 0, 1, 0, 1, 1], "obl": [1, 1, 1, 1, 0, 0]}
    )
    result = score(parse_text("phi"), parse_text("obl"), env)
    assert result.obligated == 4
    assert result.satisfied == 2
    assert result.violated == 2
    assert result.score == 0.5
    print("ACCEPTANCE 02 PASS obligation sample: {obligated 4, satisfied 2, violated 2, score 0.5}")


def test_03_partition_property_ten_thousand_pairs():
    rng = np.random.default_rng(303)
    checked = 0
    for _ in range(10_000):
        n = int(rng.integers(0, 65))
        phi = rng.random(n) < rng.random()
        obl = rng.random(n) < rng.random()
        env = TraceEnvironment(0.02, n, {"phi": phi, "obl": obl})
        result = score(Atom("phi"), Atom("obl"), env)
        assert result.satisfied + result.violated == result.obligated
        checked += 1
    assert checked == 10_000
    print("ACCEPTANCE 03 PASS partition identity on 10000 random mask pairs (exact)")


def test_04_neighborhood_monotonicity_thousand_draws():
    rng = random.Random(404)
    for _ in range(1_000):
        h = 0.02
        env = random_env(rng, rng.randint(0, 96), h=h)
        child = random_formula(rng, rng.randint(0, 3), h=h)
        eps = rng.randint(1, 6) * h
        delta = eps + rng.randint(0, 6) * h
        small = evaluate(Near(child, eps), env)
        large = evaluate(Near(child, delta), env)
        assert not (small & ~large).any()
    print("ACCEPTANCE 04 PASS neighborhood monotonicity on 1000 random draws (exact)")


def test_05_offline_streaming_equivalence_thousand_runs():
    rng = random.Random(505)
    for _ in range(1_000):
        h = 0.02
        n = rng.randint(0, 128)
        env = random_env(rng, n, h=h)
        formula = random_formula(rng, rng.randint(0, 4), h=h, max_radius_frames=5)
        offline = [bool(v) for v in evaluate(formula, env)]
        stream = StreamingMonitor(formula, h)
        emissions = []
        for i in range(n):
            emissions.extend(
                stream.step({name: bool(vals[i]) for name, vals in env.atoms.items()})
            )
        emissions.extend(stream.finalize())
        indices = [i for i, _ in emissions]
        assert indices == sorted(set(indices))  # nothing emitted twice
        assert indices == list(range(n))
        assert [v for _, v in emissions] == offline
    print("ACCEPTANCE 05 PASS offline/streaming equivalence on 1000 runs, no revision")


def test_06_prefix_sum_vs_window_scan_oracle():
    rng = random.Random(606)
    for _ in range(1_000):
        env = random_env(rng, rng.randint(0, 96))
        formula = random_formula(rng, rng.randint(0, 4))
        assert [bool(v) for v in evaluate(formula, env)] == naive_evaluate(formula, env)
    print("ACCEPTANCE 06 PASS prefix-sum evaluation equals the window-scan oracle on 1000 cases")


def test_07_matcher_audit_and_exact_optimality():
    case = bridge_fixture()
    refs = extract_intervals(case.ref_mask, case.frame_step)
    preds = extract_intervals(case.pred_mask, case.frame_step)
    audit = matcher_audit(refs, preds, case.epsilon)
    assert len(audit.greedy) == 1
    assert len(audit.exact) == 2
    assert audit.boundary_f1_delta == pytest.approx(0.5)
    for stress in stress_track():
        if stress.pattern not in ("nominal", "split"):
            continue
        srefs = extract_intervals(stress.ref_mask, stress.frame_step)
        spreds = extract_intervals(stress.pred_mask, stress.frame_step)
        saudit = matcher_audit(srefs, spreds, stress.epsilon)
        assert not saudit.changed
        assert saudit.boundary_f1_delta == 0.0
        assert saudit.duration_delta == 0.0
        assert saudit.fragmentation_delta == 0.0
    # exact matcher vs brute force on small random instances
    rng = random.Random(707)
    compared = 0
    for _ in range(400):
        refs = _random_intervals(rng, 4)
        preds = _random_intervals(rng, 4)
        table = candidates(refs, preds, 0.1)
        if not table:
            continue
        pairs = table_pairs(table)
        best_count, best_cost = brute_force_optimum(pairs)
        exact = match_exact(table)
        assert len(exact) == best_count
        assert matching_cost(pairs, exact) == pytest.approx(best_cost)
        compared += 1
    assert compared >= 150
    print(
        f"ACCEPTANCE 07 PASS bridge greedy=1 exact=2 shift=0.500; nominal/split zero deltas; "
        f"exact equals brute force on {compared} instances <=4 per side"
    )


def _random_intervals(rng, max_count):
    cursor = 0.0
    out = []
    for _ in range(rng.randint(0, max_count)):
        cursor += rng.randint(1, 6) * 0.02
        start = cursor
        cursor += rng.randint(1, 10) * 0.02
        out.append(Interval(start, cursor))
    return out


def test_08_tolerance_sweep_mechanics():
    grid = (0.02, 0.04, 0.08, 0.12, 0.16)
    contract = default_contract(0.04)
    frame_names = (
        "onset_guard",
        "offset_guard",
        "missing_guard",
        "spurious_guard",
        "silence_guard",
    )
    rng = random.Random(808)
    for _ in range(100):
        n = rng.randint(1, 150)
        ref = random_mask(rng, n)
        pred = random_mask(rng, n)
        sweep = tolerance_sweep(contract, ref, pred, 0.02, grid)
        for name in frame_names:
            scores = [row.guards.get(name).score for row in sweep.rows]
            assert all(later >= earlier for earlier, later in zip(scores, scores[1:]))
        onset_texts = [row.formula_texts["onset_guard"] for row in sweep.rows]
        assert len(set(onset_texts)) == len(grid)  # reparsed with a changed radius
        for tolerance, text in zip(grid, onset_texts):
            reparsed = parse_text(text)
            assert reparsed.right.radius == pytest.approx(tolerance)
    print(
        "ACCEPTANCE 08 PASS sweep on {20,40,80,120,160} ms: frame guards non-decreasing "
        "over 100 random fixtures; formulas demonstrably re-parsed per tolerance"
    )


def test_09_round_trip_and_unique_parse():
    rng = random.Random(909)
    for _ in range(10_000):
        formula = random_formula(rng, rng.randint(0, 5))
        assert parse_text(format_formula(formula)) == formula
    formulas = enumerate_formulas(2)
    assert len(formulas) == 2810
    rendered = {}
    for formula in formulas:
        text = format_formula(formula)
        assert parse_text(text) == formula
        assert rendered.setdefault(text, formula) == formula
    assert len(rendered) == len(formulas)
    print(
        "ACCEPTANCE 09 PASS 10000 random ASTs round-trip; all 2810 depth-bounded formulas "
        "over 2 atoms have a unique parse per accepted string"
    )


def test_10_selection_with_brute_force_verification():
    cases = calibration_cases()
    contract = default_contract(0.04)
    values = dict(enumerate(clause_signatures(contract, cases)))
    retained = retained_basis(contract, cases)
    again = retained_basis(retained, cases)
    assert again.clauses == retained.clauses
    selection = select_contract(retained, cases)
    assert selection.feasible
    selected_ids = [contract.clauses.index(c) for c in selection.selected]
    assert is_separating(values, cases, selected_ids)  # independent check
    assert is_separating(values, cases, list(range(len(contract.clauses))))
    print(
        "ACCEPTANCE 10 PASS nine-pathology selection is separating (brute-force verified); "
        "retained basis idempotent"
    )


def test_11_report_determinism(tmp_path):
    contract_path = tmp_path / "contract.txt"
    from tracecontracts.contracts import default_contract_text

    contract_path.write_text(default_contract_text(0.08))
    ref, pred, h = worked_trace()
    trace_path = tmp_path / "trace.json"
    save_trace(
        TraceFile("worked", h, classes={"speech": (ref, pred)}, union=(ref, pred)),
        trace_path,
    )
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            ["monitor", str(contract_path), str(trace_path), "--out", str(out), "--classes"]
        )
        assert code == 0
        outputs.append(
            tuple((out / f).read_bytes() for f in ("guard.csv", "witness.csv", "manifest.json"))
        )
    assert outputs[0] == outputs[1]
    print("ACCEPTANCE 11 PASS two cmd_monitor runs on identical inputs are byte-identical")
