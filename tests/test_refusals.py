"""Input refusals that the module tests do not reach: each bad input
raises its declared exception type with its exact message."""

import numpy as np
import pytest

from tracecontracts.basis import CalibrationCase
from tracecontracts.contracts import (
    ContractSyntaxError,
    GuardCoordinate,
    GuardVector,
    default_contract,
    monitor,
    monitor_classes,
    parse_contract_text,
    tolerance_sweep,
)
from tracecontracts.fixtures import make_trace
from tracecontracts.frames import TraceEnvironment
from tracecontracts.intervals import Interval, Matching, candidate_table
from tracecontracts.lexer import SourceSpan, Token, TokenKind

ONE_ACTIVE = np.array([False, True, True, False])
EIGHT_ACTIVE = np.ones(8, bool)
CONTRACT = default_contract(0.04)

REFUSALS = {
    "calibration case with unequal masks": (
        lambda: CalibrationCase("a", (0, 1), (0, 1, 1), 1.0, 0.01),
        ValueError, "case 'a': mask lengths differ",
    ),
    "unknown event predicate": (
        lambda: parse_contract_text("set tolerance 0.04\nevent e : bogus @ matched_pairs\n"),
        ContractSyntaxError, "line 2: unknown event predicate 'bogus'",
    ),
    "unknown line keyword": (
        lambda: parse_contract_text("set tolerance 0.04\nclause e : x @ x\n"),
        ContractSyntaxError, "line 2: expected 'set', 'frame', or 'event', found 'clause'",
    ),
    "guard vector without the name": (
        lambda: GuardVector((GuardCoordinate("a", "frame", 1.0, 0, 0, 0),)).get("b"),
        KeyError, "'b'",
    ),
    "class monitor without classes": (
        lambda: monitor_classes(CONTRACT, {}, 0.01),
        ValueError, "no classes supplied",
    ),
    "class monitor over classes of two lengths": (
        lambda: monitor_classes(CONTRACT, {"a": (ONE_ACTIVE, ONE_ACTIVE),
                                           "b": (EIGHT_ACTIVE, EIGHT_ACTIVE)}, 0.01),
        ValueError, "mask lengths differ across trace pairs: [4, 8]",
    ),
    "class monitor over a class of two lengths": (
        lambda: monitor_classes(CONTRACT, {"a": (ONE_ACTIVE, ONE_ACTIVE[:2])}, 0.01),
        ValueError, "mask lengths differ: 4 vs 2",
    ),
    "class monitor over a class mask holding a 2": (
        lambda: monitor_classes(CONTRACT, {"a": ([0, 2, 1, 0], ONE_ACTIVE)}, 0.01),
        ValueError, "ref_mask must contain only 0/1 values",
    ),
    "sweep over a mask holding a 2": (
        lambda: tolerance_sweep(CONTRACT, [0, 2, 1, 0], ONE_ACTIVE, 0.01, [0.04]),
        ValueError, "ref_mask must contain only 0/1 values",
    ),
    "sweep without tolerances": (
        lambda: tolerance_sweep(CONTRACT, ONE_ACTIVE, ONE_ACTIVE, 0.01, []),
        ValueError, "no tolerances supplied",
    ),
    "trace of negative length": (
        lambda: make_trace([], -1, 0.01),
        ValueError, "need nonnegative frame count and positive frame step",
    ),
    "two-dimensional mask": (
        lambda: monitor(CONTRACT, np.zeros((2, 3), bool), np.zeros((2, 3), bool), 0.01),
        ValueError, "ref_mask must be one-dimensional, got shape (2, 3)",
    ),
    "environment of negative length": (
        lambda: TraceEnvironment(0.01, -1, {}),
        ValueError, "frame count must be nonnegative, got -1",
    ),
    "candidate table at a zero tolerance": (
        lambda: candidate_table([Interval(0.0, 0.1)], [Interval(0.0, 0.1)], 0.0),
        ValueError, "tolerance must be positive, got 0.0",
    ),
    "span ending before its start": (
        lambda: SourceSpan(3, 2),
        ValueError, "invalid span [3, 2)",
    ),
    "temporal name of an identifier": (
        lambda: Token(TokenKind.IDENTIFIER, "a", SourceSpan(0, 1)).temporal_name,
        ValueError, "not a temporal token: TokenKind.IDENTIFIER",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=list(REFUSALS))
def test_a_bad_input_is_refused_with_its_message(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def test_a_matching_equals_no_other_type():
    matching = Matching(np.array([0]), np.array([0]), "greedy")
    assert matching.__eq__({(0, 0)}) is NotImplemented
    assert matching != {(0, 0)} and matching != "greedy"
    assert matching == Matching(np.array([0]), np.array([0]), "greedy")
