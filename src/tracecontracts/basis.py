"""Risk-ordered contract selection over a calibration set.

The candidates are a contract's clauses; a clause's source order is its
position in that contract, and its cost is :func:`clause_cost`.  Clause
signatures over the calibration cases drive duplicate collapse
(observational equivalence), retained-basis construction, and the search
for the lexicographically least separating contract under (coordinate
count, monitor cost, source order).  A calibration set is a JSON file
that :func:`save_calibration` writes and :func:`load_calibration` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations, groupby
from typing import Sequence

import numpy as np

from .contracts import Contract, EventClause, FrameClause, _monitor
from .frames import _as_mask, _check_frame_step
from .parser import node_count


@dataclass(frozen=True)
class CalibrationCase:
    """One trace pair with its declared risk value (higher = riskier)."""

    id: str
    ref_mask: tuple[int, ...]
    pred_mask: tuple[int, ...]
    risk: float
    frame_step: float

    def __post_init__(self) -> None:
        if len(self.ref_mask) != len(self.pred_mask):
            raise ValueError(f"case {self.id!r}: mask lengths differ")
        if math.isnan(self.risk):
            raise ValueError(f"case {self.id!r}: risk is NaN, which orders against no case")
        _check_frame_step(self.frame_step)


def clause_cost(clause: FrameClause | EventClause) -> int:
    """Monitor cost in evaluation nodes; event clauses count their two sides."""
    if isinstance(clause, FrameClause):
        return node_count(clause.formula) + node_count(clause.obligation)
    return 2


def clause_value(
    contract: Contract, clause: FrameClause | EventClause, case: CalibrationCase
) -> float:
    """Monitor one clause, under the contract's settings, on one calibration case."""
    return _case_values(replace(contract, clauses=(clause,)), [case])[0][0]


def _case_values(
    contract: Contract, cases: Sequence[CalibrationCase]
) -> list[tuple[float, ...]]:
    """Every clause's value on each case, in clause order.

    Each value is the case's :func:`contracts.monitor` coordinate.  Each
    maximal run of consecutive cases of one length and frame step is one
    batched :func:`contracts._monitor` pass, so errors come in case
    order; every case's masks are checked before any pass.  A contract
    without event clauses is matched greedily, as no coordinate reads the
    matching, so it never meets the exact matcher's bound.
    """
    if not any(isinstance(clause, EventClause) for clause in contract.clauses):
        contract = replace(contract, matcher="greedy")
    stacks = []
    for (n, h), run in groupby(cases, key=lambda case: (len(case.ref_mask), case.frame_step)):
        run = list(run)
        stacks.append((h, *(_as_mask(np.ravel([getattr(case, side) for case in run]), side)
                            .reshape(len(run), n) for side in ("ref_mask", "pred_mask"))))
    out = []
    for h, ref, pred in stacks:
        _, results = _monitor([contract], zip(ref, pred), h, [None] * len(ref))
        out.extend(result.guards.scores for result in results)
    return out


def clause_signatures(
    contract: Contract, cases: Sequence[CalibrationCase]
) -> tuple[tuple[float, ...], ...]:
    """Each clause's values across the calibration cases, in contract order;
    reproducible by re-monitoring."""
    per_case = _case_values(contract, cases)
    return tuple(tuple(case[order] for case in per_case) for order in range(len(contract.clauses)))


@dataclass(frozen=True)
class ObservationalClass:
    """Clauses indistinguishable on every calibration case."""

    members: tuple[int, ...]  # positions in the contract, ascending
    values: tuple[float, ...]
    constant: bool

    @property
    def representative(self) -> int:
        return self.members[0]


def observational_classes(
    contract: Contract, cases: Sequence[CalibrationCase]
) -> tuple[ObservationalClass, ...]:
    """Partition clauses by exact equality of their calibration signatures."""
    return _classes_of(clause_signatures(contract, cases))


def _classes_of(signatures: Sequence[tuple[float, ...]]) -> tuple[ObservationalClass, ...]:
    """The clause positions grouped by signature; a class's members ascend,
    and the classes come in order of their first member."""
    groups: dict[tuple[float, ...], list[int]] = {}
    for order, values in enumerate(signatures):
        groups.setdefault(values, []).append(order)
    return tuple(ObservationalClass(tuple(members), values, len(set(values)) <= 1)
                 for values, members in groups.items())


def _kept(classes: Sequence[ObservationalClass]) -> tuple[int, ...]:
    """The representative of each nonconstant class, ascending."""
    return tuple(sorted(cls.representative for cls in classes if not cls.constant))


def retained_basis(contract: Contract, cases: Sequence[CalibrationCase]) -> Contract:
    """The contract of the first clause of each nonconstant class, in order.

    Constant clauses cannot separate any risk pair and are removed.
    """
    kept = _kept(observational_classes(contract, cases))
    return replace(contract, clauses=tuple(contract.clauses[order] for order in kept))


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the separating-contract search.

    ``certificate`` maps each strict risk pair (low id, high id) to the
    witnessing clause's position in the contract.  Infeasibility is a
    result, not an error: ``unseparated_pair`` names a strict pair no
    candidate clause separates.
    """

    feasible: bool
    selected: tuple[FrameClause | EventClause, ...]
    certificate: tuple[tuple[str, str, int], ...]
    unseparated_pair: tuple[str, str] | None = None


def select_contract(contract: Contract, cases: Sequence[CalibrationCase]) -> SelectionResult:
    """Lexicographically least separating subset of the contract's clauses.

    A subset separates the risk order when for every pair with strictly
    lower risk the lower-risk case scores strictly higher on at least one
    selected clause.  Subsets are compared by (size, total
    :func:`clause_cost`, sorted positions in the contract); the search
    enumerates ascending by size.
    """
    orders = range(len(contract.clauses))
    return _select_from(contract, orders, cases, clause_signatures(contract, cases))


def _select_from(
    contract: Contract,
    orders: Sequence[int],
    cases: Sequence[CalibrationCase],
    signatures: Sequence[tuple[float, ...]],
) -> SelectionResult:
    """:func:`select_contract` over the clauses at the ascending positions
    ``orders``, from the signatures of all of the contract's clauses."""
    constraints: list[tuple[int, int]] = []
    for i, u in enumerate(cases):
        for j, v in enumerate(cases):
            if u.risk < v.risk:
                constraints.append((i, j))
    clause_masks: dict[int, int] = {}
    for order in orders:
        mask = 0
        vals = signatures[order]
        for k, (i, j) in enumerate(constraints):
            if vals[i] > vals[j]:
                mask |= 1 << k
        clause_masks[order] = mask
    full = (1 << len(constraints)) - 1
    union_all = 0
    for mask in clause_masks.values():
        union_all |= mask
    if union_all != full:
        for k, (i, j) in enumerate(constraints):
            if not (union_all >> k) & 1:
                return SelectionResult(False, (), (), (cases[i].id, cases[j].id))
    cost = {order: clause_cost(contract.clauses[order]) for order in orders}
    best: tuple[int, tuple[int, ...]] | None = None
    for size in range(0, len(orders) + 1):
        for subset in combinations(orders, size):
            covered = 0
            for order in subset:
                covered |= clause_masks[order]
            if covered != full:
                continue
            key = (sum(cost[order] for order in subset), subset)
            if best is None or key < best:
                best = key
        if best is not None:
            break
    selected_orders = best[1]
    certificate = []
    for k, (i, j) in enumerate(constraints):
        witness = next(o for o in selected_orders if (clause_masks[o] >> k) & 1)
        certificate.append((cases[i].id, cases[j].id, witness))
    selected = tuple(contract.clauses[order] for order in selected_orders)
    return SelectionResult(True, selected, tuple(certificate))


def _selection(
    contract: Contract, cases: Sequence[CalibrationCase]
) -> tuple[tuple[ObservationalClass, ...], tuple[int, ...], SelectionResult]:
    """:func:`observational_classes`, the positions :func:`retained_basis`
    keeps and :func:`select_contract` over them, from one pass of
    :func:`clause_signatures`."""
    signatures = clause_signatures(contract, cases)
    classes = _classes_of(signatures)
    kept = _kept(classes)
    return classes, kept, _select_from(contract, kept, cases, signatures)


def load_calibration(path) -> list[CalibrationCase]:
    """Calibration set file: JSON array of {id, risk, frame_step, ref_mask, pred_mask}."""
    from .tracefile import read_json

    return _calibration_cases(read_json(path)[0], path)


def _calibration_cases(data, path) -> list[CalibrationCase]:
    """The cases of a parsed calibration file read from ``path``."""
    from .tracefile import TraceFormatError, json_number, parse_mask

    if not isinstance(data, list):
        raise TraceFormatError(f"{path}: expected a JSON array of cases")
    cases, ids = [], set()
    for index, node in enumerate(data):
        context = f"{path}[{index}]"
        if not isinstance(node, dict):
            raise TraceFormatError(f"{context}: expected an object")
        if not isinstance(node.get("id", ""), str):
            raise TraceFormatError(f"{context}.id: expected a string")
        try:
            case = CalibrationCase(
                id=node["id"],
                ref_mask=tuple(parse_mask(node["ref_mask"], context).view(np.uint8).tolist()),
                pred_mask=tuple(parse_mask(node["pred_mask"], context).view(np.uint8).tolist()),
                risk=json_number(node["risk"], context, "risk must be a JSON number, not NaN"),
                frame_step=json_number(
                    node["frame_step"], context, "frame_step must be a JSON number"
                ),
            )
        except KeyError as exc:
            raise TraceFormatError(f"{context}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(f"{context}: {exc}") from None
        if case.id in ids:
            raise TraceFormatError(f"{context}: case id {case.id!r} repeated")
        ids.add(case.id)
        cases.append(case)
    return cases


def save_calibration(cases: Sequence[CalibrationCase], path) -> None:
    import json

    from .tracefile import mask_to_string

    data = [
        {
            "id": case.id,
            "risk": case.risk,
            "frame_step": case.frame_step,
            "ref_mask": mask_to_string(case.ref_mask),
            "pred_mask": mask_to_string(case.pred_mask),
        }
        for case in cases
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
