"""Risk-ordered contract selection over a calibration set.

Clause signatures over the calibration cases drive duplicate collapse
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

from .contracts import Contract, EventClause, FrameClause, _monitor_stack
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


@dataclass(frozen=True)
class BasisClause:
    """A candidate clause with its source position and monitor cost."""

    clause: FrameClause | EventClause
    source_order: int
    cost: int

    @property
    def name(self) -> str:
        return self.clause.name


@dataclass(frozen=True)
class CandidateBasis:
    """Ordered candidate clauses plus the settings used to evaluate them."""

    clauses: tuple[BasisClause, ...]
    tolerance: float
    merge_gap: float = 0.0
    matcher: str = "greedy"


def clause_cost(clause: FrameClause | EventClause) -> int:
    """Monitor cost in evaluation nodes; event clauses count their two sides."""
    if isinstance(clause, FrameClause):
        return node_count(clause.formula) + node_count(clause.obligation)
    return 2


def basis_from_contract(contract: Contract) -> CandidateBasis:
    clauses = tuple(
        BasisClause(clause, order, clause_cost(clause))
        for order, clause in enumerate(contract.clauses)
    )
    return CandidateBasis(clauses, contract.tolerance, contract.merge_gap, contract.matcher)


def clause_value(basis: CandidateBasis, clause: BasisClause, case: CalibrationCase) -> float:
    """Monitor one clause on one calibration case."""
    return _case_values(replace(basis, clauses=(clause,)), [case])[0][clause.source_order]


def _case_values(
    basis: CandidateBasis, cases: Sequence[CalibrationCase]
) -> list[dict[int, float]]:
    """Every basis clause's value on each case, by source order.

    The basis is monitored as a contract of its clauses and settings, so
    each value is the case's :func:`contracts.monitor` coordinate, and bad
    settings raise :class:`contracts.ContractError`; the silence radius,
    which no clause reads, is the tolerance, valid for any valid one.  Each
    maximal run of consecutive cases of one length and frame step is one
    stacked :func:`contracts._monitor_stack` pass, so errors come in case
    order; every case's masks are checked before any pass.  A basis without
    event clauses is matched greedily, as no coordinate reads the matching,
    so it never meets the exact matcher's bound.
    """
    clauses = tuple(c.clause for c in basis.clauses)
    contract = Contract(basis.tolerance, basis.tolerance, basis.merge_gap, basis.matcher, clauses)
    if not any(isinstance(clause, EventClause) for clause in clauses):
        contract = replace(contract, matcher="greedy")
    stacks = []
    for (n, h), run in groupby(cases, key=lambda case: (len(case.ref_mask), case.frame_step)):
        run = list(run)
        stacks.append((h, *(_as_mask(np.ravel([getattr(case, side) for case in run]), side)
                            .reshape(len(run), n) for side in ("ref_mask", "pred_mask"))))
    out = []
    for h, ref, pred in stacks:
        _, results = _monitor_stack(contract, ref, pred, h, [None] * len(ref))
        out.extend({c.source_order: score for c, score in zip(basis.clauses, result.guards.scores)}
                   for result in results)
    return out


@dataclass(frozen=True)
class ClauseSignature:
    """Clause values across the calibration cases, reproducible by re-monitoring."""

    clause_id: int
    values: tuple[float, ...]


def clause_signatures(
    basis: CandidateBasis, cases: Sequence[CalibrationCase]
) -> tuple[ClauseSignature, ...]:
    per_case = _case_values(basis, cases)
    return tuple(
        ClauseSignature(clause.source_order, tuple(case[clause.source_order] for case in per_case))
        for clause in basis.clauses
    )


@dataclass(frozen=True)
class ObservationalClass:
    """Clauses indistinguishable on every calibration case."""

    members: tuple[int, ...]  # source orders, ascending
    values: tuple[float, ...]
    constant: bool

    @property
    def representative(self) -> int:
        return self.members[0]


def observational_classes(
    basis: CandidateBasis, cases: Sequence[CalibrationCase]
) -> tuple[ObservationalClass, ...]:
    """Partition clauses by exact equality of their calibration signatures."""
    return _classes_of(clause_signatures(basis, cases))


def _classes_of(signatures: Sequence[ClauseSignature]) -> tuple[ObservationalClass, ...]:
    groups: dict[tuple[float, ...], list[int]] = {}
    for signature in signatures:
        groups.setdefault(signature.values, []).append(signature.clause_id)
    classes = []
    for values, members in groups.items():
        constant = len(set(values)) <= 1
        classes.append(ObservationalClass(tuple(sorted(members)), values, constant))
    classes.sort(key=lambda c: c.representative)
    return tuple(classes)


def retained_basis(
    basis: CandidateBasis, cases: Sequence[CalibrationCase]
) -> CandidateBasis:
    """Lowest-source-order representative per nonconstant class.

    Constant clauses cannot separate any risk pair and are removed.
    """
    return _retained_of(basis, observational_classes(basis, cases))


def _retained_of(
    basis: CandidateBasis, classes: Sequence[ObservationalClass]
) -> CandidateBasis:
    keep = {cls.representative for cls in classes if not cls.constant}
    return replace(basis, clauses=tuple(c for c in basis.clauses if c.source_order in keep))


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the separating-contract search.

    ``certificate`` maps each strict risk pair (low id, high id) to the
    witnessing clause's source order.  Infeasibility is a result, not an
    error: ``unseparated_pair`` names a strict pair no candidate clause
    separates.
    """

    feasible: bool
    selected: tuple[BasisClause, ...]
    certificate: tuple[tuple[str, str, int], ...]
    unseparated_pair: tuple[str, str] | None = None


def select_contract(basis: CandidateBasis, cases: Sequence[CalibrationCase]) -> SelectionResult:
    """Lexicographically least separating subset of the basis.

    A subset separates the risk order when for every pair with strictly
    lower risk the lower-risk case scores strictly higher on at least one
    selected clause.  Subsets are compared by (size, total monitor cost,
    sorted source-order tuple); the search enumerates ascending by size.
    """
    return _select_from(basis, cases, clause_signatures(basis, cases))


def _select_from(
    basis: CandidateBasis,
    cases: Sequence[CalibrationCase],
    signatures: Sequence[ClauseSignature],
) -> SelectionResult:
    """:func:`select_contract` from signatures that cover the basis clauses."""
    values = {sig.clause_id: sig.values for sig in signatures}
    constraints: list[tuple[int, int]] = []
    for i, u in enumerate(cases):
        for j, v in enumerate(cases):
            if u.risk < v.risk:
                constraints.append((i, j))
    clause_masks: dict[int, int] = {}
    for clause in basis.clauses:
        mask = 0
        vals = values[clause.source_order]
        for k, (i, j) in enumerate(constraints):
            if vals[i] > vals[j]:
                mask |= 1 << k
        clause_masks[clause.source_order] = mask
    full = (1 << len(constraints)) - 1
    union_all = 0
    for mask in clause_masks.values():
        union_all |= mask
    if union_all != full:
        for k, (i, j) in enumerate(constraints):
            if not (union_all >> k) & 1:
                return SelectionResult(False, (), (), (cases[i].id, cases[j].id))
    best: tuple[int, tuple[int, ...]] | None = None
    best_subset: tuple[BasisClause, ...] = ()
    for size in range(0, len(basis.clauses) + 1):
        for subset in combinations(basis.clauses, size):
            covered = 0
            for clause in subset:
                covered |= clause_masks[clause.source_order]
            if covered != full:
                continue
            key = (
                sum(c.cost for c in subset),
                tuple(sorted(c.source_order for c in subset)),
            )
            if best is None or key < best:
                best = key
                best_subset = subset
        if best is not None:
            break
    selected_orders = [c.source_order for c in best_subset]
    certificate = []
    for k, (i, j) in enumerate(constraints):
        witness = next(o for o in selected_orders if (clause_masks[o] >> k) & 1)
        certificate.append((cases[i].id, cases[j].id, witness))
    return SelectionResult(True, best_subset, tuple(certificate))


def _selection(
    basis: CandidateBasis, cases: Sequence[CalibrationCase]
) -> tuple[tuple[ObservationalClass, ...], CandidateBasis, SelectionResult]:
    """:func:`observational_classes`, :func:`retained_basis` and
    :func:`select_contract` over the retained basis, from one pass of
    :func:`clause_signatures`."""
    signatures = clause_signatures(basis, cases)
    classes = _classes_of(signatures)
    retained = _retained_of(basis, classes)
    return classes, retained, _select_from(retained, cases, signatures)


def load_calibration(path) -> list[CalibrationCase]:
    """Calibration set file: JSON array of {id, risk, frame_step, ref_mask, pred_mask}."""
    from .tracefile import read_json

    return _calibration_cases(read_json(path)[0], path)


def _calibration_cases(data, path) -> list[CalibrationCase]:
    """The cases of a parsed calibration file read from ``path``."""
    from .tracefile import TraceFormatError, parse_mask

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
                risk=float(node["risk"]),
                frame_step=float(node["frame_step"]),
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
