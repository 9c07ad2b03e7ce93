"""Finite-universe theory helpers and risk-ordered contract selection.

Truth signatures enumerate every Boolean environment over a small atom
set and frame count, so formula equivalence and satisfiability are
decided exactly on that universe.  Clause signatures over a calibration
set drive duplicate collapse (observational equivalence), retained-basis
construction, and the search for the lexicographically least separating
contract under (coordinate count, monitor cost, source order).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .contracts import Contract, EventClause, FrameClause, _event_clause, _trace_runs
from .frames import _as_mask, _check_frame_step, _edge_atoms, _stacked_scores, share_subformulas
from .intervals import AuditBoundError, _match
from .parser import Formula, node_count

# Enumeration ceiling: 2**(atoms * frames) environments.
MAX_UNIVERSE_BITS = 20


class EnumerationBoundError(Exception):
    """The requested universe exceeds the enumeration ceiling."""


def _universe(atoms: Sequence[str], n: int) -> dict[str, np.ndarray]:
    """All 2**(a*n) environments stacked row-wise per atom.

    Environment ``e`` assigns atom ``j`` (sorted order) at frame ``i`` the
    bit ``j * n + i`` of ``e``.
    """
    names = sorted(atoms)
    bits = len(names) * n
    if bits > MAX_UNIVERSE_BITS:
        raise EnumerationBoundError(
            f"universe needs 2**{bits} environments, ceiling is 2**{MAX_UNIVERSE_BITS}"
        )
    count = 1 << bits
    env_ids = np.arange(count, dtype=np.int64)
    stacked: dict[str, np.ndarray] = {}
    for j, name in enumerate(names):
        shifts = j * n + np.arange(n, dtype=np.int64)
        stacked[name] = ((env_ids[:, None] >> shifts[None, :]) & 1).astype(bool)
    return stacked


def truth_signature(formula: Formula, atoms: Sequence[str], n: int, h: float) -> bytes:
    """Concatenated valuation over every environment, canonically packed.

    Two formulas are equivalent on the universe iff their signatures are
    equal byte for byte.
    """
    plan = share_subformulas([formula], h)
    stacked = _universe(atoms, n)
    if n == 0:
        return b""
    values = plan.evaluate(stacked)[formula]
    return np.packbits(values.reshape(-1).astype(np.uint8)).tobytes()


def satisfiable(formula: Formula, atoms: Sequence[str], n: int, h: float) -> bool:
    """True iff some environment in the universe yields a true frame: some
    bit of the truth signature is set."""
    return any(truth_signature(formula, atoms, n, h))


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

    Cases of one length and frame step are the groups of one batched pass:
    their masks are stacked, their frame formulas planned and evaluated
    once, and their runs matched in one pass.  A basis without event
    clauses never runs the matcher.  A case's matcher bound error is raised
    in case order, before the event clauses of later cases are scored.
    """
    frame = [c for c in basis.clauses if isinstance(c.clause, FrameClause)]
    event = [c for c in basis.clauses if isinstance(c.clause, EventClause)]
    out: list[dict[int, float]] = [{} for _ in cases]
    stacks: dict[tuple[int, float], list[int]] = {}
    for index, case in enumerate(cases):
        stacks.setdefault((len(case.ref_mask), case.frame_step), []).append(index)
    matched = {}
    for (n, h), members in stacks.items():
        ref, pred = (
            _as_mask(np.array([getattr(cases[i], side) for i in members]).ravel(), side)
            .reshape(len(members), n)
            for side in ("ref_mask", "pred_mask")
        )
        if frame:
            plan = share_subformulas(
                (f for c in frame for f in (c.clause.formula, c.clause.obligation)), h
            )
            values = plan.evaluate(_edge_atoms(ref, pred))
            scratch = np.empty(ref.shape, bool)
            for c in frame:
                scores = _stacked_scores(values[c.clause.formula], values[c.clause.obligation],
                                         scratch)
                for index, value in zip(members, scores):
                    out[index][c.source_order] = value.score
        if event:
            runs = _trace_runs(ref, pred, h, basis.merge_gap)
            [rows] = _match(runs.refs, runs.preds, runs.overlaps, runs.counts, runs.bounds,
                            [basis.tolerance] * len(members), (basis.matcher,))
            for g, (index, row) in enumerate(zip(members, rows)):
                matched[index] = (runs.by_group[g], row)
    for index in sorted(matched):
        (refs, preds), (matching, diffs, extras) = matched[index]
        if isinstance(matching, AuditBoundError):
            # A new error, so that no traceback holds this frame and, in it, the error.
            raise AuditBoundError(*matching.args)
        for c in event:
            value, _ = _event_clause(c.clause, refs, preds, basis.tolerance, None, diffs, extras)
            out[index][c.source_order] = value.score
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
    clauses = tuple(c for c in basis.clauses if c.source_order in keep)
    return CandidateBasis(clauses, basis.tolerance, basis.merge_gap, basis.matcher)


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
    cases = []
    for index, node in enumerate(data):
        context = f"{path}[{index}]"
        if not isinstance(node, dict):
            raise TraceFormatError(f"{context}: expected an object")
        try:
            case = CalibrationCase(
                id=str(node["id"]),
                ref_mask=tuple(parse_mask(node["ref_mask"], context).view(np.uint8).tolist()),
                pred_mask=tuple(parse_mask(node["pred_mask"], context).view(np.uint8).tolist()),
                risk=float(node["risk"]),
                frame_step=float(node["frame_step"]),
            )
        except KeyError as exc:
            raise TraceFormatError(f"{context}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(f"{context}: {exc}") from None
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


@dataclass(frozen=True)
class ProfileScore:
    score: float
    lead_coordinate: str


# Example risk profiles over the default guard names; weights are relative.
PROFILES: dict[str, dict[str, float]] = {
    "balanced": {
        "onset_guard": 1.0,
        "offset_guard": 1.0,
        "missing_guard": 1.0,
        "spurious_guard": 1.0,
        "silence_guard": 1.0,
        "duration_guard": 1.0,
        "fragmentation_guard": 1.0,
    },
    "support_recall": {"missing_guard": 3.0, "onset_guard": 1.0, "offset_guard": 1.0},
    "edge_timing": {"onset_guard": 3.0, "offset_guard": 2.0},
    "silence_protection": {"silence_guard": 3.0, "spurious_guard": 2.0},
    "event_integrity": {"fragmentation_guard": 3.0, "duration_guard": 2.0},
}


def profile_score(vector, weights: Mapping[str, float]) -> ProfileScore:
    """Normalized weighted mean of the guard vector under a risk profile.

    The lead coordinate (largest weight, first in vector order on ties)
    is reported alongside the scalar.
    """
    names = set(vector.names)
    unknown = set(weights) - names
    if unknown:
        raise ValueError(f"weights name unknown coordinates: {sorted(unknown)}")
    if any(w < 0.0 for w in weights.values()):
        raise ValueError("weights must be nonnegative")
    total = sum(weights.values())
    if total <= 0.0:
        raise ValueError("weights must not all be zero")
    value = sum(weights.get(c.name, 0.0) * c.score for c in vector) / total
    max_weight = max(weights.values())
    lead = next(name for name in vector.names if weights.get(name, 0.0) == max_weight)
    return ProfileScore(float(value), lead)
