"""Contracts: named guard clauses evaluated into a guard vector.

A contract is an ordered list of clauses over a reference/prediction
trace pair.  Frame clauses pair a parsed formula with a parsed obligation
formula and score the formula only where the obligation holds, which
keeps rare-antecedent implications from looking vacuously perfect.
Event clauses average an interval predicate (duration shape, single
coverage, onset latency, class purity) over an interval obligation set
(matched pairs, reference intervals, predicted intervals).

The monitor returns the ordered guard vector first; the unweighted mean
is a display value derived from the same coordinates, never a
replacement for them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import parser as _parser
from .frames import (
    EvaluationPlan,
    ObligationScore,
    TraceEnvironment,
    _as_mask,
    _check_frame_step,
    derive_edge_atoms,
    obligation_score,
    share_subformulas,
)
from .intervals import (
    Interval,
    Matching,
    _overlapping,
    _run_edges,
    boundary_f1,
    candidates,
    covering_counts,
    duration_score,
    extract_intervals,
    fragmentation_score,
    match_exact,
    match_greedy,
    overlap_length,
)
from .lexer import LexError, SourceSpan
from .parser import (
    Atom,
    Formula,
    Implies,
    Near,
    ParseError,
    format_formula,
    parse_text,
    radius_text,
)

_TIME_EPS = 1e-9

EVENT_OBLIGATIONS = ("matched_pairs", "reference_intervals", "predicted_intervals")
EVENT_PREDICATES = ("duration_within", "singly_covered", "latency_window", "overlap_purity")

MATCHER_POLICIES = ("greedy", "exact")

# Default exponential kernel scale for the soft boundary report, seconds.
DEFAULT_SOFT_SCALE = 0.05


class ContractError(Exception):
    """Contract-level misuse (bad clause configuration or evaluation context)."""


class ContractSyntaxError(Exception):
    """A contract file line that does not parse.

    ``span`` is relative to ``line_text`` so callers can render a caret.
    """

    def __init__(
        self,
        message: str,
        line_number: int,
        line_text: str,
        span: SourceSpan | None = None,
    ) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.message = message
        self.line_number = line_number
        self.line_text = line_text
        self.span = span


@dataclass(frozen=True)
class FrameClause:
    name: str
    formula: Formula
    obligation: Formula


@dataclass(frozen=True)
class EventClause:
    name: str
    obligation: str
    predicate: str
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.obligation not in EVENT_OBLIGATIONS:
            raise ContractError(f"unknown event obligation {self.obligation!r}")
        if self.predicate not in EVENT_PREDICATES:
            raise ContractError(f"unknown event predicate {self.predicate!r}")
        for key, value in self.params:
            if not (value > 0.0):
                raise ContractError(f"event parameter {key}={value!r} must be positive")

    def param(self, key: str, default: float) -> float:
        for name, value in self.params:
            if name == key:
                return value
        return default


Clause = FrameClause | EventClause


@dataclass(frozen=True)
class Contract:
    """Tolerance settings plus the ordered clause list."""

    tolerance: float
    silence_radius: float
    merge_gap: float
    matcher: str
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        if not (self.tolerance > 0.0):
            raise ContractError(f"tolerance must be positive, got {self.tolerance!r}")
        if not (0.0 < self.silence_radius <= self.tolerance + _TIME_EPS):
            raise ContractError(
                f"silence radius {self.silence_radius!r} must be in (0, tolerance]"
            )
        if self.merge_gap < 0.0:
            raise ContractError(f"merge gap must be nonnegative, got {self.merge_gap!r}")
        if self.matcher not in MATCHER_POLICIES:
            raise ContractError(f"unknown matcher policy {self.matcher!r}")
        names = [c.name for c in self.clauses]
        if len(names) != len(set(names)):
            raise ContractError("clause names must be unique")

    @property
    def frame_clauses(self) -> tuple[FrameClause, ...]:
        return tuple(c for c in self.clauses if isinstance(c, FrameClause))

    @property
    def event_clauses(self) -> tuple[EventClause, ...]:
        return tuple(c for c in self.clauses if isinstance(c, EventClause))


@dataclass(frozen=True)
class GuardCoordinate:
    """One named contract coordinate with its counts and witness summary.

    ``witness_mean`` is milliseconds for frame and duration clauses and a
    prediction count for fragmentation; ``None`` when no witness is
    defined or computable for the clause.
    """

    name: str
    kind: str
    score: float
    obligated: int
    satisfied: int
    violated: int
    witness_mean: float | None = None


@dataclass(frozen=True)
class GuardVector:
    """Ordered coordinates, one per contract clause, in source order."""

    coordinates: tuple[GuardCoordinate, ...]

    def __iter__(self):
        return iter(self.coordinates)

    def __len__(self) -> int:
        return len(self.coordinates)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.coordinates)

    @property
    def scores(self) -> tuple[float, ...]:
        return tuple(c.score for c in self.coordinates)

    def get(self, name: str) -> GuardCoordinate:
        for coord in self.coordinates:
            if coord.name == name:
                return coord
        raise KeyError(name)


@dataclass(frozen=True)
class WitnessReport:
    """Violation severities beside the Boolean guard values.

    Edge errors are means over obligated reference edges of the distance
    to the nearest predicted edge; edges with no opposite edge at all are
    excluded and counted separately.  Duration differences are per
    matched pair; fragmentation extras are per reference interval and are
    zero exactly when that reference's obligation is satisfied.
    """

    onset_mae_ms: float | None
    offset_mae_ms: float | None
    onset_excluded: int
    offset_excluded: int
    duration_abs_diffs: tuple[float, ...]
    fragmentation_extra_counts: tuple[int, ...]


@dataclass(frozen=True)
class MonitorResult:
    guards: GuardVector
    witnesses: WitnessReport
    ref_intervals: tuple[Interval, ...]
    pred_intervals: tuple[Interval, ...]
    matching: Matching


def default_contract(
    tolerance: float,
    *,
    silence_radius: float | None = None,
    merge_gap: float = 0.0,
    matcher: str = "greedy",
) -> Contract:
    """The seven-coordinate boundary contract at the given tolerance.

    Five parsed frame guards cover edge recall (onset, offset), support
    recall (missing), support precision (spurious), and protected silence
    at a smaller radius; two event guards cover duration shape and event
    decomposition.  The silence radius defaults to half the tolerance
    (radii below one frame step project to one frame on the grid).
    """
    if silence_radius is None:
        silence_radius = tolerance / 2.0
    eps = radius_text(tolerance)
    eps_s = radius_text(silence_radius)
    frame_specs = [
        ("onset_guard", f"ref_onset -> N[{eps}] pred_onset", "ref_onset"),
        ("offset_guard", f"ref_offset -> N[{eps}] pred_offset", "ref_offset"),
        ("missing_guard", f"ref_active -> N[{eps}] pred_active", "ref_active"),
        ("spurious_guard", f"pred_active -> N[{eps}] ref_active", "pred_active"),
        ("silence_guard", f"pred_active -> N[{eps_s}] ref_active", "pred_active"),
    ]
    clauses: list[Clause] = [
        FrameClause(name, parse_text(formula), parse_text(obligation))
        for name, formula, obligation in frame_specs
    ]
    clauses.append(EventClause("duration_guard", "matched_pairs", "duration_within"))
    clauses.append(EventClause("fragmentation_guard", "reference_intervals", "singly_covered"))
    return Contract(tolerance, silence_radius, merge_gap, matcher, tuple(clauses))


def contract_to_text(contract: Contract) -> str:
    """Canonical contract file rendering; parses back to an equal contract."""
    lines = [
        f"set tolerance {radius_text(contract.tolerance)}",
        f"set silence_radius {radius_text(contract.silence_radius)}",
        f"set merge_gap {radius_text(contract.merge_gap) if contract.merge_gap > 0 else '0'}",
        f"set matcher {contract.matcher}",
    ]
    for clause in contract.clauses:
        if isinstance(clause, FrameClause):
            lines.append(
                f"frame {clause.name} : {format_formula(clause.formula)}"
                f" @ {format_formula(clause.obligation)}"
            )
        else:
            params = "".join(
                f" {key}={radius_text(value)}" for key, value in clause.params
            )
            lines.append(
                f"event {clause.name} : {clause.predicate} @ {clause.obligation}{params}"
            )
    return "\n".join(lines) + "\n"


def default_contract_text(tolerance: float, **kwargs) -> str:
    return contract_to_text(default_contract(tolerance, **kwargs))


def parse_contract_text(text: str) -> Contract:
    """Parse the contract file format.

    One clause per line: ``frame <name> : <formula> @ <obligation>`` or
    ``event <name> : <predicate> @ <obligation> [key=value ...]``;
    ``set <key> <value>`` lines configure tolerance, silence_radius,
    merge_gap, and matcher; ``#`` starts a comment.
    """
    settings: dict[str, str] = {}
    clauses: list[Clause] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0]
        if not line.strip():
            continue
        words = line.split()
        keyword = words[0]
        if keyword == "set":
            if len(words) != 3:
                raise ContractSyntaxError("expected 'set <key> <value>'", line_number, raw_line)
            settings[words[1]] = words[2]
            continue
        if keyword not in ("frame", "event"):
            raise ContractSyntaxError(
                f"expected 'set', 'frame', or 'event', found {keyword!r}",
                line_number,
                raw_line,
            )
        head, colon, body = line.partition(":")
        if not colon:
            raise ContractSyntaxError("missing ':' after clause name", line_number, raw_line)
        head_words = head.split()
        if len(head_words) != 2:
            raise ContractSyntaxError(
                "expected exactly one clause name before ':'", line_number, raw_line
            )
        name = head_words[1]
        left, at, right = body.rpartition("@")
        if not at:
            raise ContractSyntaxError("missing '@' obligation separator", line_number, raw_line)
        left_offset = len(head) + 1
        right_offset = left_offset + len(left) + 1
        if keyword == "frame":
            formula = _parse_clause_formula(left, line_number, raw_line, left_offset)
            obligation = _parse_clause_formula(right, line_number, raw_line, right_offset)
            clauses.append(FrameClause(name, formula, obligation))
        else:
            predicate = left.strip()
            fields = right.split()
            if not fields:
                raise ContractSyntaxError("missing event obligation", line_number, raw_line)
            obligation = fields[0]
            params = []
            for item in fields[1:]:
                key, eq, value = item.partition("=")
                if not eq:
                    raise ContractSyntaxError(
                        f"expected key=value parameter, found {item!r}", line_number, raw_line
                    )
                try:
                    params.append((key, float(value)))
                except ValueError:
                    raise ContractSyntaxError(
                        f"invalid numeric value in {item!r}", line_number, raw_line
                    ) from None
            try:
                clauses.append(EventClause(name, obligation, predicate, tuple(params)))
            except ContractError as exc:
                raise ContractSyntaxError(str(exc), line_number, raw_line) from None
    try:
        tolerance = float(settings.get("tolerance", "nan"))
    except ValueError:
        raise ContractSyntaxError("invalid tolerance setting", 0, "") from None
    if math.isnan(tolerance):
        raise ContractSyntaxError("contract must declare 'set tolerance <seconds>'", 0, "")
    silence_radius = float(settings["silence_radius"]) if "silence_radius" in settings else tolerance / 2.0
    merge_gap = float(settings.get("merge_gap", "0"))
    matcher = settings.get("matcher", "greedy")
    try:
        return Contract(tolerance, silence_radius, merge_gap, matcher, tuple(clauses))
    except ContractError as exc:
        raise ContractSyntaxError(str(exc), 0, "") from None


def _parse_clause_formula(
    segment: str, line_number: int, raw_line: str, offset: int
) -> Formula:
    try:
        return parse_text(segment)
    except (LexError, ParseError) as exc:
        span = SourceSpan(offset + exc.span.start, offset + exc.span.end)
        message = exc.message if isinstance(exc, LexError) else (
            f"expected {exc.expected}, found {exc.found}"
        )
        raise ContractSyntaxError(message, line_number, raw_line, span) from None


def load_contract(path) -> Contract:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_contract_text(handle.read())


def _scale_radii(formula: Formula, factor: float) -> Formula:
    kids = tuple(_scale_radii(c, factor) for c in _parser.children(formula))
    match formula:
        case Atom():
            return formula
        case _parser.Not():
            return replace(formula, child=kids[0])
        case _parser.And() | _parser.Or() | _parser.Implies():
            return replace(formula, left=kids[0], right=kids[1])
        case _parser.Near() | _parser.Future() | _parser.Always():
            return replace(formula, child=kids[0], radius=formula.radius * factor)
        case _parser.Until():
            return replace(formula, left=kids[0], right=kids[1], radius=formula.radius * factor)
    raise TypeError(f"not a formula node: {formula!r}")


def retolerance(contract: Contract, tolerance: float) -> Contract:
    """Regenerate the contract at a new tolerance.

    All formula radii and second-valued event parameters scale by
    ``tolerance / contract.tolerance``; the regenerated formula strings
    are tokenized and parsed again, so the canonical renderings in sweep
    reports reflect exactly what was evaluated.  The merge gap is a grid
    hygiene parameter and does not scale.
    """
    if not (tolerance > 0.0):
        raise ContractError(f"tolerance must be positive, got {tolerance!r}")
    factor = tolerance / contract.tolerance
    clauses: list[Clause] = []
    for clause in contract.clauses:
        if isinstance(clause, FrameClause):
            formula_text = format_formula(_scale_radii(clause.formula, factor))
            obligation_text = format_formula(_scale_radii(clause.obligation, factor))
            clauses.append(
                FrameClause(clause.name, parse_text(formula_text), parse_text(obligation_text))
            )
        else:
            params = tuple((key, value * factor) for key, value in clause.params)
            clauses.append(replace(clause, params=params))
    return Contract(
        tolerance,
        contract.silence_radius * factor,
        contract.merge_gap,
        contract.matcher,
        tuple(clauses),
    )


# ---------------------------------------------------------------------------
# Monitoring


def _nearest_distances(
    obligated: np.ndarray, witnesses: np.ndarray, h: float
) -> np.ndarray | None:
    """Seconds from each obligated frame to the nearest witness frame.

    Obligated frames where the witness holds are at distance zero; only
    the others are looked up.  Returns ``None`` when there are no witness
    frames at all.
    """
    src = np.flatnonzero(obligated)
    dst = np.flatnonzero(witnesses)
    if src.size == 0:
        return np.zeros(0)
    if dst.size == 0:
        return None
    distances = np.zeros(src.size)
    miss = ~witnesses[src]
    far = src[miss]
    pos = np.searchsorted(dst, far)
    left = dst[np.clip(pos - 1, 0, dst.size - 1)]
    right = dst[np.clip(pos, 0, dst.size - 1)]
    distances[miss] = np.minimum(np.abs(far - left), np.abs(far - right)) * h
    return distances


def _frame_clause_witness(
    clause: FrameClause, values: Mapping[Formula, np.ndarray], h: float
) -> float | None:
    """Mean nearest-witness distance (ms) for edge/support implications.

    Defined for clauses of the shape ``x -> N[r] y`` (the five default
    guards); other formula shapes have no generic distance semantics.
    ``values`` are the clause's node valuations from the contract plan.
    """
    formula = clause.formula
    if not (
        isinstance(formula, Implies)
        and isinstance(formula.left, Atom)
        and isinstance(formula.right, Near)
        and isinstance(formula.right.child, Atom)
    ):
        return None
    distances = _nearest_distances(values[clause.obligation], values[formula.right.child], h)
    if distances is None or distances.size == 0:
        return None
    return float(np.mean(distances) * 1000.0)


def latency_score(refs, preds, lead: float, lag: float) -> ObligationScore:
    """First predicted onset inside [start - lead, start + lag], per reference."""
    refs = tuple(refs)
    onsets = sorted(p.start for p in preds)
    obligated = len(refs)
    satisfied = 0
    for ref in refs:
        k = bisect_left(onsets, ref.start - lead - _TIME_EPS)
        if k < len(onsets) and onsets[k] <= ref.start + lag + _TIME_EPS:
            satisfied += 1
    ratio = satisfied / obligated if obligated else 1.0
    return ObligationScore(ratio, obligated, satisfied, obligated - satisfied)


def purity_score(
    class_name: str,
    preds,
    class_ref_intervals: Mapping[str, Sequence[Interval]],
) -> ObligationScore:
    """Dominant-overlap reference class equals the prediction's own class.

    Dominance ties fail, as does a prediction with no reference overlap.
    Each class total sums, in reference order, only the references the
    range scan finds overlapping; the skipped terms are exact zeros.
    """
    preds = tuple(preds)
    classes = [(cls, tuple(refs)) for cls, refs in class_ref_intervals.items()]
    hits = [_overlapping(preds, refs) for _, refs in classes]
    obligated = len(preds)
    satisfied = 0
    for k, pred in enumerate(preds):
        totals = {
            cls: sum(overlap_length(pred, refs[j]) for j in class_hits[k])
            for (cls, refs), class_hits in zip(classes, hits)
        }
        best = max(totals.values(), default=0.0)
        if best <= 0.0:
            continue
        leaders = [cls for cls, total in totals.items() if total >= best - _TIME_EPS]
        if leaders == [class_name]:
            satisfied += 1
    ratio = satisfied / obligated if obligated else 1.0
    return ObligationScore(ratio, obligated, satisfied, obligated - satisfied)


def event_clause_score(
    clause: EventClause,
    refs: Sequence[Interval],
    preds: Sequence[Interval],
    matching: Matching,
    tolerance: float,
    class_context: tuple[str, Mapping[str, Sequence[Interval]]] | None = None,
    counts: Sequence[int] | None = None,
) -> ObligationScore:
    """Mean of the clause predicate over its obligation set; empty set scores one.

    ``counts`` may pass in the :func:`covering_counts` of ``refs`` against
    ``preds`` when the caller has them already.
    """
    if clause.predicate == "duration_within":
        threshold = clause.param("threshold", 2.0 * tolerance)
        return duration_score(refs, preds, matching, threshold)
    if clause.predicate == "singly_covered":
        return fragmentation_score(refs, preds, matching, counts)
    if clause.predicate == "latency_window":
        lead = clause.param("lead", tolerance)
        lag = clause.param("lag", 2.0 * tolerance)
        return latency_score(refs, preds, lead, lag)
    if clause.predicate == "overlap_purity":
        if class_context is None:
            raise ContractError(
                "overlap_purity requires class-indexed monitoring (monitor_classes)"
            )
        class_name, class_ref_intervals = class_context
        return purity_score(class_name, preds, class_ref_intervals)
    raise ContractError(f"unknown event predicate {clause.predicate!r}")


def _event_clause_witness(
    clause: EventClause,
    refs: Sequence[Interval],
    preds: Sequence[Interval],
    matching: Matching,
    counts: Sequence[int],
) -> float | None:
    if clause.predicate == "duration_within":
        diffs = _duration_diffs(refs, preds, matching)
        if not diffs:
            return None
        return float(np.mean(diffs) * 1000.0)
    if clause.predicate == "singly_covered":
        extras = _fragmentation_extras(matching, counts)
        if not extras:
            return None
        return float(np.mean(extras))
    return None


def _duration_diffs(refs, preds, matching: Matching) -> tuple[float, ...]:
    refs = tuple(refs)
    preds = tuple(preds)
    return tuple(
        abs(refs[ri].length - preds[pi].length) for ri, pi in matching.sorted_pairs
    )


def _fragmentation_extras(matching: Matching, counts: Sequence[int]) -> tuple[int, ...]:
    # Zero exactly when the reference obligation is satisfied: over-covered
    # references report the extra covering count, unmatched ones at least one.
    matched_refs = matching.matched_refs
    extras = []
    for ri in range(len(counts)):
        if ri in matched_refs and counts[ri] <= 1:
            extras.append(0)
        elif counts[ri] > 1:
            extras.append(counts[ri] - 1)
        else:
            extras.append(1)
    return tuple(extras)


def _edge_witness(
    env: TraceEnvironment, source_atom: str, target_atom: str
) -> tuple[float | None, int]:
    """(mean nearest-edge distance in ms, excluded edge count)."""
    src = env.atoms[source_atom]
    dst = env.atoms[target_atom]
    n_src = int(np.count_nonzero(src))
    if n_src == 0:
        return None, 0
    distances = _nearest_distances(src, dst, env.frame_step)
    if distances is None:
        return None, n_src
    return float(np.mean(distances) * 1000.0), 0


def compile_contract(contract: Contract, h: float) -> EvaluationPlan:
    """One evaluation plan over every frame formula and obligation of the
    contract on the grid of step ``h``; shared subformulas are planned once."""
    return share_subformulas(
        (f for clause in contract.frame_clauses for f in (clause.formula, clause.obligation)), h
    )


def monitor(contract: Contract, ref_mask, pred_mask, h: float) -> MonitorResult:
    """Evaluate every contract clause on one trace pair.

    Derives activity and edge atoms, scores frame clauses under their
    obligations, extracts and matches run intervals under the contract's
    policy, scores event clauses over their obligation sets, and attaches
    witness distances.
    """
    env = derive_edge_atoms(ref_mask, pred_mask, h)
    return _monitor(contract, compile_contract(contract, h), env, None)


def _monitor(
    contract: Contract,
    plan: EvaluationPlan,
    env: TraceEnvironment,
    class_context: tuple[str, Mapping[str, Sequence[Interval]]] | None,
) -> MonitorResult:
    """:func:`monitor` with the contract compiled on ``env``'s grid.

    With a class context, the class's reference runs are taken from it.
    """
    h = env.frame_step
    if class_context is None:
        refs = extract_intervals(env.atoms["ref_active"], h, contract.merge_gap)
    else:
        class_name, class_ref_intervals = class_context
        refs = class_ref_intervals[class_name]
    preds = extract_intervals(env.atoms["pred_active"], h, contract.merge_gap)
    cands = candidates(refs, preds, contract.tolerance)
    if contract.matcher == "greedy":
        matching = match_greedy(cands)
    else:
        matching = match_exact(cands)
    counts = covering_counts(refs, preds)
    values = plan.evaluate(env.atoms)
    coordinates = []
    for clause in contract.clauses:
        if isinstance(clause, FrameClause):
            value = obligation_score(values[clause.formula], values[clause.obligation])
            witness = _frame_clause_witness(clause, values, h)
            kind = "frame"
        else:
            value = event_clause_score(
                clause, refs, preds, matching, contract.tolerance, class_context, counts
            )
            witness = _event_clause_witness(clause, refs, preds, matching, counts)
            kind = "event"
        coordinates.append(
            GuardCoordinate(
                clause.name,
                kind,
                value.score,
                value.obligated,
                value.satisfied,
                value.violated,
                witness,
            )
        )
    onset_mae, onset_excluded = _edge_witness(env, "ref_onset", "pred_onset")
    offset_mae, offset_excluded = _edge_witness(env, "ref_offset", "pred_offset")
    witnesses = WitnessReport(
        onset_mae_ms=onset_mae,
        offset_mae_ms=offset_mae,
        onset_excluded=onset_excluded,
        offset_excluded=offset_excluded,
        duration_abs_diffs=_duration_diffs(refs, preds, matching),
        fragmentation_extra_counts=_fragmentation_extras(matching, counts),
    )
    return MonitorResult(GuardVector(tuple(coordinates)), witnesses, refs, preds, matching)


def mean_logic(vector: GuardVector) -> float:
    """Unweighted mean of the guard coordinates; reported after the vector."""
    if len(vector) == 0:
        raise ValueError("guard vector is empty")
    return float(np.mean(vector.scores))


@dataclass(frozen=True)
class ClassMonitorResult:
    per_class: Mapping[str, MonitorResult]
    macro: GuardVector


def monitor_classes(
    contract: Contract,
    class_masks: Mapping[str, tuple],
    h: float,
) -> ClassMonitorResult:
    """Evaluate the same parsed clauses once per class and macro-average.

    The macro vector's score is the exact unweighted per-coordinate mean
    across classes; counts are summed for reporting.
    """
    if not class_masks:
        raise ValueError("no classes supplied")
    masks = {cls: (_as_mask(ref), _as_mask(pred)) for cls, (ref, pred) in class_masks.items()}
    lengths = {len(mask) for pair in masks.values() for mask in pair}
    if len(lengths) != 1:
        raise ValueError(f"inconsistent mask lengths across classes: {sorted(lengths)}")
    plan = compile_contract(contract, h)
    class_ref_intervals = {
        cls: extract_intervals(ref, h, contract.merge_gap) for cls, (ref, _) in masks.items()
    }
    per_class = {
        cls: _monitor(
            contract, plan, derive_edge_atoms(ref, pred, h), (cls, class_ref_intervals)
        )
        for cls, (ref, pred) in masks.items()
    }
    macro = []
    results = list(per_class.values())
    for position, clause in enumerate(contract.clauses):
        coords = [r.guards.coordinates[position] for r in results]
        witnesses = [c.witness_mean for c in coords if c.witness_mean is not None]
        macro.append(
            GuardCoordinate(
                clause.name,
                coords[0].kind,
                float(np.mean([c.score for c in coords])),
                sum(c.obligated for c in coords),
                sum(c.satisfied for c in coords),
                sum(c.violated for c in coords),
                float(np.mean(witnesses)) if witnesses else None,
            )
        )
    return ClassMonitorResult(per_class, GuardVector(tuple(macro)))


def _edge_times(mask: np.ndarray, h: float) -> np.ndarray:
    # Maximal runs never touch, so their starts and ends interleave in
    # ascending order and the edge frames are already sorted.
    return _run_edges(mask) * h


def soft_boundary(ref_mask, pred_mask, h: float, scale: float = DEFAULT_SOFT_SCALE) -> float:
    """Exponential-kernel credit over nearest boundary distances.

    Edge time sets are the run interval endpoints of each mask.  Each
    edge contributes ``exp(-d/scale)`` for its nearest opposite edge; the
    score symmetrizes the two directed means.  Two edgeless masks score
    one; an edgeless mask against a nonempty one scores zero.
    """
    if not (scale > 0.0):
        raise ValueError(f"scale must be positive, got {scale!r}")
    ref = _as_mask(ref_mask, "ref_mask")
    pred = _as_mask(pred_mask, "pred_mask")
    _check_frame_step(h)
    ref_edges = _edge_times(ref, h)
    pred_edges = _edge_times(pred, h)
    if ref_edges.size == 0 and pred_edges.size == 0:
        return 1.0
    if ref_edges.size == 0 or pred_edges.size == 0:
        return 0.0

    def directed(src: np.ndarray, dst: np.ndarray) -> float:
        pos = np.searchsorted(dst, src)
        left = dst[np.clip(pos - 1, 0, dst.size - 1)]
        right = dst[np.clip(pos, 0, dst.size - 1)]
        distances = np.minimum(np.abs(src - left), np.abs(src - right))
        return float(np.mean(np.exp(-distances / scale)))

    return (directed(ref_edges, pred_edges) + directed(pred_edges, ref_edges)) / 2.0


@dataclass(frozen=True)
class SweepRow:
    tolerance: float
    contract: Contract
    result: MonitorResult
    mean_logic: float

    @property
    def guards(self) -> GuardVector:
        return self.result.guards

    @property
    def formula_texts(self) -> dict[str, str]:
        return {
            clause.name: format_formula(clause.formula)
            for clause in self.contract.frame_clauses
        }


@dataclass(frozen=True)
class SweepResult:
    """Per-tolerance guard vectors plus curve summaries.

    ``integral`` is the trapezoid integral of the mean logic over the
    tolerance interval, normalized by the interval width (so it reads as
    an average height); ``span`` is the vertical extent of the curve.
    """

    rows: tuple[SweepRow, ...]
    integral: float
    span: float


def tolerance_sweep(
    contract: Contract,
    ref_mask,
    pred_mask,
    h: float,
    tolerances: Sequence[float],
) -> SweepResult:
    """Re-monitor the same masks with the contract regenerated per tolerance."""
    tolerances = list(tolerances)
    if not tolerances:
        raise ValueError("no tolerances supplied")
    if any(t <= 0.0 for t in tolerances):
        raise ValueError("tolerances must be positive")
    if any(b <= a for a, b in zip(tolerances, tolerances[1:])):
        raise ValueError("tolerances must be strictly ascending")
    env = derive_edge_atoms(ref_mask, pred_mask, h)
    rows = []
    for tolerance in tolerances:
        regenerated = retolerance(contract, tolerance)
        result = _monitor(regenerated, compile_contract(regenerated, h), env, None)
        rows.append(SweepRow(tolerance, regenerated, result, mean_logic(result.guards)))
    means = [row.mean_logic for row in rows]
    if len(rows) == 1:
        integral = means[0]
    else:
        area = sum(
            (m0 + m1) / 2.0 * (t1 - t0)
            for (t0, m0), (t1, m1) in zip(
                zip(tolerances, means), zip(tolerances[1:], means[1:])
            )
        )
        integral = float(area / (tolerances[-1] - tolerances[0]))
    span = float(max(means) - min(means))
    return SweepResult(tuple(rows), integral, span)


__all__ = [
    "Contract",
    "FrameClause",
    "EventClause",
    "GuardCoordinate",
    "GuardVector",
    "WitnessReport",
    "MonitorResult",
    "ClassMonitorResult",
    "SweepRow",
    "SweepResult",
    "ContractError",
    "ContractSyntaxError",
    "default_contract",
    "default_contract_text",
    "contract_to_text",
    "parse_contract_text",
    "load_contract",
    "retolerance",
    "compile_contract",
    "monitor",
    "monitor_classes",
    "mean_logic",
    "soft_boundary",
    "boundary_f1",
    "event_clause_score",
    "latency_score",
    "purity_score",
    "tolerance_sweep",
]
