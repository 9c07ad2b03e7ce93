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
replacement for them.  Its result holds the merged runs as read-only
families and builds :class:`Interval` tuples only for a reader; a contract
keeps its compiled plan per frame step, so it is compiled once per grid.
Witness distances are reduced to their mean as soon as they are computed:
a trace pair keeps one (mean, no-witness) summary per obligation and
witness formula, shared by its clauses, edge witnesses and sweep rows.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import parser as _parser
from .frames import (
    EvaluationPlan,
    ObligationScore,
    TraceEnvironment,
    _as_mask,
    _check_frame_step,
    _mask_pair,
    derive_edge_atoms,
    obligation_score,
    share_subformulas,
)
from .intervals import (
    Family,
    Interval,
    Matching,
    _run_edges,
    boundary_f1,
    candidate_table,
    covering_counts,
    fragmentation_extras,
    length_diffs,
    match_exact,
    match_greedy,
    merge_runs,
    overlap_pairs,
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

MATCHER_POLICIES = ("greedy", "exact")

# Default exponential kernel scale for the soft boundary report, seconds.
DEFAULT_SOFT_SCALE = 0.05


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


# The settings of ``set <key> <value>`` lines, in file order: how a value is
# read and rendered, and its default.  A tolerance must be declared; the
# silence radius defaults to half the tolerance.
SETTINGS = {
    "tolerance": (_finite, radius_text, None),
    "silence_radius": (_finite, radius_text, None),
    "merge_gap": (_finite, lambda gap: radius_text(gap) if gap > 0 else "0", 0.0),
    "matcher": (str, str, "greedy"),
}

# Each event predicate's one obligation set and its parameters' defaults, in
# tolerances: ``threshold`` defaults to twice the contract tolerance.
EVENT_PREDICATES = {
    "duration_within": ("matched_pairs", {"threshold": 2.0}),
    "singly_covered": ("reference_intervals", {}),
    "latency_window": ("reference_intervals", {"lead": 1.0, "lag": 2.0}),
    "overlap_purity": ("predicted_intervals", {}),
}


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
    """A predicate of :data:`EVENT_PREDICATES` over its one obligation set,
    with some of its parameters given in seconds."""

    name: str
    obligation: str
    predicate: str
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.predicate not in EVENT_PREDICATES:
            raise ContractError(f"unknown event predicate {self.predicate!r}")
        obligation, defaults = EVENT_PREDICATES[self.predicate]
        if self.obligation != obligation:
            raise ContractError(f"{self.predicate} takes {obligation!r}, not {self.obligation!r}")
        keys = [key for key, _ in self.params]
        for key, value in self.params:
            if key not in defaults:
                known = ", ".join(defaults) or "none"
                raise ContractError(f"{self.predicate} has no parameter {key!r}; known: {known}")
            if keys.count(key) > 1:
                raise ContractError(f"event parameter {key!r} repeated")
            if not (0.0 < value < math.inf):
                raise ContractError(f"parameter {key}={value!r} must be positive and finite")

    def param(self, key: str, default: float) -> float:
        for name, value in self.params:
            if name == key:
                return value
        return default


Clause = FrameClause | EventClause


@dataclass(frozen=True)
class Contract:
    """Tolerance settings plus the ordered clause list; ``_plans`` keeps
    :func:`compile_contract`'s plans, no part of the value, empty after ``replace``."""

    tolerance: float
    silence_radius: float
    merge_gap: float
    matcher: str
    clauses: tuple[Clause, ...]
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.tolerance < math.inf):
            raise ContractError(f"tolerance must be positive and finite: {self.tolerance!r}")
        if not (0.0 < self.silence_radius <= self.tolerance + _TIME_EPS):
            raise ContractError(
                f"silence radius {self.silence_radius!r} must be in (0, tolerance]"
            )
        if not (0.0 <= self.merge_gap < math.inf):
            raise ContractError(f"merge gap must be nonnegative and finite: {self.merge_gap!r}")
        if self.matcher not in MATCHER_POLICIES:
            raise ContractError(f"unknown matcher policy {self.matcher!r}")
        names = [c.name for c in self.clauses]
        if len(names) != len(set(names)):
            raise ContractError("clause names must be unique")

    @property
    def frame_clauses(self) -> tuple[FrameClause, ...]:
        return tuple(c for c in self.clauses if isinstance(c, FrameClause))


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


@dataclass(frozen=True, eq=False, repr=False)
class MonitorResult:
    """Guards and witnesses of one trace pair, with its merged runs as
    read-only families in seconds.  ``ref_intervals`` and ``pred_intervals``
    build their :class:`Interval` tuples on first read; equality, hash and
    repr are those of the record of guards, witnesses, both tuples and the
    matching, read or not."""

    guards: GuardVector
    witnesses: WitnessReport
    refs: Family
    preds: Family
    matching: Matching

    @property
    def ref_intervals(self) -> tuple[Interval, ...]:
        return self.refs.intervals

    @property
    def pred_intervals(self) -> tuple[Interval, ...]:
        return self.preds.intervals

    def _record(self) -> dict:
        names = ("guards", "witnesses", "ref_intervals", "pred_intervals", "matching")
        return {name: getattr(self, name) for name in names}

    def __eq__(self, other) -> bool:
        return self._record() == other._record() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._record().values()))

    def __repr__(self) -> str:
        return f"MonitorResult({', '.join(f'{k}={v!r}' for k, v in self._record().items())})"


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
        f"set {key} {render(getattr(contract, key))}" for key, (_, render, _) in SETTINGS.items()
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
    ``set <key> <value>`` lines configure the :data:`SETTINGS`, each at most
    once; ``#`` starts a comment.  A line that does not parse, or declares
    what the tables do not allow, raises :class:`ContractSyntaxError` with its
    line number; checks across lines report line 0.
    """
    settings: dict[str, object] = {}
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
            key, value = words[1:]
            if key not in SETTINGS:
                known = ", ".join(SETTINGS)
                raise ContractSyntaxError(
                    f"unknown setting {key!r}; known: {known}", line_number, raw_line
                )
            if key in settings:
                raise ContractSyntaxError(f"setting {key!r} repeated", line_number, raw_line)
            try:
                settings[key] = SETTINGS[key][0](value)
            except ValueError as exc:
                raise ContractSyntaxError(f"invalid {key}: {exc}", line_number, raw_line) from None
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
    if "tolerance" not in settings:
        raise ContractSyntaxError("contract must declare 'set tolerance <seconds>'", 0, "")
    defaults = {key: default for key, (_, _, default) in SETTINGS.items()}
    defaults["silence_radius"] = settings["tolerance"] / 2.0
    try:
        return Contract(clauses=tuple(clauses), **{**defaults, **settings})
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


def _read_contract(path) -> tuple[Contract, str, str]:
    """The contract in a file, the text it was parsed from (strict UTF-8, line
    ends read as ``\\n``) and the SHA-256 of the file's bytes, read once.
    Bytes that do not decode raise :class:`UnicodeDecodeError`."""
    with open(path, "rb") as handle:
        raw = handle.read()
    text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return parse_contract_text(text), text, hashlib.sha256(raw).hexdigest()


def load_contract(path) -> Contract:
    """The contract in a UTF-8 file; text that does not decode or parse
    raises :class:`ContractSyntaxError`."""
    try:
        return _read_contract(path)[0]
    except UnicodeDecodeError as exc:
        raise ContractSyntaxError(f"not UTF-8 text ({exc})", 0, "") from None


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
    ``tolerance / contract.tolerance``, on the parsed trees; a radius renders
    as a decimal that lexes back to the same float, so the canonical renderings
    in sweep reports parse to exactly what was evaluated.  The merge gap is
    a grid hygiene parameter and does not scale.
    """
    if not (tolerance > 0.0):
        raise ContractError(f"tolerance must be positive, got {tolerance!r}")
    factor = tolerance / contract.tolerance
    clauses: list[Clause] = []
    for clause in contract.clauses:
        if isinstance(clause, FrameClause):
            clauses.append(FrameClause(clause.name, _scale_radii(clause.formula, factor),
                                       _scale_radii(clause.obligation, factor)))
        else:
            params = tuple((key, value * factor) for key, value in clause.params)
            clauses.append(EventClause(clause.name, clause.obligation, clause.predicate, params))
    return Contract(
        tolerance,
        contract.silence_radius * factor,
        contract.merge_gap,
        contract.matcher,
        tuple(clauses),
    )


# ---------------------------------------------------------------------------
# Monitoring


def _frame_runs(mask: np.ndarray) -> Family:
    edges = _run_edges(mask)
    return Family(edges[0::2], edges[1::2])


def _run_distances(obligated: Family, witnesses: Family, h: float) -> np.ndarray | None:
    """Seconds from each obligated frame, in frame order, to the nearest
    witness frame; ``None`` when there are no witness frames at all.

    Both families are frame runs: sorted, disjoint and never adjacent.
    Obligated frames inside a witness run are at distance zero.  The others
    are the obligated runs' overlaps with the gaps around the witness runs.
    Gap k lies between witness runs k - 1 and k, so the last frame of run
    k - 1 and the first of run k are its frames' two nearest witness frames;
    each outer gap has one, taken twice.  No step touches every frame of
    the trace or searches the witness edges.
    """
    sizes = obligated.end - obligated.start
    total = int(sizes.sum())
    if total == 0:
        return np.zeros(0)
    if len(witnesses) == 0:
        return None
    first, end = witnesses.start, witnesses.end
    edge, stop = min(obligated.start[0], first[0]), max(obligated.end[-1], end[-1])
    gaps = Family(np.append(edge, end), np.append(first, stop))
    runs, gap, width = overlap_pairs(obligated, gaps)
    lo = np.maximum(obligated.start[runs], gaps.start[gap])
    # Frame f of obligated run i is obligated frame number offset[i] + f - start[i].
    shift = (np.cumsum(sizes) - sizes - obligated.start)[runs]
    left, right = np.append(first[0], end - 1)[gap], np.append(first, end[-1] - 1)[gap]
    rows = np.stack((lo - (np.cumsum(width) - width), left, right, shift))
    base, left, right, shift = np.repeat(rows, width, axis=1)
    far = np.arange(base.size) + base
    distances = np.zeros(total)
    distances[far + shift] = np.minimum(np.abs(far - left), np.abs(far - right)) * h
    return distances


@dataclass(frozen=True, eq=False)
class _TraceRuns:
    """One trace pair's atoms, and what follows from its runs at any tolerance.

    ``refs`` and ``preds`` are the merged runs in seconds with their
    overlap pairs and covering counts; ``atom_runs`` are the unmerged frame
    runs of every activity and edge atom, and ``witnesses`` keeps the
    witness summaries already computed, by (obligation, witness) formula.
    """

    env: TraceEnvironment
    refs: Family
    preds: Family
    overlaps: tuple[np.ndarray, np.ndarray, np.ndarray]
    counts: np.ndarray
    atom_runs: dict[str, Family]
    witnesses: dict[tuple[Formula, Formula], tuple[float | None, bool]] = field(
        default_factory=dict
    )

    def witness(self, obligation: Formula, witness: Formula, values) -> tuple[float | None, bool]:
        """Mean in ms of :func:`_run_distances` from the obligation's frames to
        the witness's (``None`` when either set is empty), and whether there
        are no witness frames; ``values`` holds the plan's valuations of
        formulas other than atoms.  The distances are not kept."""
        key = (obligation, witness)
        if key not in self.witnesses:
            obligated, witnessed = (self.atom_runs[f.name] if isinstance(f, Atom)
                                    else _frame_runs(values[f]) for f in key)
            distances = _run_distances(obligated, witnessed, self.env.frame_step)
            mean = None if distances is None or distances.size == 0 else float(
                np.mean(distances) * 1000.0
            )
            self.witnesses[key] = (mean, distances is None)
        return self.witnesses[key]


def _trace_runs(env: TraceEnvironment, merge_gap: float) -> _TraceRuns:
    h = env.frame_step
    families, atom_runs = [], {}
    for side in ("ref", "pred"):
        edges = _run_edges(env.atoms[f"{side}_active"])
        lo, hi = (x * h for x in merge_runs(edges, h, merge_gap))
        lo.flags.writeable = hi.flags.writeable = False
        families.append(Family(lo, hi))
        first, end = edges[0::2], edges[1::2]
        offsets = end[end < env.frame_count]
        atom_runs[f"{side}_active"] = Family(first, end)
        atom_runs[f"{side}_onset"] = Family(first, first + 1)
        atom_runs[f"{side}_offset"] = Family(offsets, offsets + 1)
    overlaps = overlap_pairs(*families)
    counts = np.bincount(overlaps[0], minlength=len(families[0]))
    return _TraceRuns(env, *families, overlaps, counts, atom_runs)


def _match(runs: _TraceRuns, tolerance: float, policy: str):
    """The matching under ``policy``, each matched pair's length difference
    and each reference's fragmentation extras."""
    table = candidate_table(runs.refs, runs.preds, tolerance, runs.overlaps)
    matching = match_greedy(table) if policy == "greedy" else match_exact(table)
    return matching, length_diffs(runs.refs, runs.preds, matching), fragmentation_extras(
        matching, runs.counts
    )


def _frame_clause_witness(
    clause: FrameClause, runs: _TraceRuns, values: Mapping[Formula, np.ndarray]
) -> float | None:
    """Mean nearest-witness distance (ms) for edge/support implications.

    Defined for clauses of the shape ``x -> N[r] y`` (the five default
    guards); other formula shapes have no generic distance semantics.
    ``values`` are the valuations from the contract plan.
    """
    formula = clause.formula
    if not (
        isinstance(formula, Implies)
        and isinstance(formula.left, Atom)
        and isinstance(formula.right, Near)
        and isinstance(formula.right.child, Atom)
    ):
        return None
    return runs.witness(clause.obligation, formula.right.child, values)[0]


def latency_score(refs, preds, lead: float, lag: float) -> ObligationScore:
    """First predicted onset inside [start - lead, start + lag], per reference."""
    refs, preds = Family.of(refs), Family.of(preds)
    onsets = np.sort(preds.start)
    k = np.searchsorted(onsets, refs.start - lead - _TIME_EPS)
    holds = (k < onsets.size) & (np.append(onsets, np.inf)[k] <= refs.start + lag + _TIME_EPS)
    return obligation_score(holds, np.ones_like(holds))


def purity_score(
    class_name: str,
    preds,
    class_ref_intervals: Mapping[str, Sequence[Interval] | Family],
) -> ObligationScore:
    """Dominant-overlap reference class equals the prediction's own class.

    Dominance ties fail, as does a prediction with no reference overlap.
    Each class total is a Python ``sum``, in reference order, of the
    overlaps the range scan finds (the skipped terms are exact zeros); a
    vectorised reduction may round differently.
    """
    preds = Family.of(preds)
    names = list(class_ref_intervals)
    totals = np.zeros((len(preds), len(names)))
    for column, refs in enumerate(class_ref_intervals.values()):
        q, _, overlap = overlap_pairs(preds, Family.of(refs))
        heads = np.flatnonzero(np.diff(q, prepend=-1))
        values, bounds = overlap.tolist(), np.append(heads, q.size).tolist()
        totals[q[heads], column] = [sum(values[a:b]) for a, b in zip(bounds, bounds[1:])]
    best = totals.max(axis=1, initial=0.0)
    leaders = totals >= (best - _TIME_EPS)[:, None]
    holds = (best > 0.0) & (leaders.sum(axis=1) == 1)
    holds &= leaders[:, names.index(class_name)] if class_name in names else False
    return obligation_score(holds, np.ones_like(holds))


def _event_clause(
    clause: EventClause,
    runs: _TraceRuns,
    tolerance: float,
    class_context: tuple[str, Mapping[str, Family]] | None,
    diffs: np.ndarray,
    extras: np.ndarray,
) -> tuple[ObligationScore, float | None]:
    """The clause predicate's mean over its obligation set (an empty set scores
    one) and its witness mean, from the :func:`_match` of ``runs``."""
    _, defaults = EVENT_PREDICATES[clause.predicate]
    param = {key: clause.param(key, factor * tolerance) for key, factor in defaults.items()}
    if clause.predicate == "duration_within":
        holds = diffs <= param["threshold"] + _TIME_EPS
        witness = float(np.mean(diffs) * 1000.0) if diffs.size else None
        return obligation_score(holds, np.ones_like(holds)), witness
    if clause.predicate == "singly_covered":
        holds = extras == 0
        witness = float(np.mean(extras)) if extras.size else None
        return obligation_score(holds, np.ones_like(holds)), witness
    if clause.predicate == "latency_window":
        return latency_score(runs.refs, runs.preds, param["lead"], param["lag"]), None
    if class_context is None:
        raise ContractError("overlap_purity requires class-indexed monitoring (monitor_classes)")
    return purity_score(class_context[0], runs.preds, class_context[1]), None


def _edge_witness(runs: _TraceRuns, source_atom: str, target_atom: str) -> tuple[float | None, int]:
    """(mean nearest-edge distance in ms, excluded edge count)."""
    mean, unwitnessed = runs.witness(Atom(source_atom), Atom(target_atom), {})
    return mean, len(runs.atom_runs[source_atom]) if unwitnessed else 0


def compile_contract(contract: Contract, h: float) -> EvaluationPlan:
    """One evaluation plan over every frame formula and obligation of the
    contract on the grid of step ``h``; shared subformulas are planned once.
    The plan is kept on the contract, one per frame step."""
    if h not in contract._plans:
        contract._plans[h] = share_subformulas(_frame_formulas(contract), h)
    return contract._plans[h]


def _frame_formulas(contract: Contract):
    """Every frame clause's formula and obligation, in clause order."""
    return (f for clause in contract.frame_clauses for f in (clause.formula, clause.obligation))


def monitor(contract: Contract, ref_mask, pred_mask, h: float) -> MonitorResult:
    """Evaluate every contract clause on one trace pair.

    Derives activity and edge atoms, scores frame clauses under their
    obligations, extracts and matches run intervals under the contract's
    policy, scores event clauses over their obligation sets, and attaches
    witness distances.
    """
    runs = _trace_runs(derive_edge_atoms(ref_mask, pred_mask, h), contract.merge_gap)
    return _monitor(contract, compile_contract(contract, h).evaluate(runs.env.atoms), runs, None)


def _monitor(
    contract: Contract,
    values: Mapping[Formula, np.ndarray],
    runs: _TraceRuns,
    class_context: tuple[str, Mapping[str, Family]] | None,
) -> MonitorResult:
    """:func:`monitor` with ``values`` the valuations of the contract's frame
    formulas and obligations on the trace's atoms, and the runs taken under
    the contract's merge gap."""
    matching, diffs, extras = _match(runs, contract.tolerance, contract.matcher)
    coordinates = []
    for clause in contract.clauses:
        if isinstance(clause, FrameClause):
            value = obligation_score(values[clause.formula], values[clause.obligation])
            witness = _frame_clause_witness(clause, runs, values)
            kind = "frame"
        else:
            value, witness = _event_clause(
                clause, runs, contract.tolerance, class_context, diffs, extras
            )
            kind = "event"
        coordinates.append(GuardCoordinate(
            clause.name, kind, value.score, value.obligated, value.satisfied, value.violated,
            witness,
        ))
    onset_mae, onset_excluded = _edge_witness(runs, "ref_onset", "pred_onset")
    offset_mae, offset_excluded = _edge_witness(runs, "ref_offset", "pred_offset")
    witnesses = WitnessReport(
        onset_mae_ms=onset_mae,
        offset_mae_ms=offset_mae,
        onset_excluded=onset_excluded,
        offset_excluded=offset_excluded,
        duration_abs_diffs=tuple(diffs.tolist()),
        fragmentation_extra_counts=tuple(extras.tolist()),
    )
    guards = GuardVector(tuple(coordinates))
    return MonitorResult(guards, witnesses, runs.refs, runs.preds, matching)


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
    runs = {
        cls: _trace_runs(derive_edge_atoms(ref, pred, h), contract.merge_gap)
        for cls, (ref, pred) in masks.items()
    }
    class_refs = {cls: class_runs.refs for cls, class_runs in runs.items()}
    per_class = {
        cls: _monitor(contract, plan.evaluate(class_runs.env.atoms), class_runs, (cls, class_refs))
        for cls, class_runs in runs.items()
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
    if not (0.0 < scale < math.inf):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    ref, pred = _mask_pair(ref_mask, pred_mask)
    _check_frame_step(h)
    ref_edges = _edge_times(ref, h)
    pred_edges = _edge_times(pred, h)
    if ref_edges.size == 0 and pred_edges.size == 0:
        return 1.0
    if ref_edges.size == 0 or pred_edges.size == 0:
        return 0.0

    def directed(src: np.ndarray, dst: np.ndarray) -> float:
        pos = np.searchsorted(dst, src)
        left, right = dst[np.maximum(pos - 1, 0)], dst[np.minimum(pos, dst.size - 1)]
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
    """Re-monitor the same masks with the contract regenerated per tolerance.

    The frame formulas of every regenerated contract are planned and
    evaluated together, once.
    """
    tolerances = list(tolerances)
    if not tolerances:
        raise ValueError("no tolerances supplied")
    if any(t <= 0.0 for t in tolerances):
        raise ValueError("tolerances must be positive")
    if any(b <= a for a, b in zip(tolerances, tolerances[1:])):
        raise ValueError("tolerances must be strictly ascending")
    # The merge gap does not scale, so the runs are the same at every tolerance.
    runs = _trace_runs(derive_edge_atoms(ref_mask, pred_mask, h), contract.merge_gap)
    regenerated = [retolerance(contract, tolerance) for tolerance in tolerances]
    values = share_subformulas(
        (f for c in regenerated for f in _frame_formulas(c)), h
    ).evaluate(runs.env.atoms)
    rows = []
    for tolerance, grid_contract in zip(tolerances, regenerated):
        result = _monitor(grid_contract, values, runs, None)
        rows.append(SweepRow(tolerance, grid_contract, result, mean_logic(result.guards)))
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
    "covering_counts",
    "latency_score",
    "purity_score",
    "tolerance_sweep",
]
