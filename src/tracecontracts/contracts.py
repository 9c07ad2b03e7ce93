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
families and builds :class:`Interval` tuples only for a reader.  A
contract is a plain value; :func:`frames.share_subformulas` keeps plans by
value, so equal contracts share one plan per grid.

One monitor pass runs over a group axis: trace pairs of one length (a
union row and its classes, or calibration cases) are stacked, and their
runs extracted, matched and witnessed by one scan each.  One placement
rule, stated at :func:`intervals._run_edges`, puts frame f of group g at
``g * (2n + 1) + f`` for n frames a group, so no frame of one group comes
within n frames of another's and no scan meets another group's runs; a
sweep's tolerances are rows over one group.  :func:`_monitor` is the one
entry to the pass: every monitor entry hands it the trace pairs, which it
checks and stacks itself, and a single :func:`monitor` is the one-group
case.  Witnesses extend the axis to pairs: the distinct
(obligation, witness) formulas of every row, and the two edge pairs, are
placed one after another, so one distance scan serves every pair and
group, and each (pair, group) mean is :func:`_mean` of one slice of it.
The same scan counts every frame clause that :func:`_route` gives a
counted route, every default guard among them; only the other frame
clauses are evaluated, as stacks, by one plan.  The soft boundary of
every group is likewise one scan of the placed edges.
"""

from __future__ import annotations

import codecs
import functools
import hashlib
import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .frames import (
    ContractError,
    EvaluationPlan,
    ObligationScore,
    _check_frame_step,
    _edge_atoms,
    _mask_pair,
    _ratio,
    _stacked_scores,
    obligation_score,
    radius_frames,
    share_subformulas,
)
from .intervals import (
    _TIME_EPS,
    DEFAULT_DURATION_THRESHOLD,
    Family,
    Interval,
    Matching,
    _duration_within,
    _match,
    _run_edges,
    _singly_covered,
    covering_counts,
    merge_runs,
    overlap_pairs,
)
from .lexer import LexError, SourceSpan
from .parser import (
    CHILD_FIELDS,
    TEMPORAL,
    Atom,
    Formula,
    Implies,
    Near,
    ParseError,
    children,
    format_formula,
    parse_text,
    radius_text,
)

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
    "duration_within": ("matched_pairs", {"threshold": DEFAULT_DURATION_THRESHOLD}),
    "singly_covered": ("reference_intervals", {}),
    "latency_window": ("reference_intervals", {"lead": 1.0, "lag": 2.0}),
    "overlap_purity": ("predicted_intervals", {}),
}


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
    """Tolerance settings plus the ordered clause list."""

    tolerance: float
    silence_radius: float
    merge_gap: float
    matcher: str
    clauses: tuple[Clause, ...]

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

    @functools.cached_property
    def _formula_texts(self) -> dict[str, str]:
        """Each frame clause's formula, rendered once per contract."""
        return {clause.name: format_formula(clause.formula) for clause in self.frame_clauses}


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
    # The settings are checked before their radii are rendered and parsed.
    settings = Contract(tolerance, silence_radius, merge_gap, matcher, ())
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
    return replace(settings, clauses=tuple(clauses))


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
    once; ``#`` starts a comment; lines end only at ``\n``, ``\r\n`` or ``\r``.
    A line that does not parse, or declares what the tables do not allow,
    raises :class:`ContractSyntaxError` with its line number; checks across
    lines report line 0.
    """
    settings: dict[str, object] = {}
    clauses: list[Clause] = []
    for line_number, raw_line in enumerate(_newlines(text).split("\n"), start=1):
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


def _newlines(text: str) -> str:
    """``text`` with each ``\\r\\n`` and ``\\r`` line end read as ``\\n``."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


# Distinct contract texts whose parsed contracts a process keeps, least
# recently read dropped first; a text that does not parse is not kept.
_CONTRACT_MEMO_SIZE = 16

_parsed_contract = functools.lru_cache(maxsize=_CONTRACT_MEMO_SIZE)(parse_contract_text)


def _read_contract(path) -> tuple[Contract, str, str]:
    """The contract in a file, the text it was parsed from (strict UTF-8, line
    ends read as ``\\n``) and the SHA-256 of the file's bytes, read once.
    Bytes that do not decode, or a leading byte order mark, raise
    :class:`UnicodeDecodeError`.  The bytes are read and hashed on every
    call; the contract is parsed once per distinct text and shared by every
    later read of that text."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if raw.startswith(codecs.BOM_UTF8):
        raise UnicodeDecodeError("utf-8", raw, 0, 3, "unexpected UTF-8 byte order mark")
    text = _newlines(raw.decode("utf-8"))
    return _parsed_contract(text), text, hashlib.sha256(raw).hexdigest()


def load_contract(path) -> Contract:
    """The contract in a UTF-8 file, shared by every read of the same text in
    a process; text that does not decode or parse raises
    :class:`ContractSyntaxError`."""
    try:
        return _read_contract(path)[0]
    except UnicodeDecodeError as exc:
        raise ContractSyntaxError(f"not UTF-8 text ({exc})", 0, "") from None


def _scale_radii(formula: Formula, factor: float) -> Formula:
    kids = children(formula)
    if not kids:
        return formula
    changes = dict(zip(CHILD_FIELDS[type(formula)], (_scale_radii(k, factor) for k in kids)))
    if isinstance(formula, TEMPORAL):
        changes["radius"] = radius = formula.radius * factor
        if not (0.0 < radius < math.inf):
            raise ContractError(f"radius {formula.radius!r} scaled by {factor!r} is {radius!r},"
                                " not positive and finite")
    return replace(formula, **changes)


def retolerance(contract: Contract, tolerance: float) -> Contract:
    """Regenerate the contract at a new tolerance.

    All formula radii and second-valued event parameters scale by
    ``tolerance / contract.tolerance``, on the parsed trees; a radius renders
    as a decimal that lexes back to the same float, so the canonical renderings
    in sweep reports parse to exactly what was evaluated.  The merge gap is
    a grid hygiene parameter and does not scale.  A tolerance or scaled
    value that is not positive and finite raises :class:`ContractError`.
    """
    if not (0.0 < tolerance < math.inf):
        raise ContractError(f"tolerance must be positive and finite, got {tolerance!r}")
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


def _mean(values, scale: float = 1.0) -> float | None:
    """The mean of a one-dimensional sequence times ``scale``, bit for bit
    as ``np.mean`` gives it: ``np.add.reduce``'s pairwise sum over the
    count; ``None`` for an empty sequence."""
    if not len(values):
        return None
    return float(np.add.reduce(values, dtype=float) / len(values) * scale)


def _frame_runs(mask: np.ndarray) -> Family:
    """The frame runs of a mask or stack, at :func:`_run_edges`' frames."""
    edges = _run_edges(mask)
    return Family(edges[0::2], edges[1::2])


def _gap_distances(obligated: Family, witnesses: Family) -> tuple[np.ndarray, np.ndarray]:
    """The obligated frame numbers of the obligated frames outside every
    witness run, in order, and their distances in frames to the nearest
    witness frame; the frames inside a witness run are at distance zero.

    Both families are frame runs: sorted, disjoint and never adjacent, and
    neither empty.  The obligated frames outside the witness runs lie in the
    gaps around them.  Gap k lies between witness runs k - 1 and k, so the
    last frame of run k - 1 and the first of run k are its frames' two
    nearest witness frames; each outer gap has one, taken twice.  An
    obligated run meets the gaps from the first whose right witness run
    starts after the run's start to the last whose left witness run ends
    before the run's end: two ``searchsorted`` calls on the witness runs
    give every run's gap range.  No step touches every frame of the trace.
    """
    sizes = obligated.end - obligated.start
    first, end = witnesses.start, witnesses.end
    lo = first.searchsorted(obligated.start, side="right")
    count = np.maximum(end.searchsorted(obligated.end) + 1 - lo, 0)
    runs = np.arange(len(obligated)).repeat(count)
    gap = np.arange(runs.size) - (np.cumsum(count) - count - lo).repeat(count)
    # Gap k spans [end[k - 1], first[k]); the outer gaps reach past every run.
    start = np.maximum(obligated.start[runs], np.append(obligated.start[0], end)[gap])
    width = np.minimum(obligated.end[runs], np.append(first, obligated.end[-1])[gap]) - start
    # Frame f of obligated run i is obligated frame number offset[i] + f - start[i].
    shift = (np.cumsum(sizes) - sizes - obligated.start)[runs]
    left, right = np.append(first[0], end - 1)[gap], np.append(first, end[-1] - 1)[gap]
    rows = np.stack((start - (np.cumsum(width) - width), left, right, shift))
    base, left, right, shift = np.repeat(rows, width, axis=1)
    far = np.arange(base.size) + base
    return far + shift, np.minimum(np.abs(far - left), np.abs(far - right))


# The edge witnesses of every monitor row: (obligation, witness) atoms.
EDGE_PAIRS = ((Atom("ref_onset"), Atom("pred_onset")), (Atom("ref_offset"), Atom("pred_offset")))


@dataclass(frozen=True, eq=False)
class _TraceRuns:
    """G trace pairs of one length on a group axis, and what follows from
    their runs at any tolerance.

    ``masks`` are the reference and prediction ``(G, n)`` stacks.  ``refs``
    and ``preds`` are the merged runs in seconds, group after group, with
    ``bounds`` giving each group's first run a side and ``by_group`` its two
    families; ``overlaps`` are their overlap pairs.
    ``edges`` (run edges) and ``atom_runs`` (the unmerged runs of every
    activity and edge atom) are integer frames placed by :func:`_run_edges`'
    rule, ``stride`` frames per group from ``starts``, so one scan serves
    every group: :meth:`witnesses` and :meth:`soft_boundary` answer for
    every group at once.
    """

    h: float
    stride: int
    starts: np.ndarray
    masks: tuple[np.ndarray, np.ndarray]
    refs: Family
    preds: Family
    bounds: tuple[np.ndarray, np.ndarray]
    by_group: tuple[tuple[Family, Family], ...]
    overlaps: tuple[np.ndarray, np.ndarray, np.ndarray]
    edges: dict[str, np.ndarray]
    atom_runs: dict[str, Family]

    @functools.cached_property
    def atoms(self) -> dict[str, np.ndarray]:
        """The activity and edge atoms as ``(G, n)`` stacks, made on first
        read: only a clause the plan evaluates reads them."""
        return _edge_atoms(*self.masks)

    def witnesses(
        self,
        pairs: Sequence[tuple[Formula, Formula]],
        values: Mapping[Formula, np.ndarray],
        counted: Iterable[tuple[tuple[Formula, Formula], int]] = (),
    ) -> tuple[dict[tuple[Formula, Formula], list[tuple[float | None, int]]],
               dict[tuple[tuple[Formula, Formula], int], list[ObligationScore]]]:
        """Per (obligation, witness) pair, per group: the mean in ms of the
        distances from the obligation's frames to the nearest witness frame
        (``None`` when either set is empty), and the number of obligated
        frames if there are no witness frames, else 0; ``values`` holds the
        plan's valuations of formulas other than atoms.  Then, per counted
        route ``((x, y), R)`` of :func:`_route` in ``counted``, per group,
        its clause's score: x's frames are obligated, and those more than R
        frames from every y frame, all of them in a group with no y frame,
        are violated.

        One distance pass serves every pair and group: pair j's runs are
        placed ``j * G * stride`` frames on, so (pair j, group g) is group
        ``j * G + g`` of one longer axis, placed by :func:`_run_edges`' rule:
        a group's frames are nearer to its own witness frames than to any
        other group's, and a group with none reads none.  Each mean is
        :func:`_mean` of its own slice, and each count reads the gap frames
        of its own slice."""
        groups = self.starts.size - 1
        obligated, witnessed = (self._placed(side, values) for side in zip(*pairs))
        starts = np.arange(len(pairs) * groups + 1) * self.stride
        # Slice k of the obligated frames, in frame order, is (pair, group) k's.
        frames = np.concatenate(((0,), np.cumsum(obligated.end - obligated.start)))
        ends = frames[obligated.start.searchsorted(starts)]
        seen = witnessed.start.searchsorted(starts)
        found = (seen[1:] > seen[:-1]).tolist()
        where = near = np.zeros(0, dtype=np.int64)
        if frames[-1] and len(witnessed):
            where, near = _gap_distances(obligated, witnessed)
        distances = np.zeros(int(frames[-1]))
        distances[where] = near * self.h
        ends, cuts = ends.tolist(), where.searchsorted(ends).tolist()
        summaries = [
            (None, 0) if lo == hi else (None, hi - lo) if not has
            else (_mean(distances[lo:hi], 1000.0), 0)
            for lo, hi, has in zip(ends, ends[1:], found)
        ]

        def score(k: int, r: int) -> ObligationScore:
            total = ends[k + 1] - ends[k]
            if not found[k]:
                return _ratio(total, 0)
            return _ratio(total, total - int(np.count_nonzero(near[cuts[k]:cuts[k + 1]] > r)))

        slices = {key: range(j * groups, (j + 1) * groups) for j, key in enumerate(pairs)}
        scores = {(pair, r): [score(k, r) for k in slices[pair]] for pair, r in counted}
        return {key: [summaries[k] for k in ks] for key, ks in slices.items()}, scores

    def _placed(self, formulas: Sequence[Formula], values: Mapping[Formula, np.ndarray]) -> Family:
        """The frame runs of each formula in turn, formula j's placed
        ``j * G * stride`` frames on."""
        offset = (self.starts.size - 1) * self.stride
        runs = [self.atom_runs[f.name] if isinstance(f, Atom) else _frame_runs(values[f])
                for f in formulas]
        return Family(*(np.concatenate([getattr(r, side) + j * offset for j, r in enumerate(runs)])
                        for side in ("start", "end")))

    def soft_boundary(self, scale: float) -> list[float]:
        """:func:`soft_boundary` of every group's trace pair, from its run edges."""
        return _soft_scores(self.edges["ref"], self.edges["pred"], self.starts, self.h, scale)


def _trace_runs(ref: np.ndarray, pred: np.ndarray, h: float, merge_gap: float) -> _TraceRuns:
    """The runs of the trace pairs stacked in the ``(G, n)`` Boolean arrays
    ``ref`` and ``pred``; runs of different groups are never merged."""
    _check_frame_step(h)
    groups, n = ref.shape
    stride = 2 * n + 1
    starts = np.arange(groups + 1) * stride
    families, frames, bounds, edges, atom_runs = [], [], [], {}, {}
    for side, mask in (("ref", ref), ("pred", pred)):
        edges[side] = side_edges = _run_edges(mask)
        lo, hi = merge_runs(side_edges, h, merge_gap, side_edges[0::2] // stride)
        frames.append(Family(lo, hi))
        start, end = lo % stride * h, hi % stride * h
        start.flags.writeable = end.flags.writeable = False
        families.append(Family(start, end))
        bounds.append(lo.searchsorted(starts))
        first, end = side_edges[0::2], side_edges[1::2]
        offsets = end[end % stride < n]
        atom_runs[f"{side}_active"] = Family(first, end)
        atom_runs[f"{side}_onset"] = Family(first, first + 1)
        atom_runs[f"{side}_offset"] = Family(offsets, offsets + 1)
    # Placed apart, no group's runs meet another's in the window scan; the
    # overlaps are measured in seconds, as a scan of the group alone does.
    refs, preds = families
    overlaps = overlap_pairs(refs, preds, frames)
    by_group = tuple(
        tuple(Family(f.start[b[g]:b[g + 1]], f.end[b[g]:b[g + 1]])
              for f, b in zip(families, bounds))
        for g in range(groups)
    )
    return _TraceRuns(
        h, stride, starts, (ref, pred), refs, preds, tuple(bounds), by_group, overlaps, edges,
        atom_runs,
    )


def _route(clause: FrameClause, runs: _TraceRuns) -> tuple[
        tuple[Formula, Formula] | None, tuple[tuple[Formula, Formula], int] | None]:
    """How the monitor scores a frame clause: its witness pair and its
    counted route, each ``None`` where it has none.

    A clause ``x -> N[r] y @ o`` (the five default guards) has the witness
    pair (o, y), whose witness is the mean nearest-y distance; other
    formula shapes have no generic distance semantics.  When o is x and
    ``runs`` holds both atoms, the witness pass also counts the clause, on
    the route ``((x, y), R)`` with R = ``radius_frames(r, h)``: an x frame
    satisfies ``N[r] y`` exactly when its nearest y frame is at most R
    frames away, the window read as a dilation of y.  Every clause without
    a route, one with an unknown atom included, is planned: the plan
    evaluates it, and names the atom."""
    formula = clause.formula
    if not (isinstance(formula, Implies) and isinstance(formula.left, Atom)
            and isinstance(formula.right, Near) and isinstance(formula.right.child, Atom)):
        return None, None
    pair = clause.obligation, formula.right.child
    if pair[0] != formula.left or not all(atom.name in runs.atom_runs for atom in pair):
        return pair, None
    return pair, (pair, radius_frames(formula.right.radius, runs.h))


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
    refs: Family,
    preds: Family,
    tolerance: float,
    class_context: tuple[str, Mapping[str, Family]] | None,
    diffs: np.ndarray,
    extras: np.ndarray,
) -> tuple[ObligationScore, float | None]:
    """The clause predicate's mean over its obligation set (an empty set scores
    one) and its witness mean, from the runs of one trace pair and their
    :func:`intervals._match` row."""
    _, defaults = EVENT_PREDICATES[clause.predicate]
    param = {key: clause.param(key, factor * tolerance) for key, factor in defaults.items()}
    if clause.predicate == "duration_within":
        return _duration_within(diffs, param["threshold"]), _mean(diffs, 1000.0)
    if clause.predicate == "singly_covered":
        return _singly_covered(extras), _mean(extras)
    if clause.predicate == "latency_window":
        return latency_score(refs, preds, param["lead"], param["lag"]), None
    if class_context is None:
        raise ContractError("overlap_purity requires class-indexed monitoring (monitor_classes)")
    return purity_score(class_context[0], preds, class_context[1]), None


def compile_contract(contract: Contract, h: float) -> EvaluationPlan:
    """:func:`share_subformulas` of the contract's frame formulas on step ``h``."""
    return share_subformulas(_frame_formulas(contract.frame_clauses), h)


def _frame_formulas(clauses: Iterable[FrameClause]):
    """Every clause's formula and obligation, in clause order."""
    return (f for clause in clauses for f in (clause.formula, clause.obligation))


def monitor(contract: Contract, ref_mask, pred_mask, h: float) -> MonitorResult:
    """Evaluate every contract clause on one trace pair.

    Scores frame clauses under their obligations, from the distances to
    the nearest witness frame or by evaluating the formulas on the activity
    and edge atoms, extracts and matches run intervals under the contract's
    policy, scores event clauses over their obligation sets, and attaches
    witness distances.  It is the one-group case of the batched pass.
    """
    return _monitor([contract], [(ref_mask, pred_mask)], h, [None])[1][0]


def _monitor(
    contracts: Sequence[Contract], pairs: Iterable[tuple], h: float,
    classes: Sequence[str | None],
) -> tuple[_TraceRuns, list[MonitorResult]]:
    """The runs of the (reference, prediction) mask ``pairs``, one group
    each, and the result of each row, in one pass: each contract on each
    group, contract by contract.  The rows are the groups under one
    contract, or one group under each of several contracts, all of one
    merge gap and one matcher.  ``classes[g]`` names group g's class; a
    class row sees every class group's reference runs as its purity
    context, a ``None`` row none.

    Each pair is checked by :func:`frames._mask_pair`, in order, and all
    must have one length; a single pair is stacked as a view.  Each
    contract keeps the :func:`_route` of each frame clause.  The clauses
    without a counted route are planned: one plan of their formulas and
    obligations, over the contracts, gives their valuations as ``(G, n)``
    stacks, and each such clause's scores, read once for all groups, are
    kept by clause; contracts with none plan and evaluate nothing.  One
    :meth:`_TraceRuns.witnesses` pass finds every witness pair of every
    row, the edge pairs included, and every counted route's counts, for
    all groups.  One :func:`intervals._match` serves all rows, drawn in
    order as the results are made: a row's matching is drawn, and an exact
    row over the bound raises, after every earlier row's clauses and
    before its own, so the first row in order decides.  An unknown atom is
    raised by the plan, before any row; the counts and the witness pass
    raise none."""
    checked = [_mask_pair(ref, pred) for ref, pred in pairs]
    lengths = sorted({ref.size for ref, _ in checked})
    if len(lengths) > 1:
        raise ValueError(f"mask lengths differ across trace pairs: {lengths}")
    ref, pred = (side[0][None] if len(side) == 1 else np.stack(side) for side in zip(*checked))
    runs = _trace_runs(ref, pred, h, contracts[0].merge_gap)
    [policy] = {contract.matcher for contract in contracts}
    routes = [[_route(c, runs) for c in contract.frame_clauses] for contract in contracts]
    planned = dict.fromkeys(c for contract, clause_routes in zip(contracts, routes)
                            for c, (_, route) in zip(contract.frame_clauses, clause_routes)
                            if route is None)
    values, stacked = {}, {}
    if planned:
        values = share_subformulas(_frame_formulas(planned), runs.h).evaluate(runs.atoms)
        scratch = np.empty_like(runs.masks[0])
        stacked = {c: _stacked_scores(values[c.formula], values[c.obligation], scratch)
                   for c in planned}
    [matched] = _match(runs.refs, runs.preds, runs.overlaps, runs.bounds,
                       [c.tolerance for c in contracts], (policy,))
    frame_routes = [r for clause_routes in routes for r in clause_routes]
    witness_pairs = dict.fromkeys([*(pair for pair, _ in frame_routes if pair), *EDGE_PAIRS])
    # The frame formulas' valuations are freed before the witness pass.
    values = {f: values[f] for f, _ in witness_pairs if not isinstance(f, Atom)}
    counted = dict.fromkeys(route for _, route in frame_routes if route)
    summaries, counts = runs.witnesses(list(witness_pairs), values, counted)
    onsets, offsets = (summaries[pair] for pair in EDGE_PAIRS)
    class_refs = {name: runs.by_group[g][0] for g, name in enumerate(classes) if name is not None}
    results = []
    rows = itertools.product(zip(contracts, routes), enumerate(classes))
    for ((contract, clause_routes), (group, name)), (matching, diffs, extras) in zip(rows, matched):
        frame = iter(clause_routes)
        refs, preds = runs.by_group[group]
        class_context = None if name is None else (name, class_refs)
        coordinates = []
        for clause in contract.clauses:
            if isinstance(clause, FrameClause):
                pair, route = next(frame)
                value = (counts[route] if route else stacked[clause])[group]
                witness = None if pair is None else summaries[pair][group][0]
                kind = "frame"
            else:
                value, witness = _event_clause(
                    clause, refs, preds, contract.tolerance, class_context, diffs, extras
                )
                kind = "event"
            coordinates.append(GuardCoordinate(
                clause.name, kind, value.score, value.obligated, value.satisfied, value.violated,
                witness,
            ))
        # An edge pair's unwitnessed frames are the group's excluded edges.
        (onset_mae, onset_excluded), (offset_mae, offset_excluded) = onsets[group], offsets[group]
        witnesses = WitnessReport(
            onset_mae_ms=onset_mae,
            offset_mae_ms=offset_mae,
            onset_excluded=onset_excluded,
            offset_excluded=offset_excluded,
            duration_abs_diffs=tuple(diffs.tolist()),
            fragmentation_extra_counts=tuple(extras.tolist()),
        )
        guards = GuardVector(tuple(coordinates))
        results.append(MonitorResult(guards, witnesses, refs, preds, matching))
    return runs, results


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
    """Evaluate the same parsed clauses on every class and macro-average.

    The classes are the groups of one batched pass: their masks are stacked,
    their runs matched and witnessed in one pass, and any frame clause the
    witness pass does not count evaluated once for all of them.
    The macro vector's score is the exact unweighted per-coordinate mean
    across classes; counts are summed for reporting.
    """
    if not class_masks:
        raise ValueError("no classes supplied")
    _, results = _monitor([contract], class_masks.values(), h, list(class_masks))
    return ClassMonitorResult(dict(zip(class_masks, results)), _macro(contract, results))


def _macro(contract: Contract, results: Sequence[MonitorResult]) -> GuardVector:
    """The per-coordinate unweighted mean of class results, counts summed.

    Each clause's score mean is one row of a C-contiguous (clauses x
    classes) array, reduced along the row as ``np.mean`` reduces a list;
    a witness mean is :func:`_mean` of the classes' witness means."""
    columns = list(zip(*(r.guards.coordinates for r in results)))
    scores = np.array([[c.score for c in coords] for coords in columns], dtype=float)
    means = np.mean(scores.reshape(len(contract.clauses), len(results)), axis=1).tolist()
    macro = []
    for clause, coords, score in zip(contract.clauses, columns, means):
        witness = _mean([c.witness_mean for c in coords if c.witness_mean is not None])
        macro.append(
            GuardCoordinate(
                clause.name,
                coords[0].kind,
                score,
                sum(c.obligated for c in coords),
                sum(c.satisfied for c in coords),
                sum(c.violated for c in coords),
                witness,
            )
        )
    return GuardVector(tuple(macro))


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
    # The one-group case: one trace pair's edges, group 0 of stride 2n + 1.
    starts = np.array([0, 2 * ref.size + 1])
    return _soft_scores(_run_edges(ref), _run_edges(pred), starts, h, scale)[0]


def _soft_scores(
    ref_edges: np.ndarray, pred_edges: np.ndarray, starts: np.ndarray, h: float, scale: float
) -> list[float]:
    """:func:`soft_boundary` of each group from the sorted edge frames of
    both sides, placed by :func:`_run_edges`' rule, group g's in
    ``[starts[g], starts[g + 1])``.  Each edge's two nearest opposite edges
    come from one ``searchsorted`` on the placed edges, and every time is in
    seconds from the edge's own group start, as a scan of the group alone has
    it.  Another group's edges lie more than ``n`` frames away, so they are
    never the nearer of a group that has its own, and a group with none is
    not scored.  Each group's mean is :func:`_mean` of its own slice."""
    sides = (ref_edges, pred_edges)
    bounds = [edges.searchsorted(starts) for edges in sides]
    sizes = [b[1:] - b[:-1] for b in bounds]
    means = []
    for src, dst in ((0, 1), (1, 0)):
        edges, opposite, cut = sides[src], sides[dst], bounds[src].tolist()
        if not opposite.size:
            means.append([0.0] * (len(cut) - 1))
            continue
        pos = opposite.searchsorted(edges)
        frame = edges % starts[1]  # each edge's frame in its own group
        origin, time = edges - frame, frame * h
        left, right = ((opposite[k] - origin) * h
                       for k in (np.maximum(pos - 1, 0), np.minimum(pos, opposite.size - 1)))
        credit = np.exp(-np.minimum(np.abs(time - left), np.abs(time - right)) / scale)
        means.append([_mean(credit[a:b]) if b > a else 0.0 for a, b in zip(cut, cut[1:])])
    return [
        1.0 if not (r or p) else 0.0 if not (r and p) else (f + b) / 2.0
        for r, p, f, b in zip(sizes[0].tolist(), sizes[1].tolist(), *means)
    ]


@functools.lru_cache(maxsize=_CONTRACT_MEMO_SIZE)
def _regenerated(contract: Contract, tolerances: tuple[float, ...]) -> tuple[Contract, ...]:
    """:func:`retolerance` of the contract at each tolerance, kept by value."""
    return tuple(retolerance(contract, tolerance) for tolerance in tolerances)


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
        return dict(self.contract._formula_texts)


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

    The tolerances are the rows of one batched pass over one trace pair: its
    runs are found once, one witness pass counts every regenerated
    contract's ``x -> N[r] y @ x`` clauses, the other frame formulas are
    evaluated together, once, and every tolerance's candidates are matched
    in one table.  The regenerated contracts and their joint plan are kept
    by value, so a repeated sweep regenerates and plans nothing.
    """
    tolerances = list(tolerances)
    if not tolerances:
        raise ValueError("no tolerances supplied")
    if not all(0.0 < t < math.inf for t in tolerances):
        raise ValueError("tolerances must be positive and finite")
    if any(b <= a for a, b in zip(tolerances, tolerances[1:])):
        raise ValueError("tolerances must be strictly ascending")
    if not contract.clauses:
        raise ContractError("a tolerance sweep needs at least one clause")
    # The merge gap does not scale, so the runs are the same at every tolerance.
    regenerated = _regenerated(contract, tuple(tolerances))
    _, results = _monitor(regenerated, [(ref_mask, pred_mask)], h, [None])
    rows = [
        SweepRow(tolerance, grid_contract, result, mean_logic(result.guards))
        for tolerance, grid_contract, result in zip(tolerances, regenerated, results)
    ]
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
    "covering_counts",
    "latency_score",
    "purity_score",
    "tolerance_sweep",
]
