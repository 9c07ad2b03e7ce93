"""Frame-level evaluation of parsed formulas over sampled binary traces.

A trace environment fixes a frame step ``h`` and maps atom names to
Boolean arrays of a common length ``n``.  Temporal radii in seconds are
projected to frame radii with the least integer not below ``radius/h``,
and every window is clipped to the available frame interval.  Each
bounded modality works on whole Boolean arrays with slices: ``N[r]`` and
``F[r]`` are dilations by shift doubling, ceil(log2 w)+1 byte passes for
a window of ``w`` frames; ``G[r]`` is the erosion ``!F[r]!``; ``U[r]``
compares the next-psi and next-phi-false frame indices, two reversed
running minima.  An :class:`EvaluationPlan` evaluates the unique
subformulas of one or more formulas children first, so a full evaluation
costs O(n log r) byte operations per temporal node and O(n) per other
node; the walk that builds the plan also gives each node's reach.  It
returns the valuations of the formulas it was built from and of the atoms
only: an intermediate node's array is dropped after its last consumer,
which may write a pointwise result into it.  Plans are kept by value in
one bounded process memo, so equal formulas on one grid share one plan.

All evaluation helpers treat the last array axis as time, which lets the
monitor evaluate a stack of trace pairs in one pass, and the
finite-universe enumeration of the test helpers (``tests/gen.py``) a
whole stack of environments; :func:`_stacked_scores` counts each row's
obligation score.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .lexer import EMPTY_SPAN, SourceSpan
from .parser import (
    TEMPORAL,
    Always,
    And,
    Atom,
    Formula,
    Future,
    Implies,
    Near,
    Not,
    Or,
    Until,
    children,
    walk,
)

# Slack for radius/grid divisions: tolerances within 1e-9 of an exact
# multiple of the frame step count as exact.
_GRID_EPS = 1e-9


class ContractError(Exception):
    """Contract-level misuse (bad clause configuration or evaluation context)."""


class UnknownAtomError(Exception):
    """A formula referenced an atom the environment does not provide.  The
    ``name`` is exact; the ``span`` may be an equal formula's, planned earlier."""

    def __init__(self, name: str, span: SourceSpan = EMPTY_SPAN) -> None:
        super().__init__(f"unknown atom {name!r}")
        self.name = name
        self.span = span


def radius_frames(epsilon: float, h: float) -> int:
    """Least integer frame radius whose physical span covers ``epsilon`` seconds.
    A radius whose frame count overflows a float raises :class:`ContractError`."""
    if not (epsilon > 0.0) or not (h > 0.0):
        raise ValueError(f"radius and frame step must be positive, got {epsilon!r}, {h!r}")
    frames = epsilon / h - _GRID_EPS
    if frames == math.inf:
        raise ContractError(f"radius {epsilon!r} spans too many frames of step {h!r} to count")
    return max(1, math.ceil(frames))


def _as_mask(values, name: str = "mask") -> np.ndarray:
    """A one-dimensional 0/1 sequence as a Boolean array.

    Values of a non-Boolean array must all equal 0 or 1, as in trace
    files; a 2, a -1 or a NaN raises instead of reading as active.  A
    Boolean array is returned as it is, so checking it again costs nothing.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.dtype != bool and not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"{name} must contain only 0/1 values")
    return arr if arr.dtype == bool else arr.astype(bool)


def _mask_pair(ref_mask, pred_mask) -> tuple[np.ndarray, np.ndarray]:
    """Both masks as by :func:`_as_mask`; they must have one length."""
    ref, pred = _as_mask(ref_mask, "ref_mask"), _as_mask(pred_mask, "pred_mask")
    if ref.shape != pred.shape:
        raise ValueError(f"mask lengths differ: {ref.shape[0]} vs {pred.shape[0]}")
    return ref, pred


def _check_frame_step(h) -> None:
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"frame step must be finite and positive, got {h!r}")


@dataclass
class TraceEnvironment:
    """Frame step plus named Boolean sequences of a common length.

    Boolean arrays are kept as given; other 0/1 sequences are converted.
    """

    frame_step: float
    frame_count: int
    atoms: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        _check_frame_step(self.frame_step)
        if self.frame_count < 0:
            raise ValueError(f"frame count must be nonnegative, got {self.frame_count!r}")
        converted = {}
        for name, values in dict(self.atoms).items():
            arr = _as_mask(values, name)
            if arr.shape[-1] != self.frame_count:
                raise ValueError(
                    f"atom {name!r} has length {arr.shape[-1]}, expected {self.frame_count}"
                )
            converted[name] = arr
        self.atoms = converted


@dataclass(frozen=True)
class ObligationScore:
    """Satisfaction ratio over an obligation set, with the underlying counts."""

    score: float
    obligated: int
    satisfied: int
    violated: int


@dataclass
class EvalStats:
    """Work counters for the linearity checks: one node visit makes one
    array of ``n`` elements, in a constant number of passes for a
    pointwise or until node and O(log r) passes for a window of radius r."""

    node_visits: int = 0
    element_ops: int = 0


def _window_exists(child: np.ndarray, back: int, ahead: int) -> np.ndarray:
    """out[..., i] = any(child[..., i-back : i+ahead+1]), clipped to the trace.

    Shift doubling over the child padded on the left with ``back`` false
    frames (at most ``n``, as the left edge clips any longer reach): after
    ceil(log2 w) sliced OR passes, frame ``j`` holds the OR of the
    ``w = back+ahead+1`` frames from ``j`` (fewer at the right edge), so
    the first ``n`` frames are the windows.  O(n log w) byte operations.
    """
    n = child.shape[-1]
    back = min(back, n)
    fwd = np.zeros(child.shape[:-1] + (back + n,), dtype=bool)
    fwd[..., back:] = child
    w, span = back + ahead + 1, 1
    while span < min(w, back + n):
        shift = min(span, w - span)
        fwd[..., : back + n - shift] |= fwd[..., shift:]
        span += shift
    return fwd[..., :n]


def _window_all(child: np.ndarray, ahead: int) -> np.ndarray:
    # Frames past the end read as vacuously true, so the erosion of the
    # complement's dilation clips exactly as the window does.
    return ~_window_exists(~child, 0, ahead)


def _next_true(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Index of the first true frame at or after each frame (n where none)."""
    marks = np.where(values, idx, values.shape[-1])
    return np.minimum.accumulate(marks[..., ::-1], axis=-1)[..., ::-1]


def _until(phi: np.ndarray, psi: np.ndarray, r: int) -> np.ndarray:
    # true at i iff the first psi frame j at or after i lies within
    # min(i+r, n-1) and no phi-false frame comes before it (phi may fail at j).
    # A radius past the trace reads as n, so idx + r cannot wrap in int64.
    n = phi.shape[-1]
    idx = np.arange(n)
    upper = np.minimum(np.minimum(_next_true(~phi, idx), idx + min(r, n)), n - 1)
    return _next_true(psi, idx) <= upper


@dataclass(frozen=True)
class Reach:
    """How far around frame ``i`` a node's verdict at ``i`` looks.

    ``seconds`` sums the radii along the deepest future path; ``frames``
    does the same with each radius projected to the grid on its own;
    ``backward`` counts the left context, which only the symmetric
    neighborhood adds.
    """

    seconds: float
    frames: int
    backward: int


def _reach(node: Formula, kids: list[Reach], r: int) -> Reach:
    seconds = max((k.seconds for k in kids), default=0.0)
    frames = max((k.frames for k in kids), default=0)
    backward = max((k.backward for k in kids), default=0)
    if isinstance(node, TEMPORAL):
        seconds += node.radius
        frames += r
        if isinstance(node, Near):
            backward += r
    return Reach(seconds, frames, backward)


@dataclass(frozen=True)
class EvaluationPlan:
    """Children-first order over unique subformulas on one frame grid.

    Structurally equal subtrees collapse to one node, so a subformula
    shared by several formulas, or repeated inside one, is evaluated once;
    per-occurrence valuations are unchanged from tree evaluation.
    ``kids`` holds each node's child positions, ``radii`` its frame radius
    (0 for non-temporal nodes) and ``reach`` maps every node to its reach.
    ``roots`` are the formulas the plan was built from, and ``dying`` holds
    for each node the children it is the last consumer of, roots and atoms
    excepted.
    """

    nodes: tuple[Formula, ...]
    kids: tuple[tuple[int, ...], ...]
    radii: tuple[int, ...]
    reach: Mapping[Formula, Reach]
    roots: tuple[Formula, ...]
    dying: tuple[tuple[int, ...], ...]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def evaluate(
        self, atoms: Mapping[str, np.ndarray], stats: EvalStats | None = None
    ) -> dict[Formula, np.ndarray]:
        """Valuations of the roots and of the atoms they read; atom arrays may
        be stacked on leading axes (the last axis is time).

        Other nodes are dropped once their last consumer has read them, and
        a ``!``, ``&``, ``|`` or ``->`` node writes its result into such a
        dying child's array when the shapes agree.  Atom arrays passed in
        are never written, nor is any returned array after it is made.
        """
        values: list[np.ndarray | None] = []
        for node, kids, r, dying in zip(self.nodes, self.kids, self.radii, self.dying):
            args = [values[k] for k in kids]
            out = None
            if isinstance(node, _POINTWISE):
                spare = (values[k] for k in dying)
                out = next((b for b in spare if all(a.shape == b.shape for a in args)), None)
            value = _apply(node, args, atoms, r, out)
            for k in dying:
                values[k] = None
            values.append(value)
            if stats is not None:
                stats.node_visits += 1
                stats.element_ops += value.size
        return {node: value for node, value in zip(self.nodes, values) if value is not None}


# Distinct (formulas, frame step) keys whose plans a process keeps, least
# recently used dropped first: room for a few per kept contract text.
_PLAN_MEMO_SIZE = 128


def share_subformulas(formulas: Iterable[Formula], h: float) -> EvaluationPlan:
    """Plan the unique subtrees of ``formulas`` on the grid of step ``h``;
    equal formula lists (spans aside) on one step share one read-only plan."""
    return _plan(tuple(formulas), h)


@functools.lru_cache(maxsize=_PLAN_MEMO_SIZE)
def _plan(formulas: tuple[Formula, ...], h: float) -> EvaluationPlan:
    """The walk behind :func:`share_subformulas`: one children-first pass
    projects each radius to frames once and derives each node's reach from
    its children's; each intermediate node's last consumer follows from
    the finished child lists."""
    _check_frame_step(h)
    slots: dict[Formula, int] = {}
    kids: list[tuple[int, ...]] = []
    radii: list[int] = []
    reach: list[Reach] = []
    roots: dict[Formula, None] = {}
    for formula in formulas:
        roots[formula] = None
        for node in walk(formula):
            if node in slots:
                continue
            slots[node] = len(slots)
            node_kids = tuple(slots[c] for c in children(node))
            r = radius_frames(node.radius, h) if isinstance(node, TEMPORAL) else 0
            kids.append(node_kids)
            radii.append(r)
            reach.append(_reach(node, [reach[k] for k in node_kids], r))
    nodes = tuple(slots)
    last = {k: i for i, node_kids in enumerate(kids) for k in node_kids}
    kept = {slots[f] for f in roots} | {i for i, node in enumerate(nodes) if isinstance(node, Atom)}
    dying = tuple(
        tuple(sorted({k for k in node_kids if last[k] == i and k not in kept}))
        for i, node_kids in enumerate(kids)
    )
    return EvaluationPlan(nodes, tuple(kids), tuple(radii),
                          MappingProxyType(dict(zip(nodes, reach))), tuple(roots), dying)


_POINTWISE = (Not, And, Or, Implies)


def _apply(
    node: Formula,
    kids: list[np.ndarray],
    atoms: Mapping[str, np.ndarray],
    r: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate one node from its children's valuations (last axis is time);
    a pointwise node writes into ``out`` when given one."""
    match node:
        case Atom(name=name):
            try:
                return atoms[name]
            except KeyError:
                raise UnknownAtomError(name, node.span) from None
        case Not():
            return np.invert(kids[0], out=out)
        case And():
            return np.bitwise_and(kids[0], kids[1], out=out)
        case Or():
            return np.bitwise_or(kids[0], kids[1], out=out)
        case Implies():
            # On Booleans a <= b is !a | b, in one pass.
            return np.less_equal(kids[0], kids[1], out=out)
        case Near():
            return _window_exists(kids[0], back=r, ahead=r)
        case Future():
            return _window_exists(kids[0], back=0, ahead=r)
        case Always():
            return _window_all(kids[0], ahead=r)
        case Until():
            return _until(kids[0], kids[1], r)
    raise TypeError(f"not a formula node: {node!r}")


def evaluate(formula: Formula, env: TraceEnvironment, stats: EvalStats | None = None) -> np.ndarray:
    """Boolean valuation of ``formula`` on the environment's frame grid."""
    return share_subformulas([formula], env.frame_step).evaluate(env.atoms, stats)[formula]


def obligation_score(values: np.ndarray, mask: np.ndarray) -> ObligationScore:
    """Mean of ``values`` over the frames where ``mask`` holds.

    An empty obligation set scores one: a trace with no obligated frames
    cannot fail the clause.
    """
    return _ratio(int(np.count_nonzero(mask)), int(np.count_nonzero(values & mask)))


def _ratio(obligated: int, satisfied: int) -> ObligationScore:
    return ObligationScore(satisfied / obligated if obligated else 1.0, obligated, satisfied,
                           obligated - satisfied)


def _stacked_scores(values: np.ndarray, mask: np.ndarray, scratch: np.ndarray) -> list:
    """:func:`obligation_score` of each row of ``(G, n)`` stacks.  The
    conjunction is written into ``scratch``, of the stacks' shape, so scoring
    a clause allocates no frame array.  Rows are counted one by one: a
    count along an axis is a sum reduction, slower for a few rows."""
    np.bitwise_and(values, mask, out=scratch)
    return [_ratio(int(np.count_nonzero(o)), int(np.count_nonzero(s)))
            for o, s in zip(mask, scratch)]


def score(formula: Formula, obligation: Formula, env: TraceEnvironment) -> ObligationScore:
    """Mean of the formula valuation over frames where the obligation holds."""
    values = share_subformulas([formula, obligation], env.frame_step).evaluate(env.atoms)
    return obligation_score(values[formula], values[obligation])


def derive_edge_atoms(ref_mask, pred_mask, h: float) -> TraceEnvironment:
    """Environment with activity and edge atoms for a reference/prediction pair.

    An onset is an active frame following an inactive frame or the left
    trace boundary; an offset is an inactive frame following an active one.
    """
    ref, pred = _mask_pair(ref_mask, pred_mask)
    return TraceEnvironment(h, ref.shape[0], _edge_atoms(ref, pred))


def _edge_atoms(ref: np.ndarray, pred: np.ndarray) -> dict[str, np.ndarray]:
    """Activity and edge atoms of Boolean masks, or of ``(G, n)`` stacks of
    them, the last axis being time."""
    atoms = {"ref_active": ref, "pred_active": pred}
    for prefix_name, mask in (("ref", ref), ("pred", pred)):
        atoms[f"{prefix_name}_onset"] = _onsets(mask)
        atoms[f"{prefix_name}_offset"] = _offsets(mask)
    return atoms


def _onsets(mask: np.ndarray) -> np.ndarray:
    # On Booleans mask[i] > mask[i-1] is mask[i] & !mask[i-1].
    out = np.empty_like(mask)
    np.greater(mask[..., 1:], mask[..., :-1], out=out[..., 1:])
    out[..., :1] = mask[..., :1]
    return out


def _offsets(mask: np.ndarray) -> np.ndarray:
    out = np.empty_like(mask)
    np.less(mask[..., 1:], mask[..., :-1], out=out[..., 1:])
    out[..., :1] = False
    return out
