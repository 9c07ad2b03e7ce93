"""Frame-level evaluation of parsed formulas over sampled binary traces.

A trace environment fixes a frame step ``h`` and maps atom names to
Boolean arrays of a common length ``n``.  Temporal radii in seconds are
projected to frame radii with the least integer not below ``radius/h``,
and every window is clipped to the available frame interval.  Each
bounded modality is computed with one prefix sum over its child array,
so a full evaluation costs O(k*n) for k parsed nodes.

All evaluation helpers treat the last array axis as time, which lets the
finite-universe enumeration in :mod:`tracecontracts.basis` evaluate a
whole stack of environments in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .lexer import EMPTY_SPAN, SourceSpan
from .parser import (
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


class UnknownAtomError(Exception):
    """A formula referenced an atom the environment does not provide."""

    def __init__(self, name: str, span: SourceSpan = EMPTY_SPAN) -> None:
        super().__init__(f"unknown atom {name!r}")
        self.name = name
        self.span = span


def radius_frames(epsilon: float, h: float) -> int:
    """Least integer frame radius whose physical span covers ``epsilon`` seconds."""
    if not (epsilon > 0.0) or not (h > 0.0):
        raise ValueError(f"radius and frame step must be positive, got {epsilon!r}, {h!r}")
    return max(1, math.ceil(epsilon / h - _GRID_EPS))


def _as_mask(values, name: str = "mask") -> np.ndarray:
    """A Boolean copy of a one-dimensional 0/1 sequence.

    Values of a non-Boolean array must all equal 0 or 1, as in trace
    files; a 2, a -1 or a NaN raises instead of reading as active.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.dtype != bool and not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"{name} must contain only 0/1 values")
    return arr.astype(bool)


def _check_frame_step(h) -> None:
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"frame step must be finite and positive, got {h!r}")


@dataclass
class TraceEnvironment:
    """Frame step plus named Boolean sequences of a common length."""

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
    """Work counters for the linearity checks: one node visit touches one
    array of ``n`` elements a constant number of times."""

    node_visits: int = 0
    element_ops: int = 0


def _prefix(values: np.ndarray) -> np.ndarray:
    """S[..., j] = number of true entries in values[..., :j]."""
    counts = np.cumsum(values, axis=-1, dtype=np.int64)
    zeros = np.zeros(values.shape[:-1] + (1,), dtype=np.int64)
    return np.concatenate([zeros, counts], axis=-1)


def apply_node(
    formula: Formula,
    child_values: tuple[np.ndarray, ...],
    atoms: Mapping[str, np.ndarray],
    h: float,
) -> np.ndarray:
    """Evaluate one node given its children's valuations (last axis is time)."""
    match formula:
        case Atom(name=name):
            try:
                return atoms[name]
            except KeyError:
                raise UnknownAtomError(name, formula.span) from None
        case Not():
            return ~child_values[0]
        case And():
            return child_values[0] & child_values[1]
        case Or():
            return child_values[0] | child_values[1]
        case Implies():
            return ~child_values[0] | child_values[1]
        case Near(radius=radius):
            r = radius_frames(radius, h)
            return _window_exists(child_values[0], back=r, ahead=r)
        case Future(radius=radius):
            r = radius_frames(radius, h)
            return _window_exists(child_values[0], back=0, ahead=r)
        case Always(radius=radius):
            r = radius_frames(radius, h)
            return _window_all(child_values[0], ahead=r)
        case Until(radius=radius):
            r = radius_frames(radius, h)
            return _until(child_values[0], child_values[1], r)
    raise TypeError(f"not a formula node: {formula!r}")


def _window_exists(child: np.ndarray, back: int, ahead: int) -> np.ndarray:
    n = child.shape[-1]
    if n == 0:
        return child.copy()
    prefix = _prefix(child)
    idx = np.arange(n)
    hi = np.minimum(n, idx + ahead + 1)
    lo = np.maximum(0, idx - back)
    return (prefix[..., hi] - prefix[..., lo]) > 0


def _window_all(child: np.ndarray, ahead: int) -> np.ndarray:
    n = child.shape[-1]
    if n == 0:
        return child.copy()
    prefix = _prefix(child)
    idx = np.arange(n)
    hi = np.minimum(n, idx + ahead + 1)
    return (prefix[..., hi] - prefix[..., idx]) == (hi - idx)


def _until(phi: np.ndarray, psi: np.ndarray, r: int) -> np.ndarray:
    # true at i iff psi holds at some j in [i, min(i+r, n-1)] with phi true
    # on [i, j-1]; j may run up to (not past) the first phi-false at/after i.
    n = phi.shape[-1]
    if n == 0:
        return phi.copy()
    idx = np.arange(n)
    blocked = np.where(~phi, idx, n)
    next_false = np.minimum.accumulate(blocked[..., ::-1], axis=-1)[..., ::-1]
    upper = np.minimum(np.minimum(next_false, idx + r), n - 1)
    prefix = _prefix(psi)
    lo = prefix[..., idx]
    hi = np.take_along_axis(prefix, upper + 1, axis=-1)
    return (hi - lo) > 0


def evaluate_arrays(
    formula: Formula,
    atoms: Mapping[str, np.ndarray],
    h: float,
    stats: EvalStats | None = None,
) -> np.ndarray:
    """Evaluate over raw atom arrays; arrays may be stacked on leading axes."""
    kid_values = tuple(evaluate_arrays(c, atoms, h, stats) for c in children(formula))
    value = apply_node(formula, kid_values, atoms, h)
    if stats is not None:
        stats.node_visits += 1
        stats.element_ops += value.size
    return value


def evaluate(formula: Formula, env: TraceEnvironment, stats: EvalStats | None = None) -> np.ndarray:
    """Boolean valuation of ``formula`` on the environment's frame grid."""
    return evaluate_arrays(formula, env.atoms, env.frame_step, stats)


def score(formula: Formula, obligation: Formula, env: TraceEnvironment) -> ObligationScore:
    """Mean of the formula valuation over frames where the obligation holds.

    An empty obligation set scores one: a trace with no obligated frames
    cannot fail the clause.
    """
    values = evaluate(formula, env)
    mask = evaluate(obligation, env)
    obligated = int(np.count_nonzero(mask))
    satisfied = int(np.count_nonzero(values & mask))
    violated = obligated - satisfied
    ratio = satisfied / obligated if obligated else 1.0
    return ObligationScore(ratio, obligated, satisfied, violated)


def derive_edge_atoms(ref_mask, pred_mask, h: float) -> TraceEnvironment:
    """Environment with activity and edge atoms for a reference/prediction pair.

    An onset is an active frame following an inactive frame or the left
    trace boundary; an offset is an inactive frame following an active one.
    """
    ref = _as_mask(ref_mask, "ref_mask")
    pred = _as_mask(pred_mask, "pred_mask")
    if ref.shape != pred.shape:
        raise ValueError(f"mask lengths differ: {ref.shape[0]} vs {pred.shape[0]}")
    atoms = {"ref_active": ref, "pred_active": pred}
    for prefix_name, mask in (("ref", ref), ("pred", pred)):
        atoms[f"{prefix_name}_onset"] = _onsets(mask)
        atoms[f"{prefix_name}_offset"] = _offsets(mask)
    return TraceEnvironment(h, ref.shape[0], atoms)


def _onsets(mask: np.ndarray) -> np.ndarray:
    out = np.zeros_like(mask)
    if mask.size:
        out[0] = mask[0]
        out[1:] = mask[1:] & ~mask[:-1]
    return out


def _offsets(mask: np.ndarray) -> np.ndarray:
    out = np.zeros_like(mask)
    if mask.size:
        out[1:] = ~mask[1:] & mask[:-1]
    return out


@dataclass(frozen=True)
class EvaluationPlan:
    """Directed acyclic evaluation order over unique subformulas.

    Structurally equal subtrees collapse to one node, so repeated
    subformulas are evaluated once; per-occurrence valuations are
    unchanged from plain tree evaluation.
    """

    nodes: tuple[Formula, ...]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def root(self) -> Formula:
        return self.nodes[-1]

    def evaluate(self, env: TraceEnvironment, stats: EvalStats | None = None) -> np.ndarray:
        values: dict[Formula, np.ndarray] = {}
        for node in self.nodes:
            kid_values = tuple(values[c] for c in children(node))
            value = apply_node(node, kid_values, env.atoms, env.frame_step)
            values[node] = value
            if stats is not None:
                stats.node_visits += 1
                stats.element_ops += value.size
        return values[self.root]


def share_subformulas(formula: Formula) -> EvaluationPlan:
    """Collapse structurally equal subtrees into one shared evaluation node."""
    unique: dict[Formula, None] = {}
    for node in walk(formula):
        unique.setdefault(node, None)
    return EvaluationPlan(tuple(unique))


def lookahead(formula: Formula) -> float:
    """Maximum future time in seconds needed to decide a frame's verdict.

    Atoms and negation add nothing, Boolean nodes take the maximum of
    their children, bounded future operators add their horizon, and the
    symmetric neighborhood adds its radius as right context.
    """
    match formula:
        case Atom():
            return 0.0
        case Not(child=c):
            return lookahead(c)
        case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r):
            return max(lookahead(l), lookahead(r))
        case Near(child=c, radius=radius) | Future(child=c, radius=radius) | Always(
            child=c, radius=radius
        ):
            return lookahead(c) + radius
        case Until(left=l, right=r, radius=radius):
            return max(lookahead(l), lookahead(r)) + radius
    raise TypeError(f"not a formula node: {formula!r}")


def lookahead_frames(formula: Formula, h: float) -> int:
    """Frame-count lookahead with the grid projection applied per operator."""
    match formula:
        case Atom():
            return 0
        case Not(child=c):
            return lookahead_frames(c, h)
        case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r):
            return max(lookahead_frames(l, h), lookahead_frames(r, h))
        case Near(child=c, radius=radius) | Future(child=c, radius=radius) | Always(
            child=c, radius=radius
        ):
            return lookahead_frames(c, h) + radius_frames(radius, h)
        case Until(left=l, right=r, radius=radius):
            return max(lookahead_frames(l, h), lookahead_frames(r, h)) + radius_frames(radius, h)
    raise TypeError(f"not a formula node: {formula!r}")


def backward_frames(formula: Formula, h: float) -> int:
    """Frame-count backward reach; only the symmetric neighborhood looks left."""
    match formula:
        case Atom():
            return 0
        case Not(child=c) | Future(child=c) | Always(child=c):
            return backward_frames(c, h)
        case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r) | Until(
            left=l, right=r
        ):
            return max(backward_frames(l, h), backward_frames(r, h))
        case Near(child=c, radius=radius):
            return backward_frames(c, h) + radius_frames(radius, h)
    raise TypeError(f"not a formula node: {formula!r}")
