"""Run-interval extraction, candidate pairing, and one-to-one matching.

Maximal active runs of a mask become half open intervals ``[i*h, j*h)``;
adjacent runs never share an endpoint frame, which avoids double
ownership of shared boundaries.  A reference/prediction pair is a
matching candidate when the intervals overlap and at least one endpoint
pair differs by at most three times the tolerance; its cost is

    cost = |r0 - p0| + |r1 - p1| - overlap

so small boundary error is cheap and overlap is a reward.  The greedy
policy keeps the cheapest still-unmatched candidates; the exact policy
returns a maximum cardinality matching of minimum total cost and is
intended for bounded audit instances.

Runs are found from the nonzero differences of the zero-padded mask, so
extraction is vectorised over frames and touches Python once per run.
Pair relations use a sorted-window range scan instead of an all-pairs
loop: visited in start order, every prediction that overlaps a
reference starts before the reference ends and has a running maximum end
past the reference start, so the overlapping predictions lie in one
contiguous window of that order, found by two bisections.  Each window
member is kept or dropped by the same float test the all-pairs loop
applies, so results are identical for any interval sequences, sorted or
not, overlapping or not.  For the sorted disjoint runs that extraction
returns, the start-order sort is one linear pass and the window holds
exactly the overlapping predictions; candidate generation and covering
counts then cost O(R + P + K) for R references, P predictions and
K <= R + P - 1 overlapping pairs, plus a C-level bisection per
reference.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .frames import ObligationScore, _as_mask, _check_frame_step

_TIME_EPS = 1e-9


class AuditBoundError(Exception):
    """An exact-matching instance exceeded the configured audit bound."""


@dataclass(frozen=True)
class Interval:
    """Half open span ``[start, end)`` in seconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not (self.start < self.end):
            raise ValueError(f"empty interval [{self.start}, {self.end})")

    @property
    def length(self) -> float:
        return self.end - self.start


def overlap_length(a: Interval, b: Interval) -> float:
    """Overlap of half open intervals; touching intervals overlap zero."""
    return max(0.0, min(a.end, b.end) - max(a.start, b.start))


def _run_edges(mask: np.ndarray) -> np.ndarray:
    """Start and end frames of the maximal runs of a Boolean mask,
    interleaved in ascending order (starts at even positions)."""
    padded = np.concatenate(([False], mask, [False]))
    return np.flatnonzero(np.diff(padded))


def extract_intervals(mask, h: float, merge_gap: float = 0.0) -> tuple[Interval, ...]:
    """Maximal active runs as half open intervals, in one left-to-right scan.

    Runs separated by an inactive gap of duration at most ``merge_gap``
    are combined into one interval.
    """
    if merge_gap < 0.0:
        raise ValueError(f"merge gap must be nonnegative, got {merge_gap!r}")
    arr = _as_mask(mask)
    _check_frame_step(h)
    edges = _run_edges(arr)
    lo, hi = edges[0::2], edges[1::2]
    if lo.size > 1:
        # Run k joins run k - 1 when the gap between them passes the test;
        # a merged interval keeps its first start and its last end.
        joins = (lo[1:] - hi[:-1]) * h <= merge_gap + _TIME_EPS
        lo = lo[np.append(True, ~joins)]
        hi = hi[np.append(~joins, True)]
    return tuple(Interval(a * h, b * h) for a, b in zip(lo.tolist(), hi.tolist()))


def _overlapping(queries, items) -> list[list[int]]:
    """For each query interval, the ascending indices of the items it
    overlaps with positive length, found by the sorted-window range scan."""
    order = sorted(range(len(items)), key=lambda i: items[i].start)
    starts = [items[i].start for i in order]
    reach = list(accumulate((items[i].end for i in order), max))
    out = []
    for query in queries:
        lo = bisect_right(reach, query.start)
        hi = bisect_left(starts, query.end, lo)
        hits = [
            order[k]
            for k in range(lo, hi)
            if overlap_length(query, items[order[k]]) > 0.0
        ]
        hits.sort()  # start order differs from index order on unsorted input
        out.append(hits)
    return out


@dataclass(frozen=True)
class CandidatePair:
    ref_index: int
    pred_index: int
    ref: Interval
    pred: Interval
    cost: float


def candidates(refs, preds, epsilon: float) -> tuple[CandidatePair, ...]:
    """All overlapping pairs with some endpoint within three tolerances."""
    if not (epsilon > 0.0):
        raise ValueError(f"tolerance must be positive, got {epsilon!r}")
    refs = tuple(refs)
    preds = tuple(preds)
    limit = 3.0 * epsilon + _TIME_EPS
    out: list[CandidatePair] = []
    for ri, (ref, hits) in enumerate(zip(refs, _overlapping(refs, preds))):
        for pi in hits:
            pred = preds[pi]
            if (
                abs(ref.start - pred.start) > limit
                and abs(ref.end - pred.end) > limit
            ):
                continue
            cost = (
                abs(ref.start - pred.start)
                + abs(ref.end - pred.end)
                - overlap_length(ref, pred)
            )
            out.append(CandidatePair(ri, pi, ref, pred, cost))
    return tuple(out)


@dataclass(frozen=True)
class Matching:
    """One-to-one subset of the candidate relation."""

    pairs: frozenset[tuple[int, int]]
    policy: str

    @property
    def sorted_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.pairs))

    @cached_property
    def matched_refs(self) -> frozenset[int]:
        return frozenset(ri for ri, _ in self.pairs)

    @cached_property
    def matched_preds(self) -> frozenset[int]:
        return frozenset(pi for _, pi in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def _greedy_key(pair: CandidatePair):
    # Ties on cost break by interval position; starts are unique within a
    # family of disjoint runs, the ends extend the order to arbitrary input.
    return (pair.cost, pair.ref.start, pair.pred.start, pair.ref.end, pair.pred.end)


def match_greedy(cands) -> Matching:
    """Ascending-cost scan keeping pairs whose sides are both unmatched."""
    taken_refs: set[int] = set()
    taken_preds: set[int] = set()
    pairs: set[tuple[int, int]] = set()
    for pair in sorted(cands, key=_greedy_key):
        if pair.ref_index in taken_refs or pair.pred_index in taken_preds:
            continue
        taken_refs.add(pair.ref_index)
        taken_preds.add(pair.pred_index)
        pairs.add((pair.ref_index, pair.pred_index))
    return Matching(frozenset(pairs), "greedy")


def match_exact(cands, bound: int = 24) -> Matching:
    """Maximum cardinality matching of minimum total cost.

    Solved by an assignment reduction: candidate cells are discounted by a
    constant larger than the total absolute cost, so the solver prefers
    more real pairs before comparing costs.  Instances with more than
    ``bound`` intervals on either side raise :class:`AuditBoundError`.
    """
    cands = tuple(cands)
    if not cands:
        return Matching(frozenset(), "exact")
    ref_ids = sorted({c.ref_index for c in cands})
    pred_ids = sorted({c.pred_index for c in cands})
    if len(ref_ids) > bound or len(pred_ids) > bound:
        raise AuditBoundError(
            f"instance has {len(ref_ids)}x{len(pred_ids)} intervals, bound is {bound}"
        )
    big = sum(abs(c.cost) for c in cands) + 1.0
    matrix = np.zeros((len(ref_ids), len(pred_ids)))
    ref_pos = {r: i for i, r in enumerate(ref_ids)}
    pred_pos = {p: i for i, p in enumerate(pred_ids)}
    cells = {}
    for c in cands:
        key = (ref_pos[c.ref_index], pred_pos[c.pred_index])
        # Duplicate candidates for the same pair keep the cheapest cell.
        if key not in cells or c.cost < cells[key]:
            cells[key] = c.cost
    for (i, j), cost in cells.items():
        matrix[i, j] = cost - big
    rows, cols = linear_sum_assignment(matrix)
    pairs = frozenset(
        (ref_ids[i], pred_ids[j])
        for i, j in zip(rows, cols)
        if (i, j) in cells
    )
    return Matching(pairs, "exact")


def boundary_f1(refs, preds, matching: Matching) -> float:
    """Event-level F1 of the matching: |M|/|P| precision, |M|/|R| recall."""
    n_refs = len(tuple(refs))
    n_preds = len(tuple(preds))
    if n_refs == 0 and n_preds == 0:
        return 1.0
    if n_refs == 0 or n_preds == 0:
        return 0.0
    matched = len(matching)
    if matched == 0:
        return 0.0
    precision = matched / n_preds
    recall = matched / n_refs
    return 2.0 * precision * recall / (precision + recall)


def duration_score(refs, preds, matching: Matching, threshold: float) -> ObligationScore:
    """Mean over matched pairs of |ref length - pred length| <= threshold."""
    refs = tuple(refs)
    preds = tuple(preds)
    obligated = len(matching)
    satisfied = 0
    for ri, pi in matching.pairs:
        if abs(refs[ri].length - preds[pi].length) <= threshold + _TIME_EPS:
            satisfied += 1
    ratio = satisfied / obligated if obligated else 1.0
    return ObligationScore(ratio, obligated, satisfied, obligated - satisfied)


def covering_counts(refs, preds) -> tuple[int, ...]:
    """Number of predictions with positive overlap against each reference."""
    return tuple(len(hits) for hits in _overlapping(tuple(refs), tuple(preds)))


def fragmentation_score(
    refs, preds, matching: Matching, counts: Sequence[int] | None = None
) -> ObligationScore:
    """Mean over references of (matched and covered by at most one prediction).

    ``counts`` may pass in the :func:`covering_counts` of the same
    families when the caller has them already.
    """
    refs = tuple(refs)
    if counts is None:
        counts = covering_counts(refs, preds)
    matched_refs = matching.matched_refs
    obligated = len(refs)
    satisfied = sum(
        1 for ri in range(obligated) if ri in matched_refs and counts[ri] <= 1
    )
    ratio = satisfied / obligated if obligated else 1.0
    return ObligationScore(ratio, obligated, satisfied, obligated - satisfied)


@dataclass(frozen=True)
class MatcherAudit:
    """Greedy-versus-exact comparison on one interval instance."""

    greedy: Matching
    exact: Matching
    changed: bool
    greedy_boundary_f1: float
    exact_boundary_f1: float
    greedy_duration: ObligationScore
    exact_duration: ObligationScore
    greedy_fragmentation: ObligationScore
    exact_fragmentation: ObligationScore

    @property
    def boundary_f1_delta(self) -> float:
        return self.exact_boundary_f1 - self.greedy_boundary_f1

    @property
    def duration_delta(self) -> float:
        return self.exact_duration.score - self.greedy_duration.score

    @property
    def fragmentation_delta(self) -> float:
        return self.exact_fragmentation.score - self.greedy_fragmentation.score


def matcher_audit(refs, preds, epsilon: float, bound: int = 24) -> MatcherAudit:
    """Run both matching policies and report the event-level deltas.

    The duration predicate uses the standard ``2 * epsilon`` threshold.
    """
    refs = tuple(refs)
    preds = tuple(preds)
    cands = candidates(refs, preds, epsilon)
    greedy = match_greedy(cands)
    exact = match_exact(cands, bound=bound)
    threshold = 2.0 * epsilon
    counts = covering_counts(refs, preds)
    return MatcherAudit(
        greedy=greedy,
        exact=exact,
        changed=greedy.pairs != exact.pairs,
        greedy_boundary_f1=boundary_f1(refs, preds, greedy),
        exact_boundary_f1=boundary_f1(refs, preds, exact),
        greedy_duration=duration_score(refs, preds, greedy, threshold),
        exact_duration=duration_score(refs, preds, exact, threshold),
        greedy_fragmentation=fragmentation_score(refs, preds, greedy, counts),
        exact_fragmentation=fragmentation_score(refs, preds, exact, counts),
    )
