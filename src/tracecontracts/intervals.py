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

Every relation is answered from arrays.  :func:`intervals` finds runs as
int64 ``lo``/``hi`` frame arrays from the nonzero differences of the
zero-padded mask; their bounds in seconds are ``lo * h`` and ``hi * h``,
the same floats the scalar products give.  A :class:`Family` holds a
family's start and end arrays, and any :class:`Interval` sequence
converts to one in a single pass.  The other way, :attr:`Family.intervals`
builds the :class:`Interval` tuple on first read and keeps it, so a
monitor result, which holds its merged runs as families, makes interval
objects only for a caller that reads them.  :func:`overlap_pairs` finds
every positively overlapping pair by a sorted-window range scan: visited in
start order, every item that overlaps a query starts before the query
ends and has a running maximum end past the query start, so the
overlapping items lie in one contiguous window of that order, found for
all queries at once by two ``searchsorted`` calls and expanded with
``np.repeat``.  Each window member is kept by the same float test the
all-pairs loop applies, so results are identical for any families,
sorted or not, overlapping or not.  For the sorted disjoint runs that
extraction returns, the start order is the identity and each window
holds exactly the overlapping items, so candidates, covering counts,
matching and event scores cost O(R + P + K) array work for R
references, P predictions and K <= R + P - 1 overlapping pairs, plus the
two ``searchsorted`` calls.  Candidate costs are elementwise float64 in
the scalar expression's order of operations, so they have the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .frames import ObligationScore, _as_mask, _check_frame_step, obligation_score

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


@dataclass(frozen=True, eq=False)
class Family:
    """An interval family as parallel ``start`` and ``end`` arrays: float64
    seconds, or int64 frames for runs on the grid."""

    start: np.ndarray
    end: np.ndarray

    @classmethod
    def of(cls, family) -> Family:
        """``family`` itself, or an :class:`Interval` sequence as seconds."""
        if isinstance(family, Family):
            return family
        flat = np.fromiter((x for iv in family for x in (iv.start, iv.end)), float)
        return cls(flat[0::2], flat[1::2])

    def __len__(self) -> int:
        return self.start.size

    @cached_property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(map(Interval, self.start.tolist(), self.end.tolist()))


def _run_edges(mask: np.ndarray) -> np.ndarray:
    """Start and end frames of the maximal runs of a Boolean mask,
    interleaved in ascending order (starts at even positions)."""
    edges = np.flatnonzero(mask[1:] != mask[:-1]) + 1
    if mask.size and mask[0]:
        edges = np.insert(edges, 0, 0)
    if mask.size and mask[-1]:
        edges = np.append(edges, mask.size)
    return edges


def merge_runs(edges: np.ndarray, h: float, merge_gap: float) -> tuple[np.ndarray, np.ndarray]:
    """``lo``, ``hi`` frame arrays of the runs with interleaved ``edges``,
    runs separated by an inactive gap of at most ``merge_gap`` seconds joined."""
    if merge_gap < 0.0:
        raise ValueError(f"merge gap must be nonnegative, got {merge_gap!r}")
    lo, hi = edges[0::2], edges[1::2]
    if lo.size > 1:
        # Run k joins run k - 1 when the gap between them passes the test;
        # a merged interval keeps its first start and its last end.
        joins = (lo[1:] - hi[:-1]) * h <= merge_gap + _TIME_EPS
        lo = lo[np.append(True, ~joins)]
        hi = hi[np.append(~joins, True)]
    return lo, hi


def intervals(mask, h: float, merge_gap: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Maximal active runs as int64 ``lo``/``hi`` frame arrays.

    Runs separated by an inactive gap of duration at most ``merge_gap``
    are combined into one run.
    """
    arr = _as_mask(mask)
    _check_frame_step(h)
    return merge_runs(_run_edges(arr), h, merge_gap)


def extract_intervals(mask, h: float, merge_gap: float = 0.0) -> tuple[Interval, ...]:
    """Maximal active runs as half open intervals; see :func:`intervals`."""
    lo, hi = intervals(mask, h, merge_gap)
    return Family(lo * h, hi * h).intervals


def overlap_pairs(queries: Family, items: Family) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Query index, item index and overlap length of every pair that
    overlaps with positive length, ordered by query, then item index."""
    order = items.start.argsort(kind="stable")
    starts = items.start[order]
    reach = np.maximum.accumulate(items.end[order])
    lo = reach.searchsorted(queries.start, side="right")
    width = np.maximum(starts.searchsorted(queries.end, side="left") - lo, 0)
    q = np.arange(len(queries)).repeat(width)
    k = order[np.arange(q.size) - (width.cumsum() - width - lo).repeat(width)]
    overlap = np.minimum(queries.end[q], items.end[k])
    overlap -= np.maximum(queries.start[q], items.start[k])
    keep = (overlap > 0).nonzero()[0]
    keep = keep[np.lexsort((k[keep], q[keep]))]  # start order is not index order on unsorted input
    return q[keep], k[keep], overlap[keep]


@dataclass(frozen=True)
class CandidatePair:
    ref_index: int
    pred_index: int
    ref: Interval
    pred: Interval
    cost: float


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Candidate pairs as arrays: indices, costs, and both sides' bounds."""

    ref_index: np.ndarray
    pred_index: np.ndarray
    cost: np.ndarray
    ref: Family
    pred: Family

    @classmethod
    def of(cls, cands) -> CandidateTable:
        """``cands`` itself, or a :class:`CandidatePair` sequence as arrays."""
        if isinstance(cands, CandidateTable):
            return cands
        rows = [(c.ref_index, c.pred_index, c.cost, c.ref.start, c.ref.end, c.pred.start,
                 c.pred.end) for c in cands]
        cols = np.array(rows, float).reshape(-1, 7).T
        ri, pi = cols[:2].astype(np.int64)
        return cls(ri, pi, cols[2], Family(cols[3], cols[4]), Family(cols[5], cols[6]))


def candidate_table(refs, preds, epsilon: float, overlaps=None) -> CandidateTable:
    """All overlapping pairs with some endpoint within three tolerances, and
    their costs.

    ``overlaps`` may pass in the :func:`overlap_pairs` of the same families
    when the caller has them already.
    """
    if not (epsilon > 0.0):
        raise ValueError(f"tolerance must be positive, got {epsilon!r}")
    refs, preds = Family.of(refs), Family.of(preds)
    ri, pi, overlap = overlap_pairs(refs, preds) if overlaps is None else overlaps
    limit = 3.0 * epsilon + _TIME_EPS
    d_start = np.abs(refs.start[ri] - preds.start[pi])
    d_end = np.abs(refs.end[ri] - preds.end[pi])
    keep = ~((d_start > limit) & (d_end > limit))
    ri, pi = ri[keep], pi[keep]
    ref, pred = Family(refs.start[ri], refs.end[ri]), Family(preds.start[pi], preds.end[pi])
    return CandidateTable(ri, pi, (d_start + d_end - overlap)[keep], ref, pred)


def candidates(refs, preds, epsilon: float) -> tuple[CandidatePair, ...]:
    """All overlapping pairs with some endpoint within three tolerances."""
    refs, preds = tuple(refs), tuple(preds)
    table = candidate_table(refs, preds, epsilon)
    rows = zip(table.ref_index.tolist(), table.pred_index.tolist(), table.cost.tolist())
    return tuple(CandidatePair(ri, pi, refs[ri], preds[pi], cost) for ri, pi, cost in rows)


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

    @cached_property
    def index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Reference and prediction indices in :attr:`sorted_pairs` order."""
        flat = np.fromiter(chain.from_iterable(self.pairs), np.int64, 2 * len(self.pairs))
        order = np.lexsort((flat[1::2], flat[0::2]))
        return flat[0::2][order], flat[1::2][order]

    def __len__(self) -> int:
        return len(self.pairs)


def match_greedy(cands) -> Matching:
    """Ascending-cost scan keeping pairs whose sides are both unmatched.

    ``cands`` is a :class:`CandidateTable` or a :class:`CandidatePair`
    sequence.  Ties on cost break by interval position; starts are unique
    within a family of disjoint runs, the ends extend the order to
    arbitrary input.  ``lexsort`` is stable, so full ties keep candidate
    order.  Taken runs are marked in one byte array per side.
    """
    table = CandidateTable.of(cands)
    order = np.lexsort(
        (table.pred.end, table.ref.end, table.pred.start, table.ref.start, table.cost)
    )
    refs, preds = table.ref_index[order].tolist(), table.pred_index[order].tolist()
    taken_refs = bytearray(max(refs, default=-1) + 1)
    taken_preds = bytearray(max(preds, default=-1) + 1)
    pairs = set()  # filled in scan order, which fixes the frozenset's iteration order
    for ri, pi in zip(refs, preds):
        if taken_refs[ri] or taken_preds[pi]:
            continue
        taken_refs[ri] = taken_preds[pi] = 1
        pairs.add((ri, pi))
    return Matching(frozenset(pairs), "greedy")


def match_exact(cands, bound: int = 24) -> Matching:
    """Maximum cardinality matching of minimum total cost.

    ``cands`` is as for :func:`match_greedy`.  Solved by an assignment
    reduction: candidate cells are discounted by a constant larger than
    the total absolute cost, so the solver prefers more real pairs before
    comparing costs.  Instances with more than ``bound`` intervals on
    either side raise :class:`AuditBoundError`.
    """
    table = CandidateTable.of(cands)
    if not table.cost.size:
        return Matching(frozenset(), "exact")
    ref_ids, rows = np.unique(table.ref_index, return_inverse=True)
    pred_ids, cols = np.unique(table.pred_index, return_inverse=True)
    if ref_ids.size > bound or pred_ids.size > bound:
        raise AuditBoundError(
            f"instance has {ref_ids.size}x{pred_ids.size} intervals, bound is {bound}"
        )
    # A sequential sum, as the discount's last bits can decide a tie.
    big = sum(np.abs(table.cost).tolist()) + 1.0
    # Duplicate candidates for the same pair keep the cheapest cell.
    cells = np.full((ref_ids.size, pred_ids.size), np.inf)
    np.minimum.at(cells, (rows, cols), table.cost)
    present = np.zeros(cells.shape, bool)
    present[rows, cols] = True
    rows, cols = linear_sum_assignment(np.where(present, cells - big, 0.0))
    keep = present[rows, cols]
    pairs = frozenset(zip(ref_ids[rows[keep]].tolist(), pred_ids[cols[keep]].tolist()))
    return Matching(pairs, "exact")


def boundary_f1(refs, preds, matching: Matching) -> float:
    """Event-level F1 of the matching: |M|/|P| precision, |M|/|R| recall."""
    n_refs = len(Family.of(refs))
    n_preds = len(Family.of(preds))
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


def length_diffs(refs: Family, preds: Family, matching: Matching) -> np.ndarray:
    """|ref length - pred length| per matched pair, in sorted pair order."""
    ri, pi = matching.index_arrays
    return np.abs((refs.end[ri] - refs.start[ri]) - (preds.end[pi] - preds.start[pi]))


def duration_score(refs, preds, matching: Matching, threshold: float) -> ObligationScore:
    """Mean over matched pairs of |ref length - pred length| <= threshold."""
    holds = length_diffs(Family.of(refs), Family.of(preds), matching) <= threshold + _TIME_EPS
    return obligation_score(holds, np.ones_like(holds))


def covering_counts(refs, preds) -> tuple[int, ...]:
    """Number of predictions with positive overlap against each reference."""
    refs, preds = Family.of(refs), Family.of(preds)
    return tuple(np.bincount(overlap_pairs(refs, preds)[0], minlength=len(refs)).tolist())


def fragmentation_extras(matching: Matching, counts) -> np.ndarray:
    """Per reference: zero exactly when it is matched and covered by at most
    one prediction; otherwise the extra covering count, at least one."""
    counts = np.asarray(counts, np.int64)
    ri, matched = matching.index_arrays[0], np.zeros(counts.size, bool)
    matched[ri[ri < counts.size]] = True
    return np.where(matched & (counts <= 1), 0, np.where(counts > 1, counts - 1, 1))


def fragmentation_score(
    refs, preds, matching: Matching, counts: Sequence[int] | None = None
) -> ObligationScore:
    """Mean over references of (matched and covered by at most one prediction).

    ``counts`` may pass in the :func:`covering_counts` of the same
    families when the caller has them already.
    """
    if counts is None:
        counts = covering_counts(refs, preds)
    holds = fragmentation_extras(matching, counts) == 0
    return obligation_score(holds, np.ones_like(holds))


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
    refs, preds = Family.of(refs), Family.of(preds)
    overlaps = overlap_pairs(refs, preds)
    table = candidate_table(refs, preds, epsilon, overlaps)
    greedy = match_greedy(table)
    exact = match_exact(table, bound=bound)
    threshold = 2.0 * epsilon
    counts = np.bincount(overlaps[0], minlength=len(refs))
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
