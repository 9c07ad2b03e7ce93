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
two ``searchsorted`` calls.  Candidates are one :class:`CandidateTable`
of index, cost and bound arrays, whose length is its pair count;
:func:`candidates` is :func:`candidate_table` under its public name, and
both matchers read that table.  Candidate costs are elementwise float64 in
the scalar expression's order of operations, so they have the same bits.

Every command matches rows in :func:`_match` (monitor groups, sweep
tolerances, calibration cases, :func:`matcher_audit`'s one instance): one
candidate table per call, read by each requested policy, whose rows are
drawn in order as they are read.  A greedy row is cut from one scan of the
whole table; an exact row is solved when it is drawn, so a row over the
exact bound raises after every earlier row is read and before any later
row is solved.  A row's length differences and extras are what one
duration and one coverage predicate score.

The greedy scan splits the ranked table in two.  A candidate that is the
only one of both its reference and its prediction is uncontested: every
scan keeps it and it blocks no other candidate, so two ``bincount`` calls
keep all of them at once, and the byte-array loop runs in rank order over
the contested rest only.  A :class:`Matching` holds its kept index
arrays, from which ``len()`` and :attr:`Matching.index_arrays` are
answered; its ``pairs`` frozenset is built on first read, filled in the
order the pairs were kept, so no command builds one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .frames import ObligationScore, _as_mask, _check_frame_step, _ratio

_TIME_EPS = 1e-9

# The exact matcher's default bound on the intervals of either side.
DEFAULT_EXACT_BOUND = 24

# The duration predicate's default threshold, in tolerances.
DEFAULT_DURATION_THRESHOLD = 2.0


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
    interleaved in ascending order (starts at even positions).

    This is the one placement rule for stacked rows: a ``(G, n)`` stack gives
    each row's edges in turn, frame ``f`` of row ``g`` at
    ``g * (2n + 1) + f``.  Rows keep their order, and no frame of a row comes
    within ``n`` frames of another row's, so a scan of every row at once
    finds no neighbour, overlap or gap across rows that it would not find
    nearer in the row itself.  A 1-D mask is row 0, its edges unmoved."""
    n = mask.shape[-1]
    if n == 0:
        return np.zeros(0, np.intp)
    change = np.empty(mask.shape[:-1] + (n + 1,), bool)
    np.not_equal(mask[..., 1:], mask[..., :-1], out=change[..., 1:n])
    change[..., 0] = mask[..., 0]
    change[..., n] = mask[..., n - 1]
    edges = np.flatnonzero(change)
    if mask.ndim > 1:
        edges += edges // (n + 1) * n  # row g's edges sit at g * (n + 1) + f here
    return edges


def merge_runs(
    edges: np.ndarray, h: float, merge_gap: float, group: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``lo``, ``hi`` frame arrays of the runs with interleaved ``edges``,
    runs separated by an inactive gap of at most ``merge_gap`` seconds joined;
    runs of different ``group`` values (one per run) never join."""
    if not (0.0 <= merge_gap < math.inf):
        raise ValueError(f"merge gap must be nonnegative and finite: {merge_gap!r}")
    lo, hi = edges[0::2], edges[1::2]
    if lo.size > 1:
        # Run k joins run k - 1 when the gap between them passes the test;
        # a merged interval keeps its first start and its last end.
        joins = (lo[1:] - hi[:-1]) * h <= merge_gap + _TIME_EPS
        if group is not None:
            joins &= group[1:] == group[:-1]
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


def overlap_pairs(
    queries: Family, items: Family, scan: tuple[Family, Family] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Query index, item index and overlap length of every pair that
    overlaps with positive length, ordered by query, then item index.

    ``scan`` may give both families placed otherwise, in an order-keeping
    map, for the window scan: the runs of several groups placed apart, say,
    so that no group's window reaches another's.  Overlaps are measured on
    ``queries`` and ``items`` all the same."""
    scan_queries, scan_items = (queries, items) if scan is None else scan
    order = scan_items.start.argsort(kind="stable")
    starts = scan_items.start[order]
    reach = np.maximum.accumulate(scan_items.end[order])
    lo = reach.searchsorted(scan_queries.start, side="right")
    width = np.maximum(starts.searchsorted(scan_queries.end, side="left") - lo, 0)
    q = np.arange(len(queries)).repeat(width)
    k = order[np.arange(q.size) - (width.cumsum() - width - lo).repeat(width)]
    overlap = np.minimum(queries.end[q], items.end[k])
    overlap -= np.maximum(queries.start[q], items.start[k])
    keep = (overlap > 0).nonzero()[0]
    keep = keep[np.lexsort((k[keep], q[keep]))]  # start order is not index order on unsorted input
    return q[keep], k[keep], overlap[keep]


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Candidate pairs as arrays: indices, costs, and both sides' bounds."""

    ref_index: np.ndarray
    pred_index: np.ndarray
    cost: np.ndarray
    ref: Family
    pred: Family

    def __len__(self) -> int:
        return self.cost.size


def candidate_table(refs, preds, epsilon, overlaps=None) -> CandidateTable:
    """All overlapping pairs with some endpoint within three tolerances, and
    their costs.

    ``overlaps`` may pass in the :func:`overlap_pairs` of the same families
    when the caller has them already; ``epsilon`` is then one tolerance, or
    one per overlapping pair.
    """
    if not np.all(np.greater(epsilon, 0.0)):
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


candidates = candidate_table  # one function, public under both names


@dataclass(frozen=True, eq=False, repr=False)
class Matching:
    """One-to-one subset of the candidate relation.

    It holds the reference and prediction index arrays of its pairs in the
    order the policy kept them, and answers ``len()`` and
    :attr:`index_arrays` from them.  :attr:`pairs` is built on first read and
    kept; equality, hash and repr are those of ``(pairs, policy)``, read or
    not."""

    ref_index: np.ndarray
    pred_index: np.ndarray
    policy: str

    @cached_property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """The pairs as a frozenset, filled in kept order: through a set for
        the greedy policy, directly for the exact one, which fixes each
        frozenset's iteration order."""
        pairs = zip(self.ref_index.tolist(), self.pred_index.tolist())
        return frozenset(set(pairs) if self.policy == "greedy" else pairs)

    @cached_property
    def index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Reference and prediction indices of the pairs, sorted by
        reference index, then by prediction index."""
        order = np.lexsort((self.pred_index, self.ref_index))
        return self.ref_index[order], self.pred_index[order]

    def __len__(self) -> int:
        return self.ref_index.size

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.pairs, self.policy) == (other.pairs, other.policy)

    def __hash__(self) -> int:
        return hash((self.pairs, self.policy))

    def __repr__(self) -> str:
        return f"Matching(pairs={self.pairs!r}, policy={self.policy!r})"


def match_greedy(table: CandidateTable) -> Matching:
    """Ascending-cost scan keeping pairs whose sides are both unmatched.

    Ties on cost break by interval position; starts are unique within a
    family of disjoint runs, the ends extend the order to arbitrary input.
    ``lexsort`` is stable, so full ties keep candidate order.  The matching
    holds the kept indices in scan order and builds its pair set only when
    it is read; see :func:`_greedy_scan`.
    """
    return Matching(*_greedy_scan(table), "greedy")


def _greedy_scan(table: CandidateTable, *first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference and prediction indices of the pairs :func:`match_greedy`
    keeps, in scan order; ``first`` are sort keys ranked before the cost,
    such as the row of each candidate of a batch whose rows share no run.

    A candidate that is the only one of its reference and of its prediction
    is uncontested: the scan keeps it wherever it meets it, and it shares no
    side with any other candidate, so it decides nothing for them.  Two
    ``bincount`` calls keep every uncontested candidate at once; only the
    contested rest is scanned in rank order, with taken runs marked in one
    byte array per side.  So the result is that of a scan of every
    candidate, for any table, in O(candidates) after the sort.
    """
    order = np.lexsort(
        (table.pred.end, table.ref.end, table.pred.start, table.ref.start, table.cost, *first)
    )
    refs, preds = table.ref_index[order], table.pred_index[order]
    ref_counts, pred_counts = np.bincount(refs), np.bincount(preds)
    keep = (ref_counts[refs] == 1) & (pred_counts[preds] == 1)
    contested = (~keep).nonzero()[0]
    taken_refs, taken_preds = bytearray(ref_counts.size), bytearray(pred_counts.size)
    kept = []
    for k, ri, pi in zip(contested.tolist(), refs[contested].tolist(), preds[contested].tolist()):
        if taken_refs[ri] or taken_preds[pi]:
            continue
        taken_refs[ri] = taken_preds[pi] = 1
        kept.append(k)
    keep[kept] = True
    return refs[keep], preds[keep]


def match_exact(table: CandidateTable, bound: int = DEFAULT_EXACT_BOUND) -> Matching:
    """Maximum cardinality matching of minimum total cost.

    Solved by an assignment reduction: candidate cells are discounted by a
    constant larger than the total absolute cost, so the solver prefers
    more real pairs before comparing costs.  Instances with more than
    ``bound`` intervals on either side raise :class:`AuditBoundError`.
    """
    from scipy.optimize import linear_sum_assignment  # slow to import; only this needs it

    if not table.cost.size:
        return Matching(table.ref_index, table.pred_index, "exact")
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
    return Matching(ref_ids[rows[keep]], pred_ids[cols[keep]], "exact")


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


def length_diffs(refs: Family, preds: Family, pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """|ref length - pred length| per matched pair of the index arrays
    ``pairs``, such as :attr:`Matching.index_arrays`, in their order."""
    ri, pi = pairs
    return np.abs((refs.end[ri] - refs.start[ri]) - (preds.end[pi] - preds.start[pi]))


def covering_counts(refs, preds) -> tuple[int, ...]:
    """Number of predictions with positive overlap against each reference."""
    refs, preds = Family.of(refs), Family.of(preds)
    return tuple(np.bincount(overlap_pairs(refs, preds)[0], minlength=len(refs)).tolist())


def fragmentation_extras(matched_refs: np.ndarray, counts) -> np.ndarray:
    """Per reference: zero exactly when it is matched (its index is in
    ``matched_refs``) and covered by at most one prediction; otherwise the
    extra covering count, at least one."""
    counts = np.asarray(counts, np.int64)
    ri, matched = matched_refs, np.zeros(counts.size, bool)
    matched[ri[ri < counts.size]] = True
    return np.where(matched & (counts <= 1), 0, np.where(counts > 1, counts - 1, 1))


def _duration_within(diffs: np.ndarray, threshold: float) -> ObligationScore:
    """The duration predicate over matched pairs, from their length
    differences: at most ``threshold`` apart."""
    return _ratio(diffs.size, int(np.count_nonzero(diffs <= threshold + _TIME_EPS)))


def _singly_covered(extras: np.ndarray) -> ObligationScore:
    """The fragmentation predicate over references, from their
    :func:`fragmentation_extras`: none."""
    return _ratio(extras.size, int(np.count_nonzero(extras == 0)))


def _match(refs: Family, preds: Family, overlaps, bounds, tolerances: Sequence[float],
           policies: Sequence[str], bound: int = DEFAULT_EXACT_BOUND):
    """Per policy, in order, a generator of its rows, each drawn when it is
    read: per row, its matching, each matched pair's length difference and
    each reference's fragmentation extras.

    ``refs`` and ``preds`` hold G groups' runs in turn, group g's from
    ``bounds[0][g]`` and ``bounds[1][g]`` on, with their :func:`overlap_pairs`
    (none across groups), which give the covering counts.  ``tolerances``
    holds one tolerance per contract: the rows are the groups at the one
    tolerance, or one group once per tolerance.  No two rows share a run,
    so their candidates make one table, read by each policy.
    The greedy scan visits it by row, then by cost, so each row keeps what a
    scan of its own candidates keeps, in that order; the first row drawn makes
    the scan, and each row is cut from it.  The exact policy solves a row on
    its own candidates when the row is drawn, so a row over ``bound`` raises
    its :class:`AuditBoundError` after every earlier row is read and before
    any later row is solved.  One row's indices are its own, so it is neither
    rebased nor cut by row.
    """
    ri, pi, overlap = overlaps
    counts = np.bincount(ri, minlength=len(refs))
    ref_base, pred_base = bounds
    copies = len(tolerances)
    epsilon = tolerances[0] if copies == 1 else np.repeat(tolerances, ri.size)
    if copies > 1:
        # Copy c of the group's runs follows copy c - 1, indices and all.
        step = np.arange(copies).repeat(ri.size)
        ri, pi = np.tile(ri, copies) + step * len(refs), np.tile(pi, copies) + step * len(preds)
        overlap, counts = np.tile(overlap, copies), np.tile(counts, copies)
        ref_base, pred_base = np.arange(copies + 1) * len(refs), np.arange(copies + 1) * len(preds)
        refs, preds = (
            Family(np.tile(f.start, copies), np.tile(f.end, copies)) for f in (refs, preds)
        )
    rows = ref_base.size - 1
    table = candidate_table(refs, preds, epsilon, (ri, pi, overlap))
    single = rows == 1  # row 0 starts at index 0 on both sides
    row = None if single else ref_base.searchsorted(table.ref_index, side="right") - 1
    bases = ref_base.tolist()

    def greedy():
        kept_ri, kept_pi = ri, pi = _greedy_scan(table, *([] if single else [row]))
        cut = [0, ri.size]
        if not single:
            kept_row = ref_base.searchsorted(ri, side="right") - 1
            kept_ri, kept_pi = ri - ref_base[kept_row], pi - pred_base[kept_row]
            cut = kept_row.searchsorted(np.arange(rows + 1)).tolist()
        # Sorted by index, each row's pairs stay together and as many, so
        # the scan-order cut slices their length differences too.
        order = np.lexsort((pi, ri))
        diffs = length_diffs(refs, preds, (ri[order], pi[order]))
        extras = fragmentation_extras(ri, counts)
        for r, (lo, hi) in enumerate(zip(cut, cut[1:])):
            matching = Matching(kept_ri[lo:hi], kept_pi[lo:hi], "greedy")
            yield matching, diffs[lo:hi], extras[bases[r]:bases[r + 1]]

    def exact():
        cut = [0, table.cost.size] if single else row.searchsorted(np.arange(rows + 1)).tolist()
        for r, (lo, hi) in enumerate(zip(cut, cut[1:])):
            matching = match_exact(table if single else CandidateTable(
                table.ref_index[lo:hi] - ref_base[r], table.pred_index[lo:hi] - pred_base[r],
                table.cost[lo:hi], Family(table.ref.start[lo:hi], table.ref.end[lo:hi]),
                Family(table.pred.start[lo:hi], table.pred.end[lo:hi]),
            ), bound)
            ri, pi = matching.index_arrays
            diffs = length_diffs(refs, preds, (ri + ref_base[r], pi + pred_base[r]))
            yield matching, diffs, fragmentation_extras(ri, counts[bases[r]:bases[r + 1]])

    return [greedy() if policy == "greedy" else exact() for policy in policies]


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


def matcher_audit(refs, preds, epsilon: float, bound: int = DEFAULT_EXACT_BOUND) -> MatcherAudit:
    """Match one instance under both policies, from one candidate table, and
    report the event-level deltas.

    The duration predicate uses its default threshold at tolerance
    ``epsilon``.  An instance over ``bound`` raises its
    :class:`AuditBoundError` before the greedy matching is made.
    """
    refs, preds = Family.of(refs), Family.of(preds)
    bounds = (np.array([0, len(refs)]), np.array([0, len(preds)]))
    exact_rows, greedy_rows = _match(refs, preds, overlap_pairs(refs, preds), bounds, [epsilon],
                                     ("exact", "greedy"), bound)
    [(exact, exact_diffs, exact_extras)] = exact_rows
    [(greedy, greedy_diffs, greedy_extras)] = greedy_rows
    threshold = DEFAULT_DURATION_THRESHOLD * epsilon
    # Pairs are unique, so the sorted index arrays are equal exactly when the pair sets are.
    changed = not all(map(np.array_equal, greedy.index_arrays, exact.index_arrays))
    return MatcherAudit(
        greedy, exact, changed,
        boundary_f1(refs, preds, greedy), boundary_f1(refs, preds, exact),
        _duration_within(greedy_diffs, threshold), _duration_within(exact_diffs, threshold),
        _singly_covered(greedy_extras), _singly_covered(exact_extras),
    )
