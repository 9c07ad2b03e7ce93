"""Fixed-delay streaming evaluation of parsed formulas.

A :class:`StreamingMonitor` consumes frame environments one at a time and
emits ``(frame index, verdict)`` pairs as soon as the right context of a
frame is complete; it never revises an emitted verdict.

The monitor runs on the formula's :class:`~tracecontracts.frames.EvaluationPlan`,
so structurally equal subtrees are one node.  Each node ``k`` has a fixed
delay ``d_k``, its reach in frames: once frame ``t`` has arrived, the right
context of the node's frame ``t - d_k`` is complete.  Each step runs every
node once, children first, and the node writes its verdict for frame
``t - d_k`` into a ring of fixed length, the largest lag plus window span
among its consumers; so the buffer is bounded by the formula's radii.  The
step emits the root's verdict for frame ``t - lookahead_frames``.  Windows
keep rolling counts of true child frames; until keeps a queue of its
left side's false frames and a rolling count of its right side, so a step
costs O(plan nodes).

``finalize`` runs the same node code over the virtual frames
``n .. n + lookahead_frames - 1`` after the last frame ``n - 1``.  A child
frame ``>= n`` reads as a pad, false for the existential windows and
until and true for always, which equals clipping the windows at the right
trace boundary.  Emitted verdicts agree bit for bit with offline
evaluation of the completed trace.
"""

from __future__ import annotations

import operator
import sys
from collections import deque
from typing import Callable, Mapping

from .frames import UnknownAtomError, share_subformulas
from .parser import Always, And, Atom, Formula, Future, Implies, Near, Not, Or, Until

# The frame count passed to the node updates while the trace is still open.
_OPEN = sys.maxsize

# Pointwise operators on Python bools; ``a <= b`` is ``a -> b``.
_POINTWISE = {Not: operator.not_, And: operator.and_, Or: operator.or_, Implies: operator.le}

Update = Callable[[int, int], None]


def _pointwise(op, d: int, out: list, kids: list[list]) -> Update:
    size = len(out)
    if len(kids) == 1:
        (a,) = kids
        a_size = len(a)

        def update(t: int, n: int) -> None:
            i = t - d
            out[i % size] = op(a[i % a_size])

        return update
    a, b = kids
    a_size, b_size = len(a), len(b)

    def update(t: int, n: int) -> None:
        i = t - d
        out[i % size] = op(a[i % a_size], b[i % b_size])

    return update


def _window(d: int, out: list, child: list, ahead: int, back: int, pad: bool, threshold: int) -> Update:
    """Verdict ``count > threshold`` over the child's frames ``[i - back, i + ahead]``.

    Runs from frame ``i = -ahead`` so the count is full at frame 0; a frame
    leaves the count right after the last verdict that covers it.
    """
    size, child_size = len(out), len(child)
    count = 0

    def update(t: int, n: int) -> None:
        nonlocal count
        i = t - d
        j = i + ahead
        count += child[j % child_size] if j < n else pad
        if i >= 0:
            out[i % size] = count > threshold
            if i >= back:
                count -= child[(i - back) % child_size]

    return update


def _until(d: int, out: list, phi: list, psi: list, r: int) -> Update:
    """Some psi frame in ``[i, min(i + r, first phi-false frame >= i)]``."""
    size, phi_size, psi_size = len(out), len(phi), len(psi)
    false_at: deque[int] = deque()  # phi-false frames from i - 1 on
    count = 0  # true psi frames in [i, hi]
    hi = -1

    def update(t: int, n: int) -> None:
        nonlocal count, hi
        i = t - d
        j = i + r
        if j < n and not phi[j % phi_size]:
            false_at.append(j)
        if i < 0:
            return
        if false_at and false_at[0] < i:
            false_at.popleft()
        upper = j if j < n else n - 1
        if false_at and false_at[0] < upper:
            upper = false_at[0]
        while hi < upper:
            hi += 1
            count += psi[hi % psi_size]
        out[i % size] = count > 0
        count -= psi[i % psi_size]

    return update


def _node_update(node: Formula, d: int, r: int, out: list, kids: list[list]) -> Update:
    match node:
        case Near():
            return _window(d, out, kids[0], r, r, False, 0)
        case Future():
            return _window(d, out, kids[0], r, 0, False, 0)
        case Always():
            return _window(d, out, kids[0], r, 0, True, r)
        case Until():
            return _until(d, out, kids[0], kids[1], r)
    return _pointwise(_POINTWISE[type(node)], d, out, kids)


def _back(node: Formula, position: int, r: int) -> int:
    """How far before the node's own frame it reads its child at ``position``."""
    if isinstance(node, Near):
        return r
    if isinstance(node, Until) and position == 0:
        return -r  # phi is read only at the entering frame i + r
    return 0


class StreamingMonitor:
    """Single-owner state machine; step frames in, collect final verdicts.

    Verdicts are emitted in strictly increasing frame order and are never
    revised.  ``finalize`` flushes the right-clipped tail and exhausts the
    monitor.
    """

    def __init__(self, formula: Formula, frame_step: float) -> None:
        plan = share_subformulas([formula], frame_step)
        reach = plan.reach[formula]
        self.formula = formula
        self.frame_step = frame_step
        self.lookahead_seconds = reach.seconds
        self.lookahead_frames = reach.frames
        self.backward_frames = reach.backward
        delays = [plan.reach[node].frames for node in plan.nodes]
        sizes = [1] * plan.node_count
        for node, kids, r, d in zip(plan.nodes, plan.kids, plan.radii, delays):
            for position, k in enumerate(kids):
                sizes[k] = max(sizes[k], d - delays[k] + _back(node, position, r) + 1)
        rings = [[False] * size for size in sizes]
        self._inputs: list[tuple[str, list, int]] = []
        # (update, first step, delay): a node runs at steps [d - r, n + d).
        self._schedule: list[tuple[Update, int, int]] = []
        for node, kids, r, d, out in zip(plan.nodes, plan.kids, plan.radii, delays, rings):
            if isinstance(node, Atom):
                self._inputs.append((node.name, out, len(out)))
            else:
                update = _node_update(node, d, r, out, [rings[k] for k in kids])
                self._schedule.append((update, d - r, d))
        self._updates = [update for update, _, _ in self._schedule]
        self._steady = max((start for _, start, _ in self._schedule), default=0)
        self._root = rings[-1]  # the plan lists children first
        self._widest = max(sizes)
        self._received = 0
        self._finalized = False

    @property
    def frames_received(self) -> int:
        return self._received

    @property
    def next_emission_index(self) -> int:
        if self._finalized:
            return self._received
        return max(0, self._received - self.lookahead_frames)

    @property
    def buffered_rows(self) -> int:
        """Rows held by the longest ring (fewer while it fills)."""
        return min(self._received, self._widest)

    def step(self, frame: Mapping[str, object]) -> list[tuple[int, bool]]:
        """Append one frame environment; return the newly final verdicts."""
        if self._finalized:
            raise RuntimeError("monitor is finalized")
        t = self._received
        for name, ring, size in self._inputs:
            try:
                value = frame[name]
            except KeyError:
                raise UnknownAtomError(name) from None
            ring[t % size] = bool(value)
        self._received = t + 1
        return self._advance(t, _OPEN)

    def finalize(self) -> list[tuple[int, bool]]:
        """Flush all remaining verdicts using right-boundary clipping."""
        if self._finalized:
            return []
        self._finalized = True
        n = self._received
        emitted: list[tuple[int, bool]] = []
        for t in range(n, n + self.lookahead_frames):
            emitted += self._advance(t, n)
        return emitted

    def _advance(self, t: int, n: int) -> list[tuple[int, bool]]:
        """Run step ``t`` of an ``n``-frame trace; return the root's verdict
        for frame ``t - lookahead_frames`` if that frame exists."""
        if self._steady <= t < n:
            updates = self._updates
        else:
            updates = [update for update, start, d in self._schedule if start <= t < n + d]
        for update in updates:
            update(t, n)
        i = t - self.lookahead_frames
        if 0 <= i < n:
            return [(i, self._root[i % len(self._root)])]
        return []
