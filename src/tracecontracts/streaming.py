"""Bounded-delay streaming evaluation of parsed formulas.

A :class:`StreamingMonitor` consumes frame environments one at a time and
emits ``(frame index, verdict)`` pairs as soon as the right context of a
frame is complete.  The verdict for frame ``i`` becomes final once
``lookahead_frames`` further frames have arrived (or the trace ends and
the remaining windows clip at the right boundary), so the monitor runs
with a buffer bounded by the formula's window radii and never revises an
emitted verdict.

Each syntax node is compiled to a small state machine holding a rolling
window count over its child's output ring, giving O(node count) work per
frame.  Emitted verdicts agree bit for bit with offline evaluation of the
completed trace.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping

from .frames import UnknownAtomError, radius_frames, share_subformulas
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
)


class _Ring:
    """Append-only boolean sequence with absolute indexing and front pruning."""

    __slots__ = ("base", "_items")

    def __init__(self) -> None:
        self.base = 0
        self._items: list[bool] = []

    def append(self, value: bool) -> None:
        self._items.append(value)

    @property
    def end(self) -> int:
        return self.base + len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> bool:
        return self._items[index - self.base]

    def drop_before(self, index: int) -> None:
        if index > self.base:
            del self._items[: index - self.base]
            self.base = index


class _Node:
    """One operator instance; ``out`` holds produced verdicts, ``produced``
    counts them.  ``pump`` advances as far as the children allow."""

    __slots__ = ("children", "out", "produced")

    def __init__(self, children: tuple["_Node", ...]) -> None:
        self.children = children
        self.out = _Ring()
        self.produced = 0

    def pump(self, final_length: int | None) -> None:
        raise NotImplementedError

    def _emit(self, value: bool) -> None:
        self.out.append(bool(value))
        self.produced += 1


class _AtomNode(_Node):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        super().__init__(())
        self.name = name

    def feed(self, value: bool) -> None:
        self._emit(value)

    def pump(self, final_length: int | None) -> None:
        pass


class _PointwiseNode(_Node):
    __slots__ = ("op",)

    def __init__(self, op, children: tuple[_Node, ...]) -> None:
        super().__init__(children)
        self.op = op

    def pump(self, final_length: int | None) -> None:
        limit = min(c.produced for c in self.children)
        while self.produced < limit:
            i = self.produced
            self._emit(self.op(*(c.out[i] for c in self.children)))
        for child in self.children:
            child.out.drop_before(self.produced)


class _WindowNode(_Node):
    """Rolling count over the child's window [i - back, min(i + ahead, n-1)]."""

    __slots__ = ("back", "ahead", "require_all", "_sum", "_lo", "_hi")

    def __init__(self, child: _Node, back: int, ahead: int, require_all: bool) -> None:
        super().__init__((child,))
        self.back = back
        self.ahead = ahead
        self.require_all = require_all
        self._sum = 0
        self._lo = 0
        self._hi = -1  # inclusive child range currently covered

    def pump(self, final_length: int | None) -> None:
        child = self.children[0]
        while True:
            i = self.produced
            if final_length is None:
                if child.produced < i + self.ahead + 1:
                    return
                hi = i + self.ahead
            else:
                if i >= final_length:
                    return
                hi = min(i + self.ahead, final_length - 1)
            lo = max(0, i - self.back)
            while self._hi < hi:
                self._hi += 1
                self._sum += child.out[self._hi]
            while self._lo < lo:
                self._sum -= child.out[self._lo]
                self._lo += 1
            if self.require_all:
                self._emit(self._sum == hi - lo + 1)
            else:
                self._emit(self._sum > 0)
            child.out.drop_before(self._lo)


class _UntilNode(_Node):
    """Witness scan bounded by the radius and the first left-side failure."""

    __slots__ = ("radius", "_false_queue", "_phi_scanned", "_sum", "_lo", "_hi")

    def __init__(self, phi: _Node, psi: _Node, radius: int) -> None:
        super().__init__((phi, psi))
        self.radius = radius
        self._false_queue: deque[int] = deque()
        self._phi_scanned = 0
        self._sum = 0
        self._lo = 0
        self._hi = -1

    def pump(self, final_length: int | None) -> None:
        phi, psi = self.children
        while self._phi_scanned < phi.produced:
            if not phi.out[self._phi_scanned]:
                self._false_queue.append(self._phi_scanned)
            self._phi_scanned += 1
        phi.out.drop_before(self._phi_scanned)
        while True:
            i = self.produced
            if final_length is None:
                if phi.produced < i + self.radius + 1 or psi.produced < i + self.radius + 1:
                    return
                last = i + self.radius
            else:
                if i >= final_length:
                    return
                last = min(i + self.radius, final_length - 1)
            while self._false_queue and self._false_queue[0] < i:
                self._false_queue.popleft()
            upper = last
            if self._false_queue and self._false_queue[0] < upper:
                upper = self._false_queue[0]
            while self._hi < upper:
                self._hi += 1
                self._sum += psi.out[self._hi]
            while self._lo < i:
                self._sum -= psi.out[self._lo]
                self._lo += 1
            self._emit(self._sum > 0)
            psi.out.drop_before(self._lo)


def _not(a: bool) -> bool:
    return not a


def _and(a: bool, b: bool) -> bool:
    return a and b


def _or(a: bool, b: bool) -> bool:
    return a or b


def _implies(a: bool, b: bool) -> bool:
    return (not a) or b


def _compile(formula: Formula, h: float, atoms: list[_AtomNode], order: list[_Node]) -> _Node:
    match formula:
        case Atom(name=name):
            node: _Node = _AtomNode(name)
            atoms.append(node)
        case Not(child=c):
            node = _PointwiseNode(_not, (_compile(c, h, atoms, order),))
        case And(left=l, right=r):
            node = _PointwiseNode(_and, (_compile(l, h, atoms, order), _compile(r, h, atoms, order)))
        case Or(left=l, right=r):
            node = _PointwiseNode(_or, (_compile(l, h, atoms, order), _compile(r, h, atoms, order)))
        case Implies(left=l, right=r):
            node = _PointwiseNode(
                _implies, (_compile(l, h, atoms, order), _compile(r, h, atoms, order))
            )
        case Near(child=c, radius=radius):
            r = radius_frames(radius, h)
            node = _WindowNode(_compile(c, h, atoms, order), back=r, ahead=r, require_all=False)
        case Future(child=c, radius=radius):
            r = radius_frames(radius, h)
            node = _WindowNode(_compile(c, h, atoms, order), back=0, ahead=r, require_all=False)
        case Always(child=c, radius=radius):
            r = radius_frames(radius, h)
            node = _WindowNode(_compile(c, h, atoms, order), back=0, ahead=r, require_all=True)
        case Until(left=l, right=r, radius=radius):
            node = _UntilNode(
                _compile(l, h, atoms, order),
                _compile(r, h, atoms, order),
                radius_frames(radius, h),
            )
        case _:
            raise TypeError(f"not a formula node: {formula!r}")
    order.append(node)
    return node


class StreamingMonitor:
    """Single-owner state machine; step frames in, collect final verdicts.

    Verdicts are emitted in strictly increasing frame order and are never
    revised.  ``finalize`` flushes the right-clipped tail and exhausts the
    monitor.
    """

    def __init__(self, formula: Formula, frame_step: float) -> None:
        reach = share_subformulas([formula], frame_step).reach[formula]
        self.formula = formula
        self.frame_step = frame_step
        self.lookahead_seconds = reach.seconds
        self.lookahead_frames = reach.frames
        self.backward_frames = reach.backward
        self._atom_nodes: list[_AtomNode] = []
        self._order: list[_Node] = []
        self._root = _compile(formula, frame_step, self._atom_nodes, self._order)
        self._received = 0
        self._emitted = 0
        self._finalized = False

    @property
    def frames_received(self) -> int:
        return self._received

    @property
    def next_emission_index(self) -> int:
        return self._emitted

    @property
    def buffered_rows(self) -> int:
        """Largest retained input row count across atoms (bounded by the windows)."""
        return max((len(node.out) for node in self._atom_nodes), default=0)

    def step(self, frame: Mapping[str, object]) -> list[tuple[int, bool]]:
        """Append one frame environment; return the newly final verdicts."""
        if self._finalized:
            raise RuntimeError("monitor is finalized")
        for node in self._atom_nodes:
            try:
                value = frame[node.name]
            except KeyError:
                raise UnknownAtomError(node.name) from None
            node.feed(bool(value))
        self._received += 1
        return self._drain(None)

    def finalize(self) -> list[tuple[int, bool]]:
        """Flush all remaining verdicts using right-boundary clipping."""
        if self._finalized:
            return []
        self._finalized = True
        return self._drain(self._received)

    def _drain(self, final_length: int | None) -> list[tuple[int, bool]]:
        for node in self._order:
            node.pump(final_length)
        emitted = [(i, self._root.out[i]) for i in range(self._emitted, self._root.produced)]
        self._emitted = self._root.produced
        self._root.out.drop_before(self._emitted)
        return emitted
