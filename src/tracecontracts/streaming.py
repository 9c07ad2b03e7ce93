"""Fixed-delay streaming evaluation of parsed formulas.

A :class:`StreamingMonitor` consumes frame environments one at a time and
emits ``(frame index, verdict)`` pairs as soon as the right context of a
frame is complete; it never revises an emitted verdict.

The monitor runs on the formula's :class:`~tracecontracts.frames.EvaluationPlan`,
so structurally equal subtrees are one node.  Each node ``k`` has a fixed
delay ``d_k``, its reach in frames: once frame ``t`` has arrived, the right
context of the node's frame ``t - d_k`` is complete.  The node's verdict
for that frame is a local of the step, which consumers at the same step
read; if a consumer reads it at a later step, it also goes into a ring of
fixed length, the largest lag plus window span among its consumers, so the
buffer is bounded by the formula's radii.  Windows keep rolling counts of
true child frames; until keeps a queue of its left side's false frames and
a rolling count of its right side, so a step costs O(plan nodes).

At construction the monitor generates one Python function for its plan:
it reads the atoms as ``True if value else False`` (the truth test of
``bool``, without the call), then runs every node's update, children
first, with its delay, ring sizes, pad and threshold as integer literals,
and returns the root's verdict for frame ``t - lookahead_frames``.
Each update is a list of blocks, each with the step from which it runs
(``t >= d_k - r_k`` to take in the entering frame, ``t >= d_k`` to emit);
from them come a warm-up body with those guards and a steady body
without any, which runs once ``t`` reaches the largest guard, so a steady
frame makes one comparison.  The counts, queues and scan positions are
cells of that function.  Only the plan's integers and fixed operator
templates enter the source text; atom names and rings are bound as values.
``monitor.step`` is that generated function itself, so a streamed frame
is one Python call; it refuses a finalized monitor with ``RuntimeError``
before it reads an atom, also through a reference taken before
``finalize``.

``finalize`` runs the same node updates, guarded by
``d_k - r_k <= t < n + d_k``, over the virtual frames
``n .. n + lookahead_frames - 1`` after the last frame ``n - 1``.  A child
frame ``>= n`` reads as a pad, false for the existential windows and
until and true for always, which equals clipping the windows at the right
trace boundary.  Emitted verdicts agree bit for bit with offline
evaluation of the completed trace.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Mapping

from .frames import EvaluationPlan, UnknownAtomError, share_subformulas
from .parser import TEMPORAL, Always, And, Atom, Formula, Implies, Near, Not, Or, Until

# Pointwise operators on Python bools; ``a <= b`` is ``a -> b``.
_POINTWISE = {Not: "not {}", And: "{} & {}", Or: "{} | {}", Implies: "{} <= {}"}

# Monitors of one plan shape share one code object; each runs it on its own
# rings and cells.
_compile = functools.lru_cache(maxsize=128)(compile)


def _back(node: Formula, position: int, r: int) -> int:
    """How far before the node's own frame it reads its child at ``position``."""
    if isinstance(node, Near):
        return r
    if isinstance(node, Until) and position == 0:
        return -r  # phi is read only at the entering frame i + r
    return 0


def _frame(lag: int) -> str:
    return f"t - {lag}" if lag else "t"


def _at(k: int, size: int, lag: int) -> str:
    """Node ``k``'s ring slot for frame ``t - lag``."""
    return f"r{k}[(t - {lag}) % {size}]" if lag else f"r{k}[t % {size}]"


def _store(k: int, size: int, lag: int) -> str:
    """The assignment targets of node ``k``'s value for frame ``t - lag``:
    its local, and its ring slot if it has a ring."""
    return f"x{k} = {_at(k, size, lag)} = " if size > 1 else f"x{k} = "


def _update(node: Formula, k: int, kids: tuple[int, ...], r: int, d: int, delays: list[int],
            sizes: list[int], closed: bool) -> list[tuple[int, list[str]]]:
    """Node ``k``'s update at step ``t``, for its frame ``i = t - d``, as
    ``(guard, lines)`` blocks in order: a block runs once ``t >= guard``.
    ``closed`` reads child frames ``>= n`` as pads, and an open trace has no
    such frames.  A child frame made at this step is read from its local
    ``x<c>``, an older one from its ring; the node's own value goes to
    ``x<k>``, and to its ring if a later step reads it."""

    def read(c: int, lag: int) -> str:
        return f"x{c}" if lag == delays[c] else _at(c, sizes[c], lag)

    store = _store(k, sizes[k], d)
    if isinstance(node, Until):
        # Some psi frame in [i, min(i + r, first phi-false frame >= i)]: a
        # queue of phi-false frames from i - 1 on, and a count of true psi
        # frames in [i, h].
        phi, psi = kids
        j = _frame(d - r)  # the frame entering the window
        entering = f"{j} < n and not " if closed else "not "
        return [
            (d - r, [f"if {entering}{read(phi, d - r)}:", f"    q{k}.append({j})"]),
            (d, [
                f"if q{k} and q{k}[0] < t - {d}:",
                f"    q{k}.popleft()",
                f"u = {j} if {j} < n else n - 1" if closed else f"u = {j}",
                f"if q{k} and q{k}[0] < u:",
                f"    u = q{k}[0]",
                f"while h{k} < u:",
                f"    h{k} += 1",
                f"    c{k} += r{psi}[h{k} % {sizes[psi]}]",
                f"{store}c{k} > 0",
                f"c{k} -= {read(psi, d)}",
            ]),
        ]
    if not isinstance(node, TEMPORAL):
        return [(d, [store + _POINTWISE[type(node)].format(*(read(c, d) for c in kids))])]
    # ``count > threshold`` over the child's frames [i - back, i + r]; the
    # count starts at frame i = -r so it is full at frame 0, and a frame
    # leaves it right after the last verdict that covers it.
    (c,) = kids
    back = r if isinstance(node, Near) else 0
    pad, threshold = (True, r) if isinstance(node, Always) else (False, 0)
    entering = read(c, d - r)
    if closed:
        entering = f"({entering} if {_frame(d - r)} < n else {pad})"
    return [
        (d - r, [f"c{k} += {entering}"]),
        (d, [f"{store}c{k} > {threshold}"]),
        (d + back, [f"c{k} -= {read(c, d + back)}"]),
    ]


def _guarded(blocks: list[tuple[int, list[str]]], floor: int) -> list[str]:
    """The blocks' lines in order, each under ``if t >= guard`` if its guard
    is above ``floor``."""
    lines = []
    for guard, block in blocks:
        lines += [f"if t >= {guard}:", *_indent(block)] if guard > floor else block
    return lines


def _indent(lines: list[str], depth: int = 1) -> list[str]:
    return ["    " * depth + line for line in lines]


def _kernel_source(plan: EvaluationPlan, delays: list[int], sizes: list[int]) -> str:
    """Source of ``kernel()``, which makes one monitor's ``step(frame)``,
    ``finish()`` and ``received()`` on fresh cells; it reads the atom names
    ``a<k>`` and the rings ``r<k>`` from its globals.  ``finish`` sets the
    ``done`` cell, and ``step`` refuses a frame once it is set."""
    nodes = list(enumerate(zip(plan.nodes, plan.kids, plan.radii, delays)))
    temporal = [k for k, (node, *_) in nodes if isinstance(node, TEMPORAL)]
    until = [k for k, (node, *_) in nodes if isinstance(node, Until)]
    shared = ", ".join(["received"] + [f"c{k}" for k in temporal] + [f"h{k}" for k in until])
    lookahead = delays[-1]
    emit = f"({_frame(lookahead)}, x{plan.node_count - 1})"
    atoms, warm, tail = [], [], []
    for k, (node, kids, r, d) in nodes:
        if isinstance(node, Atom):
            atoms += ["try:", f"    value = frame[a{k}]", "except KeyError:",
                      f"    raise UnknownAtomError(a{k}) from None",
                      f"{_store(k, sizes[k], 0)}True if value else False"]
            continue
        warm += _update(node, k, kids, r, d, delays, sizes, False)
        blocks = _update(node, k, kids, r, d, delays, sizes, True)
        tail += [f"if {d - r} <= t < n + {d}:", *_indent(_guarded(blocks, d - r))]
    # Once t reaches the largest guard every block runs: the steady body.
    steady = [line for _, block in warm for line in block] + [f"return [{emit}]"]
    warm.append((lookahead, [f"return [{emit}]"]))
    settled = max(guard for guard, _ in warm)
    step = ["def step(frame):", f"    nonlocal {shared}", "    t = received", "    if done:",
            "        raise RuntimeError('monitor is finalized')", *_indent(atoms),
            "    received = t + 1"]
    if settled:
        step += [f"    if t >= {settled}:", *_indent(steady, 2), *_indent(_guarded(warm, 0)),
                 "    return []"]
    else:
        step += _indent(steady)
    finish = ["def finish():", f"    nonlocal {shared}, done", "    done = True", "    n = received",
              "    out = []", f"    for t in range(n, n + {lookahead}):", *_indent(tail, 2),
              f"        if t >= {lookahead}:", f"            out.append({emit})", "    return out"]
    head = ["def kernel():", "    received, done = 0, False"]
    head += [f"    c{k} = 0" for k in temporal]
    head += [f"    h{k}, q{k} = -1, deque()" for k in until]
    body = step + finish + ["return step, finish, lambda: received"]
    return "\n".join(head + _indent(body)) + "\n"


class _Step:
    """``monitor.step(frame)`` appends one frame environment and returns the
    newly final verdicts.  On a monitor this is its generated ``step``
    function itself, so a streamed frame is one Python call;
    ``StreamingMonitor.step(monitor, frame)`` steps ``monitor`` too."""

    def __get__(self, monitor: StreamingMonitor | None, owner: type | None = None):
        return self if monitor is None else monitor._step

    def __call__(self, monitor: StreamingMonitor,
                 frame: Mapping[str, object]) -> list[tuple[int, bool]]:
        return monitor._step(frame)


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
        namespace = {"deque": deque, "UnknownAtomError": UnknownAtomError}
        for k, node in enumerate(plan.nodes):
            if sizes[k] > 1:
                namespace[f"r{k}"] = [False] * sizes[k]
            if isinstance(node, Atom):
                namespace[f"a{k}"] = node.name
        exec(_compile(_kernel_source(plan, delays, sizes), "<streaming kernel>", "exec"), namespace)
        self._step, self._finish, self._received = namespace["kernel"]()
        self._widest = max(sizes)
        self._finalized = False

    step = _Step()

    @property
    def frames_received(self) -> int:
        return self._received()

    @property
    def next_emission_index(self) -> int:
        if self._finalized:
            return self._received()
        return max(0, self._received() - self.lookahead_frames)

    @property
    def buffered_rows(self) -> int:
        """Rows held for the node with the longest ring, or one for its current
        value when no node needs a ring (fewer while it fills)."""
        return min(self._received(), self._widest)

    def finalize(self) -> list[tuple[int, bool]]:
        """Flush all remaining verdicts using right-boundary clipping."""
        if self._finalized:
            return []
        self._finalized = True
        return self._finish()
