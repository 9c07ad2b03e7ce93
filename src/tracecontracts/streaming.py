"""Fixed-delay streaming evaluation of parsed formulas.

A :class:`StreamingMonitor` consumes frame environments one at a time and
emits ``(frame index, verdict)`` pairs as soon as the right context of a
frame is complete; it never revises an emitted verdict.

The monitor runs on the formula's :class:`~tracecontracts.frames.EvaluationPlan`,
so structurally equal subtrees are one node.  Each node ``k`` has a fixed
delay ``d_k``, its reach in frames: once frame ``t`` has arrived, the right
context of the node's frame ``t - d_k`` is complete.  The node's verdict
for that frame is a local of the step.  A temporal node takes in each
child frame once, at the step that makes it.  A pointwise node reads its
children at its own frame, so a child of smaller delay also goes into a
ring of fixed length, one more than the largest delay difference among
its pointwise consumers; rings are bounded by the formula's radii.  A
window's right edge is its child's newest frame, so a window keeps one
witness, the child's last true frame (last false frame for always), and
its verdict compares that index with the window's left edge.  Until keeps
deques of its left side's false frames and its right side's true frames
from its own frame on, and compares their heads.  So a step costs
O(plan nodes).

At construction the monitor generates one Python function for its plan:
it reads the atoms as ``True if value else False`` (the truth test of
``bool``, without the call), then runs every node's update, children
first, with its delays, ring sizes and window offsets as integer literals,
and returns the root's verdict for frame ``t - lookahead_frames``.
Each update is a list of blocks, each with the step from which it runs
(``t >= d_c`` to take in child ``c``'s frame, ``t >= d_k`` to emit);
from them come a warm-up body with those guards and a steady body
without any, which runs once ``t`` reaches the lookahead, so a steady
frame makes one comparison.  Witnesses and deques are its cells, and
only the plan's integers and fixed operator templates enter the source
text; atom names and rings are bound as values.
``monitor.step`` is that generated function itself, so a streamed frame
is one Python call; it refuses a finalized monitor with ``RuntimeError``
before it reads an atom, also through a reference taken before
``finalize``.

``finalize`` runs the same updates of every node with a delay, from its
lowest block guard while ``t < n + d_k``, over the virtual frames
``n .. n + lookahead_frames - 1`` after the last frame ``n - 1``.  No
child frame ``>= n`` is taken in, so the windows and until read past the
trace as a pad, false for the existential windows and until and true for
always, which equals clipping them at the right trace boundary.  Emitted
verdicts agree bit for bit with offline evaluation of the completed trace.
"""

from __future__ import annotations

import functools
import sys
from collections import deque
from typing import Mapping

from .frames import ContractError, EvaluationPlan, UnknownAtomError, share_subformulas
from .parser import TEMPORAL, Always, And, Atom, Formula, Implies, Near, Not, Or, Until

# Pointwise operators on Python bools; ``a <= b`` is ``a -> b``.
_POINTWISE = {Not: "not {}", And: "{} & {}", Or: "{} | {}", Implies: "{} <= {}"}

# Monitors of one plan shape share one code object; each runs it on its own
# rings and cells.
_compile = functools.lru_cache(maxsize=128)(compile)


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
    A temporal node takes in child ``c``'s frame ``t - d_c`` from its local
    ``x<c>`` as it is made; a pointwise node reads an older child frame
    from its ring.  The node's value goes to ``x<k>``, and to its ring if a
    later step reads it.  ``closed`` takes in no child frame ``>= n`` (a
    child of delay 0 makes none then); an open trace has no such frames."""
    store = _store(k, sizes[k], d)
    if not isinstance(node, TEMPORAL):
        reads = (f"x{c}" if d == delays[c] else _at(c, sizes[c], d) for c in kids)
        return [(d, [store + _POINTWISE[type(node)].format(*reads)])]

    def arrival(c: int, test: str, action: str) -> list[tuple[int, list[str]]]:
        """Run ``action`` on child ``c``'s frame as it is made, if ``test``."""
        if closed and not delays[c]:
            return []
        j = _frame(delays[c])
        return [(delays[c], [f"if {j} < n and {test}:" if closed else f"if {test}:",
                             "    " + action.format(j)])]

    if isinstance(node, Until):
        # Some psi frame in [i, min(i + r, first phi-false frame >= i)]:
        # deques of the phi-false and the psi-true frames, each of which
        # drops at most its frame i - 1 per step.
        phi, psi = kids
        return arrival(phi, f"not x{phi}", f"q{k}.append({{}})") + arrival(
            psi, f"x{psi}", f"p{k}.append({{}})") + [(d, [
                f"if q{k} and q{k}[0] < {_frame(d)}:", f"    q{k}.popleft()",
                f"if p{k} and p{k}[0] < {_frame(d)}:", f"    p{k}.popleft()",
                f"{store}p{k}[0] <= {_frame(d - r)} and not (q{k} and q{k}[0] < p{k}[0])"
                f" if p{k} else False",
            ])]
    # ``w<k>`` is the child's last true frame up to the window's right edge
    # i + r: [i - back, i + r] holds a true frame when ``w<k> >= i - back``.
    # For ``G`` it is the last false frame, and [i, i + r] holds none when
    # ``w<k> < i``.
    (c,) = kids
    if isinstance(node, Always):
        return arrival(c, f"not x{c}", f"w{k} = {{}}") + [(d, [f"{store}w{k} < {_frame(d)}"])]
    back = r if isinstance(node, Near) else 0
    return arrival(c, f"x{c}", f"w{k} = {{}}") + [(d, [f"{store}w{k} >= {_frame(d + back)}"])]


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
    ``finish()``, ``received()``, ``done()`` and ``queued()`` on fresh cells;
    ``queued()`` lists each until node's two deque lengths together.  It reads
    the atom names ``a<k>`` and the rings ``r<k>`` from its globals.  ``finish``
    sets the ``done`` cell and returns no verdict once it is set, and
    ``step`` refuses a frame once it is set."""
    nodes = list(enumerate(zip(plan.nodes, plan.kids, plan.radii, delays)))
    windows = [(k, node, r) for k, (node, _, r, _) in nodes
               if isinstance(node, TEMPORAL) and not isinstance(node, Until)]
    until = [k for k, (node, *_) in nodes if isinstance(node, Until)]
    shared = ", ".join(["received"] + [f"w{k}" for k, *_ in windows])
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
        if d:  # a node of delay 0 has no frame left after the last one
            blocks = _update(node, k, kids, r, d, delays, sizes, True)
            low = min(guard for guard, _ in blocks)
            tail += [f"if {low} <= t < n + {d}:", *_indent(_guarded(blocks, low))]
    # Once t reaches the largest guard, the lookahead, every block runs: the
    # steady body.
    steady = [line for _, block in warm for line in block] + [f"return [{emit}]"]
    warm.append((lookahead, [f"return [{emit}]"]))
    step = ["def step(frame):", f"    nonlocal {shared}", "    t = received", "    if done:",
            "        raise RuntimeError('monitor is finalized')", *_indent(atoms),
            "    received = t + 1"]
    if lookahead:
        step += [f"    if t >= {lookahead}:", *_indent(steady, 2), *_indent(_guarded(warm, 0)),
                 "    return []"]
    else:
        step += _indent(steady)
    finish = ["def finish():", f"    nonlocal {shared}, done", "    if done:", "        return []",
              "    done = True"]
    if lookahead:
        finish += ["    n, out = received, []", f"    for t in range(n, n + {lookahead}):",
                   *_indent(tail, 2), f"        if t >= {lookahead}:",
                   f"            out.append({emit})", "    return out"]
    else:
        finish.append("    return []")
    head = ["def kernel():", "    received, done = 0, False"]
    # A witness starts below the first left edge: frame -r for ``N``, 0 otherwise.
    head += [f"    w{k} = {-1 - r if isinstance(node, Near) else -1}" for k, node, r in windows]
    head += [f"    q{k}, p{k} = deque(), deque()" for k in until]
    queued = ", ".join(f"len(q{k}) + len(p{k})" for k in until)
    body = step + finish + [
        f"return step, finish, lambda: received, lambda: done, lambda: [{queued}]"]
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
    monitor.  A lookahead of ``sys.maxsize`` frames or more, which no stream
    could index, raises :class:`ContractError` before any ring is made.
    """

    def __init__(self, formula: Formula, frame_step: float) -> None:
        plan = share_subformulas([formula], frame_step)
        reach = plan.reach[formula]
        if reach.frames >= sys.maxsize:
            raise ContractError(f"lookahead radius {reach.seconds!r} spans more frames of step"
                                f" {frame_step!r} than a stream can index")
        self.formula = formula
        self.frame_step = frame_step
        self.lookahead_seconds = reach.seconds
        self.lookahead_frames = reach.frames
        self.backward_frames = reach.backward
        delays = [plan.reach[node].frames for node in plan.nodes]
        sizes = [1] * plan.node_count
        for node, kids, d in zip(plan.nodes, plan.kids, delays):
            if not isinstance(node, TEMPORAL):  # a temporal node reads its children as made
                for k in kids:
                    sizes[k] = max(sizes[k], d - delays[k] + 1)
        namespace = {"deque": deque, "UnknownAtomError": UnknownAtomError}
        for k, node in enumerate(plan.nodes):
            if sizes[k] > 1:
                namespace[f"r{k}"] = [False] * sizes[k]
            if isinstance(node, Atom):
                namespace[f"a{k}"] = node.name
        exec(_compile(_kernel_source(plan, delays, sizes), "<streaming kernel>", "exec"), namespace)
        kernel = namespace["kernel"]
        self._step, self._finish, self._received, self._done, self._queued = kernel()
        self._widest = max(sizes)

    step = _Step()

    @property
    def frames_received(self) -> int:
        return self._received()

    @property
    def next_emission_index(self) -> int:
        if self._done():
            return self._received()
        return max(0, self._received() - self.lookahead_frames)

    @property
    def buffered_rows(self) -> int:
        """The most frames any node holds: the slots of its ring (one for its
        current value when it has none; fewer while the ring fills), or an
        until node's frame indices in its two deques together.  A window
        holds one witness index, which no ring outgrows."""
        return max([min(self._received(), self._widest), *self._queued()])

    def finalize(self) -> list[tuple[int, bool]]:
        """Flush all remaining verdicts using right-boundary clipping."""
        return self._finish()
