"""Fixed-delay streaming evaluation of parsed formulas.

A :class:`StreamingMonitor` consumes frame environments one at a time and
emits ``(frame index, verdict)`` pairs as soon as the right context of a
frame is complete; it never revises an emitted verdict.

The monitor runs on the formula's :class:`~tracecontracts.frames.EvaluationPlan`,
so structurally equal subtrees are one node.  Each node ``k`` has a fixed
delay ``d_k``, its reach in frames: once frame ``t`` has arrived, the right
context of the node's frame ``t - d_k`` is complete.  Each node writes its
verdict for that frame into a ring of fixed length, the largest lag plus
window span among its consumers; so the buffer is bounded by the formula's
radii.  Windows keep rolling counts of true child frames; until keeps a
queue of its left side's false frames and a rolling count of its right
side, so a step costs O(plan nodes).

At construction the monitor generates one Python function for its plan: a
single body that writes the atoms into their rings, then runs every node's
update, children first, with its delay, ring sizes, pad and threshold as
integer literals, behind the guard ``d_k - r_k <= t < n + d_k`` on the
steps it runs at, and returns the root's verdict for frame
``t - lookahead_frames``.  The counts, queues and scan positions are cells
of that function.  Only the plan's integers and fixed operator templates
enter the source text; atom names and rings are bound as values.

``finalize`` runs the same node updates over the virtual frames
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
    if size == 1:
        return f"r{k}[0]"
    return f"r{k}[(t - {lag}) % {size}]" if lag else f"r{k}[t % {size}]"


def _update(node: Formula, k: int, kids: tuple[int, ...], r: int, d: int, sizes: list[int],
            closed: bool) -> list[str]:
    """Source lines of node ``k``'s update at step ``t``, for its frame
    ``i = t - d``; ``closed`` reads child frames ``>= n`` as pads, and an
    open trace has no such frames."""
    out = _at(k, sizes[k], d)
    if isinstance(node, Until):
        # Some psi frame in [i, min(i + r, first phi-false frame >= i)]: a
        # queue of phi-false frames from i - 1 on, and a count of true psi
        # frames in [i, h].
        phi, psi = kids
        j = _frame(d - r)  # the frame entering the window
        entering = f"{j} < n and not " if closed else "not "
        lines = [
            f"if {entering}{_at(phi, sizes[phi], d - r)}:",
            f"    q{k}.append({j})",
            f"if t >= {d}:",
            f"    if q{k} and q{k}[0] < t - {d}:",
            f"        q{k}.popleft()",
            f"    u = {j} if {j} < n else n - 1" if closed else f"    u = {j}",
            f"    if q{k} and q{k}[0] < u:",
            f"        u = q{k}[0]",
            f"    while h{k} < u:",
            f"        h{k} += 1",
            f"        c{k} += r{psi}[h{k} % {sizes[psi]}]",
            f"    {out} = c{k} > 0",
            f"    c{k} -= {_at(psi, sizes[psi], d)}",
        ]
    elif not isinstance(node, TEMPORAL):
        lines = [f"{out} = " + _POINTWISE[type(node)].format(*(_at(c, sizes[c], d) for c in kids))]
    else:
        # ``count > threshold`` over the child's frames [i - back, i + r]; the
        # count starts at frame i = -r so it is full at frame 0, and a frame
        # leaves it right after the last verdict that covers it.
        (c,) = kids
        back = r if isinstance(node, Near) else 0
        pad, threshold = (True, r) if isinstance(node, Always) else (False, 0)
        entering = _at(c, sizes[c], d - r)
        if closed:
            entering = f"({entering} if {_frame(d - r)} < n else {pad})"
        lines = [
            f"c{k} += {entering}",
            f"if t >= {d}:",
            f"    {out} = c{k} > {threshold}",
            f"    if t >= {d + back}:",
            f"        c{k} -= {_at(c, sizes[c], d + back)}",
        ]
    if closed:
        return [f"if {d - r} <= t < n + {d}:"] + ["    " + line for line in lines]
    if d - r:
        return [f"if t >= {d - r}:"] + ["    " + line for line in lines]
    return lines


def _kernel_source(plan: EvaluationPlan, delays: list[int], sizes: list[int]) -> str:
    """Source of ``kernel()``, which makes one monitor's ``step(frame)``,
    ``finish()`` and ``received()`` on fresh cells; it reads the atom names
    ``a<k>`` and the rings ``r<k>`` from its globals."""
    nodes = list(enumerate(zip(plan.nodes, plan.kids, plan.radii, delays)))
    temporal = [k for k, (node, *_) in nodes if isinstance(node, TEMPORAL)]
    until = [k for k, (node, *_) in nodes if isinstance(node, Until)]
    shared = ", ".join(["received"] + [f"c{k}" for k in temporal] + [f"h{k}" for k in until])
    root, lookahead = plan.node_count - 1, delays[-1]
    emit = f"(t - {lookahead}, {_at(root, sizes[root], lookahead)})"
    step = ["def step(frame):", f"    nonlocal {shared}", "    t = received"]
    for k, (node, *_) in nodes:
        if isinstance(node, Atom):
            step += ["    try:", f"        value = frame[a{k}]", "    except KeyError:",
                     f"        raise UnknownAtomError(a{k}) from None",
                     f"    {_at(k, sizes[k], 0)} = bool(value)"]
    step.append("    received = t + 1")
    finish = ["def finish():", f"    nonlocal {shared}", "    n = received", "    out = []",
              f"    for t in range(n, n + {lookahead}):"]
    for k, (node, kids, r, d) in nodes:
        if not isinstance(node, Atom):
            step += ["    " + line for line in _update(node, k, kids, r, d, sizes, False)]
            finish += ["        " + line for line in _update(node, k, kids, r, d, sizes, True)]
    step += [f"    if t >= {lookahead}:", f"        return [{emit}]", "    return []"]
    finish += [f"        if t >= {lookahead}:", f"            out.append({emit})", "    return out"]
    head = ["def kernel():", "    received = 0"]
    head += [f"    c{k} = 0" for k in temporal]
    head += [f"    h{k}, q{k} = -1, deque()" for k in until]
    body = step + finish + ["return step, finish, lambda: received"]
    return "\n".join(head + ["    " + line for line in body]) + "\n"


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
            namespace[f"r{k}"] = [False] * sizes[k]
            if isinstance(node, Atom):
                namespace[f"a{k}"] = node.name
        exec(_compile(_kernel_source(plan, delays, sizes), "<streaming kernel>", "exec"), namespace)
        self._step, self._finish, self._received = namespace["kernel"]()
        self._widest = max(sizes)
        self._finalized = False

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
        """Rows held by the longest ring (fewer while it fills)."""
        return min(self._received(), self._widest)

    def step(self, frame: Mapping[str, object]) -> list[tuple[int, bool]]:
        """Append one frame environment; return the newly final verdicts."""
        if self._finalized:
            raise RuntimeError("monitor is finalized")
        return self._step(frame)

    def finalize(self) -> list[tuple[int, bool]]:
        """Flush all remaining verdicts using right-boundary clipping."""
        if self._finalized:
            return []
        self._finalized = True
        return self._finish()
