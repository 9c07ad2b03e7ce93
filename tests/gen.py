"""Shared random generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's shift-doubling,
range-scan and assignment-solver code paths: formula semantics are
re-derived with per-frame window scans and with prefix sums, reach by tree
recursion, interval relations with all-pairs loops, optimal matchings by
subset enumeration, streaming by a pump engine whose nodes advance as far
as their children allow, lexing by a per-character scan with its own
number and radius scanners, parsing and rendering by one
recursive-descent method per binding level and one rendering arm per node
class, and trace pathologies by one arm per kind over frame-loop runs.  The
``object_*`` interval layer is the library's predecessor of its array
path: one ``Interval`` per run, one ``CandidatePair`` record (this
module's own; the library keeps only its ``CandidateTable``) per candidate,
and a Python loop per reference; ``scan_greedy`` is the greedy scan before
it kept its uncontested candidates at once, one byte-array pass over every
candidate.  The ``loop_*`` functions are the predecessors
of the batched monitor pass: one whole pass per class, sweep tolerance or
calibration case; ``pair_witness`` and ``group_soft_boundary`` those of its
witness pass, one distance scan per (obligation, witness) pair and one soft
boundary per group.  Some helpers here are not oracles but test-only
utilities that no command reaches: finite-universe enumeration
(``universe``, ``truth_signature``, ``satisfiable``), which stacks every
environment over a few atoms and frames and runs the library's plan on it
once; the risk-profile scorer ``profile_score``; ``span_text``; and the
set views of a ``Matching``.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Mapping

import numpy as np
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from tracecontracts.basis import CalibrationCase
from tracecontracts.contracts import (
    EVENT_PREDICATES,
    MATCHER_POLICIES,
    SETTINGS,
    ClassMonitorResult,
    Contract,
    ContractError,
    EventClause,
    FrameClause,
    GuardCoordinate,
    GuardVector,
    MonitorResult,
    SweepResult,
    SweepRow,
    WitnessReport,
    _frame_runs,
    contract_to_text,
    mean_logic,
    retolerance,
)
from tracecontracts.fixtures import TracePathology
from tracecontracts.frames import (
    ObligationScore,
    TraceEnvironment,
    UnknownAtomError,
    _as_mask,
    derive_edge_atoms,
    obligation_score,
    radius_frames,
    share_subformulas,
)
from tracecontracts.intervals import (
    AuditBoundError,
    CandidateTable,
    Family,
    Interval,
    MatcherAudit,
    Matching,
    overlap_pairs,
)
from tracecontracts.lexer import (
    SINGLE_CHAR_OPERATORS,
    TEMPORAL_NAMES,
    TWO_CHAR_OPERATORS,
    LexError,
    SourceSpan,
    Token,
    TokenKind,
    tokenize,
)
from tracecontracts.parser import (
    BINARY_OPERATORS,
    PREFIX_OPERATORS,
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
    ParseError,
    Until,
    radius_text,
)
from tracecontracts.tracefile import TraceFile

DEFAULT_ATOMS = ("a", "b", "c")

_TIME_EPS = 1e-9


def random_formula(
    rng: random.Random,
    max_depth: int,
    atoms=DEFAULT_ATOMS,
    h: float = 0.02,
    max_radius_frames: int = 6,
) -> Formula:
    if max_depth <= 0 or rng.random() < 0.3:
        return Atom(rng.choice(atoms))
    radius = rng.randint(1, max_radius_frames) * h * rng.choice((1.0, 0.75, 1.4))
    kind = rng.randrange(8)
    if kind == 0:
        return Not(random_formula(rng, max_depth - 1, atoms, h, max_radius_frames))
    if kind == 1:
        return And(
            random_formula(rng, max_depth - 1, atoms, h, max_radius_frames),
            random_formula(rng, max_depth - 1, atoms, h, max_radius_frames),
        )
    if kind == 2:
        return Or(
            random_formula(rng, max_depth - 1, atoms, h, max_radius_frames),
            random_formula(rng, max_depth - 1, atoms, h, max_radius_frames),
        )
    if kind == 3:
        return Implies(
            random_formula(rng, max_depth - 1, atoms, h, max_radius_frames),
            random_formula(rng, max_depth - 1, atoms, h, max_radius_frames),
        )
    child = random_formula(rng, max_depth - 1, atoms, h, max_radius_frames)
    if kind == 4:
        return Near(child, radius)
    if kind == 5:
        return Future(child, radius)
    if kind == 6:
        return Always(child, radius)
    return Until(
        child, random_formula(rng, max_depth - 1, atoms, h, max_radius_frames), radius
    )


def random_env(
    rng: random.Random, n: int, atoms=DEFAULT_ATOMS, h: float = 0.02, density: float = 0.5
) -> TraceEnvironment:
    return TraceEnvironment(
        h, n, {name: [rng.random() < density for _ in range(n)] for name in atoms}
    )


def random_mask(rng: random.Random, n: int, density: float = 0.4) -> np.ndarray:
    return np.array([rng.random() < density for _ in range(n)], dtype=bool)


def naive_evaluate(formula: Formula, env: TraceEnvironment) -> list[bool]:
    """Reference semantics by direct window scans, memoized per (node, frame)."""
    atoms = {name: [bool(v) for v in values] for name, values in env.atoms.items()}
    h, n = env.frame_step, env.frame_count
    memo: dict[tuple[int, int], bool] = {}

    def ev(f: Formula, i: int) -> bool:
        key = (id(f), i)
        if key in memo:
            return memo[key]
        if isinstance(f, Atom):
            value = atoms[f.name][i]
        elif isinstance(f, Not):
            value = not ev(f.child, i)
        elif isinstance(f, And):
            value = ev(f.left, i) and ev(f.right, i)
        elif isinstance(f, Or):
            value = ev(f.left, i) or ev(f.right, i)
        elif isinstance(f, Implies):
            value = (not ev(f.left, i)) or ev(f.right, i)
        elif isinstance(f, Near):
            r = radius_frames(f.radius, h)
            value = any(ev(f.child, j) for j in range(max(0, i - r), min(n, i + r + 1)))
        elif isinstance(f, Future):
            r = radius_frames(f.radius, h)
            value = any(ev(f.child, j) for j in range(i, min(n, i + r + 1)))
        elif isinstance(f, Always):
            r = radius_frames(f.radius, h)
            value = all(ev(f.child, j) for j in range(i, min(n, i + r + 1)))
        elif isinstance(f, Until):
            r = radius_frames(f.radius, h)
            value = False
            for j in range(i, min(n, i + r + 1)):
                if ev(f.right, j) and all(ev(f.left, k) for k in range(i, j)):
                    value = True
                    break
        else:
            raise TypeError(f)
        memo[key] = value
        return value

    return [ev(formula, i) for i in range(n)]


def naive_satisfiable(formula: Formula, atoms, n: int, h: float) -> bool:
    """Some assignment of ``atoms`` over ``n`` frames makes some frame
    true, trying the assignments one at a time by window scans."""
    names = sorted(atoms)
    for bits in itertools.product((False, True), repeat=len(names) * n):
        values = {name: bits[j * n : (j + 1) * n] for j, name in enumerate(names)}
        if any(naive_evaluate(formula, TraceEnvironment(h, n, values))):
            return True
    return False


# Enumeration ceiling: 2**(atoms * frames) environments.
MAX_UNIVERSE_BITS = 20


class EnumerationBoundError(Exception):
    """The requested universe exceeds the enumeration ceiling."""


def universe(atoms, n: int) -> dict[str, np.ndarray]:
    """All 2**(a*n) environments stacked row-wise per atom.

    Environment ``e`` assigns atom ``j`` (sorted order) at frame ``i`` the
    bit ``j * n + i`` of ``e``.
    """
    names = sorted(atoms)
    bits = len(names) * n
    if bits > MAX_UNIVERSE_BITS:
        raise EnumerationBoundError(
            f"universe needs 2**{bits} environments, ceiling is 2**{MAX_UNIVERSE_BITS}"
        )
    env_ids = np.arange(1 << bits, dtype=np.int64)
    stacked: dict[str, np.ndarray] = {}
    for j, name in enumerate(names):
        shifts = j * n + np.arange(n, dtype=np.int64)
        stacked[name] = ((env_ids[:, None] >> shifts[None, :]) & 1).astype(bool)
    return stacked


def truth_signature(formula: Formula, atoms, n: int, h: float) -> bytes:
    """The library plan's valuation over every environment of the
    universe, canonically packed: two formulas are equivalent on the
    universe iff their signatures are equal byte for byte."""
    plan = share_subformulas([formula], h)
    stacked = universe(atoms, n)
    if n == 0:
        return b""
    values = plan.evaluate(stacked)[formula]
    return np.packbits(values.reshape(-1).astype(np.uint8)).tobytes()


def satisfiable(formula: Formula, atoms, n: int, h: float) -> bool:
    """True iff some environment in the universe yields a true frame: some
    bit of the truth signature is set."""
    return any(truth_signature(formula, atoms, n, h))


def naive_lookahead(formula: Formula) -> float:
    """Maximum future time in seconds needed to decide a frame's verdict.

    Atoms and negation add nothing, Boolean nodes take the maximum of
    their children, bounded future operators add their horizon, and the
    symmetric neighborhood adds its radius as right context.
    """
    match formula:
        case Atom():
            return 0.0
        case Not(child=c):
            return naive_lookahead(c)
        case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r):
            return max(naive_lookahead(l), naive_lookahead(r))
        case Near(child=c, radius=radius) | Future(child=c, radius=radius) | Always(
            child=c, radius=radius
        ):
            return naive_lookahead(c) + radius
        case Until(left=l, right=r, radius=radius):
            return max(naive_lookahead(l), naive_lookahead(r)) + radius
    raise TypeError(f"not a formula node: {formula!r}")


def naive_lookahead_frames(formula: Formula, h: float) -> int:
    """Frame-count lookahead with the grid projection applied per operator."""
    match formula:
        case Atom():
            return 0
        case Not(child=c):
            return naive_lookahead_frames(c, h)
        case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r):
            return max(naive_lookahead_frames(l, h), naive_lookahead_frames(r, h))
        case Near(child=c, radius=radius) | Future(child=c, radius=radius) | Always(
            child=c, radius=radius
        ):
            return naive_lookahead_frames(c, h) + radius_frames(radius, h)
        case Until(left=l, right=r, radius=radius):
            return max(naive_lookahead_frames(l, h), naive_lookahead_frames(r, h)) + radius_frames(
                radius, h
            )
    raise TypeError(f"not a formula node: {formula!r}")


def naive_backward_frames(formula: Formula, h: float) -> int:
    """Frame-count backward reach; only the symmetric neighborhood looks left."""
    match formula:
        case Atom():
            return 0
        case Not(child=c) | Future(child=c) | Always(child=c):
            return naive_backward_frames(c, h)
        case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r) | Until(
            left=l, right=r
        ):
            return max(naive_backward_frames(l, h), naive_backward_frames(r, h))
        case Near(child=c, radius=radius):
            return naive_backward_frames(c, h) + radius_frames(radius, h)
    raise TypeError(f"not a formula node: {formula!r}")


def brute_force_optimum(cands) -> tuple[int, float]:
    """(max cardinality, min total cost) over all one-to-one candidate subsets."""
    cands = list(cands)
    best = [0, 0.0]

    def rec(index: int, used_refs: frozenset, used_preds: frozenset, count: int, cost: float):
        remaining = len(cands) - index
        if count + remaining < best[0]:
            return
        if index == len(cands):
            if count > best[0] or (count == best[0] and cost < best[1] - 1e-12):
                best[0], best[1] = count, cost
            return
        c = cands[index]
        if c.ref_index not in used_refs and c.pred_index not in used_preds:
            rec(
                index + 1,
                used_refs | {c.ref_index},
                used_preds | {c.pred_index},
                count + 1,
                cost + c.cost,
            )
        rec(index + 1, used_refs, used_preds, count, cost)

    rec(0, frozenset(), frozenset(), 0, 0.0)
    return best[0], best[1]


def matching_cost(cands, matching) -> float:
    costs: dict[tuple[int, int], float] = {}
    for c in cands:
        key = (c.ref_index, c.pred_index)
        if key not in costs or c.cost < costs[key]:
            costs[key] = c.cost
    return sum(costs[pair] for pair in matching.pairs)


def is_separating(values: dict[int, tuple[float, ...]], cases, clause_ids) -> bool:
    """Independent separation check: every strict risk pair must have a witness."""
    for i, u in enumerate(cases):
        for j, v in enumerate(cases):
            if u.risk < v.risk:
                if not any(values[cid][i] > values[cid][j] for cid in clause_ids):
                    return False
    return True


def enumerate_formulas(height: int, atoms=("a", "b"), radius: float = 0.04) -> list[Formula]:
    """Every tree over the full connective set up to the given height
    above the atoms (height 2 over two atoms yields 2810 formulas)."""
    level: list[Formula] = [Atom(name) for name in atoms]
    seen: list[Formula] = list(level)
    for _ in range(height):
        nxt: list[Formula] = [Atom(name) for name in atoms]
        for f in seen:
            nxt.append(Not(f))
            nxt.append(Near(f, radius))
            nxt.append(Future(f, radius))
            nxt.append(Always(f, radius))
        for f in seen:
            for g in seen:
                nxt.append(And(f, g))
                nxt.append(Or(f, g))
                nxt.append(Implies(f, g))
                nxt.append(Until(f, g, radius))
        seen = nxt
    return seen


# ---------------------------------------------------------------------------
# The per-character scanner that the lexer's identifier pattern replaced.


def _naive_identifier_start(c: str) -> bool:
    return c == "_" or "a" <= c <= "z" or "A" <= c <= "Z"


def _naive_identifier_char(c: str) -> bool:
    return _naive_identifier_start(c) or "0" <= c <= "9"


def _naive_munch_number(source: str, i: int) -> int:
    """Maximal munch of a decimal literal; a dot needs a digit after it."""
    n = len(source)
    while i < n and "0" <= source[i] <= "9":
        i += 1
    if i + 1 < n and source[i] == "." and "0" <= source[i + 1] <= "9":
        i += 1
        while i < n and "0" <= source[i] <= "9":
            i += 1
    return i


def _naive_scan_radius(source: str, bracket: int) -> tuple[float, int]:
    """``[decimal]`` from the opening bracket: the radius and the index one
    past the closing bracket."""
    n = len(source)
    i = bracket + 1
    digits_start = i
    while i < n and "0" <= source[i] <= "9":
        i += 1
    if i == digits_start:
        if i >= n:
            raise LexError(SourceSpan(bracket, bracket + 1), "unterminated radius bracket")
        raise LexError(SourceSpan(i, i + 1), "malformed decimal literal")
    if i < n and source[i] == ".":
        dot = i
        i += 1
        frac_start = i
        while i < n and "0" <= source[i] <= "9":
            i += 1
        if i == frac_start:
            if i >= n:
                raise LexError(SourceSpan(bracket, bracket + 1), "unterminated radius bracket")
            raise LexError(SourceSpan(dot, dot + 1), "malformed decimal literal")
    if i >= n:
        raise LexError(SourceSpan(bracket, bracket + 1), "unterminated radius bracket")
    if source[i] != "]":
        raise LexError(SourceSpan(i, i + 1), "malformed decimal literal")
    return float(source[digits_start:i]), i + 1


def naive_tokenize(source: str) -> list[Token]:
    """Scan ``source`` one character at a time, identifiers included."""
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c in " \t\r\n":
            i += 1
            continue
        if _naive_identifier_start(c):
            start = i
            while i < n and _naive_identifier_char(source[i]):
                i += 1
            name = source[start:i]
            if name in TEMPORAL_NAMES:
                radius = None
                if i < n and source[i] == "[":
                    radius, i = _naive_scan_radius(source, i)
                tokens.append(
                    Token(TokenKind.TEMPORAL, source[start:i], SourceSpan(start, i), radius)
                )
            else:
                tokens.append(Token(TokenKind.IDENTIFIER, name, SourceSpan(start, i)))
            continue
        if "0" <= c <= "9":
            start = i
            i = _naive_munch_number(source, i)
            tokens.append(Token(TokenKind.NUMBER, source[start:i], SourceSpan(start, i)))
            continue
        matched = False
        for op in TWO_CHAR_OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token(TokenKind.OPERATOR, op, SourceSpan(i, i + len(op))))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if c == "(":
            tokens.append(Token(TokenKind.LEFT_PAREN, c, SourceSpan(i, i + 1)))
            i += 1
            continue
        if c == ")":
            tokens.append(Token(TokenKind.RIGHT_PAREN, c, SourceSpan(i, i + 1)))
            i += 1
            continue
        if c in SINGLE_CHAR_OPERATORS:
            tokens.append(Token(TokenKind.OPERATOR, c, SourceSpan(i, i + 1)))
            i += 1
            continue
        raise LexError(SourceSpan(i, i + 1), f"undeclared character {c!r}")
    tokens.append(Token(TokenKind.END, "", SourceSpan(n, n)))
    return tokens


def span_text(source: str, span: SourceSpan) -> str:
    """Exact substring of ``source`` over ``span``."""
    if span.end > len(source):
        raise ValueError(f"span [{span.start}, {span.end}) out of bounds for length {len(source)}")
    return source[span.start : span.end]


# ---------------------------------------------------------------------------
# The recursive-descent parser and per-class renderer that the operator-table
# parser replaced: one method per binding level, and hand-written rendering
# levels with one arm per node class.


def _naive_describe(token: Token) -> str:
    if token.kind is TokenKind.END:
        return "end of input"
    return repr(token.value)


class _NaiveParser:
    def __init__(self, tokens) -> None:
        self._tokens = tokens
        self._index = 0

    def peek(self) -> Token:
        return self._tokens[self._index]

    def advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not TokenKind.END:
            self._index += 1
        return token

    def implication(self) -> Formula:
        left = self.disjunction()
        token = self.peek()
        if token.kind is TokenKind.OPERATOR and token.value == "->":
            self.advance()
            right = self.implication()
            return Implies(left, right, SourceSpan(left.span.start, right.span.end))
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while True:
            token = self.peek()
            if token.kind is TokenKind.OPERATOR and token.value == "|":
                self.advance()
                right = self.conjunction()
                left = Or(left, right, SourceSpan(left.span.start, right.span.end))
            else:
                return left

    def conjunction(self) -> Formula:
        left = self.until()
        while True:
            token = self.peek()
            if token.kind is TokenKind.OPERATOR and token.value == "&":
                self.advance()
                right = self.until()
                left = And(left, right, SourceSpan(left.span.start, right.span.end))
            else:
                return left

    def until(self) -> Formula:
        left = self.unary()
        token = self.peek()
        if token.kind is TokenKind.TEMPORAL and token.temporal_name == "U":
            self.advance()
            radius = self._required_radius(token)
            right = self.until()
            return Until(left, right, radius, SourceSpan(left.span.start, right.span.end))
        return left

    def unary(self) -> Formula:
        token = self.peek()
        if token.kind is TokenKind.OPERATOR and token.value == "!":
            self.advance()
            child = self.unary()
            return Not(child, SourceSpan(token.span.start, child.span.end))
        if token.kind is TokenKind.TEMPORAL:
            name = token.temporal_name
            if name == "U":
                raise ParseError(token.span, "a formula", _naive_describe(token))
            self.advance()
            radius = self._required_radius(token)
            child = self.unary()
            span = SourceSpan(token.span.start, child.span.end)
            if name == "N":
                return Near(child, radius, span)
            if name == "F":
                return Future(child, radius, span)
            return Always(child, radius, span)
        if token.kind is TokenKind.LEFT_PAREN:
            self.advance()
            inner = self.implication()
            closing = self.peek()
            if closing.kind is not TokenKind.RIGHT_PAREN:
                raise ParseError(closing.span, "')'", _naive_describe(closing))
            self.advance()
            return replace(inner, span=SourceSpan(token.span.start, closing.span.end))
        if token.kind is TokenKind.IDENTIFIER:
            self.advance()
            return Atom(token.value, token.span)
        raise ParseError(token.span, "a formula", _naive_describe(token))

    def _required_radius(self, token: Token) -> float:
        if token.radius is None:
            raise ParseError(token.span, f"'{token.temporal_name}[radius]'", _naive_describe(token))
        if token.radius <= 0.0:
            raise ParseError(token.span, "a positive radius", _naive_describe(token))
        return token.radius


def naive_parse(source: str) -> Formula:
    """Tokenize and parse ``source`` by recursive descent, one method per level."""
    parser = _NaiveParser(tokenize(source))
    formula = parser.implication()
    trailing = parser.peek()
    if trailing.kind is not TokenKind.END:
        raise ParseError(trailing.span, "end of input", _naive_describe(trailing))
    return formula


_LEVEL_IMPLICATION = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_UNTIL = 4
_LEVEL_UNARY = 5
_LEVEL_ATOM = 6

_LEVELS: dict[type, int] = {
    Implies: _LEVEL_IMPLICATION,
    Or: _LEVEL_OR,
    And: _LEVEL_AND,
    Until: _LEVEL_UNTIL,
    Not: _LEVEL_UNARY,
    Near: _LEVEL_UNARY,
    Future: _LEVEL_UNARY,
    Always: _LEVEL_UNARY,
    Atom: _LEVEL_ATOM,
}

_UNARY_NAMES = {Near: "N", Future: "F", Always: "G"}


def naive_format(formula: Formula) -> str:
    """Canonical rendering with one arm per node class."""
    return _naive_render(formula, _LEVEL_IMPLICATION)


def _naive_render(formula: Formula, minimum: int) -> str:
    if _LEVELS[type(formula)] < minimum:
        return "(" + _naive_render(formula, _LEVEL_IMPLICATION) + ")"
    match formula:
        case Atom(name=name):
            return name
        case Not(child=child):
            return "!" + _naive_render(child, _LEVEL_UNARY)
        case Near() | Future() | Always():
            name = _UNARY_NAMES[type(formula)]
            return f"{name}[{radius_text(formula.radius)}] " + _naive_render(
                formula.child, _LEVEL_UNARY
            )
        case Until(left=left, right=right, radius=radius):
            return (
                _naive_render(left, _LEVEL_UNARY)
                + f" U[{radius_text(radius)}] "
                + _naive_render(right, _LEVEL_UNTIL)
            )
        case And(left=left, right=right):
            return _naive_render(left, _LEVEL_AND) + " & " + _naive_render(right, _LEVEL_UNTIL)
        case Or(left=left, right=right):
            return _naive_render(left, _LEVEL_OR) + " | " + _naive_render(right, _LEVEL_AND)
        case Implies(left=left, right=right):
            return (
                _naive_render(left, _LEVEL_OR) + " -> " + _naive_render(right, _LEVEL_IMPLICATION)
            )
    raise TypeError(f"not a formula node: {formula!r}")


# ---------------------------------------------------------------------------
# Prefix-sum frame kernels and the all-frames witness lookup, kept as oracles
# for the shift-doubling windows and the uncovered-frames-only witness.


def _prefix(values: np.ndarray) -> np.ndarray:
    """S[..., j] = number of true entries in values[..., :j]."""
    counts = np.cumsum(values, axis=-1, dtype=np.int64)
    zeros = np.zeros(values.shape[:-1] + (1,), dtype=np.int64)
    return np.concatenate([zeros, counts], axis=-1)


def prefix_window_exists(child: np.ndarray, back: int, ahead: int) -> np.ndarray:
    n = child.shape[-1]
    if n == 0:
        return child.copy()
    prefix = _prefix(child)
    idx = np.arange(n)
    hi = np.minimum(n, idx + ahead + 1)
    lo = np.maximum(0, idx - back)
    return (prefix[..., hi] - prefix[..., lo]) > 0


def prefix_window_all(child: np.ndarray, ahead: int) -> np.ndarray:
    n = child.shape[-1]
    if n == 0:
        return child.copy()
    prefix = _prefix(child)
    idx = np.arange(n)
    hi = np.minimum(n, idx + ahead + 1)
    return (prefix[..., hi] - prefix[..., idx]) == (hi - idx)


def prefix_until(phi: np.ndarray, psi: np.ndarray, r: int) -> np.ndarray:
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


def prefix_nearest_distances(obligated: np.ndarray, witnesses: np.ndarray, h: float):
    """Seconds from every obligated frame to the nearest witness frame, each
    looked up by bisection; ``None`` when there are no witness frames."""
    src = np.flatnonzero(obligated)
    dst = np.flatnonzero(witnesses)
    if src.size == 0:
        return np.zeros(0)
    if dst.size == 0:
        return None
    pos = np.searchsorted(dst, src)
    left = dst[np.clip(pos - 1, 0, dst.size - 1)]
    right = dst[np.clip(pos, 0, dst.size - 1)]
    return np.minimum(np.abs(src - left), np.abs(src - right)) * h


# ---------------------------------------------------------------------------
# Naive interval layer: frame loops and all-pairs scans, kept as oracles for
# the vectorised extraction and the range-scan pair relations.


def naive_extract_intervals(mask, h: float, merge_gap: float = 0.0) -> tuple[Interval, ...]:
    """Maximal runs by one Python step per frame, then a sequential merge."""
    runs: list[tuple[int, int]] = []
    start = None
    arr = np.asarray(mask).astype(bool)
    for i, active in enumerate(arr):
        if active and start is None:
            start = i
        elif not active and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(arr)))
    merged: list[tuple[int, int]] = []
    for lo, hi in runs:
        if merged and (lo - merged[-1][1]) * h <= merge_gap + _TIME_EPS:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple(Interval(lo * h, hi * h) for lo, hi in merged)


def naive_edge_times(mask, h: float) -> np.ndarray:
    """Sorted run endpoints of the unmerged runs, via interval objects."""
    times = []
    for interval in naive_extract_intervals(mask, h):
        times.append(interval.start)
        times.append(interval.end)
    return np.array(sorted(times))


# ---------------------------------------------------------------------------
# Trace rasterization and pathologies with one arm per kind over per-run
# Interval objects, kept as oracles for ``fixtures.make_trace`` and the
# run-move table of ``fixtures.apply_pathology``.


def naive_make_trace(events, n: int, h: float) -> np.ndarray:
    """Rasterize events by one slice assignment per event."""
    if n < 0 or not (h > 0.0):
        raise ValueError("need nonnegative frame count and positive frame step")
    mask = np.zeros(n, dtype=bool)
    horizon = n * h
    for event in events:
        interval = event if isinstance(event, Interval) else Interval(*event)
        if interval.start < -_TIME_EPS or interval.end > horizon + _TIME_EPS:
            raise ValueError(f"event {interval} outside [0, {horizon})")
        first = int(np.floor(interval.start / h + _TIME_EPS))
        last = int(np.ceil(interval.end / h - _TIME_EPS))
        mask[max(0, first) : min(n, last)] = True
    return mask


def _naive_frames_of(magnitude, h: float) -> int:
    if magnitude is not None:
        magnitude = float(magnitude)
    if magnitude is None or not math.isfinite(magnitude / h):
        raise ValueError(f"magnitude {magnitude!r} is not a positive frame multiple of {h!r}")
    frames = int(round(magnitude / h))
    if abs(frames * h - magnitude) > 1e-6 or frames <= 0:
        raise ValueError(f"magnitude {magnitude!r} is not a positive frame multiple of {h!r}")
    return frames


def _naive_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    intervals = naive_extract_intervals(mask, 1.0, 0.0)
    return [(int(round(i.start)), int(round(i.end))) for i in intervals]


def _naive_paint(runs, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    for lo, hi in runs:
        lo = max(0, lo)
        hi = min(n, hi)
        if lo < hi:
            mask[lo:hi] = True
    return mask


def _naive_split_run(lo: int, hi: int, count: int) -> list[tuple[int, int]]:
    length = hi - lo
    pieces = min(count, (length + 1) // 2)
    if pieces <= 1:
        return [(lo, hi)]
    active = length - (pieces - 1)
    base = active // pieces
    remainder = active % pieces
    out = []
    cursor = lo
    for k in range(pieces):
        size = base + (1 if k < remainder else 0)
        out.append((cursor, cursor + size))
        cursor += size + 1
    return out


def _naive_with_extra_runs(ref: np.ndarray, runs, count: int, n: int) -> np.ndarray:
    extra_len = 30
    guard = 4
    gaps = []
    previous = 0
    for lo, hi in runs + [(n, n)]:
        if lo - previous > 0:
            gaps.append((previous, lo))
        previous = hi
    gaps.sort(key=lambda g: (g[0] - g[1], g[0]))
    inserted = []
    for lo, hi in gaps[:count]:
        width = hi - lo
        usable = width - 2 * guard
        size = min(extra_len, max(1, usable))
        center = (lo + hi) // 2
        start = max(lo + guard, center - size // 2)
        end = min(hi - guard, start + size)
        if start < end:
            inserted.append((start, end))
    out = ref.copy()
    for lo, hi in inserted:
        out[lo:hi] = True
    return out


def naive_apply_pathology(ref_mask, pathology: TracePathology, h: float) -> np.ndarray:
    """Prediction mask for ``(ref_mask, pathology)``, one arm per kind."""
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"frame step must be finite and positive, got {h!r}")
    ref = _as_mask(ref_mask, "ref_mask")
    n = ref.shape[0]
    kind = pathology.kind
    if kind == "nominal":
        return ref.copy()
    if kind == "missing":
        return np.zeros(n, dtype=bool)
    runs = _naive_runs(ref)
    if kind == "late_onset":
        m = _naive_frames_of(pathology.magnitude, h)
        return _naive_paint([(min(lo + m, hi - 1), hi) for lo, hi in runs], n)
    if kind == "early_onset":
        m = _naive_frames_of(pathology.magnitude, h)
        return _naive_paint([(max(0, lo - m), hi) for lo, hi in runs], n)
    if kind == "late_release":
        m = _naive_frames_of(pathology.magnitude, h)
        return _naive_paint([(lo, min(n, hi + m)) for lo, hi in runs], n)
    if kind == "early_release":
        m = _naive_frames_of(pathology.magnitude, h)
        return _naive_paint([(lo, max(lo + 1, hi - m)) for lo, hi in runs], n)
    if kind == "silence_bleed":
        m = _naive_frames_of(pathology.magnitude, h)
        return _naive_paint([(max(0, lo - m), min(n, hi + m)) for lo, hi in runs], n)
    if kind == "length_distortion":
        m = _naive_frames_of(pathology.magnitude, h)
        distorted = []
        for index, (lo, hi) in enumerate(runs):
            if index % 2 == 0:
                distorted.append((lo, min(n, hi + m)))
            else:
                distorted.append((lo, max(lo + 1, hi - m)))
        return _naive_paint(distorted, n)
    if kind == "fragmentation":
        count = 2 if pathology.magnitude is None else pathology.magnitude
        if not math.isfinite(count) or int(count) < 2:
            raise ValueError("fragmentation needs a piece count of at least 2")
        count = int(count)
        pieces = []
        for lo, hi in runs:
            pieces.extend(_naive_split_run(lo, hi, count))
        return _naive_paint(pieces, n)
    if kind == "extra":
        count = 1 if pathology.magnitude is None else pathology.magnitude
        if not math.isfinite(count) or int(count) < 1:
            raise ValueError("extra needs a run count of at least 1")
        return _naive_with_extra_runs(ref, runs, int(count), n)
    if kind in ("bridge_left", "bridge_right", "split"):
        raise ValueError(
            f"{kind} is a matcher stress shape; build it with stress_track()"
        )
    raise ValueError(f"unknown pathology kind {kind!r}")


# ---------------------------------------------------------------------------
# Candidates as one record per pair, and conversions to and from the
# library's ``CandidateTable``.


@dataclass(frozen=True)
class CandidatePair:
    ref_index: int
    pred_index: int
    ref: Interval
    pred: Interval
    cost: float


def overlap_length(a: Interval, b: Interval) -> float:
    """Overlap of half open intervals; touching intervals overlap zero."""
    return max(0.0, min(a.end, b.end) - max(a.start, b.start))


def pair_table(pairs) -> CandidateTable:
    """A ``CandidatePair`` sequence as a candidate table, row for row."""
    rows = [(c.ref_index, c.pred_index, c.cost, c.ref.start, c.ref.end, c.pred.start,
             c.pred.end) for c in pairs]
    cols = np.array(rows, float).reshape(-1, 7).T
    ri, pi = cols[:2].astype(np.int64)
    return CandidateTable(ri, pi, cols[2], Family(cols[3], cols[4]), Family(cols[5], cols[6]))


def table_pairs(table: CandidateTable) -> tuple[CandidatePair, ...]:
    """A candidate table's rows as ``CandidatePair`` records, in order."""
    return tuple(map(
        CandidatePair, table.ref_index.tolist(), table.pred_index.tolist(),
        table.ref.intervals, table.pred.intervals, table.cost.tolist(),
    ))


def naive_candidates(refs, preds, epsilon: float) -> tuple[CandidatePair, ...]:
    """The candidate relation by a reference x prediction double loop."""
    preds = tuple(preds)
    limit = 3.0 * epsilon + _TIME_EPS
    out: list[CandidatePair] = []
    for ri, ref in enumerate(refs):
        for pi, pred in enumerate(preds):
            if overlap_length(ref, pred) <= 0.0:
                continue
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


def naive_covering_counts(refs, preds) -> tuple[int, ...]:
    preds = tuple(preds)
    return tuple(
        sum(1 for p in preds if overlap_length(r, p) > 0.0) for r in refs
    )


def naive_latency_score(refs, preds, lead: float, lag: float) -> ObligationScore:
    """First onset at or after the window start, by a linear scan per reference."""
    refs = tuple(refs)
    onsets = sorted(p.start for p in preds)
    satisfied = 0
    for ref in refs:
        first = None
        for t in onsets:
            if t >= ref.start - lead - _TIME_EPS:
                first = t
                break
        if first is not None and first <= ref.start + lag + _TIME_EPS:
            satisfied += 1
    obligated = len(refs)
    ratio = satisfied / obligated if obligated else 1.0
    return ObligationScore(ratio, obligated, satisfied, obligated - satisfied)


def naive_purity_score(class_name: str, preds, class_ref_intervals) -> ObligationScore:
    """Dominant-overlap class by summing the overlap with every reference."""
    preds = tuple(preds)
    satisfied = 0
    for pred in preds:
        totals = {
            cls: sum(overlap_length(pred, r) for r in refs)
            for cls, refs in class_ref_intervals.items()
        }
        best = max(totals.values(), default=0.0)
        if best <= 0.0:
            continue
        leaders = [cls for cls, total in totals.items() if total >= best - _TIME_EPS]
        if leaders == [class_name]:
            satisfied += 1
    obligated = len(preds)
    ratio = satisfied / obligated if obligated else 1.0
    return ObligationScore(ratio, obligated, satisfied, obligated - satisfied)


# ---------------------------------------------------------------------------
# Object interval layer: the per-run ``Interval`` and per-candidate
# ``CandidatePair`` implementations the array path replaced, kept as exact
# oracles for it (same floats, same orders, same frozensets).


def object_overlapping(queries, items) -> list[list[int]]:
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
        hits.sort()
        out.append(hits)
    return out


def object_candidates(refs, preds, epsilon: float) -> tuple[CandidatePair, ...]:
    if not (epsilon > 0.0):
        raise ValueError(f"tolerance must be positive, got {epsilon!r}")
    refs = tuple(refs)
    preds = tuple(preds)
    limit = 3.0 * epsilon + _TIME_EPS
    out: list[CandidatePair] = []
    for ri, (ref, hits) in enumerate(zip(refs, object_overlapping(refs, preds))):
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


def _greedy_key(pair: CandidatePair):
    return (pair.cost, pair.ref.start, pair.pred.start, pair.ref.end, pair.pred.end)


def _matching(pairs: list[tuple[int, int]], policy: str) -> Matching:
    """The matching of ``pairs``, listed in the order they were kept."""
    ref_index, pred_index = np.array(pairs, np.intp).reshape(-1, 2).T
    return Matching(ref_index, pred_index, policy)


def object_match_greedy(cands) -> Matching:
    taken_refs: set[int] = set()
    taken_preds: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for pair in sorted(cands, key=_greedy_key):
        if pair.ref_index in taken_refs or pair.pred_index in taken_preds:
            continue
        taken_refs.add(pair.ref_index)
        taken_preds.add(pair.pred_index)
        pairs.append((pair.ref_index, pair.pred_index))
    return _matching(pairs, "greedy")


def scan_greedy(table: CandidateTable, *first: np.ndarray) -> tuple[list[int], list[int]]:
    """The greedy scan over every candidate of ``table``, uncontested or
    not: reference and prediction indices kept, in scan order, with the
    keys of ``intervals._greedy_scan``."""
    order = np.lexsort(
        (table.pred.end, table.ref.end, table.pred.start, table.ref.start, table.cost, *first)
    )
    refs, preds = table.ref_index[order].tolist(), table.pred_index[order].tolist()
    taken_refs = bytearray(max(refs, default=-1) + 1)
    taken_preds = bytearray(max(preds, default=-1) + 1)
    kept_refs, kept_preds = [], []
    for ri, pi in zip(refs, preds):
        if taken_refs[ri] or taken_preds[pi]:
            continue
        taken_refs[ri] = taken_preds[pi] = 1
        kept_refs.append(ri)
        kept_preds.append(pi)
    return kept_refs, kept_preds


def object_match_exact(cands, bound: int = 24) -> Matching:
    cands = tuple(cands)
    if not cands:
        return _matching([], "exact")
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
        if key not in cells or c.cost < cells[key]:
            cells[key] = c.cost
    for (i, j), cost in cells.items():
        matrix[i, j] = cost - big
    rows, cols = linear_sum_assignment(matrix)
    return _matching([(ref_ids[i], pred_ids[j]) for i, j in zip(rows, cols) if (i, j) in cells],
                     "exact")


def sorted_pairs(matching: Matching) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(matching.pairs))


def matched_refs(matching: Matching) -> frozenset[int]:
    return frozenset(ri for ri, _ in matching.pairs)


def matched_preds(matching: Matching) -> frozenset[int]:
    return frozenset(pi for _, pi in matching.pairs)


def object_covering_counts(refs, preds) -> tuple[int, ...]:
    return tuple(len(hits) for hits in object_overlapping(tuple(refs), tuple(preds)))


def object_duration_score(refs, preds, matching: Matching, threshold: float) -> ObligationScore:
    refs = tuple(refs)
    preds = tuple(preds)
    obligated = len(matching)
    satisfied = 0
    for ri, pi in matching.pairs:
        if abs(refs[ri].length - preds[pi].length) <= threshold + _TIME_EPS:
            satisfied += 1
    ratio = satisfied / obligated if obligated else 1.0
    return ObligationScore(ratio, obligated, satisfied, obligated - satisfied)


def object_fragmentation_score(refs, preds, matching: Matching, counts=None) -> ObligationScore:
    refs = tuple(refs)
    if counts is None:
        counts = object_covering_counts(refs, preds)
    matched = matched_refs(matching)
    obligated = len(refs)
    satisfied = sum(1 for ri in range(obligated) if ri in matched and counts[ri] <= 1)
    ratio = satisfied / obligated if obligated else 1.0
    return ObligationScore(ratio, obligated, satisfied, obligated - satisfied)


def object_boundary_f1(refs, preds, matching: Matching) -> float:
    refs, preds = tuple(refs), tuple(preds)
    if not refs and not preds:
        return 1.0
    if not refs or not preds or not matching.pairs:
        return 0.0
    precision = len(matching.pairs) / len(preds)
    recall = len(matching.pairs) / len(refs)
    return 2.0 * precision * recall / (precision + recall)


def object_matcher_audit(refs, preds, epsilon: float, bound: int = 24) -> MatcherAudit:
    """Both matchings of one instance from the object candidates, each
    scored by the object duration (default threshold) and fragmentation
    scores; the exact matcher's bound error is the audit's error."""
    refs, preds = tuple(refs), tuple(preds)
    cands = object_candidates(refs, preds, epsilon)
    greedy, exact = object_match_greedy(cands), object_match_exact(cands, bound)
    threshold = 2.0 * epsilon
    return MatcherAudit(
        greedy=greedy,
        exact=exact,
        changed=greedy.pairs != exact.pairs,
        greedy_boundary_f1=object_boundary_f1(refs, preds, greedy),
        exact_boundary_f1=object_boundary_f1(refs, preds, exact),
        greedy_duration=object_duration_score(refs, preds, greedy, threshold),
        exact_duration=object_duration_score(refs, preds, exact, threshold),
        greedy_fragmentation=object_fragmentation_score(refs, preds, greedy),
        exact_fragmentation=object_fragmentation_score(refs, preds, exact),
    )


def object_latency_score(refs, preds, lead: float, lag: float) -> ObligationScore:
    refs = tuple(refs)
    onsets = sorted(p.start for p in preds)
    obligated = len(refs)
    satisfied = 0
    for ref in refs:
        k = bisect_left(onsets, ref.start - lead - _TIME_EPS)
        if k < len(onsets) and onsets[k] <= ref.start + lag + _TIME_EPS:
            satisfied += 1
    ratio = satisfied / obligated if obligated else 1.0
    return ObligationScore(ratio, obligated, satisfied, obligated - satisfied)


def object_purity_score(class_name: str, preds, class_ref_intervals) -> ObligationScore:
    """Class totals summed in reference order over the range-scan hits."""
    preds = tuple(preds)
    classes = [(cls, tuple(refs)) for cls, refs in class_ref_intervals.items()]
    hits = [object_overlapping(preds, refs) for _, refs in classes]
    obligated = len(preds)
    satisfied = 0
    for k, pred in enumerate(preds):
        totals = {
            cls: sum(overlap_length(pred, refs[j]) for j in class_hits[k])
            for (cls, refs), class_hits in zip(classes, hits)
        }
        best = max(totals.values(), default=0.0)
        if best <= 0.0:
            continue
        leaders = [cls for cls, total in totals.items() if total >= best - _TIME_EPS]
        if leaders == [class_name]:
            satisfied += 1
    ratio = satisfied / obligated if obligated else 1.0
    return ObligationScore(ratio, obligated, satisfied, obligated - satisfied)


def object_duration_diffs(refs, preds, matching: Matching) -> tuple[float, ...]:
    return tuple(
        abs(refs[ri].length - preds[pi].length) for ri, pi in sorted_pairs(matching)
    )


def object_fragmentation_extras(matching: Matching, counts) -> tuple[int, ...]:
    matched = matched_refs(matching)
    extras = []
    for ri in range(len(counts)):
        if ri in matched and counts[ri] <= 1:
            extras.append(0)
        elif counts[ri] > 1:
            extras.append(counts[ri] - 1)
        else:
            extras.append(1)
    return tuple(extras)


def object_event_score(clause: EventClause, refs, preds, matching, tolerance, class_context, counts):
    if clause.predicate == "duration_within":
        threshold = clause.param("threshold", 2.0 * tolerance)
        return object_duration_score(refs, preds, matching, threshold)
    if clause.predicate == "singly_covered":
        return object_fragmentation_score(refs, preds, matching, counts)
    if clause.predicate == "latency_window":
        lead = clause.param("lead", tolerance)
        lag = clause.param("lag", 2.0 * tolerance)
        return object_latency_score(refs, preds, lead, lag)
    if class_context is None:
        raise ContractError("overlap_purity requires class-indexed monitoring (monitor_classes)")
    class_name, class_ref_intervals = class_context
    return object_purity_score(class_name, preds, class_ref_intervals)


def _object_frame_witness(clause: FrameClause, values, h: float):
    formula = clause.formula
    if not (
        isinstance(formula, Implies)
        and isinstance(formula.left, Atom)
        and isinstance(formula.right, Near)
        and isinstance(formula.right.child, Atom)
    ):
        return None
    distances = prefix_nearest_distances(
        values[clause.obligation], values[formula.right.child], h
    )
    if distances is None or distances.size == 0:
        return None
    return float(np.mean(distances) * 1000.0)


def _object_edge_witness(env: TraceEnvironment, source: str, target: str):
    n_src = int(np.count_nonzero(env.atoms[source]))
    if n_src == 0:
        return None, 0
    distances = prefix_nearest_distances(env.atoms[source], env.atoms[target], env.frame_step)
    if distances is None:
        return None, n_src
    return float(np.mean(distances) * 1000.0), 0


def object_monitor(contract, plan, env: TraceEnvironment, class_context=None) -> MonitorResult:
    """The monitor over objects: runs, candidates and matching from the
    ``object_*`` functions, frame verdicts from ``plan``, witnesses from
    the all-frames lookup; ``class_context`` maps class names to runs."""
    h = env.frame_step
    if class_context is None:
        refs = naive_extract_intervals(env.atoms["ref_active"], h, contract.merge_gap)
    else:
        refs = tuple(class_context[1][class_context[0]])
    preds = naive_extract_intervals(env.atoms["pred_active"], h, contract.merge_gap)
    cands = object_candidates(refs, preds, contract.tolerance)
    if contract.matcher == "greedy":
        matching = object_match_greedy(cands)
    else:
        matching = object_match_exact(cands)
    counts = object_covering_counts(refs, preds)
    values = plan.evaluate(env.atoms)
    diffs = object_duration_diffs(refs, preds, matching)
    extras = object_fragmentation_extras(matching, counts)
    coordinates = []
    for clause in contract.clauses:
        if isinstance(clause, FrameClause):
            value = obligation_score(values[clause.formula], values[clause.obligation])
            witness = _object_frame_witness(clause, values, h)
        else:
            value = object_event_score(
                clause, refs, preds, matching, contract.tolerance, class_context, counts
            )
            witness = None
            if clause.predicate == "duration_within" and diffs:
                witness = float(np.mean(diffs) * 1000.0)
            if clause.predicate == "singly_covered" and extras:
                witness = float(np.mean(extras))
        coordinates.append(
            GuardCoordinate(
                clause.name,
                "frame" if isinstance(clause, FrameClause) else "event",
                value.score,
                value.obligated,
                value.satisfied,
                value.violated,
                witness,
            )
        )
    onset_mae, onset_excluded = _object_edge_witness(env, "ref_onset", "pred_onset")
    offset_mae, offset_excluded = _object_edge_witness(env, "ref_offset", "pred_offset")
    witnesses = WitnessReport(
        onset_mae, offset_mae, onset_excluded, offset_excluded, diffs, extras
    )
    return MonitorResult(
        GuardVector(tuple(coordinates)), witnesses, Family.of(refs), Family.of(preds), matching
    )


# ---------------------------------------------------------------------------
# Per-group loops.  The monitor's predecessor made one whole pass per class,
# per sweep tolerance and per calibration case; these loops do the same over
# the object layer, for comparing with the batched pass.


def _frame_plan(contract, h: float):
    return share_subformulas(
        [f for clause in contract.frame_clauses for f in (clause.formula, clause.obligation)], h
    )


def loop_monitor_classes(contract, class_masks, h: float) -> ClassMonitorResult:
    """``monitor_classes`` as one :func:`object_monitor` pass per class."""
    if not class_masks:
        raise ValueError("no classes supplied")
    masks = {}
    for cls, (ref, pred) in class_masks.items():
        ref, pred = _as_mask(ref, "ref_mask"), _as_mask(pred, "pred_mask")
        if len(ref) != len(pred):
            raise ValueError(f"mask lengths differ: {len(ref)} vs {len(pred)}")
        masks[cls] = ref, pred
    lengths = sorted({len(ref) for ref, _ in masks.values()})
    if len(lengths) != 1:
        raise ValueError(f"mask lengths differ across trace pairs: {lengths}")
    plan = _frame_plan(contract, h)
    class_refs = {
        cls: naive_extract_intervals(ref, h, contract.merge_gap) for cls, (ref, _) in masks.items()
    }
    per_class = {
        cls: object_monitor(contract, plan, derive_edge_atoms(ref, pred, h), (cls, class_refs))
        for cls, (ref, pred) in masks.items()
    }
    return ClassMonitorResult(per_class, loop_macro(contract, list(per_class.values())))


def loop_macro(contract, results) -> GuardVector:
    """``_macro`` with one ``np.mean`` per list of class scores and witnesses."""
    macro = []
    for position, clause in enumerate(contract.clauses):
        coords = [r.guards.coordinates[position] for r in results]
        witnesses = [c.witness_mean for c in coords if c.witness_mean is not None]
        macro.append(
            GuardCoordinate(
                clause.name,
                coords[0].kind,
                float(np.mean([c.score for c in coords])),
                sum(c.obligated for c in coords),
                sum(c.satisfied for c in coords),
                sum(c.violated for c in coords),
                float(np.mean(witnesses)) if witnesses else None,
            )
        )
    return GuardVector(tuple(macro))


def loop_tolerance_sweep(contract, ref_mask, pred_mask, h: float, tolerances) -> SweepResult:
    """``tolerance_sweep`` as one :func:`object_monitor` pass per tolerance."""
    tolerances = list(tolerances)
    if not tolerances:
        raise ValueError("no tolerances supplied")
    if not all(0.0 < t < math.inf for t in tolerances):
        raise ValueError("tolerances must be positive and finite")
    if any(b <= a for a, b in zip(tolerances, tolerances[1:])):
        raise ValueError("tolerances must be strictly ascending")
    env = derive_edge_atoms(ref_mask, pred_mask, h)
    rows = []
    for tolerance in tolerances:
        grid_contract = retolerance(contract, tolerance)
        result = object_monitor(grid_contract, _frame_plan(grid_contract, h), env)
        rows.append(SweepRow(tolerance, grid_contract, result, mean_logic(result.guards)))
    means = [row.mean_logic for row in rows]
    if len(rows) == 1:
        integral = means[0]
    else:
        area = sum(
            (m0 + m1) / 2.0 * (t1 - t0)
            for (t0, m0), (t1, m1) in zip(zip(tolerances, means), zip(tolerances[1:], means[1:]))
        )
        integral = float(area / (tolerances[-1] - tolerances[0]))
    return SweepResult(tuple(rows), integral, float(max(means) - min(means)))


def loop_case_values(contract, case) -> dict[int, float]:
    """``basis._case_values`` of one case, by clause position: its frame
    plan, and its runs, candidates and matching over objects, each made for
    this case alone."""
    h = case.frame_step
    frame = [(k, c) for k, c in enumerate(contract.clauses) if isinstance(c, FrameClause)]
    event = [(k, c) for k, c in enumerate(contract.clauses) if isinstance(c, EventClause)]
    out: dict[int, float] = {}
    env = derive_edge_atoms(case.ref_mask, case.pred_mask, h)
    if frame:
        plan = share_subformulas([f for _, c in frame for f in (c.formula, c.obligation)], h)
        values = plan.evaluate(env.atoms)
        for k, c in frame:
            out[k] = obligation_score(values[c.formula], values[c.obligation]).score
    if event:
        refs = naive_extract_intervals(env.atoms["ref_active"], h, contract.merge_gap)
        preds = naive_extract_intervals(env.atoms["pred_active"], h, contract.merge_gap)
        cands = object_candidates(refs, preds, contract.tolerance)
        greedy = contract.matcher == "greedy"
        matching = object_match_greedy(cands) if greedy else object_match_exact(cands)
        counts = object_covering_counts(refs, preds)
        for k, c in event:
            out[k] = object_event_score(
                c, refs, preds, matching, contract.tolerance, None, counts
            ).score
    return out


def loop_clause_signatures(contract, cases) -> tuple[tuple[float, ...], ...]:
    """``clause_signatures`` with one :func:`loop_case_values` per case."""
    per_case = [loop_case_values(contract, case) for case in cases]
    return tuple(tuple(values[k] for values in per_case) for k in range(len(contract.clauses)))


# ---------------------------------------------------------------------------
# Risk profiles: a weighted mean of a guard vector, which no command reports.


@dataclass(frozen=True)
class ProfileScore:
    score: float
    lead_coordinate: str


# Example risk profiles over the default guard names; weights are relative.
PROFILES: dict[str, dict[str, float]] = {
    "balanced": {
        "onset_guard": 1.0,
        "offset_guard": 1.0,
        "missing_guard": 1.0,
        "spurious_guard": 1.0,
        "silence_guard": 1.0,
        "duration_guard": 1.0,
        "fragmentation_guard": 1.0,
    },
    "support_recall": {"missing_guard": 3.0, "onset_guard": 1.0, "offset_guard": 1.0},
    "edge_timing": {"onset_guard": 3.0, "offset_guard": 2.0},
    "silence_protection": {"silence_guard": 3.0, "spurious_guard": 2.0},
    "event_integrity": {"fragmentation_guard": 3.0, "duration_guard": 2.0},
}


def profile_score(vector, weights: Mapping[str, float]) -> ProfileScore:
    """Normalized weighted mean of the guard vector under a risk profile.

    The lead coordinate (largest weight, first in vector order on ties)
    is reported alongside the scalar.
    """
    names = set(vector.names)
    unknown = set(weights) - names
    if unknown:
        raise ValueError(f"weights name unknown coordinates: {sorted(unknown)}")
    if any(w < 0.0 for w in weights.values()):
        raise ValueError("weights must be nonnegative")
    total = sum(weights.values())
    if total <= 0.0:
        raise ValueError("weights must not all be zero")
    value = sum(weights.get(c.name, 0.0) * c.score for c in vector) / total
    max_weight = max(weights.values())
    lead = next(name for name in vector.names if weights.get(name, 0.0) == max_weight)
    return ProfileScore(float(value), lead)


# ---------------------------------------------------------------------------
# Per-pair witnesses and per-group soft boundaries.  The monitor's
# predecessor found each (obligation, witness) pair's distances in a pass of
# its own, from the overlaps of the obligated runs with the gaps around the
# witness runs, averaged each group's slice with ``np.mean``, and scored
# each group's soft boundary from that group's edges alone.


def gap_run_distances(obligated: Family, witnesses: Family, h: float):
    """Seconds from each obligated frame to the nearest witness frame, as the
    witness pass lays out ``contracts._gap_distances`` (``None`` without
    witness frames), by an :func:`overlap_pairs` scan of the obligated runs
    against the gaps between witness runs."""
    sizes = obligated.end - obligated.start
    total = int(sizes.sum())
    if total == 0:
        return np.zeros(0)
    if len(witnesses) == 0:
        return None
    first, end = witnesses.start, witnesses.end
    edge, stop = min(obligated.start[0], first[0]), max(obligated.end[-1], end[-1])
    gaps = Family(np.append(edge, end), np.append(first, stop))
    runs, gap, width = overlap_pairs(obligated, gaps)
    lo = np.maximum(obligated.start[runs], gaps.start[gap])
    shift = (np.cumsum(sizes) - sizes - obligated.start)[runs]
    left, right = np.append(first[0], end - 1)[gap], np.append(first, end[-1] - 1)[gap]
    rows = np.stack((lo - (np.cumsum(width) - width), left, right, shift))
    base, left, right, shift = np.repeat(rows, width, axis=1)
    far = np.arange(base.size) + base
    distances = np.zeros(total)
    distances[far + shift] = np.minimum(np.abs(far - left), np.abs(far - right)) * h
    return distances


def pair_witness(runs, obligation: Formula, witness: Formula, values) -> list:
    """``_TraceRuns.witnesses`` of one pair, by one distance pass of its own:
    per group, the ``np.mean`` in ms of its slice (``None`` when either set
    is empty) and its obligated frame count if it has no witness frames."""
    obligated, witnessed = (runs.atom_runs[f.name] if isinstance(f, Atom)
                            else _frame_runs(values[f]) for f in (obligation, witness))
    distances = gap_run_distances(obligated, witnessed, runs.h)
    frames = np.concatenate(((0,), np.cumsum(obligated.end - obligated.start)))
    ends = frames[obligated.start.searchsorted(runs.starts)].tolist()
    seen = witnessed.start.searchsorted(runs.starts)
    found = (seen[1:] > seen[:-1]).tolist()
    return [
        (None, 0) if lo == hi else (None, hi - lo) if not has
        else (float(np.mean(distances[lo:hi]) * 1000.0), 0)
        for lo, hi, has in zip(ends, ends[1:], found)
    ]


def group_soft_score(ref_edges: np.ndarray, pred_edges: np.ndarray, scale: float) -> float:
    """``soft_boundary`` from the sorted edge times of one trace pair."""
    if ref_edges.size == 0 and pred_edges.size == 0:
        return 1.0
    if ref_edges.size == 0 or pred_edges.size == 0:
        return 0.0

    def directed(src: np.ndarray, dst: np.ndarray) -> float:
        pos = np.searchsorted(dst, src)
        left, right = dst[np.maximum(pos - 1, 0)], dst[np.minimum(pos, dst.size - 1)]
        distances = np.minimum(np.abs(src - left), np.abs(src - right))
        return float(np.mean(np.exp(-distances / scale)))

    return (directed(ref_edges, pred_edges) + directed(pred_edges, ref_edges)) / 2.0


def group_soft_boundary(runs, group: int, scale: float) -> float:
    """``_TraceRuns.soft_boundary`` of one group, from its own edge slice."""
    times = []
    for side in ("ref", "pred"):
        edges = runs.edges[side]
        lo, hi = edges.searchsorted(runs.starts[group:group + 2])
        times.append((edges[lo:hi] - group * runs.stride) * runs.h)
    return group_soft_score(*times, scale)


class _Ring:
    """Append-only boolean sequence with absolute indexing and front pruning."""

    def __init__(self) -> None:
        self.base = 0
        self.items: list[bool] = []

    def __getitem__(self, index: int) -> bool:
        return self.items[index - self.base]

    def drop_before(self, index: int) -> None:
        if index > self.base:
            del self.items[: index - self.base]
            self.base = index


class _PumpNode:
    """One operator instance; ``pump`` advances as far as the children allow."""

    def __init__(self, children: tuple["_PumpNode", ...]) -> None:
        self.children = children
        self.out = _Ring()
        self.produced = 0

    def pump(self, final_length: int | None) -> None:
        pass

    def emit(self, value: bool) -> None:
        self.out.items.append(bool(value))
        self.produced += 1


class _PumpAtom(_PumpNode):
    def __init__(self, name: str) -> None:
        super().__init__(())
        self.name = name


class _PumpPointwise(_PumpNode):
    def __init__(self, op, children: tuple[_PumpNode, ...]) -> None:
        super().__init__(children)
        self.op = op

    def pump(self, final_length: int | None) -> None:
        limit = min(c.produced for c in self.children)
        while self.produced < limit:
            i = self.produced
            self.emit(self.op(*(c.out[i] for c in self.children)))
        for child in self.children:
            child.out.drop_before(self.produced)


class _PumpWindow(_PumpNode):
    """Rolling count over the child's window [i - back, min(i + ahead, n-1)]."""

    def __init__(self, child: _PumpNode, back: int, ahead: int, require_all: bool) -> None:
        super().__init__((child,))
        self.back = back
        self.ahead = ahead
        self.require_all = require_all
        self.sum = 0
        self.lo = 0
        self.hi = -1  # inclusive child range currently covered

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
            while self.hi < hi:
                self.hi += 1
                self.sum += child.out[self.hi]
            while self.lo < lo:
                self.sum -= child.out[self.lo]
                self.lo += 1
            if self.require_all:
                self.emit(self.sum == hi - lo + 1)
            else:
                self.emit(self.sum > 0)
            child.out.drop_before(self.lo)


class _PumpUntil(_PumpNode):
    """Witness scan bounded by the radius and the first left-side failure."""

    def __init__(self, phi: _PumpNode, psi: _PumpNode, radius: int) -> None:
        super().__init__((phi, psi))
        self.radius = radius
        self.false_queue: deque[int] = deque()
        self.phi_scanned = 0
        self.sum = 0
        self.lo = 0
        self.hi = -1

    def pump(self, final_length: int | None) -> None:
        phi, psi = self.children
        while self.phi_scanned < phi.produced:
            if not phi.out[self.phi_scanned]:
                self.false_queue.append(self.phi_scanned)
            self.phi_scanned += 1
        phi.out.drop_before(self.phi_scanned)
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
            while self.false_queue and self.false_queue[0] < i:
                self.false_queue.popleft()
            upper = last
            if self.false_queue and self.false_queue[0] < upper:
                upper = self.false_queue[0]
            while self.hi < upper:
                self.hi += 1
                self.sum += psi.out[self.hi]
            while self.lo < i:
                self.sum -= psi.out[self.lo]
                self.lo += 1
            self.emit(self.sum > 0)
            psi.out.drop_before(self.lo)


def _pump_compile(formula: Formula, h: float, atoms: list, order: list) -> _PumpNode:
    """One pump node per syntax-tree occurrence (equal subtrees are not shared)."""
    match formula:
        case Atom(name=name):
            node: _PumpNode = _PumpAtom(name)
            atoms.append(node)
        case Not(child=c):
            node = _PumpPointwise(lambda a: not a, (_pump_compile(c, h, atoms, order),))
        case And(left=l, right=r):
            kids = (_pump_compile(l, h, atoms, order), _pump_compile(r, h, atoms, order))
            node = _PumpPointwise(lambda a, b: a and b, kids)
        case Or(left=l, right=r):
            kids = (_pump_compile(l, h, atoms, order), _pump_compile(r, h, atoms, order))
            node = _PumpPointwise(lambda a, b: a or b, kids)
        case Implies(left=l, right=r):
            kids = (_pump_compile(l, h, atoms, order), _pump_compile(r, h, atoms, order))
            node = _PumpPointwise(lambda a, b: (not a) or b, kids)
        case Near(child=c, radius=radius):
            r = radius_frames(radius, h)
            node = _PumpWindow(_pump_compile(c, h, atoms, order), r, r, False)
        case Future(child=c, radius=radius):
            node = _PumpWindow(_pump_compile(c, h, atoms, order), 0, radius_frames(radius, h), False)
        case Always(child=c, radius=radius):
            node = _PumpWindow(_pump_compile(c, h, atoms, order), 0, radius_frames(radius, h), True)
        case Until(left=l, right=r, radius=radius):
            node = _PumpUntil(
                _pump_compile(l, h, atoms, order),
                _pump_compile(r, h, atoms, order),
                radius_frames(radius, h),
            )
        case _:
            raise TypeError(f"not a formula node: {formula!r}")
    order.append(node)
    return node


class NaiveStreamingMonitor:
    """The pump engine: after each frame every node, children first, emits
    as many verdicts as its children's outputs allow and prunes what no
    later verdict reads; ``finalize`` pumps again with right clipping."""

    def __init__(self, formula: Formula, frame_step: float) -> None:
        self.lookahead_frames = naive_lookahead_frames(formula, frame_step)
        self.backward_frames = naive_backward_frames(formula, frame_step)
        self._atoms: list[_PumpAtom] = []
        self._order: list[_PumpNode] = []
        self._root = _pump_compile(formula, frame_step, self._atoms, self._order)
        self.frames_received = 0
        self.next_emission_index = 0
        self._finalized = False

    @property
    def buffered_rows(self) -> int:
        """Largest retained input row count across atoms."""
        return max((len(node.out.items) for node in self._atoms), default=0)

    def step(self, frame: Mapping[str, object]) -> list[tuple[int, bool]]:
        if self._finalized:
            raise RuntimeError("monitor is finalized")
        for node in self._atoms:
            try:
                value = frame[node.name]
            except KeyError:
                raise UnknownAtomError(node.name) from None
            node.emit(bool(value))
        self.frames_received += 1
        return self._drain(None)

    def finalize(self) -> list[tuple[int, bool]]:
        if self._finalized:
            return []
        self._finalized = True
        return self._drain(self.frames_received)

    def _drain(self, final_length: int | None) -> list[tuple[int, bool]]:
        for node in self._order:
            node.pump(final_length)
        start, stop = self.next_emission_index, self._root.produced
        emitted = [(i, self._root.out[i]) for i in range(start, stop)]
        self.next_emission_index = stop
        self._root.out.drop_before(stop)
        return emitted


# ---------------------------------------------------------------------------
# The contract language, drawn from its two tables

# The breaks of str.splitlines that are not line ends in a contract file.
NOT_LINE_ENDS = ("\x0c", "\x0b", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

# Every setting, and every event predicate with parameters.
ALL_PREDICATES = """set tolerance 0.03
set silence_radius 0.01
set merge_gap 0.02
set matcher greedy
frame on : ref_onset -> N[0.03] pred_onset @ ref_onset
event dur : duration_within @ matched_pairs threshold=0.05
event frag : singly_covered @ reference_intervals
event lat : latency_window @ reference_intervals lag=0.06 lead=0.02
event pur : overlap_purity @ predicted_intervals
"""

_SECONDS = dict(min_value=0.0, max_value=1e4, exclude_min=True, allow_nan=False)


@st.composite
def table_contracts(draw) -> Contract:
    """Contracts over the whole accepted language: every setting, each event
    predicate with its obligation and any subset of its parameters, and frame
    clauses from :func:`random_formula`."""
    tolerance = draw(st.floats(**_SECONDS))
    silence_radius = draw(st.floats(min_value=0.0, max_value=tolerance, exclude_min=True))
    merge_gap = draw(st.one_of(st.just(0.0), st.floats(**_SECONDS)))
    matcher = draw(st.sampled_from(MATCHER_POLICIES))
    clauses = []
    for index in range(draw(st.integers(0, 6))):
        name = f"c{index}"
        if draw(st.booleans()):
            rng = random.Random(draw(st.integers(0, 2**32)))
            formula, obligation = (random_formula(rng, 3) for _ in range(2))
            clauses.append(FrameClause(name, formula, obligation))
            continue
        predicate = draw(st.sampled_from(sorted(EVENT_PREDICATES)))
        obligation, defaults = EVENT_PREDICATES[predicate]
        keys = draw(st.permutations(sorted(defaults)))[: draw(st.integers(0, len(defaults)))]
        params = tuple((key, draw(st.floats(**_SECONDS))) for key in keys)
        clauses.append(EventClause(name, obligation, predicate, params))
    return Contract(tolerance, silence_radius, merge_gap, matcher, tuple(clauses))


# The activity and edge atoms every trace binds.
TRACE_ATOMS = ("ref_active", "pred_active", "ref_onset", "pred_onset", "ref_offset", "pred_offset")

# Radii of at most 1 s keep clear of two known gaps: ``check`` plans at a
# 1 s step, so it accepts radii that the trace-reading commands refuse at a
# finer one, and a stream of a huge radius (ROADMAP item 15).
_RADII = st.floats(min_value=0.001, max_value=1.0).map(radius_text)


def _formula_text(draw, depth: int) -> str:
    """A formula of at most ``depth`` operators on any path, written from the
    parser's operator tables with every operand parenthesised; one atom in
    about forty is unknown."""
    symbol = draw(st.sampled_from(["", *PREFIX_OPERATORS, *BINARY_OPERATORS] if depth else [""]))
    if not symbol:
        return draw(st.sampled_from((*TRACE_ATOMS * 6, "unknown_atom")))
    node = PREFIX_OPERATORS.get(symbol) or BINARY_OPERATORS[symbol][0]
    operator = f"{symbol}[{draw(_RADII)}]" if issubclass(node, TEMPORAL) else symbol
    if symbol in PREFIX_OPERATORS:
        return f"{operator} ({_formula_text(draw, depth - 1)})"
    left, right = (_formula_text(draw, depth - 1) for _ in range(2))
    return f"({left}) {operator} ({right})"


@st.composite
def contract_texts(draw) -> str:
    """Contract files over the accepted language: the :data:`SETTINGS`, 0-4
    frame clauses of formula depth up to 3 (obligations up to 1), and 0-3
    :data:`EVENT_PREDICATES` clauses, each with any subset of its
    parameters, the clause lines in any order."""
    tolerance = draw(st.floats(min_value=0.005, max_value=0.2))
    settings = {
        "tolerance": tolerance,
        "silence_radius": tolerance * draw(st.floats(min_value=0.05, max_value=1.0)),
        "merge_gap": draw(st.sampled_from((0.0, 0.01, 0.03, 0.1))),
        "matcher": draw(st.sampled_from(MATCHER_POLICIES)),
    }
    lines = [f"set {key} {SETTINGS[key][1](value)}" for key, value in settings.items()
             if key == "tolerance" or draw(st.booleans())]
    clauses = [f"frame f{k} : {_formula_text(draw, 3)} @ {_formula_text(draw, 1)}"
               for k in range(draw(st.integers(0, 4)))]
    for k in range(draw(st.integers(0, 3))):
        predicate = draw(st.sampled_from(sorted(EVENT_PREDICATES)))
        obligation, defaults = EVENT_PREDICATES[predicate]
        params = "".join(f" {key}={draw(_RADII)}" for key in defaults if draw(st.booleans()))
        clauses.append(f"event e{k} : {predicate} @ {obligation}{params}")
    return "\n".join(lines + draw(st.permutations(clauses))) + "\n"


# Frame steps of the fuzzed traces, seconds; 1024/44100 is on no decimal grid.
TRACE_STEPS = (0.005, 0.01, 0.02, 1024 / 44100)


def _run_masks(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A reference and a prediction mask of ``n`` frames whose runs last
    about 2, 10 or 50 frames."""
    return tuple(np.cumsum(rng.random(n) < rng.choice((0.02, 0.1, 0.5))) % 2 == 1
                 for _ in range(2))


@st.composite
def fuzz_traces(draw) -> TraceFile:
    """A trace of 0-300 frames at one of :data:`TRACE_STEPS`, with 0-3
    classes and a union, which a trace without classes always has."""
    n, h = draw(st.integers(0, 300)), draw(st.sampled_from(TRACE_STEPS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    classes = {name: _run_masks(rng, n) for name in "abc"[:draw(st.integers(0, 3))]}
    union = _run_masks(rng, n) if not classes or draw(st.booleans()) else None
    return TraceFile("fuzz", h, classes=classes, union=union)


@st.composite
def fuzz_cases(draw) -> list[CalibrationCase]:
    """0-4 calibration cases of 60 frames at one step, risks 0-3."""
    h = draw(st.sampled_from(TRACE_STEPS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [
        CalibrationCase(f"k{k}", *(tuple(mask.view(np.uint8).tolist())
                                   for mask in _run_masks(rng, 60)),
                        float(draw(st.integers(0, 3))), h)
        for k in range(draw(st.integers(0, 4)))
    ]


def contract_mutations(contract: Contract) -> list[tuple[str, str, int]]:
    """Single-line mutations of ``contract_to_text(contract)`` that the
    language rejects, as (label, text, number of the rejected line)."""
    lines = contract_to_text(contract).splitlines()
    out = []

    def mutate(label: str, index: int, line: str, insert: bool = False) -> None:
        changed = list(lines)
        changed[index:index + (not insert)] = [line]
        out.append((label, "\n".join(changed) + "\n", index + 1))

    mutate("unknown key", 1, "set merge_gapp 0.1", insert=True)
    mutate("repeated key", len(SETTINGS), lines[0], insert=True)
    for index, key in enumerate(("tolerance", "silence_radius", "merge_gap")):
        for value in ("abc", "inf", "-inf", "nan", "1e400"):
            mutate(f"{key} {value}", index, f"set {key} {value}")
    for index, clause in enumerate(contract.clauses, start=len(SETTINGS)):
        if isinstance(clause, FrameClause):
            continue
        obligation, defaults = EVENT_PREDICATES[clause.predicate]
        for other in sorted({o for o, _ in EVENT_PREDICATES.values()} - {obligation}):
            mutate(f"{clause.name} @ {other}", index, lines[index].replace(
                f"@ {obligation}", f"@ {other}"))
        mutate(f"{clause.name} unknown parameter", index, lines[index] + " thresold=0.1")
        for key in defaults:
            mutate(f"{clause.name} repeated {key}", index, lines[index] + f" {key}=0.1 {key}=0.1")
    return out
