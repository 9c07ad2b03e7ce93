"""Precedence-climbing parser for bounded temporal contract formulas.

One operator table, :data:`BINARY_OPERATORS` and :data:`PREFIX_OPERATORS`,
states the grammar, loosest to tightest binding:

    level  operators           node                     associativity
    1      ->                  Implies                  right
    2      |                   Or                       left
    3      &                   And                      left
    4      U[r]                Until                    right
    5      ! N[r] F[r] G[r]    Not Near Future Always   prefix

An operand is an identifier, a parenthesised formula or a prefix operator
applied to an operand; a formula is operands joined by binary operators.
The parser and :func:`format_formula` both read the table.

Every accepted token stream has exactly one syntax tree under these
rules; anything else raises :class:`ParseError` anchored to the offending
token's span, and trailing tokens are errors rather than ignored suffixes.
Unknown atom names are not a parse error; they fail later when a formula
is evaluated against a trace environment.

Structural equality of formulas ignores source spans, so a reparsed
canonical rendering compares equal to the original tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from decimal import Decimal
from typing import Iterator, Sequence

from .lexer import EMPTY_SPAN, LexError, SourceSpan, Token, TokenKind, tokenize


class Formula:
    """Base class for formula nodes.

    A node's hash is the dataclass hash of its compared fields, taken once
    at construction: a child's hash is read from its cache, so hashing a
    tree costs one tuple hash.  Pickling rebuilds the node, so the cache is
    recomputed in the loading process (``str`` hashes differ between
    processes).
    """

    __slots__ = ()

    span: SourceSpan

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", self._field_hash())

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _node(cls: type) -> type:
    """A frozen dataclass node, hashed from the cache :class:`Formula` fills."""
    cls = dataclass(frozen=True)(cls)
    cls._field_hash = cls.__hash__
    cls.__hash__ = Formula.__hash__
    return cls


class _Bounded(Formula):
    """Base of the nodes with a positive finite ``radius`` in seconds."""

    __slots__ = ()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"temporal radius must be positive and finite, got {self.radius!r}")
        super().__post_init__()


@_node
class Atom(Formula):
    name: str
    span: SourceSpan = field(default=EMPTY_SPAN, compare=False, repr=False)


@_node
class Not(Formula):
    child: Formula
    span: SourceSpan = field(default=EMPTY_SPAN, compare=False, repr=False)


@_node
class And(Formula):
    left: Formula
    right: Formula
    span: SourceSpan = field(default=EMPTY_SPAN, compare=False, repr=False)


@_node
class Or(Formula):
    left: Formula
    right: Formula
    span: SourceSpan = field(default=EMPTY_SPAN, compare=False, repr=False)


@_node
class Implies(Formula):
    left: Formula
    right: Formula
    span: SourceSpan = field(default=EMPTY_SPAN, compare=False, repr=False)


@_node
class Near(_Bounded):
    """True where the child holds within ``radius`` seconds in either direction."""

    child: Formula
    radius: float
    span: SourceSpan = field(default=EMPTY_SPAN, compare=False, repr=False)


@_node
class Future(_Bounded):
    """True where the child holds within ``radius`` seconds ahead (inclusive of now)."""

    child: Formula
    radius: float
    span: SourceSpan = field(default=EMPTY_SPAN, compare=False, repr=False)


@_node
class Always(_Bounded):
    """True where the child holds at every frame of the clipped future window."""

    child: Formula
    radius: float
    span: SourceSpan = field(default=EMPTY_SPAN, compare=False, repr=False)


@_node
class Until(_Bounded):
    """Right witness within ``radius`` seconds, left formula holding strictly before it."""

    left: Formula
    right: Formula
    radius: float
    span: SourceSpan = field(default=EMPTY_SPAN, compare=False, repr=False)


class ParseError(Exception):
    """Raised on a token stream the grammar rejects.

    ``span`` points at the offending token.
    """

    def __init__(self, span: SourceSpan, expected: str, found: str) -> None:
        super().__init__(f"expected {expected}, found {found} at offset {span.start}")
        self.span = span
        self.expected = expected
        self.found = found


# Node classes whose token carries a bracketed radius in seconds.
TEMPORAL = (Near, Future, Always, Until)

# The operator table: a binary operator's node class, binding level (1 binds
# loosest) and whether it associates to the right; a prefix operator's node
# class.  Prefix operators bind tighter than every binary one.
BINARY_OPERATORS = {
    "->": (Implies, 1, True),
    "|": (Or, 2, False),
    "&": (And, 3, False),
    "U": (Until, 4, True),
}
PREFIX_OPERATORS = {"!": Not, "N": Near, "F": Future, "G": Always}

_LOOSEST = 1
_PREFIX_LEVEL = max(level for _, level, _ in BINARY_OPERATORS.values()) + 1

# Each node class's child fields in order, which its place in the table fixes.
CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    Atom: (),
    **{cls: ("child",) for cls in PREFIX_OPERATORS.values()},
    **{cls: ("left", "right") for cls, _, _ in BINARY_OPERATORS.values()},
}


def children(formula: Formula) -> tuple[Formula, ...]:
    """The node's children in :data:`CHILD_FIELDS` order."""
    try:
        names = CHILD_FIELDS[type(formula)]
    except KeyError:
        raise TypeError(f"not a formula node: {formula!r}") from None
    return tuple(getattr(formula, name) for name in names)


def walk(formula: Formula) -> Iterator[Formula]:
    """Yield every node of the tree, children before parents."""
    for child in children(formula):
        yield from walk(child)
    yield formula


def node_count(formula: Formula) -> int:
    return sum(1 for _ in walk(formula))


def atom_names(formula: Formula) -> frozenset[str]:
    return frozenset(node.name for node in walk(formula) if isinstance(node, Atom))


def temporal_depth(formula: Formula) -> int:
    """Maximum nesting depth of bounded temporal operators."""
    inner = max((temporal_depth(c) for c in children(formula)), default=0)
    return inner + 1 if isinstance(formula, TEMPORAL) else inner


def radius_sum(formula: Formula) -> float:
    """Sum of all temporal radii in seconds over the tree."""
    return sum((node.radius for node in walk(formula) if isinstance(node, TEMPORAL)), 0.0)


def _describe(token: Token) -> str:
    if token.kind is TokenKind.END:
        return "end of input"
    return repr(token.value)


def _symbol(token: Token) -> str | None:
    """The operator-table key of a token; ``None`` for operands and brackets."""
    if token.kind is TokenKind.OPERATOR:
        return token.value
    if token.kind is TokenKind.TEMPORAL:
        return token.temporal_name
    return None


class _Parser:
    """Precedence climbing over the operator table."""

    def __init__(self, tokens: Sequence[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    def peek(self) -> Token:
        return self._tokens[self._index]

    def advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not TokenKind.END:
            self._index += 1
        return token

    def expression(self, minimum: int) -> Formula:
        """The longest formula from here whose binary operators bind at
        level ``minimum`` or tighter."""
        left = self.operand()
        while True:
            token = self.peek()
            entry = BINARY_OPERATORS.get(_symbol(token))
            if entry is None or entry[1] < minimum:
                return left
            cls, level, right_associative = entry
            self.advance()
            radius = self._radius(token)
            right = self.expression(level if right_associative else level + 1)
            left = cls(left, right, *radius, SourceSpan(left.span.start, right.span.end))

    def operand(self) -> Formula:
        token = self.advance()
        if token.kind is TokenKind.IDENTIFIER:
            return Atom(token.value, token.span)
        cls = PREFIX_OPERATORS.get(_symbol(token))
        if cls is not None:
            radius = self._radius(token)
            child = self.operand()
            return cls(child, *radius, SourceSpan(token.span.start, child.span.end))
        if token.kind is TokenKind.LEFT_PAREN:
            inner = self.expression(_LOOSEST)
            closing = self.advance()
            if closing.kind is not TokenKind.RIGHT_PAREN:
                raise ParseError(closing.span, "')'", _describe(closing))
            return replace(inner, span=SourceSpan(token.span.start, closing.span.end))
        raise ParseError(token.span, "a formula", _describe(token))

    def _radius(self, token: Token) -> tuple[float, ...]:
        """The radius an operator token gives its node: one for a temporal
        token, none for a Boolean one."""
        if token.kind is not TokenKind.TEMPORAL:
            return ()
        if token.radius is None:
            raise ParseError(token.span, f"'{token.temporal_name}[radius]'", _describe(token))
        if token.radius <= 0.0:
            raise ParseError(token.span, "a positive radius", _describe(token))
        if not math.isfinite(token.radius):
            raise ParseError(token.span, "a finite radius", _describe(token))
        return (token.radius,)


def parse(tokens: Sequence[Token]) -> Formula:
    """Parse a token stream into its unique syntax tree.

    The stream must end with the end marker produced by
    :func:`tracecontracts.lexer.tokenize`.
    """
    if not tokens or tokens[-1].kind is not TokenKind.END:
        raise ValueError("token stream must end with the end marker")
    parser = _Parser(tokens)
    formula = parser.expression(_LOOSEST)
    trailing = parser.peek()
    if trailing.kind is not TokenKind.END:
        raise ParseError(trailing.span, "end of input", _describe(trailing))
    return formula


def parse_text(source: str) -> Formula:
    """Tokenize and parse in one step."""
    return parse(tokenize(source))


def radius_text(radius: float) -> str:
    """Positional decimal rendering of a radius that re-lexes to the same float."""
    text = repr(radius)
    if "e" in text or "E" in text:
        text = format(Decimal(text), "f")
    return text


# Per node class: its symbol, its binding level and the levels its operands
# print at (a prefix node has no second operand).  A node printed where a
# tighter level is needed gets parentheses.
_RENDERING = {
    **{
        cls: (symbol, level, *((level + 1, level) if right else (level, level + 1)))
        for symbol, (cls, level, right) in BINARY_OPERATORS.items()
    },
    **{
        cls: (symbol, _PREFIX_LEVEL, _PREFIX_LEVEL, None)
        for symbol, cls in PREFIX_OPERATORS.items()
    },
}


def format_formula(formula: Formula) -> str:
    """Canonical rendering without redundant parentheses.

    The output reparses to a structurally identical tree; parentheses
    appear only where the fixed precedence would otherwise reassociate.
    """
    return _render(formula, _LOOSEST)


def _render(formula: Formula, minimum: int) -> str:
    if type(formula) is Atom:
        return formula.name
    symbol, level, first, second = _RENDERING[type(formula)]
    if level < minimum:
        return "(" + _render(formula, _LOOSEST) + ")"
    if isinstance(formula, TEMPORAL):
        symbol += f"[{radius_text(formula.radius)}]"
        if second is None:
            symbol += " "
    if second is None:
        return symbol + _render(formula.child, first)
    return _render(formula.left, first) + f" {symbol} " + _render(formula.right, second)


__all__ = [
    "Formula",
    "Atom",
    "Not",
    "And",
    "Or",
    "Implies",
    "Near",
    "Future",
    "Always",
    "Until",
    "ParseError",
    "LexError",
    "parse",
    "parse_text",
    "format_formula",
    "radius_text",
    "children",
    "walk",
    "node_count",
    "atom_names",
    "temporal_depth",
    "radius_sum",
]
