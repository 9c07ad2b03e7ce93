"""Tokenizer for the boundary contract formula language.

The surface language is small on purpose: atom identifiers, the Boolean
operators ``! & | ->``, parentheses, and four reserved temporal names
(``N``, ``F``, ``G``, ``U``) that carry a bracketed decimal radius in
seconds, e.g. ``N[0.04]``.  Scanning is a single deterministic left to
right pass: whitespace is discarded, identifiers and numbers are read by
maximal munch over fixed ASCII character classes, and operators by
longest prefix match.  Every token carries a half open character span so
that later stages can point at the exact offending source location.

Lexing is total on the declared alphabet: a character that cannot start
a token raises :class:`LexError`; operator sequences that make no sense
(``a &| b``) still tokenize and are rejected by the parser instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum


class TokenKind(Enum):
    IDENTIFIER = "identifier"
    NUMBER = "number"
    OPERATOR = "operator"
    TEMPORAL = "temporal"
    LEFT_PAREN = "left_paren"
    RIGHT_PAREN = "right_paren"
    END = "end_marker"


@dataclass(frozen=True)
class SourceSpan:
    """Half open character range ``[start, end)`` into the source string."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span [{self.start}, {self.end})")


# Synthetic span used by programmatically built nodes and the end marker.
EMPTY_SPAN = SourceSpan(0, 0)


@dataclass(frozen=True)
class Token:
    """One lexical unit.

    ``value`` is always the exact source substring over ``span``; for the
    end marker it is the empty string.  Temporal tokens additionally carry
    the bracketed radius in seconds, or ``None`` when the reserved name
    appeared without a bracket (the parser reports that as a missing
    radius).
    """

    kind: TokenKind
    value: str
    span: SourceSpan
    radius: float | None = field(default=None)

    @property
    def temporal_name(self) -> str:
        """Reserved operator name of a temporal token (``N``/``F``/``G``/``U``)."""
        if self.kind is not TokenKind.TEMPORAL:
            raise ValueError(f"not a temporal token: {self.kind}")
        bracket = self.value.find("[")
        return self.value if bracket < 0 else self.value[:bracket]


class LexError(Exception):
    """Raised on input outside the declared alphabet.

    ``span`` points at the first offending character.
    """

    def __init__(self, span: SourceSpan, message: str) -> None:
        super().__init__(f"{message} at offset {span.start}")
        self.span = span
        self.message = message


# Reserved names classified as temporal only on exact, case sensitive match.
TEMPORAL_NAMES = frozenset({"N", "F", "G", "U"})

# Declared operator alphabet; "->" is the only multi-character entry and is
# tried first so that maximal munch holds at every offset.
TWO_CHAR_OPERATORS = ("->",)
SINGLE_CHAR_OPERATORS = frozenset({"&", "|", "!", "[", "]"})

_WHITESPACE = frozenset(" \t\r\n")

# ASCII only: ``\w`` would also admit non-ASCII letters and digits.
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_digit(c: str) -> bool:
    return "0" <= c <= "9"


def tokenize(source: str) -> list[Token]:
    """Scan ``source`` into a token list ending with exactly one end marker.

    Raises :class:`LexError` on an undeclared character, an unterminated
    radius bracket, or a malformed decimal literal inside a bracket.
    """
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c in _WHITESPACE:
            i += 1
            continue
        identifier = _IDENTIFIER.match(source, i)
        if identifier is not None:
            start, i = identifier.span()
            name = identifier.group()
            if name in TEMPORAL_NAMES:
                radius = None
                if i < n and source[i] == "[":
                    radius, i = _scan_radius(source, i)
                tokens.append(
                    Token(TokenKind.TEMPORAL, source[start:i], SourceSpan(start, i), radius)
                )
            else:
                tokens.append(Token(TokenKind.IDENTIFIER, name, SourceSpan(start, i)))
            continue
        if _is_digit(c):
            start = i
            i = _munch_number(source, i)
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


def _munch_number(source: str, i: int) -> int:
    """Maximal munch of a bare decimal literal starting at a digit.

    A dot is consumed only when a digit follows, so ``1.x`` stops after
    ``1`` and lets the outer loop reject the dot.
    """
    n = len(source)
    while i < n and _is_digit(source[i]):
        i += 1
    if i + 1 < n and source[i] == "." and _is_digit(source[i + 1]):
        i += 1
        while i < n and _is_digit(source[i]):
            i += 1
    return i


def _scan_radius(source: str, bracket: int) -> tuple[float, int]:
    """Scan ``[decimal]`` starting at the opening bracket.

    No whitespace is allowed inside the bracket.  Returns the radius in
    seconds and the index one past the closing bracket.
    """
    n = len(source)
    i = bracket + 1
    digits_start = i
    while i < n and _is_digit(source[i]):
        i += 1
    if i == digits_start:
        if i >= n:
            raise LexError(SourceSpan(bracket, bracket + 1), "unterminated radius bracket")
        raise LexError(SourceSpan(i, i + 1), "malformed decimal literal")
    if i < n and source[i] == ".":
        dot = i
        i += 1
        frac_start = i
        while i < n and _is_digit(source[i]):
            i += 1
        if i == frac_start:
            if i >= n:
                raise LexError(SourceSpan(bracket, bracket + 1), "unterminated radius bracket")
            raise LexError(SourceSpan(dot, dot + 1), "malformed decimal literal")
    if i >= n:
        raise LexError(SourceSpan(bracket, bracket + 1), "unterminated radius bracket")
    if source[i] != "]":
        raise LexError(SourceSpan(i, i + 1), "malformed decimal literal")
    radius = float(source[digits_start:i])
    return radius, i + 1


def span_text(source: str, span: SourceSpan) -> str:
    """Exact substring of ``source`` over ``span``; used by error reporting."""
    if span.end > len(source):
        raise ValueError(f"span [{span.start}, {span.end}) out of bounds for length {len(source)}")
    return source[span.start : span.end]
