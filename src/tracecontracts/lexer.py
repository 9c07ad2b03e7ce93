"""Tokenizer for the boundary contract formula language.

The surface language is small on purpose: atom identifiers, the Boolean
operators ``! & | ->``, parentheses, and four reserved temporal names
(``N``, ``F``, ``G``, ``U``) that carry a bracketed decimal radius in
seconds, e.g. ``N[0.04]``.  The token grammar is one table of named
patterns, one per token kind, compiled into a single alternation and
matched left to right; whitespace is the one unnamed alternative and is
discarded.  The classes are disjoint and each pattern is greedy, so
identifiers and numbers are read by maximal munch over fixed ASCII
character classes and operators by longest match (``->`` is tried before
the one-character operators).  Every token carries a half open character
span so that later stages can point at the exact offending source
location.

Lexing is total on the declared alphabet: a character that cannot start
a token raises :class:`LexError`; operator sequences that make no sense
(``a &| b``) still tokenize and are rejected by the parser instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import NoReturn


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

# Bare numbers and bracketed radii: a dot is part of a literal only with a
# digit after it, so ``1.x`` scans as ``1`` and then an undeclared dot.
_DECIMAL = r"[0-9]+(?:\.[0-9]+)?"

# One named group per token kind.  The classes are disjoint, so order matters
# only inside the operator group, where the two-character operators come first.
_TOKEN_PATTERNS = (
    (TokenKind.IDENTIFIER, r"[A-Za-z_][A-Za-z0-9_]*"),  # ASCII only, unlike ``\w``
    (TokenKind.NUMBER, _DECIMAL),
    (
        TokenKind.OPERATOR,
        "|".join(map(re.escape, (*TWO_CHAR_OPERATORS, *sorted(SINGLE_CHAR_OPERATORS)))),
    ),
    (TokenKind.LEFT_PAREN, r"\("),
    (TokenKind.RIGHT_PAREN, r"\)"),
)
# Whitespace is the one unnamed alternative: it matches and is dropped.
_TOKEN = re.compile(
    "[ \t\r\n]+|" + "|".join(f"(?P<{kind.value}>{pattern})" for kind, pattern in _TOKEN_PATTERNS)
)
_KIND_OF_GROUP = {kind.value: kind for kind, _ in _TOKEN_PATTERNS}
_RADIUS = re.compile(rf"\[({_DECIMAL})\]")
# The longest prefix from a ``[`` that could still grow into ``[decimal]``.
_RADIUS_PREFIX = re.compile(r"\[(?:[0-9]+(?:\.[0-9]*)?)?")


def tokenize(source: str) -> list[Token]:
    """Scan ``source`` into a token list ending with exactly one end marker.

    Raises :class:`LexError` on an undeclared character, an unterminated
    radius bracket, or a malformed decimal literal inside a bracket.
    """
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        match = _TOKEN.match(source, i)
        if match is None:
            raise LexError(SourceSpan(i, i + 1), f"undeclared character {source[i]!r}")
        start, i = match.span()
        if match.lastgroup is None:
            continue
        kind = _KIND_OF_GROUP[match.lastgroup]
        radius = None
        if kind is TokenKind.IDENTIFIER and match.group() in TEMPORAL_NAMES:
            kind = TokenKind.TEMPORAL
            if source.startswith("[", i):
                bracketed = _RADIUS.match(source, i)
                if bracketed is None:
                    _scan_radius(source, i)
                radius = float(bracketed.group(1))
                i = bracketed.end()
        tokens.append(Token(kind, source[start:i], SourceSpan(start, i), radius))
    tokens.append(Token(TokenKind.END, "", SourceSpan(n, n)))
    return tokens


def _scan_radius(source: str, bracket: int) -> NoReturn:
    """Raise the error for a ``[`` after a temporal name that does not open
    ``[decimal]``; no whitespace is allowed inside the bracket.

    If the source ends inside the literal, the bracket is unterminated;
    otherwise the literal is malformed at the first character that cannot
    continue it, a dot with no digit after it included.
    """
    end = _RADIUS_PREFIX.match(source, bracket).end()
    if end == len(source):
        raise LexError(SourceSpan(bracket, bracket + 1), "unterminated radius bracket")
    if source[end - 1] == ".":
        end -= 1
    raise LexError(SourceSpan(end, end + 1), "malformed decimal literal")
