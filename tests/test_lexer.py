"""Tokenizer behavior: spans, maximal munch, totality, and error anchoring."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecontracts.lexer import (
    LexError,
    SourceSpan,
    TokenKind,
    tokenize,
)
from tracecontracts.parser import format_formula

from gen import random_formula, span_text


def kinds(tokens):
    return [t.kind for t in tokens]


def values(tokens):
    return [t.value for t in tokens]


def test_contract_formula_example():
    tokens = tokenize("ref_onset -> N[0.04] pred_onset")
    assert kinds(tokens) == [
        TokenKind.IDENTIFIER,
        TokenKind.OPERATOR,
        TokenKind.TEMPORAL,
        TokenKind.IDENTIFIER,
        TokenKind.END,
    ]
    assert values(tokens) == ["ref_onset", "->", "N[0.04]", "pred_onset", ""]
    assert tokens[2].radius == 0.04
    assert tokens[2].temporal_name == "N"


def test_empty_source_is_just_the_end_marker():
    tokens = tokenize("")
    assert kinds(tokens) == [TokenKind.END]
    assert tokens[0].span == SourceSpan(0, 0)


def test_lexing_is_total_on_declared_characters():
    # "a &| b" lexes fine; rejecting it is the parser's job.
    source = "a &| b"
    expected = []
    # reference scanner: walk character by character
    i = 0
    while i < len(source):
        c = source[i]
        if c == " ":
            i += 1
            continue
        expected.append(c)
        i += 1
    tokens = tokenize(source)
    assert values(tokens) == ["a", "&", "|", "b", ""]
    assert [v for v in values(tokens) if v] == expected
    assert kinds(tokens)[:-1] == [
        TokenKind.IDENTIFIER,
        TokenKind.OPERATOR,
        TokenKind.OPERATOR,
        TokenKind.IDENTIFIER,
    ]


def test_reserved_names_exact_match_only():
    tokens = tokenize("No N F G U Gx")
    assert kinds(tokens)[:-1] == [
        TokenKind.IDENTIFIER,
        TokenKind.TEMPORAL,
        TokenKind.TEMPORAL,
        TokenKind.TEMPORAL,
        TokenKind.TEMPORAL,
        TokenKind.IDENTIFIER,
    ]
    assert all(t.radius is None for t in tokens if t.kind is TokenKind.TEMPORAL)


def test_radius_attaches_only_without_whitespace():
    with_space = tokenize("N [0.04] a")
    assert with_space[0].kind is TokenKind.TEMPORAL
    assert with_space[0].radius is None
    assert with_space[1].value == "["


def test_parens_have_their_own_kinds():
    tokens = tokenize("(a)")
    assert kinds(tokens)[:-1] == [
        TokenKind.LEFT_PAREN,
        TokenKind.IDENTIFIER,
        TokenKind.RIGHT_PAREN,
    ]


def test_bare_numbers_lex_as_number_tokens():
    tokens = tokenize("12 3.5")
    assert kinds(tokens)[:-1] == [TokenKind.NUMBER, TokenKind.NUMBER]
    assert values(tokens)[:-1] == ["12", "3.5"]


@pytest.mark.parametrize(
    "source, offending",
    [
        ("a - > b", 2),   # '-' alone is not a declared operator
        ("a $ b", 2),
        ("€", 0),
    ],
)
def test_undeclared_character_error(source, offending):
    with pytest.raises(LexError) as excinfo:
        tokenize(source)
    assert excinfo.value.span.start == offending


def test_unterminated_radius_bracket():
    with pytest.raises(LexError) as excinfo:
        tokenize("N[0.04")
    assert "unterminated" in excinfo.value.message
    assert excinfo.value.span.start == 1


@pytest.mark.parametrize("source", ["N[]", "N[1.]", "N[0.0.4]", "N[x]", "N[ 0.04]"])
def test_malformed_decimal_literals(source):
    with pytest.raises(LexError) as excinfo:
        tokenize(source)
    assert "malformed" in excinfo.value.message or "unterminated" in excinfo.value.message


@pytest.mark.parametrize(
    "source, message, span",
    [
        ("N[", "unterminated radius bracket", SourceSpan(1, 2)),
        ("N[.5]", "malformed decimal literal", SourceSpan(2, 3)),  # no integer part
        ("N[5.]", "malformed decimal literal", SourceSpan(3, 4)),  # a dot needs a digit
        ("N[5.", "unterminated radius bracket", SourceSpan(1, 2)),
        ("N[5x]", "malformed decimal literal", SourceSpan(3, 4)),
        ("N[5.5x]", "malformed decimal literal", SourceSpan(5, 6)),
        ("N[5.5", "unterminated radius bracket", SourceSpan(1, 2)),
    ],
)
def test_radius_error_anchors(source, message, span):
    with pytest.raises(LexError) as excinfo:
        tokenize(source)
    assert (excinfo.value.message, excinfo.value.span) == (message, span)
    assert str(excinfo.value) == f"{message} at offset {span.start}"


def test_spaced_bracket_is_an_operator_not_a_radius():
    tokens = tokenize("N [0.5]")
    assert [(t.kind, t.value, t.span) for t in tokens] == [
        (TokenKind.TEMPORAL, "N", SourceSpan(0, 1)),
        (TokenKind.OPERATOR, "[", SourceSpan(2, 3)),
        (TokenKind.NUMBER, "0.5", SourceSpan(3, 6)),
        (TokenKind.OPERATOR, "]", SourceSpan(6, 7)),
        (TokenKind.END, "", SourceSpan(7, 7)),
    ]
    assert tokens[0].radius is None


def test_span_text_examples():
    assert span_text("abc", SourceSpan(0, 1)) == "a"
    assert span_text("N[0.04]", SourceSpan(0, 7)) == "N[0.04]"
    with pytest.raises(ValueError):
        span_text("abc", SourceSpan(1, 4))


def _spaced_render(rng, formula):
    text = format_formula(formula)
    pieces = text.split(" ")
    return "".join(p + " " * rng.randint(1, 3) for p in pieces)


def test_token_values_equal_span_text_and_tile_the_source():
    rng = random.Random(100)
    for _ in range(300):
        source = _spaced_render(rng, random_formula(rng, rng.randint(0, 4)))
        tokens = tokenize(source)
        rebuilt = []
        cursor = 0
        for token in tokens:
            assert span_text(source, token.span) == token.value
            assert token.span.start >= cursor
            assert source[cursor : token.span.start].strip() == ""
            rebuilt.append(source[cursor : token.span.start])
            rebuilt.append(token.value)
            cursor = token.span.end
        rebuilt.append(source[cursor:])
        assert "".join(rebuilt) == source
        # exactly one end marker, and it is last
        end_markers = [t for t in tokens if t.kind is TokenKind.END]
        assert end_markers == [tokens[-1]]


def test_tokenize_is_deterministic():
    source = "ref_onset -> N[0.04] pred_onset & !silence | (x U[0.1] y)"
    first = tokenize(source)
    second = tokenize(source)
    assert first == second


def test_maximal_munch_identifier_and_operator():
    tokens = tokenize("ab->cd")
    assert values(tokens)[:-1] == ["ab", "->", "cd"]
    # identifier munch does not stop inside a name that embeds a reserved letter
    tokens = tokenize("Nx")
    assert kinds(tokens)[0] is TokenKind.IDENTIFIER


@given(st.text(alphabet="abN FGU[]().0123456789->&|!_", max_size=40))
@settings(max_examples=300, deadline=None)
def test_lexer_never_crashes_and_errors_have_in_range_spans(source):
    try:
        tokens = tokenize(source)
    except LexError as error:
        assert 0 <= error.span.start < max(1, len(source) + 1)
        return
    assert tokens[-1].kind is TokenKind.END
    for token in tokens:
        assert span_text(source, token.span) == token.value
