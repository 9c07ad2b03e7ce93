"""Parser: precedence, uniqueness, rejection totality, and canonical rendering."""

import itertools
import pickle
import random
from dataclasses import fields

import pytest

from tracecontracts.lexer import (
    SINGLE_CHAR_OPERATORS,
    TEMPORAL_NAMES,
    TWO_CHAR_OPERATORS,
    LexError,
    TokenKind,
    tokenize,
)
from tracecontracts.parser import (
    BINARY_OPERATORS,
    CHILD_FIELDS,
    PREFIX_OPERATORS,
    TEMPORAL,
    And,
    Atom,
    Implies,
    Near,
    Not,
    Or,
    ParseError,
    Until,
    atom_names,
    children,
    format_formula,
    node_count,
    parse,
    parse_text,
    radius_sum,
    temporal_depth,
    walk,
)

from gen import enumerate_formulas, random_formula


def test_contract_formula_ast():
    formula = parse_text("ref_onset -> N[0.04] pred_onset")
    assert formula == Implies(Atom("ref_onset"), Near(Atom("pred_onset"), 0.04))


def test_implication_is_right_associative():
    assert parse_text("a -> b -> c") == Implies(
        Atom("a"), Implies(Atom("b"), Atom("c"))
    )


def test_conjunction_binds_tighter_than_disjunction():
    assert parse_text("a | b & c") == Or(Atom("a"), And(Atom("b"), Atom("c")))


def test_until_binds_between_conjunction_and_unary():
    # unary operators stay immediate children of until
    formula = parse_text("!a U[0.1] N[0.02] b & c")
    assert formula == And(Until(Not(Atom("a")), Near(Atom("b"), 0.02), 0.1), Atom("c"))


def test_until_chains_are_right_associative():
    formula = parse_text("a U[0.1] b U[0.2] c")
    assert formula == Until(Atom("a"), Until(Atom("b"), Atom("c"), 0.2), 0.1)


def test_parenthesized_subexpressions():
    assert parse_text("(a | b) & c") == And(Or(Atom("a"), Atom("b")), Atom("c"))


def test_format_examples():
    assert format_formula(Implies(Atom("a"), Near(Atom("b"), 0.04))) == "a -> N[0.04] b"
    assert format_formula(Or(Atom("a"), And(Atom("b"), Atom("c")))) == "a | b & c"
    assert format_formula(And(Or(Atom("a"), Atom("b")), Atom("c"))) == "(a | b) & c"


def test_unknown_atoms_are_not_a_parse_error():
    formula = parse_text("definitely_not_an_atom -> other_unknown")
    assert atom_names(formula) == {"definitely_not_an_atom", "other_unknown"}


@pytest.mark.parametrize(
    "source, expected_fragment",
    [
        ("a )", "end of input"),
        ("( a", "')'"),
        ("a b", "end of input"),
        ("a ->", "a formula"),
        ("-> a", "a formula"),
        ("N b", "N[radius]"),
        ("a U b", "U[radius]"),
        ("a & & b", "a formula"),
        ("3", "a formula"),
        ("", "a formula"),
        ("N[0] a", "positive radius"),
        ("N[0.0] a", "positive radius"),
        ("a U[0] b", "positive radius"),
    ],
)
def test_rejections_carry_expected_and_span(source, expected_fragment):
    with pytest.raises(ParseError) as excinfo:
        parse_text(source)
    assert expected_fragment in excinfo.value.expected
    assert 0 <= excinfo.value.span.start <= len(source)


def test_stream_must_end_with_end_marker():
    tokens = [t for t in tokenize("a") if t.kind is not TokenKind.END]
    with pytest.raises(ValueError):
        parse(tokens)


def test_node_spans_cover_children():
    source = "(ref_onset -> N[0.04] pred_onset) & !x"
    formula = parse_text(source)

    def check(node):
        for child in (getattr(node, "left", None), getattr(node, "right", None), getattr(node, "child", None)):
            if child is not None:
                assert node.span.start <= child.span.start
                assert node.span.end >= child.span.end
                check(child)

    check(formula)
    assert formula.span.start == 0
    assert formula.span.end == len(source)


def test_helpers_on_nested_formula():
    formula = parse_text("a -> N[0.04] F[0.1] b")
    assert node_count(formula) == 5
    assert temporal_depth(formula) == 2
    assert radius_sum(formula) == pytest.approx(0.14)


def test_round_trip_random_asts():
    rng = random.Random(2024)
    for _ in range(2000):
        formula = random_formula(rng, rng.randint(0, 5))
        assert parse_text(format_formula(formula)) == formula


def test_unique_parse_on_full_enumeration_height_two():
    # Every tree over two atoms and the full connective set, three levels
    # deep: the canonical rendering reparses to exactly the source tree, so
    # each accepted string has the one parse that produced it.
    formulas = enumerate_formulas(2)
    assert len(formulas) == 2810
    rendered = {}
    for formula in formulas:
        text = format_formula(formula)
        reparsed = parse_text(text)
        assert reparsed == formula
        if text in rendered:
            assert rendered[text] == formula
        else:
            rendered[text] = formula
    # rendering is injective over the enumeration
    assert len(rendered) == len(formulas)


def test_rejection_totality_on_short_token_strings():
    # Every assembled token string either parses or raises ParseError with
    # an in-range span; nothing is silently truncated.
    vocabulary = ["a", "b", "!", "&", "|", "->", "(", ")", "N[0.04]", "U[0.04]"]
    accepted = 0
    for length in range(1, 5):
        for combo in itertools.product(vocabulary, repeat=length):
            source = " ".join(combo)
            try:
                formula = parse_text(source)
            except ParseError as error:
                assert 0 <= error.span.start <= len(source)
                continue
            accepted += 1
            assert parse_text(format_formula(formula)) == formula
    assert accepted > 0


def test_parse_is_deterministic():
    source = "a -> (b U[0.08] !c) & N[0.02] a | G[0.1] b"
    assert parse_text(source) == parse_text(source)


def test_equal_trees_built_apart_hash_alike():
    rng = random.Random(17)
    for _ in range(200):
        built = random_formula(rng, rng.randint(0, 4))
        parsed = parse_text(format_formula(built))  # other spans, same tree
        assert parsed == built and hash(parsed) == hash(built)
        for node in walk(parsed):
            # the dataclass hash of the compared fields, children included
            compared = tuple(getattr(node, f.name) for f in fields(node) if f.compare)
            assert hash(node) == hash(compared)


def test_a_pickled_node_rehashes_when_loaded():
    source = "(a & b) U[0.04] !N[0.02] c"
    node = parse_text(source)
    object.__setattr__(node, "_hash", 12345)  # a cache from another process
    loaded = pickle.loads(pickle.dumps(node))
    fresh = parse_text(source)
    assert loaded == fresh and hash(loaded) == hash(fresh) != 12345
    assert [n.span for n in walk(loaded)] == [n.span for n in walk(fresh)]


def test_zero_radius_never_reaches_the_tree():
    with pytest.raises(ParseError):
        parse_text("G[0.000] x")


def test_programmatic_radius_validation():
    with pytest.raises(ValueError):
        Near(Atom("a"), 0.0)
    with pytest.raises(ValueError):
        Until(Atom("a"), Atom("b"), -1.0)


def test_lex_error_propagates_through_parse_text():
    with pytest.raises(LexError):
        parse_text("a -> $")


def test_operator_table_is_the_lexer_alphabet():
    # Every operator the lexer emits, brackets aside, is in the table once,
    # and exactly the temporal names build the radius-carrying nodes.
    lexed = (set(TWO_CHAR_OPERATORS) | SINGLE_CHAR_OPERATORS | TEMPORAL_NAMES) - {"[", "]"}
    assert not set(BINARY_OPERATORS) & set(PREFIX_OPERATORS)
    assert set(BINARY_OPERATORS) | set(PREFIX_OPERATORS) == lexed
    table = {symbol: cls for symbol, (cls, _, _) in BINARY_OPERATORS.items()} | PREFIX_OPERATORS
    assert {table[name] for name in TEMPORAL_NAMES} == set(TEMPORAL)
    assert set(CHILD_FIELDS) == set(table.values()) | {Atom}


def test_children_follow_the_child_fields():
    rng = random.Random(7)
    for _ in range(200):
        for node in walk(random_formula(rng, 4)):
            assert children(node) == tuple(getattr(node, name) for name in CHILD_FIELDS[type(node)])
    with pytest.raises(TypeError):
        children("a")
