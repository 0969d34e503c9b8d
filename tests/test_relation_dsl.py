from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operad_forge.group_module import C1, C2, ID, T12, T13, T23, group_vector
from operad_forge.relation_dsl import (
    ParseError,
    format_group_vector,
    format_weight3,
    parse_comb_relation,
    parse_group_vector,
    parse_relation,
)
from operad_forge.weight_spaces import (
    ANTICOMMUTATIVE,
    COMMUTATIVE,
    LEFT,
    REGULAR,
    RIGHT,
    Weight3Element,
    associator,
    decompose_LR,
)

from conftest import (
    comb_in,
    reference_parse_comb_relation,
    reference_parse_group_vector,
    reference_parse_relation,
)


def test_parse_associator():
    assert parse_relation("(x*y)*z - x*(y*z)") == associator((1, 2, 3))


def test_parse_associator_shorthand():
    assert parse_relation("A(x,y,z)") == associator((1, 2, 3))
    assert parse_relation("A(z, x, y)") == associator((3, 1, 2))


def test_parse_numbered_variables():
    assert parse_relation("(x1*x2)*x3") == parse_relation("(x*y)*z")
    assert parse_relation("x2*(x3*x1)") == Weight3Element.monomial(
        RIGHT, (2, 3, 1)
    )


def test_parse_coefficients_and_signs():
    got = parse_relation("-2*(x*y)*z + 1/3*x*(y*z)")
    want = Weight3Element.monomial(LEFT, (1, 2, 3)).scaled(-2) + \
        Weight3Element.monomial(RIGHT, (1, 2, 3)).scaled(Fraction(1, 3))
    assert got == want


def test_parse_leibniz_and_decompose():
    x = parse_relation("x*(y*z) - (x*y)*z + (x*z)*y")
    v, w = decompose_LR(x.scaled(-1))
    assert v == group_vector((1, ID), (-1, T23))
    assert w == group_vector((1, ID))


def test_parse_poisson_relation():
    x = parse_relation("3*A(x,y,z) - (x*z)*y - (y*z)*x + (y*x)*z + (z*x)*y")
    want = (
        associator((1, 2, 3)).scaled(3)
        - Weight3Element.monomial(LEFT, (1, 3, 2))
        - Weight3Element.monomial(LEFT, (2, 3, 1))
        + Weight3Element.monomial(LEFT, (2, 1, 3))
        + Weight3Element.monomial(LEFT, (3, 1, 2))
    )
    assert x == want


def test_parse_repeated_variable_rejected():
    with pytest.raises(ParseError):
        parse_relation("(x*x)*z")
    with pytest.raises(ParseError):
        parse_relation("A(x,y,x)")


def test_parse_unknown_variable_rejected():
    with pytest.raises(ParseError):
        parse_relation("(x*w)*z")


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_relation("(x*y)*z ?")
    assert err.value.line == 1
    assert err.value.column == 9


def test_parse_error_on_second_line():
    with pytest.raises(ParseError) as err:
        parse_relation("(x*y)*z\n+ (x*q)*z")
    assert err.value.line == 2


def test_parse_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_relation("(x*y)*z (y*x)*z")


def test_parse_bare_coefficient_rejected():
    with pytest.raises(ParseError):
        parse_relation("3 + (x*y)*z")


def test_parse_comb_relation():
    got = parse_comb_relation("m1 + m2 + m3", ANTICOMMUTATIVE)
    want = (
        comb_in(ANTICOMMUTATIVE, 1)
        + comb_in(ANTICOMMUTATIVE, 2)
        + comb_in(ANTICOMMUTATIVE, 3)
    )
    assert got == want


def test_parse_comb_rejects_regular_class():
    with pytest.raises(ValueError):
        parse_comb_relation("m1", REGULAR)


def test_parse_comb_rejects_tree_monomials():
    with pytest.raises(ValueError):
        parse_comb_relation("(x*y)*z", COMMUTATIVE)


def test_parse_group_vector():
    assert parse_group_vector("Id") == group_vector((1, ID))
    v = parse_group_vector("Id - t12 - t23 - t13 + c1 + c2")
    assert v == group_vector(
        (1, ID), (-1, T12), (-1, T23), (-1, T13), (1, C1), (1, C2),
    )


def test_parse_group_vector_coefficients():
    v = parse_group_vector("3*Id - 1/2*c1")
    assert v[ID] == 3
    assert v[C1] == Fraction(-1, 2)


def test_parse_group_vector_rejects_unknown_symbol():
    with pytest.raises(ParseError):
        parse_group_vector("Id + t14")


def test_format_round_trip_regular():
    x = parse_relation("(x*y)*z - 2/3*x*(z*y) + 5*(z*x)*y")
    assert parse_relation(format_weight3(x)) == x


def test_format_round_trip_comb():
    x = comb_in(COMMUTATIVE, 1, "7/2") - comb_in(COMMUTATIVE, 3)
    assert parse_comb_relation(format_weight3(x), COMMUTATIVE) == x


def test_format_round_trip_group_vector():
    v = parse_group_vector("-Id + 2*t13 - 1/4*c2")
    assert parse_group_vector(format_group_vector(v)) == v


def test_format_zero():
    assert format_weight3(Weight3Element.zero(REGULAR)) == "0"


# One input per message of the parser: (entry point, text, message, line,
# column); line and column are None for the comb ValueErrors.
_ENTRIES = {
    "relation": parse_relation,
    "comb": lambda text: parse_comb_relation(text, COMMUTATIVE),
    "comb-regular": lambda text: parse_comb_relation(text, REGULAR),
    "group": parse_group_vector,
}
_REJECTED = [
    ("relation", "(x*y)*z ?", "unexpected character '?'", 1, 9),
    ("relation", "_x", "unexpected character '_'", 1, 1),
    ("relation", "1/0*(x*y)*z", "expected a positive integer denominator",
     1, 3),
    ("relation", "1/x*(x*y)*z", "expected a positive integer denominator",
     1, 3),
    ("relation", "3 + (x*y)*z", "expected '*' after a coefficient", 1, 3),
    ("relation", "2", "expected '*' after a coefficient", 1, 2),
    ("relation", "(x*y)*z (y*x)*z", "unexpected trailing input '('", 1, 9),
    ("relation", "(x*w)*z", "unknown variable 'w'", 1, 4),
    ("relation", "(x*y)*z\n+ (x*q)*z", "unknown variable 'q'", 2, 6),
    ("relation", "(x*y*z", "expected ')', found '*'", 1, 5),
    ("relation", "A(x,y)", "expected ',', found ')'", 1, 6),
    ("relation", "(x*y)*z + - x*(y*z)", "expected a monomial, found '-'",
     1, 11),
    ("relation", "x*(y*z) -", "expected a monomial, found ''", 1, 10),
    ("relation", "m1", "expected a monomial, found 'm1'", 1, 1),
    ("relation", "x²*(y*z)", "expected a monomial, found 'x²'", 1, 1),
    ("relation", "A(x,y,x)", "repeated variable in a monomial", 1, 1),
    ("relation", "  \t(x*x)*z", "repeated variable in a monomial", 1, 4),
    ("group", "Id + t14", "unknown permutation symbol 't14'", 1, 6),
    ("comb", "(x*y)*z + m1 m2", "unexpected trailing input 'm2'", 1, 14),
    ("comb", "(x*y)*z",
     "comb relations may only use the monomials m1, m2, m3", None, None),
    ("comb-regular", "m1", "comb relations live in the symmetric classes",
     None, None),
]


@pytest.mark.parametrize("entry,text,message,line,column", _REJECTED)
def test_rejected_text_names_its_message_and_position(entry, text, message,
                                                      line, column):
    with pytest.raises(ValueError) as err:
        _ENTRIES[entry](text)
    if line is None:
        assert type(err.value) is ValueError
        assert str(err.value) == message
    else:
        assert type(err.value) is ParseError
        assert str(err.value) == f"{message} (line {line}, column {column})"
        assert (err.value.line, err.value.column) == (line, column)


_LONG = "1" * 4301


@pytest.mark.parametrize("text,message,column", [
    pytest.param("²*(x*y)*z", "unexpected character '²'", 1,
                 id="superscript"),
    pytest.param("1²*(x*y)*z", "unexpected character '²'", 2,
                 id="digit-superscript"),
    pytest.param("１*(x*y)*z", "unexpected character '１'", 1,
                 id="full-width"),
    pytest.param(_LONG + "*(x*y)*z", "number too long (4301 digits)", 1,
                 id="long-numerator"),
    pytest.param("1/" + _LONG + "*(x*y)*z", "number too long (4301 digits)",
                 3, id="long-denominator"),
])
def test_numbers_are_ascii_digits(text, message, column):
    with pytest.raises(ParseError) as err:
        parse_relation(text)
    assert str(err.value) == f"{message} (line 1, column {column})"


# Token soup over every token kind, spacing and a few non-ASCII letters.
# Non-ASCII digits stay out: they are errors now, numbers before.
_SOUP = st.lists(st.sampled_from([
    "x", "y", "z", "x1", "x2", "x3", "A", "m1", "m2", "m3", "Id", "t12",
    "t13", "t23", "c1", "c2", "w", "0", "1", "2", "10", "00", "(", ")", "*",
    "+", "-", "/", ",", "(x*y)*z", "x*(y*z)", "A(x,y,z)", " ", "\n", "\t",
    "\r", "_", "é", "Ω", "?",
]), max_size=14).map("".join)


def _outcome(parse, text):
    try:
        return "value", parse(text)
    except ParseError as exc:
        return "ParseError", str(exc), exc.line, exc.column
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(text=_SOUP)
def test_parsers_match_the_reference_parser(text):
    for parse, reference in [
        (parse_relation, reference_parse_relation),
        (lambda t: parse_comb_relation(t, ANTICOMMUTATIVE),
         lambda t: reference_parse_comb_relation(t, ANTICOMMUTATIVE)),
        (parse_group_vector, reference_parse_group_vector),
    ]:
        assert _outcome(parse, text) == _outcome(reference, text)
