"""Text syntax for relations and group-algebra vectors.

Grammar (whitespace-insensitive)::

    relation  := '0' | ['-'|'+'] term (('+'|'-') term)*
    term      := [rational '*'] monomial
    monomial  := '(' var '*' var ')' '*' var
               | var '*' '(' var '*' var ')'
               | 'A(' var ',' var ',' var ')'
               | 'm1' | 'm2' | 'm3'              (comb syntax only)
    rational  := integer ['/' positive-integer]

Numbers are runs of the ASCII digits 0-9, and a word starts with a letter.
Variables are x,y,z or x1,x2,x3, mapped to the leaf labels 1,2,3.  The
associator shorthand A(a,b,c) expands to (a*b)*c - a*(b*c).  Group vectors
use the permutation names Id, t12, t13, t23, c1, c2.  A text that does not
parse raises ParseError, naming the line and column where it fails.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .foundation import ZERO
from .group_module import PERM_BY_NAME, PERM_NAMES, PERMS, GroupVector
from .weight_spaces import (
    COMB_NAMES,
    LEFT,
    MONOMIALS,
    REGULAR,
    RIGHT,
    SymmetryClass,
    Weight3Element,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


VAR_LABELS = {"x": 1, "y": 2, "z": 3, "x1": 1, "x2": 2, "x3": 3}

# One match per token, or per newline or run of other whitespace (no group);
# `bad` is any other character.
_TOKEN = re.compile(r"(?P<newline>\n)|[^\S\n]+|(?P<num>[0-9]+)|(?P<name>\w+)"
                    r"|(?P<punct>[-+*/(),])|(?P<bad>.)", re.DOTALL)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The (kind, text, line, column) tokens of text, then an 'end' token."""
    tokens, line, line_start = [], 1, 0
    for match in _TOKEN.finditer(text):
        kind, word = match.lastgroup, match[0]
        column = match.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "bad" or kind == "name" and not word[0].isalpha():
            raise ParseError(f"unexpected character {word[0]!r}", line, column)
        elif kind:
            tokens.append((kind, word, line, column))
    tokens.append(("end", "", line, len(text) - line_start + 1))
    return tokens


# The monomial forms as token patterns: "V" reads a variable, and any other
# entry must be the token itself.  A form is the signed sum of its shapes
# over the variables read; a comb monomial is its own shape.
_TREE_FORMS = (
    (("(", "V", "*", "V", ")", "*", "V"), ((1, LEFT),)),
    (("V", "*", "(", "V", "*", "V", ")"), ((1, RIGHT),)),
    (("A", "(", "V", ",", "V", ",", "V", ")"), ((1, LEFT), (-1, RIGHT))),
)
_COMB_FORMS = tuple(((name,), ((1, name),)) for name in COMB_NAMES)
# Each syntax's forms by first token, and coordinates by (shape, variables).
_FORMS = {
    syntax: {first: (pattern, shapes) for pattern, shapes in forms
             for first in (VAR_LABELS if pattern[0] == "V" else [pattern[0]])}
    for syntax, forms in [("tree", _TREE_FORMS),
                          ("comb", _TREE_FORMS + _COMB_FORMS)]
}
_COORDINATE = {
    "tree": {(m.shape, m.labels): m.index for m in MONOMIALS},
    "comb": {(name, ()): p for p, name in enumerate(COMB_NAMES)},
}
_SIGNS = {"+": 1, "-": -1}


class _Parser:
    """A cursor over the tokens of one text."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos][1]

    def kind(self) -> str:
        return self.tokens[self.pos][0]

    def next(self) -> str:
        self.pos += 1
        return self.tokens[self.pos - 1][1]

    def error(self, message: str, pos: int | None = None):
        _, _, line, column = self.tokens[self.pos if pos is None else pos]
        raise ParseError(message, line, column)

    def expect(self, text: str, message: str | None = None):
        if self.peek() != text:
            self.error(message or f"expected {text!r}, found {self.peek()!r}")
        self.pos += 1

    def lookup(self, table: dict, what: str):
        """table[next token], or an error naming it as an unknown `what`."""
        if self.peek() not in table:
            self.error(f"unknown {what} {self.peek()!r}")
        return table[self.next()]

    def sign(self) -> int | None:
        """Read a '+' or '-' as 1 or -1; None if the next token is neither."""
        return _SIGNS[self.next()] if self.peek() in _SIGNS else None

    def number(self) -> int:
        """The value of the number token at the cursor."""
        try:
            return int(self.peek())
        except ValueError:  # more digits than int() converts
            self.error(f"number too long ({len(self.peek())} digits)")

    def rational(self) -> Fraction:
        num = self.number()
        self.pos += 1
        if self.peek() != "/":
            return Fraction(num)
        self.pos += 1
        den = self.number() if self.kind() == "num" else 0
        if den == 0:
            self.error("expected a positive integer denominator")
        self.pos += 1
        return Fraction(num, den)

    def signed_terms(self, term) -> list:
        """The (coefficient, term()) pairs of the whole text."""
        if len(self.tokens) == 2 and self.peek() == "0":
            return []  # a lone 0 is the zero element
        terms, sign = [], self.sign() or 1
        while sign is not None:
            coeff = sign
            if self.kind() == "num":
                coeff *= self.rational()
                self.expect("*", "expected '*' after a coefficient")
            terms.append((coeff, term()))
            sign = self.sign()
        if self.kind() != "end":
            self.error(f"unexpected trailing input {self.peek()!r}")
        return terms

    def monomial(self, forms: dict) -> list:
        """The (sign, (shape, variables)) parts of the monomial of `forms`
        that starts at the next token."""
        start = self.pos
        if self.peek() not in forms:
            self.error(f"expected a monomial, found {self.peek()!r}")
        pattern, shapes = forms[self.peek()]
        labels = []
        for entry in pattern:
            if entry == "V":
                labels.append(self.lookup(VAR_LABELS, "variable"))
            else:
                self.expect(entry)
        if len(set(labels)) < len(labels):
            self.error("repeated variable in a monomial", start)
        return [(sign, (shape, tuple(labels))) for sign, shape in shapes]


def _weight3(text: str, symmetry: SymmetryClass, syntax: str) -> Weight3Element:
    """Parse the whole text, then add each term's signed coordinates."""
    parser = _Parser(text)
    terms = parser.signed_terms(lambda: parser.monomial(_FORMS[syntax]))
    coordinate = _COORDINATE[syntax]
    coords = [ZERO] * len(coordinate)
    for coeff, parts in terms:
        for sign, key in parts:
            if key not in coordinate:
                raise ValueError(
                    "comb relations may only use the monomials m1, m2, m3"
                )
            coords[coordinate[key]] += sign * coeff
    return Weight3Element(symmetry, tuple(coords))


def parse_relation(text: str) -> Weight3Element:
    """Parse a relation in the regular (no-symmetry) 12-monomial basis."""
    return _weight3(text, REGULAR, "tree")


def parse_comb_relation(text: str, symmetry: SymmetryClass) -> Weight3Element:
    """Parse a relation over the comb monomials m1, m2, m3."""
    if symmetry is REGULAR:
        raise ValueError("comb relations live in the symmetric classes")
    return _weight3(text, symmetry, "comb")


def parse_group_vector(text: str) -> GroupVector:
    """Parse a group-algebra vector over Id, t12, t13, t23, c1, c2."""
    parser = _Parser(text)
    terms = parser.signed_terms(
        lambda: parser.lookup(PERM_BY_NAME, "permutation symbol"))
    coeffs = dict.fromkeys(PERMS, ZERO)
    for coeff, p in terms:
        coeffs[p] += coeff
    return GroupVector(tuple(coeffs.values()))


# ---------------------------------------------------------------------------
# Canonical printing.


def _format_terms(pairs) -> str:
    parts = []
    for coeff, label in pairs:
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        body = label if mag == 1 else f"{mag}*{label}"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def format_weight3(x: Weight3Element) -> str:
    if x.symmetry is REGULAR:
        return _format_terms(
            (x.coords[m.index], str(m)) for m in MONOMIALS
        )
    return _format_terms(zip(x.coords, COMB_NAMES))


def format_group_vector(v: GroupVector) -> str:
    return _format_terms((v[p], PERM_NAMES[p]) for p in PERMS)
