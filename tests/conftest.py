import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm

from hypothesis import strategies as st

from operad_forge import algebra_instances, operad_calculus
from operad_forge.algebra_instances import AlgebraInstance, Violation
from operad_forge.foundation import full_space, kernel, span
from operad_forge.group_module import (
    C1,
    PERM_BY_NAME,
    PERMS,
    T12,
    GroupVector,
    IsotypicProfile,
    check_invariant,
)
from operad_forge.operad_calculus import RelationModule, orbit_span, rank
from operad_forge.relation_dsl import VAR_LABELS, ParseError
from operad_forge.tensor_closure import PAIR_KEYS, SWAP, leaks
from operad_forge.weight_spaces import (
    ACTION_TABLE,
    ANTICOMMUTATIVE,
    COMB_NAMES,
    COMB_PAIRS,
    COMMUTATIVE,
    LEFT,
    MONOMIALS,
    PROJECTION,
    REGULAR,
    RIGHT,
    Monomial3,
    Weight3Element,
    act_vector,
    apply_node_swaps,
    decompose_LR,
)

# Denominators with large coprime factors, so that integer scaling and the
# gcd normalization meet numbers far beyond machine words.
DENOMINATORS = (1, 1, 1, 2, 3, 7, 10007, 65537, 2 ** 31 - 1, 999983 * 7919)

ASSOCIATOR = (
    Weight3Element.monomial(LEFT, (1, 2, 3))
    - Weight3Element.monomial(RIGHT, (1, 2, 3))
)


def example_names():
    """The names of the instance catalog, sorted."""
    return sorted(algebra_instances._CATALOG)


def example(name):
    """The instance catalog's algebra of that name."""
    if name not in algebra_instances._CATALOG:
        raise ValueError(f"unknown example name: {name!r}")
    return algebra_instances._CATALOG[name]


def comb_in(symmetry, p, coeff=1):
    """coeff times the comb monomial m_p of a symmetric class."""
    if symmetry is REGULAR:
        raise ValueError("comb basis lives in the symmetric classes")
    coords = [Fraction(0)] * 3
    coords[p - 1] = Fraction(coeff)
    return Weight3Element(symmetry, tuple(coords))


def act(sigma, x):
    """sigma applied to a weight-3 element, through `act_vector`."""
    return Weight3Element(x.symmetry, act_vector(x.symmetry, sigma, x.coords))


def intersection(s, t):
    """S ∩ T = (S^⊥ + T^⊥)^⊥."""
    n = s.ambient_dim
    return kernel(kernel(s.rows, n).rows + kernel(t.rows, n).rows, n)


def null_vectors(basis, ncols):
    """Vectors spanning {x : b . x = 0 for every b in basis}, from a Fraction
    RREF basis alone: e_f - sum_i b_i[f] e_{p_i} for each column f that is
    no pivot p_i."""
    pivots = [next(j for j, e in enumerate(b) if e) for b in basis]
    null = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(int(j == f)) for j in range(ncols)]
            for b, p in zip(basis, pivots):
                v[p] = -b[f]
            null.append(v)
    return null


def _reference_table(alg):
    """{abc: the 12 regular monomials evaluated on (e_a, e_b, e_c)} over
    the n**3 ordered triples, 0-based, in lexicographic order: each value
    a sparse {k: Fraction} dict, computed a triple at a time through the
    instance's own nonzero structure constants."""
    prod = [[{k: v for k, v in enumerate(cell) if v} for cell in row]
            for row in alg.structure]

    def apply(u, row):
        """The sum over p of u[p] times the sparse vector row(p)."""
        out = {}
        for p, x in u.items():
            for k, y in row(p).items():
                out[k] = out.get(k, 0) + x * y
        return out

    def values(abc):
        out = []
        for m in MONOMIALS:
            i, j, k = (abc[label - 1] for label in m.labels)
            out.append(apply(prod[i][j], lambda p: prod[p][k])
                       if m.shape is LEFT
                       else apply(prod[j][k], lambda p: prod[i][p]))
        return out

    return {abc: values(abc)
            for abc in itertools.product(range(alg.dim), repeat=3)}


def reference_relations(alg):
    """Rel(A) from the whole table of monomial values: every nonzero
    column (a, b, c, k) of each of the n**3 triples, then their span, then
    the Fraction nullspace of that span."""
    columns = set()
    for evals in _reference_table(alg).values():
        for k in set().union(*evals):
            columns.add(tuple(e.get(k, 0) for e in evals))
    columns.discard((0,) * 12)
    basis = span(columns, 12).basis
    return RelationModule(REGULAR, span(null_vectors(basis, 12), 12))


def reference_table_violations(alg, relations):
    """Every regular relation summed over the whole table of monomial
    values on every ordered basis triple, relation by relation, as a list
    of Violations."""
    table = _reference_table(alg)
    out = []
    for x in relations:
        for abc, evals in table.items():
            total = [Fraction(0)] * alg.dim
            for c, value in zip(x.coords, evals):
                if c:
                    for k, v in value.items():
                        total[k] += c * v
            if any(total):
                out.append(Violation(x, tuple(t + 1 for t in abc),
                                     tuple(total)))
    return out


def white_product(r_a, r_b, product):
    """W_mu(R_A, R_B), the arity-3 white product (Ginzburg-Kapranov 1994,
    Vallette 2008): the kernel of the residuals of the 12 unit monomials,
    flattened."""
    dim_b = r_b.symmetry.dim
    rows = []
    for m in MONOMIALS:
        flat = [Fraction(0)] * (12 * dim_b)
        for i, row in leaks(Weight3Element.monomial(m.shape, m.labels),
                            product, r_a, r_b):
            flat[i * dim_b:(i + 1) * dim_b] = row
        rows.append(flat)
    return kernel(zip(*rows), 12)


def full_module(symmetry):
    return RelationModule(symmetry, full_space(symmetry.dim))


def zero_module(symmetry):
    return RelationModule(symmetry, span([], symmetry.dim))


def rationals(max_num=9, max_den=5):
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def perms():
    return st.sampled_from(PERMS)


def group_vectors():
    return st.builds(
        lambda cs: GroupVector(tuple(cs)),
        st.lists(rationals(), min_size=6, max_size=6),
    )


def weight_elements(symmetry=REGULAR):
    return st.builds(
        lambda cs: Weight3Element(symmetry, tuple(cs)),
        st.lists(rationals(), min_size=symmetry.dim, max_size=symmetry.dim),
    )


def any_symmetry():
    return st.sampled_from([REGULAR, COMMUTATIVE, ANTICOMMUTATIVE])


def reference_project(x, target):
    """`project` before PROJECTION: rewrite comb pairs monomial by monomial."""
    if target is REGULAR:
        return x
    coords = [Fraction(0)] * 3
    for m in MONOMIALS:
        c = x.coords[m.index]
        if c == 0:
            continue
        i, j, k = m.labels
        if m.shape == LEFT:
            pair, sign = (i, j), 1
        else:
            pair, sign = (j, k), -1
        idx = next(n for n, q in enumerate(COMB_PAIRS) if set(q) == set(pair))
        if target is ANTICOMMUTATIVE:
            if pair != COMB_PAIRS[idx]:
                sign = -sign
            coords[idx] += c * sign
        else:
            coords[idx] += c
    return Weight3Element(target, tuple(coords))


# --- the closure path before the bilinear normal form -----------------------


@dataclass(frozen=True)
class TensorElement3:
    """An element of (weight-3 space of A) (x) (weight-3 space of B)."""

    sym_a: object
    sym_b: object
    coords: tuple  # matrix, rows indexed by A-side monomials


@cache
def reference_expand(relation, product, sym_a=REGULAR, sym_b=REGULAR):
    """The expansion of a regular template as a dense matrix: each swapped
    pair of monomials lands on its signed coordinates through PROJECTION.
    Cached: a TensorElement3 is immutable, and the differential tests
    reduce one expansion against many modules."""
    if relation.symmetry is not REGULAR:
        raise ValueError("expansion templates live in the regular class")
    proj_a, proj_b = PROJECTION[sym_a], PROJECTION[sym_b]
    # (A root swap, A inner swap, B root swap, B inner swap, coefficient)
    swaps = [(s_r == SWAP, s_i == SWAP, t_r == SWAP, t_i == SWAP, a_r * a_i)
             for (s_r, t_r), a_r in zip(PAIR_KEYS, product.coeffs) if a_r
             for (s_i, t_i), a_i in zip(PAIR_KEYS, product.coeffs) if a_i]
    out = [[Fraction(0)] * sym_b.dim for _ in range(sym_a.dim)]
    for m in MONOMIALS:
        c = relation.coords[m.index]
        if c == 0:
            continue
        for root_a, inner_a, root_b, inner_b, a in swaps:
            ia, sa = proj_a[apply_node_swaps(m, root_a, inner_a).index]
            ib, sb = proj_b[apply_node_swaps(m, root_b, inner_b).index]
            out[ia][ib] += c * a if sa == sb else -c * a
    return TensorElement3(sym_a, sym_b, tuple(tuple(row) for row in out))


def reference_jacobiator_template():
    """The Jacobi sum of nested commutators: [[a,b],c] expanded with
    [x,y] = xy - yx at both nodes, summed over the cyclic arrangements."""
    out = Weight3Element.zero(REGULAR)
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        base = Monomial3(LEFT, (a, b, c))
        for root_swap in (False, True):
            for inner_swap in (False, True):
                sign = (-1 if root_swap else 1) * (-1 if inner_swap else 1)
                m = apply_node_swaps(base, root_swap, inner_swap)
                out = out + Weight3Element.monomial(m.shape, m.labels).scaled(
                    sign)
    return out


def reference_act_tensor(sigma, t):
    """The diagonal (sigma, sigma) action on both tensor factors."""
    table_b = ACTION_TABLE[t.sym_b, sigma]
    return TensorElement3(t.sym_a, t.sym_b, tuple(
        tuple(sa * sb * t.coords[ia][ib] for ib, sb in table_b)
        for ia, sa in ACTION_TABLE[t.sym_a, sigma]
    ))


def reference_membership(t, r_a, r_b):
    """Residuals of t modulo R_A (x) Gamma_B + Gamma_A (x) R_B: each B-side
    column reduced modulo R_A, then each surviving coset row modulo R_B."""
    if r_a.symmetry is not t.sym_a or r_b.symmetry is not t.sym_b:
        raise ValueError("relation modules do not match the expansion classes")
    columns = [r_a.space.reduce(column) for column in zip(*t.coords)]
    residuals = []
    for i in r_a.space.complement_columns():
        res = r_b.space.reduce(tuple(column[i] for column in columns))
        if any(res):
            residuals.append((i, res))
    return tuple(residuals)


def reference_closure(r_a, r_b, product, targets):
    """The residual tuple of each target, by expansion and then membership."""
    return [reference_membership(
        reference_expand(tgt, product, r_a.symmetry, r_b.symmetry), r_a, r_b)
        for tgt in targets]


# --- the dense instance evaluator before the shared monomial table ----------


def _dense_product(alg, u, v):
    """u * v in A, from dense coordinate vectors."""
    out = [Fraction(0)] * alg.dim
    for i in range(alg.dim):
        if u[i] == 0:
            continue
        for j in range(alg.dim):
            if v[j] == 0:
                continue
            c = alg.structure[i][j]
            f = u[i] * v[j]
            for k in range(alg.dim):
                if c[k] != 0:
                    out[k] += f * c[k]
    return tuple(out)


def _dense_monomial(alg, m, triple):
    i, j, k = m.labels
    xi, xj, xk = triple[i - 1], triple[j - 1], triple[k - 1]
    if m.shape == LEFT:
        return _dense_product(alg, _dense_product(alg, xi, xj), xk)
    return _dense_product(alg, xi, _dense_product(alg, xj, xk))


def reference_violations(alg, relations):
    """Every regular relation evaluated on every ordered basis triple by
    dense products, relation by relation, as a list of Violations."""
    basis = [tuple(Fraction(1 if j == i else 0) for j in range(alg.dim))
             for i in range(alg.dim)]
    out = []
    for x in relations:
        support = [m for m in MONOMIALS if x.coords[m.index] != 0]
        for triple_idx in itertools.product(range(alg.dim), repeat=3):
            triple = [basis[t] for t in triple_idx]
            total = [Fraction(0)] * alg.dim
            for m in support:
                val = _dense_monomial(alg, m, triple)
                c = x.coords[m.index]
                for k in range(alg.dim):
                    if val[k] != 0:
                        total[k] += c * val[k]
            if any(v != 0 for v in total):
                out.append(Violation(x, tuple(t + 1 for t in triple_idx),
                                     tuple(total)))
    return out


def reference_tensor_instance(a, b, product):
    """Structure constants of A (x) B over all n^6 index combinations."""
    n = a.dim * b.dim
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, p in itertools.product(range(a.dim), range(b.dim)):
        for j, q in itertools.product(range(a.dim), range(b.dim)):
            row = i * b.dim + p
            col = j * b.dim + q
            for s, t in PAIR_KEYS:
                alpha = product[(s, t)]
                if alpha == 0:
                    continue
                ii, jj = (j, i) if s == SWAP else (i, j)
                pp, qq = (q, p) if t == SWAP else (p, q)
                ca = a.structure[ii][jj]
                cb = b.structure[pp][qq]
                for k in range(a.dim):
                    if ca[k] == 0:
                        continue
                    for r in range(b.dim):
                        if cb[r] == 0:
                            continue
                        c[row][col][k * b.dim + r] += alpha * ca[k] * cb[r]
    return AlgebraInstance(n, tuple(tuple(tuple(v) for v in row) for row in c))


# --- the relation parser before the token-pattern table ----------------------


@dataclass
class _Token:
    kind: str  # 'num', 'name', 'punct', 'end'
    text: str
    line: int
    column: int


def _reference_tokenize(text):
    """The per-character tokenizer: any `str.isdigit` run is a number."""
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/(),":
            tokens.append(_Token("punct", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _ReferenceParser:
    """The recursive-descent parser with one branch per monomial form."""

    def __init__(self, text):
        self.tokens = _reference_tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect(self, text):
        tok = self.peek()
        if tok.text != text:
            self.error(f"expected {text!r}, found {tok.text!r}")
        return self.next()

    def at_end(self):
        return self.peek().kind == "end"

    def rational(self):
        tok = self.peek()
        if tok.kind != "num":
            self.error(f"expected a number, found {tok.text!r}")
        self.next()
        num = int(tok.text)
        if self.peek().text == "/":
            self.next()
            den_tok = self.peek()
            if den_tok.kind != "num" or int(den_tok.text) == 0:
                self.error("expected a positive integer denominator")
            self.next()
            return Fraction(num, int(den_tok.text))
        return Fraction(num)

    def signed_terms(self, term_fn):
        out = []
        if self.peek().text == "0" and self.tokens[self.pos + 1].kind == "end":
            self.next()
            return out
        sign = Fraction(1)
        if self.peek().text == "-":
            self.next()
            sign = Fraction(-1)
        elif self.peek().text == "+":
            self.next()
        while True:
            coeff = sign
            if self.peek().kind == "num":
                coeff = sign * self.rational()
                if self.peek().text == "*":
                    self.next()
                else:
                    self.error("expected '*' after a coefficient")
            out.append((coeff, term_fn()))
            tok = self.peek()
            if tok.text == "+":
                sign = Fraction(1)
                self.next()
            elif tok.text == "-":
                sign = Fraction(-1)
                self.next()
            else:
                break
        if not self.at_end():
            self.error(f"unexpected trailing input {self.peek().text!r}")
        return out

    def var(self):
        tok = self.peek()
        if tok.kind != "name" or tok.text not in VAR_LABELS:
            self.error(f"unknown variable {tok.text!r}")
        self.next()
        return VAR_LABELS[tok.text]

    def monomial(self, allow_comb):
        tok = self.peek()
        if tok.text == "(":
            self.next()
            a = self.var()
            self.expect("*")
            b = self.var()
            self.expect(")")
            self.expect("*")
            c = self.var()
            self._distinct(a, b, c, tok)
            return [(Fraction(1), Weight3Element.monomial(LEFT, (a, b, c)))]
        if tok.kind == "name" and tok.text == "A":
            self.next()
            self.expect("(")
            a = self.var()
            self.expect(",")
            b = self.var()
            self.expect(",")
            c = self.var()
            self.expect(")")
            self._distinct(a, b, c, tok)
            return [
                (Fraction(1), Weight3Element.monomial(LEFT, (a, b, c))),
                (Fraction(-1), Weight3Element.monomial(RIGHT, (a, b, c))),
            ]
        if allow_comb and tok.kind == "name" and tok.text in COMB_NAMES:
            self.next()
            return [("comb", COMB_NAMES.index(tok.text) + 1)]
        if tok.kind == "name" and tok.text in VAR_LABELS:
            a = self.var()
            self.expect("*")
            self.expect("(")
            b = self.var()
            self.expect("*")
            c = self.var()
            self.expect(")")
            self._distinct(a, b, c, tok)
            return [(Fraction(1), Weight3Element.monomial(RIGHT, (a, b, c)))]
        self.error(f"expected a monomial, found {tok.text!r}")

    def _distinct(self, a, b, c, tok):
        if len({a, b, c}) != 3:
            raise ParseError(
                "repeated variable in a monomial", tok.line, tok.column
            )


def reference_parse_relation(text):
    """`parse_relation` summing one whole vector per monomial."""
    parser = _ReferenceParser(text)
    terms = parser.signed_terms(lambda: parser.monomial(allow_comb=False))
    out = Weight3Element.zero(REGULAR)
    for coeff, parts in terms:
        for c, mono in parts:
            out = out + mono.scaled(coeff * c)
    return out


def reference_parse_comb_relation(text, symmetry):
    """`parse_comb_relation` summing one whole vector per monomial."""
    if symmetry is REGULAR:
        raise ValueError("comb relations live in the symmetric classes")
    parser = _ReferenceParser(text)
    terms = parser.signed_terms(lambda: parser.monomial(allow_comb=True))
    out = Weight3Element.zero(symmetry)
    for coeff, parts in terms:
        for tag, payload in parts:
            if tag != "comb":
                raise ValueError(
                    "comb relations may only use the monomials m1, m2, m3"
                )
            out = out + comb_in(symmetry, payload, coeff)
    return out


def reference_parse_group_vector(text):
    """`parse_group_vector` summing one whole vector per symbol."""
    parser = _ReferenceParser(text)

    def perm():
        tok = parser.peek()
        if tok.kind != "name" or tok.text not in PERM_BY_NAME:
            parser.error(f"unknown permutation symbol {tok.text!r}")
        parser.next()
        return PERM_BY_NAME[tok.text]

    terms = parser.signed_terms(perm)
    out = (Fraction(0),) * 6
    for coeff, p in terms:
        out = tuple(a + coeff * b
                    for a, b in zip(out, GroupVector.basis(p).coeffs))
    return GroupVector(out)


# --- presentations and characters before the integer RREF --------------------


def reference_random_generators(r, k, rng):
    """`_random_generators` when subspaces held Fraction bases: each
    generator a Fraction sum of basis elements scaled by integers in -9..9."""
    basis = r.basis_elements()
    gens = []
    for _ in range(k):
        g = Weight3Element.zero(r.symmetry)
        for b in basis:
            g = g + b.scaled(Fraction(rng.randint(-9, 9)))
        gens.append(g)
    return gens if orbit_span(gens, r.symmetry).space == r.space else None


def reference_find_presentation(p, seed=0):
    """`find_presentation` over `reference_random_generators`."""
    k = rank(p.relations)
    if k == 0:
        return []
    rng = random.Random(seed)
    for _ in range(operad_calculus._PRESENTATION_TRIES):
        gens = reference_random_generators(p.relations, k, rng)
        if gens is not None:
            return [decompose_LR(operad_calculus._equivariant_lift(g))
                    for g in gens]
    raise RuntimeError("no generating set found within the retry budget")


def reference_character_multiplicities(s, act):
    """`isotypic_multiplicities` when subspaces held Fraction bases: each
    character value a sum of Fraction pivot entries of act(p, b) over the
    basis b, added as integers over their least common denominator."""
    check_invariant(s, act)

    def chi(p):
        entries = [act(p, b)[i] for b, i in zip(s.basis, s.pivot_columns())]
        d = lcm(*[x.denominator for x in entries])
        n = sum(x.numerator * (d // x.denominator) for x in entries)
        if n % d:
            raise ValueError(f"character value {Fraction(n, d)} on "
                             f"{p.name} is not an integer")
        return n // d

    e, t, c = s.dim, chi(T12), chi(C1)
    sixfold = (e + 3 * t + 2 * c, e - 3 * t + 2 * c, 2 * e - 2 * c)
    if any(n % 6 or n < 0 for n in sixfold):
        raise ValueError(
            f"character ({e}, {t}, {c}) on (Id, t12, c1) is not a "
            f"character of the symmetric group"
        )
    return IsotypicProfile(*(n // 6 for n in sixfold))
