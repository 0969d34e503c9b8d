"""Property-based invariant suites.

Each suite is derandomized so every run exercises the same 200 generated
cases per property.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from operad_forge.foundation import span
from operad_forge.group_module import ID, PERMS
from operad_forge.operad_calculus import QuadraticOperad, dual, orbit_span, preset
from operad_forge.relation_dsl import (
    format_group_vector,
    format_weight3,
    parse_comb_relation,
    parse_group_vector,
    parse_relation,
)
from operad_forge.tensor_closure import E2, SWAP, MixedProduct, leaks
from operad_forge.weight_spaces import (
    ANTICOMMUTATIVE,
    COMMUTATIVE,
    LEFT,
    REGULAR,
    RIGHT,
    decompose_LR,
    psi,
)

from conftest import (
    act,
    any_symmetry,
    group_vectors,
    intersection,
    perms,
    rationals,
    reference_act_tensor,
    reference_expand,
    weight_elements,
)

COMMON = settings(max_examples=200, derandomize=True, deadline=None)


# --- group action -----------------------------------------------------------

@COMMON
@given(perms(), perms(), weight_elements(REGULAR))
def test_action_is_compatible_with_composition(p, q, x):
    assert act(p, act(q, x)) == act(p * q, x)


@COMMON
@given(any_symmetry().flatmap(weight_elements))
def test_identity_acts_trivially(x):
    assert act(ID, x) == x


@COMMON
@given(perms(), any_symmetry().flatmap(weight_elements))
def test_action_by_inverse_undoes_action(p, x):
    assert act(p.inverse(), act(p, x)) == x


# --- translation maps and their inverse -------------------------------------

@COMMON
@given(group_vectors(), group_vectors())
def test_decompose_recovers_translation_pair(v, w):
    x = psi(v, LEFT) - psi(w, RIGHT)
    assert decompose_LR(x) == (v, w)


@COMMON
@given(weight_elements(REGULAR))
def test_translation_pair_rebuilds_element(x):
    v, w = decompose_LR(x)
    assert psi(v, LEFT) - psi(w, RIGHT) == x


# --- dual involution --------------------------------------------------------

@COMMON
@given(st.lists(weight_elements(REGULAR), min_size=1, max_size=2))
def test_dual_is_involutive_on_regular_orbit_spans(xs):
    p = QuadraticOperad(REGULAR, orbit_span(xs, REGULAR))
    d = dual(p)
    assert p.relations.dim + d.relations.dim == 12
    assert dual(d).relations.space == p.relations.space


@COMMON
@given(
    st.sampled_from([COMMUTATIVE, ANTICOMMUTATIVE]).flatmap(
        lambda s: st.lists(weight_elements(s), min_size=1, max_size=2)
    )
)
def test_dual_is_involutive_on_symmetric_orbit_spans(xs):
    symmetry = xs[0].symmetry
    p = QuadraticOperad(symmetry, orbit_span(xs, symmetry))
    d = dual(p)
    assert d.symmetry is not symmetry
    assert p.relations.dim + d.relations.dim == 3
    assert dual(d).relations.space == p.relations.space


# --- subspace arithmetic ----------------------------------------------------

def _vectors(n):
    return st.lists(
        st.lists(rationals(), min_size=n, max_size=n),
        min_size=0, max_size=4,
    )


@COMMON
@given(_vectors(5), _vectors(5))
def test_sum_and_intersection_dimension_formula(rows_s, rows_t):
    s = span(rows_s, 5)
    t = span(rows_t, 5)
    total = span(s.basis + t.basis, 5)
    meet = intersection(s, t)
    assert s.dim + t.dim == total.dim + meet.dim
    assert s.is_subspace_of(total)
    assert t.is_subspace_of(total)
    assert meet.is_subspace_of(s)
    assert meet.is_subspace_of(t)


@COMMON
@given(_vectors(4))
def test_reduce_is_idempotent_and_kills_members(rows):
    s = span(rows, 4)
    for v in rows:
        assert s.contains(tuple(v))
    for b in s.basis:
        assert s.reduce(b) == (Fraction(0),) * 4
        assert s.reduce(s.reduce(b)) == s.reduce(b)


# --- relation language round trips ------------------------------------------

@COMMON
@given(weight_elements(REGULAR))
def test_print_parse_round_trip_regular(x):
    assert parse_relation(format_weight3(x)) == x


@COMMON
@given(st.sampled_from([COMMUTATIVE, ANTICOMMUTATIVE]).flatmap(weight_elements))
def test_print_parse_round_trip_comb(x):
    assert parse_comb_relation(format_weight3(x), x.symmetry) == x


@COMMON
@given(group_vectors())
def test_print_parse_round_trip_group_vector(v):
    assert parse_group_vector(format_group_vector(v)) == v


# --- tensor expansion -------------------------------------------------------

def mixed_products():
    return st.builds(
        lambda a, b, c, d: MixedProduct.from_dict(
            {(E2, E2): a, (E2, SWAP): b, (SWAP, E2): c, (SWAP, SWAP): d}
        ),
        rationals(), rationals(), rationals(), rationals(),
    )


@COMMON
@given(weight_elements(REGULAR), weight_elements(REGULAR), rationals(),
       mixed_products())
def test_expand_is_linear(x, y, c, product):
    lhs = reference_expand(x + y.scaled(c), product)
    rhs = reference_expand(x, product)
    tail = reference_expand(y, product)
    for i in range(12):
        for j in range(12):
            assert lhs.coords[i][j] == rhs.coords[i][j] + c * tail.coords[i][j]


@COMMON
@given(perms(), weight_elements(REGULAR), mixed_products())
def test_expand_intertwines_diagonal_action(sigma, x, product):
    assert reference_expand(act(sigma, x), product) == \
        reference_act_tensor(sigma, reference_expand(x, product))


def _dense_leaks(x, product, r_a, r_b):
    out = [[Fraction(0)] * r_b.symmetry.dim for _ in range(r_a.symmetry.dim)]
    for i, row in leaks(x, product, r_a, r_b):
        out[i] = list(row)
    return out


@COMMON
@given(weight_elements(REGULAR), weight_elements(REGULAR), rationals(),
       mixed_products(), st.sampled_from([("leib", "zinb"), ("ass", "poiss"),
                                          ("com", "lie"), ("lie", "com")]))
def test_leaks_are_linear(x, y, c, product, names):
    r_a, r_b = (preset(name).relations for name in names)
    lhs = _dense_leaks(x + y.scaled(c), product, r_a, r_b)
    rhs = _dense_leaks(x, product, r_a, r_b)
    tail = _dense_leaks(y, product, r_a, r_b)
    for i, row in enumerate(lhs):
        for j, entry in enumerate(row):
            assert entry == rhs[i][j] + c * tail[i][j]
