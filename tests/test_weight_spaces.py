import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operad_forge.group_module import C1, ID, PERMS, T12, T23, group_vector
from operad_forge.weight_spaces import (
    ANTICOMMUTATIVE,
    ASSOCIATOR,
    COMMUTATIVE,
    LEFT,
    MONOMIALS,
    PROJECTION,
    PSI_INDEX,
    REGULAR,
    RIGHT,
    Monomial3,
    Weight3Element,
    act,
    act_monomial,
    act_vector,
    associator,
    comb_in,
    decompose_LR,
    lift,
    project,
    psi,
)

from conftest import group_vectors, reference_project


def test_dimension_of_weight_spaces():
    assert REGULAR.dim == 12
    assert COMMUTATIVE.dim == 3
    assert ANTICOMMUTATIVE.dim == 3
    assert len(MONOMIALS) == 12
    assert len({m.index for m in MONOMIALS}) == 12


def test_monomial_printing():
    assert str(Monomial3(LEFT, (1, 2, 3))) == "(x1*x2)*x3"
    assert str(Monomial3(RIGHT, (3, 1, 2))) == "x3*(x1*x2)"


def test_act_relabels_by_inverse():
    m = Monomial3(LEFT, (1, 2, 3))
    assert act_monomial(T23, m) == Monomial3(LEFT, (1, 3, 2))
    # c1 maps 1->2, 2->3, 3->1, so leaves relabel by its inverse c2
    assert act_monomial(C1, m) == Monomial3(LEFT, (3, 1, 2))


def test_act_is_an_action():
    x = Weight3Element.monomial(RIGHT, (2, 1, 3)) - Weight3Element.monomial(
        LEFT, (3, 2, 1), 2
    )
    for p in PERMS:
        for q in PERMS:
            assert act(p, act(q, x)) == act(p * q, x)


def _reference_act(sigma, x):
    """The action before the tables: lift, relabel monomials, project."""
    if x.symmetry is REGULAR:
        coords = [Fraction(0)] * 12
        for m in MONOMIALS:
            c = x.coords[m.index]
            if c != 0:
                coords[act_monomial(sigma, m).index] += c
        return Weight3Element(REGULAR, tuple(coords))
    return project(_reference_act(sigma, lift(x)), x.symmetry)


def test_action_tables_match_the_reference_action():
    rng = random.Random(3)
    for symmetry in (REGULAR, COMMUTATIVE, ANTICOMMUTATIVE):
        n = symmetry.dim
        units = [tuple(Fraction(int(i == j)) for j in range(n))
                 for i in range(n)]
        randoms = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                         for _ in range(n)) for _ in range(50)]
        for sigma in PERMS:
            for coords in units + randoms:
                x = Weight3Element(symmetry, coords)
                want = _reference_act(sigma, x)
                assert act(sigma, x) == want
                assert act_vector(symmetry, sigma, coords) == want.coords


def test_project_associator_commutative():
    got = project(associator((1, 2, 3)), COMMUTATIVE)
    assert got == comb_in(COMMUTATIVE, 1) - comb_in(COMMUTATIVE, 2)


def test_project_right_monomial_anticommutative():
    got = project(Weight3Element.monomial(RIGHT, (1, 2, 3)), ANTICOMMUTATIVE)
    assert got == comb_in(ANTICOMMUTATIVE, 2, -1)


def test_project_cyclic_sum_anticommutative():
    x = (
        Weight3Element.monomial(LEFT, (1, 2, 3))
        + Weight3Element.monomial(LEFT, (2, 3, 1))
        + Weight3Element.monomial(LEFT, (3, 1, 2))
    )
    got = project(x, ANTICOMMUTATIVE)
    assert got == (
        comb_in(ANTICOMMUTATIVE, 1)
        + comb_in(ANTICOMMUTATIVE, 2)
        + comb_in(ANTICOMMUTATIVE, 3)
    )


def test_project_then_lift_round_trip():
    for symmetry in (COMMUTATIVE, ANTICOMMUTATIVE):
        x = comb_in(symmetry, 1, 2) - comb_in(symmetry, 3, "1/2")
        assert project(lift(x), symmetry) == x


def test_project_is_equivariant():
    x = Weight3Element.monomial(LEFT, (2, 1, 3)) + Weight3Element.monomial(
        RIGHT, (1, 3, 2), 3
    )
    for symmetry in (COMMUTATIVE, ANTICOMMUTATIVE):
        for p in PERMS:
            assert project(act(p, x), symmetry) == act(p, project(x, symmetry))


def test_projection_table_matches_comb_rewriting():
    for symmetry in (REGULAR, COMMUTATIVE, ANTICOMMUTATIVE):
        assert len(PROJECTION[symmetry]) == 12
        for m in MONOMIALS:
            x = Weight3Element.monomial(m.shape, m.labels)
            want = reference_project(x, symmetry).coords
            p, s = PROJECTION[symmetry][m.index]
            assert want[p] == s and sum(map(abs, want)) == 1
            assert project(x, symmetry) == reference_project(x, symmetry)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.fractions(max_denominator=9), min_size=12, max_size=12))
def test_project_matches_comb_rewriting(coords):
    x = Weight3Element(REGULAR, tuple(coords))
    for symmetry in (REGULAR, COMMUTATIVE, ANTICOMMUTATIVE):
        got = project(x, symmetry)
        assert got == reference_project(x, symmetry)
        assert all(type(c) is Fraction for c in got.coords)


def test_psi_identity():
    assert psi(group_vector((1, ID)), LEFT) == Weight3Element.monomial(
        LEFT, (1, 2, 3)
    )
    assert ASSOCIATOR == psi(group_vector((1, ID)), LEFT) - psi(
        group_vector((1, ID)), RIGHT
    )


def reference_psi(v, side):
    """psi as a sum of one monomial per group element, entry by entry."""
    base = Monomial3(side, (1, 2, 3))
    out = Weight3Element.zero(REGULAR)
    for sigma in PERMS:
        c = v[sigma]
        if c != 0:
            m = act_monomial(sigma, base)
            out = out + Weight3Element.monomial(m.shape, m.labels, c)
    return out


def test_psi_index_places_each_shape_bijectively():
    assert sorted(PSI_INDEX[LEFT]) == list(range(6))
    assert sorted(PSI_INDEX[RIGHT]) == list(range(6, 12))
    assert PSI_INDEX[LEFT][0] == Monomial3(LEFT, (1, 2, 3)).index


@settings(max_examples=200, derandomize=True, deadline=None)
@given(group_vectors(), st.sampled_from([LEFT, RIGHT]))
def test_psi_matches_the_monomial_loop(v, side):
    assert psi(v, side) == reference_psi(v, side)


def test_psi_rejects_bad_side():
    with pytest.raises(ValueError):
        psi(group_vector((1, ID)), "M")


def test_decompose_leibniz_relation():
    # x(yz) - (xy)z + (xz)y
    x = (
        Weight3Element.monomial(RIGHT, (1, 2, 3))
        - Weight3Element.monomial(LEFT, (1, 2, 3))
        + Weight3Element.monomial(LEFT, (1, 3, 2))
    )
    v, w = decompose_LR(-x)  # sign convention: leading left-comb term positive
    assert v == group_vector((1, ID), (-1, T23))
    assert w == group_vector((1, ID))


def test_decompose_round_trip():
    x = Weight3Element(
        REGULAR, tuple(Fraction(k * k - 4, 3) for k in range(12))
    )
    v, w = decompose_LR(x)
    assert psi(v, LEFT) - psi(w, RIGHT) == x


def test_decompose_rejects_symmetric_class():
    with pytest.raises(ValueError):
        decompose_LR(comb_in(COMMUTATIVE, 1))


def test_mixed_symmetry_arithmetic_rejected():
    with pytest.raises(ValueError):
        comb_in(COMMUTATIVE, 1) + comb_in(ANTICOMMUTATIVE, 1)


def test_comb_in_rejects_regular():
    with pytest.raises(ValueError):
        comb_in(REGULAR, 1)
