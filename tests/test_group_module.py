from fractions import Fraction

import pytest

from operad_forge.group_module import (
    C1,
    C2,
    ID,
    PERMS,
    SUBGROUPS,
    T12,
    T13,
    T23,
    GroupVector,
    apply_idempotent,
    group_orbit_span,
    group_vector,
    IsotypicProfile,
    isotypic_multiplicities,
    minimal_generator_count,
    subgroup_alternating,
    subgroup_symmetric,
)
from operad_forge.foundation import full_space


def _translate(p, v):
    return GroupVector(v).translate(p).coeffs


def test_composition_table_facts():
    assert C1 * C1 == C2
    assert C1 * C2 == ID
    assert T12 * T12 == ID
    # left-to-right composition: (t12 * t13)(1) = t13(t12(1)) = t13(2) = 2
    assert (T12 * T13)(1) == 2
    assert T12 * T13 == C1


def test_inverse_and_sign():
    assert C1.inverse() == C2
    for p in PERMS:
        assert p * p.inverse() == ID
    assert [p.sign() for p in PERMS] == [1, -1, -1, -1, 1, 1]


def test_perm_rejects_non_permutation():
    from operad_forge.group_module import Perm3

    with pytest.raises(ValueError):
        Perm3((1, 1, 3))


def test_subgroups_are_closed():
    for elems in SUBGROUPS.values():
        for p in elems:
            for q in elems:
                assert p * q in elems


def test_translate_is_left_multiplication():
    v = group_vector((1, ID), (-1, T23))
    # t12 * t23 = c2 under left-to-right composition
    assert v.translate(T12) == group_vector((1, T12), (-1, C2))


def test_v_and_w_vectors():
    assert subgroup_alternating(6) == group_vector(
        (1, ID), (-1, T12), (-1, T13), (-1, T23), (1, C1), (1, C2)
    )
    assert subgroup_symmetric(6) == group_vector(*((1, p) for p in PERMS))
    assert subgroup_alternating(2) == group_vector((1, ID), (-1, T12))
    assert subgroup_symmetric(5) == group_vector((1, ID), (1, C1), (1, C2))


def test_one_dimensional_orbit_spans():
    # the alternating and symmetric full sums each span a line
    assert group_orbit_span(subgroup_alternating(6)).dim == 1
    assert group_orbit_span(subgroup_symmetric(6)).dim == 1


def test_five_dimensional_orbit_span():
    v = group_vector((2, ID), (-1, T12), (-1, T13), (-1, T23), (1, C1))
    assert group_orbit_span(v).dim == 5


def test_generic_orbit_is_everything():
    v = group_vector((1, ID), (2, T12), (3, C1))
    assert group_orbit_span(v) == full_space(6)


def test_isotypic_of_group_algebra():
    profile = isotypic_multiplicities(full_space(6), _translate)
    assert profile == IsotypicProfile(1, 1, 2)
    assert profile.dim == 6


def test_isotypic_rejects_non_invariant_space():
    from operad_forge.foundation import span

    with pytest.raises(ValueError):
        isotypic_multiplicities(span([[1, 0, 0, 0, 0, 0]], 6),
                                _translate)


def test_central_idempotents_of_the_identity():
    e = GroupVector.basis(ID).coeffs
    triv = apply_idempotent("triv", _translate, e)
    sgn = apply_idempotent("sgn", _translate, e)
    std = apply_idempotent("std", _translate, e)
    assert triv == subgroup_symmetric(6).scaled(Fraction(1, 6)).coeffs
    assert sgn == subgroup_alternating(6).scaled(Fraction(1, 6)).coeffs
    assert std == tuple(a - b - c for a, b, c in zip(e, triv, sgn))
    assert std == group_vector(
        ("2/3", ID), ("-1/3", C1), ("-1/3", C2)
    ).coeffs


def test_minimal_generator_count():
    assert minimal_generator_count(IsotypicProfile(1, 0, 0)) == 1
    assert minimal_generator_count(IsotypicProfile(1, 1, 2)) == 1
    assert minimal_generator_count(IsotypicProfile(2, 1, 3)) == 2
    assert minimal_generator_count(IsotypicProfile(0, 0, 1)) == 1


def test_group_vector_support_and_getitem():
    v = group_vector(("1/2", T23), (0, C1))
    assert v.support() == [T23]
    assert v[T23] == Fraction(1, 2)
    assert v[ID] == 0
