from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    check_invariant,
    group_orbit_span,
    group_vector,
    IsotypicProfile,
    isotypic_multiplicities,
    minimal_generator_count,
    subgroup_alternating,
    subgroup_symmetric,
)
from operad_forge.foundation import combine, full_space, span

from conftest import group_vectors


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


# --- the character formula against the idempotent images ----------------------


def reference_isotypic_multiplicities(s, act):
    """Multiplicities as the dimensions of the three idempotent images."""
    assert all(s.contains(act(p, b)) for b in s.basis for p in PERMS)
    dims = {}
    for kind in ("triv", "sgn", "std"):
        images = [apply_idempotent(kind, act, b) for b in s.basis]
        dims[kind] = span(images, s.ambient_dim).dim
    assert dims["std"] % 2 == 0
    return IsotypicProfile(dims["triv"], dims["sgn"], dims["std"] // 2)


def _invariant_subspaces_of_the_group_algebra():
    """Every distinct sum of at most two orbit spans of a fixed list."""
    gens = [subgroup_alternating(i) for i in range(1, 7)]
    gens += [subgroup_symmetric(i) for i in range(1, 7)]
    gens += [group_vector((1, ID), (-1, C1)),
             group_vector((2, ID), (-1, C1), (-1, C2)),
             group_vector((1, T12), (-1, T13)),
             group_vector((1, ID), (1, T12), (-2, C2))]
    orbits = [group_orbit_span(v) for v in gens]
    spaces = {span([], 6)}
    for k in (1, 2):
        for chosen in combinations(orbits, k):
            total = chosen[0]
            for t in chosen[1:]:
                total = combine(total, t, "sum")
            spaces.add(total)
    return sorted(spaces, key=lambda t: (t.dim, t.basis))


def test_characters_match_idempotents_on_group_algebra_submodules():
    spaces = _invariant_subspaces_of_the_group_algebra()
    assert {t.dim for t in spaces} == set(range(7))
    for t in spaces:
        assert isotypic_multiplicities(t, _translate) == \
            reference_isotypic_multiplicities(t, _translate)


@pytest.mark.parametrize("basis", [
    # t12 fixes Id + t12, but t23 moves it
    pytest.param([GroupVector.basis(ID) + GroupVector.basis(T12)],
                 id="t12-only"),
    # t23 fixes Id + t23, but t12 moves it
    pytest.param([GroupVector.basis(ID) + GroupVector.basis(T23)],
                 id="t23-only"),
    # the 3-cycles fix Id + c1 + c2, but no transposition does
    pytest.param([group_vector((1, ID), (1, C1), (1, C2))], id="A3-only"),
    # a sum over a coset of the subgroup {Id, t13}
    pytest.param([group_vector((1, T12), (1, C1))], id="coset"),
])
def test_check_invariant_rejects_partial_invariance(basis):
    s = span([v.coeffs for v in basis], 6)
    with pytest.raises(ValueError, match="not invariant"):
        check_invariant(s, _translate)
    with pytest.raises(ValueError, match="not invariant"):
        isotypic_multiplicities(s, _translate)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.tuples(group_vectors(), st.booleans()), min_size=1,
                max_size=3))
def test_check_invariant_agrees_with_all_six_permutations(pieces):
    # each piece is a single vector or its whole orbit
    rows = []
    for v, orbit in pieces:
        rows += group_orbit_span(v).basis if orbit else [v.coeffs]
    s = span(rows, 6)
    invariant = all(s.contains(_translate(p, b))
                    for b in s.basis for p in PERMS)
    try:
        check_invariant(s, _translate)
    except ValueError:
        assert not invariant
    else:
        assert invariant


@pytest.mark.parametrize("scale", [
    # t12 fixes the line and c1 negates it: 1 + 3 - 2 is not divisible by 6
    pytest.param({C1: -1}, id="fractional-multiplicity"),
    # t12 triples the line: the sign multiplicity would be (1 - 9 + 2) / 6
    pytest.param({T12: 3}, id="negative-multiplicity"),
    # a rational representation has integer character values
    pytest.param({T12: Fraction(1, 2)}, id="fractional-character"),
])
def test_character_that_is_not_a_character_is_rejected(scale):
    # each "action" scales a line, so every line is invariant, but it is
    # not a representation of the group
    def bogus(p, v):
        return tuple(scale.get(p, 1) * a for a in v)

    with pytest.raises(ValueError, match="character"):
        isotypic_multiplicities(full_space(1), bogus)
