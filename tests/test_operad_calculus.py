from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operad_forge.foundation import combine, full_space, span
from operad_forge.group_module import (
    ID,
    PERMS,
    GroupVector,
    IsotypicProfile,
    apply_idempotent,
    group_vector,
)
from operad_forge.operad_calculus import (
    QuadraticOperad,
    RelationModule,
    dual,
    family_ab,
    family_t,
    find_presentation,
    full_module,
    operad_from_definition,
    operads_equal,
    orbit_span,
    preset,
    presentation_of,
    presented_relation,
    rank,
    regular_presets,
    tilde,
    tilde_generators,
    zero_module,
    PRESET_NAMES,
)
from operad_forge.relation_dsl import parse_relation
from operad_forge.weight_spaces import (
    ANTICOMMUTATIVE,
    COMMUTATIVE,
    LEFT,
    REGULAR,
    RIGHT,
    SymmetryClass,
    Weight3Element,
    act_vector,
    associator,
    comb_in,
    psi,
)

from test_group_module import reference_isotypic_multiplicities
from test_weight_spaces import reference_psi


def test_orbit_span_of_associator_is_six_dimensional():
    r = orbit_span([associator((1, 2, 3))])
    assert r.dim == 6
    assert r.symmetry is REGULAR


def test_orbit_span_alternating_sum_is_one_dimensional():
    x = Weight3Element.zero(REGULAR)
    from operad_forge.group_module import PERMS
    from operad_forge.weight_spaces import act

    base = -associator((1, 2, 3))
    for sigma in PERMS:
        x = x + act(sigma, base).scaled(sigma.sign())
    assert orbit_span([x]).dim == 1


def test_orbit_span_empty_needs_symmetry():
    with pytest.raises(ValueError):
        orbit_span([])
    assert orbit_span([], REGULAR).dim == 0


def test_zero_and_full_modules():
    assert zero_module(COMMUTATIVE).dim == 0
    assert full_module(REGULAR).space == full_space(12)
    assert rank(zero_module(REGULAR)) == 0


def test_subgroup_variant_dimensions():
    dims = [preset(f"g{i}ass").relations.dim for i in range(1, 7)]
    assert dims == [6, 3, 3, 3, 2, 1]
    p3dims = [preset(f"g{i}p3ass").relations.dim for i in range(1, 7)]
    assert p3dims == [6, 3, 3, 3, 2, 1]


def test_preset_aliases():
    assert preset("ass").relations.space == preset("g1ass").relations.space
    assert preset("lieadm").relations.space == preset("g6ass").relations.space
    assert preset("p3ass").relations.space == \
        preset("g6p3ass").relations.space


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset("nope")
    with pytest.raises(ValueError):
        preset("g7ass")
    with pytest.raises(ValueError):
        preset("leib", 3)


def test_preset_names_resolve():
    for name in PRESET_NAMES:
        assert preset(name).relations is not None
    assert set(regular_presets()) <= set(PRESET_NAMES)


def test_dual_dimension_complement():
    for name in regular_presets():
        p = preset(name)
        assert p.relations.dim + dual(p).relations.dim == 12


def test_dual_involution_on_presets():
    for name in ("g2ass", "leib", "poiss"):
        p = preset(name)
        assert dual(dual(p)).relations.space == p.relations.space


def test_dual_of_leibniz_is_zinbiel():
    assert dual(preset("leib")).relations.space == \
        preset("zinb").relations.space


def test_dual_of_lie_is_commutative_associative():
    d = dual(preset("lie"))
    assert d.symmetry is COMMUTATIVE
    assert d.relations.space == preset("com").relations.space
    d2 = dual(preset("com"))
    assert d2.symmetry is ANTICOMMUTATIVE
    assert d2.relations.space == preset("lie").relations.space


def test_rank_of_duals():
    assert rank(dual(preset("g1ass")).relations) == 1
    for i in range(2, 7):
        assert rank(dual(preset(f"g{i}ass")).relations) == 2


def test_tilde_matches_dual_for_subgroup_variants():
    for i in range(1, 7):
        p = preset(f"g{i}ass")
        assert tilde(p).relations.space == dual(p).relations.space


def test_tilde_of_leibniz():
    want = orbit_span(
        [
            parse_relation("x*(y*z) - (x*y)*z"),
            parse_relation("(x*y)*z - (x*z)*y"),
        ]
    )
    assert tilde(preset("leib")).relations.space == want.space


def test_tilde_of_lie_is_com():
    t = tilde(preset("lie"))
    assert t.symmetry is COMMUTATIVE
    assert t.relations.space == preset("com").relations.space


def test_tilde_of_poisson_is_comm3():
    assert tilde(preset("poiss")).relations.space == \
        preset("comm3").relations.space


def test_presented_relation_generates_presets():
    for name in ("leib", "zinb", "poiss", "g3ass"):
        p = preset(name)
        gens = [presented_relation(v, w, p.symmetry)
                for v, w in p.presentation]
        assert orbit_span(gens, p.symmetry).space == p.relations.space


def test_presentation_validation_rejects_mismatch():
    p = preset("leib")
    bad = ((GroupVector.basis(ID), GroupVector.basis(ID)),)  # presents Ass
    with pytest.raises(ValueError):
        QuadraticOperad(REGULAR, p.relations, bad, "broken")


def test_find_presentation_round_trip():
    for name in ("leib", "comm3"):
        p = preset(name)
        stripped = QuadraticOperad(p.symmetry, p.relations, None, p.name)
        pres = find_presentation(stripped, seed=3)
        gens = [presented_relation(v, w, p.symmetry) for v, w in pres]
        assert orbit_span(gens, p.symmetry).space == p.relations.space


def test_find_presentation_symmetric_class():
    p = preset("lie")
    stripped = QuadraticOperad(p.symmetry, p.relations, None, "lie")
    pres = find_presentation(stripped, seed=0)
    gens = [presented_relation(v, w, ANTICOMMUTATIVE) for v, w in pres]
    assert orbit_span(gens, ANTICOMMUTATIVE).space == p.relations.space


def test_find_presentation_zero_module():
    p = QuadraticOperad(REGULAR, zero_module(REGULAR))
    assert find_presentation(p) == []


def test_family_excluded_parameters():
    with pytest.raises(ValueError):
        family_ab(1, 1)
    with pytest.raises(ValueError):
        family_t(1)


def test_family_special_values_are_subgroup_variants():
    assert family_ab(3, 0).relations.space == preset("g2ass").relations.space
    assert family_ab(0, 3).relations.space == preset("g4ass").relations.space
    assert family_ab(0, 0).relations.space == preset("g3ass").relations.space


def test_family_special_values_tilde_is_dual():
    for args, gname in (((3, 0), "g2ass"), ((0, 3), "g4ass"),
                        ((0, 0), "g3ass")):
        p = family_ab(*args)
        assert tilde(p).relations.space == \
            dual(preset(gname)).relations.space


def test_family_generic_tilde_is_lieadm_dual():
    comm3 = preset("comm3").relations.space
    for p in (family_ab(2, 2), family_ab(5, -1), family_t(0), family_t(2),
              preset("table_row_5"), preset("table_row_6")):
        t = tilde(p)
        assert t.relations.space == comm3
        assert t.relations.space != dual(p).relations.space


def test_isotypic_of_relation_modules():
    assert preset("g6ass").relations.isotypic() == IsotypicProfile(0, 1, 0)
    assert preset("g6p3ass").relations.isotypic() == IsotypicProfile(1, 0, 0)


def test_relation_module_contains():
    r = preset("ass").relations
    assert r.contains(associator((2, 1, 3)))
    assert not r.contains(Weight3Element.monomial("L", (1, 2, 3)))
    with pytest.raises(ValueError):
        r.contains(comb_in(COMMUTATIVE, 1))


def test_operads_equal():
    assert operads_equal(preset("ass"), preset("g1ass"))
    assert not operads_equal(preset("ass"), preset("leib"))
    assert not operads_equal(preset("lie"), preset("com"))


def test_operad_from_definition_regular():
    q = operad_from_definition(
        {
            "name": "leib-clone",
            "symmetry": "regular",
            "relations": ["x*(y*z) - (x*y)*z + (x*z)*y"],
        }
    )
    assert q.relations.space == preset("leib").relations.space
    assert q.name == "leib-clone"


def test_operad_from_definition_with_presentation():
    q = operad_from_definition(
        {
            "name": "leib-pres",
            "symmetry": "regular",
            "relations": ["x*(y*z) - (x*y)*z + (x*z)*y"],
            "presentation": [{"v": "Id - t23", "w": "Id"}],
        }
    )
    assert q.presentation == preset("leib").presentation


def test_operad_from_definition_symmetric():
    q = operad_from_definition(
        {"name": "jac", "symmetry": "anticomm", "relations": ["m1+m2+m3"]}
    )
    assert q.relations.space == preset("lie").relations.space


def test_operad_from_definition_bad_symmetry():
    with pytest.raises(ValueError):
        operad_from_definition({"symmetry": "cyclic", "relations": []})


# --- table-driven Sigma_3 work against the Fraction-sum references -----------


def reference_tilde_generators(presentation):
    """The tilde recipe through psi on group vectors, one term at a time."""
    gens = []
    for v, w in presentation:
        a = [v[s] for s in PERMS]
        b = [w[s] for s in PERMS]
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                si, sj = PERMS[i], PERMS[j]
                if a[i] * a[j] != 0 and i < j:
                    gens.append(reference_psi(
                        group_vector((1, si), (-1, sj)), LEFT))
                if b[i] * b[j] != 0 and i < j:
                    gens.append(reference_psi(
                        group_vector((1, si), (-1, sj)), RIGHT))
                if a[i] * b[j] != 0:
                    gens.append(
                        reference_psi(GroupVector.basis(si), LEFT)
                        - reference_psi(GroupVector.basis(sj), RIGHT)
                    )
        for i in range(6):
            if a[i] * b[i] != 0:
                s = GroupVector.basis(PERMS[i])
                gens.append(reference_psi(s, LEFT) - reference_psi(s, RIGHT))
    return gens


def _assert_isotypic_matches_reference(r: RelationModule):
    act = partial(act_vector, r.symmetry)
    assert r.isotypic() == reference_isotypic_multiplicities(r.space, act)


def _assert_tables_match_references(p: QuadraticOperad, seeds=(0, 1, 2)):
    """Isotypic profile and tilde recipe of p, dual(p) and tilde(p, seed)."""
    for seed in seeds:
        for q in (p, dual(p), tilde(p, seed=seed)):
            _assert_isotypic_matches_reference(q.relations)
            pres = presentation_of(q, seed=seed)
            for v, w in pres:
                assert psi(v, LEFT) == reference_psi(v, LEFT)
                assert psi(w, RIGHT) == reference_psi(w, RIGHT)
            assert tilde_generators(pres) == reference_tilde_generators(pres)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_match_fraction_references(name):
    _assert_tables_match_references(preset(name))


def _report_symmetric_modules(symmetry: SymmetryClass):
    """The sums of isotypic pieces that the reference report enumerates."""
    units = full_space(symmetry.dim).basis
    action = partial(act_vector, symmetry)
    pieces = [span([apply_idempotent(kind, action, u) for u in units],
                   symmetry.dim) for kind in ("triv", "sgn", "std")]
    pieces = [sp for sp in pieces if sp.dim]
    modules = []
    for mask in range(2 ** len(pieces)):
        space = span([], symmetry.dim)
        for i, sp in enumerate(pieces):
            if mask & (1 << i):
                space = combine(space, sp, "sum")
        modules.append(RelationModule(symmetry, space))
    return modules


def test_report_symmetric_modules_match_fraction_references():
    modules = (_report_symmetric_modules(COMMUTATIVE)
               + _report_symmetric_modules(ANTICOMMUTATIVE))
    assert len(modules) == 8
    for r in modules:
        _assert_tables_match_references(QuadraticOperad(r.symmetry, r))


_SPARSE = st.sampled_from([Fraction(0)] * 5 + [Fraction(1), Fraction(-1),
                                               Fraction(2), Fraction(1, 2)])


def _sparse_elements(symmetry):
    return st.lists(_SPARSE, min_size=symmetry.dim,
                    max_size=symmetry.dim).map(
        lambda cs: Weight3Element(symmetry, tuple(cs)))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from([REGULAR, COMMUTATIVE, ANTICOMMUTATIVE]).flatmap(
    lambda sym: st.lists(_sparse_elements(sym), min_size=1, max_size=2)))
def test_random_orbit_spans_match_fraction_references(xs):
    r = orbit_span(xs, xs[0].symmetry)
    _assert_isotypic_matches_reference(r)
    pres = presentation_of(QuadraticOperad(r.symmetry, r))
    assert tilde_generators(pres) == reference_tilde_generators(pres)
