import dataclasses
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operad_forge import algebra_instances
from operad_forge.cli import _FAMILY_SWEEP
from operad_forge.foundation import full_space, span
from operad_forge.group_module import (
    PERMS,
    GroupVector,
    IsotypicProfile,
    apply_idempotent,
    check_invariant,
    group_vector,
)
from operad_forge.operad_calculus import (
    QuadraticOperad,
    RelationModule,
    dual,
    family_ab,
    family_t,
    find_presentation,
    operad_from_definition,
    operads_equal,
    orbit_span,
    partition_module,
    preset,
    presentation_of,
    presented_relation,
    rank,
    regular_presets,
    tilde,
    PRESET_NAMES,
)
from operad_forge.relation_dsl import format_weight3, parse_relation
from operad_forge.tensor_closure import minimal_companion
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
    project,
    psi,
)

from conftest import (
    act,
    comb_in,
    example,
    example_names,
    full_module,
    reference_character_multiplicities,
    reference_find_presentation,
    zero_module,
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

    base = associator((1, 2, 3)).scaled(-1)
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


@pytest.mark.parametrize("args, message", [
    (("nope",), "unknown preset name: 'nope'"),
    (("nope", 1), "preset 'nope' takes no parameters"),
    (("leib", 1), "preset 'leib' takes no parameters"),
    (("family_t",), "preset 'family_t' takes parameters"),
    (("g7ass",), "unknown preset name: 'g7ass'"),
    (("g0p3ass",), "unknown preset name: 'g0p3ass'"),
    (("gass",), "unknown preset name: 'gass'"),
])
def test_preset_errors_name_the_input(args, message):
    with pytest.raises(ValueError) as err:
        preset(*args)
    assert str(err.value) == message


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
    # comm3 is the one preset built from relations, with no presentation.
    assert preset("comm3").presentation is None
    for name in PRESET_NAMES:
        if name == "comm3":
            continue
        p = preset(name)
        gens = [presented_relation(v, w, p.symmetry)
                for v, w in p.presentation]
        assert orbit_span(gens, p.symmetry).space == p.relations.space


def test_definition_whose_presentation_misses_the_relations_is_rejected():
    # Id / Id presents the associator, whose anticommutative projection does
    # not generate the Jacobi module.
    for symmetry, relation, v, w in [
        ("regular", "(x*y)*z - x*(y*z)", "Id", "Id - t12"),
        ("anticomm", "m1 + m2 + m3", "Id", "Id"),
    ]:
        with pytest.raises(ValueError, match="does not generate"):
            operad_from_definition({
                "symmetry": symmetry, "relations": [relation],
                "presentation": [{"v": v, "w": w}]})


def _stripped(name: str, *params) -> QuadraticOperad:
    p = preset(name, *params)
    return QuadraticOperad(p.symmetry, p.relations, None, p.name)


def _identity(obj) -> tuple:
    """What a cache on obj must leave alone: its hash, repr and fields."""
    return (hash(obj), repr(obj),
            [f.name for f in dataclasses.fields(obj)])


def test_tilde_is_cached_per_object_and_seed():
    # At seed 107841 the stripped g3ass finds a presentation whose tilde
    # has dimension 9; seed 1 gives the full-support 11.  A cache blind to
    # the seed would return the seed-1 tilde again.
    p = _stripped("g3ass")
    got = [tilde(p, seed=seed) for seed in (1, 107841, 1)]
    assert [t.relations.dim for t in got] == [11, 9, 11]
    assert got[2] is got[0]
    for seed, t in zip((1, 107841, 1), got):
        fresh = tilde(_stripped("g3ass"), seed=seed)
        assert t == fresh and repr(t) == repr(fresh)
    # A stored presentation ignores the seed, so every seed shares one.
    leib = preset("leib")
    assert tilde(leib, seed=0) is tilde(leib, seed=5)


def test_caches_leave_value_hash_repr_and_fields_alone():
    p = _stripped("g3ass")
    before = (_identity(p), _identity(p.relations))
    tilde(p, seed=1)
    warm = rank(p.relations), p.relations.isotypic()
    assert (_identity(p), _identity(p.relations)) == before
    assert p == _stripped("g3ass")
    cold = RelationModule(p.symmetry, p.relations.space)
    assert warm == (rank(cold), cold.isotypic())
    assert p.relations.isotypic() is warm[1]


def test_instance_cache_leaves_value_hash_repr_and_fields_alone():
    for name in example_names():
        fixture = example(name)
        cold = algebra_instances.AlgebraInstance.from_entries(
            fixture.dim, list(fixture.entries()), fixture.name)
        before = _identity(cold)
        assert cold == fixture and before == _identity(fixture)
        assert "_relations" not in vars(cold)
        warm = algebra_instances.algebra_relations(cold)
        assert _identity(cold) == before and cold == fixture
        assert algebra_instances.algebra_relations(cold) is warm
        # the fixture's cached module equals a fresh computation
        assert algebra_instances.algebra_relations(fixture) == warm


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


@pytest.mark.parametrize("seed", range(4))
def test_find_presentation_matches_fraction_sum_reference(seed):
    operads = [_stripped(name) for name in PRESET_NAMES
               if preset(name).symmetry is REGULAR]
    operads += [_stripped(*spec) for spec in _FAMILY_SWEEP]
    assert len(operads) == 32
    for p in operads:
        got = find_presentation(p, seed=seed)
        want = reference_find_presentation(p, seed=seed)
        assert got == want and repr(got) == repr(want), p.name


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
    lie = preset("lie")
    q = operad_from_definition(
        {
            "name": "lie",
            "symmetry": "anticomm",
            "relations": ["m1 + m2 + m3"],
            "presentation": [{"v": "Id + c1 + c2", "w": "Id + c1 + c2"}],
        }
    )
    assert q == lie and q.presentation == lie.presentation
    assert tilde(q) == tilde(lie)


def test_operad_from_definition_symmetric():
    q = operad_from_definition(
        {"name": "jac", "symmetry": "anticomm", "relations": ["m1+m2+m3"]}
    )
    assert q.relations.space == preset("lie").relations.space


def test_operad_from_definition_bad_symmetry():
    with pytest.raises(ValueError):
        operad_from_definition({"symmetry": "cyclic", "relations": []})


@pytest.mark.parametrize("value", [
    "cyclic", "Comm", "", None, 1, True, ["comm"], {"comm": 1}, COMMUTATIVE,
], ids=repr)
def test_symmetry_is_named_by_its_string_value(value):
    with pytest.raises(ValueError) as err:
        operad_from_definition({"symmetry": value, "relations": []})
    assert str(err.value) == f"unknown symmetry class: {value!r}"


@pytest.mark.parametrize("symmetry,relation,pair", [
    ("regular", "x*(y*z) - (x*y)*z + (x*z)*y", {"v": "Id - t23", "w": "Id"}),
    ("comm", "m1 - m2", {"v": "Id", "w": "Id"}),
], ids=["regular", "comm"])
def test_zero_presentation_pair_adds_no_tilde_generator(symmetry, relation,
                                                         pair):
    """psi(0, L) - psi(0, R) has an empty support, so a zero pair adds no
    generator next to a generating pair and gives the zero tilde alone."""
    zero = {"v": "0", "w": "0"}

    def tilde_of(relations, pairs):
        return tilde(operad_from_definition(
            {"symmetry": symmetry, "relations": relations,
             "presentation": pairs})).relations

    alone = tilde_of([relation], [pair])
    assert alone.dim > 0
    assert tilde_of([relation], [zero, pair]) == alone
    assert tilde_of([relation], [pair, zero]) == alone
    target = REGULAR if symmetry == "regular" else COMMUTATIVE
    assert tilde_of([], [zero]) == zero_module(target)


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


def reference_tilde(q: QuadraticOperad, seed: int) -> RelationModule:
    """The orbit span of the pairwise recipe, projected for a symmetric
    class: every pair of monomials in each support identified.

    `orbit_span` itself is checked against `reference_orbit_span` on these
    generators in test_orbit_span_matches_reference_on_preset_generators.
    """
    gens = reference_tilde_generators(presentation_of(q, seed=seed))
    if q.symmetry is REGULAR:
        return orbit_span(gens, REGULAR)
    return orbit_span([project(g, COMMUTATIVE) for g in gens], COMMUTATIVE)


def _assert_tilde_matches_reference(q: QuadraticOperad, seed: int):
    got = tilde(q, seed=seed).relations
    want = reference_tilde(q, seed)
    assert got == want
    assert repr(got) == repr(want)


def _assert_isotypic_matches_reference(r: RelationModule):
    act = partial(act_vector, r.symmetry)
    assert r.isotypic() == reference_isotypic_multiplicities(r.space, act)
    assert r.isotypic() == reference_character_multiplicities(r.space, act)


def _assert_tables_match_references(p: QuadraticOperad, seeds=(0, 1, 2)):
    """Isotypic profile, psi and tilde of p, dual(p) and tilde(p, seed)."""
    for seed in seeds:
        for q in (p, dual(p), tilde(p, seed=seed)):
            _assert_isotypic_matches_reference(q.relations)
            pres = presentation_of(q, seed=seed)
            for v, w in pres:
                assert psi(v, LEFT) == reference_psi(v, LEFT)
                assert psi(w, RIGHT) == reference_psi(w, RIGHT)
            _assert_tilde_matches_reference(q, seed)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_match_fraction_references(name):
    _assert_tables_match_references(preset(name))


def _sparse_definition(seed: int) -> dict:
    """A seeded regular definition: 1-2 relations of 2-4 monomials with
    rational weights."""
    rng = random.Random(seed)
    relations = []
    for _ in range(rng.randint(1, 2)):
        coords = [Fraction(0)] * 12
        for n in rng.sample(range(12), rng.randint(2, 4)):
            coords[n] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                 rng.randint(1, 3))
        relations.append(format_weight3(Weight3Element(REGULAR,
                                                       tuple(coords))))
    return {"name": f"sparse{seed}", "symmetry": "regular",
            "relations": relations}


_FAMILY_AND_SPARSE = (
    [("family_ab", args) for args in
     [(2, 2), (3, 0), (0, 0), ("1/2", -3)]]
    + [("family_t", (t,)) for t in (0, "-2/3")]
    + [("sparse", (seed,)) for seed in range(8)]
)


@pytest.mark.parametrize("kind,args", _FAMILY_AND_SPARSE,
                         ids=[f"{k}({','.join(map(str, a))})"
                              for k, a in _FAMILY_AND_SPARSE])
def test_family_and_sparse_operads_match_fraction_references(kind, args):
    if kind == "sparse":
        p = operad_from_definition(_sparse_definition(*args))
    else:
        p = preset(kind, *args)
    _assert_tables_match_references(p)


def _report_symmetric_modules(symmetry: SymmetryClass):
    """The sums of isotypic pieces that the reference report enumerates."""
    units = full_space(symmetry.dim).basis
    action = partial(act_vector, symmetry)
    pieces = [span([apply_idempotent(kind, action, u) for u in units],
                   symmetry.dim) for kind in ("triv", "sgn", "std")]
    pieces = [sp for sp in pieces if sp.dim]
    modules = []
    for mask in range(2 ** len(pieces)):
        space = span([b for i, sp in enumerate(pieces) if mask & (1 << i)
                      for b in sp.basis], symmetry.dim)
        modules.append(RelationModule(symmetry, space))
    return modules


def test_report_symmetric_modules_match_fraction_references():
    modules = (_report_symmetric_modules(COMMUTATIVE)
               + _report_symmetric_modules(ANTICOMMUTATIVE))
    assert len(modules) == 8
    for r in modules:
        _assert_tables_match_references(QuadraticOperad(r.symmetry, r))


def test_constructed_relation_modules_are_invariant():
    """Neither RelationModule nor QuadraticOperad checks invariance, so
    every constructor of a relation module must build an invariant one."""
    modules = (_report_symmetric_modules(COMMUTATIVE)
               + _report_symmetric_modules(ANTICOMMUTATIVE))
    for name in PRESET_NAMES:
        p = preset(name)
        modules += [p.relations, dual(p).relations]
        modules += [tilde(p, seed=seed).relations for seed in (0, 1, 2)]
        if p.symmetry is REGULAR:
            modules.append(minimal_companion(p))
    algebras = [example(n) for n in example_names()]
    rng = random.Random(5)
    algebras += [algebra_instances._random_nilpotent(rng.randint(2, 4), rng,
                                                     "random")
                 for _ in range(100)]
    modules += [algebra_instances.algebra_relations(a) for a in algebras]
    assert len(modules) == 8 + 23 * 5 + 21 + 9 + 100
    for r in modules:
        check_invariant(r.space, partial(act_vector, r.symmetry))
    # rank still refuses a module built by hand that is not invariant
    with pytest.raises(ValueError, match="not invariant"):
        rank(RelationModule(REGULAR, span([associator((1, 2, 3)).coords], 12)))


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
    _assert_tilde_matches_reference(QuadraticOperad(r.symmetry, r), seed=0)


# --- orbit_span on primitive integer rows against the six-images loop ---------


def reference_orbit_span(xs, symmetry):
    """orbit_span before primitive rows: six act images per generator."""
    rows = []
    for x in xs:
        if x.symmetry is not symmetry:
            raise ValueError("mixed symmetry classes")
        for sigma in PERMS:
            rows.append(act(sigma, x).coords)
    return RelationModule(symmetry, span(rows, symmetry.dim))


def _assert_orbit_span_matches_reference(xs, symmetry):
    got = orbit_span(xs, symmetry)
    want = reference_orbit_span(xs, symmetry)
    assert got == want
    assert repr(got) == repr(want)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_orbit_span_matches_reference_on_preset_generators(name):
    p = preset(name)
    gens = [presented_relation(v, w, p.symmetry)
            for v, w in presentation_of(p)]
    _assert_orbit_span_matches_reference(gens, p.symmetry)
    _assert_orbit_span_matches_reference(p.relations.basis_elements(),
                                         p.symmetry)
    for seed in (0, 1, 2):
        gens = reference_tilde_generators(presentation_of(p, seed=seed))
        if p.symmetry is REGULAR:
            _assert_orbit_span_matches_reference(gens, REGULAR)
        else:
            _assert_orbit_span_matches_reference(
                [project(g, COMMUTATIVE) for g in gens], COMMUTATIVE)


_MULTIPLES = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                              Fraction(-3, 2), Fraction(0)])


@st.composite
def _generator_lists(draw):
    """A class and generators drawn from a few base elements: repeats,
    zero, scalar and negative multiples and orbit-mates of each other."""
    symmetry = draw(st.sampled_from([REGULAR, COMMUTATIVE, ANTICOMMUTATIVE]))
    bases = draw(st.lists(_sparse_elements(symmetry), min_size=1, max_size=3))
    xs = [act(draw(st.sampled_from(PERMS)), draw(st.sampled_from(bases)))
          .scaled(draw(_MULTIPLES))
          for _ in range(draw(st.integers(1, 6)))]
    return symmetry, xs


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_generator_lists())
def test_orbit_span_matches_reference_on_random_generators(case):
    symmetry, xs = case
    _assert_orbit_span_matches_reference(xs, symmetry)


def test_orbit_span_rejects_a_mixed_class_orbit_mate():
    x = comb_in(COMMUTATIVE, 1) - comb_in(COMMUTATIVE, 2)
    mate = Weight3Element(ANTICOMMUTATIVE,
                          act_vector(COMMUTATIVE, PERMS[1], x.coords))
    for xs in ([x, mate], [x, x.scaled(2), mate]):
        with pytest.raises(ValueError, match="mixed symmetry classes"):
            orbit_span(xs, COMMUTATIVE)
    with pytest.raises(ValueError, match="mixed symmetry classes"):
        orbit_span([x, Weight3Element(ANTICOMMUTATIVE, x.coords)])


# --- partition_module against the span of pairwise differences ---------------


def _pairwise_differences(symmetry, supports):
    """span of e_i - e_j over every pair of nonzero columns of each support."""
    units = full_space(symmetry.dim).basis
    rows = []
    for s in supports:
        cols = [j for j, a in enumerate(s) if a]
        rows += [tuple(a - b for a, b in zip(units[i], units[j]))
                 for i in cols for j in cols if i < j]
    return RelationModule(symmetry, span(rows, symmetry.dim))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from([REGULAR, COMMUTATIVE]).flatmap(
    lambda sym: st.tuples(st.just(sym), st.lists(
        st.lists(_SPARSE, min_size=sym.dim, max_size=sym.dim), max_size=4))))
def test_partition_module_is_the_span_of_pairwise_differences(case):
    symmetry, supports = case
    got = partition_module(symmetry, supports)
    assert got == _pairwise_differences(symmetry, supports)
    assert got.space.denominator == 1


def test_partition_module_fixed_cases():
    assert partition_module(REGULAR, []) == zero_module(REGULAR)
    assert partition_module(COMMUTATIVE, []) == zero_module(COMMUTATIVE)
    chain = [[1, 1] + [0] * 10, [0, 1, -2] + [0] * 9]
    one_block = partition_module(REGULAR, chain)
    assert one_block.space.rows == (
        (1, 0, -1) + (0,) * 9, (0, 1, -1) + (0,) * 9)
    assert one_block == _pairwise_differences(REGULAR, [[1, 1, 1] + [0] * 9])
    full = partition_module(REGULAR, [[1] * 12])
    assert full.dim == 11
    assert full == preset("comm3").relations
