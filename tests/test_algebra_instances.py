import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operad_forge import algebra_instances
from operad_forge.algebra_instances import (
    AlgebraInstance,
    Counterexample,
    algebra_relations,
    check_relations,
    commutativity_violations,
    example,
    example_names,
    satisfies,
    search_counterexample,
    tensor_instance,
)
from operad_forge.foundation import span
from operad_forge.operad_calculus import (
    RelationModule,
    full_module,
    preset,
    tilde,
    zero_module,
)
from operad_forge.relation_dsl import parse_relation
from operad_forge.tensor_closure import PAIR_KEYS, MixedProduct, closure_holds
from operad_forge.weight_spaces import REGULAR, Weight3Element


def test_instance_construction_and_product():
    alg = AlgebraInstance.from_entries(2, [(1, 1, 2, 1)])
    e1 = alg.basis_vector(0)
    assert alg.product(e1, e1) == (Fraction(0), Fraction(1))
    assert alg.product(e1, alg.basis_vector(1)) == (Fraction(0), Fraction(0))


def test_instance_shape_validation():
    with pytest.raises(ValueError):
        AlgebraInstance(2, ((), ()))
    with pytest.raises(ValueError):
        AlgebraInstance.from_entries(0, [])


@pytest.mark.parametrize("entry", [
    (0, 1, 1, 1), (1, 3, 1, 1), (1, 1, -1, 1), ("1", 1, 1, 1),
    (True, True, True, 1), (1, 1.0, 1, 1),
])
def test_entry_indices_outside_the_basis_are_rejected(entry):
    with pytest.raises(ValueError) as err:
        AlgebraInstance.from_entries(2, [entry])
    assert "entry ({}, {}, {}, {})".format(*entry) in str(err.value)
    assert "indices in 1..2" in str(err.value)


@pytest.mark.parametrize("value", ["1/0", "x", None, 0.1, 2.0, True,
                                   "1e1000000", "1E5", "2e-3"])
def test_entry_coefficients_must_be_rational(value):
    with pytest.raises(ValueError) as err:
        AlgebraInstance.from_entries(2, [(1, 1, 2, value)])
    assert str(err.value) == (
        f"structure entry (1, 1, 2, {value}) needs a rational coefficient"
    )
    with pytest.raises(ValueError):
        AlgebraInstance.from_json({"dim": 2, "structure": [[1, 1, 2, value]]})


@pytest.mark.parametrize("value,want", [
    (3, Fraction(3)), ("1/10", Fraction(1, 10)), ("-2", Fraction(-2)),
    (Fraction(2, 7), Fraction(2, 7)), ("0.5", Fraction(1, 2)),
])
def test_exact_coefficients_load(value, want):
    alg = AlgebraInstance.from_json({"dim": 2, "structure": [[1, 1, 2, value]]})
    assert alg.structure[0][0] == (Fraction(0), want)


@pytest.mark.parametrize("dim", [0, -1, 17, 2.7, 2.0, True, "2", None])
def test_dimension_must_be_an_int_within_the_cap(dim):
    with pytest.raises(ValueError) as err:
        AlgebraInstance.from_json({"dim": dim, "structure": []})
    assert str(err.value) == (
        f"dimension must be an integer in 1..16, got {dim!r}")


def test_tensor_instance_dimension_cap():
    four = AlgebraInstance.from_entries(4, [(1, 1, 2, 1)])
    assert tensor_instance(four, four, MixedProduct.identity()).dim == 16
    five = AlgebraInstance.from_entries(5, [(1, 1, 2, 1)])
    with pytest.raises(ValueError) as err:
        tensor_instance(four, five, MixedProduct.identity())
    assert str(err.value) == "tensor product dimension 4*5 = 20 exceeds 16"


def test_json_round_trip():
    alg = example("zinbiel_3d")
    back = AlgebraInstance.from_json(alg.to_json())
    assert back.structure == alg.structure
    assert back.dim == alg.dim


def test_fixture_catalog_names():
    names = example_names()
    assert "leib_tilde_3d" in names
    assert "heisenberg" in names
    with pytest.raises(ValueError):
        example("no_such_algebra")


def test_fixtures_satisfy_their_presets():
    pairs = [
        ("leibniz_3d", "leib"),
        ("leib_tilde_3d", "leib"),
        ("zinbiel_3d", "zinb"),
        ("heisenberg", "lie"),
        ("lie_nonabelian_2d", "lie"),
        ("comm_assoc_2d", "com"),
        ("comm_assoc_2d", "ass"),
        ("poisson_heisenberg", "poiss"),
        ("poisson_unital_4d", "poiss"),
        ("abelian_2d", "lie"),
        ("abelian_2d", "com"),
    ]
    for alg_name, preset_name in pairs:
        assert satisfies(example(alg_name), preset(preset_name).relations), \
            (alg_name, preset_name)


def test_catalog_validates_by_direct_evaluation():
    # The defining identities of the Poisson-type and Leibniz fixtures,
    # checked on every basis triple rather than through Rel(A).
    for name in ("poisson_heisenberg", "poisson_unital_4d"):
        assert check_relations(example(name), preset("poiss").relations) \
            == [], name
    assert check_relations(example("leibniz_3d"),
                           preset("leib").relations) == []


def test_algebra_relations_of_fixtures():
    # A nilpotent algebra whose triple products vanish satisfies everything.
    assert algebra_relations(example("heisenberg")) == full_module(REGULAR)
    rel = algebra_relations(example("comm_assoc_2d"))
    assert preset("ass").relations.space.is_subspace_of(rel.space)
    assert not preset("zinb").relations.space.is_subspace_of(rel.space)
    # Rel(A) passes check_relations, and a monomial outside it fails.
    for name in example_names():
        alg = example(name)
        rel = algebra_relations(alg)
        assert check_relations(alg, rel) == [], name
        for c in rel.space.complement_columns():
            unit = [0] * 12
            unit[c] = 1
            assert check_relations(
                alg, RelationModule(REGULAR, span([unit], 12))), (name, c)


def test_leib_tilde_fixture():
    alg = example("leib_tilde_3d")
    assert satisfies(alg, tilde(preset("leib")).relations)
    # not commutative: e1*e3 = e2 but e3*e1 = 0
    assert (1, 3) in commutativity_violations(alg)


def test_symmetry_mismatch_raises_with_pair():
    alg = example("leib_tilde_3d")
    with pytest.raises(ValueError) as err:
        check_relations(alg, preset("com").relations)
    assert "(e1, e3)" in str(err.value)


def test_zero_module_never_violated():
    assert check_relations(example("zinbiel_3d"), zero_module(REGULAR)) == []


def test_violation_reports_triple():
    bad = check_relations(example("leibniz_3d"), preset("zinb").relations)
    assert bad
    v = bad[0]
    assert len(v.triple) == 3
    assert any(c != 0 for c in v.value)
    assert "fails on" in str(v)


def test_tensor_instance_identity_product():
    a = example("comm_assoc_2d")
    b = example("abelian_2d")
    t = tensor_instance(a, b, MixedProduct.identity())
    assert t.dim == 4
    # (e1 (x) b_j) * (e1 (x) b_k) = e1*e1 (x) b_j*b_k = 0 since B is abelian
    assert all(c == 0 for c in t.product(t.basis_vector(0),
                                         t.basis_vector(0)))


def test_tensor_closed_pair_passes():
    # Leibniz (x) tilde(Leibniz) is again Leibniz (symbolic closure holds)
    t = tensor_instance(
        example("leibniz_3d"), example("leib_tilde_3d"),
        MixedProduct.identity(),
    )
    assert satisfies(t, preset("leib").relations)


def test_tensor_bracket_of_dual_pair_is_lie():
    # commutator-style product on Ass (x) Ass
    t = tensor_instance(
        example("comm_assoc_2d"), example("comm_assoc_2d"),
        MixedProduct.bracket(),
    )
    assert satisfies(t, preset("lie").relations)


def test_twisted_tensor_of_poisson_instances():
    a = example("poisson_unital_4d")
    t = tensor_instance(a, a, MixedProduct.poisson_twist())
    assert satisfies(t, preset("poiss").relations)
    bad = tensor_instance(a, a, MixedProduct.poisson_twist_literal())
    assert not satisfies(bad, preset("poiss").relations)


def test_search_counterexample_finds_leibniz_witness():
    found = search_counterexample(
        preset("leib").relations, preset("zinb").relations,
        [parse_relation("x*(y*z) - (x*y)*z + (x*z)*y")],
        max_dim=3, seed=0, budget=40,
    )
    assert found is not None
    # the witness is reproducible for a fixed seed
    again = search_counterexample(
        preset("leib").relations, preset("zinb").relations,
        [parse_relation("x*(y*z) - (x*y)*z + (x*z)*y")],
        max_dim=3, seed=0, budget=40,
    )
    assert found.left.structure == again.left.structure
    assert found.right.structure == again.right.structure
    assert found.violation.triple == again.violation.triple


def test_search_counterexample_zero_targets():
    assert search_counterexample(
        preset("leib").relations, preset("zinb").relations, [],
        max_dim=2, seed=0, budget=1,
    ) is None


def test_search_counterexample_dim_cap():
    for max_dim in (9, 5, 1, 0, -1):
        with pytest.raises(ValueError, match="between 2 and 4"):
            search_counterexample(
                preset("leib").relations, preset("zinb").relations,
                preset("leib").relations.basis_elements(), max_dim=max_dim,
            )


def test_search_counterexample_rejects_symmetric_targets():
    lie = preset("lie").relations
    with pytest.raises(ValueError, match="regular-class"):
        search_counterexample(lie, lie, lie.basis_elements(), max_dim=2)


def test_exhaustive_closed_search_finds_nothing():
    # ass x ass is symbolically closed, so the default budget is searched
    # to the end; deciding each distinct Rel pair once keeps it to seconds.
    ass = preset("ass").relations
    assert search_counterexample(ass, ass, ass.basis_elements(),
                                 max_dim=2) is None


# ---------------------------------------------------------------------------
# Differential tests: the Rel(A) route against direct evaluation.


def _satisfies_by_evaluation(alg, r):
    try:
        return not check_relations(alg, r)
    except ValueError:
        return False


def _reference_search(r_a, r_b, targets, max_dim, seed, budget):
    """The brute-force search: evaluate the targets on every tensor product."""
    targets = [t for t in targets if not t.is_zero()]
    target_module = RelationModule(
        REGULAR, span([t.coords for t in targets], 12))
    rng = random.Random(seed)
    candidates_a = [a for a in algebra_instances._CATALOG.values()
                    if a.dim <= max_dim]
    candidates_b = list(candidates_a)
    for _ in range(budget):
        candidates_a.append(algebra_instances._random_nilpotent(
            rng.randint(2, max_dim), rng, "random"))
        candidates_b.append(algebra_instances._random_nilpotent(
            rng.randint(2, max_dim), rng, "random"))
    lefts = [a for a in candidates_a if _satisfies_by_evaluation(a, r_a)]
    rights = [b for b in candidates_b if _satisfies_by_evaluation(b, r_b)]
    for a in lefts:
        for b in rights:
            t = tensor_instance(a, b, MixedProduct.identity())
            bad = check_relations(t, target_module)
            if bad:
                return Counterexample(a, b, bad[0])
    return None


@pytest.mark.parametrize("p,q", [("leib", "zinb"), ("poiss", "poiss"),
                                 ("ass", "ass")])
@pytest.mark.parametrize("max_dim", [2, 3])
def test_search_matches_brute_force_reference(p, q, max_dim):
    r_p, r_q = preset(p).relations, preset(q).relations
    for seed in (0, 1):
        args = (r_p, r_q, r_p.basis_elements(), max_dim, seed, 2)
        assert search_counterexample(*args) == _reference_search(*args), \
            (p, q, max_dim, seed)


def _small_algebras(dim):
    indices = st.integers(1, dim)
    entry = st.tuples(indices, indices, indices, st.integers(-2, 2))
    return st.lists(entry, max_size=4).map(
        lambda es: AlgebraInstance.from_entries(dim, es))


_algebra_pairs = st.sampled_from(
    [(m, n) for m in (1, 2, 3) for n in (1, 2, 3) if m * n <= 6]
).flatmap(lambda d: st.tuples(_small_algebras(d[0]), _small_algebras(d[1])))

_mixed_products = st.lists(
    st.integers(-2, 2), min_size=4, max_size=4
).map(lambda cs: MixedProduct.from_dict(dict(zip(PAIR_KEYS, cs))))

_relations = st.lists(
    st.integers(-1, 1), min_size=12, max_size=12
).map(lambda cs: Weight3Element(REGULAR, tuple(map(Fraction, cs))))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_algebra_pairs, _mixed_products, _relations)
def test_closure_on_relation_modules_matches_tensor_evaluation(ab, mu, r):
    a, b = ab
    holds, _ = closure_holds(algebra_relations(a), algebra_relations(b),
                             mu, [r])
    t = tensor_instance(a, b, mu)
    bad = check_relations(t, RelationModule(REGULAR, span([r.coords], 12)))
    assert holds == (not bad)
