import itertools
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
    satisfies,
    search_counterexample,
    tensor_instance,
)
from operad_forge.foundation import integer_row, kernel, span
from operad_forge.operad_calculus import (
    PRESET_NAMES,
    RelationModule,
    orbit_span,
    preset,
    tilde,
)
from operad_forge.relation_dsl import parse_relation
from operad_forge.tensor_closure import (
    PAIR_KEYS,
    MixedProduct,
    closure_holds,
    closure_holds_on_rows,
)
from operad_forge.weight_spaces import (
    ANTICOMMUTATIVE,
    COMMUTATIVE,
    REGULAR,
    Weight3Element,
    lift,
)

from conftest import (
    DENOMINATORS,
    example,
    example_names,
    full_module,
    reference_relations,
    reference_table_violations,
    reference_tensor_instance,
    reference_violations,
    zero_module,
)


def test_instance_construction_and_product():
    alg = AlgebraInstance.from_entries(2, [(1, 1, 2, 1)])
    # structure[i][j] is e_{i+1} e_{j+1}: e1 e1 = e2, every other product 0
    assert alg.structure[0][0] == (Fraction(0), Fraction(1))
    assert alg.structure[0][1] == (Fraction(0), Fraction(0))
    assert list(alg.entries()) == [(1, 1, 2, Fraction(1))]


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


@pytest.mark.parametrize("entry", [
    pytest.param((1, 1, 2, "0." + "0" * 100_000 + "1"), id="long-coefficient"),
    pytest.param(("1" * 50_000, 1, 2, 1), id="long-index"),
    pytest.param((1, 1, 2, "x" * 41), id="41-characters"),
])
def test_errors_echo_long_values_cut_short(entry):
    with pytest.raises(ValueError) as err:
        AlgebraInstance.from_entries(2, [entry])
    message = str(err.value)
    assert len(message) < 200
    long = next(str(x) for x in entry if len(str(x)) > 40)
    assert long[:40] + "…" in message and long[:41] not in message
    with pytest.raises(ValueError) as err:
        AlgebraInstance.from_json({"dim": 2, "structure": [list(entry)]})
    assert len(str(err.value)) < 200


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


def _fresh(alg):
    """alg as a new instance object, so that Rel(A) is computed again."""
    return AlgebraInstance(alg.dim, alg.structure, alg.name)


def test_relations_match_table_reference_on_the_catalog_and_tensor_pairs():
    products = {"identity": MixedProduct.identity(),
                "bracket": MixedProduct.bracket(),
                "poisson_twist": MixedProduct.poisson_twist()}
    for name in example_names():
        alg = _fresh(example(name))
        assert algebra_relations(alg) == reference_relations(alg), name
    pairs = 0
    for a_name, b_name in itertools.product(example_names(), repeat=2):
        a, b = example(a_name), example(b_name)
        if a.dim * b.dim > 9:
            continue
        for mu_name, mu in products.items():
            t = tensor_instance(a, b, mu)
            assert algebra_relations(t) == reference_relations(t), \
                (a_name, b_name, mu_name)
        pairs += 1
    assert pairs == 70


def _random_rational_instance(rng, dim, fill):
    """Each structure constant nonzero with probability fill, over the
    large coprime DENOMINATORS."""
    entries = [(i, j, k, Fraction(rng.randint(-9, 9),
                                  rng.choice(DENOMINATORS)))
               for i, j, k in itertools.product(range(1, dim + 1), repeat=3)
               if rng.random() < fill]
    return AlgebraInstance.from_entries(dim, entries)


def test_relations_match_table_reference_on_random_rational_instances():
    rng = random.Random(2800)
    dims = set()
    for n in range(300):
        fill = (0.05, 0.25, 0.7)[n % 3]
        alg = _random_rational_instance(rng, rng.randint(1, 4), fill)
        got = algebra_relations(alg)
        assert got == reference_relations(alg), (n, alg.entries())
        dims.add(got.dim)
    # from the full module of a near-zero product to very few relations
    assert {0, 12} < dims and len(dims) >= 6


def test_relations_match_table_reference_on_random_nilpotents():
    rng = random.Random(2801)
    dims = set()
    for n in range(300):
        alg = algebra_instances._random_nilpotent(rng.randint(2, 4), rng,
                                                  "random")
        got = algebra_relations(alg)
        assert got == reference_relations(alg), (n, list(alg.entries()))
        dims.add(got.dim)
    assert len(dims) >= 4


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
    assert all(c == 0 for c in t.structure[0][0])
    assert list(t.entries()) == []


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


def test_search_computes_each_candidates_relations_once(monkeypatch):
    # The catalog fixtures are candidates on both sides; at max_dim 3 and
    # budget 1 that is 8 fixtures and one random candidate per side.  Rel(A)
    # is one kernel per instance object, cached on it, so a second search
    # in the process computes it only for its own 2 random candidates.
    catalog = algebra_instances._fixtures()  # a cold catalog
    monkeypatch.setattr(algebra_instances, "_CATALOG", catalog)
    kernels = []

    def counted(rows, ambient_dim):
        kernels.append(rows)
        return kernel(rows, ambient_dim)

    monkeypatch.setattr(algebra_instances, "kernel", counted)
    leib = preset("leib").relations

    def search(seed):
        search_counterexample(leib, preset("zinb").relations,
                              leib.basis_elements(), max_dim=3, seed=seed,
                              budget=1)

    fixtures = [a for a in catalog.values() if a.dim <= 3]
    assert len(fixtures) == 8
    search(0)
    # the 8 fixtures, whose modules are now cached, and the 2 random ones
    assert len(kernels) == 10
    assert all("_relations" in vars(a) for a in fixtures)
    modules = [algebra_relations(a) for a in fixtures]
    search(1)
    assert len(kernels) == 12
    assert all(algebra_relations(a) is m for a, m in zip(fixtures, modules))


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


def test_witness_stops_at_its_first_violation():
    # The search returns the first violation of its failing tensor product
    # in `check_relations` order, on the first target relation.
    leib = preset("leib").relations
    targets = leib.basis_elements()
    found = search_counterexample(leib, preset("zinb").relations, targets,
                                  max_dim=4, seed=0)
    t = tensor_instance(found.left, found.right, MixedProduct.identity())
    assert found.violation == check_relations(t, leib)[0]
    assert found.violation.relation == targets[0]


# Constants whose denominators are coprime, so the instances' integer scale
# is their product.
_COPRIME = (Fraction(1, 2), Fraction(2, 3), Fraction(7, 10007))


def _rescaled(alg):
    """alg's structure constants times 1/2, 2/3 and 7/10007 in turn."""
    return AlgebraInstance.from_entries(
        alg.dim, [(i, j, k, v * _COPRIME[n % 3])
                  for n, (i, j, k, v) in enumerate(alg.entries())])


def _assert_first_violation(t, r, want):
    """The search's witness, the first violation `_violations` yields, is
    want's first, with Fraction entries."""
    got = next(algebra_instances._violations(t, r.basis_elements()), None)
    if not want:
        assert got is None
        return False
    assert got == want[0] and str(got) == str(want[0])
    assert all(type(v) is Fraction for v in got.value)
    return True


def test_witness_is_the_first_violation_of_check_relations():
    relations = [preset(p).relations for p in ("ass", "leib", "zinb",
                                               "poiss")]
    catalog = [example(name) for name in example_names()]
    rescaled = [_rescaled(a) for a in catalog]
    found = 0
    # small pairs against the dense Fraction reference
    small = [a for a in catalog + rescaled if a.dim == 2]
    for a, b in itertools.product(small, repeat=2):
        t = tensor_instance(a, b, MixedProduct.identity())
        for r in relations:
            want = reference_violations(t, r.basis_elements())
            assert check_relations(t, r) == want
            found += _assert_first_violation(t, r, want)
    # each fixture against its rescaled copy, up to dimension 16, against
    # the sparse Fraction table
    for a, b in zip(catalog, rescaled):
        t = tensor_instance(a, b, MixedProduct.identity())
        for r in relations:
            want = reference_table_violations(t, r.basis_elements())
            assert check_relations(t, r) == want
            found += _assert_first_violation(t, r, want)
    assert found > 70


def test_integer_pair_verdict_matches_closure_holds():
    # The search decides a pair of modules on the integer RREF rows of the
    # targets' span, stopping at the first row that leaks.
    modules = [algebra_relations(example(name)) for name in example_names()]
    identity = MixedProduct.identity()
    bases = [preset(p).relations.basis_elements()
             for p in ("ass", "leib", "zinb", "poiss")]
    every = [t for basis in bases for t in basis]
    verdicts = []
    for r_a, r_b in itertools.product(modules, repeat=2):
        for targets in bases:
            holds, certs = closure_holds(r_a, r_b, identity, targets)
            rows = span([t.coords for t in targets], 12).rows
            assert closure_holds_on_rows(r_a, r_b, identity, rows) == holds
            for tgt, cert in zip(targets, certs):
                scaled = [-3 * x for x in integer_row(tgt.coords)[0]]
                assert closure_holds_on_rows(
                    r_a, r_b, identity, [scaled]) == cert.holds
            verdicts.append(holds)
        # all 24 targets, in both orders: one leaking row anywhere decides
        holds, _ = closure_holds(r_a, r_b, identity, every)
        rows = [integer_row(t.coords)[0] for t in every]
        for ordered in (rows, rows[::-1]):
            assert closure_holds_on_rows(r_a, r_b, identity,
                                         ordered) == holds
    assert len(verdicts) == 4 * 9 * 9
    assert 0 < verdicts.count(True) < len(verdicts)


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


def _assert_check_matches_reference(alg, r):
    """check_relations and satisfies agree with dense evaluation of r's
    basis (its lifts, for a symmetric class) on every basis triple; returns
    whether A satisfies r."""
    if r.symmetry is not REGULAR and commutativity_violations(
            alg, anti=r.symmetry is ANTICOMMUTATIVE):
        with pytest.raises(ValueError, match="product is not"):
            check_relations(alg, r)
        assert not satisfies(alg, r)
        return False
    got = check_relations(alg, r)
    want = reference_violations(alg, [lift(x) for x in r.basis_elements()])
    assert got == want
    assert [str(v) for v in got] == [str(v) for v in want]
    assert all(type(c) is Fraction for v in got for c in v.value)
    assert satisfies(alg, r) == (not want)
    return not want


def test_check_relations_matches_dense_reference_on_the_catalog():
    for name in example_names():
        alg = example(name)
        for preset_name in PRESET_NAMES:
            _assert_check_matches_reference(alg, preset(preset_name).relations)
        assert reference_violations(
            alg, algebra_relations(alg).basis_elements()) == [], name


def _random_instance(rng, dim, symmetry):
    """Sparse rational structure constants; (anti)commutative when the
    class asks for it."""
    sign = {REGULAR: None, COMMUTATIVE: 1, ANTICOMMUTATIVE: -1}[symmetry]
    c = {}
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            if sign is not None and (j < i or (sign < 0 and j == i)):
                continue
            for k in range(1, dim + 1):
                if rng.random() < 0.3:
                    c[i, j, k] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    if sign is not None and j != i:
                        c[j, i, k] = sign * c[i, j, k]
    return AlgebraInstance.from_entries(
        dim, [(*key, v) for key, v in c.items()])


def _random_module(rng, symmetry):
    coords = [Fraction(rng.choice([-2, -1, 1, 2])) if rng.random() < 0.4
              else Fraction(0) for _ in range(symmetry.dim)]
    return orbit_span([Weight3Element(symmetry, tuple(coords))], symmetry)


def test_check_relations_matches_dense_reference_on_random_instances():
    rng = random.Random(12)
    verdicts = []
    for n in range(60):
        symmetry = (REGULAR, COMMUTATIVE, ANTICOMMUTATIVE)[n % 3]
        alg = _random_instance(rng, rng.randint(1, 4), symmetry)
        for r in (_random_module(rng, symmetry), _random_module(rng, REGULAR),
                  algebra_relations(alg)):
            verdicts.append(_assert_check_matches_reference(alg, r))
    assert verdicts.count(False) > 30 and verdicts.count(True) > 60


def test_tensor_instance_matches_dense_reference():
    products = (MixedProduct.identity(), MixedProduct.bracket(),
                MixedProduct.poisson_twist(),
                MixedProduct.poisson_twist_literal())
    for a_name in example_names():
        for b_name in example_names():
            a, b = example(a_name), example(b_name)
            for mu in products:
                got = tensor_instance(a, b, mu)
                assert got == reference_tensor_instance(a, b, mu), \
                    (a_name, b_name, mu)
                assert all(type(v) is Fraction for row in got.structure
                           for cell in row for v in cell)


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
