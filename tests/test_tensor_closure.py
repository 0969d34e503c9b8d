import random
from fractions import Fraction
from functools import cache, partial

import pytest

from operad_forge.foundation import combine, full_space, span
from operad_forge.group_module import PERMS, apply_idempotent
from operad_forge.operad_calculus import (
    QuadraticOperad,
    RelationModule,
    dual,
    full_module,
    orbit_span,
    presentation_of,
    preset,
    regular_presets,
    tilde,
    zero_module,
)
from operad_forge.relation_dsl import parse_relation
from operad_forge.tensor_closure import (
    E2,
    PAIR_KEYS,
    MixedProduct,
    SWAP,
    TensorElement3,
    act_tensor,
    apply_node_swaps,
    bracket_antisymmetric,
    bracket_is_lie,
    closure_holds,
    expand,
    jacobiator_template,
    membership,
    minimal_companion,
    theorem1_check,
    twisted_poisson_check,
)
from operad_forge.weight_spaces import (
    ANTICOMMUTATIVE,
    COMMUTATIVE,
    LEFT,
    MONOMIALS,
    REGULAR,
    RIGHT,
    Monomial3,
    Weight3Element,
    act,
    act_vector,
    associator,
    lift,
    psi,
)

from conftest import reference_project


def test_apply_node_swaps():
    m = Monomial3(LEFT, (1, 2, 3))
    assert apply_node_swaps(m, False, False) == m
    assert apply_node_swaps(m, False, True) == Monomial3(LEFT, (2, 1, 3))
    assert apply_node_swaps(m, True, False) == Monomial3(RIGHT, (3, 1, 2))
    r = Monomial3(RIGHT, (1, 2, 3))
    assert apply_node_swaps(r, True, False) == Monomial3(LEFT, (2, 3, 1))
    assert apply_node_swaps(r, False, True) == Monomial3(RIGHT, (1, 3, 2))


def test_node_swaps_are_involutive():
    for m in MONOMIALS:
        for root in (False, True):
            for inner in (False, True):
                twice = apply_node_swaps(
                    apply_node_swaps(m, root, inner), root, inner
                )
                assert twice == m


def test_identity_expansion_is_diagonal():
    x = associator((1, 2, 3)).scaled(2)
    t = expand(x, MixedProduct.identity())
    for m in MONOMIALS:
        for n in MONOMIALS:
            want = x.coords[m.index] if m == n else 0
            assert t.coords[m.index][n.index] == want


def test_bracket_expansion_term_count():
    # one monomial template expands into 4 signed monomial pairs per factor
    x = Weight3Element.monomial(LEFT, (1, 2, 3))
    t = expand(x, MixedProduct.bracket())
    assert sum(1 for row in t.coords for c in row if c != 0) == 4


def test_expand_rejects_symmetric_template():
    from operad_forge.weight_spaces import comb_in

    with pytest.raises(ValueError):
        expand(comb_in(COMMUTATIVE, 1), MixedProduct.identity())


def test_expand_equivariance_identity_product():
    x = parse_relation("(x*y)*z - 2*x*(z*y)")
    t = expand(x, MixedProduct.identity())
    from operad_forge.weight_spaces import act

    for sigma in PERMS:
        assert expand(act(sigma, x), MixedProduct.identity()) == \
            act_tensor(sigma, t)


def test_mixed_product_precompose_swap():
    beta = MixedProduct.bracket()
    assert beta.precompose_swap() == beta.negated()
    assert bracket_antisymmetric()
    ident = MixedProduct.identity()
    assert ident.precompose_swap() == MixedProduct.from_dict(
        {(SWAP, SWAP): 1}
    )
    assert ident[(E2, E2)] == 1
    assert ident[(E2, SWAP)] == 0


def test_membership_full_ambient_always_absorbs():
    x = parse_relation("(x*y)*z + 3*x*(y*z)")
    t = expand(x, MixedProduct.identity())
    assert membership(t, zero_module(REGULAR), full_module(REGULAR)) == ()


def test_membership_zero_modules_reject_nonzero():
    x = associator((1, 2, 3))
    t = expand(x, MixedProduct.identity())
    residuals = membership(t, zero_module(REGULAR), zero_module(REGULAR))
    # the associator's two monomials survive, each paired with itself
    assert residuals == tuple(
        (m.index, t.coords[m.index])
        for m in (Monomial3(LEFT, (1, 2, 3)), Monomial3(RIGHT, (1, 2, 3)))
    )


def test_associativity_closes_under_tensor():
    p = preset("ass")
    ok, certs = closure_holds(
        p.relations, p.relations, MixedProduct.identity(),
        p.relations.basis_elements(),
    )
    assert ok
    assert all(c.holds for c in certs)


def test_leibniz_zinbiel_does_not_close():
    ok, certs = closure_holds(
        preset("leib").relations, preset("zinb").relations,
        MixedProduct.identity(), preset("leib").relations.basis_elements(),
    )
    assert not ok
    assert any(c.residuals for c in certs)
    failing = [c for c in certs if not c.holds]
    assert "residual" in failing[0].describe()


def test_theorem1_on_all_presets():
    from operad_forge.operad_calculus import regular_presets

    for name in regular_presets() + ["lie", "com"]:
        ok, _ = theorem1_check(preset(name))
        assert ok, name


def test_minimal_companion_of_free_operad_is_zero():
    free = QuadraticOperad(REGULAR, zero_module(REGULAR))
    assert minimal_companion(free).dim == 0


def test_minimal_companion_contained_in_tilde():
    for name in ("g1ass", "g4ass", "leib", "poiss"):
        p = preset(name)
        comp = minimal_companion(p)
        assert comp.space.is_subspace_of(tilde(p).relations.space)
        ok, _ = closure_holds(
            p.relations, comp, MixedProduct.identity(),
            p.relations.basis_elements(),
        )
        assert ok


def _reference_minimal_companion(p):
    """The companion before it went through `membership`: its own loop."""
    r = p.relations
    collected = []
    for tgt in r.basis_elements():
        t = expand(tgt, MixedProduct.identity())
        mat = [list(row) for row in t.coords]
        for row_basis in r.space.basis:
            pcol = next(i for i, e in enumerate(row_basis) if e != 0)
            pivot_row = mat[pcol][:]
            for i in range(12):
                f = row_basis[i]
                if f != 0:
                    mat[i] = [a - f * b for a, b in zip(mat[i], pivot_row)]
        for i in r.space.complement_columns():
            if any(c != 0 for c in mat[i]):
                collected.append(Weight3Element(REGULAR, tuple(mat[i])))
    if not collected:
        return RelationModule(REGULAR, span([], 12))
    return orbit_span(collected, REGULAR)


def test_minimal_companion_matches_reference_on_every_regular_preset():
    for name in regular_presets():
        p = preset(name)
        assert minimal_companion(p) == _reference_minimal_companion(p), name


def _reference_membership(t, r_a, r_b):
    """`membership` before it went through `Subspace.reduce`: its own
    Fraction loop subtracts outer products on the A side."""
    mat = [list(row) for row in t.coords]
    for row_basis, p in zip(r_a.space.basis, r_a.space.pivot_columns()):
        pivot_row = mat[p][:]
        for i, f in enumerate(row_basis):
            if f != 0:
                mat[i] = [a - f * b for a, b in zip(mat[i], pivot_row)]
    residuals = []
    for i in r_a.space.complement_columns():
        res = r_b.space.reduce(tuple(mat[i]))
        if any(c != 0 for c in res):
            residuals.append((i, res))
    return tuple(residuals)


def _assert_membership_matches_reference(t, r_a, r_b):
    got = membership(t, r_a, r_b)
    assert got == _reference_membership(t, r_a, r_b)
    assert all(type(c) is Fraction for _, res in got for c in res)
    return got


def test_membership_matches_reference_on_regular_presets():
    names = regular_presets()
    products = (MixedProduct.identity(), MixedProduct.bracket(),
                MixedProduct.poisson_twist())
    leaking = 0
    for k, name in enumerate(names):
        p = preset(name)
        for q in (p, dual(p), preset(names[(k + 1) % len(names)])):
            for product in products:
                for tgt in p.relations.basis_elements():
                    t = expand(tgt, product)
                    leaking += bool(_assert_membership_matches_reference(
                        t, p.relations, q.relations))
    assert leaking > 100


def test_membership_matches_reference_on_symmetric_classes():
    rng = random.Random(77)
    modules = {
        sym: [zero_module(sym), full_module(sym)]
        for sym in (REGULAR, COMMUTATIVE, ANTICOMMUTATIVE)
    }
    modules[COMMUTATIVE].append(preset("com").relations)
    modules[ANTICOMMUTATIVE].append(preset("lie").relations)
    modules[REGULAR].append(preset("leib").relations)
    for _ in range(60):
        tgt = Weight3Element(REGULAR, tuple(
            Fraction(rng.choice([0, 0, 1, -1, 3]), rng.choice([1, 2, 65537]))
            for _ in range(12)))
        product = MixedProduct(tuple(
            Fraction(rng.randint(-2, 2)) for _ in range(4)))
        for sym_a, sym_b in ((COMMUTATIVE, ANTICOMMUTATIVE),
                             (ANTICOMMUTATIVE, ANTICOMMUTATIVE),
                             (REGULAR, COMMUTATIVE)):
            t = expand(tgt, product, sym_a, sym_b)
            for r_a in modules[sym_a]:
                for r_b in modules[sym_b]:
                    _assert_membership_matches_reference(t, r_a, r_b)


def test_minimal_companion_rejects_symmetric():
    with pytest.raises(ValueError):
        minimal_companion(preset("lie"))


def test_jacobiator_template_shape():
    j = jacobiator_template()
    assert j.symmetry is REGULAR
    # twelve signed terms, all coefficients +-1
    assert sum(1 for c in j.coords if c != 0) == 12
    assert all(abs(c) == 1 for c in j.coords if c != 0)


def test_bracket_is_lie_for_dual_pairs():
    for i in range(1, 7):
        p = preset(f"g{i}ass")
        assert bracket_is_lie(p.relations, dual(p).relations)


def test_bracket_is_lie_fails_without_relations():
    assert not bracket_is_lie(zero_module(REGULAR), zero_module(REGULAR))


def test_twisted_poisson():
    ok, certs = twisted_poisson_check()
    assert ok
    assert all(c.holds for c in certs)


def test_twisted_poisson_literal_signs_fail():
    poiss = preset("poiss")
    ok, _ = closure_holds(
        poiss.relations, poiss.relations,
        MixedProduct.poisson_twist_literal(),
        poiss.relations.basis_elements(),
    )
    assert not ok


def test_tensor_element_helpers():
    x = associator((1, 2, 3))
    t = expand(x, MixedProduct.identity())
    assert not t.is_zero()
    assert t.dim_a == 12 and t.dim_b == 12
    zero = TensorElement3(
        REGULAR, REGULAR,
        tuple((Fraction(0),) * 12 for _ in range(12)),
    )
    assert zero.is_zero()


@cache
def _reference_projection_matrix(target):
    """Rows are the comb coordinates of each of the 12 regular monomials."""
    cols = [
        reference_project(Weight3Element.monomial(m.shape, m.labels),
                          target).coords
        for m in MONOMIALS
    ]
    return [tuple(col[p] for col in cols) for p in range(3)]


def _reference_matmul(a, b):
    return [
        [sum((x * y for x, y in zip(row, col)), Fraction(0))
         for col in zip(*b)]
        for row in a
    ]


def _reference_regular_expand(relation, product):
    """`expand` before PROJECTION, first step: the 12 x 12 regular matrix."""
    mat = [[Fraction(0)] * 12 for _ in range(12)]
    for m in MONOMIALS:
        c = relation.coords[m.index]
        if c == 0:
            continue
        for s_r, t_r in PAIR_KEYS:
            a_r = product[(s_r, t_r)]
            if a_r == 0:
                continue
            for s_i, t_i in PAIR_KEYS:
                a_i = product[(s_i, t_i)]
                if a_i == 0:
                    continue
                ma = apply_node_swaps(m, s_r == SWAP, s_i == SWAP)
                mb = apply_node_swaps(m, t_r == SWAP, t_i == SWAP)
                mat[ma.index][mb.index] += c * a_r * a_i
    return mat


def _reference_project_rows(mat, symmetry):
    """`expand` before PROJECTION, second step: the A factor multiplied by
    its 3 x 12 projection matrix."""
    if symmetry is REGULAR:
        return mat
    return _reference_matmul(_reference_projection_matrix(symmetry), mat)


def _reference_project_columns(mat, symmetry):
    """`expand` before PROJECTION, last step: the same for the B factor."""
    if symmetry is not REGULAR:
        pb = _reference_projection_matrix(symmetry)
        mat = zip(*_reference_matmul(pb, [list(c) for c in zip(*mat)]))
    return tuple(tuple(row) for row in mat)


CLASSES = (REGULAR, COMMUTATIVE, ANTICOMMUTATIVE)


def test_expand_matches_projection_matrix_reference():
    rng = random.Random(8)
    for _ in range(200):
        tgt = Weight3Element(REGULAR, tuple(
            Fraction(rng.choice([0, 0, 0, 1, -1, 2]), rng.choice([1, 3]))
            for _ in range(12)))
        product = MixedProduct(tuple(
            Fraction(rng.choice([0, 1, -1, 2, 3]), rng.choice([1, 2]))
            for _ in range(4)))
        regular = _reference_regular_expand(tgt, product)
        for sym_a in CLASSES:
            rows = _reference_project_rows(regular, sym_a)
            for sym_b in CLASSES:
                got = expand(tgt, product, sym_a, sym_b)
                assert got == TensorElement3(
                    sym_a, sym_b, _reference_project_columns(rows, sym_b))
                assert all(type(c) is Fraction
                           for row in got.coords for c in row)


def _reference_symmetric_targets(p):
    """theorem1_check's symmetric targets before lifts: the regular
    template psi(v, L) - psi(w, R) of each presentation pair and its orbit."""
    return [act(sigma, psi(v, LEFT) - psi(w, RIGHT))
            for v, w in presentation_of(p) for sigma in PERMS]


def _symmetric_enumeration(symmetry):
    """The invariant submodules of a symmetric class: every sum of its
    isotypic pieces, as the report's symmetric enumeration builds them."""
    action = partial(act_vector, symmetry)
    pieces = [span([apply_idempotent(kind, action, u)
                    for u in full_space(3).basis], 3)
              for kind in ("triv", "sgn", "std")]
    pieces = [sp for sp in pieces if sp.dim]
    modules = []
    for mask in range(2 ** len(pieces)):
        space = span([], 3)
        for i, sp in enumerate(pieces):
            if mask & (1 << i):
                space = combine(space, sp, "sum")
        modules.append(RelationModule(symmetry, space))
    return modules


def test_symmetric_lift_targets_match_orbit_targets():
    rng = random.Random(5)
    operads = [preset("lie"), preset("com")]
    for symmetry in (COMMUTATIVE, ANTICOMMUTATIVE):
        operads += [QuadraticOperad(symmetry, m)
                    for m in _symmetric_enumeration(symmetry)]
        for _ in range(4):
            gen = Weight3Element(symmetry, tuple(
                Fraction(rng.randint(-3, 3)) for _ in range(3)))
            operads.append(
                QuadraticOperad(symmetry, orbit_span([gen], symmetry)))
    companions = _symmetric_enumeration(COMMUTATIVE)
    assert len(operads) == 18 and len(companions) == 4
    products = (MixedProduct.identity(), MixedProduct.bracket(),
                MixedProduct.poisson_twist(),
                MixedProduct.from_dict({(E2, SWAP): 2, (SWAP, E2): -1}))
    verdicts = {COMMUTATIVE: set(), ANTICOMMUTATIVE: set()}
    for p in operads:
        lifts = [lift(x) for x in p.relations.basis_elements()]
        orbits = _reference_symmetric_targets(p)
        for r_b in companions:
            for product in products:
                got, _ = closure_holds(p.relations, r_b, product, lifts)
                want, _ = closure_holds(p.relations, r_b, product, orbits)
                assert got == want
                verdicts[p.symmetry].add(got)
    assert verdicts == {COMMUTATIVE: {True, False},
                        ANTICOMMUTATIVE: {True, False}}


def test_theorem1_symmetric_targets_are_lifts():
    for name in ("lie", "com"):
        p = preset(name)
        ok, certs = theorem1_check(p)
        assert ok
        assert [c.target for c in certs] == [
            lift(x) for x in p.relations.basis_elements()]
