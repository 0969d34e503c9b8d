import random
from fractions import Fraction
from functools import cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operad_forge.cli import _FAMILY_SWEEP
from operad_forge.foundation import full_space, span
from operad_forge.group_module import PERMS, apply_idempotent
from operad_forge.operad_calculus import (
    PRESET_NAMES,
    QuadraticOperad,
    RelationModule,
    dual,
    orbit_span,
    presentation_of,
    presented_relation,
    preset,
    regular_presets,
    tilde,
)
from operad_forge.relation_dsl import parse_relation
from operad_forge.tensor_closure import (
    E2,
    PAIR_KEYS,
    MixedProduct,
    SWAP,
    bracket_antisymmetric,
    bracket_is_lie,
    closure_holds,
    jacobiator_template,
    leaks,
    lift_closure,
    minimal_companion,
    placements,
    theorem1_check,
    twisted_poisson_check,
)
from operad_forge.weight_spaces import (
    ACTION_TABLE,
    ANTICOMMUTATIVE,
    COMMUTATIVE,
    LEFT,
    MONOMIALS,
    PAIRING,
    REGULAR,
    RIGHT,
    Monomial3,
    Weight3Element,
    act_vector,
    apply_node_swaps,
    associator,
    lift,
    psi,
)

from conftest import (
    TensorElement3,
    act,
    comb_in,
    example,
    example_names,
    full_module,
    reference_act_tensor,
    reference_closure,
    reference_expand,
    reference_jacobiator_template,
    reference_membership,
    reference_project,
    white_product,
    zero_module,
)
from test_operad_calculus import _sparse_elements


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


def _placed(relation, product, sym_a=REGULAR, sym_b=REGULAR):
    """The dense expansion matrix that the placement table describes."""
    den, cells = placements(product, sym_a, sym_b)
    out = [[Fraction(0)] * sym_b.dim for _ in range(sym_a.dim)]
    for c, cells_m in zip(relation.coords, cells):
        for ia, ib, alpha in cells_m if c else ():
            out[ia][ib] += c * alpha
    return TensorElement3(sym_a, sym_b, tuple(
        tuple(x / den for x in row) for row in out))


def test_identity_expansion_is_diagonal():
    assert placements(MixedProduct.identity(), REGULAR, REGULAR) == (
        1, tuple(((n, n, 1),) for n in range(12)))
    x = associator((1, 2, 3)).scaled(2)
    t = _placed(x, MixedProduct.identity())
    for m in MONOMIALS:
        for n in MONOMIALS:
            want = x.coords[m.index] if m == n else 0
            assert t.coords[m.index][n.index] == want


def test_bracket_expansion_term_count():
    # one monomial template expands into 4 signed monomial pairs per factor
    den, cells = placements(MixedProduct.bracket(), REGULAR, REGULAR)
    assert den == 1
    assert all(len(cells_m) == 4 for cells_m in cells)
    assert all(abs(alpha) == 1 for cells_m in cells for *_, alpha in cells_m)


def test_expand_rejects_symmetric_template():
    free = zero_module(REGULAR)
    with pytest.raises(ValueError):
        leaks(comb_in(COMMUTATIVE, 1), MixedProduct.identity(), free, free)
    with pytest.raises(ValueError):
        reference_expand(comb_in(COMMUTATIVE, 1), MixedProduct.identity())


def test_expand_equivariance_identity_product():
    # R_A (x) Gamma + Gamma (x) R_B is invariant under the diagonal action,
    # so a target and its translates leak together.
    x = parse_relation("(x*y)*z - 2*x*(z*y)")
    t = reference_expand(x, MixedProduct.identity())
    r_a, r_b = preset("leib").relations, preset("zinb").relations
    verdict = bool(leaks(x, MixedProduct.identity(), r_a, r_b))
    for sigma in PERMS:
        y = act(sigma, x)
        assert reference_expand(y, MixedProduct.identity()) == \
            reference_act_tensor(sigma, t)
        assert bool(leaks(y, MixedProduct.identity(), r_a, r_b)) == verdict


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
    for product in (MixedProduct.identity(), MixedProduct.bracket()):
        assert leaks(x, product, zero_module(REGULAR),
                     full_module(REGULAR)) == ()
        assert leaks(x, product, full_module(REGULAR),
                     zero_module(REGULAR)) == ()


def test_membership_zero_modules_reject_nonzero():
    x = associator((1, 2, 3))
    t = reference_expand(x, MixedProduct.identity())
    residuals = leaks(x, MixedProduct.identity(), zero_module(REGULAR),
                      zero_module(REGULAR))
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
        t = reference_expand(tgt, MixedProduct.identity())
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
    operads = [preset(name) for name in regular_presets()]
    # the family sweep, and the exceptional family_t members t = -1, 1/2
    operads += [preset(*spec) for spec in _FAMILY_SWEEP]
    operads += [preset("family_t", t) for t in (-1, Fraction(1, 2))]
    for p in operads:
        assert minimal_companion(p) == _reference_minimal_companion(p), p.name


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


def _assert_membership_matches_reference(tgt, product, r_a, r_b):
    t = reference_expand(tgt, product, r_a.symmetry, r_b.symmetry)
    got = leaks(tgt, product, r_a, r_b)
    assert got == reference_membership(t, r_a, r_b)
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
                    leaking += bool(_assert_membership_matches_reference(
                        tgt, product, p.relations, q.relations))
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
            for r_a in modules[sym_a]:
                for r_b in modules[sym_b]:
                    _assert_membership_matches_reference(
                        tgt, product, r_a, r_b)


def test_minimal_companion_rejects_symmetric():
    with pytest.raises(ValueError):
        minimal_companion(preset("lie"))


def test_jacobiator_template_shape():
    j = jacobiator_template()
    assert j.symmetry is REGULAR
    # twelve signed terms, all coefficients +-1
    assert sum(1 for c in j.coords if c != 0) == 12
    assert all(abs(c) == 1 for c in j.coords if c != 0)
    assert j == reference_jacobiator_template()
    # the Lie-admissible relation, and the Koszul pairing's diagonal negated
    lieadm = preset("lieadm")
    assert [presented_relation(v, w, REGULAR)
            for v, w in lieadm.presentation] == [j]
    assert j.coords == tuple(-d for d in PAIRING)
    # <sx, sy> = sgn(s) <x, y>, which makes every dual invariant
    for sigma in PERMS:
        assert tuple(s * PAIRING[i] for i, s in ACTION_TABLE[REGULAR, sigma]
                     ) == tuple(sigma.sign() * d for d in PAIRING)


def _bracket_companion(r):
    """The least invariant S such that the bracket on A (x) B satisfies
    Jacobi for every A with relations r and every S-algebra B: the orbit
    span of the B-side residuals of the Jacobi template against a free B."""
    residuals = leaks(jacobiator_template(), MixedProduct.bracket(), r,
                      zero_module(REGULAR))
    return orbit_span([Weight3Element(REGULAR, row) for _, row in residuals],
                      REGULAR)


def test_dual_is_the_minimal_bracket_companion():
    operads = [preset(name) for name in PRESET_NAMES]
    operads = [p for p in operads if p.symmetry is REGULAR]
    operads += [preset(*spec) for spec in _FAMILY_SWEEP]
    assert len(operads) == 32
    for p in operads:
        assert _bracket_companion(p.relations) == dual(p).relations, p.name


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(_sparse_elements(REGULAR), min_size=1, max_size=2))
def test_dual_is_the_minimal_bracket_companion_on_orbit_spans(xs):
    p = QuadraticOperad(REGULAR, orbit_span(xs, REGULAR))
    assert _bracket_companion(p.relations) == dual(p).relations


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
    """a times b, skipping the zero entries of a."""
    out = []
    for row in a:
        acc = [Fraction(0)] * len(b[0])
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append(acc)
    return out


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
                want = TensorElement3(
                    sym_a, sym_b, _reference_project_columns(rows, sym_b))
                assert reference_expand(tgt, product, sym_a, sym_b) == want
                got = _placed(tgt, product, sym_a, sym_b)
                assert got == want
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
        space = span([b for i, sp in enumerate(pieces) if mask & (1 << i)
                      for b in sp.basis], 3)
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


NAMED_PRODUCTS = (MixedProduct.identity(), MixedProduct.bracket(),
                  MixedProduct.poisson_twist(),
                  MixedProduct.poisson_twist_literal())


@cache
def _closure_modules():
    """Relations, duals and tildes of the theorem-1 presets, and Rel(A) of
    the catalog instances, each module once."""
    from operad_forge.algebra_instances import algebra_relations

    modules = []
    for name in regular_presets() + ["lie", "com"]:
        p = preset(name)
        modules += [p.relations, dual(p).relations, tilde(p).relations]
    modules += [algebra_relations(example(n)) for n in example_names()]
    return list(dict.fromkeys(modules))


def _fitting_pairs():
    # A symmetric left factor is checked through lifts, against comm only.
    modules = _closure_modules()
    return [(r_a, r_b) for r_a in modules for r_b in modules
            if r_a.symmetry is REGULAR or r_b.symmetry is COMMUTATIVE]


def test_leaks_match_reference_closure_on_every_module_pair():
    pairs = _fitting_pairs()
    assert len(pairs) > 1000
    leaking = 0
    for r_a, r_b in pairs:
        targets = [lift(x) for x in r_a.basis_elements()]
        for product in NAMED_PRODUCTS:
            ok, certs = closure_holds(r_a, r_b, product, targets)
            got = [c.residuals for c in certs]
            assert got == reference_closure(r_a, r_b, product, targets)
            assert all(type(c) is Fraction
                       for res in got for _, row in res for c in row)
            assert ok == (not any(got))
            leaking += sum(map(bool, got))
    assert leaking > 10000


def test_closure_holds_exactly_on_the_white_product():
    rng = random.Random(10)
    pairs = _fitting_pairs()
    verdicts = set()
    for r_a, r_b in rng.sample(pairs, 60):
        for product in NAMED_PRODUCTS:
            w = white_product(r_a, r_b, product)
            targets = [lift(x) for x in r_a.basis_elements()]
            targets.append(Weight3Element(REGULAR, tuple(
                Fraction(rng.randint(-2, 2)) for _ in range(12))))
            targets.append(Weight3Element(REGULAR, tuple(
                sum(rng.randint(-2, 2) * b[k] for b in w.basis)
                for k in range(12))))
            for tgt in targets:
                ok, _ = closure_holds(r_a, r_b, product, [tgt])
                assert ok == w.contains(tgt.coords)
                verdicts.add(ok)
            ok, _ = closure_holds(r_a, r_b, product, targets[:-2])
            assert ok == all(w.contains(t.coords) for t in targets[:-2])
    assert verdicts == {True, False}


# --- Manin white-product laws under the identity product ---------------------


def _w(r_a, r_b):
    return RelationModule(REGULAR,
                          white_product(r_a, r_b, MixedProduct.identity()))


def _regular_preset_operads():
    operads = [preset(name) for name in regular_presets()]
    assert len(operads) == 18
    return operads


_ORBIT_SPANS = st.lists(_sparse_elements(REGULAR), min_size=1,
                        max_size=2).map(partial(orbit_span, symmetry=REGULAR))


def _unit_law(r):
    # comm3 identifies all 12 monomials: the commutative associative product
    assert _w(r, preset("comm3").relations) == r


def _absorbing_law(r):
    assert _w(r, full_module(REGULAR)) == full_module(REGULAR)


def _commutative_law(a, b):
    assert _w(a, b) == _w(b, a)


def _associative_law(a, b, c):
    assert _w(_w(a, b), c) == _w(a, _w(b, c))


def _companion_law(p):
    # the minimal companion of P is the dual of W(P^!, P)
    w = _w(dual(p).relations, p.relations)
    assert minimal_companion(p) == dual(QuadraticOperad(REGULAR, w)).relations


def _theorem1_law(p):
    w = _w(p.relations, tilde(p).relations)
    assert p.relations.space.is_subspace_of(w.space)


def test_white_product_unit_on_presets():
    for p in _regular_preset_operads():
        _unit_law(p.relations)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_ORBIT_SPANS)
def test_white_product_unit_on_orbit_spans(r):
    _unit_law(r)


def test_white_product_absorbing_on_presets():
    for p in _regular_preset_operads():
        _absorbing_law(p.relations)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_ORBIT_SPANS)
def test_white_product_absorbing_on_orbit_spans(r):
    _absorbing_law(r)


def test_white_product_commutative_on_presets():
    modules = [p.relations for p in _regular_preset_operads()]
    for i, a in enumerate(modules):
        for b in modules[i + 1:]:
            _commutative_law(a, b)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_ORBIT_SPANS, _ORBIT_SPANS)
def test_white_product_commutative_on_orbit_spans(a, b):
    _commutative_law(a, b)


def test_white_product_associative_on_presets():
    modules = [p.relations for p in _regular_preset_operads()]
    rng = random.Random(1994)
    for _ in range(60):
        _associative_law(*(rng.choice(modules) for _ in range(3)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_ORBIT_SPANS, _ORBIT_SPANS, _ORBIT_SPANS)
def test_white_product_associative_on_orbit_spans(a, b, c):
    _associative_law(a, b, c)


def test_minimal_companion_is_dual_of_white_product_on_presets():
    for p in _regular_preset_operads():
        _companion_law(p)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_ORBIT_SPANS)
def test_minimal_companion_is_dual_of_white_product_on_orbit_spans(r):
    _companion_law(QuadraticOperad(REGULAR, r))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_ORBIT_SPANS)
def test_minimal_companion_matches_reference_on_orbit_spans(r):
    p = QuadraticOperad(REGULAR, r)
    assert minimal_companion(p) == _reference_minimal_companion(p)


def test_relations_lie_in_white_product_with_tilde_on_presets():
    for p in _regular_preset_operads():
        _theorem1_law(p)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_ORBIT_SPANS)
def test_relations_lie_in_white_product_with_tilde_on_orbit_spans(r):
    _theorem1_law(QuadraticOperad(REGULAR, r))


def test_theorem1_is_lift_closure_against_tilde():
    for name in ("ass", "leib", "lie", "com"):
        p = preset(name)
        assert theorem1_check(p) == lift_closure(p, tilde(p).relations)


@pytest.mark.parametrize("p_name,r_b", [
    ("lie", "lie"), ("com", "lie"), ("lie", "regular"), ("com", "regular")])
def test_lift_closure_refuses_a_symmetric_p_against_non_commutative_r_b(
        p_name, r_b):
    # the lifts of lie's relations expand to False against lie's own
    # relations through `lift`, and to True through `_equivariant_lift`
    p = preset(p_name)
    rel = full_module(REGULAR) if r_b == "regular" else preset(r_b).relations
    with pytest.raises(ValueError, match=(
            f"^a P of class {p.symmetry.value} is decided through lifts only "
            f"against an R_B of class comm, got {rel.symmetry.value}$")):
        lift_closure(p, rel)
