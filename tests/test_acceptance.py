"""Acceptance gate: twelve exact end-to-end criteria.

Each test prints a single pass/fail line so a plain ``pytest -s`` run of this
file doubles as a checklist.  Every assertion is exact (rational arithmetic,
subspace equality); there are no tolerances.
"""

import json
import pathlib
from itertools import permutations

from operad_forge.algebra_instances import (
    commutativity_violations,
    satisfies,
    tensor_instance,
)
from operad_forge.cli import run
from operad_forge.foundation import span
from operad_forge.group_module import (
    C1,
    ID,
    T12,
    T13,
    T23,
    group_orbit_span,
    group_vector,
)
from operad_forge.operad_calculus import (
    dual,
    family_ab,
    family_t,
    orbit_span,
    preset,
    rank,
    rank_search,
    regular_presets,
    tilde,
)
from operad_forge.relation_dsl import parse_relation
from operad_forge.tensor_closure import (
    MixedProduct,
    bracket_antisymmetric,
    bracket_is_lie,
    closure_holds,
    minimal_companion,
    theorem1_check,
    twisted_poisson_check,
)
from operad_forge.weight_spaces import (
    COMMUTATIVE,
    LEFT,
    REGULAR,
    RIGHT,
    Weight3Element,
    associator,
)

from conftest import example

GOLDEN = pathlib.Path(__file__).parent / "golden" / "paper_tables.txt"

ARRANGEMENTS = list(permutations((1, 2, 3)))


def _check(number, label, body):
    try:
        body()
    except AssertionError:
        print(f"criterion {number:2d} ({label}): FAIL")
        raise
    print(f"criterion {number:2d} ({label}): PASS")


def _L(i, j, k):
    return Weight3Element.monomial(LEFT, (i, j, k))


def _R(i, j, k):
    return Weight3Element.monomial(RIGHT, (i, j, k))


def _span(elements):
    return span([x.coords for x in elements], 12)


_ASSOCIATORS = [associator(a) for a in ARRANGEMENTS]


def _dual_table(swaps, sign):
    """Associators plus L(i,j,k) + sign*L(swapped arrangement) differences."""
    extra = [
        _L(i, j, k) + _L(*swap(i, j, k)).scaled(sign)
        for (i, j, k) in ARRANGEMENTS
        for swap in swaps
    ]
    return _span(_ASSOCIATORS + extra)


# Hand-entered reference bases for the duals of the twelve subgroup variants.
_SWAP_BY_VARIANT = {
    2: [lambda i, j, k: (j, i, k)],
    3: [lambda i, j, k: (i, k, j)],
    4: [lambda i, j, k: (k, j, i)],
    5: [lambda i, j, k: (j, k, i)],
    6: [lambda i, j, k: (j, i, k), lambda i, j, k: (i, k, j)],
}


def test_criterion_01_dual_tables():
    def body():
        assert dual(preset("g1ass")).relations.space == \
            preset("g1ass").relations.space
        assert dual(preset("g1p3ass")).relations.space == \
            preset("g1ass").relations.space
        for i, swaps in _SWAP_BY_VARIANT.items():
            assert dual(preset(f"g{i}ass")).relations.space == \
                _dual_table(swaps, -1), f"g{i}ass"
            want_p3 = _dual_table(swaps, -1 if i == 5 else 1)
            assert dual(preset(f"g{i}p3ass")).relations.space == want_p3, \
                f"g{i}p3ass"

    _check(1, "dual tables", body)


def test_criterion_02_ranks():
    def body():
        for i in range(1, 7):
            assert rank(preset(f"g{i}ass").relations) == 1
            assert rank(preset(f"g{i}p3ass").relations) == 1
        assert rank(dual(preset("g1ass")).relations) == 1
        for i in range(2, 7):
            assert rank(dual(preset(f"g{i}ass")).relations) == 2
        for name in regular_presets():
            r = preset(name).relations
            assert rank_search(r, seed=0, trials=200) == rank(r), name
            d = dual(preset(name)).relations
            assert rank_search(d, seed=0, trials=200) == rank(d), name

    _check(2, "ranks", body)


def test_criterion_03_dimensions():
    def body():
        assert REGULAR.dim == 12
        assert preset("g6ass").relations.dim == 1
        v = group_vector((2, ID), (-1, T12), (-1, T13), (-1, T23), (1, C1))
        assert group_orbit_span(v).dim == 5
        for name in regular_presets():
            p = preset(name)
            assert p.relations.dim + dual(p).relations.dim == 12, name

    _check(3, "dimension facts", body)


def test_criterion_04_tilde_results():
    def body():
        for i in range(1, 7):
            p = preset(f"g{i}ass")
            assert tilde(p).relations.space == dual(p).relations.space
        comm3 = preset("comm3").relations.space
        assert tilde(preset("g6ass")).relations.space == comm3
        t_lie = tilde(preset("lie"))
        assert t_lie.symmetry is COMMUTATIVE
        assert t_lie.relations.space == preset("com").relations.space
        leib_tilde = orbit_span([
            parse_relation("x*(y*z) - (x*y)*z"),
            parse_relation("(x*y)*z - (x*z)*y"),
        ])
        assert tilde(preset("leib")).relations.space == leib_tilde.space
        t_poiss = tilde(preset("poiss")).relations
        assert t_poiss.space == comm3
        generators = [
            _L(1, 2, 3) - _L(1, 3, 2),
            _L(1, 2, 3) - _L(2, 3, 1),
            _L(1, 2, 3) - _L(2, 1, 3),
            _L(1, 2, 3) - _L(3, 1, 2),
            _L(1, 2, 3) - _R(1, 2, 3),
        ]
        for g in generators:
            assert t_poiss.contains(g)
        assert orbit_span(generators).space == t_poiss.space
        for args, variant in (((3, 0), "g2ass"), ((0, 3), "g4ass"),
                              ((0, 0), "g3ass")):
            assert tilde(family_ab(*args)).relations.space == \
                dual(preset(variant)).relations.space
        lieadm_dual = dual(preset("g6ass")).relations.space
        for generic in (family_ab(2, 2), family_ab(5, -1),
                        family_t(0), family_t(2)):
            assert tilde(generic).relations.space == lieadm_dual

    _check(4, "tilde results", body)


def test_criterion_05_tensor_closure_theorem():
    def body():
        for name in regular_presets() + ["lie", "com"]:
            ok, certs = theorem1_check(preset(name))
            assert ok, name
            assert all(c.holds for c in certs)

    _check(5, "tensor closure for every preset", body)


def test_criterion_06_leibniz_zinbiel_failure():
    def body():
        leibniz = parse_relation("x*(y*z) - (x*y)*z + (x*z)*y")
        ok, certs = closure_holds(
            preset("leib").relations, preset("zinb").relations,
            MixedProduct.identity(), [leibniz],
        )
        assert not ok
        assert any(not c.holds and c.residuals for c in certs)

    _check(6, "Leibniz x Zinbiel non-closure", body)


def test_criterion_07_minimal_companion_audit():
    def body():
        for name in regular_presets():
            p = preset(name)
            companion = minimal_companion(p)
            assert companion.space.is_subspace_of(
                tilde(p).relations.space
            ), name
            ok, _ = closure_holds(
                p.relations, companion, MixedProduct.identity(),
                p.relations.basis_elements(),
            )
            assert ok, name

    _check(7, "minimal companion audit", body)


def test_criterion_08_bracket_is_lie():
    def body():
        assert bracket_antisymmetric()
        for i in range(1, 7):
            p = preset(f"g{i}ass")
            assert bracket_is_lie(p.relations, dual(p).relations), i

    _check(8, "commutator bracket is Lie", body)


def test_criterion_09_twisted_poisson():
    def body():
        ok, certs = twisted_poisson_check()
        assert ok
        assert all(c.holds for c in certs)

    _check(9, "twisted Poisson product", body)


def test_criterion_10_instance_matrix():
    def body():
        fixture = example("leib_tilde_3d")
        assert satisfies(fixture, tilde(preset("leib")).relations)
        assert (1, 3) in commutativity_violations(fixture)
        matching = [
            ("leibniz_3d", "leib"),
            ("leib_tilde_3d", "leib"),
            ("zinbiel_3d", "zinb"),
            ("heisenberg", "lie"),
            ("lie_nonabelian_2d", "lie"),
            ("abelian_2d", "lie"),
            ("abelian_2d", "com"),
            ("comm_assoc_2d", "com"),
            ("comm_assoc_2d", "ass"),
            ("comm_assoc_2d", "comm3"),
            ("poisson_heisenberg", "poiss"),
            ("poisson_unital_4d", "poiss"),
        ]
        for alg, name in matching:
            assert satisfies(example(alg), preset(name).relations), \
                (alg, name)
        # fixture pairs (P-algebra, tilde(P)-algebra): the tensor product
        # with the componentwise product is again a P-algebra
        tensor_matrix = [
            ("leibniz_3d", "leib_tilde_3d", "leib"),
            ("zinbiel_3d", "comm_assoc_2d", "zinb"),
            ("comm_assoc_2d", "comm_assoc_2d", "ass"),
            ("heisenberg", "comm_assoc_2d", "lie"),
            ("lie_nonabelian_2d", "comm_assoc_2d", "lie"),
            ("poisson_unital_4d", "comm_assoc_2d", "poiss"),
            ("poisson_heisenberg", "comm_assoc_2d", "poiss"),
        ]
        for a, b, name in tensor_matrix:
            assert satisfies(example(b), tilde(preset(name)).relations), \
                (b, name)
            t = tensor_instance(example(a), example(b),
                                MixedProduct.identity())
            assert satisfies(t, preset(name).relations), (a, b, name)

    _check(10, "instance-level consistency matrix", body)


def test_criterion_11_property_suites():
    def body():
        import test_properties as props

        assert props.COMMON.max_examples >= 200
        assert props.COMMON.derandomize
        suites = [
            props.test_action_is_compatible_with_composition,
            props.test_decompose_recovers_translation_pair,
            props.test_dual_is_involutive_on_regular_orbit_spans,
            props.test_sum_and_intersection_dimension_formula,
            props.test_print_parse_round_trip_regular,
            props.test_expand_is_linear,
            props.test_expand_intertwines_diagonal_action,
        ]
        assert all(callable(s) for s in suites)

    _check(11, "property suites", body)


def test_criterion_12_reports(capsys):
    def body():
        code = run(["report", "paper-tables", "--json"])
        first = capsys.readouterr().out
        assert code == 0
        code = run(["report", "paper-tables"])
        text = capsys.readouterr().out
        assert code == 0
        assert text == GOLDEN.read_text()
        report = json.loads(first)
        sweep = next(s for s in report["sections"]
                     if s["label"] == "lie-admissible family sweep")
        # tilde = dual exactly when the operad (module and presentation)
        # is one of the subgroup variants
        variant_entries = {
            "g1ass", "g2ass", "g3ass", "g4ass", "g5ass", "g6ass",
            "family_ab(3,0)", "family_ab(0,3)", "family_ab(0,0)",
        }
        idx = sweep["columns"].index("tilde = dual")
        for row in sweep["rows"]:
            want = "true" if row[0] in variant_entries else "false"
            assert row[idx] == want, row[0]
        labels = [s["label"] for s in report["sections"]]
        assert "symmetric-class submodule enumeration" in labels

    _check(12, "table sweep and enumeration reports", body)
