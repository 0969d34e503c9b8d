"""Quadratic operads with one binary operation: relation modules, rank,
Koszul dual, the tilde companion construction, and the preset catalog.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable, Optional, Sequence

from .foundation import ONE, ZERO, Subspace, Vector, full_space, kernel, span
from .group_module import (
    C1,
    C2,
    ID,
    PERMS,
    GroupVector,
    IsotypicProfile,
    Perm3,
    T23,
    check_invariant,
    group_vector,
    isotypic_multiplicities,
    minimal_generator_count,
    subgroup_alternating,
    subgroup_symmetric,
)
from .weight_spaces import (
    ANTICOMMUTATIVE,
    COMMUTATIVE,
    LEFT,
    PSI_INDEX,
    REGULAR,
    RIGHT,
    SymmetryClass,
    Weight3Element,
    act,
    act_vector,
    associator,
    comb_in,
    decompose_LR,
    project,
    psi,
)


@dataclass(frozen=True)
class RelationModule:
    """A Sigma_3-invariant subspace of a weight-3 space."""

    symmetry: SymmetryClass
    space: Subspace

    def __post_init__(self):
        if self.space.ambient_dim != self.symmetry.dim:
            raise ValueError("ambient dimension does not match symmetry class")

    @property
    def dim(self) -> int:
        return self.space.dim

    def contains(self, x: Weight3Element) -> bool:
        if x.symmetry is not self.symmetry:
            raise ValueError("mixed symmetry classes")
        return self.space.contains(x.coords)

    def basis_elements(self) -> list[Weight3Element]:
        return [Weight3Element(self.symmetry, b) for b in self.space.basis]

    def isotypic(self) -> IsotypicProfile:
        return isotypic_multiplicities(
            self.space, partial(act_vector, self.symmetry)
        )


def orbit_span(xs: Iterable[Weight3Element],
               symmetry: Optional[SymmetryClass] = None) -> RelationModule:
    """Smallest invariant subspace containing the given elements."""
    xs = list(xs)
    if symmetry is None:
        if not xs:
            raise ValueError("empty orbit_span needs an explicit symmetry class")
        symmetry = xs[0].symmetry
    rows = []
    for x in xs:
        if x.symmetry is not symmetry:
            raise ValueError("mixed symmetry classes")
        for sigma in PERMS:
            rows.append(act(sigma, x).coords)
    return RelationModule(symmetry, span(rows, symmetry.dim))


def zero_module(symmetry: SymmetryClass) -> RelationModule:
    return RelationModule(symmetry, span([], symmetry.dim))


def full_module(symmetry: SymmetryClass) -> RelationModule:
    return RelationModule(symmetry, full_space(symmetry.dim))


def rank(r: RelationModule) -> int:
    """Minimal number of module generators, from the isotypic profile."""
    if r.dim == 0:
        return 0
    return minimal_generator_count(r.isotypic())


@dataclass(frozen=True)
class QuadraticOperad:
    symmetry: SymmetryClass
    relations: RelationModule
    presentation: Optional[tuple[tuple[GroupVector, GroupVector], ...]] = None
    name: Optional[str] = None

    def __post_init__(self):
        if self.relations.symmetry is not self.symmetry:
            raise ValueError("relation module is in the wrong symmetry class")
        # Invariance is enforced by construction in orbit_span; re-check here
        # for operads assembled from raw subspaces.
        check_invariant(self.relations.space,
                        partial(act_vector, self.symmetry))
        if self.presentation is not None:
            gens = [presented_relation(v, w, self.symmetry)
                    for v, w in self.presentation]
            if orbit_span(gens, self.symmetry).space != self.relations.space:
                raise ValueError(
                    "presentation does not generate the relation module"
                )

    def with_name(self, name: str) -> "QuadraticOperad":
        return QuadraticOperad(self.symmetry, self.relations,
                               self.presentation, name)


def presented_relation(v: GroupVector, w: GroupVector,
                       symmetry: SymmetryClass) -> Weight3Element:
    """psi(v, L) - psi(w, R), projected when the class is symmetric."""
    x = psi(v, LEFT) - psi(w, RIGHT)
    if symmetry is REGULAR:
        return x
    return project(x, symmetry)


def operads_equal(p: QuadraticOperad, q: QuadraticOperad) -> bool:
    return p.symmetry is q.symmetry and p.relations.space == q.relations.space


# ---------------------------------------------------------------------------
# Koszul dual.


def _pairing_diagonal() -> Vector:
    """<m, m> for the 12 regular monomials: +sign for Right, -sign for Left."""
    from .weight_spaces import MONOMIALS

    return tuple(
        Fraction(Perm3(m.labels).sign() * (1 if m.shape == RIGHT else -1))
        for m in MONOMIALS
    )


_SYMMETRIC_DUAL_CLASS = {COMMUTATIVE: ANTICOMMUTATIVE,
                         ANTICOMMUTATIVE: COMMUTATIVE}


def dual(p: QuadraticOperad) -> QuadraticOperad:
    """Orthogonal complement of the relations under the diagonal pairing.

    The regular class uses the signed diagonal pairing on the 12 monomials.
    For a symmetric class the generating operation dualizes to the opposite
    symmetry and the comb bases are paired diagonally; this reproduces the
    classical pairs (Lie/Com and free-anticommutative/nilpotent-commutative).
    """
    if p.symmetry is REGULAR:
        diag = _pairing_diagonal()
        ambient = 12
        target = REGULAR
    else:
        diag = (Fraction(1),) * 3
        ambient = 3
        target = _SYMMETRIC_DUAL_CLASS[p.symmetry]
    # v orthogonal to basis b:  sum_m v_m * diag_m * b_m = 0.
    rows = [tuple(b[m] * diag[m] for m in range(ambient))
            for b in p.relations.space.basis]
    rel = RelationModule(target, kernel(span(rows, ambient)))
    name = f"dual({p.name})" if p.name else None
    return QuadraticOperad(target, rel, None, name)


# ---------------------------------------------------------------------------
# Presentations and the tilde construction.


def _equivariant_lift(x: Weight3Element) -> Weight3Element:
    """A regular-class preimage of x that splits evenly across both shapes.

    For a comb monomial with inner pair (i, j) and outer leaf k the lift
    averages the left-nested form with its right-nested mirror, so the L
    and R parts of a presentation both carry the generator.
    """
    from .weight_spaces import COMB_PAIRS

    if x.symmetry is REGULAR:
        return x
    sign = 1 if x.symmetry is COMMUTATIVE else -1
    out = Weight3Element.zero(REGULAR)
    for p, c in enumerate(x.coords):
        if c == 0:
            continue
        i, j = COMB_PAIRS[p]
        k = 6 - i - j
        out = out + Weight3Element.monomial(LEFT, (i, j, k), Fraction(c, 2))
        out = out + Weight3Element.monomial(
            RIGHT, (k, i, j), Fraction(sign * c, 2)
        )
    return out


def find_presentation(p: QuadraticOperad, seed: int = 0,
                      max_tries: int = 500) -> list[tuple[GroupVector, GroupVector]]:
    """Deterministically pick rank-many module generators and split them L/R.

    Seeded pseudo-random rational combinations of the relation basis are
    retried until their joint orbit spans the whole module; semisimplicity
    makes that a positive-density event.  For symmetric classes the
    generators are first lifted equivariantly to the regular class.
    """
    k = rank(p.relations)
    if k == 0:
        return []
    rng = random.Random(seed)
    for _ in range(max_tries):
        gens = _random_generators(p.relations, k, rng)
        if gens is not None:
            return [decompose_LR(_equivariant_lift(g)) for g in gens]
    raise RuntimeError("no generating set found within the retry budget")


def _random_generators(r: RelationModule, k: int,
                       rng: random.Random) -> Optional[list[Weight3Element]]:
    """k seeded combinations of r's basis, or None if their orbits fall short.

    The coefficients are integers in -9..9, drawn generator by generator.
    """
    basis = r.basis_elements()
    gens = []
    for _ in range(k):
        g = Weight3Element.zero(r.symmetry)
        for b in basis:
            g = g + b.scaled(Fraction(rng.randint(-9, 9)))
        gens.append(g)
    return gens if orbit_span(gens, r.symmetry).space == r.space else None


def presentation_of(p: QuadraticOperad,
                    seed: int = 0) -> list[tuple[GroupVector, GroupVector]]:
    if p.presentation is not None:
        return list(p.presentation)
    return find_presentation(p, seed=seed)


def _unit_difference(plus: int, minus: int) -> Weight3Element:
    """The regular element m_plus - m_minus of two distinct monomials."""
    coords = [ZERO] * 12
    coords[plus] = ONE
    coords[minus] = -ONE
    return Weight3Element(REGULAR, tuple(coords))


def tilde_generators(
    presentation: Sequence[tuple[GroupVector, GroupVector]]
) -> list[Weight3Element]:
    """The regular-class generator recipe for the companion relations.

    Every generator is psi(s_i, side) - psi(s_j, side') for two group
    elements, so it is built from their PSI_INDEX monomials directly.
    """
    left, right = PSI_INDEX[LEFT], PSI_INDEX[RIGHT]
    gens: list[Weight3Element] = []
    for v, w in presentation:
        a, b = v.coeffs, w.coeffs
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                if a[i] and a[j] and i < j:
                    gens.append(_unit_difference(left[i], left[j]))
                if b[i] and b[j] and i < j:
                    gens.append(_unit_difference(right[i], right[j]))
                if a[i] and b[j]:
                    gens.append(_unit_difference(left[i], right[j]))
        # i == j mixed term: a_i b_i != 0 also contributes psi(s_i,L)-psi(s_i,R)
        for i in range(6):
            if a[i] and b[i]:
                gens.append(_unit_difference(left[i], right[i]))
    return gens


def tilde(p: QuadraticOperad, seed: int = 0) -> QuadraticOperad:
    """The companion operad making tensor products close (see tensor_closure).

    Output class is regular for a regular input and commutative otherwise.
    """
    pres = presentation_of(p, seed=seed)
    gens = tilde_generators(pres)
    if p.symmetry is REGULAR:
        rel = orbit_span(gens, REGULAR)
    else:
        rel = orbit_span([project(g, COMMUTATIVE) for g in gens], COMMUTATIVE)
    name = f"tilde({p.name})" if p.name else None
    return QuadraticOperad(rel.symmetry, rel, None, name)


# ---------------------------------------------------------------------------
# Rank oracle: randomized search following the generator-count definition.


def rank_search(r: RelationModule, seed: int = 0, trials: int = 200) -> int:
    """Smallest k for which random k-tuples generate the module as an orbit.

    Independent of the isotypic formula; used to cross-check `rank`.
    """
    if r.dim == 0:
        return 0
    rng = random.Random(seed)
    for k in range(1, r.dim + 1):
        for _ in range(trials):
            if _random_generators(r, k, rng) is not None:
                return k
    raise RuntimeError("rank search exhausted its budget")


# ---------------------------------------------------------------------------
# Preset catalog.


def _x_vector() -> Weight3Element:
    # x1*(x2*x3) - (x1*x2)*x3, the base vector for the subgroup families
    return -associator((1, 2, 3))


def _gi_ass(i: int) -> QuadraticOperad:
    vi = subgroup_alternating(i)
    gen = presented_relation(vi, vi, REGULAR)
    rel = orbit_span([gen], REGULAR)
    return QuadraticOperad(REGULAR, rel, ((vi, vi),), f"g{i}ass")


def _gi_p3ass(i: int) -> QuadraticOperad:
    wi = subgroup_symmetric(i)
    gen = presented_relation(wi, wi, REGULAR)
    rel = orbit_span([gen], REGULAR)
    return QuadraticOperad(REGULAR, rel, ((wi, wi),), f"g{i}p3ass")


def _comm3() -> QuadraticOperad:
    # Associative with fully symmetric triple products: all 12 monomials are
    # identified, so the module is 11-dimensional.
    gens = [
        associator((1, 2, 3)),
        Weight3Element.monomial(LEFT, (1, 2, 3))
        - Weight3Element.monomial(LEFT, (2, 1, 3)),
        Weight3Element.monomial(LEFT, (1, 2, 3))
        - Weight3Element.monomial(LEFT, (1, 3, 2)),
    ]
    rel = orbit_span(gens, REGULAR)
    return QuadraticOperad(REGULAR, rel, None, "comm3")


def _lie() -> QuadraticOperad:
    jacobi = comb_in(ANTICOMMUTATIVE, 1) + comb_in(ANTICOMMUTATIVE, 2) \
        + comb_in(ANTICOMMUTATIVE, 3)
    rel = orbit_span([jacobi], ANTICOMMUTATIVE)
    pres = ((group_vector((1, ID), (1, C1), (1, C2)),
             group_vector((1, ID), (1, C1), (1, C2))),)
    return QuadraticOperad(ANTICOMMUTATIVE, rel, pres, "lie")


def _com() -> QuadraticOperad:
    rel = orbit_span([comb_in(COMMUTATIVE, 1) - comb_in(COMMUTATIVE, 2)],
                     COMMUTATIVE)
    pres = ((GroupVector.basis(ID), GroupVector.basis(ID)),)
    return QuadraticOperad(COMMUTATIVE, rel, pres, "com")


def _leib() -> QuadraticOperad:
    v = group_vector((1, ID), (-1, T23))
    w = GroupVector.basis(ID)
    rel = orbit_span([presented_relation(v, w, REGULAR)], REGULAR)
    return QuadraticOperad(REGULAR, rel, ((v, w),), "leib")


def _zinb() -> QuadraticOperad:
    # (xy)z - x(yz) - x(zy) = 0
    from .relation_dsl import parse_relation

    gen = parse_relation("(x*y)*z - x*(y*z) - x*(z*y)")
    rel = orbit_span([gen], REGULAR)
    v, w = decompose_LR(gen)
    return QuadraticOperad(REGULAR, rel, ((v, w),), "zinb")


def _poiss() -> QuadraticOperad:
    from .relation_dsl import parse_relation

    gen = parse_relation(
        "3*A(x,y,z) - (x*z)*y - (y*z)*x + (y*x)*z + (z*x)*y"
    )
    rel = orbit_span([gen], REGULAR)
    v, w = decompose_LR(gen)
    return QuadraticOperad(REGULAR, rel, ((v, w),), "poiss")


def _from_associator_combination(coeffs: dict[tuple[int, int, int], Fraction],
                                 name: str) -> QuadraticOperad:
    gen = Weight3Element.zero(REGULAR)
    for labels, c in coeffs.items():
        gen = gen + associator(labels).scaled(c)
    rel = orbit_span([gen], REGULAR)
    v, w = decompose_LR(gen)
    return QuadraticOperad(REGULAR, rel, ((v, w),), name)


def family_ab(alpha, beta) -> QuadraticOperad:
    """The two-parameter Lie-admissible family; (1,1) is excluded."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if (alpha, beta) == (1, 1):
        raise ValueError(
            "(alpha, beta) = (1, 1) is excluded: the relation degenerates"
        )
    coeffs = {
        (1, 2, 3): alpha,
        (2, 1, 3): -alpha,
        (3, 2, 1): alpha + beta - 3,
        (1, 3, 2): -beta,
        (2, 3, 1): beta,
        (3, 1, 2): 3 - alpha - beta,
    }
    return _from_associator_combination(
        coeffs, f"family_ab({alpha},{beta})"
    )


def family_t(t) -> QuadraticOperad:
    """The one-parameter Lie-admissible family; t = 1 is excluded."""
    t = Fraction(t)
    if t == 1:
        raise ValueError("t = 1 is excluded: the relation degenerates")
    coeffs = {
        (1, 2, 3): Fraction(1),
        (2, 1, 3): 1 + t,
        (3, 2, 1): Fraction(1),
        (2, 3, 1): Fraction(1),
        (3, 1, 2): 1 - t,
    }
    return _from_associator_combination(coeffs, f"family_t({t})")


def _table_row_5() -> QuadraticOperad:
    coeffs = {
        (1, 2, 3): Fraction(2),
        (2, 1, 3): Fraction(1),
        (1, 3, 2): Fraction(1),
        (2, 3, 1): Fraction(1),
        (3, 1, 2): Fraction(1),
    }
    return _from_associator_combination(coeffs, "table_row_5")


def _table_row_6() -> QuadraticOperad:
    coeffs = {
        (1, 2, 3): Fraction(2),
        (2, 1, 3): Fraction(-1),
        (3, 2, 1): Fraction(-1),
        (1, 3, 2): Fraction(-1),
        (2, 3, 1): Fraction(1),
    }
    return _from_associator_combination(coeffs, "table_row_6")


_SIMPLE_PRESETS = {
    "comm3": _comm3,
    "lie": _lie,
    "com": _com,
    "leib": _leib,
    "zinb": _zinb,
    "poiss": _poiss,
    "table_row_5": _table_row_5,
    "table_row_6": _table_row_6,
}

PRESET_NAMES = (
    ["ass"]
    + [f"g{i}ass" for i in range(1, 7)]
    + [f"g{i}p3ass" for i in range(1, 7)]
    + ["lieadm", "p3ass"]
    + sorted(_SIMPLE_PRESETS)
)


def preset(name: str, *params) -> QuadraticOperad:
    """Look up a catalog operad by name; family presets take parameters."""
    if name in ("family_ab", "family_t") and not params:
        raise ValueError(f"preset {name!r} takes parameters")
    if name == "family_ab":
        return family_ab(*params)
    if name == "family_t":
        return family_t(*params)
    if params:
        raise ValueError(f"preset {name!r} takes no parameters")
    if name == "ass":
        return _gi_ass(1).with_name("ass")
    if name == "lieadm":
        return _gi_ass(6).with_name("lieadm")
    if name == "p3ass":
        return _gi_p3ass(6).with_name("p3ass")
    if name.startswith("g") and name.endswith("p3ass"):
        i = _subgroup_index(name[1:-5], name)
        return _gi_p3ass(i)
    if name.startswith("g") and name.endswith("ass"):
        i = _subgroup_index(name[1:-3], name)
        return _gi_ass(i)
    if name in _SIMPLE_PRESETS:
        return _SIMPLE_PRESETS[name]()
    raise ValueError(f"unknown preset name: {name!r}")


def _subgroup_index(text: str, name: str) -> int:
    if text not in {"1", "2", "3", "4", "5", "6"}:
        raise ValueError(f"unknown preset name: {name!r}")
    return int(text)


_SYMMETRY_NAMES = {
    "regular": REGULAR,
    "comm": COMMUTATIVE,
    "anticomm": ANTICOMMUTATIVE,
}


def operad_from_definition(data: dict) -> QuadraticOperad:
    """Build an operad from a definition mapping.

    Expected keys: `name`, `symmetry` (regular | comm | anticomm),
    `relations` (list of relation strings; comb syntax for the symmetric
    classes), optional `presentation` (list of {v, w} group-vector strings).
    A definition of any other shape is a ValueError that names the field.
    """
    from .relation_dsl import (
        parse_comb_relation,
        parse_group_vector,
        parse_relation,
    )

    if not isinstance(data, dict):
        raise ValueError(
            f"an operad definition is a JSON object, got {_json_type(data)}")
    name = data.get("name")
    if name is not None:
        _string(name, "name")
    sym_name = data.get("symmetry", "regular")
    if not isinstance(sym_name, str) or sym_name not in _SYMMETRY_NAMES:
        raise ValueError(f"unknown symmetry class: {sym_name!r}")
    symmetry = _SYMMETRY_NAMES[sym_name]
    texts = data.get("relations", [])
    if not isinstance(texts, list):
        raise ValueError("'relations' must be a list of strings, "
                         f"got {_json_type(texts)}")
    texts = [_string(t, f"relations[{n}]") for n, t in enumerate(texts)]
    if symmetry is REGULAR:
        gens = [parse_relation(s) for s in texts]
    else:
        gens = [parse_comb_relation(s, symmetry) for s in texts]
    rel = orbit_span(gens, symmetry) if gens else zero_module(symmetry)
    entries = data.get("presentation")
    if entries is None:
        entries = []
    if not isinstance(entries, list):
        raise ValueError("'presentation' must be a list of {v, w} objects, "
                         f"got {_json_type(entries)}")
    pairs = []
    for n, entry in enumerate(entries):
        field = f"presentation[{n}]"
        if not isinstance(entry, dict):
            raise ValueError(f"'{field}' must be a {{v, w}} object, "
                             f"got {_json_type(entry)}")
        for k in "vw":
            if k not in entry:
                raise ValueError(f"'{field}' has no '{k}'")
        v, w = (_string(entry[k], f"{field}.{k}") for k in "vw")
        pairs.append((parse_group_vector(v), parse_group_vector(w)))
    return QuadraticOperad(symmetry, rel, tuple(pairs) or None, name)


def _string(value, field: str) -> str:
    if not isinstance(value, str):
        raise ValueError(
            f"'{field}' must be a string, got {_json_type(value)}")
    return value


def _json_type(value) -> str:
    """The JSON name of a decoded value's type, for error messages."""
    for kind, name in ((bool, "a boolean"), ((int, float), "a number"),
                       (str, "a string"), (list, "an array"),
                       (dict, "an object")):
        if isinstance(value, kind):
            return name
    return "null" if value is None else type(value).__name__


def regular_presets() -> list[str]:
    """Preset names whose operation carries no symmetry."""
    return (
        [f"g{i}ass" for i in range(1, 7)]
        + [f"g{i}p3ass" for i in range(1, 7)]
        + ["comm3", "leib", "zinb", "poiss", "table_row_5", "table_row_6"]
    )
