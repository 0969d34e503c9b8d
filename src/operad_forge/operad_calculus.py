"""Quadratic operads with one binary operation: relation modules, rank,
Koszul dual, the tilde companion construction, and the preset catalog.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Iterable, Optional

from .foundation import (
    ZERO,
    Subspace,
    kernel,
    primitive,
    span,
)
from .group_module import (
    C1,
    C2,
    ID,
    PERMS,
    GroupVector,
    IsotypicProfile,
    T23,
    group_vector,
    isotypic_multiplicities,
    minimal_generator_count,
    subgroup_alternating,
    subgroup_symmetric,
)
from .relation_dsl import (
    parse_comb_relation,
    parse_group_vector,
    parse_relation,
)
from .weight_spaces import (
    ANTICOMMUTATIVE,
    COMB_LIFTS,
    COMMUTATIVE,
    LEFT,
    PAIRING,
    PROJECTION,
    REGULAR,
    RIGHT,
    SWAPPED,
    SymmetryClass,
    Weight3Element,
    act_vector,
    associator,
    decompose_LR,
    project,
    psi,
)


@dataclass(frozen=True)
class RelationModule:
    """A Sigma_3-invariant subspace of a weight-3 space.

    Invariance is the constructor's contract, not checked here: every
    module in this package comes from `orbit_span`, `partition_module`
    (whose callers join Sigma_3-stable blocks), `dual` (whose pairing
    satisfies <sx, sy> = +-<x, y>), `algebra_relations` (whose basis
    triples are closed under permutation) or the report's isotypic
    pieces.  `isotypic` checks it, so `rank` refuses a module built by
    hand that is not invariant.  The isotypic profile is computed once per
    module object; later calls return the same profile.
    """

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
        return self._isotypic

    @cached_property
    def _isotypic(self) -> IsotypicProfile:
        return isotypic_multiplicities(
            self.space, partial(act_vector, self.symmetry)
        )


def orbit_span(xs: Iterable[Weight3Element],
               symmetry: Optional[SymmetryClass] = None) -> RelationModule:
    """Smallest invariant subspace containing the given elements.

    Each generator is turned into its primitive integer row once, and its
    six images under the action go into a set of primitive rows with a
    positive leading entry.  That set is a union of whole orbits up to
    sign, so a generator that is zero or already in it adds nothing and is
    skipped.  Each distinct row is eliminated once, and the RREF is unique,
    so the result does not depend on which rows were skipped.
    """
    xs = list(xs)
    if symmetry is None:
        if not xs:
            raise ValueError("empty orbit_span needs an explicit symmetry class")
        symmetry = xs[0].symmetry
    rows: set[tuple[int, ...]] = set()
    for x in xs:
        if x.symmetry is not symmetry:
            raise ValueError("mixed symmetry classes")
        g = primitive(x.coords)
        if g is None or g in rows:
            continue
        for sigma in PERMS:
            image = act_vector(symmetry, sigma, g)
            if next(a for a in image if a) < 0:
                image = tuple(-a for a in image)
            rows.add(image)
    return RelationModule(symmetry, span(rows, symmetry.dim))


def partition_module(symmetry: SymmetryClass,
                     supports: Iterable) -> RelationModule:
    """The span of e_i - e_j over i, j in one block of the finest partition
    that puts the nonzero columns of each support in one block.  Its
    canonical RREF is written down, not eliminated: e_x - e_last for each
    block member x but the block's last, in the order of x."""
    n = symmetry.dim
    block = list(range(n))
    for s in supports:
        joined = {block[j] for j, a in enumerate(s) if a}
        label = min(joined, default=None)
        block = [label if b in joined else b for b in block]
    last = {b: x for x, b in enumerate(block)}
    rows = tuple(tuple(int(j == x) - int(j == last[b]) for j in range(n))
                 for x, b in enumerate(block) if x != last[b])
    return RelationModule(symmetry, Subspace(n, 1, rows))


def rank(r: RelationModule) -> int:
    """Minimal number of module generators, from the isotypic profile."""
    if r.dim == 0:
        return 0
    return minimal_generator_count(r.isotypic())


@dataclass(frozen=True)
class QuadraticOperad:
    """A stored presentation is trusted to generate the relations: only
    `_presented`, which builds them as its orbit span, stores one."""

    symmetry: SymmetryClass
    relations: RelationModule
    presentation: Optional[tuple[tuple[GroupVector, GroupVector], ...]] = None
    name: Optional[str] = None

    def __post_init__(self):
        if self.relations.symmetry is not self.symmetry:
            raise ValueError("relation module is in the wrong symmetry class")

    @cached_property
    def _tildes(self) -> dict:
        """`tilde` results of this object, by seed (one key when a
        presentation is stored, since the seed is then unused)."""
        return {}


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


_SYMMETRIC_DUAL_CLASS = {COMMUTATIVE: ANTICOMMUTATIVE,
                         ANTICOMMUTATIVE: COMMUTATIVE}


def dual(p: QuadraticOperad) -> QuadraticOperad:
    """Orthogonal complement of the relations under the diagonal pairing.

    The regular class uses the signed diagonal pairing PAIRING on the 12
    monomials.  For a symmetric class the generating operation dualizes to
    the opposite symmetry and the comb bases are paired diagonally; this
    reproduces the classical pairs (Lie/Com and
    free-anticommutative/nilpotent-commutative).
    """
    if p.symmetry is REGULAR:
        diag, target = PAIRING, REGULAR
    else:
        diag, target = (1, 1, 1), _SYMMETRIC_DUAL_CLASS[p.symmetry]
    # v orthogonal to basis b:  sum_m v_m * diag_m * b_m = 0.
    rows = [tuple(b_m * d for b_m, d in zip(b, diag))
            for b in p.relations.space.rows]
    rel = RelationModule(target, kernel(rows, p.symmetry.dim))
    name = f"dual({p.name})" if p.name else None
    return QuadraticOperad(target, rel, None, name)


# ---------------------------------------------------------------------------
# Presentations and the tilde construction.


def _equivariant_lift(x: Weight3Element) -> Weight3Element:
    """A regular-class preimage of x that splits evenly across both shapes.

    For a comb monomial (x_i*x_j)*x_k the lift averages it with its
    root-swapped mirror x_k*(x_i*x_j), so the L and R parts of a
    presentation both carry the generator.
    """
    if x.symmetry is REGULAR:
        return x
    sign = 1 if x.symmetry is COMMUTATIVE else -1
    coords = [ZERO] * 12
    for m, c in zip(COMB_LIFTS, x.coords):
        coords[m.index] = c / 2
        coords[SWAPPED[True, False][m.index]] = sign * c / 2
    return Weight3Element(REGULAR, tuple(coords))


_PRESENTATION_TRIES = 500


def find_presentation(p: QuadraticOperad,
                      seed: int = 0) -> list[tuple[GroupVector, GroupVector]]:
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
    for _ in range(_PRESENTATION_TRIES):
        gens = _random_generators(p.relations, k, rng)
        if gens is not None:
            return [decompose_LR(_equivariant_lift(g)) for g in gens]
    raise RuntimeError("no generating set found within the retry budget")


def _random_generators(r: RelationModule, k: int,
                       rng: random.Random) -> Optional[list[Weight3Element]]:
    """k seeded combinations of r's basis, or None if their orbits fall short.

    The coefficients are integers in -9..9, drawn generator by generator.
    """
    s = r.space
    gens = []
    for _ in range(k):
        ks = [rng.randint(-9, 9) for _ in s.rows]
        gens.append(Weight3Element(r.symmetry, tuple(
            Fraction(sum(a * row[j] for a, row in zip(ks, s.rows)),
                     s.denominator) for j in range(s.ambient_dim))))
    return gens if orbit_span(gens, r.symmetry).space == r.space else None


def presentation_of(p: QuadraticOperad,
                    seed: int = 0) -> list[tuple[GroupVector, GroupVector]]:
    if p.presentation is not None:
        return list(p.presentation)
    return find_presentation(p, seed=seed)


def tilde(p: QuadraticOperad, seed: int = 0) -> QuadraticOperad:
    """The companion operad making tensor products close (see tensor_closure).

    P~ identifies the monomials in the support of each presented generator
    psi(v, L) - psi(w, R), so it depends on the presentation only through
    those supports: the blocks of its partition module join the monomials
    (comb coordinates, for a symmetric P) of each support's Sigma_3-images.
    Output class is regular for a regular input and commutative otherwise.

    A tilde is computed once per operad object and seed (once per object
    when a presentation is stored); a repeat call returns the same
    immutable operad.
    """
    key = seed if p.presentation is None else None
    if key in p._tildes:
        return p._tildes[key]
    target = REGULAR if p.symmetry is REGULAR else COMMUTATIVE
    supports = []
    for v, w in presentation_of(p, seed=seed):
        x = presented_relation(v, w, REGULAR)
        cols = {n for (n, _), c in zip(PROJECTION[target], x.coords) if c}
        support = [int(n in cols) for n in range(target.dim)]
        supports += [act_vector(target, sigma, support) for sigma in PERMS]
    rel = partition_module(target, supports)
    name = f"tilde({p.name})" if p.name else None
    t = p._tildes[key] = QuadraticOperad(target, rel, None, name)
    return t


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


def _presented(symmetry: SymmetryClass,
               pairs: tuple[tuple[GroupVector, GroupVector], ...],
               name: Optional[str]) -> QuadraticOperad:
    """The operad whose relations are the orbit span of its presentation."""
    gens = [presented_relation(v, w, symmetry) for v, w in pairs]
    return QuadraticOperad(symmetry, orbit_span(gens, symmetry), pairs, name)


def _relation(gen: Weight3Element, name: str) -> QuadraticOperad:
    """One regular relation, presented by its split into L and R parts."""
    return _presented(REGULAR, (decompose_LR(gen),), name)


def _subgroup(vector, i: int, name: str) -> QuadraticOperad:
    """The relation psi(u, L) - psi(u, R) of the subgroup vector u = V_i
    (`subgroup_alternating`) or W_i (`subgroup_symmetric`)."""
    u = vector(i)
    return _presented(REGULAR, ((u, u),), name)


def _associator_sum(coeffs: dict[tuple[int, int, int], Fraction]
                    ) -> Weight3Element:
    gen = Weight3Element.zero(REGULAR)
    for labels, c in coeffs.items():
        gen = gen + associator(labels).scaled(c)
    return gen


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
    return _relation(_associator_sum(coeffs), f"family_ab({alpha},{beta})")


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
    return _relation(_associator_sum(coeffs), f"family_t({t})")


_UNIT = GroupVector.basis(ID)
_CYCLIC = group_vector((1, ID), (1, C1), (1, C2))

# Each name's builder, in catalog order; every entry except comm3 is built
# from the presentation it stores.
_PRESETS = {
    "ass": partial(_subgroup, subgroup_alternating, 1, "ass"),
    **{f"g{i}ass": partial(_subgroup, subgroup_alternating, i, f"g{i}ass")
       for i in range(1, 7)},
    **{f"g{i}p3ass": partial(_subgroup, subgroup_symmetric, i, f"g{i}p3ass")
       for i in range(1, 7)},
    "lieadm": partial(_subgroup, subgroup_alternating, 6, "lieadm"),
    "p3ass": partial(_subgroup, subgroup_symmetric, 6, "p3ass"),
    "com": partial(_presented, COMMUTATIVE, ((_UNIT, _UNIT),), "com"),
    # Associative with fully symmetric triple products: all 12 monomials
    # are identified, so the module is 11-dimensional.
    "comm3": lambda: QuadraticOperad(REGULAR, orbit_span(map(parse_relation, (
        "A(x,y,z)", "(x*y)*z - (y*x)*z", "(x*y)*z - (x*z)*y"))), None,
        "comm3"),
    "leib": partial(_presented, REGULAR,
                    ((group_vector((1, ID), (-1, T23)), _UNIT),), "leib"),
    "lie": partial(_presented, ANTICOMMUTATIVE, ((_CYCLIC, _CYCLIC),), "lie"),
    "poiss": lambda: _relation(parse_relation(
        "3*A(x,y,z) - (x*z)*y - (y*z)*x + (y*x)*z + (z*x)*y"), "poiss"),
    "table_row_5": lambda: _relation(parse_relation(
        "2*A(x,y,z) + A(y,x,z) + A(x,z,y) + A(y,z,x) + A(z,x,y)"),
        "table_row_5"),
    "table_row_6": lambda: _relation(parse_relation(
        "2*A(x,y,z) - A(y,x,z) - A(z,y,x) - A(x,z,y) + A(y,z,x)"),
        "table_row_6"),
    "zinb": lambda: _relation(
        parse_relation("(x*y)*z - x*(y*z) - x*(z*y)"), "zinb"),
}

PRESET_NAMES = list(_PRESETS)


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
    if name not in _PRESETS:
        raise ValueError(f"unknown preset name: {name!r}")
    return _PRESETS[name]()


def operad_from_definition(data: dict) -> QuadraticOperad:
    """Build an operad from a definition mapping.

    Expected keys: `name`, `symmetry` (regular | comm | anticomm),
    `relations` (list of relation strings; comb syntax for the symmetric
    classes), optional `presentation` (list of {v, w} group-vector strings),
    which must generate the same module as the relations.  A definition of
    any other shape, or with any other key, is a ValueError that names the
    field or the key.
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"an operad definition is a JSON object, got {_json_type(data)}")
    for key in data:
        if key not in ("name", "symmetry", "relations", "presentation"):
            raise ValueError(
                f"unknown key {key!r} in an operad definition; it takes "
                "'name', 'symmetry', 'relations' and 'presentation'")
    name = data.get("name")
    if name is not None:
        _string(name, "name")
    sym_name = data.get("symmetry", "regular")
    try:  # only a string names a class, not a member or another type
        symmetry = SymmetryClass(
            sym_name if isinstance(sym_name, str) else None)
    except ValueError:
        raise ValueError(f"unknown symmetry class: {sym_name!r}") from None
    texts = data.get("relations", [])
    if not isinstance(texts, list):
        raise ValueError("'relations' must be a list of strings, "
                         f"got {_json_type(texts)}")
    texts = [_string(t, f"relations[{n}]") for n, t in enumerate(texts)]
    if symmetry is REGULAR:
        gens = [parse_relation(s) for s in texts]
    else:
        gens = [parse_comb_relation(s, symmetry) for s in texts]
    rel = orbit_span(gens, symmetry)
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
    if not pairs:
        return QuadraticOperad(symmetry, rel, None, name)
    p = _presented(symmetry, tuple(pairs), name)
    if p.relations.space != rel.space:
        raise ValueError("presentation does not generate the relation module")
    return p


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
