"""Concrete finite-dimensional algebras given by structure constants.

Instances corroborate the symbolic layer.  Every question about an instance
reads one integer table of monomial values: the 12 regular monomials on
each basis triple, built from the nonzero two-step products of the
structure constants scaled to integers by the lcm D of their denominators,
so D**2 times the rational values.  Rel(A), the regular relations that
vanish on every basis triple, is the left kernel of the table's columns,
which the scale does not change, so A satisfies P exactly when R_P lies in
Rel(A), and the counterexample search decides tensor products from these
modules alone, on integer rows.  Relation checking sums each relation over
the same table to name the failing triples, and only a reported residue
becomes Fractions.  Tensor instances are built from the nonzero constants
of both factors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .foundation import ZERO, Vector, integer_row, kernel, span
from .operad_calculus import RelationModule
from .tensor_closure import (
    PAIR_KEYS,
    SWAP,
    MixedProduct,
    closure_holds_on_rows,
)
from .weight_spaces import (
    ANTICOMMUTATIVE,
    LEFT,
    MONOMIALS,
    REGULAR,
    RIGHT,
    Weight3Element,
    lift,
)

Structure = tuple[tuple[Vector, ...], ...]  # c[i][j] is the vector e_i * e_j

# The largest instance dimension; the structure table has dim³ entries.
MAX_DIM = 16

# The most characters of an offending input value that an error echoes.
ECHO_LIMIT = 40


def _echo(text: str) -> str:
    """text cut to ECHO_LIMIT characters, so that errors stay one short line."""
    return text if len(text) <= ECHO_LIMIT else text[:ECHO_LIMIT] + "…"


def _entry_error(entry, needs: str) -> ValueError:
    shown = ", ".join(_echo(str(x)) for x in entry)
    return ValueError(f"structure entry ({shown}) needs {needs}")


def _check_dim(dim) -> None:
    # bool is a subclass of int, and `true` in a JSON file is no dimension.
    if type(dim) is not int or not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dimension must be an integer in 1..{MAX_DIM}, "
                         f"got {_echo(repr(dim))}")


@dataclass(frozen=True)
class AlgebraInstance:
    dim: int
    structure: Structure
    name: Optional[str] = None

    def __post_init__(self):
        _check_dim(self.dim)
        if len(self.structure) != self.dim or any(
            len(row) != self.dim or any(len(v) != self.dim for v in row)
            for row in self.structure
        ):
            raise ValueError("structure constants have the wrong shape")

    @cached_property
    def _relations(self) -> RelationModule:
        """Rel(A), computed on first use; see `algebra_relations`."""
        _, table = _monomial_table(self)
        return RelationModule(REGULAR, kernel(
            {tuple(column) for columns in table.values()
             for column in columns.values()}, 12))

    @classmethod
    def from_entries(cls, dim: int, entries, name=None) -> "AlgebraInstance":
        """Build from sparse (i, j, k, value) entries, 1-based indices.

        dim and the indices must be ints.  A value is an int, a Fraction or
        a string such as "1/10"; a float or a bool is refused, because a
        float's binary value is not the decimal that was written, and so is
        a string with an exponent such as "1e1000000", whose power of ten
        Fraction would compute.  Errors echo each index and the value cut to
        ECHO_LIMIT characters.
        """
        _check_dim(dim)
        c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j, k, value in entries:
            if not all(type(x) is int and 1 <= x <= dim for x in (i, j, k)):
                raise _entry_error((i, j, k, value), f"indices in 1..{dim}")
            try:
                if isinstance(value, (bool, float)) or (
                        isinstance(value, str) and "e" in value.lower()):
                    raise TypeError("inexact coefficient")
                c[i - 1][j - 1][k - 1] += Fraction(value)
            except (ZeroDivisionError, ValueError, TypeError):
                raise _entry_error((i, j, k, value),
                                   "a rational coefficient") from None
        return cls(
            dim,
            tuple(tuple(tuple(v) for v in row) for row in c),
            name,
        )

    def entries(self):
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    v = self.structure[i][j][k]
                    if v != 0:
                        yield (i + 1, j + 1, k + 1, v)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "structure": [
                [i, j, k, str(v)] for i, j, k, v in self.entries()
            ],
        }

    @classmethod
    def from_json(cls, data: dict, name=None) -> "AlgebraInstance":
        """Build from {"dim": n, "structure": [[i, j, k, value], ...]}; any
        other key is a ValueError that names it."""
        for key in data if isinstance(data, dict) else ():
            if key not in ("dim", "structure"):
                raise ValueError(f"unknown key {_echo(repr(key))} in an "
                                 "instance; it takes 'dim' and 'structure'")
        if not isinstance(data, dict) or len(data) != 2:
            raise ValueError(
                "an instance is a JSON object with 'dim' and 'structure'")
        entries = data["structure"]
        if not isinstance(entries, list) or not all(
                isinstance(e, list) and len(e) == 4 for e in entries):
            raise ValueError(
                "'structure' must be a list of [i, j, k, value] entries")
        return cls.from_entries(data["dim"], entries, name)


@dataclass(frozen=True)
class Violation:
    relation: Weight3Element
    triple: tuple[int, int, int]  # 1-based basis indices
    value: Vector

    def __str__(self):
        a, b, c = self.triple
        return f"relation fails on (e{a}, e{b}, e{c}): residue {self.value}"


def commutativity_violations(alg: AlgebraInstance,
                             anti: bool = False) -> list[tuple[int, int]]:
    """Basis pairs where e_i e_j differs from (-)e_j e_i."""
    out = []
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            ij = alg.structure[i][j]
            ji = alg.structure[j][i]
            want = tuple(-v for v in ji) if anti else ji
            if ij != want:
                out.append((i + 1, j + 1))
    return out


def check_relations(alg: AlgebraInstance,
                    r: RelationModule) -> list[Violation]:
    """Evaluate every basis relation on every ordered basis triple."""
    if r.symmetry is not REGULAR:
        anti = r.symmetry is ANTICOMMUTATIVE
        bad = commutativity_violations(alg, anti=anti)
        if bad:
            kind = "anticommutative" if anti else "commutative"
            i, j = bad[0]
            raise ValueError(
                f"product is not {kind}: fails at (e{i}, e{j})"
            )
        relations = [lift(x) for x in r.basis_elements()]
    else:
        relations = r.basis_elements()
    return list(_violations(alg, relations))


# _PLACES[shape] lists, for each monomial of that shape, its index and the
# basis triple (a, b, c) on which it reads given leaves.
_PLACES = {shape: [(n, itemgetter(*[m.labels.index(p) for p in (1, 2, 3)]))
                   for n, m in enumerate(MONOMIALS) if m.shape is shape]
           for shape in (LEFT, RIGHT)}


def _monomial_table(alg: AlgebraInstance) -> tuple[int, dict]:
    """(scale, table): table[(a, b, c)][k] lists scale times coordinate k
    of each of the 12 regular monomials evaluated on (e_a, e_b, e_c),
    0-based.

    The nonzero structure constants are scaled to integers by the lcm D of
    their denominators, as sparse {k: int} products; every monomial is two
    products deep, so scale is D**2.  Only the nonzero two-step products
    fill the table: each nonzero (e_a e_b) e_c and e_a (e_b e_c) is
    computed once, and its coordinates go to the 6 monomials of its shape,
    each at the basis triple on which that monomial reads those leaves.
    Triples and coordinates where all 12 values are 0 are left out.
    """
    nonzero = [[[(k, v) for k, v in enumerate(cell) if v] for cell in row]
               for row in alg.structure]
    d = lcm(*[v.denominator for row in nonzero for cell in row
              for _, v in cell])
    prod = [[{k: v.numerator * (d // v.denominator) for k, v in cell}
             for cell in row] for row in nonzero]
    table: dict = {}

    def add(shape, leaves, value):
        value = [(k, v) for k, v in value.items() if v]
        if value:
            for m, place in _PLACES[shape]:
                columns = table.setdefault(place(leaves), {})
                for k, v in value:
                    columns.setdefault(k, [0] * 12)[m] = v

    for a, row in enumerate(prod):
        for b, ab in enumerate(row):
            if ab:
                for x in range(alg.dim):
                    left, right = {}, {}  # (e_a e_b) e_x and e_x (e_a e_b)
                    for i, u in ab.items():
                        for k, v in prod[i][x].items():
                            left[k] = left.get(k, 0) + u * v
                        for k, v in prod[x][i].items():
                            right[k] = right.get(k, 0) + u * v
                    add(LEFT, (a, b, x), left)
                    add(RIGHT, (x, a, b), right)
    return d * d, table


def _violations(alg: AlgebraInstance,
                relations: Sequence[Weight3Element]) -> Iterator[Violation]:
    """Regular relations failing on basis triples, relation by relation,
    the triples in lexicographic order.

    Each relation is summed over the integer columns of `_monomial_table`,
    and a residue becomes Fractions only when it is yielded.
    """
    scale, table = _monomial_table(alg)
    triples = sorted(table)
    for x in relations:
        w, d = integer_row(x.coords)
        support = [(n, c) for n, c in enumerate(w) if c]
        for abc in triples:
            total = [0] * alg.dim
            for k, column in table[abc].items():
                total[k] = sum(c * column[n] for n, c in support)
            if any(total):
                yield Violation(x, tuple(t + 1 for t in abc),
                                tuple(Fraction(v, scale * d) if v else ZERO
                                      for v in total))


def algebra_relations(alg: AlgebraInstance) -> RelationModule:
    """Rel(A): the regular relations that vanish on every basis triple.

    Rel(A) is the left kernel of the 12 x n^4 evaluation matrix, whose
    column (a, b, c, k) holds coordinate k of each monomial evaluated on
    (e_a, e_b, e_c), here D**2 times it: the columns of
    `_monomial_table`.  All-zero columns are never built and repeated
    ones are dropped, which leaves the kernel unchanged, and `kernel` reads
    Rel(A) off one elimination of the columns.  The set of basis triples
    is closed under permutation, so Rel(A) is Sigma_3-invariant.  It is
    computed once per instance object.
    """
    return alg._relations


def satisfies(alg: AlgebraInstance, r: RelationModule) -> bool:
    """Does A satisfy r, that is, is R_P inside Rel(A)?

    A symmetric-class module also needs the product to be (anti)commutative;
    its relations are then tested through their regular lifts.
    """
    rel = algebra_relations(alg)
    if r.symmetry is REGULAR:
        return r.space.is_subspace_of(rel.space)
    if commutativity_violations(alg, anti=r.symmetry is ANTICOMMUTATIVE):
        return False
    return all(rel.contains(lift(x)) for x in r.basis_elements())


def tensor_instance(a: AlgebraInstance, b: AlgebraInstance,
                    product: MixedProduct,
                    name=None) -> AlgebraInstance:
    """Structure constants of A (x) B under a mixed product, summed over
    the nonzero constants of both factors."""
    n = a.dim * b.dim
    if n > MAX_DIM:
        raise ValueError(
            f"tensor product dimension {a.dim}*{b.dim} = {n} exceeds {MAX_DIM}")
    entries, entries_b = [], list(b.entries())

    def at(i: int, p: int) -> int:  # the 1-based index of e_i (x) e_p
        return (i - 1) * b.dim + p

    for (s, t), alpha in zip(PAIR_KEYS, product.coeffs):
        if alpha == 0:
            continue
        # A swap on a side reads that side's constant at the reversed pair.
        for i, j, k, x in a.entries():
            if s == SWAP:
                i, j = j, i
            for p, q, r, y in entries_b:
                if t == SWAP:
                    p, q = q, p
                entries.append((at(i, p), at(j, q), at(k, r), alpha * x * y))
    return AlgebraInstance.from_entries(n, entries, name)


# ---------------------------------------------------------------------------
# Fixture catalog.


def _fixtures() -> dict[str, AlgebraInstance]:
    out = {}
    out["leib_tilde_3d"] = AlgebraInstance.from_entries(
        3,
        [(1, 1, 2, 1), (1, 3, 2, 1), (3, 3, 2, 1)],
        "leib_tilde_3d",
    )
    out["abelian_2d"] = AlgebraInstance.from_entries(2, [], "abelian_2d")
    out["lie_nonabelian_2d"] = AlgebraInstance.from_entries(
        2, [(1, 2, 2, 1), (2, 1, 2, -1)], "lie_nonabelian_2d"
    )
    out["heisenberg"] = AlgebraInstance.from_entries(
        3, [(1, 2, 3, 1), (2, 1, 3, -1)], "heisenberg"
    )
    # K[u]/(u^2) with unit: e1 = 1, e2 = u
    out["comm_assoc_2d"] = AlgebraInstance.from_entries(
        2,
        [(1, 1, 1, 1), (1, 2, 2, 1), (2, 1, 2, 1)],
        "comm_assoc_2d",
    )
    out["leibniz_3d"] = AlgebraInstance.from_entries(
        3, [(1, 1, 2, 1), (2, 1, 3, 1)], "leibniz_3d"
    )
    # Truncated half-shuffle: e1 e1 = e2, e1 e2 = e3, e2 e1 = 2 e3
    out["zinbiel_3d"] = AlgebraInstance.from_entries(
        3, [(1, 1, 2, 1), (1, 2, 3, 1), (2, 1, 3, 2)], "zinbiel_3d"
    )
    # A Lie bracket satisfies the one-operation Poisson identity (zero
    # commutative part).
    out["poisson_heisenberg"] = AlgebraInstance.from_entries(
        3, [(1, 2, 3, 1), (2, 1, 3, -1)], "poisson_heisenberg"
    )
    # Unit adjoined to the Heisenberg Poisson algebra: e1 = 1, product
    # e_i * e_j = unit action + bracket.
    unital = [(1, k, k, 1) for k in range(1, 5)]
    unital += [(k, 1, k, 1) for k in range(2, 5)]
    unital += [(2, 3, 4, 1), (3, 2, 4, -1)]
    out["poisson_unital_4d"] = AlgebraInstance.from_entries(
        4, unital, "poisson_unital_4d"
    )
    return out


_CATALOG = _fixtures()


# ---------------------------------------------------------------------------
# Counterexample search.


@dataclass(frozen=True)
class Counterexample:
    left: AlgebraInstance
    right: AlgebraInstance
    violation: Violation


def _random_nilpotent(dim: int, rng: random.Random,
                      name: str) -> AlgebraInstance:
    """Strictly upper-triangular support: e_i e_j lands in span(e_k, k>max)."""
    entries = []
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            lo = max(i, j)
            for k in range(lo + 1, dim + 1):
                c = rng.randint(-2, 2)
                if c:
                    entries.append((i, j, k, c))
    return AlgebraInstance.from_entries(dim, entries, name)


def search_counterexample(r_a: RelationModule, r_b: RelationModule,
                          targets: Sequence[Weight3Element],
                          max_dim: int = 4, seed: int = 0,
                          budget: int = 200) -> Optional[Counterexample]:
    """Look for algebra pairs whose tensor product breaks a target relation.

    Candidates come from the fixture catalog first and then from seeded
    random nilpotent structure constants; absence of a witness within the
    budget proves nothing.  The targets must be regular-class relations.

    Rel(A) is computed once per instance object, so once per process for
    the catalog fixtures, and interned (a `Subspace` hashes by its integer
    form).  Each distinct (Rel(A), Rel(B)) pair is decided once, as
    `closure_holds` would: the kernel of ev_A (x) ev_B is
    Rel(A) (x) Gamma + Gamma (x) Rel(B), so a target holds on A (x) B
    exactly when its expansion lies there, and no tensor product is built.
    The verdict runs on the integer RREF rows of the targets' span and
    stops at the first that leaks.  Pairs are visited in candidate order,
    and only the first failing pair is tensored, its first violation in
    `check_relations` order becoming the witness; so a seed reports the
    same witness as evaluating every tensor product would.  The targets'
    Fraction basis is built for that witness only.
    """
    if not 2 <= max_dim <= 4:
        raise ValueError(f"max_dim must be between 2 and 4, got {max_dim}")
    if any(t.symmetry is not REGULAR for t in targets):
        raise ValueError("search targets must be regular-class relations")
    targets = [t for t in targets if not t.is_zero()]
    if not targets:
        return None
    target_space = span([t.coords for t in targets], 12)
    rng = random.Random(seed)
    candidates_a = [a for a in _CATALOG.values() if a.dim <= max_dim]
    candidates_b = list(candidates_a)
    for _ in range(budget):
        for candidates in (candidates_a, candidates_b):
            candidates.append(
                _random_nilpotent(rng.randint(2, max_dim), rng, "random"))
    ids: dict[RelationModule, int] = {}

    def accepted(candidates, r):
        return [(alg, ids.setdefault(algebra_relations(alg), len(ids)))
                for alg in candidates if satisfies(alg, r)]

    lefts = accepted(candidates_a, r_a)
    rights = accepted(candidates_b, r_b)
    modules = list(ids)
    identity = MixedProduct.identity()
    closed = set()
    for a, i in lefts:
        for b, j in rights:
            if (i, j) in closed:
                continue
            if closure_holds_on_rows(modules[i], modules[j], identity,
                                     target_space.rows):
                closed.add((i, j))
                continue
            target_basis = [Weight3Element(REGULAR, row)
                            for row in target_space.basis]
            t = tensor_instance(a, b, identity)
            return Counterexample(a, b, next(_violations(t, target_basis)))
    return None
