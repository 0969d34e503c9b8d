"""Concrete finite-dimensional algebras given by structure constants.

Instances corroborate the symbolic layer.  Each algebra A has a relation
module Rel(A), the regular relations that vanish on every basis triple, so
A satisfies P exactly when R_P lies in Rel(A); the counterexample search
decides tensor products from these modules alone.  Relation checking, which
evaluates every basis relation on every ordered basis triple, and tensor
instances assembled from a mixed product's coefficients remain as the
direct route that recovers a witness triple.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .foundation import Vector, kernel, span
from .operad_calculus import RelationModule
from .tensor_closure import PAIR_KEYS, SWAP, MixedProduct, closure_holds
from .weight_spaces import (
    ANTICOMMUTATIVE,
    LEFT,
    MONOMIALS,
    REGULAR,
    RIGHT,
    Monomial3,
    Weight3Element,
    lift,
)

Structure = tuple[tuple[Vector, ...], ...]  # c[i][j] is the vector e_i * e_j

# The largest instance dimension; the structure table has dim³ entries.
MAX_DIM = 16


def _check_dim(dim) -> None:
    # bool is a subclass of int, and `true` in a JSON file is no dimension.
    if type(dim) is not int or not 1 <= dim <= MAX_DIM:
        raise ValueError(
            f"dimension must be an integer in 1..{MAX_DIM}, got {dim!r}")


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

    @classmethod
    def from_entries(cls, dim: int, entries, name=None) -> "AlgebraInstance":
        """Build from sparse (i, j, k, value) entries, 1-based indices.

        dim and the indices must be ints.  A value is an int, a Fraction or
        a string such as "1/10"; a float or a bool is refused, because a
        float's binary value is not the decimal that was written, and so is
        a string with an exponent such as "1e1000000", whose power of ten
        Fraction would compute.
        """
        _check_dim(dim)
        c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j, k, value in entries:
            if not all(type(x) is int and 1 <= x <= dim for x in (i, j, k)):
                raise ValueError(
                    f"structure entry ({i}, {j}, {k}, {value}) needs "
                    f"indices in 1..{dim}"
                )
            try:
                if isinstance(value, (bool, float)) or (
                        isinstance(value, str) and "e" in value.lower()):
                    raise TypeError("inexact coefficient")
                c[i - 1][j - 1][k - 1] += Fraction(value)
            except (ZeroDivisionError, ValueError, TypeError):
                raise ValueError(
                    f"structure entry ({i}, {j}, {k}, {value}) needs a "
                    f"rational coefficient"
                ) from None
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

    def product(self, u: Vector, v: Vector) -> Vector:
        out = [Fraction(0)] * self.dim
        for i in range(self.dim):
            if u[i] == 0:
                continue
            for j in range(self.dim):
                if v[j] == 0:
                    continue
                c = self.structure[i][j]
                f = u[i] * v[j]
                for k in range(self.dim):
                    if c[k] != 0:
                        out[k] += f * c[k]
        return tuple(out)

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(1 if j == i else 0) for j in range(self.dim))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "structure": [
                [i, j, k, str(v)] for i, j, k, v in self.entries()
            ],
        }

    @classmethod
    def from_json(cls, data: dict, name=None) -> "AlgebraInstance":
        """Build from {"dim": n, "structure": [[i, j, k, value], ...]}."""
        if not isinstance(data, dict) or not {"dim", "structure"} <= set(data):
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


def _eval_monomial(alg: AlgebraInstance, m: Monomial3,
                   triple: Sequence[Vector]) -> Vector:
    i, j, k = m.labels
    xi, xj, xk = triple[i - 1], triple[j - 1], triple[k - 1]
    if m.shape == LEFT:
        return alg.product(alg.product(xi, xj), xk)
    return alg.product(xi, alg.product(xj, xk))


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


def _violations(alg: AlgebraInstance,
                relations: Sequence[Weight3Element]) -> Iterator[Violation]:
    """Regular relations failing on basis triples, relation by relation."""
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    for x in relations:
        support = [m for m in MONOMIALS if x.coords[m.index] != 0]
        for triple_idx in itertools.product(range(alg.dim), repeat=3):
            triple = [basis[t] for t in triple_idx]
            total = [Fraction(0)] * alg.dim
            for m in support:
                val = _eval_monomial(alg, m, triple)
                c = x.coords[m.index]
                for k in range(alg.dim):
                    if val[k] != 0:
                        total[k] += c * val[k]
            if any(v != 0 for v in total):
                yield Violation(x, tuple(t + 1 for t in triple_idx),
                                tuple(total))


def algebra_relations(alg: AlgebraInstance) -> RelationModule:
    """Rel(A): the regular relations that vanish on every basis triple.

    Rel(A) is the left kernel of the 12 x n^4 evaluation matrix, whose
    column (a, b, c, k) holds coordinate k of each monomial evaluated on
    (e_a, e_b, e_c).  All-zero and repeated columns leave that kernel
    unchanged, so they are dropped before the one elimination.  The set of
    basis triples is closed under permutation, so Rel(A) is
    Sigma_3-invariant.
    """
    n = alg.dim
    # Sparse basis products: e_i e_j as {k: coefficient}.
    prod = [[{k: v for k, v in enumerate(alg.structure[i][j]) if v}
             for j in range(n)] for i in range(n)]

    def times(u: dict, v: dict) -> dict:
        out: dict = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, c in prod[i][j].items():
                    out[k] = out.get(k, 0) + a * b * c
        return out

    unit = [{i: 1} for i in range(n)]
    triples = list(itertools.product(range(n), repeat=3))
    values = {
        LEFT: {t: times(prod[t[0]][t[1]], unit[t[2]]) for t in triples},
        RIGHT: {t: times(unit[t[0]], prod[t[1]][t[2]]) for t in triples},
    }
    columns = set()
    for abc in triples:
        evals = [values[m.shape][tuple(abc[l - 1] for l in m.labels)]
                 for m in MONOMIALS]
        for k in set().union(*evals):
            columns.add(tuple(e.get(k, 0) for e in evals))
    columns.discard((0,) * 12)
    return RelationModule(REGULAR, kernel(span(columns, 12)))


def satisfies(alg: AlgebraInstance, r: RelationModule) -> bool:
    """Does A satisfy r, that is, is R_P inside Rel(A)?

    A symmetric-class module also needs the product to be (anti)commutative;
    its relations are then tested through their regular lifts.
    """
    return _satisfied(alg, algebra_relations(alg), r)


def _satisfied(alg: AlgebraInstance, rel: RelationModule,
               r: RelationModule) -> bool:
    if r.symmetry is REGULAR:
        return r.space.is_subspace_of(rel.space)
    if commutativity_violations(alg, anti=r.symmetry is ANTICOMMUTATIVE):
        return False
    return all(rel.contains(lift(x)) for x in r.basis_elements())


def tensor_instance(a: AlgebraInstance, b: AlgebraInstance,
                    product: MixedProduct,
                    name=None) -> AlgebraInstance:
    """Structure constants of A (x) B under a mixed product."""
    n = a.dim * b.dim
    if n > MAX_DIM:
        raise ValueError(
            f"tensor product dimension {a.dim}*{b.dim} = {n} exceeds {MAX_DIM}")
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, p in itertools.product(range(a.dim), range(b.dim)):
        for j, q in itertools.product(range(a.dim), range(b.dim)):
            row = i * b.dim + p
            col = j * b.dim + q
            for s, t in PAIR_KEYS:
                alpha = product[(s, t)]
                if alpha == 0:
                    continue
                ii, jj = (j, i) if s == SWAP else (i, j)
                pp, qq = (q, p) if t == SWAP else (p, q)
                ca = a.structure[ii][jj]
                cb = b.structure[pp][qq]
                for k in range(a.dim):
                    if ca[k] == 0:
                        continue
                    for r in range(b.dim):
                        if cb[r] == 0:
                            continue
                        c[row][col][k * b.dim + r] += alpha * ca[k] * cb[r]
    return AlgebraInstance(
        n, tuple(tuple(tuple(v) for v in row) for row in c), name
    )


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


def example(name: str) -> AlgebraInstance:
    if name not in _CATALOG:
        raise ValueError(f"unknown example name: {name!r}")
    return _CATALOG[name]


def example_names() -> list[str]:
    return sorted(_CATALOG)


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

    Each candidate's relation module Rel(A) is computed once and interned,
    and each distinct (Rel(A), Rel(B)) pair is decided once by
    `closure_holds`: the kernel of ev_A (x) ev_B is
    Rel(A) (x) Gamma + Gamma (x) Rel(B), so a target holds on A (x) B
    exactly when its expansion lies there, and no tensor product is built.
    Pairs are visited in candidate order, and only the first failing pair
    is tensored, its first violation in `check_relations` order becoming
    the witness; so a seed reports the same witness as evaluating every
    tensor product would.
    """
    if not 2 <= max_dim <= 4:
        raise ValueError(f"max_dim must be between 2 and 4, got {max_dim}")
    if any(t.symmetry is not REGULAR for t in targets):
        raise ValueError("search targets must be regular-class relations")
    targets = [t for t in targets if not t.is_zero()]
    if not targets:
        return None
    target_basis = [Weight3Element(REGULAR, b)
                    for b in span([t.coords for t in targets], 12).basis]
    rng = random.Random(seed)
    candidates_a = [a for a in _CATALOG.values() if a.dim <= max_dim]
    candidates_b = list(candidates_a)
    for _ in range(budget):
        candidates_a.append(
            _random_nilpotent(rng.randint(2, max_dim), rng, "random")
        )
        candidates_b.append(
            _random_nilpotent(rng.randint(2, max_dim), rng, "random")
        )
    ids: dict[RelationModule, int] = {}

    def accepted(candidates, r):
        out = []
        for alg in candidates:
            rel = algebra_relations(alg)
            if _satisfied(alg, rel, r):
                out.append((alg, ids.setdefault(rel, len(ids))))
        return out

    lefts = accepted(candidates_a, r_a)
    rights = accepted(candidates_b, r_b)
    modules = list(ids)
    closed = set()
    for a, i in lefts:
        for b, j in rights:
            if (i, j) in closed:
                continue
            holds, _ = closure_holds(modules[i], modules[j],
                                     MixedProduct.identity(), target_basis)
            if holds:
                closed.add((i, j))
                continue
            t = tensor_instance(a, b, MixedProduct.identity())
            return Counterexample(a, b, next(_violations(t, target_basis)))
    return None
