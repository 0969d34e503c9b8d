"""Symbolic verification of tensor-product closure.

A relation template in the regular 12-monomial basis is expanded over a
mixed product on A (tensor) B: every internal node of every monomial tree
independently picks one of the four (s, t) argument-swap options, the A-side
and B-side trees are renormalized to standard monomials and placed on their
signed coordinates in each factor's class by the one projection table
PROJECTION, and membership of the expansion in R_A (x) Gamma + Gamma (x) R_B
is decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .foundation import ZERO, Vector, is_zero
from .group_module import Perm3
from .operad_calculus import (
    QuadraticOperad,
    RelationModule,
    orbit_span,
    tilde,
    zero_module,
)
from .weight_spaces import (
    ACTION_TABLE,
    LEFT,
    MONOMIALS,
    PROJECTION,
    REGULAR,
    RIGHT,
    Monomial3,
    SymmetryClass,
    Weight3Element,
    lift,
)

E2 = "e"
SWAP = "s"
PAIR_KEYS = ((E2, E2), (E2, SWAP), (SWAP, E2), (SWAP, SWAP))


@dataclass(frozen=True)
class MixedProduct:
    """Sum of alpha_{st} (mu_A o s) (x) (mu_B o t) over Sigma_2 x Sigma_2."""

    coeffs: tuple[Fraction, Fraction, Fraction, Fraction]  # order PAIR_KEYS

    @classmethod
    def from_dict(cls, d) -> "MixedProduct":
        return cls(tuple(Fraction(d.get(k, 0)) for k in PAIR_KEYS))

    @classmethod
    def identity(cls) -> "MixedProduct":
        return cls.from_dict({(E2, E2): 1})

    @classmethod
    def bracket(cls) -> "MixedProduct":
        """The commutator-style product id(x)id - swap(x)swap."""
        return cls.from_dict({(E2, E2): 1, (SWAP, SWAP): -1})

    @classmethod
    def poisson_twist(cls) -> "MixedProduct":
        """The twist that carries a pair of Poisson-type products to one.

        Splitting each factor's product into its symmetric part s and
        antisymmetric part k, these coefficients give
        4(s(x)s + s(x)k + k(x)s): the commutative parts multiply and the
        brackets act by the usual Leibniz-rule tensor extension, with no
        stray k(x)k term.
        """
        return cls.from_dict(
            {(E2, E2): 3, (E2, SWAP): 1, (SWAP, E2): 1, (SWAP, SWAP): -1}
        )

    @classmethod
    def poisson_twist_literal(cls) -> "MixedProduct":
        """Same magnitudes with the off-diagonal signs flipped.

        Kept as an informative control: this variant leaves a bracket(x)bracket
        term in the expansion and the closure check rejects it.
        """
        return cls.from_dict(
            {(E2, E2): 3, (E2, SWAP): -1, (SWAP, E2): -1, (SWAP, SWAP): 1}
        )

    def __getitem__(self, key) -> Fraction:
        return self.coeffs[PAIR_KEYS.index(key)]

    def precompose_swap(self) -> "MixedProduct":
        """The product (a, b) -> product(b, a)."""
        flip = {E2: SWAP, SWAP: E2}
        return MixedProduct.from_dict(
            {(flip[s], flip[t]): self[(s, t)] for s, t in PAIR_KEYS}
        )

    def negated(self) -> "MixedProduct":
        return MixedProduct(tuple(-c for c in self.coeffs))


def apply_node_swaps(m: Monomial3, root_swap: bool, inner_swap: bool) -> Monomial3:
    """Renormalize a monomial tree after swapping node arguments.

    The inner node holds the adjacent pair of leaves; swapping the root's
    arguments flips the tree between the Left and Right shapes.
    """
    i, j, k = m.labels
    if m.shape == LEFT:
        if inner_swap:
            i, j = j, i
        if root_swap:
            return Monomial3(RIGHT, (k, i, j))
        return Monomial3(LEFT, (i, j, k))
    if inner_swap:
        j, k = k, j
    if root_swap:
        return Monomial3(LEFT, (j, k, i))
    return Monomial3(RIGHT, (i, j, k))


@dataclass(frozen=True)
class TensorElement3:
    """An element of (weight-3 space of A) (x) (weight-3 space of B)."""

    sym_a: SymmetryClass
    sym_b: SymmetryClass
    coords: tuple[Vector, ...]  # matrix, rows indexed by A-side monomials

    @property
    def dim_a(self) -> int:
        return self.sym_a.dim

    @property
    def dim_b(self) -> int:
        return self.sym_b.dim

    def is_zero(self) -> bool:
        return all(all(c == 0 for c in row) for row in self.coords)


def expand(relation: Weight3Element, product: MixedProduct,
           sym_a: SymmetryClass = REGULAR,
           sym_b: SymmetryClass = REGULAR) -> TensorElement3:
    """Expand a regular relation template over the mixed product.

    Each swapped pair of monomials (ma, mb) lands on its signed coordinates
    in the factor classes, read from the one table PROJECTION.
    """
    if relation.symmetry is not REGULAR:
        raise ValueError("expansion templates live in the regular class")
    proj_a, proj_b = PROJECTION[sym_a], PROJECTION[sym_b]
    # (A root swap, A inner swap, B root swap, B inner swap, coefficient)
    swaps = [(s_r == SWAP, s_i == SWAP, t_r == SWAP, t_i == SWAP, a_r * a_i)
             for (s_r, t_r), a_r in zip(PAIR_KEYS, product.coeffs) if a_r
             for (s_i, t_i), a_i in zip(PAIR_KEYS, product.coeffs) if a_i]
    out = [[ZERO] * sym_b.dim for _ in range(sym_a.dim)]
    for m in MONOMIALS:
        c = relation.coords[m.index]
        if c == 0:
            continue
        for root_a, inner_a, root_b, inner_b, a in swaps:
            ia, sa = proj_a[apply_node_swaps(m, root_a, inner_a).index]
            ib, sb = proj_b[apply_node_swaps(m, root_b, inner_b).index]
            out[ia][ib] += c * a if sa == sb else -c * a
    return TensorElement3(sym_a, sym_b, tuple(tuple(row) for row in out))


def act_tensor(sigma: Perm3, t: TensorElement3) -> TensorElement3:
    """The diagonal (sigma, sigma) action on both tensor factors."""
    table_b = ACTION_TABLE[t.sym_b, sigma]
    return TensorElement3(t.sym_a, t.sym_b, tuple(
        tuple(sa * sb * t.coords[ia][ib] for ib, sb in table_b)
        for ia, sa in ACTION_TABLE[t.sym_a, sigma]
    ))


@dataclass(frozen=True)
class ClosureCertificate:
    """Witness or refutation for one membership check."""

    target: Weight3Element
    residuals: tuple[tuple[int, Vector], ...] = ()
    # (complement coordinate on the A side, leaking B-side component)

    @property
    def holds(self) -> bool:
        return not self.residuals

    def describe(self) -> str:
        if self.holds:
            return "absorbed"
        parts = []
        for col, res in self.residuals:
            parts.append(f"coset coordinate {col}: residual {res}")
        return "; ".join(parts)


def membership(t: TensorElement3, r_a: RelationModule,
               r_b: RelationModule) -> tuple[tuple[int, Vector], ...]:
    """Residuals of t modulo R_A (x) Gamma_B + Gamma_A (x) R_B.

    Each B-side column is reduced modulo R_A; each surviving coset
    component (a row of the result at a non-pivot A coordinate) is reduced
    modulo R_B, and the nonzero ones are returned with their A-side
    coordinate.  t lies in the sum exactly when none is left.
    """
    if r_a.symmetry is not t.sym_a or r_b.symmetry is not t.sym_b:
        raise ValueError("relation modules do not match the expansion classes")
    columns = [r_a.space.reduce(column) for column in zip(*t.coords)]
    residuals = []
    for i in r_a.space.complement_columns():
        res = r_b.space.reduce(tuple(column[i] for column in columns))
        if not is_zero(res):
            residuals.append((i, res))
    return tuple(residuals)


def closure_holds(r_a: RelationModule, r_b: RelationModule,
                  product: MixedProduct,
                  targets: Sequence[Weight3Element]
                  ) -> tuple[bool, list[ClosureCertificate]]:
    """Check every target's expansion against R_A (x) Gamma + Gamma (x) R_B."""
    certs = [
        ClosureCertificate(tgt, membership(
            expand(tgt, product, r_a.symmetry, r_b.symmetry), r_a, r_b))
        for tgt in targets
    ]
    return all(c.holds for c in certs), certs


def theorem1_check(p: QuadraticOperad, seed: int = 0) -> tuple[bool, list]:
    """Closure of P against its tilde companion over P's own relation basis.

    A symmetric class is checked through the lifts of its basis.  Its tilde
    is commutative, and against a commutative factor the B side of every
    swapped pair of m is the comb coordinate of m itself, while the A side
    is m's own coordinate up to a sign that depends only on the swaps; so a
    regular element that projects to 0 expands into 0 under any mixed
    product, and every lift gives the same verdict.
    """
    companion = tilde(p, seed=seed)
    return closure_holds(
        p.relations, companion.relations, MixedProduct.identity(),
        [lift(x) for x in p.relations.basis_elements()],
    )


def minimal_companion(p: QuadraticOperad) -> RelationModule:
    """Least invariant module S with Delta(R) inside R (x) Gamma + Gamma (x) S."""
    if p.symmetry is not REGULAR:
        raise ValueError("minimal companion is computed for the regular class")
    r = p.relations
    free = zero_module(REGULAR)
    collected = [
        Weight3Element(REGULAR, component)
        for tgt in r.basis_elements()
        for _, component in membership(
            expand(tgt, MixedProduct.identity()), r, free)
    ]
    return orbit_span(collected, REGULAR)


def jacobiator_template() -> Weight3Element:
    """The Jacobi sum of nested commutators, written over a generic product.

    Built programmatically by expanding [[a,b],c] with [x,y] = xy - yx at
    both nodes, summed over the cyclic arrangements.
    """
    out = Weight3Element.zero(REGULAR)
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        base = Monomial3(LEFT, (a, b, c))
        for root_swap in (False, True):
            for inner_swap in (False, True):
                sign = (-1 if root_swap else 1) * (-1 if inner_swap else 1)
                m = apply_node_swaps(base, root_swap, inner_swap)
                out = out + Weight3Element.monomial(m.shape, m.labels, sign)
    return out


def bracket_antisymmetric() -> bool:
    """Coefficient identity: the commutator-style product is antisymmetric."""
    beta = MixedProduct.bracket()
    return beta.precompose_swap() == beta.negated()


def bracket_is_lie(r_a: RelationModule, r_b: RelationModule) -> bool:
    """Does the commutator-style product on A (x) B satisfy Jacobi?"""
    if r_a.symmetry is not REGULAR or r_b.symmetry is not REGULAR:
        raise ValueError("the bracket check expects regular classes")
    if not bracket_antisymmetric():
        return False
    ok, _ = closure_holds(
        r_a, r_b, MixedProduct.bracket(), [jacobiator_template()]
    )
    return ok


def twisted_poisson_check() -> tuple[bool, list[ClosureCertificate]]:
    """The twisted product of two Poisson-type factors stays Poisson-type."""
    from .operad_calculus import preset

    poiss = preset("poiss")
    return closure_holds(
        poiss.relations, poiss.relations, MixedProduct.poisson_twist(),
        poiss.relations.basis_elements(),
    )
