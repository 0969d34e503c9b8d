"""Symbolic verification of tensor-product closure.

A mixed product mu on A (x) B expands a regular relation template monomial
by monomial: each internal node of a monomial tree picks one of the four
(s, t) argument-swap options, and the swapped A-side and B-side trees land
on their signed coordinates in each factor's class through PROJECTION.
`placements` tabulates these cells (ia, ib, alpha) once per (mu, class of
A, class of B).

Reduction modulo R_A (x) Gamma + Gamma (x) R_B sends e_i (x) e_j to
NF_A(e_i) (x) NF_B(e_j), NF being the residue modulo each relation module
(`Subspace.unit_residues`).  So a target r leaves the bilinear normal form

    sum_m r_m sum_{placements of m} alpha NF_A(e_ia) (x) NF_B(e_ib),

which `leaks` computes and every closure question below reads: r's
expansion lies in the sum exactly when it is 0.  The kernel of r -> leaks(r)
is the arity-3 white product W_mu(R_A, R_B) (Ginzburg-Kapranov 1994,
Vallette 2008), so closure holds exactly when the targets lie in W_mu.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Sequence

from .foundation import ZERO, Vector, integer_row
from .group_module import subgroup_alternating
from .operad_calculus import (
    QuadraticOperad,
    RelationModule,
    partition_module,
    presented_relation,
    preset,
    tilde,
)
from .weight_spaces import (
    COMMUTATIVE,
    MONOMIALS,
    PROJECTION,
    REGULAR,
    SWAPPED,
    SymmetryClass,
    Weight3Element,
    lift,
)

# A pair key (s, t) says whether the A side and the B side swap their
# arguments: the keys of SWAPPED.
E2 = False
SWAP = True
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
        return MixedProduct.from_dict(
            {(not s, not t): self[(s, t)] for s, t in PAIR_KEYS}
        )

    def negated(self) -> "MixedProduct":
        return MixedProduct(tuple(-c for c in self.coeffs))


@cache
def placements(product: MixedProduct, sym_a: SymmetryClass,
               sym_b: SymmetryClass) -> tuple[int, tuple]:
    """(den, cells): product expands the n-th monomial of a template into
    the sum of alpha / den e_ia (x) e_ib over (ia, ib, alpha) in cells[n].

    Each choice of swaps at the root and the inner node places the swapped
    A-side and B-side trees on their signed coordinates through PROJECTION;
    cells that cancel are dropped.
    """
    proj_a, proj_b = PROJECTION[sym_a], PROJECTION[sym_b]
    # (swapped A-side indices, swapped B-side indices, coefficient)
    swaps = [(SWAPPED[s_r, s_i], SWAPPED[t_r, t_i], a_r * a_i)
             for (s_r, t_r), a_r in zip(PAIR_KEYS, product.coeffs) if a_r
             for (s_i, t_i), a_i in zip(PAIR_KEYS, product.coeffs) if a_i]
    cells = []
    for n in range(len(MONOMIALS)):
        acc: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
        for swapped_a, swapped_b, a in swaps:
            ia, sa = proj_a[swapped_a[n]]
            ib, sb = proj_b[swapped_b[n]]
            acc[ia, ib] += a if sa == sb else -a
        cells.append(acc)
    den = lcm(*[a.denominator for acc in cells for a in acc.values()])
    return den, tuple(
        tuple((ia, ib, int(a * den)) for (ia, ib), a in acc.items() if a)
        for acc in cells)


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


def _normal_form(w: Sequence[int], cells: tuple, nf_a: tuple, nf_b: tuple,
                 dim_b: int) -> dict[int, list[int]]:
    """The bilinear normal form of the integer template w, on integers:
    {A-side coset coordinate: B-side row}, both residue tables and the
    placement table read without their denominators."""
    rows: dict[int, list[int]] = defaultdict(lambda: [0] * dim_b)
    for w_m, cells_m in zip(w, cells):
        if not w_m:
            continue
        for ia, ib, alpha in cells_m:
            for i, a in nf_a[ia]:
                f, row = w_m * alpha * a, rows[i]
                for j, b in nf_b[ib]:
                    row[j] += f * b
    return rows


def leaks(target: Weight3Element, product: MixedProduct,
          r_a: RelationModule, r_b: RelationModule
          ) -> tuple[tuple[int, Vector], ...]:
    """Residual of target's expansion modulo R_A (x) Gamma + Gamma (x) R_B.

    Each nonzero row of the bilinear normal form comes with its A-side
    coset coordinate, in increasing order; the expansion lies in the sum
    exactly when none is left.  The sum runs on integers over the common
    denominator of the target, the placement table and the two residue
    tables.
    """
    if target.symmetry is not REGULAR:
        raise ValueError("expansion templates live in the regular class")
    den, cells = placements(product, r_a.symmetry, r_b.symmetry)
    c_a, nf_a = r_a.space.unit_residues
    c_b, nf_b = r_b.space.unit_residues
    w, d = integer_row(target.coords)
    rows = _normal_form(w, cells, nf_a, nf_b, r_b.symmetry.dim)
    den *= d * c_a * c_b
    return tuple((i, tuple(Fraction(x, den) if x else ZERO for x in row))
                 for i, row in sorted(rows.items()) if any(row))


def closure_holds(r_a: RelationModule, r_b: RelationModule,
                  product: MixedProduct,
                  targets: Sequence[Weight3Element]
                  ) -> tuple[bool, list[ClosureCertificate]]:
    """Check every target's expansion against R_A (x) Gamma + Gamma (x) R_B."""
    certs = [ClosureCertificate(tgt, leaks(tgt, product, r_a, r_b))
             for tgt in targets]
    return all(c.holds for c in certs), certs


def closure_holds_on_rows(r_a: RelationModule, r_b: RelationModule,
                          product: MixedProduct,
                          rows: Sequence[Sequence[int]]) -> bool:
    """closure_holds(r_a, r_b, product, targets)[0], with the regular
    targets given as integer coordinate rows.  The normal form is linear,
    so nonzero multiples of the targets, or any spanning set of their span,
    give the same verdict.  Stops at the first row that leaks and builds no
    Fraction."""
    _, cells = placements(product, r_a.symmetry, r_b.symmetry)
    nf_a = r_a.space.unit_residues[1]
    nf_b = r_b.space.unit_residues[1]
    dim_b = r_b.symmetry.dim
    return not any(any(map(any, _normal_form(w, cells, nf_a, nf_b,
                                             dim_b).values()))
                   for w in rows)


def lift_closure(p: QuadraticOperad, r_b: RelationModule
                 ) -> tuple[bool, list[ClosureCertificate]]:
    """Closure of P against R_B under the identity product, over the lifts
    of P's relation basis.

    For a symmetric class the lifts decide closure against a commutative
    R_B: against a commutative factor the B side of every swapped pair of m
    is the comb coordinate of m itself, while the A side is m's own
    coordinate up to a sign that depends only on the swaps; so a regular
    element that projects to 0 expands into 0 under any mixed product, and
    every lift gives the same verdict.  Against any other R_B the verdict
    depends on the lift, so a symmetric P is refused there.
    """
    if p.symmetry is not REGULAR and r_b.symmetry is not COMMUTATIVE:
        raise ValueError(
            f"a P of class {p.symmetry.value} is decided through lifts only "
            f"against an R_B of class comm, got {r_b.symmetry.value}")
    return closure_holds(
        p.relations, r_b, MixedProduct.identity(),
        [lift(x) for x in p.relations.basis_elements()],
    )


def theorem1_check(p: QuadraticOperad, seed: int = 0) -> tuple[bool, list]:
    """Closure of P against its tilde companion over P's own relation basis."""
    return lift_closure(p, tilde(p, seed=seed).relations)


def minimal_companion(p: QuadraticOperad) -> RelationModule:
    """Least invariant module S with Delta(R) inside R (x) Gamma + Gamma (x) S:
    the partition module of R's RREF row supports.  Against a free B, the
    row b with pivot q leaks b[i] (e_i - e_q) at each coset coordinate i,
    and those blocks, R's matroid components, are Sigma_3-stable."""
    if p.symmetry is not REGULAR:
        raise ValueError("companion is computed for regular presets only")
    return partition_module(REGULAR, p.relations.space.rows)


def jacobiator_template() -> Weight3Element:
    """The Jacobi sum of nested commutators, written over a generic product.

    Expanding [[a,b],c] with [x,y] = xy - yx at both nodes and summing over
    the cyclic arrangements gives each monomial the sign of its arrangement,
    negated for the Right shape: psi(V_6, L) - psi(V_6, R), the relation of
    the Lie-admissible operad, whose coordinates are those of PAIRING
    negated.
    """
    v6 = subgroup_alternating(6)
    return presented_relation(v6, v6, REGULAR)


def bracket_antisymmetric() -> bool:
    """Coefficient identity: the commutator-style product is antisymmetric."""
    beta = MixedProduct.bracket()
    return beta.precompose_swap() == beta.negated()


def bracket_is_lie(r_a: RelationModule, r_b: RelationModule) -> bool:
    """Does the commutator-style product on A (x) B satisfy Jacobi?"""
    if r_a.symmetry is not REGULAR or r_b.symmetry is not REGULAR:
        raise ValueError("the bracket check expects regular classes")
    ok, _ = closure_holds(
        r_a, r_b, MixedProduct.bracket(), [jacobiator_template()]
    )
    return ok


def twisted_poisson_check() -> tuple[bool, list[ClosureCertificate]]:
    """The twisted product of two Poisson-type factors stays Poisson-type."""
    poiss = preset("poiss")
    return closure_holds(
        poiss.relations, poiss.relations, MixedProduct.poisson_twist(),
        poiss.relations.basis_elements(),
    )
