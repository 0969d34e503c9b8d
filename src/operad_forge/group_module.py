"""The symmetric group on three letters, its group algebra, and isotypic data.

The six elements are enumerated in the fixed order
(Id, t12, t13, t23, c1, c2) with c1 = (1,2,3) and c2 = (1,3,2); this order
is part of every serialized format.  The "natural" action of the group on
its own group algebra is left translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .foundation import Subspace, Vector, span, vec


@dataclass(frozen=True, order=True)
class Perm3:
    """A permutation of {1,2,3}, stored as its tuple of images."""

    images: tuple[int, int, int]

    def __post_init__(self):
        if sorted(self.images) != [1, 2, 3]:
            raise ValueError(f"not a permutation of (1,2,3): {self.images}")

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Perm3") -> "Perm3":
        # Left-to-right composition: (self * other)(i) = other(self(i)).
        # With the inverse-relabel action on monomials this makes
        # act(p * q, x) = act(p, act(q, x)) a genuine left action.
        return Perm3(tuple(other(self(i)) for i in (1, 2, 3)))

    def inverse(self) -> "Perm3":
        inv = [0, 0, 0]
        for i in (1, 2, 3):
            inv[self(i) - 1] = i
        return Perm3(tuple(inv))

    def sign(self) -> int:
        (a, b, c) = self.images
        inversions = (a > b) + (a > c) + (b > c)
        return -1 if inversions % 2 else 1

    @property
    def name(self) -> str:
        return PERM_NAMES[self]

    def __repr__(self):
        return f"Perm3({self.name})"


ID = Perm3((1, 2, 3))
T12 = Perm3((2, 1, 3))
T13 = Perm3((3, 2, 1))
T23 = Perm3((1, 3, 2))
C1 = Perm3((2, 3, 1))
C2 = Perm3((3, 1, 2))

PERMS: tuple[Perm3, ...] = (ID, T12, T13, T23, C1, C2)
PERM_INDEX = {p: i for i, p in enumerate(PERMS)}
PERM_NAMES = {ID: "Id", T12: "t12", T13: "t13", T23: "t23", C1: "c1", C2: "c2"}
PERM_BY_NAME = {name: p for p, name in PERM_NAMES.items()}

SUBGROUPS: dict[int, tuple[Perm3, ...]] = {
    1: (ID,),
    2: (ID, T12),
    3: (ID, T23),
    4: (ID, T13),
    5: (ID, C1, C2),
    6: PERMS,
}


@dataclass(frozen=True)
class GroupVector:
    """An element of the rational group algebra of the symmetric group."""

    coeffs: Vector  # length 6, indexed by PERMS

    def __post_init__(self):
        if len(self.coeffs) != 6:
            raise ValueError("a group vector has exactly 6 coefficients")

    @classmethod
    def from_dict(cls, d: dict[Perm3, Fraction]) -> "GroupVector":
        return cls(vec(d.get(p, 0) for p in PERMS))

    @classmethod
    def basis(cls, p: Perm3) -> "GroupVector":
        return cls.from_dict({p: Fraction(1)})

    def __getitem__(self, p: Perm3) -> Fraction:
        return self.coeffs[PERM_INDEX[p]]

    def translate(self, p: Perm3) -> "GroupVector":
        """Left translation p·v, the natural action on the group algebra."""
        out = {p * q: self[q] for q in PERMS}
        return GroupVector.from_dict(out)


def group_vector(*terms) -> GroupVector:
    """Build a group vector from (coefficient, perm) pairs."""
    d: dict[Perm3, Fraction] = {}
    for c, p in terms:
        d[p] = d.get(p, Fraction(0)) + Fraction(c)
    return GroupVector.from_dict(d)


def subgroup_alternating(i: int) -> GroupVector:
    """Signed sum over the i-th subgroup (the V_i vectors)."""
    return GroupVector.from_dict(
        {p: Fraction(p.sign()) for p in SUBGROUPS[i]}
    )


def subgroup_symmetric(i: int) -> GroupVector:
    """Plain sum over the i-th subgroup (the W_i vectors)."""
    return GroupVector.from_dict({p: Fraction(1) for p in SUBGROUPS[i]})


def group_orbit_span(v: GroupVector) -> Subspace:
    """Span of the left-translation orbit of v inside the group algebra."""
    return span([v.translate(p).coeffs for p in PERMS], 6)


# ---------------------------------------------------------------------------
# Isotypic decomposition: multiplicities from characters, pieces from the
# central idempotents.

Action = Callable[[Perm3, Vector], Vector]


@dataclass(frozen=True)
class IsotypicProfile:
    m_triv: int
    m_sgn: int
    m_std: int


def apply_idempotent(kind: str, act: Action, v: Vector) -> Vector:
    """Image of v under the central idempotent of 'triv', 'sgn' or 'std'."""
    if kind == "std":
        triv = apply_idempotent("triv", act, v)
        sgn = apply_idempotent("sgn", act, v)
        return tuple(a - b - c for a, b, c in zip(v, triv, sgn))
    out = [Fraction(0)] * len(v)
    for p in PERMS:
        s = Fraction(p.sign() if kind == "sgn" else 1, 6)
        for i, w in enumerate(act(p, v)):
            out[i] += s * w
    return tuple(out)


def check_invariant(s: Subspace, act: Action) -> None:
    """Raise unless s is invariant; t12 and t23 generate the group."""
    for b in s.rows:
        for p in (T12, T23):
            if not s.contains(act(p, b)):
                raise ValueError(
                    f"not invariant: image of a basis vector under {p.name} "
                    f"leaves the subspace"
                )


def isotypic_multiplicities(s: Subspace, act: Action) -> IsotypicProfile:
    """Multiplicities of the three irreducibles in an invariant subspace.

    They come from the character of s.  The basis is in RREF, so the
    coordinate of act(p, b_i) along b_i is its entry in the pivot column
    of b_i, and chi(p) sums those entries (times the denominator, on the
    integer rows).  The class sizes of Id, the transpositions and the
    3-cycles are 1, 3 and 2.
    """
    check_invariant(s, act)
    pivots, den = s.pivot_columns(), s.denominator

    def chi(p: Perm3) -> int:
        n = sum(act(p, b)[i] for b, i in zip(s.rows, pivots))
        if n % den:
            raise ValueError(f"character value {Fraction(n, den)} on "
                             f"{p.name} is not an integer")
        return n // den

    e, t, c = s.dim, chi(T12), chi(C1)
    sixfold = (e + 3 * t + 2 * c, e - 3 * t + 2 * c, 2 * e - 2 * c)
    if any(n % 6 or n < 0 for n in sixfold):
        raise ValueError(
            f"character ({e}, {t}, {c}) on (Id, t12, c1) is not a "
            f"character of the symmetric group"
        )
    return IsotypicProfile(*(n // 6 for n in sixfold))


def minimal_generator_count(profile: IsotypicProfile) -> int:
    """Minimal number of module generators over the semisimple group algebra."""
    return max(profile.m_triv, profile.m_sgn, -(-profile.m_std // 2))
