"""Weight-3 monomial spaces for a single binary operation.

For an operation with no symmetry the space is 12-dimensional, with basis
monomials (x_i*x_j)*x_k (Left shape) and x_i*(x_j*x_k) (Right shape) over
the six arrangements of (1,2,3).  For a commutative or anticommutative
operation the space collapses to the 3-dimensional comb basis
m1 = (x1*x2)*x3, m2 = (x2*x3)*x1, m3 = (x3*x1)*x2, indexed by the
unordered inner pair.  The projection onto a class is one signed table,
PROJECTION, built at import; project, the action tables and the tensor
expansion all read it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .foundation import ZERO, Vector, zero_vector
from .group_module import PERMS, GroupVector, Perm3


class SymmetryClass(enum.Enum):
    REGULAR = "regular"
    COMMUTATIVE = "comm"
    ANTICOMMUTATIVE = "anticomm"

    @property
    def dim(self) -> int:
        return 12 if self is SymmetryClass.REGULAR else 3


REGULAR = SymmetryClass.REGULAR
COMMUTATIVE = SymmetryClass.COMMUTATIVE
ANTICOMMUTATIVE = SymmetryClass.ANTICOMMUTATIVE

ARRANGEMENTS: tuple[tuple[int, int, int], ...] = (
    (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
)
ARRANGEMENT_INDEX = {a: i for i, a in enumerate(ARRANGEMENTS)}

LEFT = "L"
RIGHT = "R"


@dataclass(frozen=True)
class Monomial3:
    """One of the 12 weight-3 monomials of the regular class."""

    shape: str  # LEFT: (x_i*x_j)*x_k, RIGHT: x_i*(x_j*x_k)
    labels: tuple[int, int, int]

    @property
    def index(self) -> int:
        base = 0 if self.shape == LEFT else 6
        return base + ARRANGEMENT_INDEX[self.labels]

    def __str__(self):
        i, j, k = self.labels
        if self.shape == LEFT:
            return f"(x{i}*x{j})*x{k}"
        return f"x{i}*(x{j}*x{k})"


MONOMIALS: tuple[Monomial3, ...] = tuple(
    Monomial3(shape, arr) for shape in (LEFT, RIGHT) for arr in ARRANGEMENTS
)

# Comb basis: m_p stands for the class of (x_i*x_j)*x_k with ordered inner
# pair as written below; the order matters for the anticommutative signs.
COMB_PAIRS: tuple[tuple[int, int], ...] = ((1, 2), (2, 3), (3, 1))
COMB_BY_SET = {frozenset(p): i for i, p in enumerate(COMB_PAIRS)}
COMB_NAMES = ("m1", "m2", "m3")
# m_p lifts to the Left-shape monomial with inner pair COMB_PAIRS[p].
COMB_LIFTS: tuple[Monomial3, ...] = tuple(
    Monomial3(LEFT, (i, j, 6 - i - j)) for i, j in COMB_PAIRS
)


@dataclass(frozen=True)
class Weight3Element:
    """A rational vector over the monomial basis of one symmetry class."""

    symmetry: SymmetryClass
    coords: Vector

    def __post_init__(self):
        if len(self.coords) != self.symmetry.dim:
            raise ValueError(
                f"{self.symmetry.value} element needs {self.symmetry.dim} "
                f"coordinates, got {len(self.coords)}"
            )

    @classmethod
    def zero(cls, symmetry: SymmetryClass) -> "Weight3Element":
        return cls(symmetry, zero_vector(symmetry.dim))

    @classmethod
    def monomial(cls, shape: str, labels, coeff=1) -> "Weight3Element":
        m = Monomial3(shape, tuple(labels))
        coords = [Fraction(0)] * 12
        coords[m.index] = Fraction(coeff)
        return cls(REGULAR, tuple(coords))

    def _check_same(self, other: "Weight3Element"):
        if self.symmetry is not other.symmetry:
            raise ValueError("mixed symmetry classes")

    def __add__(self, other: "Weight3Element") -> "Weight3Element":
        self._check_same(other)
        return Weight3Element(
            self.symmetry, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "Weight3Element") -> "Weight3Element":
        self._check_same(other)
        return Weight3Element(
            self.symmetry, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "Weight3Element":
        return Weight3Element(self.symmetry, tuple(-a for a in self.coords))

    def scaled(self, c) -> "Weight3Element":
        c = Fraction(c)
        return Weight3Element(self.symmetry, tuple(c * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def __str__(self):
        from .relation_dsl import format_weight3

        return format_weight3(self)


def comb_in(symmetry: SymmetryClass, p: int, coeff=1) -> Weight3Element:
    if symmetry is REGULAR:
        raise ValueError("comb basis lives in the symmetric classes")
    coords = [Fraction(0)] * 3
    coords[p - 1] = Fraction(coeff)
    return Weight3Element(symmetry, tuple(coords))


def act_monomial(sigma: Perm3, m: Monomial3) -> Monomial3:
    """sigma((x_i*x_j)*x_k) relabels each leaf l to sigma^{-1}(l)."""
    inv = sigma.inverse()
    return Monomial3(m.shape, tuple(inv(l) for l in m.labels))


def act(sigma: Perm3, x: Weight3Element) -> Weight3Element:
    """Linear extension of the leaf-relabelling action, by table lookup."""
    return Weight3Element(x.symmetry, act_vector(x.symmetry, sigma, x.coords))


def act_vector(symmetry: SymmetryClass, sigma: Perm3, v: Vector) -> Vector:
    """The coordinates of act(sigma, x) for x with coordinates v."""
    return tuple(v[i] if s > 0 else -v[i]
                 for i, s in ACTION_TABLE[symmetry, sigma])


def lift(x: Weight3Element) -> Weight3Element:
    """Canonical Left-shape lift of a symmetric-class element."""
    if x.symmetry is REGULAR:
        return x
    coords = [Fraction(0)] * 12
    for m, c in zip(COMB_LIFTS, x.coords):
        coords[m.index] = c
    return Weight3Element(REGULAR, tuple(coords))


def _comb_coordinate(m: Monomial3, target: SymmetryClass) -> tuple[int, int]:
    """(comb coordinate, sign) of the monomial m in a symmetric quotient.

    Commutative: the inner pair is unordered and x_i*(x_j*x_k) = (x_j*x_k)*x_i.
    Anticommutative: (a*b) = -(b*a) and c*(a*b) = -(a*b)*c, so each rewrite
    step contributes a sign.
    """
    i, j, k = m.labels
    pair, sign = ((i, j), 1) if m.shape == LEFT else ((j, k), -1)
    p = COMB_BY_SET[frozenset(pair)]
    if target is COMMUTATIVE:
        return p, 1
    return p, sign if pair == COMB_PAIRS[p] else -sign


# PROJECTION[symmetry][n] is the signed coordinate of MONOMIALS[n] in that
# class: the identity for REGULAR, the comb rewriting otherwise.
PROJECTION = {
    symmetry: tuple((m.index, 1) if symmetry is REGULAR
                    else _comb_coordinate(m, symmetry) for m in MONOMIALS)
    for symmetry in SymmetryClass
}


def project(x: Weight3Element, target: SymmetryClass) -> Weight3Element:
    """The image of a regular element in a symmetry class, by PROJECTION."""
    if x.symmetry is not REGULAR:
        raise ValueError("project expects a regular-class element")
    coords = [ZERO] * target.dim
    for (p, s), c in zip(PROJECTION[target], x.coords):
        if c:
            coords[p] += c if s > 0 else -c
    return Weight3Element(target, tuple(coords))


def _action_table(symmetry: SymmetryClass,
                  sigma: Perm3) -> tuple[tuple[int, int], ...]:
    """(source index, sign) for each coordinate of sigma applied to x.

    sigma sends each basis vector to a signed basis vector: relabel its
    monomial (the canonical lift in a symmetric class) and project back.
    The projection is equivariant, so this is a genuine group action.
    """
    table: list = [None] * symmetry.dim
    for i, m in enumerate(MONOMIALS if symmetry is REGULAR else COMB_LIFTS):
        j, s = PROJECTION[symmetry][act_monomial(sigma, m).index]
        table[j] = (i, s)
    return tuple(table)


ACTION_TABLE = {(symmetry, sigma): _action_table(symmetry, sigma)
                for symmetry in SymmetryClass for sigma in PERMS}


# PSI_INDEX[side][n] is the monomial index of PERMS[n] applied to the
# identity-label monomial of that shape.
PSI_INDEX = {side: tuple(act_monomial(sigma, Monomial3(side, (1, 2, 3))).index
                         for sigma in PERMS)
             for side in (LEFT, RIGHT)}


def psi(v: GroupVector, side: str) -> Weight3Element:
    """The one-shape translation maps applied to the identity-label monomial."""
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
    coords = [ZERO] * 12
    for i, c in zip(PSI_INDEX[side], v.coeffs):
        coords[i] = c
    return Weight3Element(REGULAR, tuple(coords))


def decompose_LR(x: Weight3Element) -> tuple[GroupVector, GroupVector]:
    """The unique (v, w) with x = psi(v, L) - psi(w, R)."""
    if x.symmetry is not REGULAR:
        raise ValueError(
            "symmetric class requires explicit presentation; "
            "decompose_LR is only defined on the regular class"
        )
    return (GroupVector(tuple(x.coords[i] for i in PSI_INDEX[LEFT])),
            GroupVector(tuple(-x.coords[i] for i in PSI_INDEX[RIGHT])))


ASSOCIATOR = (
    Weight3Element.monomial(LEFT, (1, 2, 3))
    - Weight3Element.monomial(RIGHT, (1, 2, 3))
)


def associator(labels) -> Weight3Element:
    """(x_a*x_b)*x_c - x_a*(x_b*x_c) for an arrangement (a, b, c)."""
    labels = tuple(labels)
    return Weight3Element.monomial(LEFT, labels) - Weight3Element.monomial(
        RIGHT, labels
    )
