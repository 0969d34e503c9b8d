"""Exact rational dense linear algebra for small ambient spaces.

Every result is exact: vectors hold `fractions.Fraction` entries, and no
computation ever rounds.  The elimination itself runs on integers: each
vector is scaled by a common denominator of its entries, rows are cleared
fraction-free and divided by the gcd of their entries, and the results
come back as the canonical `Fraction` reduced row-echelon form.
Subspaces are kept in that form, which makes subspace equality plain value
equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(entries: Iterable) -> Vector:
    """Coerce an iterable of ints/strings/Fractions to an exact vector."""
    return tuple(Fraction(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


def _integers(row: Sequence) -> tuple[list[int], int]:
    """(numerators, d): the entries of row are numerators[i] / d.

    d is the least common denominator.  Entries that are not already an
    int or a Fraction (strings, for instance) are converted by `Fraction`.
    """
    row = [e if isinstance(e, (int, Fraction)) else Fraction(e) for e in row]
    d = lcm(*[e.denominator for e in row])
    if d == 1:
        return [e.numerator for e in row], 1
    return [e.numerator * (d // e.denominator) for e in row], d


def _pivot_row(row: list[int], col: int) -> Vector:
    """The integer row divided by its entry in the pivot column, as Fractions."""
    p = row[col]
    return tuple(ZERO if a == 0 else ONE if a == p else Fraction(a, p)
                 for a in row)


def rref(rows: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Reduced row-echelon form; returns the nonzero rows (pivot entries 1).

    Each row is scaled to integers.  A row is cleared against the pivot row
    as p*row - f*pivot_row (p and f the two entries in the pivot column,
    divided by their gcd), and then divided by the gcd of its entries.
    Only the final pivot rows are divided by their pivot entry, so the
    result is the unique RREF over Q.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    m = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError("dimension mismatch among input vectors")
        ints, _ = _integers(row)
        if any(ints):
            m.append(ints)
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pr = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        pivot_row = m[rank]
        p = pivot_row[col]
        for r, row in enumerate(m):
            f = row[col]
            if f and r != rank:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(row, pivot_row)]
                g = gcd(*row)
                m[r] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return [_pivot_row(m[r], col) for r, col in enumerate(pivots)]


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n, stored by its canonical RREF basis.

    Two Subspace values are equal as spaces iff they are equal as values.
    The basis must already be in canonical RREF; construction checks it.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    def __post_init__(self):
        n = self.ambient_dim
        for row in self.basis:
            if len(row) != n:
                raise ValueError(
                    f"basis row has length {len(row)}, ambient is {n}")
        pivots = self.pivot_columns()  # raises on a zero row
        for i, (row, p) in enumerate(zip(self.basis, pivots)):
            if row[p] != 1:
                raise ValueError(
                    f"basis row {i} has leading entry {row[p]}, not 1")
            if i and p <= pivots[i - 1]:
                raise ValueError("basis pivots do not strictly increase")
        for i, p in enumerate(pivots):
            if any(row[p] for row in self.basis[:i]):
                raise ValueError(
                    f"basis is not reduced: pivot column {p} of row {i} "
                    f"is nonzero in an earlier row")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __contains__(self, v) -> bool:
        return self.contains(v)

    def contains(self, v: Vector) -> bool:
        _, residue = self._residue(v)
        return not any(a for _, a in residue)

    def reduce(self, v: Vector) -> Vector:
        """Canonical representative of v modulo this subspace."""
        den, residue = self._residue(v)
        out = [ZERO] * self.ambient_dim
        for j, a in residue:
            if a:
                out[j] = Fraction(a, den)
        return tuple(out)

    def _residue(self, v: Vector) -> tuple[int, list[tuple[int, int]]]:
        """(den, [(j, a), ...]): reduce(v)[j] = a / den off the pivots.

        The basis is in RREF, so reduce(v) = v - sum_i v[p_i] * b_i, which
        vanishes in each pivot column p_i.
        """
        if len(v) != self.ambient_dim:
            raise ValueError(
                f"dimension mismatch: vector has length {len(v)}, "
                f"ambient is {self.ambient_dim}"
            )
        w, d = _integers(v)
        pivots, c, columns = self._integer_form
        at_pivots = [w[p] for p in pivots]
        return c * d, [(j, c * w[j] - sum(map(mul, at_pivots, column)))
                       for j, column in columns]

    @cached_property
    def _integer_form(self) -> tuple:
        """(pivots, c, columns), computed once per subspace.

        c is a common denominator of the basis, and each non-pivot column j
        appears in columns as (j, (c * b[j] for each basis row b)).
        """
        c = lcm(*[e.denominator for row in self.basis for e in row])
        return self.pivot_columns(), c, tuple(
            (j, tuple(b[j].numerator * (c // b[j].denominator)
                      for b in self.basis))
            for j in self.complement_columns()
        )

    def pivot_columns(self) -> tuple[int, ...]:
        return self._pivots

    @cached_property
    def _pivots(self) -> tuple[int, ...]:
        return tuple(_pivot(row) for row in self.basis)

    def complement_columns(self) -> tuple[int, ...]:
        """Standard coordinates spanning a complement (the non-pivot columns)."""
        pivots = set(self.pivot_columns())
        return tuple(c for c in range(self.ambient_dim) if c not in pivots)

    def is_subspace_of(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("dimension mismatch")
        return all(other.contains(b) for b in self.basis)


def _pivot(row: Vector) -> int:
    for i, e in enumerate(row):
        if e != 0:
            return i
    raise ValueError("zero row has no pivot")


def span(vectors: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """Canonical span of a (possibly redundant) list of vectors."""
    vs = list(vectors)
    for v in vs:
        if len(v) != ambient_dim:
            raise ValueError(
                f"dimension mismatch: vector has length {len(v)}, "
                f"ambient is {ambient_dim}"
            )
    return Subspace(ambient_dim, tuple(rref(vs)))


def full_space(ambient_dim: int) -> Subspace:
    eye = [
        tuple(ONE if i == j else ZERO for j in range(ambient_dim))
        for i in range(ambient_dim)
    ]
    return Subspace(ambient_dim, tuple(eye))


def combine(s: Subspace, t: Subspace, mode: str) -> Subspace:
    """Subspace sum or intersection (mode 'sum' | 'intersection')."""
    if s.ambient_dim != t.ambient_dim:
        raise ValueError("dimension mismatch")
    if mode == "sum":
        return span(list(s.basis) + list(t.basis), s.ambient_dim)
    if mode == "intersection":
        # S ∩ T = (S^⊥ + T^⊥)^⊥
        return kernel(span(kernel(s).basis + kernel(t).basis, s.ambient_dim))
    raise ValueError(f"unknown mode: {mode!r}")


def kernel(row_space: Subspace) -> Subspace:
    """Kernel of the matrix whose rows are the RREF basis of row_space."""
    n = row_space.ambient_dim
    pivots = row_space.pivot_columns()
    basis = []
    for f in row_space.complement_columns():
        v = [ZERO] * n
        v[f] = ONE
        for row, p in zip(row_space.basis, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return span(basis, n)
