"""Exact rational dense linear algebra for small ambient spaces.

Everything is built on `fractions.Fraction`, so no computation ever rounds.
Subspaces are kept in reduced row-echelon form, which makes subspace
equality plain value equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


def vec(entries: Iterable) -> Vector:
    """Coerce an iterable of ints/strings/Fractions to an exact vector."""
    return tuple(Fraction(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


def rref(rows: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Reduced row-echelon form; returns the nonzero rows (pivot entries 1)."""
    m = [list(Fraction(e) for e in row) for row in rows]
    if not m:
        return []
    ncols = len(m[0])
    for row in m:
        if len(row) != ncols:
            raise ValueError("dimension mismatch among input vectors")
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, len(m)):
            if m[r][col] != 0:
                pr = r
                break
        if pr is None:
            continue
        m[pivot_row], m[pr] = m[pr], m[pivot_row]
        inv = 1 / m[pivot_row][col]
        m[pivot_row] = [e * inv for e in m[pivot_row]]
        for r in range(len(m)):
            if r != pivot_row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[pivot_row])]
        pivot_row += 1
        if pivot_row == len(m):
            break
    return [tuple(row) for row in m[:pivot_row] if any(e != 0 for e in row)]


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n, stored by its canonical RREF basis.

    Two Subspace values are equal as spaces iff they are equal as values.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __contains__(self, v) -> bool:
        return self.contains(vec(v))

    def contains(self, v: Vector) -> bool:
        return is_zero(self.reduce(v))

    def reduce(self, v: Vector) -> Vector:
        """Canonical representative of v modulo this subspace."""
        if len(v) != self.ambient_dim:
            raise ValueError(
                f"dimension mismatch: vector has length {len(v)}, "
                f"ambient is {self.ambient_dim}"
            )
        w = list(v)
        for row in self.basis:
            p = _pivot(row)
            if w[p] != 0:
                f = w[p]
                w = [a - f * b for a, b in zip(w, row)]
        return tuple(w)

    def pivot_columns(self) -> tuple[int, ...]:
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
    vs = [vec(v) for v in vectors]
    for v in vs:
        if len(v) != ambient_dim:
            raise ValueError(
                f"dimension mismatch: vector has length {len(v)}, "
                f"ambient is {ambient_dim}"
            )
    return Subspace(ambient_dim, tuple(rref(vs)))


def full_space(ambient_dim: int) -> Subspace:
    eye = [
        tuple(Fraction(1 if i == j else 0) for j in range(ambient_dim))
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
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, p in zip(row_space.basis, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return span(basis, n)
