"""Exact rational dense linear algebra for small ambient spaces.

Every result is exact: vectors hold `fractions.Fraction` entries, and no
computation ever rounds.  The elimination itself runs on integers: each
vector is scaled by a common denominator of its entries, and rows are
cleared fraction-free and divided by the gcd of their entries.  A subspace
is stored as its integer RREF: c times the canonical reduced row-echelon
form, c the least positive integer that makes it integral.  That form is
unique, so subspace equality and hashing are plain value equality on ints;
`Subspace.basis` is the `Fraction` view, built only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import getitem, lt, mul
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)


def vec(entries: Iterable) -> Vector:
    """Coerce an iterable of ints/strings/Fractions to an exact vector."""
    return tuple(Fraction(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def integer_row(row: Sequence) -> tuple[list[int], int]:
    """(numerators, d): the int or Fraction entries of row are
    numerators[i] / d, d the least common denominator."""
    d = lcm(*[e.denominator for e in row])
    if d == 1:
        return [e.numerator for e in row], 1
    return [e.numerator * (d // e.denominator) for e in row], d


def primitive(row: Sequence) -> Optional[tuple[int, ...]]:
    """The integer row with gcd 1 and a positive leading entry that spans
    the same line as row, or None for a zero row."""
    ints, _ = integer_row(row)
    g = gcd(*ints)
    if not g:
        return None
    if next(a for a in ints if a) < 0:
        g = -g
    return tuple(a // g for a in ints)


def rref(rows: Sequence[Sequence]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(c, rows): the nonzero rows of c times the reduced row-echelon form,
    c the least positive integer that makes them integral.

    Each row is scaled to integers.  A row is cleared against the pivot row
    as p*row - f*pivot_row (p and f the two entries in the pivot column,
    divided by their gcd), and then divided by the gcd of its entries.  The
    pivot rows are then scaled to the lcm of the pivot entries, so every
    pivot entry is c, and divided by the gcd of all entries.
    """
    if not rows:
        return 1, ()
    ncols = len(rows[0])
    m = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError("dimension mismatch among input vectors")
        ints, _ = integer_row(row)
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
    c = lcm(*[m[r][col] for r, col in enumerate(pivots)])
    m = [[x * (c // row[col]) for x in row] for row, col in zip(m, pivots)]
    g = gcd(c, *[x for row in m for x in row])
    return c // g, tuple(tuple(x // g for x in row) for row in m)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n, stored as its canonical integer RREF.

    rows is denominator times the unique RREF basis over Q, and denominator
    is the least positive integer that makes it integral, so every pivot
    entry equals the denominator.  Two Subspace values are equal as spaces
    iff they are equal as values.  Construction checks the canonical form:
    the whole form is tested at once (lengths, pivots, pivot entries and
    pivot columns through builtins over the rows and their columns), and
    only a form that fails is scanned row by row to name its first fault.
    """

    ambient_dim: int
    denominator: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n, c, rows = self.ambient_dim, self.denominator, self.rows
        if c < 1:
            raise ValueError(f"denominator {c} is not positive")
        if not (all(map(n.__eq__, map(len, rows))) and all(map(any, rows))):
            for row in rows:
                if len(row) != n:
                    raise ValueError(
                        f"basis row has length {len(row)}, ambient is {n}")
                if not any(row):
                    raise ValueError("zero row has no pivot")
        pivots = tuple(row.index(next(filter(None, row))) for row in rows)
        object.__setattr__(self, "_pivots", pivots)
        r = len(rows)
        columns = list(zip(*rows))
        if not (list(map(getitem, rows, pivots)).count(c) == r
                and all(map(lt, pivots, pivots[1:]))
                and all(columns[p].count(0) == r - 1 for p in pivots)):
            self._name_form_fault()
        if gcd(c, *chain.from_iterable(rows)) != 1:
            raise ValueError(f"denominator {c} is not the least possible")

    def _name_form_fault(self):
        """Raise for the first row whose pivot entry, pivot order or pivot
        column breaks the canonical form."""
        c, pivots = self.denominator, self.pivot_columns()
        for i, (row, p) in enumerate(zip(self.rows, pivots)):
            if row[p] != c:
                raise ValueError(
                    f"basis row {i} has leading entry {row[p]}, not the "
                    f"denominator {c}")
            if i and p <= pivots[i - 1]:
                raise ValueError("basis pivots do not strictly increase")
            if any(earlier[p] for earlier in self.rows[:i]):
                raise ValueError(
                    f"basis is not reduced: pivot column {p} of row {i} "
                    f"is nonzero in an earlier row")

    @cached_property
    def basis(self) -> tuple[Vector, ...]:
        """The canonical RREF basis over Q: rows / denominator."""
        c = self.denominator
        return tuple(tuple(Fraction(a, c) for a in row) for row in self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

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
        w, d = integer_row(v)
        return self.denominator * d, self._integer_residue(w)

    def _integer_residue(self, w: Sequence[int]) -> list[tuple[int, int]]:
        """[(j, a), ...]: denominator * reduce(w)[j] = a off the pivots."""
        c = self.denominator
        at_pivots = [w[p] for p in self.pivot_columns()]
        return [(j, c * w[j] - sum(map(mul, at_pivots, column)))
                for j, column in self._columns]

    @cached_property
    def _columns(self) -> tuple:
        """Each non-pivot column j as (j, (row[j] for each row)), once."""
        return tuple((j, tuple(row[j] for row in self.rows))
                     for j in self.complement_columns())

    @cached_property
    def unit_residues(self) -> tuple[int, tuple]:
        """(c, rows), once per subspace: reduce(e_k) is a / c at j for each
        (j, a) in rows[k].  A non-pivot unit is its own residue; the unit at
        the pivot of basis row i reduces to minus the rest of that row."""
        c = self.denominator
        rows = [((k, c),) for k in range(self.ambient_dim)]
        for i, p in enumerate(self.pivot_columns()):
            rows[p] = tuple((j, -column[i]) for j, column in self._columns
                            if column[i])
        return c, tuple(rows)

    def pivot_columns(self) -> tuple[int, ...]:
        return self._pivots

    def complement_columns(self) -> tuple[int, ...]:
        """Standard coordinates spanning a complement (the non-pivot columns)."""
        pivots = set(self.pivot_columns())
        return tuple(c for c in range(self.ambient_dim) if c not in pivots)

    def is_subspace_of(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("dimension mismatch")
        c, pivots = other.denominator, other.pivot_columns()
        for row in self.rows:
            at_pivots = [row[p] for p in pivots]
            for j, column in other._columns:
                if c * row[j] != sum(map(mul, at_pivots, column)):
                    return False
        return True


def _check_lengths(vectors: list, ambient_dim: int) -> None:
    bad = next(filter(ambient_dim.__ne__, map(len, vectors)), None)
    if bad is not None:
        raise ValueError(
            f"dimension mismatch: vector has length {bad}, "
            f"ambient is {ambient_dim}"
        )


def span(vectors: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """Canonical span of a (possibly redundant) list of vectors."""
    vs = list(vectors)
    _check_lengths(vs, ambient_dim)
    return Subspace(ambient_dim, *rref(vs))


def full_space(ambient_dim: int) -> Subspace:
    eye = tuple(tuple(int(i == j) for j in range(ambient_dim))
                for i in range(ambient_dim))
    return Subspace(ambient_dim, 1, eye)


def kernel(rows: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """{x : row . x = 0 for every row}, by one elimination of the rows.

    The rows may be any spanning set, redundant, unreduced, with int or
    Fraction entries.  They are eliminated once with the columns reversed,
    so each row a_q of the result is c * e_q plus entries left of q at the
    other columns only (the pivots q are the lex-last basis of the column
    matroid).  Then c * e_f - sum_q a_q[f] * e_q, for each other column f,
    is already the canonical integer RREF of the kernel: it leads with c at
    f, vanishes at every other such column, and its entries are those of
    the a_q, whose gcd with c is 1.  The cost follows the rank r of the
    rows, not the kernel's dimension n - r.
    """
    n = ambient_dim
    vs = list(rows)
    _check_lengths(vs, n)
    c, reduced = rref([row[::-1] for row in vs])
    last = {n - 1 - row.index(c): row[::-1] for row in reduced}
    out = []
    for f in range(n):
        if f not in last:
            v = [0] * n
            v[f] = c
            for q, a in last.items():
                v[q] = -a[f]
            out.append(tuple(v))
    return Subspace(n, c, tuple(out))
