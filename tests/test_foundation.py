import random
from fractions import Fraction

import pytest

from operad_forge.foundation import (
    Subspace,
    combine,
    full_space,
    is_zero,
    kernel,
    rref,
    span,
    vec,
    zero_vector,
)


def test_vec_coerces_mixed_inputs():
    assert vec([1, "2/3", Fraction(1, 4)]) == (
        Fraction(1), Fraction(2, 3), Fraction(1, 4),
    )


def test_vector_arithmetic():
    assert zero_vector(3) == vec([0, 0, 0])
    assert is_zero(zero_vector(3))
    assert not is_zero(vec([0, 0, "1/2"]))


def test_vector_dimension_mismatch():
    s = span([[1, 0]], 2)
    with pytest.raises(ValueError):
        s.reduce(vec([1]))
    with pytest.raises(ValueError):
        s.contains(vec([1, 0, 0]))
    with pytest.raises(ValueError):
        rref([vec([1, 0]), vec([1])])


def test_rref_canonical_form():
    rows = rref([vec([2, 4, 6]), vec([1, 2, 3]), vec([0, 1, 1])])
    # pivots are 1, entries above and below pivots are cleared
    assert rows == [vec([1, 0, 1]), vec([0, 1, 1])]


def test_rref_drops_zero_rows():
    assert rref([vec([0, 0]), vec([0, 0])]) == []


def test_span_is_order_independent():
    a = span([[1, 1, 0], [0, 1, 1]], 3)
    b = span([[0, 1, 1], [2, 2, 0], [2, 3, 1]], 3)
    assert a == b
    assert a.dim == 2


def test_contains_and_reduce():
    s = span([[1, 0, 1], [0, 1, 1]], 3)
    assert s.contains(vec([1, 1, 2]))
    assert not s.contains(vec([1, 1, 1]))
    # reduce is a canonical coset representative
    assert s.reduce(vec([1, 1, 2])) == zero_vector(3)
    assert s.reduce(vec([1, 1, 1])) == s.reduce(vec([2, 2, 3]))


def test_pivot_and_complement_columns():
    s = span([[0, 1, 5, 0], [0, 0, 0, 1]], 4)
    assert s.pivot_columns() == (1, 3)
    assert s.complement_columns() == (0, 2)


def test_is_subspace_of():
    small = span([[1, 1, 0]], 3)
    big = span([[1, 0, 0], [0, 1, 0]], 3)
    assert small.is_subspace_of(big)
    assert not big.is_subspace_of(small)


def test_full_space():
    f = full_space(4)
    assert f.dim == 4
    assert f.contains(vec([7, "1/2", -3, 0]))


def test_combine_sum_and_intersection():
    s = span([[1, 0, 0], [0, 1, 0]], 3)
    t = span([[0, 1, 0], [0, 0, 1]], 3)
    u = combine(s, t, "sum")
    i = combine(s, t, "intersection")
    assert u == full_space(3)
    assert i == span([[0, 1, 0]], 3)
    # dimension formula
    assert s.dim + t.dim == u.dim + i.dim


def test_combine_rejects_unknown_mode():
    s = span([[1, 0]], 2)
    with pytest.raises(ValueError):
        combine(s, s, "xor")


def test_span_dimension_mismatch():
    with pytest.raises(ValueError):
        span([[1, 2, 3]], 2)


def test_kernel_is_the_orthogonal_complement():
    s = span([[1, 2, 0, -1], [0, 0, 1, 3]], 4)
    k = kernel(s)
    assert k.dim == 2
    for u in k.basis:
        for v in s.basis:
            assert sum(a * b for a, b in zip(u, v)) == 0
    assert kernel(span([], 3)) == full_space(3)
    assert kernel(full_space(3)) == span([], 3)


def _reference_intersection(s: Subspace, t: Subspace) -> Subspace:
    """The augmented-RREF intersection that `combine` replaced.

    Row-reduce [reduce_T(b_i) | e_i] over the basis b of S; the rows whose
    residual part vanishes hold the combinations of b that lie in T.
    """
    n = s.ambient_dim
    if s.dim == 0 or t.dim == 0:
        return span([], n)
    aug = [
        list(t.reduce(b)) + [Fraction(1 if j == i else 0)
                             for j in range(s.dim)]
        for i, b in enumerate(s.basis)
    ]
    members = [
        [sum((c * b[k] for c, b in zip(row[n:], s.basis)), Fraction(0))
         for k in range(n)]
        for row in rref(aug) if is_zero(row[:n])
    ]
    return span(members, n)


def test_intersection_matches_augmented_rref_reference():
    rng = random.Random(20061)
    proper = 0  # cases where the intersection is neither 0 nor S or T
    for _ in range(400):
        n = rng.randint(1, 7)

        def rows(count):
            return [[rng.choice([0, 0, 1, -1, 2, "1/2"]) for _ in range(n)]
                    for _ in range(count)]

        common = rows(rng.randint(0, 2))
        s = span(common + rows(rng.randint(0, n // 2 + 1)), n)
        t = span(common + rows(rng.randint(0, n // 2 + 1)), n)
        got = combine(s, t, "intersection")
        assert got == _reference_intersection(s, t)
        proper += 0 < got.dim < min(s.dim, t.dim)
    assert proper > 50


@pytest.mark.parametrize("basis,message", [
    pytest.param([vec([1, 0])], "length 2, ambient is 3", id="length"),
    pytest.param([vec([0, 0, 0])], "zero row", id="zero-row"),
    pytest.param([vec([0, 2, 0])], "leading entry 2, not 1", id="leading"),
    pytest.param([vec([0, 1, 0]), vec([1, 0, 0])], "strictly increase",
                 id="pivot-order"),
    pytest.param([vec([1, 0, 0]), vec([1, 1, 0])], "strictly increase",
                 id="repeated-pivot"),
    pytest.param([vec([1, 3, 0]), vec([0, 1, 0])], "not reduced",
                 id="pivot-column"),
])
def test_subspace_requires_canonical_rref(basis, message):
    with pytest.raises(ValueError, match=message):
        Subspace(3, tuple(basis))


def test_subspace_accepts_canonical_rref():
    s = Subspace(3, (vec([1, 5, 0]), vec([0, 0, 1])))
    assert s == span([[1, 5, 1], [0, 0, 2]], 3)
    assert Subspace(3, ()) == span([], 3)


# The elimination kernel before it ran on integers: Fraction-per-entry
# Gauss-Jordan and the sequential reduction against the RREF basis.

def _reference_rref(rows):
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


def _reference_reduce(s, v):
    if len(v) != s.ambient_dim:
        raise ValueError("dimension mismatch")
    w = list(v)
    for row in s.basis:
        p = next(i for i, e in enumerate(row) if e != 0)
        if w[p] != 0:
            f = w[p]
            w = [a - f * b for a, b in zip(w, row)]
    return tuple(w)


# Denominators with large coprime factors, so that integer scaling and the
# gcd normalization meet numbers far beyond machine words.
DENOMINATORS = (1, 1, 1, 2, 3, 7, 10007, 65537, 2 ** 31 - 1, 999983 * 7919)


def _entry(rng):
    x = Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
    # the kernel takes ints, strings and Fractions alike
    return rng.choice([x, str(x), x.numerator if x.denominator == 1 else x])


def _rank_deficient_rows(rng, nrows, ncols):
    gens = [[_entry(rng) for _ in range(ncols)]
            for _ in range(rng.randint(0, min(nrows, ncols)))]
    rows = []
    for _ in range(nrows):
        coeffs = [rng.choice([0, 0, 1, -2, Fraction(3, 10007)])
                  for _ in gens]
        row = [sum((c * Fraction(g[j]) for c, g in zip(coeffs, gens)),
                   Fraction(0)) for j in range(ncols)]
        forms = [row, [str(e) for e in row]]
        if gens:
            forms.append(gens[0])  # ints, strings and Fractions mixed
        rows.append(rng.choice(forms))
    return rows


@pytest.mark.parametrize("ncols", [3, 6, 12])
def test_rref_and_reduce_match_fraction_reference(ncols):
    rng = random.Random(4000 + ncols)
    ranks = set()
    for _ in range(150):
        rows = _rank_deficient_rows(rng, rng.randint(0, 18), ncols)
        got = rref(rows)
        assert got == _reference_rref(rows)
        assert all(type(e) is Fraction for row in got for e in row)
        ranks.add(len(got))
        s = span(rows, ncols)
        for v in ([_entry(rng) for _ in range(ncols)],
                  [0] * ncols,
                  rows[0] if rows else [1] * ncols):
            v = vec(v)
            want = _reference_reduce(s, v)
            got = s.reduce(v)
            assert got == want
            assert all(type(e) is Fraction for e in got)
            assert s.contains(v) == is_zero(want)
            assert (v in s) == is_zero(want)
    # every rank from 0 to the full ambient dimension occurs
    assert ranks == set(range(ncols + 1))
