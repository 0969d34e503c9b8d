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
