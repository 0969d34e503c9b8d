import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operad_forge.foundation import (
    Subspace,
    full_space,
    kernel,
    primitive,
    rref,
    span,
    vec,
    zero_vector,
)

from conftest import DENOMINATORS, intersection, null_vectors, rationals


def test_vec_coerces_mixed_inputs():
    assert vec([1, "2/3", Fraction(1, 4)]) == (
        Fraction(1), Fraction(2, 3), Fraction(1, 4),
    )


def test_vector_arithmetic():
    assert zero_vector(3) == vec([0, 0, 0])
    assert not any(zero_vector(3))
    assert any(vec([0, 0, "1/2"]))


def test_vector_dimension_mismatch():
    s = span([[1, 0]], 2)
    with pytest.raises(ValueError):
        s.reduce(vec([1]))
    with pytest.raises(ValueError):
        s.contains(vec([1, 0, 0]))
    with pytest.raises(ValueError):
        rref([vec([1, 0]), vec([1])])


@pytest.mark.parametrize("row,want", [
    pytest.param([0, 0, 0], None, id="zero"),
    pytest.param([Fraction(0), Fraction(0)], None, id="zero-fractions"),
    pytest.param([0, -3, 1], (0, 3, -1), id="negative-lead"),
    pytest.param([4, -6, 0, 10], (2, -3, 0, 5), id="common-factor"),
    pytest.param([0, -4, 6], (0, 2, -3), id="negative-lead-and-factor"),
    pytest.param([Fraction(-1, 2), Fraction(1, 3)], (3, -2), id="fractions"),
    pytest.param(vec(["0", "2/3", "-1/6"]), (0, 4, -1), id="strings"),
    pytest.param([1, 0, -1], (1, 0, -1), id="already-primitive"),
])
def test_primitive_row(row, want):
    got = primitive(row)
    assert got == want
    if want is not None:
        assert all(type(a) is int for a in got)
        assert span([got], len(row)) == span([row], len(row))


def test_rref_canonical_form():
    rows = rref([vec([2, 4, 6]), vec([1, 2, 3]), vec([0, 1, 1])])
    # pivots are 1, entries above and below pivots are cleared
    assert rows == (1, ((1, 0, 1), (0, 1, 1)))
    # the RREF rows (1, 0, -1/6) and (0, 1, 1/3) times their least
    # common denominator
    assert rref([[2, 1, 0], [0, 3, 1]]) == (6, ((6, 0, -1), (0, 6, 2)))


def test_rref_drops_zero_rows():
    assert rref([vec([0, 0]), vec([0, 0])]) == (1, ())
    assert rref([]) == (1, ())


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
    with pytest.raises(ValueError, match="dimension mismatch"):
        small.is_subspace_of(span([[1, 0]], 2))


def _rows(n=4, max_rows=4):
    return st.lists(st.lists(rationals(), min_size=n, max_size=n),
                    max_size=max_rows)


@settings(max_examples=60, deadline=None)
@given(st.lists(_rows(), min_size=1, max_size=4),
       st.lists(rationals().filter(bool), min_size=4, max_size=4),
       st.randoms(use_true_random=False))
def test_equal_subspaces_hash_equal_and_dedupe(spanning_sets, scales, rng):
    spaces = []
    for rows in spanning_sets:
        rescaled = [[c * x for x in row] for c, row in zip(scales, rows)]
        rng.shuffle(rescaled)
        s, t = span(rows, 4), span(rescaled, 4)
        assert s == t and hash(s) == hash(t)
        assert (s.denominator, s.rows) == (t.denominator, t.rows)
        assert len({s, t}) == 1 and len({s: 1, t: 2}) == 1
        spaces += [s, t]
    assert len(set(spaces)) == len({s.basis for s in spaces})


@settings(max_examples=40, deadline=None)
@given(_rows(), st.lists(rationals(), min_size=4, max_size=4))
def test_hash_ignores_warm_caches(rows, v):
    s = span(rows, 4)
    cold = Subspace(4, s.denominator, s.rows)
    h = hash(cold)
    cold.contains(vec(v))
    cold.unit_residues
    assert hash(cold) == h
    warmed_first = Subspace(4, s.denominator, s.rows)
    warmed_first.unit_residues
    assert warmed_first.contains(vec(v)) == s.contains(vec(v))
    assert hash(warmed_first) == h


@settings(max_examples=80, deadline=None)
@given(_rows(), _rows())
def test_is_subspace_of_matches_reduce_reference(rows_a, rows_b):
    a, b = span(rows_a, 4), span(rows_b, 4)
    both = span(rows_a + rows_b, 4)
    for s, t in ((a, b), (b, a), (a, both), (both, a), (b, both), (a, a)):
        want = all(not any(t.reduce(row)) for row in s.basis)
        assert s.is_subspace_of(t) == want
    assert a.is_subspace_of(both) and b.is_subspace_of(both)


def test_full_space():
    f = full_space(4)
    assert f.dim == 4
    assert f.contains(vec([7, "1/2", -3, 0]))


def test_combine_sum_and_intersection():
    s = span([[1, 0, 0], [0, 1, 0]], 3)
    t = span([[0, 1, 0], [0, 0, 1]], 3)
    u = span(s.basis + t.basis, 3)
    i = intersection(s, t)
    assert u == full_space(3)
    assert i == span([[0, 1, 0]], 3)
    # dimension formula
    assert s.dim + t.dim == u.dim + i.dim


def test_span_dimension_mismatch():
    with pytest.raises(ValueError):
        span([[1, 2, 3]], 2)
    with pytest.raises(ValueError, match="length 3, ambient is 2"):
        kernel([[1, 2], [1, 2, 3]], 2)


def test_kernel_is_the_orthogonal_complement():
    s = span([[1, 2, 0, -1], [0, 0, 1, 3]], 4)
    k = kernel(s.rows, 4)
    assert k.dim == 2
    for u in k.basis:
        for v in s.basis:
            assert sum(a * b for a, b in zip(u, v)) == 0
    assert kernel([], 3) == full_space(3)
    assert kernel(full_space(3).rows, 3) == span([], 3)


def _reference_intersection(s: Subspace, t: Subspace) -> Subspace:
    """The augmented-RREF intersection that `intersection` replaced.

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
        for row in _reference_rref(aug) if not any(row[:n])
    ]
    return span(members, n)


def test_intersection_matches_augmented_rref_reference():
    rng = random.Random(20061)
    proper = 0  # cases where the intersection is neither 0 nor S or T
    for _ in range(400):
        n = rng.randint(1, 7)

        def rows(count):
            return [[rng.choice([0, 0, 1, -1, 2, Fraction(1, 2)])
                     for _ in range(n)]
                    for _ in range(count)]

        common = rows(rng.randint(0, 2))
        s = span(common + rows(rng.randint(0, n // 2 + 1)), n)
        t = span(common + rows(rng.randint(0, n // 2 + 1)), n)
        got = intersection(s, t)
        assert got == _reference_intersection(s, t)
        proper += 0 < got.dim < min(s.dim, t.dim)
    assert proper > 50


@pytest.mark.parametrize("denominator,rows,message", [
    pytest.param(1, [(1, 0)], "length 2, ambient is 3", id="length"),
    pytest.param(1, [(0, 0, 0)], "zero row", id="zero-row"),
    pytest.param(1, [(0, 2, 0)], "leading entry 2, not the denominator 1",
                 id="leading"),
    pytest.param(1, [(0, 1, 0), (1, 0, 0)], "strictly increase",
                 id="pivot-order"),
    pytest.param(1, [(1, 0, 0), (1, 1, 0)], "strictly increase",
                 id="repeated-pivot"),
    pytest.param(1, [(1, 3, 0), (0, 1, 0)], "not reduced",
                 id="pivot-column"),
    # 2 * (1, 2, 0): the RREF is already integral, so the least c is 1
    pytest.param(2, [(2, 4, 0)], "denominator 2 is not the least",
                 id="non-least-denominator"),
    pytest.param(0, [], "denominator 0 is not positive",
                 id="zero-denominator"),
    pytest.param(-1, [(-1, 0, 0)], "denominator -1 is not positive",
                 id="negative-denominator"),
    # several faults: the first row's first fault names the form
    pytest.param(1, [(0, 0, 0), (1, 0)], "zero row",
                 id="zero-row-before-length"),
    pytest.param(1, [(1, 3, 0), (0, 1, 0), (0, 0, 2)],
                 "pivot column 1 of row 1 is nonzero in an earlier row",
                 id="not-reduced-before-leading"),
    pytest.param(2, [(0, 2, 0), (2, 0, 0)], "strictly increase",
                 id="pivot-order-before-non-least-denominator"),
])
def test_subspace_requires_canonical_rref(denominator, rows, message):
    with pytest.raises(ValueError, match=message):
        Subspace(3, denominator, tuple(rows))


def test_subspace_accepts_canonical_rref():
    s = Subspace(3, 1, ((1, 5, 0), (0, 0, 1)))
    assert s == span([[1, 5, 1], [0, 0, 2]], 3)
    assert Subspace(3, 1, ()) == span([], 3)
    t = Subspace(3, 6, ((6, 0, -1), (0, 6, 2)))
    assert t == span([[2, 1, 0], [0, 3, 1]], 3)
    assert t.basis == (vec([1, 0, "-1/6"]), vec([0, 1, "1/3"]))


def test_subspace_accepts_exactly_the_rref_forms():
    # Small integer (c, rows) draws, half of them from rref and then
    # possibly broken in one place, so both verdicts occur often.
    rng = random.Random(2802)
    verdicts = []
    for _ in range(3000):
        n = rng.randint(1, 5)
        rows = [[rng.choice([0, 0, 0, 1, -1, 2, 3]) for _ in range(n)]
                for _ in range(rng.randint(0, n))]
        c = rng.randint(-1, 4)
        if rng.random() < 0.5:
            c, form = rref(rows)
            rows = [list(row) for row in form]
            fault = rng.randrange(6)
            if fault == 1:
                c = rng.choice([c + 1, 2 * c, c - 1])
            elif fault == 2 and rows:
                row = rng.choice(rows)
                row[rng.randrange(n)] += rng.choice([-1, 1])
            elif fault == 3 and len(rows) > 1:
                i, j = rng.sample(range(len(rows)), 2)
                rows[i], rows[j] = rows[j], rows[i]
            elif fault == 4:
                rows.insert(rng.randint(0, len(rows)), [0] * n)
            elif fault == 5 and rows:
                g = rng.choice([-1, 2])
                rows = [[g * a for a in row] for row in rows]
                c *= g
        rows = tuple(tuple(row) for row in rows)
        try:
            Subspace(n, c, rows)
            built = True
        except ValueError:
            built = False
        assert built == (rref(rows) == (c, rows)), (n, c, rows)
        verdicts.append(built)
    assert verdicts.count(True) > 600 and verdicts.count(False) > 600


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


def _entry(rng):
    x = Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
    # the kernel takes ints and Fractions alike; three choices keep the
    # seeded draws, and so the ranks each test reaches, as they are
    return rng.choice([x, x, x.numerator if x.denominator == 1 else x])


def _rank_deficient_rows(rng, nrows, ncols):
    gens = [[_entry(rng) for _ in range(ncols)]
            for _ in range(rng.randint(0, min(nrows, ncols)))]
    rows = []
    for _ in range(nrows):
        coeffs = [rng.choice([0, 0, 1, -2, Fraction(3, 10007)])
                  for _ in gens]
        row = [sum((c * Fraction(g[j]) for c, g in zip(coeffs, gens)),
                   Fraction(0)) for j in range(ncols)]
        forms = [row, list(row)]  # two forms keep the seeded draws
        if gens:
            forms.append(gens[0])  # ints and Fractions mixed
        rows.append(rng.choice(forms))
    return rows


@pytest.mark.parametrize("ncols", [3, 6, 12])
def test_rref_and_reduce_match_fraction_reference(ncols):
    rng = random.Random(4000 + ncols)
    ranks = set()
    for _ in range(150):
        rows = _rank_deficient_rows(rng, rng.randint(0, 18), ncols)
        s = span(rows, ncols)
        want = _reference_rref(rows)
        assert list(s.basis) == want
        assert all(type(e) is Fraction for row in s.basis for e in row)
        # the integer form is the RREF times its least common denominator
        assert rref(rows) == (s.denominator, s.rows)
        assert s.denominator == lcm(*[e.denominator for row in want
                                      for e in row])
        ranks.add(s.dim)
        for v in ([_entry(rng) for _ in range(ncols)],
                  [0] * ncols,
                  rows[0] if rows else [1] * ncols):
            v = vec(v)
            want = _reference_reduce(s, v)
            got = s.reduce(v)
            assert got == want
            assert all(type(e) is Fraction for e in got)
            assert s.contains(v) == (not any(want))
    # every rank from 0 to the full ambient dimension occurs
    assert ranks == set(range(ncols + 1))


@pytest.mark.parametrize("ncols", [3, 12])
def test_unit_residues_are_the_reductions_of_unit_vectors(ncols):
    rng = random.Random(5000 + ncols)
    for _ in range(60):
        s = span(_rank_deficient_rows(rng, rng.randint(0, 14), ncols), ncols)
        c, rows = s.unit_residues
        assert s.unit_residues is s.unit_residues  # computed once
        for k, unit in enumerate(full_space(ncols).basis):
            dense = [Fraction(0)] * ncols
            for j, a in rows[k]:
                assert a != 0 and j in s.complement_columns()
                dense[j] = Fraction(a, c)
            assert tuple(dense) == s.reduce(unit)


def _reference_nullspace(rows, ncols):
    """The RREF basis of {x : row . x = 0 for every row}, from the Fraction
    RREF alone, reduced once more."""
    return _reference_rref(null_vectors(_reference_rref(rows), ncols))


@pytest.mark.parametrize("ncols", range(1, 13))
def test_kernel_matches_fraction_nullspace_reference(ncols):
    rng = random.Random(6000 + ncols)
    ranks = set()
    for _ in range(120):
        rows = _rank_deficient_rows(rng, rng.randint(0, 18), ncols)
        s = span(rows, ncols)
        got = kernel(s.rows, ncols)
        want = _reference_nullspace(rows, ncols)
        assert list(got.basis) == want
        # the raw draws, unreduced and redundant, with Fraction entries
        raw = kernel(rows, ncols)
        assert raw == got
        assert list(raw.basis) == want
        # the integer form is the RREF times its least common denominator
        assert got.denominator == lcm(*[e.denominator for row in want
                                        for e in row])
        assert got.dim + s.dim == ncols
        ranks.add(s.dim)
    # every rank from 0 to the full ambient dimension occurs
    assert ranks == set(range(ncols + 1))
