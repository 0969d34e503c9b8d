from fractions import Fraction

from hypothesis import strategies as st

from operad_forge.group_module import PERMS, GroupVector
from operad_forge.weight_spaces import (
    ANTICOMMUTATIVE,
    COMB_PAIRS,
    COMMUTATIVE,
    LEFT,
    MONOMIALS,
    REGULAR,
    Weight3Element,
)


def rationals(max_num=9, max_den=5):
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def perms():
    return st.sampled_from(PERMS)


def group_vectors():
    return st.builds(
        lambda cs: GroupVector(tuple(cs)),
        st.lists(rationals(), min_size=6, max_size=6),
    )


def weight_elements(symmetry=REGULAR):
    return st.builds(
        lambda cs: Weight3Element(symmetry, tuple(cs)),
        st.lists(rationals(), min_size=symmetry.dim, max_size=symmetry.dim),
    )


def any_symmetry():
    return st.sampled_from([REGULAR, COMMUTATIVE, ANTICOMMUTATIVE])


def reference_project(x, target):
    """`project` before PROJECTION: rewrite comb pairs monomial by monomial."""
    if target is REGULAR:
        return x
    coords = [Fraction(0)] * 3
    for m in MONOMIALS:
        c = x.coords[m.index]
        if c == 0:
            continue
        i, j, k = m.labels
        if m.shape == LEFT:
            pair, sign = (i, j), 1
        else:
            pair, sign = (j, k), -1
        idx = next(n for n, q in enumerate(COMB_PAIRS) if set(q) == set(pair))
        if target is ANTICOMMUTATIVE:
            if pair != COMB_PAIRS[idx]:
                sign = -sign
            coords[idx] += c * sign
        else:
            coords[idx] += c
    return Weight3Element(target, tuple(coords))
