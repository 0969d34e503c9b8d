import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from hypothesis import strategies as st

from operad_forge import algebra_instances
from operad_forge.algebra_instances import AlgebraInstance, Violation
from operad_forge.foundation import full_space, kernel, span
from operad_forge.group_module import PERMS, GroupVector
from operad_forge.operad_calculus import RelationModule
from operad_forge.tensor_closure import PAIR_KEYS, SWAP, apply_node_swaps
from operad_forge.weight_spaces import (
    ACTION_TABLE,
    ANTICOMMUTATIVE,
    COMB_PAIRS,
    COMMUTATIVE,
    LEFT,
    MONOMIALS,
    PROJECTION,
    REGULAR,
    RIGHT,
    Weight3Element,
    act_vector,
)

ASSOCIATOR = (
    Weight3Element.monomial(LEFT, (1, 2, 3))
    - Weight3Element.monomial(RIGHT, (1, 2, 3))
)


def example_names():
    """The names of the instance catalog, sorted."""
    return sorted(algebra_instances._CATALOG)


def example(name):
    """The instance catalog's algebra of that name."""
    if name not in algebra_instances._CATALOG:
        raise ValueError(f"unknown example name: {name!r}")
    return algebra_instances._CATALOG[name]


def act(sigma, x):
    """sigma applied to a weight-3 element, through `act_vector`."""
    return Weight3Element(x.symmetry, act_vector(x.symmetry, sigma, x.coords))


def intersection(s, t):
    """S ∩ T = (S^⊥ + T^⊥)^⊥."""
    return kernel(span(kernel(s).basis + kernel(t).basis, s.ambient_dim))


def full_module(symmetry):
    return RelationModule(symmetry, full_space(symmetry.dim))


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


# --- the closure path before the bilinear normal form -----------------------


@dataclass(frozen=True)
class TensorElement3:
    """An element of (weight-3 space of A) (x) (weight-3 space of B)."""

    sym_a: object
    sym_b: object
    coords: tuple  # matrix, rows indexed by A-side monomials


@cache
def reference_expand(relation, product, sym_a=REGULAR, sym_b=REGULAR):
    """The expansion of a regular template as a dense matrix: each swapped
    pair of monomials lands on its signed coordinates through PROJECTION.
    Cached: a TensorElement3 is immutable, and the differential tests
    reduce one expansion against many modules."""
    if relation.symmetry is not REGULAR:
        raise ValueError("expansion templates live in the regular class")
    proj_a, proj_b = PROJECTION[sym_a], PROJECTION[sym_b]
    # (A root swap, A inner swap, B root swap, B inner swap, coefficient)
    swaps = [(s_r == SWAP, s_i == SWAP, t_r == SWAP, t_i == SWAP, a_r * a_i)
             for (s_r, t_r), a_r in zip(PAIR_KEYS, product.coeffs) if a_r
             for (s_i, t_i), a_i in zip(PAIR_KEYS, product.coeffs) if a_i]
    out = [[Fraction(0)] * sym_b.dim for _ in range(sym_a.dim)]
    for m in MONOMIALS:
        c = relation.coords[m.index]
        if c == 0:
            continue
        for root_a, inner_a, root_b, inner_b, a in swaps:
            ia, sa = proj_a[apply_node_swaps(m, root_a, inner_a).index]
            ib, sb = proj_b[apply_node_swaps(m, root_b, inner_b).index]
            out[ia][ib] += c * a if sa == sb else -c * a
    return TensorElement3(sym_a, sym_b, tuple(tuple(row) for row in out))


def reference_act_tensor(sigma, t):
    """The diagonal (sigma, sigma) action on both tensor factors."""
    table_b = ACTION_TABLE[t.sym_b, sigma]
    return TensorElement3(t.sym_a, t.sym_b, tuple(
        tuple(sa * sb * t.coords[ia][ib] for ib, sb in table_b)
        for ia, sa in ACTION_TABLE[t.sym_a, sigma]
    ))


def reference_membership(t, r_a, r_b):
    """Residuals of t modulo R_A (x) Gamma_B + Gamma_A (x) R_B: each B-side
    column reduced modulo R_A, then each surviving coset row modulo R_B."""
    if r_a.symmetry is not t.sym_a or r_b.symmetry is not t.sym_b:
        raise ValueError("relation modules do not match the expansion classes")
    columns = [r_a.space.reduce(column) for column in zip(*t.coords)]
    residuals = []
    for i in r_a.space.complement_columns():
        res = r_b.space.reduce(tuple(column[i] for column in columns))
        if any(res):
            residuals.append((i, res))
    return tuple(residuals)


def reference_closure(r_a, r_b, product, targets):
    """The residual tuple of each target, by expansion and then membership."""
    return [reference_membership(
        reference_expand(tgt, product, r_a.symmetry, r_b.symmetry), r_a, r_b)
        for tgt in targets]


# --- the dense instance evaluator before the shared monomial table ----------


def _dense_product(alg, u, v):
    """u * v in A, from dense coordinate vectors."""
    out = [Fraction(0)] * alg.dim
    for i in range(alg.dim):
        if u[i] == 0:
            continue
        for j in range(alg.dim):
            if v[j] == 0:
                continue
            c = alg.structure[i][j]
            f = u[i] * v[j]
            for k in range(alg.dim):
                if c[k] != 0:
                    out[k] += f * c[k]
    return tuple(out)


def _dense_monomial(alg, m, triple):
    i, j, k = m.labels
    xi, xj, xk = triple[i - 1], triple[j - 1], triple[k - 1]
    if m.shape == LEFT:
        return _dense_product(alg, _dense_product(alg, xi, xj), xk)
    return _dense_product(alg, xi, _dense_product(alg, xj, xk))


def reference_violations(alg, relations):
    """Every regular relation evaluated on every ordered basis triple by
    dense products, relation by relation, as a list of Violations."""
    basis = [tuple(Fraction(1 if j == i else 0) for j in range(alg.dim))
             for i in range(alg.dim)]
    out = []
    for x in relations:
        support = [m for m in MONOMIALS if x.coords[m.index] != 0]
        for triple_idx in itertools.product(range(alg.dim), repeat=3):
            triple = [basis[t] for t in triple_idx]
            total = [Fraction(0)] * alg.dim
            for m in support:
                val = _dense_monomial(alg, m, triple)
                c = x.coords[m.index]
                for k in range(alg.dim):
                    if val[k] != 0:
                        total[k] += c * val[k]
            if any(v != 0 for v in total):
                out.append(Violation(x, tuple(t + 1 for t in triple_idx),
                                     tuple(total)))
    return out


def reference_tensor_instance(a, b, product):
    """Structure constants of A (x) B over all n^6 index combinations."""
    n = a.dim * b.dim
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, p in itertools.product(range(a.dim), range(b.dim)):
        for j, q in itertools.product(range(a.dim), range(b.dim)):
            row = i * b.dim + p
            col = j * b.dim + q
            for s, t in PAIR_KEYS:
                alpha = product[(s, t)]
                if alpha == 0:
                    continue
                ii, jj = (j, i) if s == SWAP else (i, j)
                pp, qq = (q, p) if t == SWAP else (p, q)
                ca = a.structure[ii][jj]
                cb = b.structure[pp][qq]
                for k in range(a.dim):
                    if ca[k] == 0:
                        continue
                    for r in range(b.dim):
                        if cb[r] == 0:
                            continue
                        c[row][col][k * b.dim + r] += alpha * ca[k] * cb[r]
    return AlgebraInstance(n, tuple(tuple(tuple(v) for v in row) for row in c))
