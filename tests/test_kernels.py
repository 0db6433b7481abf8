import random
from fractions import Fraction

import pytest

from hyperoct import kernels
from hyperoct.algebra import AlgebraElement
from hyperoct.groupdata import get_group
from hyperoct.permutations import compose, inverse


def test_group_table_consistency():
    group = get_group(2)
    for i, g in enumerate(group.elements):
        assert group.elements[group.inv[i]] == inverse(g)
        for j, h in enumerate(group.elements):
            assert group.elements[group.table[i, j]] == compose(g, h)


def test_conjugates_column():
    group = get_group(2)
    for gi in range(group.order):
        conj = group.conjugates(gi)
        for xi in range(group.order):
            x = group.elements[xi]
            expected = compose(compose(x, group.elements[gi]), inverse(x))
            assert group.elements[conj[xi]] == expected


def _definitional_convolution(group, idx_a, coef_a, idx_b, coef_b):
    out = [0] * group.order
    for ia, ca in zip(idx_a, coef_a):
        for ib, cb in zip(idx_b, coef_b):
            out[group.index[compose(group.elements[ia], group.elements[ib])]] += ca * cb
    return out


@pytest.mark.parametrize(
    "n, size_a, size_b, bound",
    [
        (2, 3, 8, 50),
        (3, 7, 9, 50),
        (3, 48, 48, 5),
        (4, 20, 30, 50),
        (4, 384, 3, 2**40),  # max|a| * max|b| * |B_4| = 384 * 2^80 >= 2^62
    ],
)
def test_convolve_dense_matches_double_sum(n, size_a, size_b, bound):
    rng = random.Random(1000 * n + size_a)
    group = get_group(n)
    for _ in range(3):
        idx_a = rng.sample(range(group.order), size_a)
        idx_b = rng.sample(range(group.order), size_b)
        coef_a = [rng.randint(-bound, bound) for _ in idx_a]
        coef_b = [rng.randint(-bound, bound) for _ in idx_b]
        coef_a[0], coef_b[0] = bound, -bound
        expected = _definitional_convolution(group, idx_a, coef_a, idx_b, coef_b)
        assert kernels.convolve_dense(group, idx_a, coef_a, idx_b, coef_b) == expected


def test_convolution_matches_definition():
    group = get_group(2)
    rng = random.Random(777)
    a = AlgebraElement(
        2, {g: Fraction(rng.randint(-3, 3), 2) for g in rng.sample(list(group.elements), 4)}
    )
    b = AlgebraElement(
        2, {g: Fraction(rng.randint(-3, 3), 3) for g in rng.sample(list(group.elements), 5)}
    )
    expected: dict = {}
    for g, cg in a.coeffs.items():
        for h, ch in b.coeffs.items():
            k = compose(g, h)
            expected[k] = expected.get(k, Fraction(0)) + cg * ch
    expected = {k: v for k, v in expected.items() if v}
    assert (a * b).coeffs == expected

