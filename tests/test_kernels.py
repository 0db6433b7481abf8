import random
from fractions import Fraction

import numpy as np
import pytest

from hyperoct import kernels
from hyperoct.algebra import AlgebraElement
from hyperoct.groupdata import class_sweep, get_group
from hyperoct.permutations import (
    class_size,
    compose,
    inverse,
    signed_partitions,
    standard_representative,
)


def test_group_table_consistency():
    for n in (2, 3):
        group = get_group(n)
        assert group.table.shape == (group.order, group.order)
        for i, g in enumerate(group.elements):
            assert group.index[g] == i
            assert group.elements[group.inv[i]] == inverse(g)
            for j, h in enumerate(group.elements):
                assert group.elements[group.table[i, j]] == compose(g, h)


def test_conjugates_column():
    # row c of class_sweep is the conjugates column of g_c: it hits each
    # element of the class of g_c exactly |C(g_c)| times, and the rows'
    # classes partition B_n (class sizes from the closed formula)
    for n in (2, 3, 4):
        order = get_group(n).order
        covered = np.zeros(order, dtype=np.intp)
        for row, lam in zip(class_sweep(n), signed_partitions(n)):
            hits = np.bincount(row, minlength=order)
            size = class_size(n, lam)
            assert np.count_nonzero(hits) == size
            assert set(hits[hits > 0]) == {order // size}
            covered += hits > 0
        assert (covered == 1).all()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_class_sweep_matches_conjugation(n):
    group = get_group(n)
    sweep = class_sweep(n)
    classes = signed_partitions(n)
    assert sweep.shape == (len(classes), group.order)
    for c, lam in enumerate(classes):
        g = standard_representative(lam)
        for xi, x in enumerate(group.elements):
            assert group.elements[sweep[c, xi]] == compose(compose(x, g), inverse(x))


def _definitional_convolution(group, idx_a, coef_a, idx_b, coef_b):
    out = [0] * group.order
    for ia, ca in zip(idx_a, coef_a):
        for ib, cb in zip(idx_b, coef_b):
            out[group.index[compose(group.elements[ia], group.elements[ib])]] += ca * cb
    return out


class _DtypeSpy:
    """numpy, recording the dtype of every dense factor the kernel allocates."""

    def __init__(self):
        self.dtypes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, dtype):
        self.dtypes.append(dtype)
        return np.zeros(shape, dtype=dtype)


# The kernel gathers along the factor with the smaller support, so cases
# with size_b <= size_a and with size_a < size_b run its two branches.  It
# stays on int64 exactly while bound^2 * |B_n| < 2^62: 759250124 is the
# largest such bound at n = 2, and 2^40 is past it at n = 4.
@pytest.mark.parametrize(
    "n, size_a, size_b, bound",
    [
        (2, 3, 8, 50),
        (3, 7, 9, 50),
        (3, 48, 48, 5),
        (4, 20, 30, 50),
        (4, 30, 20, 50),
        (4, 384, 3, 2**40),
        (4, 3, 384, 2**40),
        (2, 8, 8, 759250124),
        (2, 8, 8, 759250125),
    ],
)
def test_convolve_dense_matches_double_sum(monkeypatch, n, size_a, size_b, bound):
    rng = random.Random(1000 * n + size_a)
    group = get_group(n)
    spy = _DtypeSpy()
    monkeypatch.setattr(kernels, "np", spy)
    for trial in range(3):
        idx_a = rng.sample(range(group.order), size_a)
        idx_b = rng.sample(range(group.order), size_b)
        if trial == 0:  # every partial sum at its largest magnitude
            coef_a, coef_b = [bound] * size_a, [bound] * size_b
        else:
            coef_a = [rng.randint(-bound, bound) for _ in idx_a]
            coef_b = [rng.randint(-bound, bound) for _ in idx_b]
            coef_a[0], coef_b[0] = bound, -bound
        expected = _definitional_convolution(group, idx_a, coef_a, idx_b, coef_b)
        assert kernels.convolve_dense(group, idx_a, coef_a, idx_b, coef_b).tolist() == expected
    dtype = np.int64 if bound * bound * group.order < 2**62 else object
    assert spy.dtypes == [dtype] * 3


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

