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


def _limb_counts(monkeypatch) -> list:
    """Record the limb count of every factor the kernel splits."""
    counts = []
    honest = kernels._limbs

    def limbs(coef, top, width, count):
        counts.append(count)
        return honest(coef, top, width, count)

    monkeypatch.setattr(kernels, "_limbs", limbs)
    return counts


def _one_limb(top_a, top_b, size_a, size_b) -> bool:
    return top_a * top_b * min(size_a, size_b) < 2**53


def _cases(n, size_a, size_b, top_a, top_b, trials, rng):
    """Seeded (idx_a, coef_a, idx_b, coef_b) with max|a| = top_a and
    max|b| = top_b; the first case puts every coefficient at its maximum,
    so every partial sum is at its largest magnitude, and an entry of the
    product reaches top_a * top_b * min(size_a, size_b) when the larger
    support is all of B_n."""
    order = get_group(n).order
    for trial in range(trials):
        idx_a = rng.sample(range(order), size_a)
        idx_b = rng.sample(range(order), size_b)
        if trial == 0:
            coef_a, coef_b = [top_a] * size_a, [top_b] * size_b
        else:
            coef_a = [rng.randint(-top_a, top_a) for _ in idx_a]
            coef_b = [rng.randint(-top_b, top_b) for _ in idx_b]
            coef_a[0], coef_b[0] = top_a, -top_b
        yield idx_a, coef_a, idx_b, coef_b


# The kernel contracts over the smaller support, so cases with
# size_b < size_a and with size_a <= size_b run its two branches.  It takes
# one float64 limb per factor exactly while bound^2 * min(size_a, size_b)
# < 2^53: 759250124 at n = 2 and 2^40 at n = 4 are past that and run on
# limbs.
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
    counts = _limb_counts(monkeypatch)
    for idx_a, coef_a, idx_b, coef_b in _cases(n, size_a, size_b, bound, bound, 3, rng):
        expected = _definitional_convolution(group, idx_a, coef_a, idx_b, coef_b)
        assert kernels.convolve_dense(group, idx_a, coef_a, idx_b, coef_b).tolist() == expected
    assert len(counts) == 6
    assert (max(counts) == 1) == _one_limb(bound, bound, size_a, size_b)


# max|a| * max|b| * m around 2^53, on both branches: 2^53 - 1 =
# 441650591 * 20394401 (m = 1), 8 * (2^25 - 1)(2^25 + 1) = 2^53 - 8 and
# 8 * 2^25 * 2^25 = 2^53 (m = 8, reached by the all-maximal case), and a
# pair whose product 2^52 - 2^27 + 1 is below 2^53 while m = 384 takes the
# bound far past it.
@pytest.mark.parametrize(
    "size_a, size_b, top_a, top_b",
    [
        (1, 384, 441650591, 20394401),
        (384, 1, 20394401, 441650591),
        (1, 384, 2**27, 2**26),
        (384, 1, 2**26, 2**27),
        (8, 384, 2**25 - 1, 2**25 + 1),
        (384, 8, 2**25 + 1, 2**25 - 1),
        (8, 384, 2**25, 2**25),
        (384, 8, 2**25, 2**25),
        (384, 384, 2**26 - 1, 2**26 - 1),
    ],
)
def test_convolve_dense_at_the_float64_edge(monkeypatch, size_a, size_b, top_a, top_b):
    group = get_group(4)
    counts = _limb_counts(monkeypatch)
    rng = random.Random(top_a + size_a)
    for idx_a, coef_a, idx_b, coef_b in _cases(4, size_a, size_b, top_a, top_b, 2, rng):
        expected = _definitional_convolution(group, idx_a, coef_a, idx_b, coef_b)
        assert kernels.convolve_dense(group, idx_a, coef_a, idx_b, coef_b).tolist() == expected
    assert (max(counts) == 1) == _one_limb(top_a, top_b, size_a, size_b)


# Coefficients past 2^62 and past 2^100 (three and more limbs), with the
# limb edges -2^w and -2^(2w) among them, at n = 4 and n = 1.
@pytest.mark.parametrize(
    "n, size_a, size_b, bits",
    [
        (4, 20, 384, 63),
        (4, 384, 20, 63),
        (4, 384, 384, 101),
        (4, 3, 200, 101),
        (4, 200, 3, 101),
        (1, 1, 2, 63),
        (1, 2, 1, 101),
        (1, 2, 2, 101),
    ],
)
def test_convolve_dense_on_limbs_past_int64(monkeypatch, n, size_a, size_b, bits):
    group = get_group(n)
    counts = _limb_counts(monkeypatch)
    rng = random.Random(bits + size_a)
    width = (53 - min(size_a, size_b).bit_length()) // 2
    top = 2**bits - 1  # every limb full in the all-maximal case
    for trial, (idx_a, coef_a, idx_b, coef_b) in enumerate(
        _cases(n, size_a, size_b, top, top, 3, rng)
    ):
        if trial == 1:
            coef_a[-1], coef_b[-1] = -(2**width), -(2 ** (2 * width))
        if trial == 2 and size_a > 1:
            coef_a[1] = -(2 ** (2 * width))
        expected = _definitional_convolution(group, idx_a, coef_a, idx_b, coef_b)
        assert kernels.convolve_dense(group, idx_a, coef_a, idx_b, coef_b).tolist() == expected
    assert min(counts) > 1 and max(counts) >= 3


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

