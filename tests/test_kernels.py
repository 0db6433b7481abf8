import itertools
import random
import sys
import threading
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from hyperoct import kernels
from hyperoct.algebra import AlgebraElement
from hyperoct.groupdata import class_sweep, element_rows, get_group
from hyperoct.permutations import (
    class_size,
    compose,
    inverse,
    signed_partitions,
    standard_representative,
)
from signed_perms import all_signed_perms


def _flip(n, e):
    """t_e, the sign flip of the values in the bitmask e."""
    return tuple(-v if e >> (v - 1) & 1 else v for v in range(1, n + 1))


def test_group_table_consistency():
    # element e n! + s is t_e o s, and mul and inv agree with compose and
    # inverse on all pairs, as scalars and broadcast over index arrays
    for n in (1, 2, 3):
        group = get_group(n)
        perms = sorted(itertools.permutations(range(1, n + 1)))
        k = len(perms)
        assert group.order == len(group.index) == 2**n * k
        for e in range(2**n):
            for s, perm in enumerate(perms):
                assert group.elements[e * k + s] == compose(_flip(n, e), perm)
        everything = np.arange(group.order)
        products = group.mul(everything[:, None], everything[None, :])
        for i, g in enumerate(group.elements):
            assert group.index[g] == i
            assert group.elements[group.inv[i]] == inverse(g)
            for j, h in enumerate(group.elements):
                assert group.elements[group.mul(i, j)] == compose(g, h)
                assert products[i, j] == group.mul(i, j)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_element_rows_are_the_group_numbering(n):
    # the rows of element_rows(n) are get_group(n).elements, in order, and
    # are built without building (or caching) any group
    before = get_group.cache_info()
    rows = element_rows(n)
    assert get_group.cache_info() == before
    assert rows.dtype == np.int8 and rows.shape == (2**n * factorial(n), n)
    elements = [tuple(r) for r in rows.tolist()]
    assert sorted(elements) == sorted(all_signed_perms(n))
    assert elements == list(get_group(n).elements)


def test_conjugates_column():
    # row c of class_sweep is the conjugates column of g_c: it hits each
    # element of the class of g_c exactly |C(g_c)| times, and the rows'
    # classes partition B_n (class sizes from the closed formula)
    for n in (2, 3, 4, 6):
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


def _reference_limbs(x, width, count):
    """Limbs of the Python integers in ``x``: the low ones in [0, 2^width),
    the top one signed."""
    limbs = np.empty((count, len(x)))
    for i in range(count - 1):
        limbs[i] = x & ((1 << width) - 1)
        x = x >> width
    limbs[-1] = x
    return limbs


def _reference_convolution(group, idx_a, coef_a, idx_b, coef_b):
    """The row-gather kernel that the wreath-product kernel replaced:
    c[k] = sum_i a_i b[idx(g_i^-1 g_k)] contracted over the smaller support
    (through ab = (b* a*)* when that is b's), from rows of the Cayley table
    computed in blocks by ``group.mul`` and multiplied in float64; one limb while
    max|a| max|b| m < 2^53, limbs of floor((53 - bitlen(m)) / 2) bits past
    it, recombined on Python integers."""
    reverse = len(idx_b) < len(idx_a)
    if reverse:
        rows, small, at, big = idx_b, coef_b, group.inv[idx_a], coef_a
    else:
        rows, small, at, big = group.inv[idx_a], coef_a, idx_b, coef_b
    small, big = np.array(small, dtype=object), np.array(big, dtype=object)
    m = len(rows)
    top_small, top_big = max(map(abs, small)), max(map(abs, big))
    if top_small * top_big * m < 2**53:
        width, count_small, count_big = 0, 1, 1
    else:
        width = (53 - m.bit_length()) // 2
        count_small, count_big = (
            max(1, -(-top.bit_length() // width)) for top in (top_small, top_big)
        )
    small_limbs = _reference_limbs(small, width, count_small)
    dense = np.zeros((count_big, group.order))
    dense[:, at] = _reference_limbs(big, width, count_big)
    prod = np.zeros((count_small, count_big, group.order))
    step = max(1, 2**16 // group.order)
    for start in range(0, m, step):
        idx = group.mul(np.asarray(rows[start : start + step])[:, None], np.arange(group.order))
        for j in range(count_big):
            prod[:, j] += small_limbs[:, start : start + step].dot(dense[j][idx])
    prod = prod.astype(np.int64).astype(object)
    out = sum(
        prod[i, j] << width * (i + j) for i in range(count_small) for j in range(count_big)
    )
    return out[group.inv] if reverse else out


def _row_count(n, idx):
    """The number of S_n-rows (permutations |g|) the elements of idx span."""
    return len({i % factorial(n) for i in idx})


def _one_limb(n, coef_a, coef_b) -> bool:
    return (sum(map(abs, coef_a)) * sum(map(abs, coef_b))) << n < 2**53


def _cases(n, size_a, size_b, top_a, top_b, trials, rng):
    """Seeded (idx_a, coef_a, idx_b, coef_b) with max|a| = top_a and
    max|b| = top_b; the first case puts every coefficient at its maximum,
    so sum|a| sum|b| takes its largest value."""
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


def _check_product(n, idx_a, coef_a, idx_b, coef_b, expected):
    """The kernel's product equals ``expected``, in int64 exactly when one
    float64 limb is exact: 2^n sum|a| sum|b| < 2^53."""
    got = kernels.convolve_dense(get_group(n), idx_a, coef_a, idx_b, coef_b)
    assert got.tolist() == list(expected)
    assert (got.dtype == np.int64) == _one_limb(n, coef_a, coef_b)


# Random supports of these sizes, each size on either side.  A bound of 50
# or 5 stays on one limb; 759250124 at n = 2 and 2^40 at n = 4 run on limbs.
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
def test_convolve_dense_matches_double_sum(n, size_a, size_b, bound):
    rng = random.Random(1000 * n + size_a)
    group = get_group(n)
    for idx_a, coef_a, idx_b, coef_b in _cases(n, size_a, size_b, bound, bound, 3, rng):
        expected = _definitional_convolution(group, idx_a, coef_a, idx_b, coef_b)
        _check_product(n, idx_a, coef_a, idx_b, coef_b, expected)


# The one-limb bound 2^4 sum|a| sum|b| < 2^53 at n = 4.  It is a multiple of
# 2^4, so 2^53 - 16 is the largest value below 2^53 that it takes:
# 2^49 - 1 = 127 * 4432676798593 (one limb) against 2^49 = 2^24 * 2^25 and
# 8 * 256 * 2^19 * 2^19 (limbs), each reached by the all-maximal case, and
# with the sparser factor on either side.  A single pair of elements reaches
# the bound itself: its product has one entry 2^n |a| |b| before the
# division by 2^n.  The older cases sit at the row-gather kernel's bound
# max|a| max|b| m < 2^53 and stay as cases on both sides of the new one.
@pytest.mark.parametrize(
    "size_a, size_b, top_a, top_b",
    [
        (1, 1, 127, 4432676798593),
        (1, 1, 4432676798593, 127),
        (1, 1, 2**24, 2**25),
        (127, 1, 1, 4432676798593),
        (1, 127, 4432676798593, 1),
        (8, 256, 2**19, 2**19),
        (256, 8, 2**19, 2**19),
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
def test_convolve_dense_at_the_float64_edge(size_a, size_b, top_a, top_b):
    group = get_group(4)
    rng = random.Random(top_a + size_a)
    for idx_a, coef_a, idx_b, coef_b in _cases(4, size_a, size_b, top_a, top_b, 2, rng):
        expected = _definitional_convolution(group, idx_a, coef_a, idx_b, coef_b)
        _check_product(4, idx_a, coef_a, idx_b, coef_b, expected)


def test_the_float64_edge_is_reached_on_both_sides():
    # the all-maximal cases of the edge test, by their bound and side
    group = get_group(4)
    rng = random.Random(3)
    for size_a, size_b, top_a, top_b, bound in [
        (1, 127, 4432676798593, 1, 2**53 - 16),
        (127, 1, 1, 4432676798593, 2**53 - 16),
        (8, 256, 2**19, 2**19, 2**53),
        (256, 8, 2**19, 2**19, 2**53),
    ]:
        idx_a, coef_a, idx_b, coef_b = next(_cases(4, size_a, size_b, top_a, top_b, 1, rng))
        assert (sum(coef_a) * sum(coef_b)) << 4 == bound
        assert (_row_count(4, idx_b) < _row_count(4, idx_a)) == (size_b < size_a)
        expected = _reference_convolution(group, idx_a, coef_a, idx_b, coef_b)
        _check_product(4, idx_a, coef_a, idx_b, coef_b, expected)


def _limb_counts(monkeypatch) -> list:
    """Record the limb count of every factor the kernel splits."""
    counts = []
    honest = kernels._limbs

    def limbs(coef, top, width, count):
        counts.append(count)
        return honest(coef, top, width, count)

    monkeypatch.setattr(kernels, "_limbs", limbs)
    return counts


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
    width = (53 - ((size_a * size_b) << n).bit_length()) // 2
    top = 2**bits - 1  # every limb full in the all-maximal case
    for trial, (idx_a, coef_a, idx_b, coef_b) in enumerate(
        _cases(n, size_a, size_b, top, top, 3, rng)
    ):
        if trial == 1:
            coef_a[-1], coef_b[-1] = -(2**width), -(2 ** (2 * width))
        if trial == 2 and size_a > 1:
            coef_a[1] = -(2 ** (2 * width))
        expected = _definitional_convolution(group, idx_a, coef_a, idx_b, coef_b)
        _check_product(n, idx_a, coef_a, idx_b, coef_b, expected)
    assert min(counts) > 1 and max(counts) >= 3


def _support(rng, n, rows, per_row):
    """``per_row`` random elements in each of ``rows`` random S_n-rows."""
    k = factorial(n)
    picked = rng.sample(range(k), rows)
    return [e * k + s for s in picked for e in rng.sample(range(2**n), per_row)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_convolve_dense_matches_row_gather_reference(n):
    # sparse, mid and full supports in both orders, so either factor may
    # span fewer S_n-rows, on one limb and on several; 20 products at n = 5
    # (24 at n = 4, with 16 elements on 2 rows against 160 on 10: 2560
    # pairs, past the pair route, with the few-row factor on either side)
    rng = random.Random(12 + n)
    size, k = 2**n, factorial(n)
    shapes = [
        ((1, 1), (k, size)),
        ((min(2, k), 1), (min(3, k), min(2, size))),
        ((1, size), (k, 1)),
        ((max(1, k // 2), max(1, size // 2)), (max(1, k // 3), max(1, size // 4))),
        ((k, size), (k, size)),
    ] + ([((2, 8), (10, 16))] if n == 4 else [])
    group, sides, limbs = get_group(n), set(), set()
    for shape_a, shape_b in shapes + [(b, a) for a, b in shapes]:
        for top in (9, 2**40 if shape_a != shape_b else 2**70):
            idx_a, idx_b = _support(rng, n, *shape_a), _support(rng, n, *shape_b)
            coef_a = [rng.choice((-1, 1)) * rng.randint(1, top) for _ in idx_a]
            coef_b = [rng.choice((-1, 1)) * rng.randint(1, top) for _ in idx_b]
            expected = _reference_convolution(group, idx_a, coef_a, idx_b, coef_b)
            _check_product(n, idx_a, coef_a, idx_b, coef_b, expected)
            sides.add(_row_count(n, idx_b) < _row_count(n, idx_a))
            limbs.add(_one_limb(n, coef_a, coef_b))
    assert limbs == {True, False}
    assert sides == ({True, False} if n > 1 else {False})


def _contractions(monkeypatch) -> list:
    """Record every product that takes the contraction: it reads the plan,
    the pair route does not."""
    calls = []
    honest = kernels.plan
    monkeypatch.setattr(kernels, "plan", lambda n: calls.append(n) or honest(n))
    return calls


# 4 |B_4| = 1536 pairs is the pair route's cutoff at n = 4: 1536 = 4 x 384
# and 1535 = 5 x 307 take it, 1537 = 29 x 53 takes the contraction (over
# every row, as both supports have at least 4! elements)
@pytest.mark.parametrize(
    "size_a, size_b, pair",
    [
        (4, 384, True),
        (384, 4, True),
        (5, 307, True),
        (307, 5, True),
        (29, 53, False),
        (53, 29, False),
    ],
)
def test_the_pair_route_ends_at_its_cutoff(monkeypatch, size_a, size_b, pair):
    group = get_group(4)
    assert (size_a * size_b <= kernels.PAIR_CUTOFF * group.order) == pair
    contractions = _contractions(monkeypatch)
    rng = random.Random(size_a * size_b + size_a)
    for idx_a, coef_a, idx_b, coef_b in _cases(4, size_a, size_b, 9, 9, 2, rng):
        expected = _definitional_convolution(group, idx_a, coef_a, idx_b, coef_b)
        _check_product(4, idx_a, coef_a, idx_b, coef_b, expected)
    assert len(contractions) == (0 if pair else 2)


# On small supports the one-limb test picks the route: 2^4 |a| |b| =
# 2^53 - 16 (|a| |b| = 127 * 4432676798593) stays on the pair route in
# int64, 2^53 takes limbs on the contraction, and so do Python integers,
# however small (one limb each, so the product is int64 again)
@pytest.mark.parametrize(
    "coef_a, coef_b, pair",
    [
        ([127], [4432676798593], True),
        ([100, -27], [-4432676798593], True),
        ([2**24], [-(2**25)], False),
        ([2**23, -(2**23)], [2**24, -(2**23), 2**23], False),
        (np.array([3, -2], dtype=object), np.array([5], dtype=object), False),
        ([3], np.array([-7, 2, 1], dtype=object), False),
        ([2**70 + 1, -3], [-(2**65)], False),
    ],
)
def test_small_supports_take_the_route_of_their_bound(monkeypatch, coef_a, coef_b, pair):
    group = get_group(4)
    rng = random.Random(len(coef_a) * 10 + len(coef_b))
    idx_a = rng.sample(range(group.order), len(coef_a))
    idx_b = rng.sample(range(group.order), len(coef_b))
    contractions = _contractions(monkeypatch)
    expected = _definitional_convolution(group, idx_a, coef_a, idx_b, coef_b)
    _check_product(4, idx_a, coef_a, idx_b, coef_b, expected)
    assert (not contractions) == pair


# 1024 limbs on each side put up to 1024 products on one i + j, which sum
# in int64; 1025 put 1025 there, past int64 for products of 2^53 - 1.
# With width 1 the recombined value is (2^53 - 1)(2^count - 1)^2.
@pytest.mark.parametrize("count", [1024, 1025])
def test_limb_sums_stay_exact_past_int64(count):
    c = 2**53 - 1
    prod = np.full((count, 1, count, 1), c, dtype=np.int64)
    assert kernels._recombine(prod, 1).tolist() == [c * (2**count - 1) ** 2]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_plan_matches_the_cayley_table(n):
    group, p = get_group(n), kernels.plan(n)
    size, k = 2**n, factorial(n)
    chi = [[(-1) ** bin(e & u).count("1") for u in range(size)] for e in range(size)]
    assert p.hadamard.tolist() == chi
    assert (p.unhadamard * size == p.hadamard).all()
    assert p.flat.flags.c_contiguous  # the gather reads it in order
    # flat[u, s, r] = (u.s, s^-1 r), where chi_u(s.d) = chi_{u.s}(d) for
    # every sign mask d and s.d is the sign mask of s t_d s^-1
    twist, quotient = np.divmod(p.flat, k)
    perms = np.arange(k)  # the permutations s are the elements 0..n!-1
    left = group.mul(group.inv[perms][:, None], perms[None, :])
    assert (quotient == left[None]).all()
    masks = np.arange(size)  # t_d is the element d n!
    conj = group.mul(group.mul(perms[:, None], masks[None, :] * k), group.inv[perms][:, None])
    assert (conj % k == 0).all()
    moved = conj // k  # [s, d]
    parity = lambda x: np.bitwise_count(x) & 1  # noqa: E731
    for s in range(k):
        want = parity(masks[:, None] & moved[s][None, :])  # [u, d]
        assert (parity(twist[:, s, :, None] & masks) == want[:, None, :]).all()


def test_no_array_grows_with_the_square_of_the_group():
    # products are index arithmetic on the S_n table and the sign twist:
    # nothing held per n has |B_n|^2 entries
    n = 4
    group, p = get_group(n), kernels.plan(n)
    held = [*vars(group).values(), *p]
    arrays = [x for x in held if isinstance(x, np.ndarray)]
    assert len(arrays) == 6
    assert max(x.size for x in arrays) < group.order**2 // 8


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


def test_concurrent_products_keep_their_own_gather():
    # the kernel gathers into a buffer of the calling thread: products
    # running in more threads than cores must not read each other's gather
    # (at n = 5: one buffer shared by the threads gives wrong products
    # there, and showed none at n = 4)
    n, rounds = 5, 10
    group = get_group(n)
    rng = random.Random(41)
    inputs = [
        ([*range(group.order)], [rng.randint(-9, 9) for _ in range(group.order)])
        for _ in range(4)
    ]
    expected = [kernels.convolve_dense(group, *x, *x).tolist() for x in inputs]
    wrong = []

    def work(t):
        for _ in range(rounds):
            if kernels.convolve_dense(group, *inputs[t], *inputs[t]).tolist() != expected[t]:
                wrong.append(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(len(inputs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
