"""The convolution kernel of the group algebra.

The product of a = sum a_i g_i and b = sum b_j g_j has coefficients

    c[k] = sum_i a_i * b[idx(g_i^-1 g_k)],

a gather of Cayley table rows and a matrix product.  The factors come as
supports (element indices) with integer coefficients, the numerators of
``AlgebraElement``; the result is the dense ndarray of the product's
numerators.

Row gathers only.  The contraction runs over the smaller support, of
length m.  When that is b's, the kernel uses the anti-involution
x*[i] = x[inv[i]]: ab = (b* a*)*, and b* a* contracts over the support of
b*, as small as b's, by gathering the table rows ``table[idx_b]`` from a*;
one permutation of the |B_n| results by ``inv`` undoes the *.  So every
gather reads whole, contiguous rows of the one table, where gathering
columns would be strided or need a transposed copy (0.6 MB at n = 4,
59 MB at n = 5).  The rows are gathered in blocks of at most
``GATHER_BLOCK`` entries, so no product holds a |B_n| x |B_n| gather
(118 MB at n = 5), and indexed by the int32 table rows as they are (an
intp copy of the index would add to the temporaries).

Exact through float64 BLAS (as in FFLAS, Dumas, Giorgi and Pernet, ACM
TOMS 35, 2008).  While max|a| * max|b| * m < 2^53, every partial sum is an
integer of magnitude below 2^53, which a double holds exactly, in
whatever order BLAS adds: one limb per factor, and the result in int64.
Past that bound both coefficient vectors are split into limbs of
w = floor((53 - bitlen(m)) / 2) bits (as in Ozaki, Ogita, Oishi and
Rump, Numer. Algorithms 59, 2012): x = sum_i limb_i << w*i with every
limb but the top one in [0, 2^w) and the top one in [-2^w, 2^w), so each
limb product summed over m terms stays at most m * 2^(2w) < 2^53.  Each
block gathers every limb of the dense factor once, and one matrix product
per gather takes it against all limbs of the other factor; the |B_n|
results are recombined as sum C_ij << w*(i+j) on Python integers
(dtype=object).
"""

from __future__ import annotations

import numpy as np

from .groupdata import GroupData

BACKEND = "python"
INT64_BOUND = 2**62
FLOAT64_EXACT = 2**53  # every integer of smaller magnitude is a double
GATHER_BLOCK = 2**16  # table entries gathered per block (512 KB of float64)


def max_abs(coef) -> int:
    """Largest absolute value of an integer sequence or array, 0 if empty."""
    if isinstance(coef, np.ndarray):
        return int(np.abs(coef).max(initial=0))
    return max(map(abs, coef), default=0)


def exact_dtype(bound: int):
    """int64 for integers of magnitude at most ``bound`` below
    ``INT64_BOUND``, Python integers (dtype=object) from there."""
    return np.int64 if bound < INT64_BOUND else object


def _limbs(coef, top: int, width: int, count: int) -> np.ndarray:
    """(count, len(coef)) float64 limbs of integers of magnitude at most
    ``top``: coef = sum_i limbs[i] << width*i, every row but the last in
    [0, 2^width) and the last signed."""
    x = np.asarray(coef, dtype=exact_dtype(top))
    limbs = np.empty((count, len(x)))
    mask = (1 << width) - 1
    for i in range(count - 1):
        limbs[i] = x & mask
        x = x >> width
    limbs[-1] = x
    return limbs


def convolve_dense(group: GroupData, idx_a, coef_a, idx_b, coef_b) -> np.ndarray:
    """Dense integer coefficients of the convolution product: int64 on one
    limb, Python integers (dtype=object) on several.

    >>> from hyperoct.groupdata import get_group
    >>> get_group(1).elements
    ((-1,), (1,))
    >>> x, y = 2**62 + 3, -(2**70) - 1
    >>> c = convolve_dense(get_group(1), [0, 1], [x, -x], [0], [y])
    >>> c.tolist() == [-x * y, x * y]
    True
    """
    reverse = len(idx_b) < len(idx_a)
    if reverse:  # gather from a* along the support of b, then undo the *
        rows, small, at, big = idx_b, coef_b, group.inv[idx_a], coef_a
    else:
        rows, small, at, big = group.inv[idx_a], coef_a, idx_b, coef_b
    m = len(rows)
    top_small, top_big = max_abs(small), max_abs(big)
    bound = top_small * top_big * m
    if bound < FLOAT64_EXACT:
        width, count_small, count_big = 0, 1, 1
    else:
        width = (53 - m.bit_length()) // 2
        count_small, count_big = (
            (top.bit_length() + width - 1) // width for top in (top_small, top_big)
        )
    small_limbs = _limbs(small, top_small, width, count_small)
    dense = np.zeros((count_big, group.order))
    dense[:, at] = _limbs(big, top_big, width, count_big)
    # prod[i, j] = C_ij, limb i of ``small`` against limb j of ``big``,
    # summed one block of table rows at a time; it stays exact
    prod = np.zeros((count_small, count_big, group.order))
    step = max(1, GATHER_BLOCK // group.order)
    for start in range(0, m, step):
        idx = group.table[rows[start : start + step]]
        for j in range(count_big):
            prod[:, j] += small_limbs[:, start : start + step].dot(dense[j][idx])
    if count_small == count_big == 1:
        out = prod[0, 0].astype(np.int64)
    else:  # every C_ij is an integer below 2^53
        prod = prod.astype(np.int64).astype(object)
        out = sum(
            prod[i, j] << width * (i + j)
            for i in range(count_small)
            for j in range(count_big)
        )
    return out[group.inv] if reverse else out
