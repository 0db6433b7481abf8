"""The convolution kernel of the group algebra.

The product of a = sum a_g g and b = sum b_h h in Q[B_n] has coefficients
c_k = sum over g h = k of a_g b_h.  The factors come as supports (element
indices) with integer coefficients, the numerators of ``AlgebraElement``;
the result is the dense ndarray of the product's numerators.

The transform.  In the layout of ``hyperoct.groupdata`` an element of
Q[B_n] is a 2^n x n! array A[e, s] (element e n! + s is t_e s), and by
the product rule derived there, (t_e s)(t_d r) = t_{e xor s.d} (s r),
only the sign part mixes within a column.  The characters
chi_u(e) = (-1)^popcount(u & e) of Z_2^n diagonalize it: with the +-1
Hadamard matrix H[e, u] = chi_u(e), A^ = H A, and since
chi_u(s.d) = chi_{u.s}(d) with (u.s)_p = u_{s(p)},

    C^[u, r] = sum_s A^[u, s] B^[u.s, s^-1 r],
    C = H C^ / 2^n                      (H H = 2^n I).

For each character u that is a row vector times a matrix, so the
contraction is one batched matrix product over the 2^n characters, and it
runs over the nonzero S_n-rows s of the left factor only.  Its right
operand comes from one gather ``Plan.flat[u, s, r]`` = (u.s, s^-1 r) into
B^: about (n!)^2 2^n multiplications for dense factors where the double
sum over pairs takes |B_n|^2 (16 times fewer at n = 4, 32 at n = 5),
plus three transforms of 2^n x 2^n x n! each.

Side choice.  The anti-involution x*[g] = x[g^-1] reverses products,
ab = (b* a*)*, and x* has as many nonzero S_n-rows as x (the row of g^-1
is s^-1).  When b has fewer rows than a the kernel contracts b* a* and
reads its result at the inverses, which undoes the *; so the contraction
always runs over the sparser factor's rows.

Exact through float64 BLAS (as in FFLAS, Dumas, Giorgi and Pernet, ACM
TOMS 35, 2008).  Let |a| = sum |a_g|, the same for b.  The terms of each
stage's sums have absolute values adding up to at most

    A^ = H A:             |a| (column s of A adds up to at most |a|),
    the contraction:      |a| |b| (|A^[u, s]| is at most column s's part
                          of |a|, every |B^[., .]| at most |b|),
    H C^:                 2^n |a| |b|,

so while 2^n |a| |b| < 2^53 every partial sum, in whatever order BLAS
adds, is an integer of magnitude below 2^53, which a double holds
exactly.  The kernel multiplies by H / 2^n in place of H, which scales
every partial sum of the last stage by the power of two 2^-n and keeps it
exact, so that stage ends on the integer product itself, taken to int64.
|a| and |b| are float64 sums of |x|, exact below 2^53 and never rounded
back below it, so the test of the bound is exact.

Past the bound (and for Python-integer coefficients, dtype=object, which
may lie past a double's range) both coefficient vectors are split into
limbs of w = floor((53 - bitlen(2^n m_a m_b)) / 2) bits, m_a and m_b the
support sizes (as in Ozaki, Ogita, Oishi and Rump, Numer. Algorithms 59,
2012): x = sum_i limb_i << w*i with every limb but the top one in
[0, 2^w) and the top one in [-2^w, 2^w), so one limb of a adds up to at
most m_a 2^w in absolute value and each pair of limbs stays under
2^n m_a m_b 2^(2w) < 2^53.  Every limb is transformed once, each of a's
limbs is contracted against each of b's, and the products C_ij are
recombined as sum C_ij << w*(i+j) on Python integers.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .groupdata import GroupData, get_group

BACKEND = "python"
INT64_BOUND = 2**62
FLOAT64_EXACT = 2**53  # every integer of smaller magnitude is a double


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


_scratch = threading.local()


def _gather(hat_b: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``hat_b.take(index, axis=1)`` into a grow-only buffer of the calling
    thread, valid until the thread's next call.

    At n = 5 the gather of a full product takes 3.7 MB; a fresh array of
    that size is mapped and page-faulted on every call when the allocator
    serves it from mmap, which made the idempotents suite at n = 5 three
    times slower.  One buffer per thread keeps concurrent products apart.
    """
    count = len(hat_b) * index.size
    buffer = getattr(_scratch, "buffer", None)
    if buffer is None or buffer.size < count:
        buffer = _scratch.buffer = np.empty(count)
    out = buffer[:count].reshape(len(hat_b), *index.shape)
    return hat_b.take(index, axis=1, out=out, mode="clip")  # "raise" would copy


class Plan(NamedTuple):
    """The transform and the gather of the contraction, built once per n.

    ``hadamard[e, u] = chi_u(e)`` and ``unhadamard`` is its inverse,
    H / 2^n; ``flat[u, s, r]`` is the place of (u.s, s^-1 r) in a
    2^n x n! array, the index e n! + s of ``hyperoct.groupdata``;
    ``row[e n! + s] = s``, the S_n row of each element (a gather, where
    numpy's int64 remainder by a scalar takes twice as long).
    """

    hadamard: np.ndarray
    unhadamard: np.ndarray
    flat: np.ndarray
    row: np.ndarray


@lru_cache(maxsize=None)
def plan(n: int) -> Plan:
    """The plan of B_n's products (2 ms at n = 5)."""
    group = get_group(n)
    size, k = 1 << n, len(group.perm_table)
    sinv = group.inv[:k]  # the permutations are the first n! elements
    # u.s = s^-1.u: (s^-1.u)_p = u_{s(p)}
    flat = group.twist[sinv].T[:, :, None] * k + group.perm_table[sinv][None, :, :]
    e = np.arange(size)
    hadamard = 1.0 - 2.0 * (np.bitwise_count(e[:, None] & e[None, :]) & 1)
    return Plan(hadamard, hadamard / size, flat, np.tile(np.arange(k), size))


def convolve_dense(group: GroupData, idx_a, coef_a, idx_b, coef_b) -> np.ndarray:
    """Dense integer coefficients of the convolution product: int64 on one
    limb, Python integers (dtype=object) on several.

    >>> from hyperoct.groupdata import get_group
    >>> get_group(1).elements
    ((1,), (-1,))
    >>> x, y = 2**62 + 3, -(2**70) - 1
    >>> c = convolve_dense(get_group(1), [0, 1], [x, -x], [1], [y])
    >>> c.tolist() == [-x * y, x * y]
    True
    """
    p = plan(group.n)
    size, k = len(p.hadamard), len(group.perm_table)
    idx_a, idx_b = np.asarray(idx_a), np.asarray(idx_b)
    rows_a = np.bincount(p.row[idx_a]).nonzero()[0]
    rows_b = np.bincount(p.row[idx_b]).nonzero()[0]
    reverse = len(rows_b) < len(rows_a)
    if reverse:  # contract b* a* over the rows of b*, then undo the *
        rows, idx_a, idx_b = group.inv[rows_b], group.inv[idx_b], group.inv[idx_a]
        coef_a, coef_b = coef_b, coef_a
    else:
        rows = rows_a
    coef_a, coef_b = np.asarray(coef_a), np.asarray(coef_b)
    one_limb = not (coef_a.dtype.hasobject or coef_b.dtype.hasobject)
    if one_limb:
        dense = np.zeros((2, size * k))
        dense[0][idx_a], dense[1][idx_b] = coef_a, coef_b
        sum_a, sum_b = map(int, np.add.reduce(np.abs(dense), axis=1).tolist())
        one_limb = (sum_a * sum_b) << group.n < FLOAT64_EXACT
    if one_limb:
        count_a = count_b = 1
    else:
        top_a, top_b = max_abs(coef_a), max_abs(coef_b)
        width = (53 - ((len(idx_a) * len(idx_b)) << group.n).bit_length()) // 2
        count_a, count_b = (max(1, -(-top.bit_length() // width)) for top in (top_a, top_b))
        dense = np.zeros((count_a + count_b, size * k))
        dense[:count_a, idx_a] = _limbs(coef_a, top_a, width, count_a)
        dense[count_a:, idx_b] = _limbs(coef_b, top_b, width, count_b)
    dense = dense.reshape(-1, size, k)
    if len(rows) == k:  # every row: the plan's own index, no copies
        left, index = dense[:count_a], p.flat
    else:
        left, index = dense[:count_a].take(rows, axis=2), p.flat[:, rows]
    # hat_a[u, i, s] for limb i of a, hat_b[j, u k + r] for limb j of b
    hat_a = np.matmul(p.hadamard, left).transpose(1, 0, 2)
    hat_b = np.matmul(p.hadamard, dense[count_a:]).reshape(count_b, -1)
    gathered = _gather(hat_b, index)
    hat_c = np.matmul(hat_a, gathered).reshape(count_b, size, -1)
    prod = np.matmul(p.unhadamard, hat_c).astype(np.int64)
    if count_a == count_b == 1:
        out = prod.ravel()
    else:
        prod = prod.reshape(count_b, size, count_a, k).transpose(2, 0, 1, 3)
        prod = prod.reshape(count_a, count_b, -1).astype(object)
        out = sum(
            prod[i, j] << width * (i + j) for i in range(count_a) for j in range(count_b)
        )
    return out[group.inv] if reverse else out
