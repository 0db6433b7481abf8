"""The convolution kernel of the group algebra.

The product of a = sum a_g g and b = sum b_h h in Q[B_n] has coefficients
c_k = sum over g h = k of a_g b_h.  The factors come as supports (element
indices) with integer coefficients, the numerators of ``AlgebraElement``;
the result is the dense ndarray of the product's numerators.

Two routes, chosen by the supports' sizes m_a and m_b.  A product of at
most ``PAIR_CUTOFF`` |B_n| pairs on one limb (below) takes the pair route:
the index of every g h by ``GroupData.mul`` and one weighted
``np.bincount`` of the a_g b_h.  Every other product takes the
contraction, whose work does not grow with the pairs but whose fixed cost
is larger.  Measured with ``timeit`` on 2 vCPUs of a Xeon and one BLAS
thread, the pair route takes 11-13 us plus 11-12 ns a pair; the
contraction takes 21-22 us at n = 4 and 505-560 us at n = 5, whatever
the supports.  So the pair route wins up to about 900 pairs (2.3 |B_4|)
at n = 4, and up to about 47 000 pairs (12 |B_5|) at n = 5, where the
cutoff is conservative.

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
runs over every S_n-row s.  Its right operand comes from one gather
``Plan.flat[u, s, r]`` = (u.s, s^-1 r) into B^: about (n!)^2 2^n
multiplications whatever the supports, where the double sum over the
pairs of dense factors takes |B_n|^2 (16 times more at n = 4, 32 at
n = 5), plus one transform of both factors and one back, of
2^n x 2^n x n! each.

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
back below it, so the test of the bound is exact.  The pair route is
exact under the same test: every weight a_g b_h and every partial sum of
the weighted bincount is an integer of magnitude at most |a| |b|.  There
|a| |b| is the float64 sum of the |a_g b_h|, exact below 2^53 and never
rounded back below it in the same way.

Past the bound (and for Python-integer coefficients, dtype=object, which
may lie past a double's range) both coefficient vectors are split into
limbs of w = floor((53 - bitlen(2^n m_a m_b)) / 2) bits (as in Ozaki,
Ogita, Oishi and Rump, Numer. Algorithms 59, 2012): x = sum_i limb_i <<
w*i with every limb but the top one in [0, 2^w) and the top one in
[-2^w, 2^w), so one limb of a adds up to at most m_a 2^w in absolute
value and each pair of limbs stays under 2^n m_a m_b 2^(2w) < 2^53.
Limbs always take the contraction.  Every limb is transformed once, each
of a's limbs is contracted against each of b's, and the products C_ij
are recombined as sum C_ij << w*(i+j): summed over equal i + j in int64,
then on Python integers.
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
PAIR_CUTOFF = 4  # the pair route takes up to PAIR_CUTOFF |B_n| pairs


def max_abs(coef) -> int:
    """Largest absolute value of an integer sequence or array, 0 if empty."""
    if isinstance(coef, np.ndarray):
        return int(np.maximum.reduce(np.abs(coef), initial=0))
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
    2^n x n! array, the index e n! + s of ``hyperoct.groupdata``.
    """

    hadamard: np.ndarray
    unhadamard: np.ndarray
    flat: np.ndarray


@lru_cache(maxsize=None)
def plan(n: int) -> Plan:
    """The plan of B_n's products (2 ms at n = 5)."""
    group = get_group(n)
    size, k = 1 << n, len(group.perm_table)
    sinv = group.inv[:k]  # the permutations are the first n! elements
    # u.s = s^-1.u: (s^-1.u)_p = u_{s(p)}
    flat = group.twist[sinv].T[:, :, None] * k + group.perm_table[sinv][None, :, :]
    flat = np.ascontiguousarray(flat)  # the broadcast leaves it F-ordered
    e = np.arange(size)
    hadamard = 1.0 - 2.0 * (np.bitwise_count(e[:, None] & e[None, :]) & 1)
    return Plan(hadamard, hadamard / size, flat)


def _recombine(prod: np.ndarray, width: int) -> np.ndarray:
    """sum_ij C_ij << width*(i+j) on Python integers, from the int64 limb
    products ``prod[j, u, i, r]`` of limb i of a and limb j of b.

    The C_ij with equal i + j are summed first, in int64: each is below
    2^53 in magnitude, so a sum of min(count_a, count_b) of them stays
    below 2^63 while min(count_a, count_b) 2^53 does (past that, on Python
    integers).  The sums are converted once and combined by Horner's rule
    on the shift.
    """
    count_b, size, count_a, k = prod.shape
    dtype = np.int64 if min(count_a, count_b) * FLOAT64_EXACT < 2**63 else object
    prod = prod.transpose(0, 2, 1, 3).reshape(count_b, count_a, -1).astype(dtype, copy=False)
    sums = np.zeros((count_a + count_b - 1, size * k), dtype)
    for j, row in enumerate(prod):
        sums[j : j + count_a] += row
    sums = sums.astype(object)
    out = sums[-1]
    for s in sums[-2::-1]:
        out = (out << width) + s
    return out


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
    idx_a, idx_b = np.asarray(idx_a), np.asarray(idx_b)
    coef_a, coef_b = np.asarray(coef_a), np.asarray(coef_b)
    one_limb = not (coef_a.dtype.hasobject or coef_b.dtype.hasobject)
    if one_limb and len(idx_a) * len(idx_b) <= PAIR_CUTOFF * group.order:
        weights = np.multiply.outer(coef_a, coef_b, dtype=np.float64).ravel()
        # |a| |b| is the sum of the |weights|
        if int(np.add.reduce(np.abs(weights))) << group.n < FLOAT64_EXACT:
            pairs = group.mul(idx_a[:, None], idx_b).ravel()
            return np.bincount(pairs, weights, group.order).astype(np.int64)
        one_limb = False
    p = plan(group.n)
    size, k = len(p.hadamard), len(group.perm_table)
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
    # one transform of every limb of both factors: hat_a[i, u, s] for limb
    # i of a, hat_b[j, u k + r] for limb j of b
    hat = np.matmul(p.hadamard, dense.reshape(-1, size, k))
    hat_a, hat_b = hat[:count_a], hat[count_a:].reshape(count_b, -1)
    gathered = _gather(hat_b, p.flat)
    hat_c = np.matmul(hat_a.transpose(1, 0, 2), gathered).reshape(count_b, size, -1)
    prod = np.matmul(p.unhadamard, hat_c).astype(np.int64)
    if count_a == count_b == 1:
        return prod.ravel()
    return _recombine(prod.reshape(count_b, size, count_a, k), width)
