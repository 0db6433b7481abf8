"""The convolution kernel of the group algebra.

The product of a = sum a_i g_i and b = sum b_j g_j has coefficients

    c[k] = sum_j a[idx(g_k g_j^-1)] * b_j = sum_i a_i * b[idx(g_i^-1 g_k)],

so one numpy gather over the Cayley table and one matrix-vector product
give the whole dense result, gathered along the factor with the smaller
support.  The factors come as supports (element indices) with integer
coefficients, the numerators of ``AlgebraElement``; the result is the
dense ndarray of the product's numerators.  Arithmetic is exact: int64
runs while max|a| * max|b| * |B_n| < 2^62, which bounds every partial
sum; past that bound the same gather runs on Python integers
(dtype=object).
"""

from __future__ import annotations

import numpy as np

from .groupdata import GroupData

BACKEND = "python"
INT64_BOUND = 2**62


def max_abs(coef) -> int:
    """Largest absolute value of an integer sequence or array, 0 if empty."""
    if isinstance(coef, np.ndarray):
        return int(np.abs(coef).max(initial=0))
    return max(map(abs, coef), default=0)


def exact_dtype(bound: int):
    """int64 for integers of magnitude at most ``bound`` below
    ``INT64_BOUND``, Python integers (dtype=object) from there."""
    return np.int64 if bound < INT64_BOUND else object


def convolve_dense(group: GroupData, idx_a, coef_a, idx_b, coef_b) -> np.ndarray:
    """Dense integer coefficients of the convolution product: int64 below
    the bound, dtype=object past it."""
    dtype = exact_dtype(max_abs(coef_a) * max_abs(coef_b) * group.order)
    if len(idx_b) <= len(idx_a):
        a = np.zeros(group.order, dtype=dtype)
        a[idx_a] = coef_a
        return a[group.table[:, group.inv[idx_b]]] @ np.asarray(coef_b, dtype=dtype)
    b = np.zeros(group.order, dtype=dtype)
    b[idx_b] = coef_b
    return np.asarray(coef_a, dtype=dtype) @ b[group.table[group.inv[idx_a], :]]
