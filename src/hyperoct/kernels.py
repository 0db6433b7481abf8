"""The convolution kernel of the group algebra.

The product of a = sum a_i g_i and b = sum b_j g_j has coefficients

    c[k] = sum_j a[idx(g_k g_j^-1)] * b_j = sum_i a_i * b[idx(g_i^-1 g_k)],

so one numpy gather over the Cayley table and one matrix-vector product
give the whole dense result, gathered along the factor with the smaller
support.  Arithmetic is exact: int64 runs while max|a| * max|b| * |B_n| <
2^62, which bounds every partial sum; past that bound the same gather runs
on Python integers (dtype=object).
"""

from __future__ import annotations

import numpy as np

from .groupdata import GroupData

BACKEND = "python"
INT64_BOUND = 2**62


def convolve_dense(group: GroupData, idx_a, coef_a, idx_b, coef_b) -> list[int]:
    """Dense list of integer coefficients of the convolution product."""
    bound = max(map(abs, coef_a), default=0) * max(map(abs, coef_b), default=0)
    dtype = np.int64 if bound * group.order < INT64_BOUND else object
    if len(idx_b) <= len(idx_a):
        a = np.zeros(group.order, dtype=dtype)
        a[idx_a] = coef_a
        out = a[group.table[:, group.inv[idx_b]]] @ np.array(coef_b, dtype=dtype)
    else:
        b = np.zeros(group.order, dtype=dtype)
        b[idx_b] = coef_b
        out = np.array(coef_a, dtype=dtype) @ b[group.table[group.inv[idx_a], :]]
    return out.tolist()
