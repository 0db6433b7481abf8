"""The convolution hot loop of the group algebra.

One interpreted kernel over exact Python integers.  The Cayley table is
consumed as nested lists (scalar numpy indexing is slower than list access
in interpreted loops).
"""

from __future__ import annotations

from .groupdata import GroupData

BACKEND = "python"


def convolve_dense(group: GroupData, idx_a, coef_a, idx_b, coef_b) -> list[int]:
    """Dense list of integer coefficients of the convolution product."""
    rows = group.table_rows()
    out = [0] * group.order
    pairs_b = list(zip(idx_b, coef_b))
    for ia, ca in zip(idx_a, coef_a):
        row = rows[ia]
        for ib, cb in pairs_b:
            k = row[ib]
            out[k] += ca * cb
    return out
