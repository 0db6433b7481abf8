"""Indexed enumeration of B_n with a precomputed Cayley table.

The table is the workhorse behind group-algebra convolution.  Elements are
indexed in a fixed deterministic order; ``table[i, j]`` is the index of
``elements[i] o elements[j]`` (apply j first).  Sizes stay modest at desk
scale (|B_4| = 384, table 384 x 384), and instances are cached per n.

Characters are summed over the conjugation sweep of the class
representatives (``class_sweep``), built from the table on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .permutations import (
    SignedPerm,
    all_signed_perms,
    signed_partitions,
    standard_representative,
)


@dataclass
class GroupData:
    n: int
    elements: tuple[SignedPerm, ...]
    index: dict[SignedPerm, int]
    table: np.ndarray  # int32, table[i, j] = index(elements[i] o elements[j])
    inv: np.ndarray  # int32

    @property
    def order(self) -> int:
        return len(self.elements)


@lru_cache(maxsize=None)
def get_group(n: int) -> GroupData:
    elements = tuple(sorted(all_signed_perms(n)))
    index = {g: i for i, g in enumerate(elements)}
    order = len(elements)
    perms = np.array(elements, dtype=np.int8).reshape(order, n)
    # an element's key reads its one-line entries s(p) + n as base-(2n+1) digits
    weights = (2 * n + 1) ** np.arange(n, dtype=np.int32)

    def keys(rows: np.ndarray) -> np.ndarray:
        return np.einsum("...p,p->...", rows, weights) + n * int(weights.sum())

    lookup = np.zeros((2 * n + 1) ** n, dtype=np.int32)
    lookup[keys(perms)] = np.arange(order, dtype=np.int32)
    # (g o h)(p) = sign(h(p)) * g(|h(p)|): gather from g's entries by h's
    positions = np.abs(perms).astype(np.intp) - 1
    signs = np.sign(perms)
    table = np.empty((order, order), dtype=np.int32)
    block = max(1, order // max(n, 1))  # keeps each block's arrays within the table's size
    for start in range(0, order, block):
        rows = perms[start : start + block]
        table[start : start + block] = lookup[keys(rows[:, positions] * signs)]
    inverses = np.empty_like(perms)
    inverses[np.arange(order)[:, None], positions] = signs * np.arange(1, n + 1, dtype=np.int8)
    inv = lookup[keys(inverses)]
    return GroupData(n, elements, index, table, inv)


@lru_cache(maxsize=None)
def class_sweep(n: int) -> np.ndarray:
    """Read-only int32 array with ``conj[c, x]`` the index of x g_c x^{-1},
    where g_c is the standard representative of the c-th class of
    ``signed_partitions(n)`` (20 x 384 at n = 4, 36 x 3840 at n = 5).

    The ideal and induced characters sum one row per class.
    """
    group = get_group(n)
    reps = [group.index[standard_representative(lam)] for lam in signed_partitions(n)]
    # x g_c x^-1 = table[table[x, g_c], inv[x]]
    conj = group.table[group.table[:, reps].T, group.inv]
    conj.setflags(write=False)
    return conj
