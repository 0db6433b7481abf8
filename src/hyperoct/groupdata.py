"""B_n indexed by its wreath-product layout, with products by index arithmetic.

B_n = Z_2^n x| S_n: every signed permutation is uniquely t_e s, a
permutation s of {1..n} followed by the sign flip t_e of the values in the
bitmask e (bit v-1 flips v).  Element ``e * n! + s`` is t_e s, where s is
the s-th permutation of {1..n} in lexicographic order, so an element of
Q[B_n] read as a 2^n x n! array has one row per sign mask and one column
per permutation.  Conjugation moves a sign flip along the permutation,
s t_d s^-1 = t_{s.d} with (s.d)_v = d_{s^-1(v)}, and flips commute with
t_e t_d = t_{e xor d}, so

    (t_e s)(t_d r) = t_e (s t_d s^-1) s r = t_{e xor s.d} (s r),
    (t_e s)^-1 = s^-1 t_e = (s^-1 t_e s) s^-1 = t_{s^-1.e} s^-1,

and products and inverses need only the n! x n! table of S_n
(``perm_table``) and the n! x 2^n action ``twist[s, d] = s.d``: 4.5 MB at
n = 6, where the int32 Cayley table of B_n takes 7.9 GiB.  Instances are
cached per n.  ``element_rows`` lists the elements in this numbering as
one int8 array, without building the tables; the chamber action reads
B_{n+1} and B_n from it.

Characters are summed over the conjugation sweep of the class
representatives (``class_sweep``), built by index arithmetic on first use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .permutations import SignedPerm, signed_partitions, standard_representative


@dataclass
class GroupData:
    n: int
    elements: tuple[SignedPerm, ...]  # elements[e * n! + s] = t_e o s
    index: dict[SignedPerm, int]
    perm_table: np.ndarray  # intp, perm_table[s, r] = the row of s o r
    twist: np.ndarray  # intp, twist[s, d] = s.d, the sign mask of s t_d s^-1
    inv: np.ndarray  # intp, elements[inv[i]] = elements[i]^-1

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i, j):
        """The index of elements[i] o elements[j] (apply j first), broadcast
        over index arrays."""
        k = len(self.perm_table)
        e, s = np.divmod(i, k)
        d, r = np.divmod(j, k)
        return (e ^ self.twist[s, d]) * k + self.perm_table[s, r]


def element_rows(n: int) -> np.ndarray:
    """The elements of B_n as the rows of one int8 array, in the order of
    ``get_group(n).elements``: row e * n! + s is t_e s."""
    k = factorial(n)
    perms = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int8).reshape(k, n)
    masks = np.arange(1 << n)[:, None, None]
    signs = 1 - 2 * (masks >> (perms - 1) & 1)  # [e, s, p]: t_e flips the value s(p)
    return (signs * perms).astype(np.int8).reshape(-1, n)


@lru_cache(maxsize=None)
def get_group(n: int) -> GroupData:
    k = factorial(n)
    rows = element_rows(n)
    perms = rows[:k].astype(np.intp) - 1  # the rows with no sign flip, 0-based
    # a permutation's lexicographic rank from its entries read as base-n digits
    weights = n ** np.arange(n - 1, -1, -1, dtype=np.intp)
    rank = np.zeros(n**n, dtype=np.intp)
    rank[perms @ weights] = np.arange(k)
    perm_table = rank[perms[:, perms] @ weights]  # (s o r)(p) = s(r(p))
    masks = np.arange(1 << n)
    # bit v of d moves to bit s(v) of s.d
    twist = ((masks[None, :, None] >> np.arange(n) & 1) << perms[:, None, :]).sum(axis=2)
    elements = tuple(map(tuple, rows.tolist()))
    sinv = np.argmin(perm_table, axis=1)  # row 0 is the identity
    e, s = np.divmod(np.arange(len(elements)), k)
    inv = twist[sinv[s], e] * k + sinv[s]
    index = {g: i for i, g in enumerate(elements)}
    return GroupData(n, elements, index, perm_table, twist, inv)


@lru_cache(maxsize=None)
def class_sweep(n: int) -> np.ndarray:
    """Read-only array with ``conj[c, x]`` the index of x g_c x^{-1},
    where g_c is the standard representative of the c-th class of
    ``signed_partitions(n)`` (20 x 384 at n = 4, 65 x 46080 at n = 6).

    The ideal and induced characters sum one row per class.
    """
    group = get_group(n)
    reps = [group.index[standard_representative(lam)] for lam in signed_partitions(n)]
    x = np.arange(group.order)
    conj = np.empty((len(reps), group.order), dtype=np.intp)
    for c, g in enumerate(reps):  # row by row, so that no temporary holds them all
        conj[c] = group.mul(group.mul(x, g), group.inv)
    conj.setflags(write=False)
    return conj
