"""Small exact linear algebra helpers: ranks over Q, modulo 2 and modulo
a prime.

The rank of an integer matrix modulo a prime is a certified lower bound
for its rank over Q (a minor that is nonzero mod p is nonzero); when it
equals the full dimension it proves full rank exactly.  The mod-2 rank
runs on bit-packed rows and is tried first; the exact rank is a
fraction-free (Bareiss) elimination on Python integers, for matrices
whose rank is deficient modulo both.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

_DEFAULT_PRIME = 2_147_483_647  # Mersenne prime; products still fit in int64


def rank_mod_p(matrix, p: int = _DEFAULT_PRIME) -> int:
    m = np.array(matrix, dtype=np.int64) % p
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        inv = pow(int(m[rank, col]), p - 2, p)
        m[rank] = (m[rank] * inv) % p
        nz = [r for r in range(rows) if r != rank and m[r, col]]
        for r in nz:
            m[r] = (m[r] - m[r, col] * m[rank]) % p
        rank += 1
        if rank == rows:
            break
    return rank


def rank_gf2(matrix) -> int:
    """Rank over GF(2) of an integer matrix, its entries taken mod 2.

    Each row is packed into 64-bit words and eliminated by XOR; the order
    in which packing visits the columns does not change the rank.
    """
    bits = np.asarray(matrix) & 1
    rows, cols = bits.shape
    padded = np.zeros((rows, -(-cols // 64) * 64), dtype=np.uint8)
    padded[:, :cols] = bits
    m = np.packbits(padded, axis=1).view(np.uint64)
    rank = 0
    for word in range(m.shape[1]):
        for bit in range(64):
            mask = np.uint64(1) << np.uint64(bit)
            hits = np.flatnonzero(m[rank:, word] & mask)
            if not hits.size:
                continue
            pivot = rank + hits[0]
            m[[rank, pivot]] = m[[pivot, rank]]
            # rows rank + 1 .. pivot (the swapped-down one too) lack the bit
            below = pivot + 1 + np.flatnonzero(m[pivot + 1 :, word] & mask)
            m[below] ^= m[rank]
            rank += 1
            if rank == rows:
                return rank
    return rank


def rank_exact(rows: list[list[Fraction]]) -> int:
    """Rank over Q: each row is scaled to integers, then a fraction-free
    (Bareiss) elimination divides every update exactly by the last pivot."""
    scaled = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        scaled.append([x.numerator * (den // x.denominator) for x in row])
    if not scaled or not scaled[0]:
        return 0
    m = np.array(scaled, dtype=object)
    nrows, ncols = m.shape
    rank, prev = 0, 1
    for col in range(ncols):
        hits = np.flatnonzero(m[rank:, col])
        if not hits.size:
            continue
        pivot = rank + hits[0]
        m[[rank, pivot]] = m[[pivot, rank]]
        p = m[rank, col]
        below = m[rank + 1 :, col:]
        m[rank + 1 :, col:] = (below * p - below[:, :1] * m[rank, col:]) // prev
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def full_rank_certificate(matrix) -> int:
    """Exact rank of a square-or-wide integer 0/1 matrix.

    Full rank over GF(2) means a maximal minor is odd, so nonzero: full
    rank over Q.  A deficient mod-2 rank falls back to the mod-p rank,
    which certifies fullness the same way, and then to exact elimination.
    """
    m = np.asarray(matrix)
    full = min(m.shape)
    if rank_gf2(m) == full or rank_mod_p(m) == full:
        return full
    return rank_exact(m.tolist())
