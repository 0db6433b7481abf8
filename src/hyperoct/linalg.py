"""Small exact linear algebra helpers: ranks over Q, modulo 2 and modulo
a prime.

The rank of an integer matrix modulo a prime is a certified lower bound
for its rank over Q (a minor that is nonzero mod p is nonzero); when it
equals the full dimension it proves full rank exactly.  The mod-2 rank
runs on bit-packed rows (``pack_rows``) and is tried first; the exact
rank is a fraction-free (Bareiss) elimination, on int64 while its
entries stay small and on Python integers after, for matrices whose rank
is deficient modulo both.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

_PRIME = 2_147_483_647  # Mersenne prime; products still fit in int64
_INT64_SAFE = 2**31  # Bareiss entries below this keep every update inside int64


def rank_mod_p(matrix) -> int:
    """Rank of an integer matrix modulo ``_PRIME``."""
    p = _PRIME
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


def pack_rows(matrix) -> np.ndarray:
    """Bit-packed rows of a 0/1 or boolean matrix: uint64 words, column j
    at bit j % 64 of word j // 64; nonzero entries are ones and the bits
    past the last column are zero."""
    bits = np.asarray(matrix)
    rows, cols = bits.shape
    packed = np.zeros((rows, -(-cols // 64) * 8), dtype=np.uint8)
    packed[:, : -(-cols // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8")


def unpack_rows(words: np.ndarray, cols: int) -> np.ndarray:
    """The 0/1 uint8 matrix of ``cols`` columns whose packed rows are ``words``."""
    return np.unpackbits(
        np.ascontiguousarray(words, dtype="<u8").view(np.uint8),
        axis=1,
        count=cols,
        bitorder="little",
    )


def rank_gf2_packed(words: np.ndarray) -> int:
    """Rank over GF(2) of bit-packed rows (``pack_rows``), eliminated by XOR
    on a copy.  Set bits past the last column count as columns, so the
    packing must leave them zero."""
    m = np.array(words, dtype=np.uint64)
    rows = m.shape[0]
    rank = 0
    for word in range(m.shape[1]):
        for bit in range(64):
            mask = np.uint64(1) << np.uint64(bit)
            hits = np.flatnonzero(m[rank:, word] & mask)
            if not hits.size:
                continue
            pivot = rank + hits[0]
            m[[rank, pivot]] = m[[pivot, rank]]
            # rows rank + 1 .. pivot (the swapped-down one too) lack the bit;
            # every row below the pivot is zero before this word
            below = pivot + 1 + np.flatnonzero(m[pivot + 1 :, word] & mask)
            m[below, word:] ^= m[rank, word:]
            rank += 1
            if rank == rows:
                return rank
    return rank


def _widened(m: np.ndarray) -> np.ndarray:
    return m.astype(object)


def rank_exact(rows: list[list[Fraction]]) -> int:
    """Rank over Q: each row is scaled to integers, then a fraction-free
    (Bareiss) elimination divides every update exactly by the last pivot.

    The elimination runs on int64 while every entry still to be used is
    below ``_INT64_SAFE`` in magnitude: each product then stays below 2^62
    and each difference below 2^63.  The bound is checked before every
    pivot step, and the matrix widens to Python integers once an entry
    passes it.
    """
    scaled = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        scaled.append([x.numerator * (den // x.denominator) for x in row])
    if not scaled or not scaled[0]:
        return 0
    small = max(abs(x) for row in scaled for x in row) < _INT64_SAFE
    m = np.array(scaled, dtype=np.int64 if small else object)
    nrows, ncols = m.shape
    rank, prev = 0, 1
    for col in range(ncols):
        hits = np.flatnonzero(m[rank:, col])
        if not hits.size:
            continue
        if m.dtype != object and np.abs(m[rank:, col:]).max() >= _INT64_SAFE:
            m = _widened(m)
        pivot = rank + hits[0]
        m[[rank, pivot]] = m[[pivot, rank]]
        p = int(m[rank, col])
        below = m[rank + 1 :, col:]
        m[rank + 1 :, col:] = (below * p - below[:, :1] * m[rank, col:]) // prev
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def full_rank_certificate(words: np.ndarray, cols: int) -> int:
    """Exact rank of a 0/1 matrix of ``cols`` columns given as bit-packed
    rows (``pack_rows``).

    Full rank over GF(2) means a maximal minor is odd, so nonzero: full
    rank over Q.  Only a deficient mod-2 rank unpacks the matrix, for the
    mod-p rank, which certifies fullness the same way, and then for exact
    elimination.
    """
    full = min(len(words), cols)
    if rank_gf2_packed(words) == full:
        return full
    m = unpack_rows(words, cols)
    if rank_mod_p(m) == full:
        return full
    return rank_exact(m.tolist())
