"""Small exact linear algebra helpers: ranks over Q and modulo a prime.

The mod-p rank is a certified lower bound for the rank over Q; when it
equals the full dimension it proves full rank exactly.  The Fraction
elimination is reserved for small matrices where a true rank is needed.
"""

from __future__ import annotations

from fractions import Fraction

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


def rank_exact(rows: list[list[Fraction]]) -> int:
    m = [list(map(Fraction, row)) for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def full_rank_certificate(matrix) -> int:
    """Exact rank of a square-or-wide integer 0/1 matrix.

    The mod-p rank certifies fullness when it equals the row count; a
    deficient mod-p rank falls back to exact elimination.
    """
    m = np.asarray(matrix)
    r = rank_mod_p(m)
    if r == min(m.shape):
        return r
    return rank_exact([[Fraction(int(x)) for x in row] for row in m])
