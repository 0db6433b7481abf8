"""Sums of roots of unity as integer vectors modulo cyclotomic polynomials.

A root of unity w^k, for w a primitive m-th root, is kept as its integer
exponent k mod m.  A sum with integer counts, sum_k c_k w^k, is the
integer vector ``counts @ power_rows(m)`` in the power basis 1, w, ...,
w^(phi(m)-1) of Q(w).  The m-th cyclotomic polynomial is monic with
integer coefficients, so every row is integral, and it is computed by
iterated exact division of x^m - 1 by the cyclotomic polynomials of the
proper divisors of m.  A sum is rational exactly when its non-constant
coordinates vanish, which makes rationality detection exact (unlike
floats).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _poly_divmod_int(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (remainder must vanish)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        coef = num[shift + len(den) - 1] // den[-1]
        out[shift] = coef
        for i, d in enumerate(den):
            num[shift + i] -= coef * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, low degree first."""
    if m < 1:
        raise ValueError("m must be >= 1")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divmod_int(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def power_rows(m: int) -> np.ndarray:
    """Read-only int64 array of shape (m, phi(m)) whose row k holds the
    coefficients of x^k mod the m-th cyclotomic polynomial, low degree first."""
    phi = cyclotomic_polynomial(m)
    dim = len(phi) - 1
    rows = np.zeros((m, dim), dtype=np.int64)
    rows[0, 0] = 1
    for k in range(1, m):
        rows[k, 1:] = rows[k - 1, :-1]
        # x^dim = -(phi_0 + ... + phi_{dim-1} x^{dim-1}) since phi is monic
        rows[k] -= rows[k - 1, -1] * np.array(phi[:-1], dtype=np.int64)
    rows.setflags(write=False)
    return rows
