"""Exact arithmetic in cyclotomic fields Q(w) for w a primitive m-th root of unity.

Elements are polynomials in w of degree < phi(m), reduced modulo the m-th
cyclotomic polynomial.  The cyclotomic polynomial is computed by iterated
exact division of x^m - 1 by the cyclotomic polynomials of the proper
divisors of m.  An element is rational exactly when its reduced form is
constant, which makes rationality detection exact (unlike floats).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


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
def _reduction_rows(m: int, degree: int) -> tuple[tuple[Fraction, ...], ...]:
    """Rows expressing w^k (k up to ``degree``) in the power basis of Q(w_m)."""
    phi = cyclotomic_polynomial(m)
    dim = len(phi) - 1
    rows: list[tuple[Fraction, ...]] = []
    row = [Fraction(0)] * dim
    row[0] = Fraction(1)
    rows.append(tuple(row))
    for _ in range(degree):
        shifted = [Fraction(0)] + list(rows[-1][:])
        lead = shifted.pop()
        if lead:
            # w^dim = -(phi_0 + ... + phi_{dim-1} w^{dim-1}) since phi is monic
            for i in range(dim):
                shifted[i] -= lead * phi[i]
        rows.append(tuple(shifted))
    return tuple(rows)


class Cyclotomic:
    """An element of Q(w_m), reduced modulo the m-th cyclotomic polynomial."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        dim = len(cyclotomic_polynomial(order)) - 1
        # Fractions are immutable, so an exact Fraction is kept as it is
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(cs) > dim:
            raise ValueError("coefficient vector too long")
        cs += [Fraction(0)] * (dim - len(cs))
        self.order = order
        self.coeffs = tuple(cs)

    @staticmethod
    def rational(order: int, value) -> "Cyclotomic":
        return Cyclotomic(order, [Fraction(value)])

    @staticmethod
    def root_of_unity(order: int, k: int, power: int = 1) -> "Cyclotomic":
        """w_k ** power inside Q(w_order); requires k | order."""
        if order % k:
            raise ValueError(f"{k} does not divide ambient order {order}")
        exp = (order // k) * power % order
        rows = _reduction_rows(order, order)
        return Cyclotomic(order, rows[exp])

    def _check(self, other: "Cyclotomic"):
        if self.order != other.order:
            raise ValueError("mixed cyclotomic orders")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.rational(self.order, other)
        self._check(other)
        return Cyclotomic(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.rational(self.order, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.order, [a * other for a in self.coeffs])
        self._check(other)
        dim = len(self.coeffs)
        prod = [Fraction(0)] * (2 * dim - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    prod[i + j] += a * b
        rows = _reduction_rows(self.order, 2 * dim - 2)
        out = [Fraction(0)] * dim
        for k, c in enumerate(prod):
            if c:
                row = rows[k]
                for i in range(dim):
                    if row[i]:
                        out[i] += c * row[i]
        return Cyclotomic(self.order, out)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugate (w -> w^(m-1))."""
        rows = _reduction_rows(self.order, self.order)
        out = [Fraction(0)] * len(self.coeffs)
        for k, c in enumerate(self.coeffs):
            if c:
                row = rows[(self.order - k) % self.order]
                for i in range(len(out)):
                    out[i] += c * row[i]
        return Cyclotomic(self.order, out)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self!r}")
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return (
            isinstance(other, Cyclotomic)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"Cyclotomic(order={self.order}, coeffs={list(self.coeffs)})"
