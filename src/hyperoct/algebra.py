"""The exact-rational group algebra of B_n and its descent-type idempotents.

An element is a dense array of integer numerators, one per group element
in the order of ``get_group(n).elements``, over one shared positive
denominator, kept reduced (gcd(num, den) = 1) so that equality and
hashing are exact.  Sums, scalar multiples and products are integer array
operations followed by one gcd; products go through the convolution
kernel (hyperoct.kernels).  ``coeffs`` gives the {signed permutation:
Fraction} view for reading.

The idempotents built here live in the Mantaci-Reutenauer subalgebra:
a descent-set sum of the symmetric group times the closed-form block
factor of a composition, one product each, averaged over the reorderings
of the parts.  Without the sign projectors in the block factor the same
construction gives the classical Eulerian idempotents of the symmetric
group, which the sign-forgetting projection relates to the B_n family.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from numbers import Rational

import numpy as np

from . import kernels
from .characters import ClassFunction, divide_exactly
from .groupdata import class_sweep, get_group
from .permutations import (
    SignedComposition,
    SignedPartition,
    SignedPerm,
    composition_blocks,
    composition_partial_sums,
    descent_set,
    identity,
    mr_shape,
    partitions,
    perm_to_str,
    signed_partitions,
)


def _ratio(c) -> tuple[int, int]:
    """The reduced (numerator, denominator) of an exact rational."""
    if not isinstance(c, Rational):
        raise TypeError(f"coefficient {c!r} is not an exact rational")
    return Fraction(c).as_integer_ratio()


class AlgebraElement:
    """Exact-rational linear combination of B_n elements.

    Stored as integer numerators over one shared denominator: ``num[i]``
    belongs to ``get_group(n).elements[i]``, ``den`` is positive and
    gcd(num, den) = 1, so equal elements have equal ``(num, den)``.
    ``num`` is read-only, int64 while every entry lies below
    ``kernels.INT64_BOUND`` and dtype=object past it.

    >>> x = AlgebraElement(1, {(1,): Fraction(1, 2), (-1,): Fraction(3, 4)})
    >>> x.num.tolist(), x.den
    ([2, 3], 4)
    >>> (2 * x).num.tolist(), (2 * x).den
    ([2, 3], 2)
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs: dict[SignedPerm, Fraction] | None = None):
        group = get_group(n)
        coeffs = coeffs or {}
        # a Fraction is already reduced; a zero is (0, 1) and stays zero
        ratios = [
            c.as_integer_ratio() if type(c) is Fraction else _ratio(c)
            for c in coeffs.values()
        ]
        nums, dens = zip(*ratios) if ratios else ((), ())
        # the lcm of reduced denominators leaves the numerators coprime to it
        den = lcm(*dens)
        values = [p * (den // q) for p, q in ratios] if den != 1 else nums
        bound = max(max(values, default=0), -min(values, default=0))
        num = np.zeros(group.order, dtype=kernels.exact_dtype(bound))
        num[[group.index[g] for g in coeffs]] = values
        self._set(n, num, den)

    def _set(self, n: int, num: np.ndarray, den: int):
        num.setflags(write=False)
        self.n, self.num, self.den = n, num, den

    @staticmethod
    def _reduced(n: int, num: np.ndarray, den: int) -> "AlgebraElement":
        """The element num/den, brought to the canonical form."""
        g = gcd(int(np.gcd.reduce(num)), den) if den != 1 else 1
        if g != 1:
            num, den = num // g, den // g
        if num.dtype == object:
            num = num.astype(kernels.exact_dtype(kernels.max_abs(num)))
        out = AlgebraElement.__new__(AlgebraElement)
        out._set(n, num, den)
        return out

    @property
    def coeffs(self) -> dict[SignedPerm, Fraction]:
        """The nonzero coefficients, {signed permutation: Fraction}."""
        elements = get_group(self.n).elements
        values, den = self.num.tolist(), self.den
        return {elements[i]: Fraction(values[i], den) for i in np.flatnonzero(self.num).tolist()}

    # -- construction -----------------------------------------------------

    @staticmethod
    def zero(n: int) -> "AlgebraElement":
        return AlgebraElement(n)

    @staticmethod
    def unit(n: int) -> "AlgebraElement":
        return AlgebraElement(n, {identity(n): Fraction(1)})

    @staticmethod
    def basis(g: SignedPerm) -> "AlgebraElement":
        return AlgebraElement(len(g), {g: Fraction(1)})

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "AlgebraElement"):
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        dtype = kernels.exact_dtype(
            kernels.max_abs(self.num) * sa + kernels.max_abs(other.num) * sb
        )
        a, b = self.num.astype(dtype, copy=False), other.num.astype(dtype, copy=False)
        return AlgebraElement._reduced(self.n, a * sa + b * sb, den)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-1) * other

    def __rmul__(self, scalar) -> "AlgebraElement":
        if not isinstance(scalar, Rational):
            return NotImplemented
        if self.is_zero():
            return self
        p, q = Fraction(scalar).as_integer_ratio()
        num = self.num.astype(kernels.exact_dtype(kernels.max_abs(self.num) * abs(p)), copy=False)
        return AlgebraElement._reduced(self.n, num * p, self.den * q)

    def __mul__(self, other) -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return self.__rmul__(other)
        self._check(other)
        idx_a, idx_b = np.flatnonzero(self.num), np.flatnonzero(other.num)
        if not len(idx_a) or not len(idx_b):
            return AlgebraElement.zero(self.n)
        group = get_group(self.n)
        coef_a, coef_b = self.num[idx_a], other.num[idx_b]
        # past the bound the kernel gets Python integers, so that no bound
        # computed from its arguments wraps around in int64
        dtype = kernels.exact_dtype(
            kernels.max_abs(coef_a) * kernels.max_abs(coef_b) * group.order
        )
        coef_a, coef_b = coef_a.astype(dtype, copy=False), coef_b.astype(dtype, copy=False)
        dense = kernels.convolve_dense(group, idx_a, coef_a, idx_b, coef_b)
        return AlgebraElement._reduced(self.n, dense, self.den * other.den)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.n == other.n
            and self.den == other.den
            and np.array_equal(self.num, other.num)
        )

    def __hash__(self):
        return hash((self.n, self.den, tuple(self.num.tolist())))

    def is_zero(self) -> bool:
        return not self.num.any()

    def is_idempotent(self) -> bool:
        return self * self == self

    def support_size(self) -> int:
        return int(np.count_nonzero(self.num))

    def __repr__(self):
        if self.is_zero():
            return "AlgebraElement(0)"
        parts = [
            f"{c}*({perm_to_str(g)})" for g, c in sorted(self.coeffs.items())
        ]
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# descent-type basis elements


@lru_cache(maxsize=None)
def _shape_index(n: int) -> dict[SignedComposition, tuple[SignedPerm, ...]]:
    buckets: dict[SignedComposition, list[SignedPerm]] = {}
    for g in get_group(n).elements:
        buckets.setdefault(mr_shape(g), []).append(g)
    return {a: tuple(gs) for a, gs in buckets.items()}


def _indicator(n: int, members) -> AlgebraElement:
    """The sum of the given signed permutations, each with coefficient 1."""
    group = get_group(n)
    num = np.zeros(group.order, dtype=np.int64)
    num[[group.index[g] for g in members]] = 1
    return AlgebraElement._reduced(n, num, 1)


def y_basis(alpha: SignedComposition) -> AlgebraElement:
    """Sum of all signed permutations of the given shape."""
    n = sum(abs(a) for a in alpha)
    return _indicator(n, _shape_index(n).get(tuple(alpha), ()))


def x_basis(n: int, subset) -> AlgebraElement:
    """Sum of the unsigned permutations whose descent set lies in ``subset``."""
    allowed = frozenset(subset)
    if not allowed <= set(range(1, n)):
        raise ValueError("subset must lie in 1..n-1")
    return _indicator(
        n,
        (w for w in itertools.permutations(range(1, n + 1)) if descent_set(w) <= allowed),
    )


def block_factor(p: SignedComposition, signed: bool = True) -> AlgebraElement:
    """F_p = prod_j eps_j R_j over the blocks of p, in closed form.

    R_j, Reutenauer's idempotent sum_A (-1)^|A|/(|A|+1) X_A on the m letters
    of block j, has at a block permutation with d descents the coefficient
    sum_{A >= Des} (-1)^|A|/(|A|+1) = (-1)^d int_0^1 x^d (1-x)^(m-1-d) dx
    = (-1)^d d! (m-1-d)!/m!.  eps_j = (1 + s_j w0_j)/2 with s_j the sign of
    part j and w0_j the flip of the block's letters, which commutes with
    the block's permutations; so flipping block j multiplies a coefficient
    by s_j.  ``signed=False`` leaves the eps_j out (the Type A factor).

    >>> f = block_factor((2,), signed=False)
    >>> f.num.tolist(), f.den
    ([1, -1, 0, 0, 0, 0, 0, 0], 2)
    >>> f = block_factor((-1, 1))
    >>> f.num.tolist(), f.den
    ([1, 0, -1, 0, 1, 0, -1, 0], 4)
    """
    n = sum(abs(part) for part in p)
    group = get_group(n)
    # (one-line word, integer numerator) of the block permutations so far
    terms: list[tuple[tuple[int, ...], int]] = [((), 1)]
    for block in composition_blocks(p):
        m = len(block)
        weights = [(-1) ** d * factorial(d) * factorial(m - 1 - d) for d in range(m)]
        words = [(w, weights[len(descent_set(w))]) for w in itertools.permutations(block)]
        terms = [(u + w, a * b) for u, a in terms for w, b in words]
    idx = np.array([group.index[w] for w, _ in terms], dtype=np.intp)
    # |numerator| <= prod (m_j - 1)! <= (n - 1)!, far inside int64
    num = np.array([c for _, c in terms], dtype=np.int64)
    den = prod(factorial(abs(part)) for part in p)
    if signed:
        # t_e s has index e * n! + s, and flips of disjoint blocks add masks
        for part, block in zip(p, composition_blocks(p)):
            mask = sum(1 << (v - 1) for v in block)
            idx = np.concatenate([idx, idx + mask * factorial(n)])
            num = np.concatenate([num, num if part > 0 else -num])
        den <<= len(p)
    out = np.zeros(group.order, dtype=np.int64)
    out[idx] = num
    return AlgebraElement._reduced(n, out, den)


def _chain(p, signed: bool) -> AlgebraElement:
    """The descent sum of p times its block factor: X_A F_p, A the partial
    sums of |p|."""
    n = sum(abs(part) for part in p)
    return x_basis(n, composition_partial_sums(p)) * block_factor(p, signed)


def _reordering_average(parts: tuple[int, ...], signed: bool) -> AlgebraElement:
    """The average of the chains over the distinct reorderings of the parts."""
    chains = (_chain(p, signed) for p in distinct_reorderings(parts))
    total = sum(chains, AlgebraElement.zero(sum(abs(part) for part in parts)))
    return Fraction(1, factorial(len(parts))) * total


@lru_cache(maxsize=None)
def vazirani_idempotent(lam: SignedPartition) -> AlgebraElement:
    """Orthogonal idempotent attached to a signed partition: the average of
    the composition chains over all reorderings of the parts."""
    return _reordering_average(lam[0] + tuple(-x for x in lam[1]), signed=True)


def g_k(n: int, k: int) -> AlgebraElement:
    """Sum of the signed-partition idempotents with k positive parts."""
    if not 0 <= k <= n:
        raise ValueError(f"k must be within 0..{n}")
    total = AlgebraElement.zero(n)
    for lam in signed_partitions(n):
        if len(lam[0]) == k:
            total = total + vazirani_idempotent(lam)
    return total


@lru_cache(maxsize=None)
def eulerian_idempotents_typeA(
    n: int,
) -> tuple[dict[tuple[int, ...], AlgebraElement], tuple[AlgebraElement, ...]]:
    """Garsia-Reutenauer idempotents by partition, and their Eulerian sums.

    e_k (k = 0..n-1) collects the partition idempotents with k+1 parts.
    Supports are unsigned permutations, embedded in B_n.
    """
    by_partition = {lam: _reordering_average(lam, signed=False) for lam in partitions(n)}
    e_ks = []
    for k in range(n):
        ek = AlgebraElement.zero(n)
        for lam, e in by_partition.items():
            if len(lam) == k + 1:
                ek = ek + e
        e_ks.append(ek)
    return by_partition, tuple(e_ks)


def tau_map(x: AlgebraElement) -> AlgebraElement:
    """Push coefficients forward along sign forgetting, summing collisions.

    t_e s goes to s, so the 2^n sign rows of the layout of
    ``hyperoct.groupdata`` are summed onto the unsigned row e = 0.  Each
    unsigned permutation collects 2^n numerators; int64 holds the sum below
    ``kernels.INT64_BOUND``, Python integers past it."""
    num = x.num.astype(kernels.exact_dtype(kernels.max_abs(x.num) << x.n), copy=False)
    out = np.zeros(len(num), dtype=num.dtype)
    out[: len(num) >> x.n] = num.reshape(1 << x.n, -1).sum(axis=0)
    return AlgebraElement._reduced(x.n, out, x.den)


# ---------------------------------------------------------------------------
# characters of idempotent-generated right ideals


def right_ideal_character(e: AlgebraElement) -> ClassFunction:
    """Character of the right ideal e * Q[B_n].

    chi(g) = sum over x of the coefficient of x g^{-1} x^{-1} in e, the
    trace of right translation on the ideal.  Requires e idempotent.  The
    sum runs on the numerators ``e.num``, in int64 while
    max|num| * |B_n| bounds it below ``kernels.INT64_BOUND`` and on Python
    integers past that.  The sums divided by ``e.den`` must be integers;
    ``divide_exactly`` raises ArithmeticError naming the class otherwise.
    """
    if not e.is_idempotent():
        raise ValueError("element is not idempotent")
    n = e.n
    group = get_group(n)
    num = e.num.astype(kernels.exact_dtype(kernels.max_abs(e.num) * group.order), copy=False)
    # inv[x g_c x^-1] is the index of x g_c^-1 x^-1
    sums = num[group.inv[class_sweep(n)]].sum(axis=1)
    return divide_exactly(n, sums.tolist(), e.den)


def distinct_reorderings(lam) -> list[tuple[int, ...]]:
    """Distinct reorderings of the parts of a partition."""
    return sorted(set(itertools.permutations(lam)))
