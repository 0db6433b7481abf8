"""The exact-rational group algebra of B_n and its descent-type idempotents.

An element is a dense array of integer numerators, one per group element
in the order of ``get_group(n).elements``, over one shared positive
denominator, kept reduced (gcd(num, den) = 1) so that equality and
hashing are exact.  Sums, scalar multiples and products are integer array
operations followed by one gcd; products go through the convolution
kernel (hyperoct.kernels).  ``coeffs`` gives the {signed permutation:
Fraction} view for reading.

The idempotents built here live in the Mantaci-Reutenauer subalgebra: the
shape-sum basis, the classical descent-set sums of the symmetric group,
the Reutenauer idempotent on a letter block, the +/- sign-averaging
projectors, and their assembled products, summed over reorderings of a
signed composition.  The sign-forgetting projection relates the assembled
family to the classical Eulerian idempotents of the symmetric group.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

import numpy as np

from . import kernels
from .characters import ClassFunction, divide_exactly
from .groupdata import class_sweep, get_group
from .linalg import rank_exact
from .permutations import (
    SignedComposition,
    SignedPartition,
    SignedPerm,
    composition_blocks,
    composition_partial_sums,
    descent_set,
    forget_signs,
    identity,
    mr_shape,
    partitions,
    perm_to_str,
    signed_partitions,
)


class AlgebraElement:
    """Exact-rational linear combination of B_n elements.

    Stored as integer numerators over one shared denominator: ``num[i]``
    belongs to ``get_group(n).elements[i]``, ``den`` is positive and
    gcd(num, den) = 1, so equal elements have equal ``(num, den)``.
    ``num`` is read-only, int64 while every entry lies below
    ``kernels.INT64_BOUND`` and dtype=object past it.

    >>> x = AlgebraElement(1, {(1,): Fraction(1, 2), (-1,): Fraction(3, 4)})
    >>> x.num.tolist(), x.den
    ([3, 2], 4)
    >>> (2 * x).num.tolist(), (2 * x).den
    ([3, 2], 2)
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs: dict[SignedPerm, Fraction] | None = None):
        group = get_group(n)
        coeffs = coeffs or {}
        # a Fraction is already reduced; a zero is (0, 1) and stays zero
        ratios = [
            (c if type(c) is Fraction else Fraction(c)).as_integer_ratio()
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
        return self + (-1) * other

    def __rmul__(self, scalar) -> "AlgebraElement":
        if self.is_zero():
            return self
        p, q = Fraction(scalar).as_integer_ratio()
        num = self.num.astype(kernels.exact_dtype(kernels.max_abs(self.num) * abs(p)), copy=False)
        return AlgebraElement._reduced(self.n, num * p, self.den * q)

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, Fraction)):
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


def _relabel(w: tuple[int, ...], letters: tuple[int, ...], n: int) -> SignedPerm:
    """Embed w in S_m as the permutation of the sorted letters, fixing the rest."""
    img = list(range(1, n + 1))
    for pos, wi in zip(letters, w):
        img[pos - 1] = letters[wi - 1]
    return tuple(img)


def reutenauer_idempotent(n: int, letters) -> AlgebraElement:
    """The alternating descent-sum idempotent on a block of letters.

    sum over A of (-1)^|A| / (|A|+1) X_A, relabeled from 1..m onto the
    (sorted) letters; an idempotent of the symmetric group on that block.
    """
    letters = tuple(sorted(letters))
    if not letters:
        raise ValueError("letter block must be nonempty")
    m = len(letters)
    weights: dict[frozenset[int], Fraction] = {}
    for r in range(m):
        for subset in itertools.combinations(range(1, m), r):
            weights[frozenset(subset)] = Fraction((-1) ** r, r + 1)
    coeffs: dict[SignedPerm, Fraction] = {}
    for w in itertools.permutations(range(1, m + 1)):
        des = descent_set(w)
        c = sum(
            (wt for sub, wt in weights.items() if des <= sub), Fraction(0)
        )
        if c:
            coeffs[_relabel(w, letters, n)] = c
    return AlgebraElement(n, coeffs)


def epsilon(n: int, letters, sign: int) -> AlgebraElement:
    """Sign-averaging projector (1 +/- w_0 on the block)/2."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    w0j = identity(n)
    for i in letters:
        w0j = tuple(-x if abs(x) == i else x for x in w0j)
    coeffs = {identity(n): Fraction(1, 2)}
    coeffs[w0j] = coeffs.get(w0j, Fraction(0)) + Fraction(sign, 2)
    return AlgebraElement(n, coeffs)


def i_p(p: SignedComposition) -> AlgebraElement:
    """Descent sum times the per-block projector/idempotent chain for p."""
    n = sum(abs(x) for x in p)
    out = x_basis(n, composition_partial_sums(p))
    for part, block in zip(p, composition_blocks(p)):
        out = out * epsilon(n, block, 1 if part > 0 else -1)
        out = out * reutenauer_idempotent(n, block)
    return out


@lru_cache(maxsize=None)
def vazirani_idempotent(lam: SignedPartition) -> AlgebraElement:
    """Orthogonal idempotent attached to a signed partition: the average of
    the composition chains over all reorderings of the parts."""
    parts = lam[0] + tuple(-x for x in lam[1])
    total = AlgebraElement.zero(sum(lam[0]) + sum(lam[1]))
    for p in distinct_reorderings(parts):
        total = total + i_p(p)
    return Fraction(1, factorial(len(parts))) * total


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
    by_partition: dict[tuple[int, ...], AlgebraElement] = {}
    for lam in partitions(n):
        total = AlgebraElement.zero(n)
        for p in distinct_reorderings(lam):
            total = total + _gr_chain(n, p)
        by_partition[lam] = Fraction(1, factorial(len(lam))) * total
    e_ks = []
    for k in range(n):
        ek = AlgebraElement.zero(n)
        for lam, e in by_partition.items():
            if len(lam) == k + 1:
                ek = ek + e
        e_ks.append(ek)
    return by_partition, tuple(e_ks)


def _gr_chain(n: int, p: tuple[int, ...]) -> AlgebraElement:
    comp: SignedComposition = tuple(p)
    out = x_basis(n, composition_partial_sums(comp))
    for block in composition_blocks(comp):
        out = out * reutenauer_idempotent(n, block)
    return out


@lru_cache(maxsize=None)
def _forget_signs_index(n: int) -> np.ndarray:
    """Read-only index array: entry i is the index of forget_signs(elements[i])."""
    group = get_group(n)
    out = np.array([group.index[forget_signs(g)] for g in group.elements], dtype=np.intp)
    out.setflags(write=False)
    return out


def tau_map(x: AlgebraElement) -> AlgebraElement:
    """Push coefficients forward along sign forgetting, summing collisions.

    Each unsigned permutation collects 2^n numerators; int64 holds the sum
    below ``kernels.INT64_BOUND``, Python integers past it."""
    num = x.num.astype(kernels.exact_dtype(kernels.max_abs(x.num) << x.n), copy=False)
    out = np.zeros(len(num), dtype=num.dtype)
    np.add.at(out, _forget_signs_index(x.n), num)
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


def right_ideal_dimension_by_rank(e: AlgebraElement) -> int:
    """Independent oracle: rank of left multiplication by e on the group basis."""
    group = get_group(e.n)
    rows = [[Fraction(0)] * group.order for _ in range(group.order)]
    for g, c in e.coeffs.items():
        gi = group.index[g]
        # column y of the matrix is e*y; entry at row table[gi, y]
        for y in range(group.order):
            rows[int(group.table[gi, y])][y] += c
    return rank_exact(rows)


def distinct_reorderings(lam) -> list[tuple[int, ...]]:
    """Distinct reorderings of the parts of a partition."""
    return sorted(set(itertools.permutations(lam)))
