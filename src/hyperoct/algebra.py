"""The exact-rational group algebra of B_n and its descent-type idempotents.

Elements are sparse dictionaries {signed permutation: Fraction}.  Products
go through the convolution kernel (hyperoct.kernels) on a
shared-denominator integer encoding.

The idempotents built here live in the Mantaci-Reutenauer subalgebra: the
shape-sum basis, the classical descent-set sums of the symmetric group,
the Reutenauer idempotent on a letter block, the +/- sign-averaging
projectors, and their assembled products, summed over reorderings of a
signed composition.  The sign-forgetting projection relates the assembled
family to the classical Eulerian idempotents of the symmetric group.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from . import kernels
from .characters import ClassFunction
from .groupdata import get_group
from .linalg import rank_exact
from .permutations import (
    SignedComposition,
    SignedPartition,
    SignedPerm,
    composition_blocks,
    composition_partial_sums,
    composition_sort,
    descent_set,
    forget_signs,
    identity,
    mr_shape,
    partitions,
    perm_from_str,
    perm_to_str,
    signed_compositions,
    signed_partitions,
    standard_representative,
)


class AlgebraElement:
    """Exact-rational linear combination of B_n elements (no stored zeros)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict[SignedPerm, Fraction] | None = None):
        self.n = n
        self.coeffs = {
            g: Fraction(c) for g, c in (coeffs or {}).items() if c
        }

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
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, Fraction(0)) + c
        return AlgebraElement(self.n, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "AlgebraElement":
        scalar = Fraction(scalar)
        return AlgebraElement(self.n, {g: scalar * c for g, c in self.coeffs.items()})

    def _scaled(self, group):
        den = lcm(*(c.denominator for c in self.coeffs.values())) if self.coeffs else 1
        idx, num = [], []
        for g, c in self.coeffs.items():
            idx.append(group.index[g])
            num.append(c.numerator * (den // c.denominator))
        return idx, num, den

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, Fraction)):
            return self.__rmul__(other)
        self._check(other)
        if not self.coeffs or not other.coeffs:
            return AlgebraElement.zero(self.n)
        group = get_group(self.n)
        idx_a, num_a, den_a = self._scaled(group)
        idx_b, num_b, den_b = other._scaled(group)
        dense = kernels.convolve_dense(group, idx_a, num_a, idx_b, num_b)
        den = den_a * den_b
        return AlgebraElement(
            self.n,
            {group.elements[k]: Fraction(v, den) for k, v in enumerate(dense) if v},
        )

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_idempotent(self) -> bool:
        return self * self == self

    def support_size(self) -> int:
        return len(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "AlgebraElement(0)"
        parts = [
            f"{c}*({perm_to_str(g)})" for g, c in sorted(self.coeffs.items())
        ]
        return " + ".join(parts)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        terms = {
            perm_to_str(g): f"{c.numerator}/{c.denominator}"
            for g, c in sorted(self.coeffs.items())
        }
        return json.dumps({"n": self.n, "terms": terms}, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "AlgebraElement":
        obj = json.loads(text)
        coeffs = {perm_from_str(k): Fraction(v) for k, v in obj["terms"].items()}
        return AlgebraElement(obj["n"], coeffs)


# ---------------------------------------------------------------------------
# descent-type basis elements


@lru_cache(maxsize=None)
def _shape_index(n: int) -> dict[SignedComposition, tuple[SignedPerm, ...]]:
    buckets: dict[SignedComposition, list[SignedPerm]] = {}
    for g in get_group(n).elements:
        buckets.setdefault(mr_shape(g), []).append(g)
    return {a: tuple(gs) for a, gs in buckets.items()}


def y_basis(alpha: SignedComposition) -> AlgebraElement:
    """Sum of all signed permutations of the given shape."""
    n = sum(abs(a) for a in alpha)
    members = _shape_index(n).get(tuple(alpha), ())
    return AlgebraElement(n, {g: Fraction(1) for g in members})


def x_basis(n: int, subset) -> AlgebraElement:
    """Sum of the unsigned permutations whose descent set lies in ``subset``."""
    allowed = frozenset(subset)
    if not allowed <= set(range(1, n)):
        raise ValueError("subset must lie in 1..n-1")
    coeffs = {}
    for w in itertools.permutations(range(1, n + 1)):
        if descent_set(w) <= allowed:
            coeffs[w] = Fraction(1)
    return AlgebraElement(n, coeffs)


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
    n = sum(lam[0]) + sum(lam[1])
    parts = len(lam[0]) + len(lam[1])
    total = AlgebraElement.zero(n)
    for p in signed_compositions(n):
        if composition_sort(p) == lam:
            total = total + i_p(p)
    return Fraction(1, factorial(parts)) * total


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


def tau_map(x: AlgebraElement) -> AlgebraElement:
    """Push coefficients forward along sign forgetting, summing collisions."""
    out: dict[SignedPerm, Fraction] = {}
    for g, c in x.coeffs.items():
        key = forget_signs(g)
        out[key] = out.get(key, Fraction(0)) + c
    return AlgebraElement(x.n, out)


# ---------------------------------------------------------------------------
# characters of idempotent-generated right ideals


def right_ideal_character(e: AlgebraElement) -> ClassFunction:
    """Character of the right ideal e * Q[B_n].

    chi(g) = sum over x of the coefficient of x g^{-1} x^{-1} in e, the
    trace of right translation on the ideal.  Requires e idempotent.
    """
    if not e.is_idempotent():
        raise ValueError("element is not idempotent")
    n = e.n
    group = get_group(n)
    dense = [Fraction(0)] * group.order
    for g, c in e.coeffs.items():
        dense[group.index[g]] = c
    vals = []
    for lam in signed_partitions(n):
        gi = group.index[standard_representative(lam)]
        conj = group.conjugates(int(group.inv[gi]))
        total = Fraction(0)
        for x in range(group.order):
            total += dense[int(conj[x])]
        vals.append(total)
    return ClassFunction(n, tuple(vals))


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
