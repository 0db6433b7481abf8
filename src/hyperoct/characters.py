"""Character theory of the hyperoctahedral group, over the integers.

Irreducible characters are indexed by signed partitions and built by the
standard recipe: pull back a symmetric-group character along the
sign-forgetting map for the all-positive labels, twist by the
negative-count sign character for the all-negative labels, and combine the
two sides with an induction product computed by class fusion.

Symmetric-group values come from the Murnaghan-Nakayama recursion on
beta-sets.  Induction from explicitly enumerated subgroups is done by a
full conjugation sweep over the ambient group (``groupdata.class_sweep``),
which is cheap at desk scale and sidesteps fusion bookkeeping for
irregular subgroups.  A subgroup character's root-of-unity values are
kept as integer exponents.

Every character of B_n is integer-valued, so a class function is a tuple
of Python ints; the producers that divide go through ``divide_exactly``,
which raises ArithmeticError at the first inexact quotient.  Only
``inner_product`` returns a Fraction.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .cyclotomic import power_rows
from .groupdata import class_sweep, get_group
from .permutations import (
    SignedPartition,
    SignedPerm,
    centralizer_generators_labeled,
    class_size,
    compose,
    group_order,
    signed_partition_to_str,
    signed_partitions,
    standard_representative,
)

# ---------------------------------------------------------------------------
# symmetric group characters (Murnaghan-Nakayama)


def _beta_set(lam: tuple[int, ...]) -> tuple[int, ...]:
    length = len(lam)
    return tuple(lam[i] + (length - 1 - i) for i in range(length))


def _beta_to_partition(beta: tuple[int, ...]) -> tuple[int, ...]:
    beta = tuple(sorted(beta, reverse=True))
    lam = tuple(
        b - (len(beta) - 1 - i) for i, b in enumerate(beta) if b - (len(beta) - 1 - i) > 0
    )
    return lam


@lru_cache(maxsize=None)
def sn_character_value(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """chi^lam evaluated on the S_n class of cycle type mu (|lam| = |mu|)."""
    if sum(lam) != sum(mu):
        raise ValueError("size mismatch")
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    beta = _beta_set(lam)
    beta_set = set(beta)
    total = 0
    for b in beta:
        if b >= k and (b - k) not in beta_set:
            height = sum(1 for c in beta if b - k < c < b)
            new_beta = tuple(c for c in beta if c != b) + (b - k,)
            total += (-1) ** height * sn_character_value(
                _beta_to_partition(new_beta), rest
            )
    return total


def underlying_type(lam: SignedPartition) -> tuple[int, ...]:
    """Cycle type of the sign-forgotten permutation: all parts pooled."""
    return tuple(sorted(lam[0] + lam[1], reverse=True))


# ---------------------------------------------------------------------------
# class functions


@dataclass(frozen=True)
class ClassFunction:
    """A function on the conjugacy classes of B_n with Python int values."""

    n: int
    values: tuple[int, ...]  # indexed like signed_partitions(n)

    def __getitem__(self, lam: SignedPartition) -> int:
        return self.values[_class_positions(self.n)[lam]]

    @property
    def degree(self) -> int:
        return self[((1,) * self.n, ())]

    def _binop(self, other, op) -> "ClassFunction":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return ClassFunction(
            self.n, tuple(op(a, b) for a, b in zip(self.values, other.values))
        )

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            return self._binop(other, lambda a, b: a * b)
        k = operator.index(other)
        return ClassFunction(self.n, tuple(a * k for a in self.values))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.values)


@lru_cache(maxsize=None)
def _class_positions(n: int) -> dict[SignedPartition, int]:
    return {lam: i for i, lam in enumerate(signed_partitions(n))}


@lru_cache(maxsize=None)
def _class_sizes(n: int) -> tuple[int, ...]:
    """Class sizes of B_n, indexed like signed_partitions(n)."""
    return tuple(class_size(n, lam) for lam in signed_partitions(n))


def divide_exactly(n: int, sums, divisor) -> ClassFunction:
    """The class function sums / divisor, for integer ``sums`` indexed like
    signed_partitions(n) and a positive ``divisor``, one int or one per
    class.  A quotient that is not an integer raises ArithmeticError naming
    its class."""
    divisors = [divisor] * len(sums) if isinstance(divisor, int) else divisor
    values = []
    for lam, s, d in zip(signed_partitions(n), sums, divisors):
        q, r = divmod(s, d)
        if r:
            raise ArithmeticError(
                f"value {s}/{d} at class {signed_partition_to_str(lam)} is not an integer"
            )
        values.append(q)
    return ClassFunction(n, tuple(values))


def inner_product(chi: ClassFunction, psi: ClassFunction) -> Fraction:
    """(1/|B_n|) sum over classes of |C| chi(C) psi(C); values here are real."""
    if chi.n != psi.n:
        raise ValueError("rank mismatch")
    n = chi.n
    total = sum(
        size * a * b for size, a, b in zip(_class_sizes(n), chi.values, psi.values)
    )
    return Fraction(total, group_order(n))


# ---------------------------------------------------------------------------
# irreducible characters of B_n


def pullback_character(lam: tuple[int, ...], n: int) -> ClassFunction:
    """chi^{lam, empty}: the S_n character evaluated on the sign-forgotten type."""
    if sum(lam) != n:
        raise ValueError("lam must be a partition of n")
    vals = [sn_character_value(lam, underlying_type(mu)) for mu in signed_partitions(n)]
    return ClassFunction(n, tuple(vals))


def negative_count_sign(n: int) -> ClassFunction:
    """chi^{empty,(n)}: sign of the number of negative one-line entries."""
    vals = [
        (-1) ** sum(1 for x in standard_representative(mu) if x < 0)
        for mu in signed_partitions(n)
    ]
    return ClassFunction(n, tuple(vals))


def _fuse(a: SignedPartition, b: SignedPartition) -> SignedPartition:
    pos = tuple(sorted(a[0] + b[0], reverse=True))
    neg = tuple(sorted(a[1] + b[1], reverse=True))
    return pos, neg


def induction_product(chi_a: ClassFunction, chi_b: ClassFunction) -> ClassFunction:
    """Induce chi_a x chi_b from B_a x B_b to B_{a+b} via class fusion:
    the value on a class C is |B_n| / (|C| |B_a x B_b|) times the sum of
    |D_a| |D_b| chi_a(D_a) chi_b(D_b) over the class pairs fusing into C."""
    a, b = chi_a.n, chi_b.n
    n = a + b
    positions = _class_positions(n)
    sums = [0] * len(positions)
    for da, wa in zip(signed_partitions(a), _weighted(chi_a)):
        if wa:
            for db, wb in zip(signed_partitions(b), _weighted(chi_b)):
                sums[positions[_fuse(da, db)]] += wa * wb
    order_n, order_h = group_order(n), group_order(a) * group_order(b)
    return divide_exactly(
        n, [s * order_n for s in sums], [size * order_h for size in _class_sizes(n)]
    )


def _weighted(chi: ClassFunction) -> list[int]:
    """|C| chi(C) for every class C."""
    return [size * v for size, v in zip(_class_sizes(chi.n), chi.values)]


def bn_irreducible(lam: SignedPartition) -> ClassFunction:
    """The irreducible character indexed by the signed partition lam."""
    pos, neg = lam
    n = sum(pos) + sum(neg)
    if not neg:
        return pullback_character(pos, n)
    if not pos:
        return pullback_character(neg, n) * negative_count_sign(n)
    return induction_product(
        bn_irreducible((pos, ())), bn_irreducible(((), neg))
    )


@lru_cache(maxsize=None)
def character_table(n: int) -> dict[SignedPartition, ClassFunction]:
    """All irreducible characters of B_n, keyed by signed partition."""
    return {lam: bn_irreducible(lam) for lam in signed_partitions(n)}


def decompose(chi: ClassFunction) -> dict[SignedPartition, int]:
    """Multiplicities of chi in the irreducible basis; rejects non-characters."""
    table = character_table(chi.n)
    mults: dict[SignedPartition, int] = {}
    residual = chi
    for lam, irr in table.items():
        m = inner_product(chi, irr)
        if m.denominator != 1 or m < 0:
            raise ValueError(f"non-integral or negative multiplicity {m} at {lam}")
        if m:
            mults[lam] = int(m)
            residual = residual - int(m) * irr
    if not residual.is_zero():
        raise ValueError("residual after decomposition is nonzero")
    return mults


def regular_character(n: int) -> ClassFunction:
    vals = [0] * len(signed_partitions(n))
    vals[_class_positions(n)[((1,) * n, ())]] = group_order(n)
    return ClassFunction(n, tuple(vals))


# ---------------------------------------------------------------------------
# induced characters from explicit subgroups


def rho_character(lam: SignedPartition) -> tuple[int, dict[SignedPerm, int]]:
    """The centralizer of the standard representative with its root-of-unity
    character, as ``(ambient, exponents)``: g maps to w^exponents[g] for w a
    primitive ``ambient``-th root of unity.  Block cycles map to primitive
    roots (order of the cycle), block sign-flips and block swaps to 1.

    The exponents are built by multiplicative closure mod ``ambient``; a
    conflicting exponent on some element raises, certifying
    well-definedness on every run.
    """
    n = sum(lam[0]) + sum(lam[1])
    ambient = lcm(1, *[s for s in lam[0]], *[2 * s for s in lam[1]])
    gens: list[tuple[SignedPerm, int]] = []
    for kind, size, g in centralizer_generators_labeled(lam):
        if kind == "cycle+":
            exp = ambient // size
        elif kind == "cycle-":
            exp = ambient // (2 * size)
        else:
            exp = 0
        gens.append((g, exp))
    ident = tuple(range(1, n + 1))
    exponents: dict[SignedPerm, int] = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            eg = exponents[g]
            for h, eh in gens:
                gh = compose(g, h)
                egh = (eg + eh) % ambient
                known = exponents.get(gh)
                if known is None:
                    exponents[gh] = egh
                    nxt.append(gh)
                elif known != egh:
                    raise ArithmeticError(
                        f"inconsistent character value on {gh}; not a homomorphism"
                    )
        frontier = nxt
    return ambient, exponents


def induce_character(
    character: tuple[int, dict[SignedPerm, int]], n: int
) -> ClassFunction:
    """Induce a 1-dimensional character ``(ambient, {element: exponent})``,
    with values w^exponent for w a primitive ``ambient``-th root of unity,
    from the subgroup H it is defined on up to B_n.

    chi_up(g) = (1/|H|) sum over x in B_n with x g x^{-1} in H of
    chi(x g x^{-1}).  The sweep counts, per class, how often each exponent
    is hit (code ``ambient`` off H); the counts times ``power_rows(ambient)``
    are the sum in the power basis of Q(w).  The sum must be rational, and
    its quotient by |H| an integer; otherwise ArithmeticError names the
    class.
    """
    ambient, exponents = character
    group = get_group(n)
    codes = np.full(group.order, ambient, dtype=np.intp)
    codes[[group.index[g] for g in exponents]] = [e % ambient for e in exponents.values()]
    counts = np.stack(
        [np.bincount(codes[row], minlength=ambient + 1) for row in class_sweep(n)]
    )
    sums = counts[:, :ambient] @ power_rows(ambient)
    irrational = np.flatnonzero(sums[:, 1:].any(axis=1))
    if len(irrational):
        lam = signed_partitions(n)[irrational[0]]
        raise ArithmeticError(
            f"induced character has an irrational value at class {signed_partition_to_str(lam)}"
        )
    return divide_exactly(n, sums[:, 0].tolist(), len(exponents))


def coxeter_element(n: int) -> SignedPerm:
    """The standard negative n-cycle; any Coxeter element is conjugate to it."""
    return standard_representative(((), (n,)))


def cyclic_subgroup(g: SignedPerm) -> list[SignedPerm]:
    n = len(g)
    out, cur = [], tuple(range(1, n + 1))
    while True:
        out.append(cur)
        cur = compose(cur, g)
        if cur == out[0]:
            return out


def coset_permutation_character(n: int, subgroup) -> ClassFunction:
    """Character of B_n permuting the left cosets of ``subgroup``.

    Counted directly as fixed cosets under left translation (independent of
    the induction-formula route, so the two can cross-check each other).
    """
    group = get_group(n)
    # the least index in x H labels the coset x H, and lies in it
    coset_of = group.table[:, [group.index[h] for h in subgroup]].min(axis=1)
    reps = np.unique(coset_of)
    vals = []
    for lam in signed_partitions(n):
        moved = group.table[group.index[standard_representative(lam)], reps]
        vals.append(int(np.count_nonzero(coset_of[moved] == reps)))
    return ClassFunction(n, tuple(vals))
