"""Signed permutations and their combinatorics.

A signed permutation on n letters is stored in one-line notation as a tuple
``(s(1), ..., s(n))`` with entries in ``{-n..-1, 1..n}`` whose absolute
values are a permutation of ``1..n``.  The image of ``-i`` is forced to be
``-s(i)``, so only the positive domain is stored.

Cycle types are signed partitions ``(positive, negative)``: a pair of
weakly decreasing tuples of positive integers with total size n.  An orbit
of ``i -> |s(i)|`` is a negative cycle exactly when the product of the
signs met along the orbit is -1.

>>> cycle_type((2, -3, 1, 7, -6, 5, 4))
((2,), (3, 2))
>>> mr_shape((3, 4, -1, -5, -2))
(2, -2, -1)
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

SignedPerm = tuple[int, ...]
SignedPartition = tuple[tuple[int, ...], tuple[int, ...]]
SignedComposition = tuple[int, ...]
# positive blocks, negative blocks; each a tuple of sorted tuples
SignedSetPartition = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]


def identity(n: int) -> SignedPerm:
    return tuple(range(1, n + 1))


def apply(s: SignedPerm, i: int) -> int:
    """Image of the signed letter i, with s(-i) = -s(i)."""
    return s[i - 1] if i > 0 else -s[-i - 1]


def letter(x: int) -> int:
    """Encode a signed index 1..n as a letter of the lifted space on the
    letters 0..n: ``x`` goes to ``x + 1`` and ``-x`` to ``-(x + 1)``, so that
    the marked letter 0 is 1 and its antipode -1."""
    if x == 0:
        raise ValueError("the marked letter 0 is encoded 1, its antipode -1")
    return x + 1 if x > 0 else x - 1


def unletter(e: int) -> int:
    """The signed index of an encoded letter other than the marked ones."""
    return e - 1 if e > 0 else e + 1


def compose(a: SignedPerm, b: SignedPerm) -> SignedPerm:
    """(a o b)(i) = a(b(i))."""
    if len(a) != len(b):
        raise ValueError(f"rank mismatch: {len(a)} vs {len(b)}")
    return tuple(apply(a, bi) for bi in b)


def inverse(s: SignedPerm) -> SignedPerm:
    out = [0] * len(s)
    for i, si in enumerate(s, start=1):
        if si > 0:
            out[si - 1] = i
        else:
            out[-si - 1] = -i
    return tuple(out)


def simple_reflection(n: int, i: int) -> SignedPerm:
    """The adjacent transposition exchanging i and i+1."""
    img = list(range(1, n + 1))
    img[i - 1], img[i] = img[i], img[i - 1]
    return tuple(img)


def sign_change(n: int, i: int) -> SignedPerm:
    """The reflection t_i sending i to -i."""
    img = list(range(1, n + 1))
    img[i - 1] = -i
    return tuple(img)


def group_generators(n: int) -> list[SignedPerm]:
    """Coxeter generators s_1..s_{n-1}, t_n."""
    gens = [simple_reflection(n, i) for i in range(1, n)]
    gens.append(sign_change(n, n))
    return gens


def longest_element(n: int) -> SignedPerm:
    return tuple(-i for i in range(1, n + 1))


def perm_to_str(s: SignedPerm) -> str:
    return ",".join(str(x) for x in s)


# ---------------------------------------------------------------------------
# cycle type and conjugacy classes


def cycle_type(s: SignedPerm) -> SignedPartition:
    """Signed partition (positive cycle lengths, negative cycle lengths)."""
    n = len(s)
    seen = [False] * (n + 1)
    pos, neg = [], []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length, sign, i = 0, 1, start
        while not seen[i]:
            seen[i] = True
            img = s[i - 1]
            if img < 0:
                sign = -sign
            i = abs(img)
            length += 1
        (pos if sign == 1 else neg).append(length)
    return tuple(sorted(pos, reverse=True)), tuple(sorted(neg, reverse=True))


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, weakly decreasing, in reverse-lex order."""
    if n == 0:
        return ((),)
    out = []

    def rec(rest: int, mx: int, acc: tuple[int, ...]):
        if rest == 0:
            out.append(acc)
            return
        for part in range(min(rest, mx), 0, -1):
            rec(rest - part, part, acc + (part,))

    rec(n, n, ())
    return tuple(out)


@lru_cache(maxsize=None)
def signed_partitions(n: int) -> tuple[SignedPartition, ...]:
    """All signed partitions of n, positives-heavy first."""
    out = []
    for a in range(n, -1, -1):
        for pos in partitions(a):
            for neg in partitions(n - a):
                out.append((pos, neg))
    return tuple(out)


def signed_partition_to_str(lam: SignedPartition) -> str:
    pos = ",".join(str(p) for p in lam[0])
    neg = ",".join(str(p) for p in lam[1])
    return f"({pos}|{neg})"


def centralizer_order(lam: SignedPartition) -> int:
    """Order of the centralizer of an element of cycle type lam.

    Each multiplicity-m family of parts of size k contributes (2k)^m m!.
    """
    order = 1
    for side in lam:
        for size in set(side):
            m = side.count(size)
            order *= (2 * size) ** m * factorial(m)
    return order


def group_order(n: int) -> int:
    return 2**n * factorial(n)


def class_size(n: int, lam: SignedPartition) -> int:
    return group_order(n) // centralizer_order(lam)


# ---------------------------------------------------------------------------
# standard class representatives and their centralizers


def _blocks(lam: SignedPartition) -> list[tuple[int, int, int]]:
    """Consecutive blocks (start, size, sign) covering 1..n, positives first."""
    out, start = [], 1
    for sign, side in ((1, lam[0]), (-1, lam[1])):
        for size in side:
            out.append((start, size, sign))
            start += size
    return out


def _positive_cycle(n: int, start: int, size: int) -> SignedPerm:
    """The cycle start -> start+1 -> ... -> start+size-1 -> start."""
    img = list(range(1, n + 1))
    for j in range(start, start + size - 1):
        img[j - 1] = j + 1
    img[start + size - 2] = start
    return tuple(img)


def _negative_cycle(n: int, start: int, size: int) -> SignedPerm:
    """As above but with start+size-1 -> -start; order 2*size."""
    img = list(_positive_cycle(n, start, size))
    img[start + size - 2] = -start
    return tuple(img)


def _w0_on(n: int, block: range) -> SignedPerm:
    img = list(range(1, n + 1))
    for j in block:
        img[j - 1] = -j
    return tuple(img)


def _block_cycle(n: int, start: int, size: int, sign: int) -> SignedPerm:
    if sign == 1:
        return _positive_cycle(n, start, size)
    if size % 2 == 1:
        # odd negative part: the positive cycle followed by -1 on the block
        return compose(
            _positive_cycle(n, start, size), _w0_on(n, range(start, start + size))
        )
    return _negative_cycle(n, start, size)


def standard_representative(lam: SignedPartition) -> SignedPerm:
    """Product of the standard block cycles, one per part of lam."""
    n = sum(lam[0]) + sum(lam[1])
    rep = identity(n)
    for start, size, sign in _blocks(lam):
        rep = compose(rep, _block_cycle(n, start, size, sign))
    return rep


def _block_swap(n: int, start: int, size: int) -> SignedPerm:
    """Swap the adjacent blocks [start, start+size) and [start+size, start+2*size)."""
    img = list(range(1, n + 1))
    for j in range(start, start + size):
        img[j - 1] = j + size
        img[j + size - 1] = j
    return tuple(img)


def centralizer_generators_labeled(
    lam: SignedPartition,
) -> list[tuple[str, int, SignedPerm]]:
    """Labeled generators (kind, part size, element) of the centralizer.

    Positive parts contribute the block cycle ("cycle+") and -1 on the block
    ("w0"), negative parts the negative block cycle ("cycle-"), and each
    adjacent pair of equal parts of equal sign a block swap ("swap").
    """
    n = sum(lam[0]) + sum(lam[1])
    blocks = _blocks(lam)
    gens: list[tuple[str, int, SignedPerm]] = []
    for start, size, sign in blocks:
        kind = "cycle+" if sign == 1 else "cycle-"
        gens.append((kind, size, _block_cycle(n, start, size, sign)))
        if sign == 1:
            gens.append(("w0", size, _w0_on(n, range(start, start + size))))
    for (s1, z1, g1), (_, z2, g2) in zip(blocks, blocks[1:]):
        if z1 == z2 and g1 == g2:
            gens.append(("swap", z1, _block_swap(n, s1, z1)))
    return gens


# ---------------------------------------------------------------------------
# Mantaci-Reutenauer descents and signed compositions


def descent_set(s: SignedPerm) -> frozenset[int]:
    """Type A descents of an unsigned one-line word."""
    return frozenset(i for i in range(1, len(s)) if s[i - 1] > s[i])


def mr_descent_set(s: SignedPerm) -> frozenset[int]:
    """Positions i where |s_i| > |s_{i+1}| with equal signs, or signs differ."""
    out = set()
    for i in range(1, len(s)):
        a, b = s[i - 1], s[i]
        if (a > 0) != (b > 0) or abs(a) > abs(b):
            out.add(i)
    return frozenset(out)


def mr_shape(s: SignedPerm) -> SignedComposition:
    """Signed block sizes cut at the Mantaci-Reutenauer descents."""
    cuts = sorted(mr_descent_set(s))
    bounds = [0] + cuts + [len(s)]
    shape = []
    for lo, hi in zip(bounds, bounds[1:]):
        size = hi - lo
        shape.append(size if s[lo] > 0 else -size)
    return tuple(shape)


def signed_compositions(n: int):
    """All signed integer compositions of n (2 * 3^(n-1) of them)."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in signed_compositions(n - first):
            yield (first,) + rest
            yield (-first,) + rest


def composition_partial_sums(p: SignedComposition) -> frozenset[int]:
    """The first len(p)-1 partial sums of |p|, a subset of [n-1]."""
    sums, acc = [], 0
    for part in p[:-1]:
        acc += abs(part)
        sums.append(acc)
    return frozenset(sums)


def composition_blocks(p: SignedComposition) -> tuple[tuple[int, ...], ...]:
    """Consecutive interval blocks of sizes |p_1|, |p_2|, ..."""
    out, start = [], 1
    for part in p:
        size = abs(part)
        out.append(tuple(range(start, start + size)))
        start += size
    return tuple(out)


def set_partition_shape(alpha: SignedSetPartition) -> SignedPartition:
    """Signed partition of block sizes."""
    pos = tuple(sorted((len(b) for b in alpha[0]), reverse=True))
    neg = tuple(sorted((len(b) for b in alpha[1]), reverse=True))
    return pos, neg
