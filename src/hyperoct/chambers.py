"""Finite chamber model for the d = 1 spaces.

A chamber is a connected component of the lifted d = 1 space: a cyclic
arrangement of the letters 0..n and their antipodes, normalized to start
at 0.  We store only the half-word after 0; the full cyclic word is

    (0, a_1, ..., a_n, -0, -a_1, ..., -a_n).

Letters are encoded as nonzero integers so that the antipode is negation:
letter x in 0..n is ``x + 1``, its antipode ``-(x + 1)``; in particular
the marked letter 0 is encoded 1 and -0 is encoded -1.

Cyclic-order indicators evaluate to 0/1 on each chamber; the indexed
products of these indicators realize the d = 1 function ring, giving a
semantic oracle for the rewrite engine in hyperoct.rings.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .linalg import full_rank_certificate
from .permutations import SignedPerm, apply
from .rings import get_ring

Chamber = tuple[int, ...]  # encoded letters, length n, distinct moduli in 2..n+1

ZERO = 1
NEG_ZERO = -1


def letter(x: int) -> int:
    """Encode a signed letter 1..n (0 itself is ZERO / NEG_ZERO)."""
    if x == 0:
        raise ValueError("use ZERO or NEG_ZERO for the marked letter")
    return x + 1 if x > 0 else x - 1


def letter_to_str(e: int) -> str:
    mag = abs(e) - 1
    return str(mag) if e > 0 else f"-{mag}"


def letter_from_str(text: str) -> int:
    if text == "0":
        return ZERO
    if text == "-0":
        return NEG_ZERO
    return letter(int(text))


@lru_cache(maxsize=None)
def all_chambers(n: int) -> tuple[Chamber, ...]:
    out = []
    for base in itertools.permutations(range(2, n + 2)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(tuple(e * s for e, s in zip(base, signs)))
    return tuple(sorted(out))


def full_word(ch: Chamber) -> tuple[int, ...]:
    return (ZERO,) + ch + (NEG_ZERO,) + tuple(-x for x in ch)


def chamber_to_str(ch: Chamber) -> str:
    return "(" + ",".join(letter_to_str(e) for e in full_word(ch)) + ")"


def chamber_from_str(text: str) -> Chamber:
    body = text.strip().strip("()")
    word = tuple(letter_from_str(t) for t in body.split(","))
    if word[0] != ZERO:
        raise ValueError("chamber word must start at 0")
    n = len(word) // 2 - 1
    ch = word[1 : n + 1]
    if full_word(ch) != word:
        raise ValueError(f"not an antipodally symmetric word: {text!r}")
    return ch


def evaluate_y(i: int, j: int, k: int, ch: Chamber) -> int:
    """1 iff the letters i, j, k sit in counter-clockwise cyclic order."""
    if len({i, j, k}) != 3:
        raise ValueError("letters must be pairwise distinct")
    word = full_word(ch)
    size = len(word)
    pos = {e: p for p, e in enumerate(word)}
    return 1 if (pos[j] - pos[i]) % size < (pos[k] - pos[i]) % size else 0


def evaluate_z(gen, ch: Chamber) -> int:
    """Evaluate a pair or loop generator label through the letter triple."""
    if len(gen) == 1:
        return evaluate_y(ZERO, NEG_ZERO, letter(gen[0]), ch)
    if len(gen) == 2:
        return evaluate_y(ZERO, letter(gen[0]), letter(gen[1]), ch)
    i, j, s = gen
    return evaluate_y(ZERO, letter(i), letter(s * j), ch)


def chamber_action(sigma: SignedPerm, ch: Chamber) -> Chamber:
    """Relabel the cyclic word by sigma (in B_{n+1}, letter 0 is position 1)
    and rotate the result to start at 0."""
    n = len(ch)
    if len(sigma) != n + 1:
        raise ValueError("chamber action takes an element of rank n+1")
    word = [apply(sigma, e) for e in full_word(ch)]
    at = word.index(ZERO)
    return tuple(word[(at + t) % len(word)] for t in range(1, n + 1))


def chamber_stabilizer(n: int, ch: Chamber) -> list[SignedPerm]:
    from .permutations import all_signed_perms

    return [
        s for s in all_signed_perms(n + 1) if chamber_action(s, ch) == ch
    ]


def base_chamber(n: int) -> Chamber:
    return tuple(letter(i) for i in range(1, n + 1))


def base_chamber_cycler(n: int) -> SignedPerm:
    """The negative cycle through the letters 0, 1, ..., n in order; it
    generates the stabilizer of the base chamber."""
    return tuple(list(range(2, n + 2)) + [-1])


def generator_columns(n: int, gens) -> dict:
    """Each canonical generator evaluated on every chamber of
    ``all_chambers(n)`` at once, as a boolean column.

    The same values as ``evaluate_z``, which stays the per-chamber
    definition: the position of every letter in every chamber's word is
    computed once, and a generator compares three columns of positions.
    """
    words = np.array([full_word(ch) for ch in all_chambers(n)], dtype=np.int64)
    rows, size = words.shape
    # pos[r, e + n + 1] is the position of letter e in the word of chamber r
    pos = np.empty((rows, 2 * n + 3), dtype=np.int64)
    pos[np.arange(rows)[:, None], words + n + 1] = np.arange(size)

    def at(e: int):
        return pos[:, e + n + 1]

    out = {}
    for g in gens:
        if len(g) == 1:
            i, j, k = ZERO, NEG_ZERO, letter(g[0])
        else:
            i, j, k = ZERO, letter(g[0]), letter(g[2] * g[1])
        out[g] = (at(j) - at(i)) % size < (at(k) - at(i)) % size
    return out


def evaluation_matrix(n: int):
    """0/1 matrix of all nbc monomials evaluated on all chambers, with rank.

    Rows are chambers, columns nbc monomials of the lifted d = 1 space in
    marked-point coordinates; rank 2^n n! (full) certifies the monomials
    are a basis of the function ring.  The rank is returned, not checked.
    A monomial's column is the AND of its generators' columns.
    """
    ring = get_ring("Y1", n)
    basis = ring.nbc_basis()
    columns = generator_columns(n, ring.gens)
    mat = np.ones((len(all_chambers(n)), len(basis)), dtype=np.int64)
    for c, mono in enumerate(basis):
        for g in mono:
            mat[:, c] &= columns[g]
    return mat, full_rank_certificate(mat)
