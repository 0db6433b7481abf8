"""Finite chamber model for the d = 1 spaces.

A chamber is a connected component of the lifted d = 1 space: a cyclic
arrangement of the letters 0..n and their antipodes, normalized to start
at 0.  We store only the half-word after 0; the full cyclic word is

    (0, a_1, ..., a_n, -0, -a_1, ..., -a_n).

Letters are encoded as nonzero integers so that the antipode is negation:
letter x in 0..n is ``x + 1``, its antipode ``-(x + 1)``; in particular
the marked letter 0 is encoded 1 and -0 is encoded -1.

Every cyclic-order indicator on every chamber is one boolean array per
rank; the indexed products of these indicators realize the d = 1 function
ring, giving a semantic oracle for the rewrite engine in hyperoct.rings.
The evaluation of the nbc monomials reads the ring Z1, on which B_{n+1}
acts (B_n through its lift, the elements fixing the marked letter), and
stays bit-packed over the chambers up to its GF(2) rank.  The chamber
action has a scalar definition (``chamber_action``) and an array pass over
many group elements at once (``chamber_images``); the elements are rows of
``groupdata.element_rows``, in the one numbering of ``get_group``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from functools import lru_cache

import numpy as np

from .groupdata import element_rows
from .linalg import full_rank_certificate, pack_rows
from .permutations import SignedPerm, apply, letter
from .rings import get_ring

Chamber = tuple[int, ...]  # encoded letters, length n, distinct moduli in 2..n+1

ZERO = 1
NEG_ZERO = -1


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


def chamber_action(sigma: SignedPerm, ch: Chamber) -> Chamber:
    """Relabel the cyclic word by sigma (in B_{n+1}, letter 0 is position 1)
    and rotate the result to start at 0."""
    n = len(ch)
    if len(sigma) != n + 1:
        raise ValueError("chamber action takes an element of rank n+1")
    word = [apply(sigma, e) for e in full_word(ch)]
    at = word.index(ZERO)
    return tuple(word[(at + t) % len(word)] for t in range(1, n + 1))


def chamber_images(sigmas: np.ndarray, ch: Chamber) -> np.ndarray:
    """``chamber_action`` of every row of ``sigmas`` (elements of B_{n+1})
    on ch, one image chamber per row."""
    word = np.array(full_word(ch))
    image = sigmas[:, np.abs(word) - 1] * np.sign(word).astype(sigmas.dtype)
    at = np.argmax(image == ZERO, axis=1)
    after = (at[:, None] + np.arange(1, len(ch) + 1)) % len(word)
    return np.take_along_axis(image, after, axis=1)


def chamber_stabilizer(n: int, ch: Chamber) -> list[SignedPerm]:
    """The elements of B_{n+1} fixing ch, in the order of
    ``get_group(n + 1).elements``."""
    sigmas = element_rows(n + 1)
    fixed = (chamber_images(sigmas, ch) == ch).all(axis=1)
    return [tuple(s) for s in sigmas[fixed].tolist()]


def base_chamber(n: int) -> Chamber:
    return tuple(letter(i) for i in range(1, n + 1))


def base_chamber_cycler(n: int) -> SignedPerm:
    """The negative cycle through the letters 0, 1, ..., n in order; it
    generates the stabilizer of the base chamber."""
    return tuple(list(range(2, n + 2)) + [-1])


def cyclic_letters(n: int) -> tuple[int, ...]:
    """The letters 0, -0, 1, -1, ..., n, -n (encoded); the axes of
    ``cyclic_indicators``, where the antipode of index t is index t ^ 1."""
    return tuple(e for x in range(1, n + 2) for e in (x, -x))


def _index(e):
    """The position of an encoded letter (or array of them) in ``cyclic_letters``."""
    return 2 * (abs(e) - 1) + (e < 0)


@lru_cache(maxsize=None)
def cyclic_indicators(n: int) -> np.ndarray:
    """Read-only boolean ``y[a, b, c, r]``: the letters with indices a, b, c
    in ``cyclic_letters(n)`` sit counter-clockwise on chamber r of
    ``all_chambers(n)``, i.e. b comes before c when the word is read from
    a.  Entries with a repeated letter are False."""
    words = np.array([full_word(ch) for ch in all_chambers(n)], dtype=np.int64)
    rows, size = words.shape
    # pos[t, r] is the position of letter t in the word of chamber r
    pos = np.empty((size, rows), dtype=np.int64)
    pos[_index(words), np.arange(rows)[:, None]] = np.arange(size)
    y = np.empty((size, size, size, rows), dtype=bool)
    for a in range(size):
        d = (pos - pos[a]) % size
        np.less(d[:, None], d[None, :], out=y[a])
        y[a, a] = False
    y.flags.writeable = False
    return y


def generator_columns(n: int, gens) -> dict:
    """Each generator or label on every chamber of ``all_chambers(n)``, a
    read-only boolean column of ``cyclic_indicators(n)``: loop ``(a,)`` is
    the order of (0, -0, a), pair label ``(a, b)`` of (0, a, b), canonical
    pair ``(i, j, s)`` of (0, i, s j)."""
    y = cyclic_indicators(n)
    out = {}
    for g in gens:
        if len(g) == 1:
            b, c = NEG_ZERO, letter(g[0])
        else:
            b, c = letter(g[0]), letter(g[1] if len(g) == 2 else g[2] * g[1])
        out[g] = y[_index(ZERO), _index(b), _index(c)]
    return out


def evaluation_matrix(n: int):
    """Every nbc monomial evaluated on every chamber, as bit-packed rows,
    with the rank.

    Row k is monomial k of ``nbc_basis()`` of Z1 packed over
    ``all_chambers(n)`` by ``linalg.pack_rows``, so the bits past the last
    chamber are zero; ``linalg.unpack_rows`` gives the 0/1 matrix.  The
    evaluation reads no group action, so it serves the B_n and the lifted
    B_{n+1} action on Z1 alike.  Rank 2^n n! (full) certifies the monomials
    are a basis of the function ring.  The rank is returned, not checked.

    A monomial's row is the AND of the row of its prefix (the monomial
    without its top generator) and its top generator's row.  Monomial
    order is degree first, so each degree is one array step over rows of
    the degree before.
    """
    ring = get_ring("Z1", n)
    gens = sorted(ring.bits, key=ring.bits.get)  # generator k has bit k
    columns = generator_columns(n, gens)
    gen_rows = pack_rows([columns[g] for g in gens])
    masks = ring.nbc_masks()
    index = {m: k for k, m in enumerate(masks)}
    top = [m.bit_length() - 1 for m in masks]  # -1 for the empty monomial
    prefix = np.array([index[m ^ 1 << t] if m else 0 for m, t in zip(masks, top)])
    top = np.array(top)
    degrees = [m.bit_count() for m in masks]
    chambers = len(all_chambers(n))
    rows = np.empty((len(masks), gen_rows.shape[1]), dtype=gen_rows.dtype)
    rows[0] = pack_rows(np.ones((1, chambers), dtype=bool))[0]
    for d in range(1, degrees[-1] + 1):
        k = slice(bisect_left(degrees, d), bisect_right(degrees, d))
        rows[k] = rows[prefix[k]] & gen_rows[top[k]]
    return rows, full_rank_certificate(rows, chambers)
