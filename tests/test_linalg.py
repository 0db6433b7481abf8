import random
from fractions import Fraction

import numpy as np
import pytest

from hyperoct import linalg


def _gf2_rank_by_bitmasks(rows):
    """Elimination on Python integers as bit rows, largest leading bit first."""
    vals = [sum(1 << j for j, x in enumerate(row) if x % 2) for row in rows]
    rank = 0
    while vals:
        v = max(vals)
        vals.remove(v)
        if not v:
            break
        rank += 1
        top = 1 << (v.bit_length() - 1)
        vals = [x ^ v if x & top else x for x in vals]
    return rank


def _rank_by_fraction_elimination(rows):
    """Gauss-Jordan over Q, one Fraction at a time."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _random_01(rng, rows, cols):
    density = rng.choice((0.1, 0.5, 0.9))
    m = [[int(rng.random() < density) for _ in range(cols)] for _ in range(rows)]
    if rows > 2 and rng.random() < 0.5:  # a repeated row, or the mod-2 sum of two
        m[-1] = list(m[0]) if rng.random() < 0.5 else [a ^ b for a, b in zip(m[0], m[1])]
    return m


@pytest.mark.parametrize("seed", range(5))
def test_rank_gf2_matches_bitmask_elimination(seed):
    rng = random.Random(seed)
    for _ in range(40):
        # widths around the 64-bit word boundaries of the packing
        m = _random_01(rng, rng.randint(1, 20), rng.choice((1, 7, 63, 64, 65, 130)))
        assert linalg.rank_gf2(m) == _gf2_rank_by_bitmasks(m)


@pytest.mark.parametrize("seed", range(5))
def test_full_rank_certificate_matches_rank_exact(seed):
    rng = random.Random(100 + seed)
    for _ in range(40):
        rows = rng.randint(1, 12)
        m = _random_01(rng, rows, rng.randint(rows, 16))
        exact = linalg.rank_exact(m)
        assert linalg.full_rank_certificate(m) == exact
        assert linalg.rank_gf2(m) <= exact


@pytest.mark.parametrize("seed", range(5))
def test_rank_exact_matches_fraction_elimination(seed):
    rng = random.Random(200 + seed)
    for _ in range(40):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        m = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(cols)]
            for _ in range(rows)
        ]
        if rows > 2 and rng.random() < 0.5:
            m[-1] = [3 * a - Fraction(1, 2) * b for a, b in zip(m[0], m[1])]
        assert linalg.rank_exact(m) == _rank_by_fraction_elimination(m)


def test_mod2_deficient_full_rank_matrix_reaches_the_fallback(monkeypatch):
    # det = 2: rank 2 over GF(2), rank 3 over Q
    m = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert linalg.rank_gf2(m) == 2
    calls = []
    honest = linalg.rank_mod_p

    def rank_mod_p(matrix):
        calls.append(matrix)
        return honest(matrix)

    monkeypatch.setattr(linalg, "rank_mod_p", rank_mod_p)
    assert linalg.full_rank_certificate(m) == 3
    assert len(calls) == 1


@pytest.mark.parametrize("seed", range(3))
def test_rank_exact_widens_from_int64_when_minors_pass_the_bound(seed, monkeypatch):
    # entries below 2^31 start the elimination on int64; the 2x2 minors
    # formed by the first pivot step are near 2^40, so the matrix must
    # widen to Python integers before the second step
    rng = random.Random(300 + seed)
    m = [[rng.randint(-(2**20), 2**20) for _ in range(7)] for _ in range(6)]
    m.append([2 * a - 3 * b + c for a, b, c in zip(m[0], m[1], m[2])])
    assert max(abs(x) for row in m for x in row) < linalg._INT64_SAFE
    widened = []
    honest = linalg._widened

    def spy(matrix):
        widened.append((matrix.dtype, int(abs(matrix).max())))
        return honest(matrix)

    monkeypatch.setattr(linalg, "_widened", spy)
    assert linalg.rank_exact(m) == _rank_by_fraction_elimination(m) == 6
    assert len(widened) == 1
    dtype, largest = widened[0]
    assert dtype == np.int64 and largest >= linalg._INT64_SAFE


def test_rank_exact_starts_on_python_integers_past_the_bound(monkeypatch):
    m = [[2**40, 1], [1, 2**40], [2**40 + 1, 2**40 + 1]]
    monkeypatch.setattr(linalg, "_widened", None)  # never called
    assert linalg.rank_exact(m) == _rank_by_fraction_elimination(m) == 2
