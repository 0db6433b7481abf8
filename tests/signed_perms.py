"""The tests' own enumeration of B_n, independent of ``hyperoct.groupdata``.

Helper module for the test files (pytest puts this directory on the
import path); it holds no tests.
"""

import itertools


def all_signed_perms(n: int):
    """All 2^n n! elements: permutations in lexicographic order, each with
    its signs in ``itertools.product((1, -1), repeat=n)`` order."""
    for base in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(e * s for e, s in zip(base, signs))
