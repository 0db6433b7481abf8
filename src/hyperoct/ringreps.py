"""Characters carried by the presented rings.

Everything reduces to one computation: for a class representative sigma
and each normal-form basis monomial m, the coefficient of m in
act(sigma, m).  Degree is preserved exactly and the loop filtration can
only increase under straightening, so summing these diagonal entries over
a bucket of monomials (a degree, a bidegree, or a type-shape class) is
the trace of sigma on the corresponding graded piece.  For the
non-homogeneous d = 1 ring the same diagonal entries compute the traces
on the associated graded pieces.

A representation is named by its space: ``Z1`` and ``Z3`` are B_n acting
on the ring of that name at rank n; ``Y1`` and ``Y3``, the lifted spaces,
are B_{n+1} acting on the same two rings.  There is no ``Y`` ring:
``get_ring`` builds only ``Z1`` and ``Z3``.

Only those coefficients are computed: ``PresentedRing.image``, the routine
of ``act``, forms the image of m's prefix once per class representative,
and of its product with the last generator's image only the coefficient of
m is summed.
"""

from __future__ import annotations

from functools import lru_cache

from .characters import ClassFunction
from .permutations import (
    SignedPartition,
    set_partition_shape,
    signed_partitions,
    standard_representative,
)
from .rings import Monomial, get_ring, type_of


# representation -> the presented ring it acts on
_RING_OF = {"Z1": "Z1", "Z3": "Z3", "Y1": "Z1", "Y3": "Z3"}


def acting_rank(space: str, rank: int) -> int:
    return rank + 1 if space.startswith("Y") else rank


@lru_cache(maxsize=None)
def diagonal_coefficients(
    space: str, rank: int
) -> dict[SignedPartition, tuple[int, ...]]:
    """Per class representative, the action's diagonal on the nbc basis."""
    ring = get_ring(_RING_OF[space], rank)
    image, coefficient = ring.image, ring.product_coefficient
    # the basis after its first monomial, 1, which every sigma fixes
    tops = [(m, 1 << (m.bit_length() - 1)) for m in ring.nbc_masks()[1:]]
    out: dict[SignedPartition, tuple[int, ...]] = {}
    for lam in signed_partitions(acting_rank(space, rank)):
        sigma, images = standard_representative(lam), {}
        row = [1]
        for m, top in tops:
            row.append(coefficient(image(sigma, m ^ top, images), image(sigma, top, images), m))
        out[lam] = tuple(row)
    return out


def _basis_buckets(space: str, rank: int, keyfn):
    ring = get_ring(_RING_OF[space], rank)
    buckets: dict[object, list[int]] = {}
    for pos, m in enumerate(ring.nbc_basis()):
        buckets.setdefault(keyfn(m), []).append(pos)
    return buckets


def _bucket_character(space: str, rank: int, positions) -> ClassFunction:
    diag = diagonal_coefficients(space, rank)
    n_act = acting_rank(space, rank)
    vals = [sum(diag[lam][p] for p in positions) for lam in signed_partitions(n_act)]
    return ClassFunction(n_act, tuple(vals))


def graded_character(n: int, space: str) -> list[ClassFunction]:
    """Characters of the graded pieces, indexed by combinatorial degree.

    For the d = 3 spaces these are the cohomology degrees 0, 2, ..., 2n;
    for the d = 1 spaces the degrees of the associated graded ring.
    """
    buckets = _basis_buckets(space, n, len)
    return [
        _bucket_character(space, n, buckets.get(k, ())) for k in range(n + 1)
    ]


def bidegree(m: Monomial) -> tuple[int, int]:
    """(total degree, loop degree) of a monomial."""
    return len(m), sum(1 for g in m if len(g) == 1)


def type_shape(m: Monomial, rank: int) -> SignedPartition:
    return set_partition_shape(type_of(m, rank))


@lru_cache(maxsize=None)
def type_buckets(rank: int) -> dict[SignedPartition, tuple[int, ...]]:
    """Positions in the Z3 nbc basis, bucketed by the shape of their type
    (the one type sweep: type characters and bigrading read it)."""
    buckets = _basis_buckets("Z3", rank, lambda m: type_shape(m, rank))
    return {lam: tuple(pos) for lam, pos in buckets.items()}


def type_character(lam: SignedPartition) -> ClassFunction:
    """Character on the span of nbc monomials whose type has shape lam."""
    n = sum(lam[0]) + sum(lam[1])
    return _bucket_character("Z3", n, type_buckets(n).get(lam, ()))


def type_dimension(lam: SignedPartition) -> int:
    n = sum(lam[0]) + sum(lam[1])
    return len(type_buckets(n).get(lam, ()))


def bigraded_dimensions(n: int) -> dict[tuple[int, int], int]:
    """Dimensions of the (total degree, loop degree) pieces of the graded
    d = 3 ring."""
    return {key: len(pos) for key, pos in _basis_buckets("Z3", n, bidegree).items()}
