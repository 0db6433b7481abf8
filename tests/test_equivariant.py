from fractions import Fraction

import pytest

from hyperoct.equivariant import (
    U,
    equivariant_relations,
    specialize,
    verify_specializations,
)
from hyperoct.rings import get_ring


def _poly_for(relset, pattern):
    """Relation whose largest monomial is the given one."""
    best = None
    for p in relset.polynomials():
        if pattern in p and max(p, key=lambda m: (len(m), m)) == pattern:
            if best is None or len(p) < len(best):
                best = p
    if best is None:
        raise AssertionError(f"no relation led by {pattern}")
    return best


def test_square_relation_specializes_both_ways():
    relset = equivariant_relations(2)
    zp = (1, 2, 1)
    rel = _poly_for(relset, (zp, zp))
    # the seed square relation is g*(g - u): two terms only
    assert rel == {(zp, zp): Fraction(1), (U, zp): Fraction(-1)} or rel == {
        (zp, zp): Fraction(-1),
        (U, zp): Fraction(1),
    }
    # u -> 0 leaves the plain square; u -> 1 the idempotent difference
    r1 = get_ring("Z1", 2)
    stripped = {}
    for m, c in rel.items():
        key = tuple(g for g in m if g != U)
        stripped[key] = stripped.get(key, Fraction(0)) + c
    assert r1.reduce_raw(stripped).is_zero()


def test_loop_pair_relation_at_one_is_the_mixed_support_relation():
    # u^{-1}(z12 z1 (z2 - u) - (z12 - u)(z1 - u) z2)
    #   = -z12 z1 + z12 z2 + z1 z2 - u z2
    relset = equivariant_relations(2)
    zp, l1, l2 = (1, 2, 1), (1,), (2,)
    expected = {
        (l1, zp): Fraction(-1),
        (l2, zp): Fraction(1),
        (l1, l2): Fraction(1),
        ((0,), l2): Fraction(-1),
    }
    negated = {m: -c for m, c in expected.items()}
    polys = relset.polynomials()
    assert expected in polys or negated in polys
    # its u=1 image is (up to sign) the mixed pair/loop support relation,
    # a defining relation of the function ring
    r1 = get_ring("Z1", 2)
    target = (
        r1.generator(zp) * r1.generator(l1) * (r1.one() - r1.generator(l2))
        + (r1.one() - r1.generator(zp))
        * (r1.one() - r1.generator(l1))
        * r1.generator(l2)
    )
    assert target.is_zero()
    stripped = {}
    for m, c in expected.items():
        key = tuple(g for g in m if g != U)
        stripped[key] = stripped.get(key, Fraction(0)) + c
    assert r1.reduce_raw(stripped).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_specializations_vanish(n):
    count0, count1 = verify_specializations(equivariant_relations(n))
    assert count0 == count1 == len(equivariant_relations(n))


def test_relation_set_is_closed_under_the_group():
    # closure reached a fixed point: re-running the closure adds nothing
    n = 2
    relset = equivariant_relations(n)
    again = equivariant_relations(n)
    assert relset.relations == again.relations
    assert len(relset) >= 3 * 1 + 2  # squares plus at least the seeded families


def test_specialize_rejects_other_values():
    relset = equivariant_relations(1)
    with pytest.raises(ValueError):
        specialize(relset, 2)
