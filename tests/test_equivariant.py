from fractions import Fraction
from math import gcd

import pytest

from hyperoct.equivariant import (
    U,
    _fmul,
    _normalize,
    equivariant_relations,
    specialize,
    verify_specializations,
)
from hyperoct.permutations import group_generators
from hyperoct.rings import get_ring, monomial_order_key, poly_add, poly_sub


def _gen(g):
    return {(g,): 1}


def _u_shift(g):
    return {(g,): 1, (U,): -1}


def _paper_triple(x, y, z):
    """u^{-1}( x y (z - u) - (x - u)(y - u) z ) on generators x, y, z,
    divided out term by term."""
    p = poly_sub(
        _fmul(_fmul(_gen(x), _gen(y)), _u_shift(z)),
        _fmul(_fmul(_u_shift(x), _u_shift(y)), _gen(z)),
    )
    assert all(U in m for m in p)
    return {m[: m.index(U)] + m[m.index(U) + 1 :]: c for m, c in p.items()}


def _seed_relations(n):
    """The paper's R0-R3 at canonical indices: R0 at every generator, R1-R3
    at every pair i < j and triple i < j < k."""
    rels = [_fmul(_gen(g), _u_shift(g)) for g in get_ring("Z1", n).gens]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            zp, zm = (i, j, 1), (i, j, -1)
            rels.append(_paper_triple(zp, (i,), (j,)))
            rels.append(_paper_triple((j,), zm, zp))
            for k in range(j + 1, n + 1):
                rels.append(_paper_triple(zp, (j, k, 1), (i, k, 1)))
    return rels


def _substitution(ring, sigma):
    """Generator images under sigma, homogenized: constants pick up a u.

    The generators and u all sit in cohomological degree 2, so the
    equivariant action is the d = 1 action with each constant term c
    replaced by c*u; specializing u to 0 or 1 reproduces the actions on the
    two quotients.
    """
    images = {U: _gen(U)}
    for g in ring.gens:
        img = {}
        for m, c in ring.act_on_generator(sigma, g).terms.items():
            key = (U,) if m == () else m
            img[key] = img.get(key, 0) + c
        images[g] = img
    return images


def _apply_substitution(p, images):
    result = {}
    for m, c in p.items():
        term = {(): c}
        for g in m:
            term = _fmul(term, images[g])
        result = poly_add(result, term)
    return result


def _closure(n):
    """The seeds closed under the generator substitutions of B_n, breadth
    first: the definition of the equivariant relation set."""
    ring = get_ring("Z1", n)
    subs = [_substitution(ring, s) for s in group_generators(n)]
    seen, frontier = set(), []
    for p in _seed_relations(n):
        key = _normalize(p)
        if key not in seen:
            seen.add(key)
            frontier.append(p)
    while frontier:
        nxt = []
        for p in frontier:
            for images in subs:
                q = _apply_substitution(p, images)
                key = _normalize(q)
                if key and key not in seen:
                    seen.add(key)
                    nxt.append(q)
        frontier = nxt
    return tuple(sorted(seen))


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_relations_are_the_closure_of_the_paper_seeds(n):
    # the label tuples of the d = 1 ring give exactly the group orbit
    assert equivariant_relations(n).relations == _closure(n)


def test_relation_set_is_closed_under_the_group():
    # every generator maps every relation to zero or to a relation of the set
    for n in (1, 2, 3, 4):
        relset = equivariant_relations(n)
        relations = set(relset.relations)
        ring = get_ring("Z1", n)
        for s in group_generators(n):
            images = _substitution(ring, s)
            for p in relset.polynomials():
                image = _normalize(_apply_substitution(p, images))
                assert not image or image in relations, (s, p)


def test_specialize_rejects_other_values():
    relset = equivariant_relations(1)
    with pytest.raises(ValueError):
        specialize(relset, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_relations_are_primitive_with_positive_lead(n):
    for p in equivariant_relations(n).polynomials():
        assert all(type(c) is int for c in p.values())
        assert gcd(*p.values()) == 1
        assert p[max(p, key=monomial_order_key)] > 0
