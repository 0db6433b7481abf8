"""Circle-equivariant relation set and its two specializations.

The equivariant function ring is a free polynomial ring on the canonical
pair/loop generators together with one central degree-2 variable u.  Its
defining ideal is generated by the orbit, under the ambient group, of
four relation families:

  R0  g*(g - u)                          for every generator g
  R1  u^{-1}( z_ij+ z_jk+ (z_ik+ - u) - (z_ij+ - u)(z_jk+ - u) z_ik+ )
  R2  u^{-1}( z_ij+ z_i   (z_j   - u) - (z_ij+ - u)(z_i   - u) z_j   )
  R3  u^{-1}( z_j   z_ij- (z_ij+ - u) - (z_j   - u)(z_ij- - u) z_ij+ )

R3 is stated here with the loop z_j, matching the disjoint-support
argument that produces it (one checks the displayed alternative with z_i
does not specialize into either quotient, and the u -> 0 image below
forces the z_j form).  Setting u = 0 recovers, up to sign, generators of
the graded d = 3 ideal; setting u = 1 recovers generators of the d = 1
function-ring ideal.  This module is a symbolic checker: polynomials are
kept in the free ring (no straightening), and the specializations are
verified by reducing in the target rings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .permutations import SignedPerm, group_generators
from .rings import (
    Gen,
    PresentedRing,
    get_ring,
    monomial_order_key,
    monomial_sort,
    poly_add,
    poly_sub,
)

U: Gen = (0,)  # the central degree-2 variable

# free-ring polynomials: multiset monomial (sorted tuple of gens) -> coefficient
FreePoly = dict[tuple, int]


def _fmul(p: FreePoly, q: FreePoly) -> FreePoly:
    out: FreePoly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = monomial_sort(m1 + m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _gen(g: Gen) -> FreePoly:
    return {(g,): 1}


def _u_shift(g: Gen) -> FreePoly:
    return {(g,): 1, (U,): -1}


def _divide_u(p: FreePoly) -> FreePoly:
    out: FreePoly = {}
    for m, c in p.items():
        if U not in m:
            raise ArithmeticError("polynomial is not divisible by u")
        idx = m.index(U)
        out[m[:idx] + m[idx + 1 :]] = c
    return out


def _normalize(p: FreePoly) -> tuple:
    """Hashable canonical form: the primitive part (content 1), with a
    positive coefficient at the largest monomial."""
    if not p:
        return ()
    content = gcd(*p.values())
    if p[max(p, key=monomial_order_key)] < 0:
        content = -content
    return tuple(sorted((m, c // content) for m, c in p.items()))


@dataclass(frozen=True)
class EquivariantRelationSet:
    rank: int
    relations: tuple[tuple, ...]  # normalized FreePoly items

    def polynomials(self) -> list[FreePoly]:
        return [dict(items) for items in self.relations]

    def __len__(self) -> int:
        return len(self.relations)


def _triple_relation(x: Gen, y: Gen, z: Gen) -> FreePoly:
    """u^{-1}( x y (z - u) - (x - u)(y - u) z ), the shape of R1-R3."""
    return _divide_u(
        poly_sub(
            _fmul(_fmul(_gen(x), _gen(y)), _u_shift(z)),
            _fmul(_fmul(_u_shift(x), _u_shift(y)), _gen(z)),
        )
    )


def _seed_relations(ring: PresentedRing) -> list[FreePoly]:
    rels = [_fmul(_gen(g), _u_shift(g)) for g in ring.gens]
    for i, j in itertools.combinations(range(1, ring.rank + 1), 2):
        zp, zm = (i, j, 1), (i, j, -1)
        rels.append(_triple_relation(zp, (i,), (j,)))
        rels.append(_triple_relation((j,), zm, zp))
    for i, j, k in itertools.combinations(range(1, ring.rank + 1), 3):
        rels.append(_triple_relation((i, j, 1), (j, k, 1), (i, k, 1)))
    return rels


def _substitution(ring: PresentedRing, sigma: SignedPerm) -> dict[Gen, FreePoly]:
    """Generator images under sigma, homogenized: constants pick up a u.

    The generators and u all sit in cohomological degree 2, so the genuine
    equivariant action is the d = 1 action with each constant term c
    replaced by c*u; specializing u to 0 or 1 then reproduces the actions
    on the two quotients.
    """
    if ring.graded:
        raise ValueError("substitution homogenizes the d = 1 action")
    images: dict[Gen, FreePoly] = {U: _gen(U)}
    for g in ring.gens:
        img: FreePoly = {}
        for m, c in ring.act_on_generator(sigma, g).terms.items():
            key = (U,) if m == () else m
            img[key] = img.get(key, 0) + c
        images[g] = img
    return images


def _apply_substitution(p: FreePoly, images: dict[Gen, FreePoly]) -> FreePoly:
    result: FreePoly = {}
    for m, c in p.items():
        term: FreePoly = {(): c}
        for g in m:
            term = _fmul(term, images[g])
        result = poly_add(result, term)
    return result


def equivariant_relations(n: int) -> EquivariantRelationSet:
    """Seed relations closed under the generator substitutions of B_n."""
    ring = get_ring("Z1", n)
    subs = [_substitution(ring, s) for s in group_generators(n)]
    seen: dict[tuple, FreePoly] = {}
    frontier: list[FreePoly] = []
    for p in _seed_relations(ring):
        key = _normalize(p)
        if key not in seen:
            seen[key] = p
            frontier.append(p)
    while frontier:
        nxt: list[FreePoly] = []
        for p in frontier:
            for images in subs:
                q = _apply_substitution(p, images)
                key = _normalize(q)
                if key and key not in seen:
                    seen[key] = q
                    nxt.append(q)
        frontier = nxt
    return EquivariantRelationSet(n, tuple(sorted(seen)))


def specialize(relset: EquivariantRelationSet, u_value: int) -> list[FreePoly]:
    """Substitute u -> 0 or u -> 1, returning free polynomials over the z's."""
    if u_value not in (0, 1):
        raise ValueError("u specializes to 0 or 1")
    out = []
    for p in relset.polynomials():
        q: FreePoly = {}
        for m, c in p.items():
            if u_value == 0 and U in m:
                continue
            m2 = tuple(g for g in m if g != U)
            q[m2] = q.get(m2, 0) + c
        q = {m: c for m, c in q.items() if c}
        if q:
            out.append(q)
    return out


def verify_specializations(relset: EquivariantRelationSet) -> tuple[int, int]:
    """Numbers of nonzero u->0 images that vanish in the graded ring and of
    nonzero u->1 images that vanish in the function ring; both equal
    len(relset) when the specializations hold."""
    counts = []
    for u_value, space in ((0, "Z3"), (1, "Z1")):
        ring = get_ring(space, relset.rank)
        images = specialize(relset, u_value)
        bad = sum(1 for p in images if not ring.reduce_raw(p).is_zero())
        counts.append(len(images) - bad)
    return counts[0], counts[1]
