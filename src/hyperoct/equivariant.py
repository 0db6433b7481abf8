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
forces the z_j form).  R1-R3 are (x + y) z - x y - u z at a label
triple, minus the rings' one formula with z made uz: u = 0 gives the
d = 3 instance, u = 1 the d = 1 one.  This module is a symbolic checker
with its own expansion: polynomials are kept in the free ring (no
straightening), and the specializations are verified by reducing in the
target rings.

The orbit is decided in one place, ``PresentedRing.relation_labels`` of
the d = 1 ring in ``hyperoct.rings``: every loop and pair label over the
signed indices with its canonical combination, and the label triples of
R1-R3.  B_n carries any tuple of signed indices with distinct moduli to
any other, and each generator substitution is a ring map fixing u, so the
orbit of a family is that family at every label tuple.  Each label is
homogenized once (a constant c becomes c*u), and R0 is taken at every
label, the u-triple at every triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .rings import (
    Gen,
    RingElement,
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


def _triple_relation(x: FreePoly, y: FreePoly, z: FreePoly) -> FreePoly:
    """u^{-1}( x y (z - u) - (x - u)(y - u) z ) = (x + y) z - x y - u z,
    the shape of R1-R3: minus ``PresentedRing._triple_relation`` with its
    constant homogenized, so u -> 0 gives the Z3 instance and u -> 1 the Z1
    instance, expanded by ``_fmul`` as the check's independent evidence."""
    return poly_sub(_fmul(poly_add(x, y), z), poly_add(_fmul(x, y), _fmul({(U,): 1}, z)))


def _homogenize(x: RingElement) -> FreePoly:
    """A degree <= 1 element of the d = 1 ring with its constant c made c*u."""
    return {m or (U,): c for m, c in x.terms.items()}


def equivariant_relations(n: int) -> EquivariantRelationSet:
    """R0 at every generator label and R1-R3 at every label triple of the
    d = 1 ring of rank n, homogenized: the B_n-orbit of the four families."""
    labels, triples = get_ring("Z1", n).relation_labels()
    images = {key: _homogenize(x) for key, x in labels.items()}
    rels = [_fmul(g, poly_sub(g, {(U,): 1})) for g in images.values()]
    rels += [_triple_relation(*(images[k] for k in t)) for t in triples]
    return EquivariantRelationSet(n, tuple(sorted({_normalize(p) for p in rels})))


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
