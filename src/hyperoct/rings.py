"""Presented cohomology rings of the orbit-configuration spaces, d = 1 and 3.

Two rings share one rewrite engine over the canonical generators

    z_i            (loops,  i = 1..rank)
    z_ij+ , z_ij-  (pairs,  1 <= i < j <= rank)

* ``Z3``: the graded ring for the punctured d=3 space on ``rank`` points.
* ``Z1``: the function ring of the d=1 space (idempotent generators, so
  reductions are non-homogeneous; the associated graded data is read off
  degree-by-degree).

B_{rank+1} acts on each ring as on the lifted space on ``rank``+1 points,
which the marked-point identification stores in the same coordinates: the
ring is the same, and the extra letter may move the marked point.
``act_on_generator`` has one formula, on the letter triple of a
generator.  B_rank acts through its lift, the elements of B_{rank+1}
fixing the marked point: s becomes ``(1, *map(letter, s))``.  ``image``
is the one image routine, for ``act`` and the traces in ``ringreps``.

Non-canonical labels (swapped or negated indices) rewrite to affine-linear
combinations of canonical generators; products are straightened to the
square-free "one generator per hand" normal form, where the hand of z_i,
z_ji+, z_ji- is i.  The rewrite rules are not transcribed by hand: every
defining relation is instantiated over all signed index labels (this is
exactly the group-orbit closure; ``relation_labels`` decides it, and
``hyperoct.equivariant`` builds its relation set from the same labels),
expanded, and oriented by its largest monomial in the degree-then-lex
order with letters ordered

    0 < -0 < 1 < -1 < 2 < -2 < ...

Both rings expand one formula at a label triple (x, y, z): xy - xz - yz,
plus z in the d = 1 ring.  A completion pass reduces the instances in
turn and orients each one that survives into a rule, then interreduces
the right-hand sides.  The build itself checks only that every same-hand
pair has a rule.  What certifies a table is ``verify_relations``, which
reduces every instance to zero: the tests run it on fresh tables, and a
table loaded from the cache must pass it before it is used, or it is
rebuilt and stored again.

Inside the engine a square-free monomial is an int bitmask: the ring
numbers its generators in ``gen_rank_key`` order and sets bit k for
generator k.  A graded product of two monomials vanishes exactly when
their masks share a bit and is otherwise their union; in the d = 1 rings
(idempotent generators) it is always the union.  Because the bit order is
the rank order, ``(popcount, mask)`` is the monomial order, and the rule
table is keyed by the mask of the straightened generator pair.  Tuples of
generators appear only at the edges: ``RingElement.terms``,
``nbc_basis`` and ``rules``; the cache files store the masks.

Coefficients are Python ints throughout: orienting a rule divides by its
lead coefficient exactly (every rule coefficient lies in -2..2 at rank
<= 4), and ``RingElement`` rejects a coefficient that is not a whole
number.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from numbers import Rational

from . import cache
from .permutations import (
    SignedPerm,
    apply,
    group_generators,
    letter,
    perm_to_str,
    signed_partitions,
    standard_representative,
    unletter,
)

Gen = tuple  # (i,) loop; (i, j, s) pair, i < j, s in {1, -1}; (0,) is reserved
Monomial = tuple  # sorted tuple of Gens
Mask = int  # square-free monomial: bit k set for the ring's generator k

SPACES = ("Z1", "Z3")

_RULE_STEP_BOUND = 1_000_000


def gen_rank_key(g: Gen) -> tuple[int, int]:
    if len(g) == 1:
        return (1, 2 * g[0]) if g[0] else (0, 0)
    i, j, s = g
    return (2 * i, 2 * j + (0 if s > 0 else 1))


def monomial_sort(gens) -> Monomial:
    return tuple(sorted(gens, key=gen_rank_key))


def monomial_order_key(m: Monomial):
    return (len(m), tuple(sorted((gen_rank_key(g) for g in m), reverse=True)))


def mask_order_key(m: Mask) -> tuple[int, int]:
    """``monomial_order_key`` of a mask: bit order is the rank-key order."""
    return (m.bit_count(), m)


def gen_hand(g: Gen) -> int:
    return g[0] if len(g) == 1 else g[1]


def gen_pretty(g: Gen) -> str:
    if len(g) == 1:
        return f"z{g[0]}"
    i, j, s = g
    return f"z{i}{j}" if s > 0 else f"z{i}~{j}"


def _integral(c) -> int:
    """``c`` as an int; ValueError unless it is a whole number."""
    whole = int(c)
    if whole != c:
        raise ValueError(f"ring coefficients are integers, not {c!r}")
    return whole


class RingElement:
    """Linear combination of normal-form monomials in a presented ring.

    ``masks`` maps each monomial's mask to its coefficient; ``terms`` is
    the same combination keyed by tuples of generators.
    """

    __slots__ = ("ring", "masks", "_terms")

    def __init__(self, ring: "PresentedRing", terms: dict[Monomial, int] | None = None):
        masks: dict[Mask, int] = {}
        for m, c in (terms or {}).items():
            if c:
                k = ring.mask_of(m)
                masks[k] = masks.get(k, 0) + _integral(c)
        self.ring = ring
        self.masks = {k: c for k, c in masks.items() if c}
        self._terms = None

    @classmethod
    def _of(cls, ring: "PresentedRing", masks: dict[Mask, int]) -> "RingElement":
        """Wrap a mask dict of nonzero int coefficients without copying it."""
        x = cls.__new__(cls)
        x.ring, x.masks, x._terms = ring, masks, None
        return x

    @property
    def terms(self) -> dict[Monomial, int]:
        if self._terms is None:
            tup = self.ring.monomial_of
            self._terms = {tup(k): c for k, c in self.masks.items()}
        return self._terms

    def _check(self, other: "RingElement"):
        if self.ring is not other.ring:
            raise ValueError("elements from different rings")

    def __add__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check(other)
        return RingElement._of(self.ring, poly_add(self.masks, other.masks))

    def __sub__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self + (-1) * other

    def __rmul__(self, scalar):
        if not isinstance(scalar, Rational):
            return NotImplemented
        scalar = _integral(scalar)
        if not scalar:
            return RingElement._of(self.ring, {})
        return RingElement._of(self.ring, {k: scalar * c for k, c in self.masks.items()})

    def __mul__(self, other):
        if not isinstance(other, RingElement):
            return self.__rmul__(other)
        self._check(other)
        return RingElement._of(self.ring, self.ring.product(self.masks, other.masks))

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.ring is other.ring
            and self.masks == other.masks
        )

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.masks.items())))

    def is_zero(self) -> bool:
        return not self.masks

    def homogeneous_part(self, degree: int) -> "RingElement":
        return RingElement._of(
            self.ring, {k: c for k, c in self.masks.items() if k.bit_count() == degree}
        )

    def coefficient(self, m: Monomial) -> int:
        try:
            return self.masks.get(self.ring.mask_of(m), 0)
        except ValueError:  # not a square-free monomial of this ring
            return 0

    def __repr__(self):
        if not self.masks:
            return "0"
        bits = []
        for k in sorted(self.masks, key=mask_order_key):
            m, c = self.ring.monomial_of(k), self.masks[k]
            name = "*".join(gen_pretty(g) for g in m) if m else "1"
            bits.append(f"({c})*{name}")
        return " + ".join(bits)


class PresentedRing:
    """Rewrite engine for one of the two presented spaces at a fixed rank."""

    def __init__(self, space: str, rank: int):
        if space not in SPACES:
            raise ValueError(f"unknown space {space!r}")
        self.space = space
        self.rank = rank
        self.graded = space.endswith("3")
        self.gens: list[Gen] = [(i,) for i in range(1, rank + 1)] + [
            (i, j, s)
            for j in range(2, rank + 1)
            for i in range(1, j)
            for s in (1, -1)
        ]
        # generator k of the mask encoding, and its bit
        self._bit_gens: tuple[Gen, ...] = tuple(sorted(self.gens, key=gen_rank_key))
        self.bits: dict[Gen, int] = {g: 1 << k for k, g in enumerate(self._bit_gens)}
        hand_masks = [0] * (rank + 1)
        for g, b in self.bits.items():
            hand_masks[gen_hand(g)] |= b
        self._hand_masks = hand_masks[1:]
        # per bit k: the bits above k in the same hand
        self._higher_in_hand = [
            hand_masks[gen_hand(g)] & -(2 << k) for k, g in enumerate(self._bit_gens)
        ]
        self._monomials: dict[Mask, Monomial] = {}
        self._masks: dict[Monomial, Mask] = {}
        self._labels: dict[tuple, RingElement] = {}
        self._nbc: tuple[Mask, ...] | None = None
        self._nbc_monomials: tuple[Monomial, ...] | None = None
        self._nf_cache: dict[Mask, dict[Mask, int]] = {}
        self._table: dict[Mask, dict[Mask, int]] = {}
        self._rules_view: dict | None = None
        self._build_rules()

    # -- encoding ---------------------------------------------------------------

    def monomial_of(self, mask: Mask) -> Monomial:
        """The sorted tuple of generators whose bits ``mask`` sets."""
        m = self._monomials.get(mask)
        if m is None:
            gens = self._bit_gens
            m = tuple(gens[k] for k in range(mask.bit_length()) if mask >> k & 1)
            self._monomials[mask] = m
        return m

    def mask_of(self, m: Monomial) -> Mask:
        """The mask of a monomial of distinct generators of this ring."""
        mask = self._masks.get(m)
        if mask is None:
            mask = 0
            for g in m:
                b = self.bits.get(g)
                if b is None or mask & b:
                    raise ValueError(f"{m!r} is not a square-free monomial of {self.space}")
                mask |= b
            self._masks[m] = mask
        return mask

    def _raw_mask(self, m) -> Mask | None:
        """Mask of a free monomial after collapsing squares; None means it
        vanished (graded case)."""
        mask = 0
        for g in m:
            b = self.bits[g]
            if mask & b and self.graded:
                return None
            mask |= b
        return mask

    # -- building blocks ----------------------------------------------------

    def zero(self) -> RingElement:
        return RingElement._of(self, {})

    def one(self) -> RingElement:
        return RingElement._of(self, {0: 1})

    def generator(self, g: Gen) -> RingElement:
        return RingElement._of(self, {self.mask_of((g,)): 1})

    def monomial(self, m: Monomial) -> RingElement:
        return RingElement._of(self, {self.mask_of(tuple(m)): 1})

    def canonical_loop(self, a: int) -> RingElement:
        """The loop labeled by a signed index, as a canonical combination."""
        x = self._labels.get((a,))
        if x is None:
            if a == 0:
                raise ValueError("loop index must be nonzero")
            if a > 0:
                x = self.generator((a,))
            else:
                x = self._op_not(self.generator((-a,)))
            self._labels[(a,)] = x
        return x

    def canonical_pair(self, a: int, b: int) -> RingElement:
        """The pair labeled by two signed indices, as a canonical combination."""
        x = self._labels.get((a, b))
        if x is None:
            x = self._labels[(a, b)] = self._pair_label(a, b)
        return x

    def _pair_label(self, a: int, b: int) -> RingElement:
        if abs(a) == abs(b) or a == 0 or b == 0:
            raise ValueError(f"pair indices must have distinct nonzero moduli: {a},{b}")
        if abs(a) > abs(b):
            return self._op_not(self.canonical_pair(b, a))
        if a > 0:
            return self.generator((a, abs(b), 1 if b > 0 else -1))
        # a < 0, |a| < |b|: rewrite the negated first index
        i, j = -a, abs(b)
        zi, zj = self.generator((i,)), self.generator((j,))
        if b > 0:
            out = self.generator((i, j, -1)) + zi + zj
            return out if self.graded else out - self.one()
        return self.generator((i, j, 1)) + zi - 1 * zj

    # -- free expansion (used only while generating relations) ---------------

    def _free_product(self, p: dict[Mask, int], q: dict[Mask, int]) -> dict[Mask, int]:
        graded = self.graded
        out: dict[Mask, int] = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                if graded and m1 & m2:
                    continue
                m = m1 | m2
                out[m] = out.get(m, 0) + c1 * c2
        return {m: c for m, c in out.items() if c}

    def relation_labels(self) -> tuple[dict[tuple, RingElement], list[tuple]]:
        """Every loop label ``(a,)`` and pair label ``(a, b)`` over the signed
        indices as its canonical combination, and the label triples of the
        three relation families at every label tuple, which is their group
        orbit: ``((a, b), (a,), (b,))`` and ``((b,), (a, -b), (a, b))`` at
        every pair, ``((a, b), (b, c), (a, c))`` at every triple."""
        letters = [*range(1, self.rank + 1), *range(-1, -self.rank - 1, -1)]
        pairs = [(a, b) for a, b in itertools.permutations(letters, 2) if abs(a) != abs(b)]
        labels = {(a,): self.canonical_loop(a) for a in letters}
        labels.update({(a, b): self.canonical_pair(a, b) for a, b in pairs})
        triples = []
        for a, b in pairs:
            # pair*loop and the mixed pair/pair straightenings
            triples.append(((a, b), (a,), (b,)))
            triples.append(((b,), (a, -b), (a, b)))
        for a, b, c in itertools.permutations(letters, 3):
            if len({abs(a), abs(b), abs(c)}) == 3:
                triples.append(((a, b), (b, c), (a, c)))
        return labels, triples

    def _relation_instances(self):
        """All defining relations instantiated over signed index labels."""
        labels, triples = self.relation_labels()
        rels = (self._triple_relation(*(labels[k].masks for k in t)) for t in triples)
        return [r for r in rels if r]

    def _triple_relation(self, x, y, z) -> dict[Mask, int]:
        """The relation on three generator images, expanded in the free ring:
        xy - xz - yz, plus z (d = 1: xy(1 - z) + (1 - x)(1 - y)z).  Minus
        this with z made uz is ``equivariant``'s R(u) = (x + y)z - xy - uz:
        u -> 0 gives the Z3 instance and u -> 1 the Z1 instance."""
        prod = self._free_product
        rel = poly_sub(prod(x, y), poly_add(prod(x, z), prod(y, z)))
        return rel if self.graded else poly_add(rel, z)

    # -- completion -----------------------------------------------------------

    @property
    def rules(self) -> dict[tuple[Gen, Gen], dict[Monomial, int]]:
        """The rule table keyed by generator pairs in both orders (read-only)."""
        if self._rules_view is None:
            tup = self.monomial_of
            view = {}
            for pair, rhs in self._table.items():
                g1, g2 = tup(pair)
                view[(g1, g2)] = view[(g2, g1)] = {tup(m): c for m, c in rhs.items()}
            self._rules_view = view
        return self._rules_view

    def _set_table(self, table: dict[Mask, dict[Mask, int]]):
        self._table = table
        self._rules_view = None
        self._nf_cache.clear()

    def _build_rules(self):
        key = f"rewrite-v2-{self.space}-n{self.rank}"
        stored = cache.load(key)
        if stored is not None and self._table_from_cache(stored):
            return
        for poly in self._relation_instances():
            reduced = self._reduce_poly(poly)
            if not reduced:
                continue
            lead = max(reduced, key=mask_order_key)
            lead_c = reduced[lead]
            if not self._is_rule_pair(lead):
                raise AssertionError(
                    f"irreducible relation with normal-form lead {self.monomial_of(lead)} "
                    f"in {self.space}"
                )
            rhs = {}
            for m, c in reduced.items():
                if m == lead:
                    continue
                quotient, rest = divmod(-c, lead_c)
                if rest:
                    raise AssertionError(
                        f"lead coefficient {lead_c} does not divide relation "
                        f"{RingElement._of(self, reduced)} in {self.space}"
                    )
                rhs[m] = quotient
            self._table[lead] = rhs
            self._nf_cache.clear()
        self._assert_complete()
        self._interreduce()
        table = [[pair, sorted(rhs.items())] for pair, rhs in sorted(self._table.items())]
        cache.store(key, {"space": self.space, "rank": self.rank, "table": table})

    def _is_rule_pair(self, m: Mask) -> bool:
        """Whether ``m`` is two distinct generators of one hand."""
        low = m & -m
        return m.bit_count() == 2 and bool(m & self._higher_in_hand[low.bit_length() - 1])

    def _assert_complete(self):
        for k, g in enumerate(self._bit_gens):
            partners = self._higher_in_hand[k]
            while partners:
                b = partners & -partners
                if (1 << k) | b not in self._table:
                    other = self.monomial_of(b)[0]
                    raise AssertionError(
                        f"no straightening rule for {gen_pretty(g)}*{gen_pretty(other)}"
                    )
                partners ^= b

    def _interreduce(self):
        for pair, rhs in list(self._table.items()):
            self._table[pair] = self._reduce_poly(rhs)
        self._nf_cache.clear()

    def _table_from_cache(self, stored) -> bool:
        """Install a stored table ``[[pair, [[mask, coeff], ...]], ...]`` if it
        is well formed, complete and reduces every relation to zero."""
        bound = 1 << len(self.gens)

        def mask(m) -> Mask:
            if type(m) is not int or not 0 <= m < bound:
                raise ValueError(f"mask {m!r} out of range in {self.space}")
            return m

        try:
            if stored["space"] != self.space or stored["rank"] != self.rank:
                return False
            table: dict[Mask, dict[Mask, int]] = {}
            for pair, terms in stored["table"]:
                if not self._is_rule_pair(mask(pair)) or pair in table:
                    raise ValueError(f"rule key {pair!r} is not a new same-hand pair")
                rhs = table[pair] = {mask(m): c for m, c in terms}
                if len(rhs) != len(terms) or any(type(c) is not int for c in rhs.values()):
                    raise ValueError(f"rule {pair!r} repeats a monomial or is not integral")
            self._set_table(table)
            self._assert_complete()
            self.verify_relations()
            return True
        except (KeyError, ValueError, TypeError, AssertionError, RuntimeError):
            # RuntimeError covers a table whose rewriting never terminates
            self._set_table({})
            return False

    # -- normal forms ----------------------------------------------------------

    def _find_collision(self, m: Mask):
        """The first same-hand pair of ``m`` that has a rule: the lowest bit
        that has one, with its lowest such partner."""
        table, higher = self._table, self._higher_in_hand
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            partners = m & higher[low.bit_length() - 1]
            while partners:
                b = partners & -partners
                rhs = table.get(low | b)
                if rhs is not None:
                    return low | b, rhs
                partners ^= b
        return None

    def _normal_form(self, m: Mask, _budget: list | None = None) -> dict[Mask, int]:
        cached = self._nf_cache.get(m)
        if cached is not None:
            return cached
        if _budget is None:
            _budget = [_RULE_STEP_BOUND]
        _budget[0] -= 1
        if _budget[0] < 0:
            raise RuntimeError("rewrite step bound exceeded")
        hit = self._find_collision(m)
        if hit is None:
            out = {m: 1}
        else:
            pair, rhs = hit
            rest = m ^ pair
            graded = self.graded
            out = {}
            for sub, c in rhs.items():
                if graded and rest & sub:
                    continue
                for m2, c2 in self._normal_form(rest | sub, _budget).items():
                    out[m2] = out.get(m2, 0) + c * c2
            out = {mm: cc for mm, cc in out.items() if cc}
        self._nf_cache[m] = out
        return out

    def _reduce_poly(self, poly: dict[Mask, int]) -> dict[Mask, int]:
        return self.product(poly, {0: 1})

    def product(self, p: dict[Mask, int], q: dict[Mask, int]) -> dict[Mask, int]:
        """Normal form of the product of two normal-form polynomials."""
        graded, nf_cache = self.graded, self._nf_cache
        out: dict[Mask, int] = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                if graded and m1 & m2:
                    continue
                m = m1 | m2
                nf = nf_cache.get(m)
                if nf is None:
                    nf = self._normal_form(m)
                c12 = c1 * c2
                for m3, c3 in nf.items():
                    out[m3] = out.get(m3, 0) + c12 * c3
        return {m: c for m, c in out.items() if c}

    def product_coefficient(
        self, p: dict[Mask, int], q: dict[Mask, int], target: Mask
    ) -> int:
        """Coefficient of ``target`` in ``product(p, q)``, without forming it."""
        graded, nf_cache = self.graded, self._nf_cache
        total = 0
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                if graded and m1 & m2:
                    continue
                m = m1 | m2
                nf = nf_cache.get(m)
                if nf is None:
                    nf = self._normal_form(m)
                c = nf.get(target)
                if c:
                    total += c1 * c2 * c
        return total

    def reduce_raw(self, poly: dict[Monomial, int]) -> RingElement:
        """Reduce a free polynomial (square collapse plus straightening)."""
        masks: dict[Mask, int] = {}
        for m, c in poly.items():
            sq = self._raw_mask(m)
            if sq is not None:
                masks[sq] = masks.get(sq, 0) + _integral(c)
        return RingElement._of(self, self._reduce_poly(masks))

    def verify_relations(self) -> int:
        """Re-reduce every defining-relation instance to zero; returns the count."""
        count = 0
        for poly in self._relation_instances():
            if self._reduce_poly(poly):
                raise AssertionError(f"relation does not reduce to zero in {self.space}")
            count += 1
        return count

    # -- basis and series --------------------------------------------------------

    def nbc_masks(self) -> tuple[Mask, ...]:
        """Masks of the products of at most one generator per hand, in
        monomial order; built once per ring."""
        if self._nbc is None:
            masks = [0]
            for hand in self._hand_masks:
                choices = [0] + [b for b in self.bits.values() if b & hand]
                masks = [m | b for m in masks for b in choices]
            self._nbc = tuple(sorted(masks, key=mask_order_key))
            self._nbc_monomials = tuple(self.monomial_of(m) for m in self._nbc)
        return self._nbc

    def nbc_basis(self, degree: int | None = None) -> list[Monomial]:
        """Products of at most one generator per hand, optionally only those
        of one total degree."""
        masks = self.nbc_masks()
        if degree is None:
            return list(self._nbc_monomials)
        return [t for m, t in zip(masks, self._nbc_monomials) if m.bit_count() == degree]

    # -- group action ---------------------------------------------------------

    def _op_not(self, x: RingElement) -> RingElement:
        return -1 * x if self.graded else self.one() - x

    def _marked_pair(self, b: int, c: int) -> RingElement:
        """The cyclic-order class with the marked point first: letters (0, b, c)."""
        if b == -1:
            return self.canonical_loop(unletter(c))
        if c == -1:
            return self._op_not(self.canonical_loop(unletter(b)))
        if c == -b:
            return self.canonical_loop(-unletter(b))
        return self.canonical_pair(unletter(b), unletter(c))

    def _letter_triple(self, a: int, b: int, c: int) -> RingElement:
        triple = (a, b, c)
        if 1 in triple:
            while triple[0] != 1:
                triple = (triple[1], triple[2], triple[0])
            return self._marked_pair(triple[1], triple[2])
        if -1 in triple:
            while triple[0] != -1:
                triple = (triple[1], triple[2], triple[0])
            return self._marked_pair(-triple[1], -triple[2])
        a, b, c = triple
        return (
            self._marked_pair(a, b)
            - self._marked_pair(a, c)
            + self._marked_pair(b, c)
        )

    def act_on_generator(self, sigma: SignedPerm, g: Gen) -> RingElement:
        """The image of ``g`` under ``sigma`` in B_{rank+1}, by the letter
        triple of ``g`` with the marked point as letter 0
        (``permutations.letter``).  An element of B_rank acts through its
        lift ``(1, *map(letter, sigma))``, which fixes the marked point."""
        if len(sigma) == self.rank:
            sigma = (1, *map(letter, sigma))
        if len(sigma) != self.rank + 1:
            raise ValueError(
                f"{self.space} at rank {self.rank} is acted on by B_{self.rank} "
                f"or B_{self.rank + 1}, not B_{len(sigma)}"
            )
        zero_img = apply(sigma, 1)
        if len(g) == 1:
            return self._letter_triple(
                zero_img, -zero_img, apply(sigma, letter(g[0]))
            )
        i, j, s = g
        return self._letter_triple(
            zero_img,
            apply(sigma, letter(i)),
            apply(sigma, letter(s * j)),
        )

    def image(self, sigma: SignedPerm, m: Mask, memo: dict) -> dict[Mask, int]:
        """Normal form of ``sigma`` on the monomial ``m``: its prefix's image
        (``m`` without the top bit) times its top generator's, so products
        associate bits low to high.  ``memo`` keeps the images under ``sigma``."""
        img = memo.get(m)
        if img is None:
            k = m.bit_length() - 1
            if m & (m - 1):
                top = 1 << k
                img = self.product(self.image(sigma, m ^ top, memo), self.image(sigma, top, memo))
            elif m:
                img = self.act_on_generator(sigma, self._bit_gens[k]).masks
            else:
                img = {0: 1}
            memo[m] = img
        return img

    def act(self, sigma: SignedPerm, x: RingElement) -> RingElement:
        if x.ring is not self:
            raise ValueError("element does not belong to this ring")
        memo: dict[Mask, dict[Mask, int]] = {}
        out: dict[Mask, int] = {}
        for m, c in x.masks.items():
            for k, v in self.image(sigma, m, memo).items():
                out[k] = out.get(k, 0) + c * v
        return RingElement._of(self, {k: v for k, v in out.items() if v})


def poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def poly_sub(p, q):
    return poly_add(p, {m: -c for m, c in q.items()})


@lru_cache(maxsize=None)
def get_ring(space: str, rank: int) -> PresentedRing:
    return PresentedRing(space, rank)


def associated_graded_mismatch(rank: int) -> str | None:
    """Why the associated graded of the function ring ``Z1`` might differ
    from the graded ring ``Z3`` at ``rank``, or None when it cannot.

    The two rings share their nbc basis and rule keys, every ``Z1`` rule
    has no term above degree 2 and its degree-2 part is the ``Z3`` rule,
    and the degree-1 part of every ``Z1`` generator image is the ``Z3``
    image under each Coxeter generator of B_rank and each class
    representative.  Rules are oriented degree first and
    ``_find_collision`` picks the same pair in both tables, so the
    top-degree part of a ``Z1`` normal form is the ``Z3`` normal form; the
    trace of a class representative on a graded piece reads only
    top-degree coefficients, so the graded characters of the two rings
    are equal (Varchenko and Gelfand, Funct. Anal. Appl. 21, 1987).  The
    witness names the first rule pair, or the first (element, generator),
    that differs.
    """
    z1, z3 = get_ring("Z1", rank), get_ring("Z3", rank)

    def rule_name(pair: Mask) -> str:
        return "*".join(gen_pretty(g) for g in z1.monomial_of(pair))

    if z1.nbc_masks() != z3.nbc_masks():
        return "Z1 and Z3 have different nbc bases"
    if z1._table.keys() != z3._table.keys():
        pair = min(z1._table.keys() ^ z3._table.keys(), key=mask_order_key)
        return f"rule for {rule_name(pair)} is in one table only"
    for pair in sorted(z1._table, key=mask_order_key):
        rhs = z1._table[pair]
        top = {m: c for m, c in rhs.items() if m.bit_count() == 2}
        if top != z3._table[pair] or any(m.bit_count() > 2 for m in rhs):
            return (
                f"rule {rule_name(pair)}: Z1 gives {RingElement._of(z1, rhs)}, "
                f"Z3 gives {RingElement._of(z3, z3._table[pair])}"
            )
    sigmas = group_generators(rank) + [
        standard_representative(lam) for lam in signed_partitions(rank)
    ]
    for sigma in sigmas:
        for g in z1.gens:
            linear = z1.act_on_generator(sigma, g).homogeneous_part(1)
            want = z3.act_on_generator(sigma, g)
            if linear.masks != want.masks:
                return (
                    f"image of {gen_pretty(g)} under ({perm_to_str(sigma)}): "
                    f"degree-1 part {linear} in Z1, {want} in Z3"
                )
    return None


def hilbert_coefficients(rank: int) -> list[int]:
    """Coefficients of prod_{i=1}^{rank} (1 + (2i-1) t) by combinatorial degree."""
    coeffs = [1]
    for i in range(1, rank + 1):
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d] += c
            nxt[d + 1] += (2 * i - 1) * c
        coeffs = nxt
    return coeffs


# ---------------------------------------------------------------------------
# type decomposition


def type_of(monomial, rank: int):
    """Signed set partition from the generator graph of a (raw) monomial.

    Components with a loop are negative blocks; exponents are irrelevant.
    """
    parent = list(range(rank + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    looped = set()
    for g in set(monomial):
        if len(g) == 1:
            looped.add(g[0])
        else:
            union(g[0], g[1])
    pos_blocks: dict[int, list[int]] = {}
    for v in range(1, rank + 1):
        pos_blocks.setdefault(find(v), []).append(v)
    pos, neg = [], []
    for block in pos_blocks.values():
        if any(v in looped for v in block):
            neg.append(tuple(sorted(block)))
        else:
            pos.append(tuple(sorted(block)))
    return tuple(sorted(pos)), tuple(sorted(neg))
