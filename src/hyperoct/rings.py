"""Presented cohomology rings of the orbit-configuration spaces, d = 1 and 3.

Four spaces share one rewrite engine over the canonical generators

    z_i            (loops,  i = 1..rank)
    z_ij+ , z_ij-  (pairs,  1 <= i < j <= rank)

* ``Z3``: the graded ring for the punctured d=3 space on ``rank`` points.
* ``Z1``: the function ring of the d=1 space (idempotent generators, so
  reductions are non-homogeneous; the associated graded data is read off
  degree-by-degree).
* ``Y3`` / ``Y1``: the lifted spaces on ``rank``+1 points, stored in the
  same coordinates via the marked-point identification; only the group
  action differs (one extra letter that may leave the marked point).

Non-canonical labels (swapped or negated indices) rewrite to affine-linear
combinations of canonical generators; products are straightened to the
square-free "one generator per hand" normal form, where the hand of z_i,
z_ji+, z_ji- is i.  The rewrite rules are not transcribed by hand: every
defining relation is instantiated over all signed index labels (this is
exactly the group-orbit closure), expanded, and oriented by its largest
monomial in the degree-then-lex order with letters ordered

    0 < -0 < 1 < -1 < 2 < -2 < ...

A completion pass reduces the instances in turn and orients each one that
survives into a rule, then interreduces the right-hand sides.  The build
itself checks only that every same-hand pair has a rule.  What certifies
a table is ``verify_relations``, which reduces every instance to zero: the
tests run it on fresh tables, and a table loaded from the cache must pass
it before it is used, or it is rebuilt and stored again.

Inside the engine a square-free monomial is an int bitmask: the ring
numbers its generators in ``gen_rank_key`` order and sets bit k for
generator k.  A graded product of two monomials vanishes exactly when
their masks share a bit and is otherwise their union; in the d = 1 rings
(idempotent generators) it is always the union.  Because the bit order is
the rank order, ``(popcount, mask)`` is the monomial order, and the rule
table is keyed by the mask of the straightened generator pair.  Tuples of
generators appear only at the edges: ``RingElement.terms``,
``nbc_basis``, ``rules`` and the cache files.

Coefficients are Python ints throughout: orienting a rule divides by its
lead coefficient exactly (every rule coefficient lies in -2..2 at rank
<= 4), and ``RingElement`` rejects a coefficient that is not a whole
number.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from . import cache
from .permutations import SignedPerm, apply

Gen = tuple  # (i,) loop; (i, j, s) pair, i < j, s in {1, -1}; (0,) is reserved
Monomial = tuple  # sorted tuple of Gens
Mask = int  # square-free monomial: bit k set for the ring's generator k

SPACES = ("Z1", "Z3", "Y1", "Y3")

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


def gen_to_token(g: Gen) -> str:
    if len(g) == 1:
        return f"z{g[0]}"
    i, j, s = g
    if i > 9 or j > 9:
        raise ValueError("token form only supports single-digit indices")
    return f"z{i}{j}{'+' if s > 0 else '-'}"


def token_to_gen(token: str) -> Gen:
    body = token[1:]
    if body[-1] in "+-":
        sign = 1 if body[-1] == "+" else -1
        digits = body[:-1]
        if len(digits) != 2:
            raise ValueError(f"ambiguous pair token {token!r}")
        return (int(digits[0]), int(digits[1]), sign)
    return (int(body),)


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
        self._check(other)
        return RingElement._of(self.ring, poly_add(self.masks, other.masks))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        scalar = _integral(scalar)
        if not scalar:
            return RingElement._of(self.ring, {})
        return RingElement._of(self.ring, {k: scalar * c for k, c in self.masks.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
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
    """Rewrite engine for one of the four presented spaces at a fixed rank."""

    def __init__(self, space: str, rank: int):
        if space not in SPACES:
            raise ValueError(f"unknown space {space!r}")
        self.space = space
        self.rank = rank
        self.graded = space.endswith("3")
        self.lifted = space.startswith("Y")
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

    def _free_product(self, polys) -> dict[Mask, int]:
        graded = self.graded
        out = {0: 1}
        for poly in polys:
            nxt: dict[Mask, int] = {}
            for m1, c1 in out.items():
                for m2, c2 in poly.items():
                    if graded and m1 & m2:
                        continue
                    m = m1 | m2
                    nxt[m] = nxt.get(m, 0) + c1 * c2
            out = {m: c for m, c in nxt.items() if c}
        return out

    def _relation_instances(self):
        """All defining relations instantiated over signed index labels."""
        letters = [i for i in range(1, self.rank + 1)] + [
            -i for i in range(1, self.rank + 1)
        ]
        loop = {a: self.canonical_loop(a).masks for a in letters}
        pair = {
            (a, b): self.canonical_pair(a, b).masks
            for a, b in itertools.permutations(letters, 2)
            if abs(a) != abs(b)
        }

        rels = []
        for a, b in pair:
            # pair*loop and the mixed pair/pair straightenings
            rels.append(self._triple_relation(pair[(a, b)], loop[a], loop[b]))
            rels.append(self._triple_relation(loop[b], pair[(a, -b)], pair[(a, b)]))
        for a, b, c in itertools.permutations(letters, 3):
            if len({abs(a), abs(b), abs(c)}) == 3:
                rels.append(self._triple_relation(pair[(a, b)], pair[(b, c)], pair[(a, c)]))
        return [r for r in rels if r]

    def _triple_relation(self, x, y, z) -> dict[Mask, int]:
        """The relation on three generator images, expanded in the free ring:
        xy - xz - yz when graded, xy(1 - z) + (1 - x)(1 - y)z otherwise."""
        prod = self._free_product
        if self.graded:
            return poly_sub(prod([x, y]), poly_add(prod([x, z]), prod([y, z])))
        return poly_add(prod([x, y, _one_minus(z)]), prod([_one_minus(x), _one_minus(y), z]))

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
        key = f"rewrite-v1-{self.space}-n{self.rank}"
        stored = cache.load(key)
        if stored is not None and self._rules_from_cache(stored):
            return
        for poly in self._relation_instances():
            reduced = self._reduce_poly(poly)
            if not reduced:
                continue
            lead = max(reduced, key=mask_order_key)
            lead_c = reduced[lead]
            low = lead & -lead
            if lead.bit_count() != 2 or not lead & self._higher_in_hand[low.bit_length() - 1]:
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
        cache.store(key, self._rules_to_cache())

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

    def _rules_to_cache(self):
        out = {}
        for (g1, g2), rhs in self.rules.items():
            key = gen_to_token(g1) + "*" + gen_to_token(g2)
            out[key] = [
                {
                    "monomial": [gen_to_token(g) for g in m],
                    "coeff": f"{c.numerator}/{c.denominator}",
                }
                for m, c in sorted(rhs.items(), key=lambda kv: monomial_order_key(kv[0]))
            ]
        return {"space": self.space, "rank": self.rank, "rules": out}

    def _rules_from_cache(self, stored) -> bool:
        try:
            if stored["space"] != self.space or stored["rank"] != self.rank:
                return False
            table: dict[Mask, dict[Mask, int]] = {}
            for key, rhs_list in stored["rules"].items():
                t1, t2 = key.split("*")
                g1, g2 = token_to_gen(t1), token_to_gen(t2)
                if g1 == g2 or gen_hand(g1) != gen_hand(g2):
                    raise ValueError(f"rule key {key!r} is not a same-hand pair")
                rhs = {}
                for item in rhs_list:
                    m = monomial_sort(token_to_gen(t) for t in item["monomial"])
                    rhs[self.mask_of(m)] = _integral(Fraction(item["coeff"]))
                pair = self.bits[g1] | self.bits[g2]
                if table.setdefault(pair, rhs) != rhs:
                    raise ValueError(f"the two orders of rule {key!r} disagree")
            if len(stored["rules"]) != 2 * len(table):
                raise ValueError("a rule is stored in one order only")
            self._set_table(table)
            self._assert_complete()
            self.verify_relations()
            return True
        except (KeyError, ValueError, TypeError, ZeroDivisionError, AssertionError, RuntimeError):
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
        out: dict[Mask, int] = {}
        for m, c in poly.items():
            for m2, c2 in self._normal_form(m).items():
                out[m2] = out.get(m2, 0) + c * c2
        return {m: c for m, c in out.items() if c}

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
        out: dict[Mask, int] = {}
        for m, c in poly.items():
            sq = self._raw_mask(m)
            if sq is None:
                continue
            for m2, c2 in self._normal_form(sq).items():
                out[m2] = out.get(m2, 0) + c * c2
        return RingElement._of(self, {m: c for m, c in out.items() if c})

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

    def _letter(self, index: int) -> int:
        """Encode a signed z-index as a letter of the lifted space: 0 -> 1."""
        return index + 1 if index > 0 else index - 1

    def _unletter(self, e: int) -> int:
        return e - 1 if e > 0 else e + 1

    def _op_not(self, x: RingElement) -> RingElement:
        return -1 * x if self.graded else self.one() - x

    def _marked_pair(self, b: int, c: int) -> RingElement:
        """The cyclic-order class with the marked point first: letters (0, b, c)."""
        if b == -1:
            return self.canonical_loop(self._unletter(c))
        if c == -1:
            return self._op_not(self.canonical_loop(self._unletter(b)))
        if c == -b:
            return self.canonical_loop(-self._unletter(b))
        return self.canonical_pair(self._unletter(b), self._unletter(c))

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
        if not self.lifted:
            if len(sigma) != self.rank:
                raise ValueError("element rank must match the ring rank")
            if len(g) == 1:
                return self.canonical_loop(apply(sigma, g[0]))
            i, j, s = g
            return self.canonical_pair(apply(sigma, i), apply(sigma, s * j))
        if len(sigma) != self.rank + 1:
            raise ValueError("lifted spaces take elements of rank+1")
        zero_img = apply(sigma, 1)
        if len(g) == 1:
            return self._letter_triple(
                zero_img, -zero_img, apply(sigma, self._letter(g[0]))
            )
        i, j, s = g
        return self._letter_triple(
            zero_img,
            apply(sigma, self._letter(i)),
            apply(sigma, self._letter(s * j)),
        )

    def act(self, sigma: SignedPerm, x: RingElement) -> RingElement:
        if x.ring is not self:
            raise ValueError("element does not belong to this ring")
        images: dict[Mask, dict[Mask, int]] = {}
        out: dict[Mask, int] = {}
        for m, c in x.masks.items():
            term = {0: c}
            rest = m
            while rest:
                b = rest & -rest
                rest ^= b
                img = images.get(b)
                if img is None:
                    g = self._bit_gens[b.bit_length() - 1]
                    img = images[b] = self.act_on_generator(sigma, g).masks
                term = self.product(term, img)
            out = poly_add(out, term)
        return RingElement._of(self, out)


def poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def poly_sub(p, q):
    return poly_add(p, {m: -c for m, c in q.items()})


def _one_minus(p):
    return poly_add({m: -c for m, c in p.items()}, {0: 1})


@lru_cache(maxsize=None)
def get_ring(space: str, rank: int) -> PresentedRing:
    return PresentedRing(space, rank)


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
