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

Coefficients are Python ints throughout: orienting a rule divides by its
lead coefficient exactly (every rule coefficient lies in -2..2 at rank
<= 4), and ``RingElement`` rejects a coefficient that is not a whole
number.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from functools import lru_cache

from . import cache
from .permutations import SignedPerm, apply

Gen = tuple  # (i,) loop; (i, j, s) pair, i < j, s in {1, -1}; (0,) is reserved
Monomial = tuple  # sorted tuple of Gens

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
    """Linear combination of normal-form monomials in a presented ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: "PresentedRing", terms: dict[Monomial, int] | None = None):
        self.ring = ring
        terms = {m: c for m, c in (terms or {}).items() if c}
        if any(type(c) is not int for c in terms.values()):
            terms = {m: _integral(c) for m, c in terms.items()}
        self.terms = terms

    def _check(self, other: "RingElement"):
        if self.ring is not other.ring:
            raise ValueError("elements from different rings")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return RingElement(self.ring, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        scalar = _integral(scalar)
        return RingElement(self.ring, {m: scalar * c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__rmul__(other)
        self._check(other)
        return RingElement(self.ring, self.ring.product(self.terms, other.terms))

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.ring is other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_part(self, degree: int) -> "RingElement":
        return RingElement(
            self.ring, {m: c for m, c in self.terms.items() if len(m) == degree}
        )

    def coefficient(self, m: Monomial) -> int:
        return self.terms.get(m, 0)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items(), key=lambda kv: monomial_order_key(kv[0])):
            name = "*".join(gen_pretty(g) for g in m) if m else "1"
            bits.append(f"({c})*{name}")
        return " + ".join(bits)

    def to_json(self) -> str:
        data = [
            {
                "monomial": [gen_to_token(g) for g in m],
                "coeff": f"{c.numerator}/{c.denominator}",
            }
            for m, c in sorted(self.terms.items(), key=lambda kv: monomial_order_key(kv[0]))
        ]
        return json.dumps(data, sort_keys=True)

    @staticmethod
    def from_json(ring: "PresentedRing", text: str) -> "RingElement":
        data = json.loads(text)
        terms = {}
        for item in data:
            m = monomial_sort(token_to_gen(t) for t in item["monomial"])
            terms[m] = Fraction(item["coeff"])
        return RingElement(ring, terms)


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
        self._nf_cache: dict[Monomial, dict[Monomial, int]] = {}
        self.rules: dict[tuple[Gen, Gen], dict[Monomial, int]] = {}
        self._build_rules()

    # -- building blocks ----------------------------------------------------

    def zero(self) -> RingElement:
        return RingElement(self)

    def one(self) -> RingElement:
        return RingElement(self, {(): 1})

    def generator(self, g: Gen) -> RingElement:
        return RingElement(self, {(g,): 1})

    def monomial(self, m: Monomial) -> RingElement:
        return RingElement(self, {monomial_sort(m): 1})

    def canonical_loop(self, a: int) -> RingElement:
        """The loop labeled by a signed index, as a canonical combination."""
        if a == 0:
            raise ValueError("loop index must be nonzero")
        if a > 0:
            return self.generator((a,))
        neg = -1 * self.generator((-a,))
        return neg if self.graded else self.one() + neg

    def canonical_pair(self, a: int, b: int) -> RingElement:
        """The pair labeled by two signed indices, as a canonical combination."""
        if abs(a) == abs(b) or a == 0 or b == 0:
            raise ValueError(f"pair indices must have distinct nonzero moduli: {a},{b}")
        if abs(a) > abs(b):
            swapped = self.canonical_pair(b, a)
            return (
                -1 * swapped if self.graded else self.one() - swapped
            )
        if a > 0:
            return self.generator((a, abs(b), 1 if b > 0 else -1))
        # a < 0, |a| < |b|: rewrite the negated first index
        i, j = -a, abs(b)
        zi, zj = self.generator((i,)), self.generator((j,))
        if b > 0:
            out = self.generator((i, j, -1)) + zi + zj
            return out if self.graded else out - self.one()
        return self.generator((i, j, 1)) + zi - 1 * zj

    def canonicalize(self, label) -> RingElement:
        """Public canonicalization of a transient generator label."""
        if len(label) == 1:
            return self.canonical_loop(label[0])
        if len(label) == 2:
            return self.canonical_pair(label[0], label[1])
        raise ValueError(f"bad generator label {label!r}")

    # -- free expansion (used only while generating relations) ---------------

    def _square_free(self, gens) -> Monomial | None:
        """Collapse squares; None means the monomial vanished (graded case)."""
        distinct = set(gens)
        if self.graded and len(distinct) != len(list(gens)):
            return None
        return monomial_sort(distinct)

    def _free_product(self, polys) -> dict[Monomial, int]:
        out = {(): 1}
        for poly in polys:
            nxt: dict[Monomial, int] = {}
            for m1, c1 in out.items():
                for m2, c2 in poly.items():
                    m = self._square_free(m1 + m2)
                    if m is None:
                        continue
                    nxt[m] = nxt.get(m, 0) + c1 * c2
            out = {m: c for m, c in nxt.items() if c}
        return out

    def _linear(self, element: RingElement) -> dict[Monomial, int]:
        return dict(element.terms)

    def _relation_instances(self):
        """All defining relations instantiated over signed index labels."""
        letters = [i for i in range(1, self.rank + 1)] + [
            -i for i in range(1, self.rank + 1)
        ]

        def one_minus(p):
            out = {m: -c for m, c in p.items()}
            out[()] = out.get((), 0) + 1
            return {m: c for m, c in out.items() if c}

        rels = []
        pairs = [
            (a, b) for a, b in itertools.permutations(letters, 2) if abs(a) != abs(b)
        ]
        for a, b in pairs:
            zab = self._linear(self.canonical_pair(a, b))
            za = self._linear(self.canonical_loop(a))
            zb = self._linear(self.canonical_loop(b))
            zab_neg = self._linear(self.canonical_pair(a, -b))
            if self.graded:
                # pair*loop and the mixed pair/pair straightenings
                rels.append(
                    poly_sub(
                        self._free_product([zab, za]),
                        poly_add(
                            self._free_product([zab, zb]),
                            self._free_product([za, zb]),
                        ),
                    )
                )
                rels.append(
                    poly_sub(
                        self._free_product([zb, zab_neg]),
                        poly_add(
                            self._free_product([zab, zab_neg]),
                            self._free_product([zb, zab]),
                        ),
                    )
                )
            else:
                rels.append(
                    poly_add(
                        self._free_product([zab, za, one_minus(zb)]),
                        self._free_product([one_minus(zab), one_minus(za), zb]),
                    )
                )
                rels.append(
                    poly_add(
                        self._free_product([zb, zab_neg, one_minus(zab)]),
                        self._free_product([one_minus(zb), one_minus(zab_neg), zab]),
                    )
                )
        for a, b, c in itertools.permutations(letters, 3):
            if len({abs(a), abs(b), abs(c)}) != 3:
                continue
            zab = self._linear(self.canonical_pair(a, b))
            zbc = self._linear(self.canonical_pair(b, c))
            zac = self._linear(self.canonical_pair(a, c))
            if self.graded:
                rels.append(
                    poly_sub(
                        self._free_product([zab, zbc]),
                        poly_add(
                            self._free_product([zab, zac]),
                            self._free_product([zbc, zac]),
                        ),
                    )
                )
            else:
                rels.append(
                    poly_add(
                        self._free_product([zab, zbc, one_minus(zac)]),
                        self._free_product([one_minus(zab), one_minus(zbc), zac]),
                    )
                )
        return [r for r in rels if r]

    # -- completion -----------------------------------------------------------

    def _build_rules(self):
        key = f"rewrite-v1-{self.space}-n{self.rank}"
        stored = cache.load(key)
        if stored is not None and self._rules_from_cache(stored):
            return
        queue = self._relation_instances()
        for poly in queue:
            reduced = self._reduce_poly(poly)
            if not reduced:
                continue
            lead = max(reduced, key=monomial_order_key)
            lead_c = reduced[lead]
            if len(lead) != 2 or gen_hand(lead[0]) != gen_hand(lead[1]):
                raise AssertionError(
                    f"irreducible relation with normal-form lead {lead} in {self.space}"
                )
            rhs = {}
            for m, c in reduced.items():
                if m == lead:
                    continue
                quotient, rest = divmod(-c, lead_c)
                if rest:
                    raise AssertionError(
                        f"lead coefficient {lead_c} does not divide relation "
                        f"{reduced} in {self.space}"
                    )
                rhs[m] = quotient
            self.rules[(lead[0], lead[1])] = rhs
            self.rules[(lead[1], lead[0])] = rhs
            self._nf_cache.clear()
        self._assert_complete()
        self._interreduce()
        cache.store(key, self._rules_to_cache())

    def _assert_complete(self):
        for j in range(1, self.rank + 1):
            hand = [g for g in self.gens if gen_hand(g) == j]
            for g1, g2 in itertools.combinations(hand, 2):
                if (g1, g2) not in self.rules:
                    raise AssertionError(
                        f"no straightening rule for {gen_pretty(g1)}*{gen_pretty(g2)}"
                    )

    def _interreduce(self):
        for key_pair in list(self.rules):
            rhs = self.rules[key_pair]
            flat: dict[Monomial, int] = {}
            for m, c in rhs.items():
                for m2, c2 in self._normal_form(m).items():
                    flat[m2] = flat.get(m2, 0) + c * c2
            self.rules[key_pair] = {m: c for m, c in flat.items() if c}
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
            rules = {}
            for key, rhs_list in stored["rules"].items():
                t1, t2 = key.split("*")
                g1, g2 = token_to_gen(t1), token_to_gen(t2)
                rhs = {}
                for item in rhs_list:
                    m = monomial_sort(token_to_gen(t) for t in item["monomial"])
                    rhs[m] = _integral(Fraction(item["coeff"]))
                rules[(g1, g2)] = rhs
            self.rules = rules
            self._assert_complete()
            self.verify_relations()
            return True
        except (KeyError, ValueError, TypeError, ZeroDivisionError, AssertionError, RuntimeError):
            # RuntimeError covers a table whose rewriting never terminates
            self.rules = {}
            self._nf_cache.clear()
            return False

    # -- normal forms ----------------------------------------------------------

    def _find_collision(self, m: Monomial):
        for i in range(len(m)):
            hand = gen_hand(m[i])
            for j in range(i + 1, len(m)):
                if gen_hand(m[j]) == hand and (m[i], m[j]) in self.rules:
                    return i, j
        return None

    def _normal_form(self, m: Monomial, _budget: list | None = None) -> dict[Monomial, int]:
        cached = self._nf_cache.get(m)
        if cached is not None:
            return cached
        if _budget is None:
            _budget = [_RULE_STEP_BOUND]
        _budget[0] -= 1
        if _budget[0] < 0:
            raise RuntimeError("rewrite step bound exceeded")
        pos = self._find_collision(m)
        if pos is None:
            out = {m: 1}
        else:
            i, j = pos
            g1, g2 = m[i], m[j]
            rest = m[:i] + m[i + 1 : j] + m[j + 1 :]
            out = {}
            for sub, c in self.rules[(g1, g2)].items():
                merged = self._square_free(rest + sub)
                if merged is None:
                    continue
                for m2, c2 in self._normal_form(merged, _budget).items():
                    out[m2] = out.get(m2, 0) + c * c2
            out = {mm: cc for mm, cc in out.items() if cc}
        self._nf_cache[m] = out
        return out

    def _reduce_poly(self, poly: dict[Monomial, int]) -> dict[Monomial, int]:
        out: dict[Monomial, int] = {}
        for m, c in poly.items():
            for m2, c2 in self._normal_form(m).items():
                out[m2] = out.get(m2, 0) + c * c2
        return {m: c for m, c in out.items() if c}

    def normal_form_product(self, m1: Monomial, m2: Monomial) -> dict[Monomial, int]:
        merged = self._square_free(m1 + m2)
        if merged is None:
            return {}
        return self._normal_form(merged)

    def product(
        self, p: dict[Monomial, int], q: dict[Monomial, int]
    ) -> dict[Monomial, int]:
        """Normal form of the product of two normal-form polynomials."""
        out: dict[Monomial, int] = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                for m, c in self.normal_form_product(m1, m2).items():
                    out[m] = out.get(m, 0) + c1 * c2 * c
        return {m: c for m, c in out.items() if c}

    def product_coefficient(
        self, p: dict[Monomial, int], q: dict[Monomial, int], target: Monomial
    ) -> int:
        """Coefficient of ``target`` in ``product(p, q)``, without forming it."""
        total = 0
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                c = self.normal_form_product(m1, m2).get(target)
                if c:
                    total += c1 * c2 * c
        return total

    def reduce_raw(self, poly: dict[Monomial, int]) -> RingElement:
        """Reduce a free polynomial (square collapse plus straightening)."""
        out: dict[Monomial, int] = {}
        for m, c in poly.items():
            sq = self._square_free(m)
            if sq is None:
                continue
            for m2, c2 in self._normal_form(sq).items():
                out[m2] = out.get(m2, 0) + c * c2
        return RingElement(self, out)

    def verify_relations(self) -> int:
        """Re-reduce every defining-relation instance to zero; returns the count."""
        count = 0
        for poly in self._relation_instances():
            if self._reduce_poly(poly):
                raise AssertionError(f"relation does not reduce to zero in {self.space}")
            count += 1
        return count

    # -- basis and series --------------------------------------------------------

    def nbc_basis(
        self, degree: int | None = None, loops: int | None = None
    ) -> list[Monomial]:
        """Products of at most one generator per hand, optionally filtered by
        total degree and by loop degree."""
        hands = []
        for i in range(1, self.rank + 1):
            hands.append([None] + [g for g in self.gens if gen_hand(g) == i])
        out = []
        for choice in itertools.product(*hands):
            gens = [g for g in choice if g is not None]
            if degree is not None and len(gens) != degree:
                continue
            if loops is not None and sum(1 for g in gens if len(g) == 1) != loops:
                continue
            out.append(monomial_sort(gens))
        out.sort(key=monomial_order_key)
        return out

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
        images: dict[Gen, dict[Monomial, int]] = {}
        out: dict[Monomial, int] = {}
        for m, c in x.terms.items():
            term = {(): c}
            for g in m:
                img = images.get(g)
                if img is None:
                    img = images[g] = self.act_on_generator(sigma, g).terms
                term = self.product(term, img)
            out = poly_add(out, term)
        return RingElement(self, out)


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
