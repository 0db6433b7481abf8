from fractions import Fraction

import numpy as np
import pytest

from hyperoct.characters import ClassFunction, decompose
from hyperoct.permutations import (
    apply,
    compose,
    group_generators,
    group_order,
    identity,
    letter,
    signed_partitions,
    standard_representative,
)
from hyperoct.ringreps import (
    _basis_buckets,
    _bucket_character,
    acting_rank,
    bidegree,
    bigraded_dimensions,
    diagonal_coefficients,
    graded_character,
    type_dimension,
)
from hyperoct.rings import (
    SPACES,
    RingElement,
    associated_graded_mismatch,
    gen_hand,
    get_ring,
    hilbert_coefficients,
    monomial_order_key,
    monomial_sort,
    poly_add,
    poly_sub,
    type_of,
)
from signed_perms import all_signed_perms

# the four representations: B_n on Z1 and Z3, and the lifted B_{n+1} on them
REPRESENTATIONS = ("Z1", "Z3", "Y1", "Y3")


def _ring_of(space: str, rank: int):
    """The ring a representation acts on, and the rank of its group."""
    return get_ring("Z" + space[1], rank), acting_rank(space, rank)


def test_canonicalize_published_relabelings():
    r3 = get_ring("Z3", 2)
    z1, z2 = r3.generator((1,)), r3.generator((2,))
    assert r3.canonical_pair(-1, 2) == r3.generator((1, 2, -1)) + z1 + z2
    assert r3.canonical_pair(2, 1) == -1 * r3.generator((1, 2, 1))
    assert r3.canonical_pair(-1, -2) == r3.generator((1, 2, 1)) + z1 - 1 * z2
    r1 = get_ring("Z1", 2)
    assert r1.canonical_loop(-1) == r1.one() - r1.generator((1,))
    assert r1.canonical_pair(2, 1) == r1.one() - r1.generator((1, 2, 1))
    assert (
        r1.canonical_pair(-1, 2)
        == r1.generator((1, 2, -1))
        + r1.generator((1,))
        + r1.generator((2,))
        - r1.one()
    )


def test_canonicalize_rejects_repeated_index():
    r3 = get_ring("Z3", 2)
    with pytest.raises(ValueError):
        r3.canonical_pair(1, -1)


def test_multiply_straightening_examples():
    r3 = get_ring("Z3", 2)
    z1, z2 = r3.generator((1,)), r3.generator((2,))
    z12 = r3.generator((1, 2, 1))
    assert z2 * z12 == z1 * z12 - z1 * z2
    x = z1 * z12 + 2 * z2
    assert r3.one() * x == x
    assert (z12 * z12).is_zero()
    r1 = get_ring("Z1", 2)
    w1 = r1.generator((1,))
    assert w1 * w1 == w1


def test_nbc_basis_rank_two_matches_published_lists():
    r3 = get_ring("Z3", 2)
    deg1 = r3.nbc_basis(degree=1)
    assert set(deg1) == {((1,),), ((2,),), ((1, 2, 1),), ((1, 2, -1),)}
    deg2 = r3.nbc_basis(degree=2)
    assert set(deg2) == {
        ((1,), (1, 2, 1)),
        ((1,), (1, 2, -1)),
        ((1,), (2,)),
    }


@pytest.mark.parametrize("space", REPRESENTATIONS)
def test_nbc_basis_is_built_once_and_returned_as_a_new_list(space):
    ring, _ = _ring_of(space, 3)
    basis = ring.nbc_basis()
    assert basis == sorted(basis, key=monomial_order_key)
    assert len(set(basis)) == len(basis) == group_order(3)
    assert all(
        len({gen_hand(g) for g in m}) == len(m) == len(set(m)) for m in basis
    )
    for degree in (None, 0, 1, 2, 3):
        want = [m for m in basis if degree is None or len(m) == degree]
        assert ring.nbc_basis(degree=degree) == want
    # a representation is traced over its ring's basis
    by_degree = {d: [k for k, m in enumerate(basis) if len(m) == d] for d in range(4)}
    assert _basis_buckets(space, 3, len) == by_degree
    basis.clear()  # callers may mutate what they get
    assert len(ring.nbc_basis()) == group_order(3)
    assert [ring.monomial_of(k) for k in ring.nbc_masks()] == ring.nbc_basis()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_basis_counts_match_hilbert_series(n):
    coeffs = hilbert_coefficients(n)
    for space in ("Z3", "Z1"):
        ring = get_ring(space, n)
        assert [len(ring.nbc_basis(degree=d)) for d in range(n + 1)] == coeffs
    assert sum(coeffs) == group_order(n)


def test_hilbert_series_values():
    assert hilbert_coefficients(2) == [1, 4, 3]
    assert hilbert_coefficients(3) == [1, 9, 23, 15]


@pytest.mark.parametrize("space", REPRESENTATIONS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_defining_relations_reduce_to_zero(space, n):
    ring, acting = _ring_of(space, n)
    if acting == n:
        assert ring.verify_relations() > 0 or n == 1
        return
    # the lifted action is well defined: it carries every relation instance
    # to zero, and squares (d = 3) or idempotents (d = 1) to the same
    for sigma in group_generators(acting):
        for poly in ring._relation_instances():
            assert ring.act(sigma, RingElement._of(ring, poly)).is_zero(), (sigma, poly)
        for g in ring.gens:
            img = ring.act_on_generator(sigma, g)
            assert img * img == (ring.zero() if ring.graded else img), (sigma, g)


@pytest.mark.parametrize("space", REPRESENTATIONS)
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_rule_tables_are_integral(space, rank):
    ring, acting = _ring_of(space, rank)
    assert all(type(c) is int for rhs in ring.rules.values() for c in rhs.values())
    for sigma in group_generators(acting):
        for g in ring.gens:
            coeffs = ring.act_on_generator(sigma, g).masks.values()
            assert all(type(c) is int for c in coeffs), (sigma, g)


def _reference_square_free(ring, gens):
    """Collapse squares of a tuple monomial; None means it vanished (graded)."""
    distinct = set(gens)
    if ring.graded and len(distinct) != len(gens):
        return None
    return monomial_sort(distinct)


def _reference_collision(ring, m):
    """The pair the tuple scan rewrites first: the first generator that has
    a same-hand partner with a rule, and its first such partner."""
    for i in range(len(m)):
        for j in range(i + 1, len(m)):
            if gen_hand(m[j]) == gen_hand(m[i]) and (m[i], m[j]) in ring.rules:
                return m[i], m[j]
    return None


def _reference_product(ring, p, q, memo):
    """Product of two tuple polynomials by the tuple reference."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            merged = _reference_square_free(ring, m1 + m2)
            if merged is None:
                continue
            for m, c in _reference_normal_form(ring, merged, memo).items():
                out[m] = out.get(m, 0) + c1 * c2 * c
    return {m: c for m, c in out.items() if c}


def _reference_normal_form(ring, m, memo):
    """Straightening on sorted generator tuples and the ``rules`` view."""
    if m in memo:
        return memo[m]
    hit = _reference_collision(ring, m)
    if hit is None:
        out = {m: 1}
    else:
        rest = tuple(g for g in m if g not in hit)
        out = {}
        for sub, c in ring.rules[hit].items():
            merged = _reference_square_free(ring, rest + sub)
            if merged is None:
                continue
            for m2, c2 in _reference_normal_form(ring, merged, memo).items():
                out[m2] = out.get(m2, 0) + c * c2
        out = {mm: cc for mm, cc in out.items() if cc}
    memo[m] = out
    return out


@pytest.mark.parametrize("space", REPRESENTATIONS)
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_mask_straightening_matches_tuple_reference(space, rank):
    ring, acting = _ring_of(space, rank)
    basis = ring.nbc_basis()
    memo = {}
    if acting == rank:
        for m1 in basis:
            for m2 in basis:
                want = _reference_product(ring, {m1: 1}, {m2: 1}, memo)
                assert ring.reduce_raw({m1 + m2: 1}).terms == want, (m1, m2)
                assert (ring.monomial(m1) * ring.monomial(m2)).terms == want, (m1, m2)
    else:
        # the products the lifted action forms: each basis monomial's image
        for sigma in group_generators(acting):
            images = {g: ring.act_on_generator(sigma, g).terms for g in ring.gens}
            for m in basis:
                want = {(): 1}
                for g in m:
                    want = _reference_product(ring, want, images[g], memo)
                assert ring.act(sigma, ring.monomial(m)).terms == want, (sigma, m)
    # the mask engine rewrites the same pair first at every monomial visited
    for m in memo:
        hit = _reference_collision(ring, m)
        got = ring._find_collision(ring.mask_of(m))
        assert (got and ring.monomial_of(got[0])) == (hit and tuple(hit)), m


def _two_branch_relation(ring, x, y, z):
    """The relation on three generator images as the paper states it,
    expanded factor by factor in the free ring: xy - xz - yz in the graded
    ring, xy(1 - z) + (1 - x)(1 - y)z in the function ring."""

    def prod(*polys):
        out = {0: 1}
        for poly in polys:
            nxt = {}
            for m1, c1 in out.items():
                for m2, c2 in poly.items():
                    if not (ring.graded and m1 & m2):
                        nxt[m1 | m2] = nxt.get(m1 | m2, 0) + c1 * c2
            out = {m: c for m, c in nxt.items() if c}
        return out

    def one_minus(p):
        return poly_add({m: -c for m, c in p.items()}, {0: 1})

    if ring.graded:
        return poly_sub(prod(x, y), poly_add(prod(x, z), prod(y, z)))
    return poly_add(prod(x, y, one_minus(z)), prod(one_minus(x), one_minus(y), z))


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_relation_instances_match_the_two_branch_formula(space, n):
    ring = get_ring(space, n)
    labels, triples = ring.relation_labels()
    want = (_two_branch_relation(ring, *(labels[k].masks for k in t)) for t in triples)
    assert ring._relation_instances() == [r for r in want if r]


def test_ring_elements_reject_non_integral_coefficients():
    ring = get_ring("Z3", 2)
    assert RingElement(ring, {(): Fraction(4, 2)}).terms == {(): 2}
    with pytest.raises(ValueError):
        RingElement(ring, {(): Fraction(1, 2)})
    with pytest.raises(ValueError):
        Fraction(1, 2) * ring.one()
    assert ring.reduce_raw({((1,),): Fraction(4, 2)}).masks == {ring.bits[(1,)]: 2}
    for c in (Fraction(1, 2), 0.5):
        with pytest.raises(ValueError):
            ring.reduce_raw({((1,),): c})


@pytest.mark.parametrize(
    "space,rank",
    [(s, r) for s in REPRESENTATIONS for r in (1, 2, 3)] + [("Z3", 4), ("Z1", 4)],
)
def test_diagonal_coefficients_match_full_action(space, rank):
    """Each diagonal entry is the coefficient of m in the image of m, formed
    by the tuple reference: the image of m's prefix times its top
    generator's image, as the ring's own image routine associates them."""
    ring, acting = _ring_of(space, rank)
    basis = ring.nbc_basis()
    diag = diagonal_coefficients(space, rank)
    assert set(diag) == set(signed_partitions(acting))
    memo = {}
    for lam, row in diag.items():
        sigma = standard_representative(lam)
        gens = {g: ring.act_on_generator(sigma, g).terms for g in ring.gens}
        images = {(): {(): 1}}
        assert len(row) == len(basis)
        for m, got in zip(basis, row):
            if m:
                images[m] = _reference_product(ring, images[m[:-1]], gens[m[-1]], memo)
            assert got == images[m].get(m, 0), (lam, m)


def test_action_published_cells():
    r3 = get_ring("Z3", 2)
    t2 = (1, -2)
    w0 = (-1, -2)
    z12 = r3.generator((1, 2, 1))
    assert r3.act(t2, z12) == r3.generator((1, 2, -1))
    z1z2 = r3.generator((1,)) * r3.generator((2,))
    assert r3.act(w0, z1z2) == z1z2


def test_lifted_action_letter_swap():
    # swapping the marked letter with letter 1 negates both rank-2 generators
    ring = get_ring("Z3", 2)
    swap = (2, 1, 3)
    assert ring.act(swap, ring.generator((1, 2, 1))) == -1 * ring.generator((1, 2, 1))
    assert ring.act(swap, ring.generator((1,))) == -1 * ring.generator((1,))


def substituted(ring, sigma, g):
    """The image of a generator under sigma in B_rank by substituting signed
    indices: z_i -> z_{sigma(i)}, z_ij^s -> the class of the pair
    (sigma(i), sigma(s j)).  The oracle for the lifted action."""
    if len(g) == 1:
        return ring.canonical_loop(apply(sigma, g[0]))
    i, j, s = g
    return ring.canonical_pair(apply(sigma, i), apply(sigma, s * j))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lifted_action_restricts_to_the_plain_action(n):
    # the elements of B_{n+1} fixing the marked letter act as B_n does by
    # substitution, and an element of B_n acts as its lift
    for space in SPACES:
        ring = get_ring(space, n)
        for sigma in all_signed_perms(n):
            fixing = (1, *map(letter, sigma))
            for g in ring.gens:
                expected = substituted(ring, sigma, g)
                assert ring.act_on_generator(fixing, g) == expected, (sigma, g)
                assert ring.act_on_generator(sigma, g) == expected, (sigma, g)


def test_action_rejects_an_element_of_the_wrong_rank():
    ring = get_ring("Z1", 2)
    for sigma in ((1,), (1, 2, 3, 4)):
        with pytest.raises(ValueError):
            ring.act_on_generator(sigma, (1,))


def test_there_is_no_lifted_ring():
    with pytest.raises(ValueError):
        get_ring("Y3", 2)


def test_eigenvectors_of_one_dimensional_pieces():
    r3 = get_ring("Z3", 2)
    z1, z2 = r3.generator((1,)), r3.generator((2,))
    zp, zm = r3.generator((1, 2, 1)), r3.generator((1, 2, -1))
    w0 = (-1, -2)
    t2 = (1, -2)
    v_plus = zp + zm + z1
    v_minus = zp - 1 * zm - 1 * z2
    assert r3.act(w0, v_plus) == v_plus
    assert r3.act(w0, z1 * z2) == z1 * z2
    assert r3.act(t2, v_minus) == -1 * v_minus


@pytest.mark.parametrize("space", ["Z1", "Z3"])
@pytest.mark.parametrize("n", [2, 3])
def test_action_axioms_on_generator_pairs(space, n):
    ring = get_ring(space, n)
    gens = group_generators(n)
    basis = [ring.monomial(m) for m in ring.nbc_basis()]
    for x in basis:
        assert ring.act(identity(n), x) == x
    for a in gens:
        for b in gens:
            ab = compose(a, b)
            for x in basis:
                assert ring.act(ab, x) == ring.act(a, ring.act(b, x))


@pytest.mark.parametrize("space", ["Y1", "Y3"])
def test_lifted_action_axioms(space):
    m = 2
    ring, acting = _ring_of(space, m)
    gens = group_generators(acting)
    basis = [ring.monomial(mm) for mm in ring.nbc_basis()]
    for a in gens:
        for b in gens:
            ab = compose(a, b)
            for x in basis:
                assert ring.act(ab, x) == ring.act(a, ring.act(b, x))


def test_action_well_defined_on_relation_images():
    # acting on any defining relation instance must stay zero
    ring = get_ring("Z3", 2)
    z1, z2 = ring.generator((1,)), ring.generator((2,))
    zp = ring.generator((1, 2, 1))
    rel = zp * z1 - zp * z2 - z1 * z2
    assert rel.is_zero()
    for sigma in all_signed_perms(2):
        assert ring.act(sigma, rel).is_zero()


def test_graded_character_rank_two_decomposition():
    chars = graded_character(2, "Z3")
    assert decompose(chars[0]) == {((2,), ()): 1}
    assert decompose(chars[1]) == {
        ((1, 1), ()): 1,
        ((), (1, 1)): 1,
        ((1,), (1,)): 1,
    }
    assert decompose(chars[2]) == {((), (2,)): 1, ((1,), (1,)): 1}


def test_graded_character_degree_zero_is_trivial():
    for n in (1, 2, 3):
        chi = graded_character(n, "Z3")[0]
        assert all(v == 1 for v in chi.values)


def test_type_map_published_example():
    mono = ((1, 2, -1), (1, 2, -1), (5,), (5, 6, -1), (7,), (7,), (7,))
    pos, neg = type_of(mono, 8)
    assert pos == ((1, 2), (3,), (4,), (8,))
    assert neg == ((5, 6), (7,))


def test_type_map_trivia():
    assert type_of((), 3) == (((1,), (2,), (3,)), ())
    assert type_of(((1,), (1, 2, 1)), 2) == ((), ((1, 2),))


def test_type_shapes_partition_basis():
    n = 3
    assert sum(type_dimension(lam) for lam in signed_partitions(n)) == group_order(n)


def test_bigraded_dimensions_partition_degrees():
    for n in (2, 3, 4):
        dims = bigraded_dimensions(n)
        coeffs = hilbert_coefficients(n)
        for k in range(n + 1):
            assert sum(d for (kk, _), d in dims.items() if kk == k) == coeffs[k]


def bigraded_character(n: int) -> dict[tuple[int, int], ClassFunction]:
    """Characters of the (total degree, loop degree) pieces of the graded
    d = 3 ring."""
    buckets = _basis_buckets("Z3", n, bidegree)
    return {key: _bucket_character("Z3", n, pos) for key, pos in buckets.items()}


def test_bigraded_characters_sum_to_graded():
    n = 2
    by_degree = graded_character(n, "Z3")
    bigraded = bigraded_character(n)
    for k in range(n + 1):
        pieces = [chi for (kk, _), chi in bigraded.items() if kk == k]
        total = pieces[0]
        for chi in pieces[1:]:
            total = total + chi
        assert total == by_degree[k]


def test_bigraded_characters_decompose_by_type():
    from hyperoct.ringreps import type_character

    for n in (2, 3):
        bigraded = bigraded_character(n)
        for (k, loops), chi in bigraded.items():
            matching = [
                lam
                for lam in signed_partitions(n)
                if len(lam[0]) == n - k and len(lam[1]) == loops
            ]
            total = type_character(matching[0])
            for lam in matching[1:]:
                total = total + type_character(lam)
            assert total == chi, (n, k, loops)


def test_top_negative_type_restricts_to_regular_one_rank_down():
    from hyperoct.characters import regular_character
    from hyperoct.ringreps import type_character

    for n in (2, 3, 4):
        chi = type_character(((), (n,)))
        reg = regular_character(n - 1)
        for mu in signed_partitions(n - 1):
            embedded = (tuple(sorted(mu[0] + (1,), reverse=True)), mu[1])
            assert chi[embedded] == reg[mu], (n, mu)


def test_top_negative_type_dimension():
    assert type_dimension(((), (2,))) == 2
    assert type_dimension(((), (3,))) == 8
    assert type_dimension(((), (4,))) == 48


def test_graded_pieces_of_function_ring_match_d3():
    # the full Z1 trace is the oracle for the structural check that main-iso
    # runs instead of it
    for n in (1, 2, 3, 4, 5):
        assert associated_graded_mismatch(n) is None
        assert graded_character(n, "Z1") == graded_character(n, "Z3")


def test_lifted_characters_restrict_to_unlifted_ones():
    # the subgroup fixing the marked letter acts on the lifted ring exactly
    # as the full group acts on the unlifted one; an embedded class of
    # cycle type lam has lifted type (lam+ with an extra fixed point, lam-)
    for n in (2, 3):
        lifted = graded_character(n, "Y3")
        plain = graded_character(n, "Z3")
        for k in range(n + 1):
            for lam in signed_partitions(n):
                embedded = (
                    tuple(sorted(lam[0] + (1,), reverse=True)),
                    lam[1],
                )
                assert lifted[k][embedded] == plain[k][lam], (n, k, lam)


def test_ring_multiplication_is_associative_and_commutative():
    import random

    rng = random.Random(424242)
    for space in ("Z1", "Z3"):
        ring = get_ring(space, 3)
        basis = ring.nbc_basis()

        def rand_elt():
            out = ring.zero()
            for m in rng.sample(basis, 6):
                out = out + rng.randint(-3, 3) * ring.monomial(m)
            return out

        for _ in range(8):
            a, b, c = rand_elt(), rand_elt(), rand_elt()
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_pretty_printer_uses_tilde_for_negative_pairs():
    ring = get_ring("Z3", 2)
    assert "z1~2" in repr(ring.generator((1, 2, -1)))


def test_ring_element_operands_are_ring_elements_or_rationals():
    ring = get_ring("Z3", 2)
    x = ring.generator((1,))
    for bad in (lambda: x + 1, lambda: x - 1, lambda: 1 - x, lambda: x * 2.5):
        with pytest.raises(TypeError):
            bad()
    assert x * np.int64(2) == 2 * x == x + x


def test_relation_labels_cover_every_signed_label():
    n = 3
    labels, triples = get_ring("Z1", n).relation_labels()
    pairs = [k for k in labels if len(k) == 2]
    assert len(labels) - len(pairs) == 2 * n and len(pairs) == 2 * n * (2 * n - 2)
    # two families per pair, one per ordered triple of distinct moduli
    assert len(triples) == 2 * len(pairs) + 2 * n * (2 * n - 2) * (2 * n - 4)
    assert {k for t in triples for k in t} == set(labels)
    assert labels[(-1,)] == get_ring("Z1", n).one() - labels[(1,)]
