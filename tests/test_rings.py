from fractions import Fraction

import pytest

from hyperoct.characters import ClassFunction, decompose
from hyperoct.permutations import (
    all_signed_perms,
    compose,
    group_generators,
    group_order,
    identity,
    signed_partitions,
    standard_representative,
)
from hyperoct.ringreps import (
    _basis_buckets,
    _bidegree,
    _bucket_character,
    acting_rank,
    bigraded_dimensions,
    diagonal_coefficients,
    graded_character,
    type_dimension,
)
from hyperoct.rings import (
    SPACES,
    RingElement,
    gen_hand,
    get_ring,
    hilbert_coefficients,
    monomial_order_key,
    monomial_sort,
    type_of,
)


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


@pytest.mark.parametrize("space", SPACES)
def test_nbc_basis_is_built_once_and_returned_as_a_new_list(space):
    ring = get_ring(space, 3)
    basis = ring.nbc_basis()
    assert basis == sorted(basis, key=monomial_order_key)
    assert len(set(basis)) == len(basis) == group_order(3)
    assert all(
        len({gen_hand(g) for g in m}) == len(m) == len(set(m)) for m in basis
    )
    for degree in (None, 0, 1, 2, 3):
        want = [m for m in basis if degree is None or len(m) == degree]
        assert ring.nbc_basis(degree=degree) == want
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


@pytest.mark.parametrize("space", ["Z1", "Z3", "Y1", "Y3"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_defining_relations_reduce_to_zero(space, n):
    assert get_ring(space, n).verify_relations() > 0 or n == 1


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_rule_tables_are_integral(space, rank):
    rules = get_ring(space, rank).rules
    assert all(type(c) is int for rhs in rules.values() for c in rhs.values())


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


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_mask_straightening_matches_tuple_reference(space, rank):
    ring = get_ring(space, rank)
    basis = ring.nbc_basis()
    memo = {}
    for m1 in basis:
        for m2 in basis:
            merged = _reference_square_free(ring, m1 + m2)
            want = {} if merged is None else _reference_normal_form(ring, merged, memo)
            assert ring.reduce_raw({m1 + m2: 1}).terms == want, (m1, m2)
            assert (ring.monomial(m1) * ring.monomial(m2)).terms == want, (m1, m2)
    # the mask engine rewrites the same pair first at every monomial visited
    for m in memo:
        hit = _reference_collision(ring, m)
        got = ring._find_collision(ring.mask_of(m))
        assert (got and ring.monomial_of(got[0])) == (hit and tuple(hit)), m


def test_ring_elements_reject_non_integral_coefficients():
    ring = get_ring("Z3", 2)
    assert RingElement(ring, {(): Fraction(4, 2)}).terms == {(): 2}
    with pytest.raises(ValueError):
        RingElement(ring, {(): Fraction(1, 2)})
    with pytest.raises(ValueError):
        Fraction(1, 2) * ring.one()


@pytest.mark.parametrize(
    "space,rank",
    [(s, r) for s in SPACES for r in (1, 2, 3)] + [("Z3", 4), ("Z1", 4)],
)
def test_diagonal_coefficients_match_full_action(space, rank):
    ring = get_ring(space, rank)
    basis = ring.nbc_basis()
    diag = diagonal_coefficients(space, rank)
    assert set(diag) == set(signed_partitions(acting_rank(space, rank)))
    for lam, row in diag.items():
        sigma = standard_representative(lam)
        assert len(row) == len(basis)
        for m, got in zip(basis, row):
            assert got == ring.act(sigma, ring.monomial(m)).coefficient(m), (lam, m)


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
    ry = get_ring("Y3", 2)
    swap = (2, 1, 3)
    assert ry.act(swap, ry.generator((1, 2, 1))) == -1 * ry.generator((1, 2, 1))
    assert ry.act(swap, ry.generator((1,))) == -1 * ry.generator((1,))


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
    ring = get_ring(space, m)
    gens = group_generators(m + 1)
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
    buckets = _basis_buckets("Z3", n, _bidegree)
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
    for n in (1, 2, 3):
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
