import random
import re
from fractions import Fraction
from math import factorial, gcd, lcm

import numpy as np
import pytest

from hyperoct import characters
from hyperoct.characters import (
    ClassFunction,
    bn_irreducible,
    character_table,
    coxeter_element,
    cyclic_permutation_character,
    cyclic_subgroup,
    decompose,
    divide_exactly,
    induce_character,
    induction_product,
    inner_product,
    negative_count_sign,
    pullback_character,
    regular_character,
    rho_character,
    sn_character_value,
    subgroup_character,
    underlying_type,
)
from hyperoct.cyclotomic import cyclotomic_polynomial, power_rows
from hyperoct.groupdata import get_group
from hyperoct.permutations import (
    centralizer_order,
    compose,
    group_order,
    identity,
    inverse,
    longest_element,
    partitions,
    signed_partition_to_str,
    signed_partitions,
    standard_representative,
)
from signed_perms import all_signed_perms

# ---------------------------------------------------------------------------
# oracle: symmetric group characters from permutation modules (Young's rule)


def _sn_class_size(mu):
    n = sum(mu)
    z = 1
    for length in set(mu):
        m = mu.count(length)
        z *= length**m * factorial(m)
    return factorial(n) // z


def _perm_module_character(lam, mu):
    """Fixed ordered set partitions of shape lam under a permutation of
    cycle type mu: assignments of cycles to blocks filling each exactly."""
    blocks = list(lam)
    cycles = list(mu)

    def count(i, remaining):
        if i == len(cycles):
            return 1 if all(r == 0 for r in remaining) else 0
        total = 0
        for b, room in enumerate(remaining):
            if room >= cycles[i]:
                remaining[b] -= cycles[i]
                total += count(i + 1, remaining)
                remaining[b] += cycles[i]
        return total

    return count(0, blocks)


def _sn_table_oracle(n):
    lams = list(partitions(n))  # reverse-lex refines dominance
    mus = lams
    phi = {
        lam: {mu: _perm_module_character(lam, mu) for mu in mus} for lam in lams
    }

    def ip(a, b):
        return Fraction(
            sum(_sn_class_size(mu) * a[mu] * b[mu] for mu in mus), factorial(n)
        )

    table = {}
    for lam in lams:
        row = dict(phi[lam])
        for prev in table:
            m = ip(row, table[prev])
            if m:
                row = {mu: row[mu] - m * table[prev][mu] for mu in mus}
        assert ip(row, row) == 1
        table[lam] = row
    return table


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_murnaghan_nakayama_against_young_oracle(n):
    oracle = _sn_table_oracle(n)
    for lam in partitions(n):
        for mu in partitions(n):
            assert sn_character_value(lam, mu) == oracle[lam][mu], (lam, mu)


def test_sn_character_values():
    assert sn_character_value((3,), (2, 1)) == 1
    assert sn_character_value((1, 1, 1), (2, 1)) == -1
    assert sn_character_value((2, 1), (1, 1, 1)) == 2


# ---------------------------------------------------------------------------
# linear characters and tables


def test_linear_characters_on_rank_two_classes():
    table = character_table(2)
    delta_t = negative_count_sign(2)
    assert table[((), (2,))] == delta_t
    trivial, delta_s = table[((2,), ())], table[((1, 1), ())]
    product = table[((), (1, 1))]
    assert product == delta_t * delta_s
    order = [((1, 1), ()), ((2,), ()), ((1,), (1,)), ((), (2,)), ((), (1, 1))]
    assert [trivial[c] for c in order] == [1, 1, 1, 1, 1]
    assert [delta_t[c] for c in order] == [1, 1, -1, -1, 1]
    assert [delta_s[c] for c in order] == [1, -1, 1, -1, 1]
    assert [product[c] for c in order] == [1, -1, -1, 1, 1]
    for chi in (trivial, delta_t, delta_s, product):
        assert chi.degree == 1


def test_rank_one_table():
    table = character_table(1)
    assert table[((1,), ())].values == (1, 1)
    assert table[((), (1,))].values == (1, -1)


def test_rank_two_table_matches_published_values():
    expected = {
        ((2,), ()): (1, 1, 1, 1, 1),
        ((), (1, 1)): (1, -1, -1, 1, 1),
        ((1, 1), ()): (1, -1, 1, -1, 1),
        ((), (2,)): (1, 1, -1, -1, 1),
        ((1,), (1,)): (2, 0, 0, 0, -2),
    }
    order = [((1, 1), ()), ((2,), ()), ((1,), (1,)), ((), (2,)), ((), (1, 1))]
    table = character_table(2)
    for lam, row in expected.items():
        assert tuple(table[lam][c] for c in order) == row


def test_induction_product_builds_the_mixed_character():
    chi = induction_product(
        bn_irreducible(((1,), ())), bn_irreducible(((), (1,)))
    )
    assert chi == character_table(2)[((1,), (1,))]
    assert chi.degree == 2


def test_induction_product_degree_multiplies():
    a = bn_irreducible(((2,), ()))
    b = bn_irreducible(((1,), ()))
    chi = induction_product(a, b)
    assert chi.degree == 3 * a.degree * b.degree  # binomial(3,2) = 3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orthonormality_and_burnside(n):
    table = character_table(n)
    for a in table:
        for b in table:
            assert inner_product(table[a], table[b]) == (1 if a == b else 0)
    assert sum(chi.degree**2 for chi in table.values()) == group_order(n)


def test_pullback_compatibility():
    n = 3
    for lam in partitions(n):
        chi = pullback_character(lam, n)
        for mu in signed_partitions(n):
            assert chi[mu] == sn_character_value(lam, underlying_type(mu))


def test_regular_character_pairing():
    n = 2
    reg = regular_character(n)
    table = character_table(n)
    for lam, chi in table.items():
        assert inner_product(reg, chi) == chi.degree


# ---------------------------------------------------------------------------
# induced characters


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rho_closure_sizes(n):
    for lam in signed_partitions(n):
        ambient, members, exponents = rho_character(lam)
        assert len(members) == len(exponents) == centralizer_order(lam)
        assert all(0 <= e < ambient for e in exponents.tolist())


def test_rho_trivial_on_all_singleton_positive_type():
    n = 3
    _, _, exponents = rho_character(((1,) * n, ()))
    assert not exponents.any()


def test_rho_on_coxeter_centralizer_is_faithful_root():
    n = 3
    ambient, _, exponents = rho_character(((), (n,)))

    def value_order(e):
        return ambient // gcd(e, ambient)

    assert max(value_order(e) for e in exponents.tolist()) == 2 * n


def _tuple_subgroup_character(ambient, generators):
    """The oracle closure: breadth first over signed-permutation tuples with
    ``compose``, as ``(ambient, {element: exponent})``; a conflicting
    exponent raises ArithmeticError."""
    ident = identity(len(generators[0][0]))
    exponents = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for h, eh in generators:
                gh = compose(g, h)
                egh = (exponents[g] + eh) % ambient
                known = exponents.get(gh)
                if known is None:
                    exponents[gh] = egh
                    nxt.append(gh)
                elif known != egh:
                    raise ArithmeticError(f"inconsistent character value on {gh}")
        frontier = nxt
    return ambient, exponents


def _by_element(n, character):
    """An indexed subgroup character as ``(ambient, {element: exponent})``."""
    ambient, members, exponents = character
    elements = get_group(n).elements
    return ambient, {elements[i]: e for i, e in zip(members.tolist(), exponents.tolist())}


def _indexed(n, ambient, exponents):
    """``(ambient, {element: exponent})`` as an indexed subgroup character."""
    index = get_group(n).index
    members = np.array([index[g] for g in exponents], dtype=np.intp)
    return ambient, members, np.array(list(exponents.values()), dtype=np.intp)


def _rho_generators(lam):
    """rho_character's generators: a block cycle to a primitive root of its
    order, sign-flips and swaps to 1."""
    ambient = lcm(1, *lam[0], *[2 * s for s in lam[1]])
    order = {"cycle+": 1, "cycle-": 2}  # times the block size
    return ambient, [
        (g, ambient // (order[kind] * size) if kind in order else 0)
        for kind, size, g in characters.centralizer_generators_labeled(lam)
    ]


def _gn1_generators(n):
    eta = tuple(list(range(2, n + 1)) + [1])
    ambient = lcm(n, 2)
    return ambient, [(eta, ambient // n), (longest_element(n), ambient // 2)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_index_closure_matches_the_tuple_closure(n):
    # every centralizer character and gn1's <eta, -1>: the same members with
    # the same exponents as the closure over tuples
    for lam in signed_partitions(n):
        ambient, gens = _rho_generators(lam)
        got = _by_element(n, rho_character(lam))
        assert got == _tuple_subgroup_character(ambient, gens), lam
    ambient, gens = _gn1_generators(n)
    got = _by_element(n, subgroup_character(n, ambient, gens))
    assert got == _tuple_subgroup_character(ambient, gens)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rho_members_are_the_centralizer(n):
    # {x : x g = g x} for the class representative g, in one mul pass
    group = get_group(n)
    x = np.arange(group.order)
    for lam in signed_partitions(n):
        g = group.index[standard_representative(lam)]
        centralizer = np.flatnonzero(group.mul(x, g) == group.mul(g, x))
        assert np.array_equal(rho_character(lam)[1], centralizer), lam


def test_induced_coxeter_character_at_rank_6():
    # the centralizer of the negative 6-cycle has order 12, so the induced
    # character has degree |B_6| / 12
    chi = induce_character(rho_character(((), (6,))), 6)
    assert chi.degree == 2**6 * factorial(6) // 12 == 3840


def test_rho_character_detects_inconsistent_values(monkeypatch):
    # ((1, 1), (1,)) has ambient order 2; its first generator is the identity
    # (a one-cell block cycle), so labelling it "cycle-" maps 1 to -1
    original = characters.centralizer_generators_labeled

    def mislabeled(lam):
        gens = original(lam)
        _, size, g = gens[0]
        return [("cycle-", size, g)] + gens[1:]

    monkeypatch.setattr(characters, "centralizer_generators_labeled", mislabeled)
    with pytest.raises(ArithmeticError):
        rho_character(((1, 1), (1,)))


def _mobius(m):
    out, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def _ramanujan_sum(m, k):
    """Sum of w^(jk) over the primitive m-th roots w^j: the trace of w^k
    from Q(w) to Q, for w a primitive m-th root of unity."""
    g = gcd(k, m)
    return sum(_mobius(m // d) * d for d in range(1, g + 1) if g % d == 0)


def _induced_by_definition(character, n):
    """(1/|H|) sum over x of chi(x g x^-1), chi taken as 0 off H.

    The sum over x is sum_k c_k w^k with c_k the number of conjugates with
    exponent k; being rational, it equals its Galois average
    sum_k c_k c_m(k) / phi(m), with c_m the Ramanujan sum."""
    ambient, exponents = _by_element(n, character)
    phi = sum(1 for j in range(1, ambient + 1) if gcd(j, ambient) == 1)
    values = []
    for lam in signed_partitions(n):
        g = standard_representative(lam)
        counts = [0] * ambient
        for x in all_signed_perms(n):
            e = exponents.get(compose(compose(x, g), inverse(x)))
            if e is not None:
                counts[e % ambient] += 1
        trace = sum(c * _ramanujan_sum(ambient, k) for k, c in enumerate(counts))
        values.append(Fraction(trace, phi * len(exponents)))
    return tuple(values)


def _unsigned_cycle_with_central_sign(n):
    """The subgroup generated by the unsigned n-cycle and -1, with the
    n-cycle sent to a primitive n-th root of unity and -1 to -1."""
    eta = tuple(list(range(2, n + 1)) + [1])
    w0 = longest_element(n)
    ambient = lcm(n, 2)
    exponents, g = {}, identity(n)
    for a in range(n):
        exponents[g] = a * ambient // n
        exponents[compose(g, w0)] = (a * ambient // n + ambient // 2) % ambient
        g = compose(g, eta)
    return _indexed(n, ambient, exponents)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_induce_character_matches_definition(n):
    subgroups = [rho_character(lam) for lam in signed_partitions(n)]
    if n == 3:
        subgroups.append(_unsigned_cycle_with_central_sign(n))
    for character in subgroups:
        assert induce_character(character, n).values == _induced_by_definition(
            character, n
        )


def test_induce_character_rejects_irrational_values():
    # on the Coxeter cyclic group {1, c, c^2, c^3} of B_2, the exponent 1 on
    # c alone is no character: c and c^3 are conjugate, so the sweep over the
    # class of c sums 4i + 4
    c = coxeter_element(2)
    exponents = {g: 0 for g in cyclic_subgroup(c)}
    exponents[c] = 1
    with pytest.raises(ArithmeticError):
        induce_character(_indexed(2, 4, exponents), 2)


def test_induce_from_trivial_subgroup_is_regular():
    n = 2
    chi = induce_character(_indexed(n, 1, {(1, 2): 0}), n)
    assert chi == regular_character(n)


def test_induce_index_one():
    chi = induce_character(rho_character(((), (1,))), 1)
    assert chi == character_table(1)[((), (1,))]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_induced_coxeter_character_degree(n):
    chi = induce_character(rho_character(((), (n,))), n)
    assert chi.degree == 2 ** (n - 1) * factorial(n - 1)


@pytest.mark.parametrize("n", [2, 3])
def test_induced_characters_decompose_integrally(n):
    for lam in signed_partitions(n):
        chi = induce_character(rho_character(lam), n)
        mults = decompose(chi)
        assert all(m > 0 for m in mults.values())


def test_decompose_parabolic_permutation_character():
    chi = induction_product(
        bn_irreducible(((1,), ())), bn_irreducible(((1,), ()))
    )
    assert decompose(chi) == {((2,), ()): 1, ((1, 1), ()): 1}


def test_decompose_rejects_non_character():
    # integer values, but the multiplicity of the trivial character is 1/2
    bad = ClassFunction(1, (1, 0))
    with pytest.raises(ValueError):
        decompose(bad)


def test_scalar_multiple_takes_only_integers():
    chi = character_table(2)[((1,), (1,))]
    assert (3 * chi).values == tuple(3 * v for v in chi.values)
    with pytest.raises(TypeError):
        chi * Fraction(1, 2)
    with pytest.raises(TypeError):
        chi * 0.5


def test_sums_take_class_functions_only():
    chi = character_table(2)[((2,), ())]
    for bad in (lambda: chi + 1, lambda: chi - 1, lambda: 1 - chi):
        with pytest.raises(TypeError):
            bad()
    assert (chi - chi).is_zero()


def test_subgroup_character_closes_and_certifies():
    # <eta, -1> in B_3: eta a primitive cube root, -1 the square root of 1
    n, ambient = 3, 6
    eta, w0 = (2, 3, 1), longest_element(n)
    got_ambient, exponents = _by_element(n, subgroup_character(n, ambient, [(eta, 2), (w0, 3)]))
    assert got_ambient == ambient and len(exponents) == 2 * n
    assert exponents[compose(eta, w0)] == 5
    # eta has order 3, so eta -> w^1 is no character of <eta>
    with pytest.raises(ArithmeticError, match="not a homomorphism"):
        subgroup_character(n, ambient, [(eta, 1)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cyclic_subgroup_lists_the_powers_in_order(n):
    # seeded elements, the Coxeter element and the identity: the closure
    # lists g^0, g^1, ... up to the order of g
    elements = list(all_signed_perms(n))
    picks = random.Random(n).sample(elements, min(len(elements), 12))
    for g in picks + [coxeter_element(n), identity(n)]:
        powers, cur = [identity(n)], compose(identity(n), g)
        while cur != identity(n):
            powers.append(cur)
            cur = compose(cur, g)
        assert cyclic_subgroup(g) == powers, g


def test_divide_exactly_names_the_first_inexact_class():
    classes = signed_partitions(2)
    assert divide_exactly(2, [4, -2, 0, 6, 2], 2).values == (2, -1, 0, 3, 1)
    assert divide_exactly(2, [4, 3, 0, 6, 2], [4, 3, 1, 2, 1]).values == (1, 1, 0, 3, 2)
    with pytest.raises(ArithmeticError, match=re.escape(signed_partition_to_str(classes[1]))):
        divide_exactly(2, [4, 3, 1, 6, 2], 2)


def coset_permutation_character(n, members):
    """The oracle: the character of B_n permuting the left cosets of the
    subgroup with element indices ``members``, counted directly as fixed
    cosets under left translation."""
    group = get_group(n)
    # the least index in x H labels the coset x H, and lies in it
    coset_of = group.mul(np.arange(group.order)[:, None], members[None, :]).min(axis=1)
    reps = np.flatnonzero(np.bincount(coset_of, minlength=group.order))
    vals = []
    for lam in signed_partitions(n):
        moved = group.mul(group.index[standard_representative(lam)], reps)
        vals.append(int(np.count_nonzero(coset_of[moved] == reps)))
    return ClassFunction(n, tuple(vals))


def _cyclic_members(c):
    index = get_group(len(c)).index
    return np.array([index[g] for g in cyclic_subgroup(c)], dtype=np.intp)


def test_coset_character_against_induction_formula():
    # the formula against the fixed-coset count and the induction sweep
    for m in range(1, 7):
        c = coxeter_element(m)
        members = _cyclic_members(c)
        chi = cyclic_permutation_character(c)
        assert chi == coset_permutation_character(m, members), m
        assert chi == induce_character((1, members, np.zeros_like(members)), m), m
        assert chi.degree == group_order(m) // (2 * m)
        assert inner_product(chi, character_table(m)[((m,), ())]) == 1


def test_coset_character_rank_two_decomposition():
    chi = cyclic_permutation_character(coxeter_element(2))
    assert decompose(chi) == {((2,), ()): 1, ((), (1, 1)): 1}


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("m", range(1, 13))
def test_power_rows_reduce_modulo_cyclotomic_polynomial(m):
    phi = cyclotomic_polynomial(m)
    rows = power_rows(m)
    assert rows.shape == (m, len(phi) - 1)
    for k in range(m):
        # x^k - row_k(x) must be a multiple of phi: divide it out exactly
        diff = [-int(c) for c in rows[k]] + [0] * (k + 1 - len(rows[k]))
        diff[k] += 1
        while len(diff) >= len(phi):
            lead = diff.pop()
            for i, p in enumerate(phi[:-1]):
                diff[len(diff) - len(phi) + 1 + i] -= lead * p
        assert not any(diff)


# ---------------------------------------------------------------------------
# value types


def _assert_int_valued(chi):
    assert all(type(v) is int for v in chi.values), chi


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_character_value_is_a_python_int(n):
    from hyperoct.algebra import g_k, right_ideal_character, vazirani_idempotent
    from hyperoct.ringreps import graded_character

    for chi in character_table(n).values():
        _assert_int_valued(chi)
    for lam in signed_partitions(n):
        _assert_int_valued(right_ideal_character(vazirani_idempotent(lam)))
        _assert_int_valued(induce_character(rho_character(lam), n))
    _assert_int_valued(right_ideal_character(g_k(n, n)))
    for space in ("Z3", "Z1"):
        for chi in graded_character(n, space):
            _assert_int_valued(chi)
    _assert_int_valued(cyclic_permutation_character(coxeter_element(n)))
