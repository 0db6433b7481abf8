import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hyperoct import kernels
from hyperoct.algebra import (
    AlgebraElement,
    block_factor,
    eulerian_idempotents_typeA,
    g_k,
    right_ideal_character,
    tau_map,
    vazirani_idempotent,
    x_basis,
    y_basis,
)
from hyperoct.characters import character_table
from hyperoct.groupdata import get_group
from hyperoct.linalg import rank_exact
from hyperoct.permutations import (
    SignedPerm,
    compose,
    composition_blocks,
    composition_partial_sums,
    descent_set,
    group_order,
    identity,
    inverse,
    partitions,
    sign_change,
    signed_compositions,
    signed_partitions,
    standard_representative,
)
from signed_perms import all_signed_perms


def half(x):
    return Fraction(1, 2) * x


def test_multiply_unit_and_projectors():
    x = AlgebraElement(2, {(2, -1): Fraction(3, 4), (1, 2): Fraction(-2)})
    assert x * AlgebraElement.unit(2) == x
    assert AlgebraElement.unit(2) * x == x
    t1 = AlgebraElement.basis(sign_change(1, 1))
    plus = half(AlgebraElement.unit(1) + t1)
    minus = half(AlgebraElement.unit(1) - t1)
    assert plus * plus == plus
    assert minus * minus == minus
    assert (plus * minus).is_zero()


def test_product_coefficients_are_reduced_nonzero_fractions():
    rng = random.Random(31)
    elems = list(all_signed_perms(3))

    def rand_elt(size):
        support = rng.sample(elems, size)
        return AlgebraElement(
            3, {g: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4, 6))) for g in support}
        )

    # the projectors cancel to coefficients 1/8 (from 8/64) and to zero
    plus, minus = block_factor((1, 1, 1)), block_factor((1, -1, 1))
    products = [plus * plus, plus * minus, plus * rand_elt(20)]
    products += [rand_elt(sa) * rand_elt(sb) for sa, sb in ((1, 2), (5, 40), (48, 48))]
    assert plus * plus == plus and (plus * minus).is_zero()
    for x in products:
        for c in x.coeffs.values():
            assert type(c) is Fraction and c != 0
            assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
        assert x == AlgebraElement(3, x.coeffs)


def test_scalars_must_be_exact_rationals():
    g = (2, 1, 3)
    x = AlgebraElement(3, {g: Fraction(3, 4), (1, 2, 3): Fraction(-2)})
    for bad in ("1/2", 0.1, 0.5, np.float64(0.5), None):
        with pytest.raises(TypeError):
            bad * x
        with pytest.raises(TypeError):
            x * bad
        with pytest.raises(TypeError):
            AlgebraElement(3, {g: bad})
    for scalar in (3, Fraction(-3, 2), np.int64(3), np.int32(-2), True):
        c = Fraction(scalar)
        expected = AlgebraElement(3, {g: Fraction(3, 4) * c, (1, 2, 3): -2 * c})
        assert scalar * x == expected and x * scalar == expected
    assert AlgebraElement(3, {g: np.int64(4), (1, 2, 3): 2}) == AlgebraElement(
        3, {g: Fraction(4), (1, 2, 3): Fraction(2)}
    )


def test_sums_take_algebra_elements_only():
    # a scalar is no element of Q[B_n]: + and - give NotImplemented, so
    # Python raises TypeError on either side, as for * with a non-scalar
    x = AlgebraElement.unit(2)
    for bad in (1, 0, Fraction(1, 2), 0.5, None):
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(TypeError):
                op(x, bad)
            with pytest.raises(TypeError):
                op(bad, x)


def test_multiply_rank_mismatch():
    with pytest.raises(ValueError):
        AlgebraElement.unit(2) * AlgebraElement.unit(3)


def test_y_basis_partitions_group():
    n = 2
    total = 0
    for alpha in signed_compositions(n):
        total += y_basis(alpha).support_size()
    assert total == group_order(n)
    # shape (2) consists of the increasing all-positive words
    assert set(y_basis((2,)).coeffs) == {(1, 2)}


def test_x_basis_examples():
    assert x_basis(3, ()) == AlgebraElement.unit(3)
    assert x_basis(3, {1, 2}).support_size() == 6
    assert set(x_basis(3, {1}).coeffs) == {(1, 2, 3), (2, 1, 3), (3, 1, 2)}


def test_reutenauer_idempotent_rank_two():
    r = block_factor((2,), signed=False)
    assert r == AlgebraElement(
        2, {(1, 2): Fraction(1, 2), (2, 1): Fraction(-1, 2)}
    )
    # the idempotent on a single letter is the unit
    assert block_factor((1, 1, 1), signed=False) == AlgebraElement.unit(3)


def test_reutenauer_idempotent_squares():
    for m in (1, 2, 3, 4):
        r = block_factor((m,), signed=False)
        assert r * r == r
    # on a non-initial block inside a larger rank
    r = block_factor((1, 3), signed=False)
    assert r * r == r


def test_epsilon_projectors():
    t1 = AlgebraElement.basis(sign_change(1, 1))
    assert block_factor((-1,)) == half(AlgebraElement.unit(1) - t1)
    p, m = block_factor((1,)), block_factor((-1,))
    assert (p * m).is_zero() and (m * p).is_zero()
    assert p + m == AlgebraElement.unit(1)
    # the four sign projectors on two letters, one letter per block
    family = [block_factor(s) for s in itertools.product((1, -1), repeat=2)]
    for i, a in enumerate(family):
        for j, b in enumerate(family):
            assert a * b == (a if i == j else AlgebraElement.zero(2))
    assert sum(family, AlgebraElement.zero(2)) == AlgebraElement.unit(2)
    # on one block of two letters they split the block's idempotent
    p, m = block_factor((2,)), block_factor((-2,))
    assert (p * m).is_zero() and (m * p).is_zero()
    assert p + m == block_factor((2,), signed=False)


def i_p(p) -> AlgebraElement:
    """The descent sum of p times its block factor: X_A F_p, A the partial
    sums of |p|."""
    return x_basis(sum(map(abs, p)), composition_partial_sums(p)) * block_factor(p)


def test_composition_chain_rank_one():
    t1 = AlgebraElement.basis(sign_change(1, 1))
    assert i_p((1,)) == half(AlgebraElement.unit(1) + t1)
    assert i_p((-1,)) == half(AlgebraElement.unit(1) - t1)


def test_composition_chain_single_positive_block():
    # one block: the descent sum is the unit, so i_p is the block factor
    n = 3
    assert i_p((n,)) == block_factor((n,))
    assert i_p((n,)) == epsilon(n, range(1, n + 1), 1) * reutenauer_idempotent(
        n, range(1, n + 1)
    )


# -- the closed-form block factor against the factor-by-factor chain ----------
# _relabel, reutenauer_idempotent and epsilon are the library's own chain
# factors from before the closed form, kept as its reference


def _relabel(w: tuple[int, ...], letters: tuple[int, ...], n: int) -> SignedPerm:
    """Embed w in S_m as the permutation of the sorted letters, fixing the rest."""
    img = list(range(1, n + 1))
    for pos, wi in zip(letters, w):
        img[pos - 1] = letters[wi - 1]
    return tuple(img)


def reutenauer_idempotent(n: int, letters) -> AlgebraElement:
    """The alternating descent-sum idempotent on a block of letters.

    sum over A of (-1)^|A| / (|A|+1) X_A, relabeled from 1..m onto the
    (sorted) letters; an idempotent of the symmetric group on that block.
    """
    letters = tuple(sorted(letters))
    if not letters:
        raise ValueError("letter block must be nonempty")
    m = len(letters)
    weights: dict[frozenset[int], Fraction] = {}
    for r in range(m):
        for subset in itertools.combinations(range(1, m), r):
            weights[frozenset(subset)] = Fraction((-1) ** r, r + 1)
    coeffs: dict[SignedPerm, Fraction] = {}
    for w in itertools.permutations(range(1, m + 1)):
        des = descent_set(w)
        c = sum(
            (wt for sub, wt in weights.items() if des <= sub), Fraction(0)
        )
        if c:
            coeffs[_relabel(w, letters, n)] = c
    return AlgebraElement(n, coeffs)


def epsilon(n: int, letters, sign: int) -> AlgebraElement:
    """Sign-averaging projector (1 +/- w_0 on the block)/2."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    w0j = identity(n)
    for i in letters:
        w0j = tuple(-x if abs(x) == i else x for x in w0j)
    coeffs = {identity(n): Fraction(1, 2)}
    coeffs[w0j] = coeffs.get(w0j, Fraction(0)) + Fraction(sign, 2)
    return AlgebraElement(n, coeffs)


def _reference_factor(p, signed=True):
    """eps_j R_j block by block (R_j alone unsigned), one factor at a time."""
    n = sum(map(abs, p))
    out = AlgebraElement.unit(n)
    for part, block in zip(p, composition_blocks(p)):
        if signed:
            out = out * epsilon(n, block, 1 if part > 0 else -1)
        out = out * reutenauer_idempotent(n, block)
    return out


def _reference_chain(p, signed=True):
    n = sum(map(abs, p))
    return x_basis(n, composition_partial_sums(p)) * _reference_factor(p, signed)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_factor_is_the_product_of_the_block_factors(n):
    for p in signed_compositions(n):
        assert block_factor(p) == _reference_factor(p), p
        assert i_p(p) == _reference_chain(p), p
        if min(p) > 0:
            assert block_factor(p, signed=False) == _reference_factor(p, signed=False), p


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_idempotents_match_the_reference_chain(n):
    for lam in signed_partitions(n):
        parts = lam[0] + tuple(-x for x in lam[1])
        reorderings = set(itertools.permutations(parts))
        total = sum(map(_reference_chain, reorderings), AlgebraElement.zero(n))
        assert vazirani_idempotent(lam) == Fraction(1, math.factorial(len(parts))) * total
    by_lam, _ = eulerian_idempotents_typeA(n)
    for lam in partitions(n):
        reorderings = set(itertools.permutations(lam))
        total = sum((_reference_chain(p, False) for p in reorderings), AlgebraElement.zero(n))
        assert by_lam[lam] == Fraction(1, math.factorial(len(lam))) * total


# sha256 of json [[num, den], ...] over vazirani_idempotent(lam) for lam in
# signed_partitions(5), then the Eulerian idempotents of partitions(5) and
# the e_k of rank 5, as the factor-by-factor chain built them
IDEMPOTENTS_N5_SHA256 = "1fd59c11c39b9c601b2146743186c053f2a966d0cccab43bad66c66f0438f39f"


def test_idempotents_at_rank_five_keep_their_values():
    elements = [vazirani_idempotent(lam) for lam in signed_partitions(5)]
    by_lam, e_ks = eulerian_idempotents_typeA(5)
    elements += list(by_lam.values()) + list(e_ks)
    assert len(elements) == 48
    payload = json.dumps([[e.num.tolist(), e.den] for e in elements])
    assert hashlib.sha256(payload.encode()).hexdigest() == IDEMPOTENTS_N5_SHA256


def test_top_count_idempotent_is_the_finest_positive_one():
    for n in (2, 3):
        assert g_k(n, n) == vazirani_idempotent(((1,) * n, ()))


def test_vazirani_rank_one():
    t1 = AlgebraElement.basis(sign_change(1, 1))
    assert vazirani_idempotent(((1,), ())) == half(AlgebraElement.unit(1) + t1)
    assert vazirani_idempotent(((), (1,))) == half(AlgebraElement.unit(1) - t1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_complete_orthogonal_family(n):
    lams = signed_partitions(n)
    gs = [vazirani_idempotent(lam) for lam in lams]
    total = AlgebraElement.zero(n)
    for e in gs:
        assert e.is_idempotent()
        total = total + e
    assert total == AlgebraElement.unit(n)
    for i, a in enumerate(gs):
        for j, b in enumerate(gs):
            if i != j:
                assert (a * b).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_count_indexed_family(n):
    gks = [g_k(n, k) for k in range(n + 1)]
    total = AlgebraElement.zero(n)
    for e in gks:
        total = total + e
    assert total == AlgebraElement.unit(n)
    for i, a in enumerate(gks):
        for j, b in enumerate(gks):
            if i != j:
                assert (a * b).is_zero()
    with pytest.raises(ValueError):
        g_k(n, n + 1)


def test_eulerian_idempotents_match_published_rank_three():
    by_lam, e_ks = eulerian_idempotents_typeA(3)
    sixth = Fraction(1, 6)
    expected_top = AlgebraElement(
        3,
        {
            (1, 2, 3): sixth,
            (2, 1, 3): sixth,
            (1, 3, 2): sixth,
            (3, 2, 1): sixth,
            (2, 3, 1): sixth,
            (3, 1, 2): sixth,
        },
    )
    assert e_ks[2] == expected_top
    assert e_ks[1] == AlgebraElement(
        3, {(1, 2, 3): Fraction(1, 2), (3, 2, 1): Fraction(-1, 2)}
    )
    total = AlgebraElement.zero(3)
    for k in range(3):
        total = total + e_ks[k]
    assert total == AlgebraElement.unit(3)
    for i in range(3):
        for j in range(3):
            prod = e_ks[i] * e_ks[j]
            assert prod == (e_ks[i] if i == j else AlgebraElement.zero(3))


def test_tau_on_rank_one_idempotents():
    assert tau_map(vazirani_idempotent(((1,), ()))) == AlgebraElement.unit(1)
    assert tau_map(vazirani_idempotent(((), (1,)))).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tau_relates_the_families(n):
    _, e_ks = eulerian_idempotents_typeA(n)
    assert tau_map(g_k(n, 0)).is_zero()
    for k in range(1, n + 1):
        assert tau_map(g_k(n, k)) == e_ks[k - 1]


def test_tau_is_multiplicative_on_random_sample():
    rng = random.Random(20240817)
    n = 3
    elems = list(all_signed_perms(n))
    def rand_elt():
        support = rng.sample(elems, 5)
        return AlgebraElement(
            n, {g: Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for g in support}
        )
    for _ in range(100):
        a, b = rand_elt(), rand_elt()
        assert tau_map(a * b) == tau_map(a) * tau_map(b)


@pytest.mark.parametrize("scale", [1, 2**59, 2**70], ids=["1", "2^59", "2^70"])
def test_tau_map_matches_summing_over_forgotten_signs(scale):
    rng = random.Random(scale)
    elems = list(all_signed_perms(3))
    samples = [
        {
            g: Fraction(scale * rng.randint(-5, 5), rng.choice((1, 2, 3)))
            for g in rng.sample(elems, size)
        }
        for size in (1, 7, 48)
    ]
    # at 2^59 the numerators 5 * 2^59 fit int64, and the 8 of each fiber sum past it
    samples.append({g: Fraction(5 * scale) for g in elems})
    for a in samples:
        expected = {}
        for g, c in a.items():
            key = tuple(map(abs, g))
            expected[key] = expected.get(key, Fraction(0)) + c
        result = tau_map(AlgebraElement(3, a))
        assert result.coeffs == {g: c for g, c in expected.items() if c}
        _assert_canonical(result)


def test_right_ideal_character_trivia():
    n = 2
    chi = right_ideal_character(AlgebraElement.unit(n))
    assert chi.degree == group_order(n)
    assert all(v == 0 for lam, v in zip(signed_partitions(n), chi.values) if lam != ((1, 1), ()))
    avg = Fraction(1, group_order(n)) * AlgebraElement(
        n, {g: Fraction(1) for g in all_signed_perms(n)}
    )
    chi = right_ideal_character(avg)
    assert all(v == 1 for v in chi.values)


def test_right_ideal_character_rank_one_sign():
    chi = right_ideal_character(vazirani_idempotent(((), (1,))))
    table = character_table(1)
    assert chi == table[((), (1,))]


def test_right_ideal_character_rejects_non_idempotent():
    bad = AlgebraElement(2, {identity(2): Fraction(2)})
    with pytest.raises(ValueError):
        right_ideal_character(bad)


def _ideal_character_by_definition(e):
    """chi(g) = sum over x of the coefficient of x g^-1 x^-1 in e."""
    n = e.n
    coeffs = e.coeffs
    values = []
    for lam in signed_partitions(n):
        g_inv = inverse(standard_representative(lam))
        values.append(
            sum(
                (coeffs.get(compose(compose(x, g_inv), inverse(x)), Fraction(0))
                 for x in all_signed_perms(n)),
                Fraction(0),
            )
        )
    return tuple(values)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_right_ideal_character_matches_definition(n):
    idempotents = [vazirani_idempotent(lam) for lam in signed_partitions(n)]
    idempotents += [g_k(n, k) for k in range(n + 1)]
    for e in idempotents:
        assert right_ideal_character(e).values == _ideal_character_by_definition(e)
    if n != 3:
        return
    # u = 1 + a*g with g an involution has inverse (1 - a*g) / (1 - a^2); the
    # conjugate u e u^-1 spans an isomorphic right ideal, and its numerators
    # push the character sum past the int64 bound onto Python integers
    a = 2**40
    g = (-1, 2, 3)
    u = AlgebraElement.unit(n) + a * AlgebraElement.basis(g)
    u_inv = Fraction(1, 1 - a * a) * (AlgebraElement.unit(n) - a * AlgebraElement.basis(g))
    assert u * u_inv == AlgebraElement.unit(n)
    group = get_group(n)
    moved = 0
    for e in idempotents:
        conj = u * e * u_inv
        if conj != e:  # e commutes with g otherwise
            assert max(map(abs, conj.num.tolist())) * group.order >= kernels.INT64_BOUND
            moved += 1
        chi = right_ideal_character(conj)
        assert chi == right_ideal_character(e)
        assert chi.values == _ideal_character_by_definition(conj)
    assert moved


def right_ideal_dimension_by_rank(e: AlgebraElement) -> int:
    """Independent oracle: rank of left multiplication by e on the group basis."""
    group = get_group(e.n)
    rows = [[Fraction(0)] * group.order for _ in range(group.order)]
    for g, c in e.coeffs.items():
        # column y of the matrix is e*y; entry at row g y
        for y, gy in enumerate(group.mul(group.index[g], np.arange(group.order)).tolist()):
            rows[gy][y] += c
    return rank_exact(rows)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dimension_against_rank_oracle(n):
    for lam in signed_partitions(n):
        e = vazirani_idempotent(lam)
        assert right_ideal_character(e).degree == right_ideal_dimension_by_rank(e)


def test_character_additive_on_orthogonal_sums():
    n = 2
    a = vazirani_idempotent(((2,), ()))
    b = vazirani_idempotent(((), (2,)))
    combined = right_ideal_character(a + b)
    assert combined == right_ideal_character(a) + right_ideal_character(b)


def _shape_span_coefficient_check(x):
    """An element lies in the shape-sum span iff its coefficients are
    constant on each shape class."""
    from hyperoct.permutations import mr_shape

    by_shape = {}
    for g, c in x.coeffs.items():
        by_shape.setdefault(mr_shape(g), set()).add(c)
    return all(len(vals) == 1 for vals in by_shape.values())


@pytest.mark.parametrize("n", [2, 3])
def test_shape_sum_span_is_closed_under_products(n):
    ys = [y_basis(alpha) for alpha in signed_compositions(n)]
    for a in ys:
        for b in ys:
            assert _shape_span_coefficient_check(a * b)


@pytest.mark.parametrize("n", [2, 3])
def test_idempotents_lie_in_the_shape_sum_span(n):
    for lam in signed_partitions(n):
        assert _shape_span_coefficient_check(vazirani_idempotent(lam))
    for k in range(n + 1):
        assert _shape_span_coefficient_check(g_k(n, k))


# -- integer numerators at the exactness edge ---------------------------------


def _fraction_sum(a, b, sign=1):
    out = dict(a)
    for g, c in b.items():
        out[g] = out.get(g, Fraction(0)) + sign * c
    return {g: c for g, c in out.items() if c}


def _fraction_product(a, b):
    out = {}
    for g, ca in a.items():
        for h, cb in b.items():
            k = compose(g, h)
            out[k] = out.get(k, Fraction(0)) + ca * cb
    return {g: c for g, c in out.items() if c}


def _assert_canonical(x):
    num = x.num.tolist()
    assert x.den > 0 and math.gcd(x.den, *num) == 1
    big = max(map(abs, num)) >= kernels.INT64_BOUND
    assert x.num.dtype == (object if big else np.int64)
    assert not x.num.flags.writeable


# at n = 2 the kernel stays on int64 exactly while max|a| * max|b| * 8 < 2^62
@pytest.mark.parametrize(
    "top, factor",
    [(kernels.INT64_BOUND - 1, 759250124), (kernels.INT64_BOUND, 759250125)],
    ids=["below", "past"],
)
def test_arithmetic_at_the_int64_edge_matches_fraction_dicts(monkeypatch, top, factor):
    rng = random.Random(factor)
    elems = list(all_signed_perms(2))
    a = {elems[0]: Fraction(top), elems[1]: Fraction(-(top - 3)), elems[2]: Fraction(5)}
    b = {g: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for g in rng.sample(elems, 5)}
    b[elems[0]] = Fraction(-top)
    x, y = AlgebraElement(2, a), AlgebraElement(2, b)
    assert x.num.dtype == (np.int64 if top < kernels.INT64_BOUND else object)
    for s in (Fraction(3, 2), Fraction(-1, 3), 2, 0):
        result = s * x
        assert result.coeffs == {g: s * c for g, c in a.items() if s * c}
        _assert_canonical(result)
    for result, expected in (
        (x + y, _fraction_sum(a, b)),
        (x - y, _fraction_sum(a, b, -1)),
        (y - x, _fraction_sum(b, a, -1)),
        (x * y, _fraction_product(a, b)),
    ):
        assert result.coeffs == expected
        _assert_canonical(result)
    # products whose numerators reach the kernel's own bound: 7 divides
    # neither factor, so max|num| = factor in both factors
    dtypes = []
    honest = kernels.convolve_dense

    def convolve_dense(group, idx_a, coef_a, idx_b, coef_b):
        dtypes.append(coef_a.dtype)
        return honest(group, idx_a, coef_a, idx_b, coef_b)

    monkeypatch.setattr(kernels, "convolve_dense", convolve_dense)
    p = {elems[3]: Fraction(factor), elems[4]: Fraction(-factor), elems[5]: Fraction(1)}
    q = {elems[6]: Fraction(factor, 7), elems[7]: Fraction(-factor, 7), elems[0]: Fraction(2)}
    for u, v in ((p, q), (q, p), (p, p)):
        result = AlgebraElement(2, u) * AlgebraElement(2, v)
        assert result.coeffs == _fraction_product(u, v)
        _assert_canonical(result)
    assert dtypes == [np.int64 if factor == 759250124 else object] * 3


def test_canonical_form_makes_equality_and_hash_exact():
    x = AlgebraElement(
        3, {(2, -1, 3): Fraction(3, 4), (1, 2, 3): Fraction(-2), (-3, 1, 2): Fraction(5, 6)}
    )
    assert 2 * (Fraction(1, 2) * x) == x
    assert hash(2 * (Fraction(1, 2) * x)) == hash(x)
    g = (2, 1, 3)
    half_g = [
        AlgebraElement(3, {g: Fraction(2, 4)}),
        Fraction(1, 2) * AlgebraElement.basis(g),
        AlgebraElement.basis(g) - Fraction(1, 2) * AlgebraElement.basis(g),
        # a detour past the int64 bound returns to int64 numerators
        (AlgebraElement.basis(g) * 2**70 + Fraction(1, 2) * AlgebraElement.basis(g))
        - 2**70 * AlgebraElement.basis(g),
    ]
    for e in half_g:
        assert (e.num.tolist(), e.den) == (half_g[0].num.tolist(), 2)
        assert e == half_g[0] and hash(e) == hash(half_g[0])
        _assert_canonical(e)
    big = AlgebraElement(3, {g: Fraction(2**70, 3), (1, 2, 3): Fraction(1)})
    assert (2**70 * AlgebraElement.zero(3)).is_zero()
    for e in (x, big):
        zero = e - e
        assert zero.is_zero() and zero.den == 1 and zero == AlgebraElement.zero(3)
        assert hash(zero) == hash(AlgebraElement.zero(3))
    # a Python-integer numerator narrows to int64 exactly below the bound,
    # wherever the largest entry sits
    bound = kernels.INT64_BOUND
    for top in (bound - 1, -(bound - 1), bound, 2**63 - 1, -(2**63), 2**70):
        for values in ([top, 3] + [0] * 6, [3] + [0] * 6 + [top]):
            e = AlgebraElement._reduced(2, np.array(values, dtype=object), 1)
            assert e.num.tolist() == values
            _assert_canonical(e)


def test_cached_idempotent_numerators_are_read_only():
    e = vazirani_idempotent(((1,), (1,)))
    before = e.num.tolist()
    with pytest.raises(ValueError):
        e.num[0] += 1
    assert vazirani_idempotent(((1,), (1,))).num.tolist() == before
