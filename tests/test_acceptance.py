"""Acceptance gate: every headline claim at its stated bound, exact arithmetic.

Each test prints one pass/fail line; tolerances are identically zero
(Fraction equality) throughout.  Bounds follow the documented suite limits:
group-algebra statements at n = 1..4, basis/series counts up to n = 5.
"""

import itertools
from fractions import Fraction
from math import factorial, lcm

import pytest

from hyperoct.algebra import (
    AlgebraElement,
    eulerian_idempotents_typeA,
    g_k,
    right_ideal_character,
    tau_map,
    vazirani_idempotent,
)
from hyperoct.characters import (
    bn_irreducible,
    character_table,
    coset_permutation_character,
    coxeter_element,
    cyclic_subgroup,
    decompose,
    induce_character,
    inner_product,
    regular_character,
    rho_character,
)
from hyperoct.chambers import (
    all_chambers,
    base_chamber,
    base_chamber_cycler,
    chamber_stabilizer,
    evaluation_matrix,
)
from hyperoct.equivariant import equivariant_relations, verify_specializations
from hyperoct.permutations import (
    centralizer_order,
    compose,
    group_order,
    identity,
    longest_element,
    signed_partitions,
)
from hyperoct.ringreps import (
    bigraded_dimensions,
    graded_character,
    type_character,
    type_dimension,
    type_shape,
)
from hyperoct.rings import get_ring, hilbert_coefficients
from hyperoct.suites import run_suite


def _report(num, message):
    print(f"[criterion {num:02d}] PASS: {message}")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_01_idempotent_families(n):
    lams = signed_partitions(n)
    gs = {lam: vazirani_idempotent(lam) for lam in lams}
    total = AlgebraElement.zero(n)
    for lam, e in gs.items():
        assert e.is_idempotent(), lam
        total = total + e
    assert total == AlgebraElement.unit(n)
    for a, b in itertools.permutations(lams, 2):
        assert (gs[a] * gs[b]).is_zero(), (a, b)
    gks = [g_k(n, k) for k in range(n + 1)]
    total = AlgebraElement.zero(n)
    for e in gks:
        assert e.is_idempotent()
        total = total + e
    assert total == AlgebraElement.unit(n)
    for i, j in itertools.permutations(range(n + 1), 2):
        assert (gks[i] * gks[j]).is_zero()
    _report(1, f"n={n}: {len(lams)}+{n + 1} idempotents, orthogonal, complete")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_02_sign_forgetting_compatibility(n):
    e_by_lam, e_ks = eulerian_idempotents_typeA(n)
    for lam in signed_partitions(n):
        image = tau_map(vazirani_idempotent(lam))
        if lam[1] == ():
            assert image == e_by_lam[lam[0]], lam
        else:
            assert image.is_zero(), lam
    assert tau_map(g_k(n, 0)).is_zero()
    for k in range(1, n + 1):
        assert tau_map(g_k(n, k)) == e_ks[k - 1]
    _report(2, f"n={n}: projection matches the classical idempotents exactly")


def test_criterion_03_character_tables():
    b1 = character_table(1)
    assert b1[((1,), ())].values == (Fraction(1), Fraction(1))
    assert b1[((), (1,))].values == (Fraction(1), Fraction(-1))
    order = [((1, 1), ()), ((2,), ()), ((1,), (1,)), ((), (2,)), ((), (1, 1))]
    expected = {
        ((2,), ()): (1, 1, 1, 1, 1),
        ((), (1, 1)): (1, -1, -1, 1, 1),
        ((1, 1), ()): (1, -1, 1, -1, 1),
        ((), (2,)): (1, 1, -1, -1, 1),
        ((1,), (1,)): (2, 0, 0, 0, -2),
    }
    b2 = character_table(2)
    for lam, row in expected.items():
        assert tuple(int(b2[lam][c]) for c in order) == row
    for n in (3, 4):
        table = character_table(n)
        lams = list(table)
        for a in lams:
            for b in lams:
                assert inner_product(table[a], table[b]) == (1 if a == b else 0)
        classes = signed_partitions(n)
        for c in classes:
            for d in classes:
                s = sum(table[l][c] * table[l][d] for l in lams)
                assert s == (centralizer_order(c) if c == d else 0)
        assert sum(chi.degree**2 for chi in table.values()) == group_order(n)
    _report(3, "ranks 1,2 entry-for-entry; ranks 3,4 orthogonality and degree sums")


def test_criterion_04_rank_two_graded_decomposition():
    chars = graded_character(2, "Z3")
    assert decompose(chars[0]) == {((2,), ()): 1}
    assert decompose(chars[1]) == {
        ((1, 1), ()): 1,
        ((), (1, 1)): 1,
        ((1,), (1,)): 1,
    }
    assert decompose(chars[2]) == {((), (2,)): 1, ((1,), (1,)): 1}
    _report(4, "rank-2 degrees 0/2/4 decompose as published")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_05_main_isomorphism(n):
    z3 = graded_character(n, "Z3")
    z1 = graded_character(n, "Z1")
    for k in range(n + 1):
        ideal = right_ideal_character(g_k(n, n - k))
        assert ideal == z3[k], (n, k)
        assert ideal == z1[k], (n, k)
    _report(5, f"n={n}: ideal characters match both cohomology routes, all degrees")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_06_refined_isomorphism(n):
    for lam in signed_partitions(n):
        a = right_ideal_character(vazirani_idempotent(lam))
        b = type_character(lam)
        c = induce_character(rho_character(lam), n)
        assert a == b == c, lam
    _report(6, f"n={n}: ideal = type component = induced character, all partitions")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_criterion_07_recursion(n):
    z = graded_character(n, "Z3")
    y = graded_character(n - 1, "Y3")
    v = bn_irreducible(((n - 1, 1), ())) + bn_irreducible(((n - 1,), (1,)))
    for j in range(n + 1):
        term1 = y[j] if j <= n - 1 else 0 * z[0]
        term2 = y[j - 1] * v if j >= 1 else 0 * z[0]
        assert z[j] == term1 + term2, (n, j)
    _report(7, f"n={n}: degreewise fiber recursion holds")


def test_criterion_08_ungraded_totals():
    for n in (1, 2, 3, 4):
        z = graded_character(n, "Z3")
        total = z[0]
        for k in range(1, n + 1):
            total = total + z[k]
        assert total == regular_character(n)
    for m in (1, 2, 3):  # lifted group rank m+1 <= 4
        y = graded_character(m, "Y3")
        total = y[0]
        for k in range(1, m + 1):
            total = total + y[k]
        cox = coxeter_element(m + 1)
        assert total == coset_permutation_character(m + 1, cyclic_subgroup(cox))
    _report(8, "totals: regular at n<=4; coset module for lifted ranks <=4")


def test_criterion_09_coxeter_type_component():
    for n in (2, 3, 4, 5):
        assert type_dimension(((), (n,))) == 2 ** (n - 1) * factorial(n - 1)
    for n in (2, 3, 4):
        tchar = type_character(((), (n,)))
        assert tchar == induce_character(rho_character(((), (n,))), n)
        eta = tuple(list(range(2, n + 1)) + [1])
        w0 = longest_element(n)
        ambient = lcm(n, 2)
        exponents = {}
        g = identity(n)
        for a in range(n):
            exponents[g] = a * ambient // n
            exponents[compose(g, w0)] = (a * ambient // n + ambient // 2) % ambient
            g = compose(g, eta)
        assert tchar == induce_character((ambient, exponents), n)
    _report(9, "dimension 2^(n-1)(n-1)! to n=5; both induced descriptions to n=4")


def test_criterion_09_coxeter_type_character_at_the_suite_bound():
    # the gn1 suite runs its character check, not only the dimension, at n = 5
    report = run_suite("gn1", 5)
    assert [(c.id, c.status) for c in report.checks] == [
        ("top-negative-type-dimension", "pass"),
        ("top-negative-type-character", "pass"),
    ]
    _report(9, "gn1 at n=5: dimension and both induced descriptions")


def test_criterion_10_hilbert_series():
    for n in range(1, 6):
        coeffs = hilbert_coefficients(n)
        for space in ("Z3", "Z1"):
            ring = get_ring(space, n)
            assert [len(ring.nbc_basis(degree=d)) for d in range(n + 1)] == coeffs
        dims = bigraded_dimensions(n)
        for k in range(n + 1):
            assert sum(d for (kk, _), d in dims.items() if kk == k) == coeffs[k]
        ring = get_ring("Z3", n)
        for m in ring.nbc_basis():
            shape = type_shape(m, n)
            loops = sum(1 for g in m if len(g) == 1)
            assert len(shape[0]) == n - len(m) and len(shape[1]) == loops
    assert hilbert_coefficients(2) == [1, 4, 3]
    _report(10, "series counts to n=5; bidegrees refine by type; rank-2 series 1+4t^2+3t^4")


def test_criterion_11_action_table_and_eigenvectors():
    report = run_suite("tables-b2", 2)
    by_id = {c.id: c for c in report.checks}
    assert by_id["action-table-b2"].status == "pass"
    assert by_id["one-dimensional-eigenvectors"].status == "pass"
    _report(11, "32-cell action table and the three eigenvectors verified")


def test_criterion_12_chamber_semantics():
    report2 = run_suite("chambers", 2)
    assert report2.passed
    report3 = run_suite("chambers", 3)
    assert report3.passed
    for n in (1, 2, 3, 4):
        _, rank = evaluation_matrix(n)
        assert rank == group_order(n)
        assert len(all_chambers(n)) == group_order(n)
        stab = set(chamber_stabilizer(n, base_chamber(n)))
        assert stab == set(cyclic_subgroup(base_chamber_cycler(n)))
    _report(12, "indicator table, pointwise relations (n<=3), full rank and stabilizers (n<=4)")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_13_equivariant_specializations(n):
    count0, count1 = verify_specializations(equivariant_relations(n))
    total = len(equivariant_relations(n))
    assert count0 == count1 == total
    _report(13, f"n={n}: all {total} orbit relations vanish under both specializations")


def test_criterion_14_property_suites():
    # group-action axioms on generators, rank 3, both engine families
    from hyperoct.permutations import group_generators

    for space in ("Z1", "Z3"):
        ring = get_ring(space, 3)
        gens = group_generators(3)
        basis = [ring.monomial(m) for m in ring.nbc_basis()]
        for a in gens:
            for b in gens:
                ab = compose(a, b)
                for x in basis:
                    assert ring.act(ab, x) == ring.act(a, ring.act(b, x))
    # rewrite confluence certificate: normal-form counts per degree, n <= 5
    for n in range(1, 6):
        coeffs = hilbert_coefficients(n)
        for space in ("Z3", "Z1"):
            ring = get_ring(space, n)
            assert [len(ring.nbc_basis(degree=d)) for d in range(n + 1)] == coeffs
    # defining relations (and their group images, by signed instantiation)
    for space in ("Z1", "Z3"):
        get_ring(space, 4).verify_relations()
    for space in ("Y1", "Y3"):
        get_ring(space, 3).verify_relations()
    # orthonormality of the irreducible family, n <= 4
    for n in (1, 2, 3, 4):
        table = character_table(n)
        for a in table:
            for b in table:
                assert inner_product(table[a], table[b]) == (1 if a == b else 0)
    _report(14, "action axioms, confluence counts to n=5, relation images, orthonormality")
