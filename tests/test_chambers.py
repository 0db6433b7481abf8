import itertools
from fractions import Fraction

import numpy as np
import pytest

from hyperoct.chambers import (
    NEG_ZERO,
    ZERO,
    Chamber,
    all_chambers,
    base_chamber,
    base_chamber_cycler,
    chamber_action,
    chamber_from_str,
    chamber_stabilizer,
    chamber_to_str,
    evaluate_y,
    evaluate_z,
    evaluation_matrix,
    letter,
)
from hyperoct.characters import cyclic_subgroup
from hyperoct.linalg import rank_exact
from hyperoct.permutations import (
    all_signed_perms,
    compose,
    group_order,
    inverse,
)
from hyperoct.rings import RingElement, get_ring

HEAVISIDE_TABLE = {
    "(0,1,2,-0,-1,-2)": (0, 0, 1, 1, 0, 1),
    "(0,2,1,-0,-2,-1)": (0, 0, 0, 1, 0, 0),
    "(0,-1,2,-0,1,-2)": (1, 0, 0, 1, 1, 1),
    "(0,2,-1,-0,-2,1)": (1, 0, 0, 0, 0, 1),
    "(0,1,-2,-0,-1,2)": (0, 1, 1, 1, 1, 0),
    "(0,-2,1,-0,2,-1)": (0, 1, 1, 0, 0, 0),
    "(0,-1,-2,-0,1,2)": (1, 1, 1, 0, 1, 1),
    "(0,-2,-1,-0,2,1)": (1, 1, 0, 0, 1, 0),
}
COLUMNS = [
    (ZERO, NEG_ZERO, letter(1)),
    (ZERO, NEG_ZERO, letter(2)),
    (ZERO, letter(1), letter(2)),
    (ZERO, letter(1), letter(-2)),
    (ZERO, letter(-1), letter(2)),
    (ZERO, letter(-1), letter(-2)),
]


def test_published_indicator_table_reproduces_exactly():
    for word, expected in HEAVISIDE_TABLE.items():
        ch = chamber_from_str(word)
        assert tuple(evaluate_y(*col, ch) for col in COLUMNS) == expected


def test_indicator_basics():
    ch = chamber_from_str("(0,1,2,-0,-1,-2)")
    assert evaluate_y(ZERO, letter(1), letter(2), ch) == 1
    assert evaluate_y(ZERO, NEG_ZERO, letter(1), ch) == 0
    for i, j, k in itertools.permutations(
        [ZERO, NEG_ZERO, letter(1), letter(2)], 3
    ):
        assert evaluate_y(i, j, k, ch) + evaluate_y(i, k, j, ch) == 1
    with pytest.raises(ValueError):
        evaluate_y(ZERO, ZERO, letter(1), ch)


def test_evaluate_z_identification():
    ch = chamber_from_str("(0,1,2,-0,-1,-2)")
    assert evaluate_z((1, 2), ch) == 1
    assert evaluate_z((1,), ch) == 0
    ch = chamber_from_str("(0,-1,-2,-0,1,2)")
    assert evaluate_z((1,), ch) == 1
    for ch in all_chambers(2):
        for j in (1, 2):
            assert evaluate_z((j,), ch) == 1 - evaluate_y(
                ZERO, NEG_ZERO, letter(-j), ch
            )


def test_chamber_count():
    for n in (1, 2, 3):
        assert len(all_chambers(n)) == group_order(n)


def test_chamber_string_roundtrip():
    for ch in all_chambers(2):
        assert chamber_from_str(chamber_to_str(ch)) == ch
    with pytest.raises(ValueError):
        chamber_from_str("(0,1,2,-0,-1,2)")


def test_chamber_action_is_action_and_preserves_indicators():
    n = 2
    gens = list(all_signed_perms(n + 1))[:8]
    chams = all_chambers(n)
    letters = [ZERO, NEG_ZERO, letter(1), letter(-1), letter(2), letter(-2)]
    ident = tuple(range(1, n + 2))
    for ch in chams:
        assert chamber_action(ident, ch) == ch
    for a in gens:
        for b in gens:
            ab = compose(a, b)
            for ch in chams:
                assert chamber_action(ab, ch) == chamber_action(
                    a, chamber_action(b, ch)
                )
    from hyperoct.permutations import apply

    for sigma in gens:
        for ch in chams:
            moved = chamber_action(sigma, ch)
            for i, j, k in itertools.permutations(letters, 3):
                assert evaluate_y(
                    apply(sigma, i), apply(sigma, j), apply(sigma, k), moved
                ) == evaluate_y(i, j, k, ch)


def test_marked_point_subgroup_acts_simply_transitively():
    n = 2
    base = base_chamber(n)
    seen = set()
    for s in all_signed_perms(n):
        lifted = tuple([1] + [x + 1 if x > 0 else x - 1 for x in s])
        seen.add(chamber_action(lifted, base))
    assert len(seen) == group_order(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stabilizer_is_the_letter_cycle(n):
    stab = set(chamber_stabilizer(n, base_chamber(n)))
    assert stab == set(cyclic_subgroup(base_chamber_cycler(n)))
    assert len(stab) == 2 * (n + 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_evaluation_matrix_full_rank(n):
    mat, rank = evaluation_matrix(n)
    assert rank == group_order(n)
    # column of the empty monomial is all ones
    ring = get_ring("Y1", n)
    empty_at = ring.nbc_basis().index(())
    assert all(mat[r, empty_at] == 1 for r in range(mat.shape[0]))


def test_evaluation_matrix_rank_against_exact_elimination():
    mat, rank = evaluation_matrix(2)
    exact = rank_exact([[Fraction(int(x)) for x in row] for row in mat])
    assert exact == rank == 8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_evaluation_matrix_matches_evaluate_z(n):
    mat, _ = evaluation_matrix(n)
    basis = get_ring("Y1", n).nbc_basis()
    chams = all_chambers(n)
    assert mat.shape == (len(chams), len(basis))
    for r, ch in enumerate(chams):
        for c, mono in enumerate(basis):
            assert mat[r, c] == int(all(evaluate_z(g, ch) for g in mono)), (ch, mono)


def evaluate_element(x: RingElement, ch: Chamber) -> int:
    """Pointwise value of a d = 1 ring element on a chamber."""
    if x.ring.graded:
        raise ValueError("pointwise evaluation is for the d = 1 spaces")
    total = 0
    for m, c in x.terms.items():
        v = 1
        for g in m:
            v &= evaluate_z(g, ch)
            if not v:
                break
        if v:
            total += c
    return total


@pytest.mark.parametrize("space,rank", [("Z1", 2), ("Y1", 2)])
def test_ring_action_matches_chamber_semantics(space, rank):
    ring = get_ring(space, rank)
    acting = rank if space == "Z1" else rank + 1
    chams = all_chambers(rank)
    for sigma in all_signed_perms(acting):
        if space == "Z1":
            lifted = tuple([1] + [x + 1 if x > 0 else x - 1 for x in sigma])
        else:
            lifted = sigma
        sig_inv = inverse(lifted)
        for g in ring.gens:
            image = ring.act(sigma, ring.generator(g))
            for ch in chams:
                assert evaluate_element(image, ch) == Fraction(
                    evaluate_z(g, chamber_action(sig_inv, ch))
                )


def test_graded_action_is_top_part_of_function_ring_action():
    # the d=3 generator images are the constant-free parts of the d=1 images
    for space3, space1, rank, acting in (
        ("Z3", "Z1", 2, 2),
        ("Y3", "Y1", 2, 3),
    ):
        r3, r1 = get_ring(space3, rank), get_ring(space1, rank)
        for sigma in all_signed_perms(acting):
            for g in r3.gens:
                img3 = r3.act_on_generator(sigma, g)
                img1 = r1.act_on_generator(sigma, g)
                stripped = {m: c for m, c in img1.terms.items() if m != ()}
                assert stripped == img3.terms


def test_evaluate_element_rejects_graded_input():
    ring = get_ring("Z3", 2)
    with pytest.raises(ValueError):
        evaluate_element(ring.one(), all_chambers(2)[0])


@pytest.mark.parametrize("space,rank", [("Z1", 2), ("Y1", 2), ("Z1", 3)])
def test_products_agree_with_pointwise_multiplication(space, rank):
    # the rewrite product of basis monomials must evaluate, chamber by
    # chamber, to the product of the evaluations: the semantic oracle for
    # the whole multiplication table
    ring = get_ring(space, rank)
    basis = ring.nbc_basis()
    chams = all_chambers(rank)
    values = {
        m: [evaluate_element(ring.monomial(m), ch) for ch in chams] for m in basis
    }
    for m1 in basis:
        for m2 in basis:
            product = ring.monomial(m1) * ring.monomial(m2)
            got = [evaluate_element(product, ch) for ch in chams]
            want = [a * b for a, b in zip(values[m1], values[m2])]
            assert got == want, (m1, m2)


@pytest.mark.parametrize("rank", [2, 3])
def test_graded_product_is_top_degree_of_filtered_product(rank):
    r3, r1 = get_ring("Z3", rank), get_ring("Z1", rank)
    basis = r3.nbc_basis()
    for m1 in basis:
        for m2 in basis:
            graded = r3.monomial(m1) * r3.monomial(m2)
            filtered = r1.monomial(m1) * r1.monomial(m2)
            top = filtered.homogeneous_part(len(m1) + len(m2))
            assert {m: c for m, c in graded.terms.items()} == dict(top.terms)


def test_flipped_indicator_fails_the_chamber_suite(monkeypatch):
    from hyperoct import chambers
    from hyperoct.suites import run_suite

    flipped = (ZERO, letter(1), letter(2), base_chamber(2))
    honest = chambers.evaluate_y

    def evaluate_y(i, j, k, ch):
        return honest(i, j, k, ch) ^ ((i, j, k, ch) == flipped)

    monkeypatch.setattr(chambers, "evaluate_y", evaluate_y)
    report = run_suite("chambers", 2)
    status = {c.id: c for c in report.checks}
    assert not report.passed
    cyclic = status["cyclic-relations-pointwise"]
    assert cyclic.status == "fail"
    assert "fails at (0,1,2) on chamber (0,1,2,-0,-1,-2)" in cyclic.witness
    assert status["function-ring-relations-pointwise"].status == "fail"
    table = status["indicator-table"]
    assert table.status == "fail"
    assert table.witness.startswith("row (0,1,2,-0,-1,-2) evaluates to (0, 0, 0, 1, 0, 1)")


def test_rank_deficient_evaluation_matrix_fails_the_chamber_suite(monkeypatch):
    from hyperoct import chambers
    from hyperoct.suites import run_suite

    def every_generator_is_one(n, gens):
        return {g: np.ones(len(all_chambers(n)), dtype=bool) for g in gens}

    monkeypatch.setattr(chambers, "generator_columns", every_generator_is_one)
    _, rank = evaluation_matrix(2)
    assert rank == 1
    check = {c.id: c for c in run_suite("chambers", 2).checks}["evaluation-matrix-rank"]
    assert check.status == "fail"
    assert check.witness.startswith("rank 1 of the 8 x 8 evaluation matrix")


def test_duplicated_column_fails_the_chamber_suite_at_rank_four(monkeypatch):
    from hyperoct import chambers, linalg
    from hyperoct.suites import run_suite

    honest = chambers.generator_columns

    def duplicated(n, gens):
        # the second generator evaluates like the first: their two
        # single-generator monomials give equal columns
        columns = honest(n, gens)
        columns[gens[1]] = columns[gens[0]]
        return columns

    fallbacks = []
    honest_exact = linalg.rank_exact

    def rank_exact(rows):
        fallbacks.append(len(rows))
        return honest_exact(rows)

    monkeypatch.setattr(chambers, "generator_columns", duplicated)
    monkeypatch.setattr(linalg, "rank_exact", rank_exact)
    check = {c.id: c for c in run_suite("chambers", 4).checks}["evaluation-matrix-rank"]
    assert check.status == "fail"
    assert check.witness.endswith("of the 384 x 384 evaluation matrix is not the group order 384")
    assert fallbacks == [384]
