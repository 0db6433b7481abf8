import itertools
import tracemalloc
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
    chamber_images,
    chamber_stabilizer,
    chamber_to_str,
    cyclic_indicators,
    cyclic_letters,
    evaluation_matrix,
    full_word,
    generator_columns,
    letter,
)
from hyperoct.characters import cyclic_subgroup
from hyperoct.groupdata import element_rows
from hyperoct.linalg import rank_exact, unpack_rows
from hyperoct.permutations import (
    compose,
    group_generators,
    group_order,
    inverse,
)
from hyperoct.rings import RingElement, get_ring
from signed_perms import all_signed_perms


def evaluate_y(i: int, j: int, k: int, ch: Chamber) -> int:
    """1 iff the letters i, j, k sit in counter-clockwise cyclic order: the
    per-chamber definition that ``cyclic_indicators`` is checked against."""
    if len({i, j, k}) != 3:
        raise ValueError("letters must be pairwise distinct")
    word = full_word(ch)
    size = len(word)
    pos = {e: p for p, e in enumerate(word)}
    return 1 if (pos[j] - pos[i]) % size < (pos[k] - pos[i]) % size else 0


def evaluate_z(gen, ch: Chamber) -> int:
    """Evaluate a pair or loop generator label through the letter triple."""
    if len(gen) == 1:
        return evaluate_y(ZERO, NEG_ZERO, letter(gen[0]), ch)
    if len(gen) == 2:
        return evaluate_y(ZERO, letter(gen[0]), letter(gen[1]), ch)
    i, j, s = gen
    return evaluate_y(ZERO, letter(i), letter(s * j), ch)

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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cyclic_indicators_match_the_per_chamber_definition(n):
    y = cyclic_indicators(n)
    letters = cyclic_letters(n)
    chams = all_chambers(n)
    assert letters == (ZERO, NEG_ZERO, *(e for x in range(1, n + 1) for e in (letter(x), letter(-x))))
    assert y.shape == (len(letters),) * 3 + (len(chams),) and y.dtype == bool
    assert not y.flags.writeable
    for a, b, c in itertools.product(range(len(letters)), repeat=3):
        if len({a, b, c}) == 3:
            want = [evaluate_y(letters[a], letters[b], letters[c], ch) for ch in chams]
            assert y[a, b, c].tolist() == want, (a, b, c)
        else:
            assert not y[a, b, c].any(), (a, b, c)


def test_generator_columns_match_evaluate_z():
    ring = get_ring("Z1", 3)
    labels, _ = ring.relation_labels()
    chams = all_chambers(3)
    for g, column in generator_columns(3, [*ring.gens, *labels]).items():
        assert column.tolist() == [evaluate_z(g, ch) for ch in chams], g


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
        seen.add(chamber_action((1, *map(letter, s)), base))
    assert len(seen) == group_order(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stabilizer_is_the_letter_cycle(n):
    stab = set(chamber_stabilizer(n, base_chamber(n)))
    assert stab == set(cyclic_subgroup(base_chamber_cycler(n)))
    assert len(stab) == 2 * (n + 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_evaluation_matrix_full_rank(n):
    rows, rank = evaluation_matrix(n)
    assert rank == group_order(n)
    # the row of the empty monomial is all ones
    empty_at = get_ring("Z1", n).nbc_basis().index(())
    assert unpack_rows(rows, len(all_chambers(n)))[empty_at].all()


def test_evaluation_matrix_rank_against_exact_elimination():
    rows, rank = evaluation_matrix(2)
    mat = unpack_rows(rows, 8)
    exact = rank_exact([[Fraction(int(x)) for x in row] for row in mat])
    assert exact == rank == 8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_evaluation_matrix_matches_evaluate_z(n):
    rows, _ = evaluation_matrix(n)
    basis = get_ring("Z1", n).nbc_basis()
    chams = all_chambers(n)
    assert rows.shape == (len(basis), -(-len(chams) // 64))
    mat = unpack_rows(rows, len(chams))
    for c, mono in enumerate(basis):
        for r, ch in enumerate(chams):
            assert mat[c, r] == int(all(evaluate_z(g, ch) for g in mono)), (ch, mono)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_evaluation_rows_are_zero_past_the_last_chamber(n):
    # 2, 8 and 48 chambers in one 64-bit word: a set padding bit would act
    # as an extra column of the rank
    rows, _ = evaluation_matrix(n)
    assert rows.dtype == np.dtype("<u8") and rows.shape[1] == 1
    chambers = len(all_chambers(n))
    assert not unpack_rows(rows, 64)[:, chambers:].any()
    assert (rows < np.uint64(1) << np.uint64(chambers)).all()


def test_evaluation_matrix_at_rank_four_allocates_no_dense_matrix():
    # the 384 x 384 int64 matrix alone is 1.2 MB; the packed rows are 18 kB
    evaluation_matrix(4)  # builds the ring and the indicator array
    tracemalloc.start()
    try:
        evaluation_matrix(4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chamber_images_match_chamber_action(n):
    sigmas = element_rows(n + 1)
    elements = [tuple(s) for s in sigmas.tolist()]
    for ch in all_chambers(n)[:: 1 if n < 3 else 5]:
        images = [tuple(x) for x in chamber_images(sigmas, ch).tolist()]
        assert images == [chamber_action(s, ch) for s in elements], ch
        assert chamber_stabilizer(n, ch) == [
            s for s in elements if chamber_action(s, ch) == ch
        ]


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
    # Y1 is the lifted action of B_{rank+1} on the ring Z1
    ring = get_ring("Z1", rank)
    acting = rank if space == "Z1" else rank + 1
    chams = all_chambers(rank)
    for sigma in all_signed_perms(acting):
        if space == "Z1":
            lifted = (1, *map(letter, sigma))
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
    # the d=3 generator images are the constant-free parts of the d=1
    # images, under B_2 and under the lifted B_3
    r3, r1 = get_ring("Z3", 2), get_ring("Z1", 2)
    for acting in (2, 3):
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
    # the whole multiplication table; for Y1, of the basis monomials'
    # images under the generators of the lifted group
    ring = get_ring("Z1", rank)
    elements = [ring.monomial(m) for m in ring.nbc_basis()]
    if space == "Y1":
        elements = [ring.act(s, x) for s in group_generators(rank + 1) for x in elements]
    chams = all_chambers(rank)
    values = [[evaluate_element(x, ch) for ch in chams] for x in elements]
    for x, vx in zip(elements, values):
        for y, vy in zip(elements, values):
            got = [evaluate_element(x * y, ch) for ch in chams]
            assert got == [a * b for a, b in zip(vx, vy)], (x, y)


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


def _patched_indicators(monkeypatch, n):
    """Patch ``cyclic_indicators`` with a writable copy of its rank-n array;
    returns the copy and the index of a letter triple on the base chamber."""
    from hyperoct import chambers

    letters = cyclic_letters(n)
    r = all_chambers(n).index(base_chamber(n))
    y = cyclic_indicators(n).copy()
    monkeypatch.setattr(chambers, "cyclic_indicators", lambda k: y)
    return y, lambda triple: (*map(letters.index, triple), r)


Z, M, P1, P2, N1, N2 = ZERO, NEG_ZERO, letter(1), letter(2), letter(-1), letter(-2)


def test_flipped_indicator_fails_the_chamber_suite(monkeypatch):
    from hyperoct.suites import run_suite

    y, at = _patched_indicators(monkeypatch, 2)
    y[at((Z, P1, P2))] ^= True
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


@pytest.mark.parametrize(
    "flips, witness",
    [
        ([(Z, P1, P2)], "reversal relation fails at (0,1,2)"),
        ([(Z, P1, P2), (Z, P2, P1)], "antipode relation fails at (0,-1,-2)"),
        ([(Z, M, P1), (Z, P1, M), (M, Z, N1), (M, N1, Z)], "support relation fails at (0,-0,1,2)"),
        (
            [(Z, P1, P2), (Z, P2, P1), (M, N1, N2), (M, N2, N1)],
            "four-letter relation fails at (0,-0,1,2)",
        ),
    ],
)
def test_each_cyclic_relation_can_fail(flips, witness, monkeypatch):
    # each flip set keeps the relations checked before the named one
    from hyperoct.suites import _cyclic_relation_sweep

    y, at = _patched_indicators(monkeypatch, 2)
    for t in flips:
        y[at(t)] ^= True
    assert _cyclic_relation_sweep(2)[1] == f"{witness} on chamber (0,1,2,-0,-1,-2)"


def test_unrealized_generator_values_fail_a_triple_relation(monkeypatch):
    # values of z1, z2, z3, z12, z1~2, ..., z2~3 that no chamber takes, with
    # every label's canonical combination still 0 or 1: the negation
    # relations hold and a triple relation fails
    from hyperoct.suites import _function_ring_relation_sweep

    ring = get_ring("Z1", 3)
    labels, _ = ring.relation_labels()
    values = dict(zip(ring.gens, (0, 0, 0, 0, 1, 1, 1, 0, 1)))
    y, at = _patched_indicators(monkeypatch, 3)
    for label, x in labels.items():
        v = sum(c * all(values[g] for g in m) for m, c in x.terms.items())
        assert v in (0, 1)
        triple = (Z, M, letter(label[0])) if len(label) == 1 else (Z, *map(letter, label))
        y[at(triple)] = v
    assert _function_ring_relation_sweep(3)[1] == (
        "triple relation fails at (1,2),(2,3),(1,3) on chamber (0,1,2,3,-0,-1,-2,-3)"
    )


def test_swapped_relation_label_fails_the_function_ring_sweep(monkeypatch):
    from hyperoct.suites import run_suite

    ring = get_ring("Z1", 2)
    honest = ring.relation_labels

    def swapped():
        # the label (2,-1) carries the combination of (1,-2)
        labels, triples = honest()
        return {**labels, (2, -1): labels[(1, -2)]}, triples

    monkeypatch.setattr(ring, "relation_labels", swapped)
    check = {c.id: c for c in run_suite("chambers", 2).checks}["function-ring-relations-pointwise"]
    assert check.status == "fail"
    assert check.witness.startswith("negation relation fails at (2,-1) on chamber ")


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


def test_one_flipped_generator_value_fails_the_chamber_suite(monkeypatch):
    # z1 flipped on one chamber drops the rank by exactly one, and every
    # mod-2 dependency then involves the empty monomial: set padding bits
    # in its row would lift the GF(2) rank back to full and skip the exact
    # fallback
    from hyperoct import chambers
    from hyperoct.suites import run_suite

    honest = chambers.generator_columns
    at = all_chambers(2).index(chamber_from_str("(0,1,-2,-0,-1,2)"))

    def flipped(n, gens):
        columns = honest(n, gens)
        columns[(1,)] = columns[(1,)].copy()
        columns[(1,)][at] ^= True
        return columns

    monkeypatch.setattr(chambers, "generator_columns", flipped)
    assert evaluation_matrix(2)[1] == 7
    check = {c.id: c for c in run_suite("chambers", 2).checks}["evaluation-matrix-rank"]
    assert check.status == "fail"
    assert check.witness == "rank 7 of the 8 x 8 evaluation matrix is not the group order 8"


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
