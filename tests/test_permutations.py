import itertools

import pytest

from hyperoct.characters import cyclic_subgroup, rho_character
from hyperoct.permutations import (
    all_signed_perms,
    centralizer_generators_labeled,
    centralizer_order,
    class_size,
    compose,
    composition_blocks,
    composition_partial_sums,
    cycle_type,
    descent_set,
    group_order,
    identity,
    inverse,
    longest_element,
    mr_shape,
    perm_to_str,
    sign_change,
    signed_compositions,
    signed_partition_to_str,
    signed_partitions,
    simple_reflection,
    standard_representative,
)


def test_compose_identity_and_involution():
    sigma = (2, -3, 1)
    assert compose(sigma, identity(3)) == sigma
    assert compose(identity(3), sigma) == sigma
    t1 = sign_change(2, 1)
    assert compose(t1, t1) == identity(2)


def test_compose_applies_right_factor_first():
    # (a o b)(i) = a(b(i)): s1 o t2 sends 1 -> s1(1) = 2 and 2 -> s1(-2) = -1
    s1, t2 = simple_reflection(2, 1), sign_change(2, 2)
    assert compose(s1, t2) == (2, -1)
    assert compose(t2, s1) == (-2, 1)


def test_compose_inverse_roundtrip():
    for sigma in all_signed_perms(3):
        assert compose(sigma, inverse(sigma)) == identity(3)
        assert compose(inverse(sigma), sigma) == identity(3)


def test_compose_rank_mismatch():
    with pytest.raises(ValueError):
        compose((1, 2), (1,))


def test_cycle_type_published_example():
    sigma = (2, -3, 1, 7, -6, 5, 4)
    assert cycle_type(sigma) == ((2,), (3, 2))
    assert perm_to_str(sigma) == "2,-3,1,7,-6,5,4"
    assert signed_partition_to_str(cycle_type(sigma)) == "(2|3,2)"


def test_cycle_type_extremes():
    assert cycle_type(identity(4)) == ((1, 1, 1, 1), ())
    assert cycle_type(longest_element(4)) == ((), (1, 1, 1, 1))


def test_cycle_type_is_conjugation_invariant():
    for n in (2, 3, 4):
        elems = list(all_signed_perms(n))
        for sigma in elems:
            t = cycle_type(sigma)
            for tau in elems:
                conj = compose(compose(tau, sigma), inverse(tau))
                assert cycle_type(conj) == t


def test_mr_shape_published_example():
    assert mr_shape((3, 4, -1, -5, -2)) == (2, -2, -1)


def test_mr_shape_trivia():
    assert mr_shape(identity(5)) == (5,)
    assert mr_shape((-1, -2)) == (-2,)


def test_mr_shape_restricts_to_descent_composition():
    for w in itertools.permutations(range(1, 5)):
        des = sorted(descent_set(w))
        bounds = [0] + des + [4]
        expected = tuple(b - a for a, b in zip(bounds, bounds[1:]))
        assert mr_shape(w) == expected


def forget_signs(s):
    """Drop the signs of the one-line entries."""
    return tuple(abs(x) for x in s)


def test_forget_signs():
    assert forget_signs((-2, 1, -3)) == (2, 1, 3)
    assert forget_signs(longest_element(3)) == identity(3)
    w = (3, 1, 2)
    assert forget_signs(w) == w


def test_forget_signs_is_homomorphism():
    elems = list(all_signed_perms(3))
    for a in elems:
        for b in elems:
            assert forget_signs(compose(a, b)) == compose(
                forget_signs(a), forget_signs(b)
            )


def test_conjugacy_class_counts():
    assert len(signed_partitions(1)) == 2
    assert [class_size(1, lam) for lam in signed_partitions(1)] == [1, 1]
    assert len(signed_partitions(2)) == 5
    assert len(signed_partitions(3)) == 10
    assert sum(class_size(3, lam) for lam in signed_partitions(3)) == 48


def test_class_sizes_sum_to_group_order():
    for n in range(1, 6):
        assert sum(class_size(n, lam) for lam in signed_partitions(n)) == group_order(n)


def test_conjugacy_classes_against_orbit_enumeration():
    # oracle: partition all of B_3 into conjugation orbits by brute force
    n = 3
    elems = list(all_signed_perms(n))
    remaining = set(elems)
    orbit_sizes = {}
    while remaining:
        g = next(iter(remaining))
        orbit = {compose(compose(x, g), inverse(x)) for x in elems}
        remaining -= orbit
        orbit_sizes[cycle_type(g)] = len(orbit)
    computed = {lam: class_size(n, lam) for lam in signed_partitions(n)}
    assert orbit_sizes == computed


def test_standard_representative_published_example():
    assert standard_representative(((2, 1), (2, 2))) == (2, 1, 3, 5, -4, 7, -6)


def test_standard_representative_trivia():
    n = 4
    rep = standard_representative(((n,), ()))
    assert rep == (2, 3, 4, 1)
    assert standard_representative(((), (1,))) == (-1,)


def test_standard_representative_has_its_cycle_type():
    for n in range(1, 6):
        for lam in signed_partitions(n):
            assert cycle_type(standard_representative(lam)) == lam


def _centralizer_generators(lam):
    return [g for _, _, g in centralizer_generators_labeled(lam)]


def test_centralizer_generators_commute_and_generate():
    # rho_character's keys are the closure of the labeled generators
    for n in range(1, 5):
        for lam in signed_partitions(n):
            rep = standard_representative(lam)
            for g in _centralizer_generators(lam):
                assert compose(g, rep) == compose(rep, g)
            group = rho_character(lam)[1]
            assert len(group) == centralizer_order(lam)


def test_centralizer_example_contains_block_swap():
    labeled = centralizer_generators_labeled(((2, 1), (2, 2)))
    assert ("swap", 2, (1, 2, 3, 6, 7, 4, 5)) in labeled


def test_coxeter_centralizer_is_cyclic_of_order_2n():
    for n in (2, 3, 4):
        gens = _centralizer_generators(((), (n,)))
        assert len(gens) == 1
        assert len(cyclic_subgroup(gens[0])) == 2 * n


def composition_sort(p):
    """Reorder parts into a signed partition, each sign weakly decreasing."""
    pos = sorted((x for x in p if x > 0), reverse=True)
    neg = sorted((-x for x in p if x < 0), reverse=True)
    return tuple(pos), tuple(neg)


def test_composition_helpers_published_example():
    p = (2, -2, 1)
    assert composition_partial_sums(p) == frozenset({2, 4})
    assert composition_blocks(p) == ((1, 2), (3, 4), (5,))
    assert composition_sort(p) == ((2, 1), (2,))


def test_composition_partial_sums_single_block():
    assert composition_partial_sums((4,)) == frozenset()


def test_signed_composition_count():
    for n in (1, 2, 3, 4):
        assert len(list(signed_compositions(n))) == 2 * 3 ** (n - 1)


def test_shapes_partition_the_group():
    n = 3
    by_shape = {}
    for g in all_signed_perms(n):
        by_shape.setdefault(mr_shape(g), 0)
        by_shape[mr_shape(g)] += 1
    assert sum(by_shape.values()) == group_order(n)
    assert set(by_shape) <= set(signed_compositions(n))
