"""Named verification suites: one per headline claim, run by the CLI.

Each suite produces a SuiteReport with one entry per check; a failing
check carries a serialized counterexample in its witness.  All checks are
exact and deterministic: characters are integer vectors (roots of unity
as integer exponents), and a character that cannot be computed exactly
(an inexact division, an irrational induced value) fails its check with
the error text as witness.  Rewrite tables honor the persistent cache.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from math import factorial, lcm

import numpy as np

from . import chambers as chmod
from . import equivariant as eqmod
from . import kernels
from .algebra import (
    AlgebraElement,
    eulerian_idempotents_typeA,
    g_k,
    right_ideal_character,
    tau_map,
    vazirani_idempotent,
)
from .characters import (
    ClassFunction,
    character_table,
    coset_permutation_character,
    coxeter_element,
    cyclic_subgroup,
    decompose,
    induce_character,
    regular_character,
    rho_character,
)
from .permutations import (
    all_signed_perms,
    centralizer_order,
    class_size,
    compose,
    group_order,
    identity,
    longest_element,
    perm_to_str,
    signed_partition_to_str,
    signed_partitions,
)
from .ringreps import (
    bigraded_dimensions,
    graded_character,
    type_character,
    type_dimension,
    type_shape,
)
from .rings import get_ring, hilbert_coefficients

SUITE_BOUNDS = {
    "idempotents": (1, 4),
    "tau": (1, 4),
    "characters": (1, 4),
    "tables-b2": (2, 2),
    "hilbert": (1, 5),
    "main-iso": (1, 4),
    "recursion": (2, 4),
    "ungraded": (1, 4),
    "gn1": (2, 5),
    "bigrading": (1, 5),
    "equivariant": (1, 4),
    "chambers": (1, 4),
}

SUITE_ORDER = list(SUITE_BOUNDS) + ["all"]


class SuiteUsageError(ValueError):
    """Unknown suite name or rank outside the suite's documented bound."""


@dataclass
class Check:
    id: str
    anchor: str
    status: str  # "pass" | "fail"
    witness: str


@dataclass
class SuiteReport:
    suite: str
    n: int
    checks: list[Check] = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "n": self.n,
                "checks": [
                    {
                        "id": c.id,
                        "anchor": c.anchor,
                        "status": c.status,
                        "witness": c.witness,
                    }
                    for c in self.checks
                ],
                "elapsed_ms": self.elapsed_ms,
            },
            indent=2,
            sort_keys=True,
        )

    def to_text(self) -> str:
        lines = [f"suite {self.suite} (n={self.n})"]
        for c in self.checks:
            lines.append(f"  [{c.status.upper():4s}] {c.id}: {c.witness}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"{verdict}: {sum(c.status == 'pass' for c in self.checks)}"
            f"/{len(self.checks)} checks, {self.elapsed_ms} ms"
        )
        return "\n".join(lines)


class _Recorder:
    def __init__(self):
        self.checks: list[Check] = []

    def record(self, check_id: str, anchor: str, ok: bool, witness: str):
        self.checks.append(
            Check(check_id, anchor, "pass" if ok else "fail", witness)
        )


def _cf_str(chi: ClassFunction) -> str:
    return (
        "["
        + ", ".join(
            f"{signed_partition_to_str(lam)}:{v}"
            for lam, v in zip(signed_partitions(chi.n), chi.values)
        )
        + "]"
    )


def _decomp_str(mults: dict) -> str:
    return " + ".join(
        (f"{m}*" if m > 1 else "") + "chi^" + signed_partition_to_str(lam)
        for lam, m in sorted(mults.items())
    )


# ---------------------------------------------------------------------------
# individual suites


def _suite_idempotents(n: int, rec: _Recorder):
    lams = signed_partitions(n)
    gs = {lam: vazirani_idempotent(lam) for lam in lams}

    bad = [lam for lam, e in gs.items() if not e.is_idempotent()]
    rec.record(
        "signed-partition-idempotents-square",
        "orthogonal-idempotent-family-signed-partitions",
        not bad,
        f"{len(lams)} elements satisfy e*e = e"
        if not bad
        else f"failures at {[signed_partition_to_str(l) for l in bad]}",
    )

    bad = [
        (a, b)
        for a, b in itertools.combinations(lams, 2)
        if not (gs[a] * gs[b]).is_zero() or not (gs[b] * gs[a]).is_zero()
    ]
    rec.record(
        "signed-partition-idempotents-orthogonal",
        "orthogonal-idempotent-family-signed-partitions",
        not bad,
        f"all {len(lams) * (len(lams) - 1)} ordered products vanish"
        if not bad
        else f"nonzero product at {bad[0]}",
    )

    total = AlgebraElement.zero(n)
    for e in gs.values():
        total = total + e
    ok = total == AlgebraElement.unit(n)
    rec.record(
        "signed-partition-idempotents-complete",
        "orthogonal-idempotent-family-signed-partitions",
        ok,
        "sum over all signed partitions is the identity"
        if ok
        else f"sum has {total.support_size()} terms",
    )

    gks = [g_k(n, k) for k in range(n + 1)]
    failure = None
    for a, b in itertools.product(range(n + 1), repeat=2):
        if gks[a] * gks[b] != (gks[a] if a == b else AlgebraElement.zero(n)):
            failure = f"g_{a} * g_{b} != " + (f"g_{a}" if a == b else "0")
            break
    total = AlgebraElement.zero(n)
    for e in gks:
        total = total + e
    if failure is None and total != AlgebraElement.unit(n):
        failure = f"sum has {total.support_size()} terms"
    rec.record(
        "positive-part-count-idempotents",
        "orthogonal-idempotent-family-by-positive-part-count",
        failure is None,
        failure or f"{n + 1} idempotents indexed by positive part count: orthogonal, complete",
    )


def _suite_tau(n: int, rec: _Recorder):
    e_by_lam, e_ks = eulerian_idempotents_typeA(n)
    bad = []
    for lam in signed_partitions(n):
        image = tau_map(vazirani_idempotent(lam))
        if lam[1] == ():
            if image != e_by_lam[lam[0]]:
                bad.append(lam)
        elif not image.is_zero():
            bad.append(lam)
    rec.record(
        "sign-forgetting-on-partition-idempotents",
        "sign-forgetting-projection-of-idempotents",
        not bad,
        "positive-type idempotents map onto the classical partition idempotents, "
        "all others to zero"
        if not bad
        else f"failure at {signed_partition_to_str(bad[0])}",
    )

    ok = tau_map(g_k(n, 0)).is_zero()
    details = []
    for k in range(1, n + 1):
        got = tau_map(g_k(n, k))
        if got != e_ks[k - 1]:
            ok = False
            details.append(k)
    rec.record(
        "sign-forgetting-on-count-idempotents",
        "sign-forgetting-projection-shifts-eulerian-index",
        ok,
        "g_0 maps to zero and g_k to the (k-1)-th eulerian idempotent"
        if ok
        else f"mismatch at k={details}",
    )


def _first_mismatch(got: np.ndarray, want: np.ndarray, labels) -> tuple | None:
    """The labels of the first differing entry in row-major order, or None."""
    bad = np.argwhere(got != want)
    return None if not len(bad) else (labels[bad[0][0]], labels[bad[0][1]])


def _suite_characters(n: int, rec: _Recorder):
    try:
        table = character_table(n)
    except ArithmeticError as exc:
        rec.record("integrality", "character-values-are-integers", False, str(exc))
        return
    lams = list(table)
    classes = signed_partitions(n)
    order = group_order(n)
    # X is irreducibles x classes; every entry of both products is at most
    # max|X|^2 |B_n| in absolute value
    bound = max(kernels.max_abs(chi.values) for chi in table.values()) ** 2 * order
    x = np.array([table[lam].values for lam in lams], dtype=kernels.exact_dtype(bound))
    sizes = np.array([class_size(n, c) for c in classes], dtype=x.dtype)
    bad = _first_mismatch(
        (x * sizes) @ x.T, order * np.eye(len(lams), dtype=x.dtype), lams
    )
    rec.record(
        "row-orthonormality",
        "irreducible-character-orthonormality",
        not bad,
        f"{len(lams)}^2 inner products are delta"
        if not bad
        else f"failure at {bad}",
    )

    centralizers = np.diag(np.array([centralizer_order(c) for c in classes], dtype=x.dtype))
    bad = _first_mismatch(x.T @ x, centralizers, classes)
    rec.record(
        "column-orthogonality",
        "irreducible-character-column-orthogonality",
        not bad,
        "columns orthogonal with centralizer-order norms"
        if not bad
        else f"failure at {bad}",
    )

    total = sum(table[l].degree ** 2 for l in lams)
    ok = total == group_order(n)
    rec.record(
        "burnside-degree-sum",
        "sum-of-squared-degrees-is-group-order",
        ok,
        f"sum of squared degrees = {total} = 2^{n} {n}!"
        if ok
        else f"sum of squared degrees = {total} != {group_order(n)}",
    )

    # every division building the table was exact; its values are ints
    ok = all(type(v) is int for chi in table.values() for v in chi.values)
    rec.record(
        "integrality",
        "character-values-are-integers",
        ok,
        "all table entries are integers" if ok else "a table entry is not an int",
    )


# the published character tables of B_1 and B_2: rank -> (class order,
# {irreducible: values in that order})
_PUBLISHED_TABLES = {
    1: (
        [((1,), ()), ((), (1,))],
        {
            ((1,), ()): (1, 1),
            ((), (1,)): (1, -1),
        },
    ),
    2: (
        [((1, 1), ()), ((2,), ()), ((1,), (1,)), ((), (2,)), ((), (1, 1))],
        {
            ((2,), ()): (1, 1, 1, 1, 1),
            ((), (1, 1)): (1, -1, -1, 1, 1),
            ((1, 1), ()): (1, -1, 1, -1, 1),
            ((), (2,)): (1, 1, -1, -1, 1),
            ((1,), (1,)): (2, 0, 0, 0, -2),
        },
    ),
}


def _expected_action_table(ring):
    """Expected images of the rank-2 basis under s1, t2, s1 t2, w0.

    Two published cells break the group-action axiom (and the published
    total-degree traces); the values below are the unique ones consistent
    with the remaining thirty cells, and are what the engine must produce.
    """
    z1, z2 = ring.generator((1,)), ring.generator((2,))
    zp, zm = ring.generator((1, 2, 1)), ring.generator((1, 2, -1))
    one = ring.one()
    rows = {
        "1": one,
        "z1": z1,
        "z2": z2,
        "z12": zp,
        "z1~2": zm,
        "z1*z2": z1 * z2,
        "z1*z12": z1 * zp,
        "z1*z1~2": z1 * zm,
    }
    expected = {
        "1": (one, one, one, one),
        "z1": (z2, z1, z2, -1 * z1),
        "z2": (z1, -1 * z2, -1 * z1, -1 * z2),
        "z12": (
            -1 * zp,
            zm,
            -1 * (zm + z1 + z2),
            zp + z1 - 1 * z2,
        ),
        "z1~2": (
            -1 * (zm + z1 + z2),
            zp,
            -1 * zp,
            zm + z1 + z2,
        ),
        "z1*z2": (z1 * z2, -1 * (z1 * z2), -1 * (z1 * z2), z1 * z2),
        "z1*z12": (
            -1 * (z1 * zp) + z1 * z2,
            z1 * zm,
            z1 * zm,
            -1 * (z1 * zp) + z1 * z2,
        ),
        "z1*z1~2": (
            z1 * zm,
            z1 * zp,
            -1 * (z1 * zp) + z1 * z2,
            -1 * (z1 * zm) - 1 * (z1 * z2),
        ),
    }
    return rows, expected


def _suite_tables_b2(n: int, rec: _Recorder):
    for rank, (classes, published) in _PUBLISHED_TABLES.items():
        table = character_table(rank)
        failure = next(
            (
                f"chi^{signed_partition_to_str(lam)} at class "
                f"{signed_partition_to_str(c)} is {table[lam][c]}, published {v}"
                for lam, row in published.items()
                for c, v in zip(classes, row)
                if table[lam][c] != v
            ),
            None,
        )
        rec.record(
            f"character-table-b{rank}",
            f"character-table-rank-{rank}",
            failure is None,
            failure or f"all {len(table) ** 2} entries match the published table",
        )

    ring = get_ring("Z3", 2)
    s1, t2 = (2, 1), (1, -2)
    s1t2 = compose(s1, t2)
    w0 = compose(s1t2, s1t2)
    cols = (s1, t2, s1t2, w0)
    rows, expected = _expected_action_table(ring)
    bad = []
    for name, x in rows.items():
        for sigma, want in zip(cols, expected[name]):
            if ring.act(sigma, x) != want:
                bad.append((name, sigma))
    rec.record(
        "action-table-b2",
        "rank-2-action-on-basis",
        not bad,
        "all 32 cells match (two published cells corrected to satisfy the "
        "group-action axiom and the degree-4 trace)"
        if not bad
        else f"mismatch at {bad[0]}",
    )

    z1, z2 = ring.generator((1,)), ring.generator((2,))
    zp, zm = ring.generator((1, 2, 1)), ring.generator((1, 2, -1))
    v_plus = zp + zm + z1
    v_minus = zp - 1 * zm - 1 * z2
    v_top = z1 * z2
    # (element, vector, eigenvalue)
    expected = [
        (w0, v_plus, 1),
        (w0, v_top, 1),
        (t2, v_minus, -1),
        (s1, v_plus, -1),
        (t2, v_plus, 1),
        (s1, v_minus, -1),
        (w0, v_minus, 1),
        (s1, v_top, 1),
        (t2, v_top, -1),
    ]
    failure = None
    for sigma, v, sign in expected:
        image = ring.act(sigma, v)
        if image != sign * v:
            failure = f"({perm_to_str(sigma)}) sends {v!r} to {image!r}, not {sign} times it"
            break
    rec.record(
        "one-dimensional-eigenvectors",
        "linear-character-eigenvectors-in-rank-2",
        failure is None,
        failure or "the three nontrivial eigenvectors transform by their linear characters",
    )


def _suite_hilbert(n: int, rec: _Recorder):
    coeffs = hilbert_coefficients(n)
    for space in ("Z3", "Z1"):
        ring = get_ring(space, n)
        counts = [len(ring.nbc_basis(degree=d)) for d in range(n + 1)]
        ok = counts == coeffs
        rec.record(
            f"basis-counts-{space.lower()}",
            "hilbert-series-product-of-odd-factors",
            ok,
            f"degree counts {counts} match prod(1+(2i-1)t)"
            if ok
            else f"{counts} != {coeffs}",
        )
    ok = sum(coeffs) == group_order(n)
    rec.record(
        "total-dimension",
        "total-dimension-is-group-order",
        ok,
        f"series at t=1 gives {sum(coeffs)} = 2^{n} {n}!"
        if ok
        else f"series at t=1 gives {sum(coeffs)}, not 2^{n} {n}! = {group_order(n)}",
    )
    if n == 2:
        ok = coeffs == [1, 4, 3]
        rec.record(
            "rank-2-series",
            "hilbert-series-rank-2",
            ok,
            "series is 1 + 4t^2 + 3t^4 in cohomological degrees"
            if ok
            else f"coefficients {coeffs} != [1, 4, 3]",
        )


def _suite_main_iso(n: int, rec: _Recorder):
    z3 = graded_character(n, "Z3")
    z1 = graded_character(n, "Z1")
    try:
        bad = []
        for k in range(n + 1):
            ideal = right_ideal_character(g_k(n, n - k))
            if not (ideal == z3[k] == z1[k]):
                bad.append(k)
        ok, witness = not bad, f"mismatch at degrees {bad}"
    except ArithmeticError as exc:
        ok, witness = False, str(exc)
    rec.record(
        "count-idempotent-ideals-match-graded-pieces",
        "main-isomorphism-ideals-vs-cohomology",
        ok,
        f"for every k the ideal of g_(n-k) matches cohomological degree 2k "
        f"and the degree-k graded piece of the function ring"
        if ok
        else witness,
    )

    try:
        bad = []
        for lam in signed_partitions(n):
            a = right_ideal_character(vazirani_idempotent(lam))
            b = type_character(lam)
            c = induce_character(rho_character(lam), n)
            if not (a == b == c):
                bad.append(lam)
        ok = not bad
        witness = "" if ok else f"mismatch at {signed_partition_to_str(bad[0])}"
    except ArithmeticError as exc:
        ok, witness = False, str(exc)
    rec.record(
        "partition-idempotent-ideals-match-type-pieces",
        "refined-isomorphism-by-signed-partition",
        ok,
        "ideal character = type-component character = induced centralizer character "
        "for every signed partition"
        if ok
        else witness,
    )

    if n == 2:
        expected = [
            {((2,), ()): 1},
            {((1, 1), ()): 1, ((), (1, 1)): 1, ((1,), (1,)): 1},
            {((), (2,)): 1, ((1,), (1,)): 1},
        ]
        try:
            got = [decompose(z3[k]) for k in range(3)]
        except ValueError as exc:  # a graded piece that is no character
            ok, witness = False, str(exc)
        else:
            ok = got == expected
            witness = "; ".join(f"deg {2 * k}: {_decomp_str(d)}" for k, d in enumerate(got))
        rec.record(
            "rank-2-graded-decomposition",
            "rank-2-graded-pieces-into-irreducibles",
            ok,
            witness,
        )


def _suite_recursion(n: int, rec: _Recorder):
    from .characters import bn_irreducible

    z = graded_character(n, "Z3")
    y = graded_character(n - 1, "Y3")
    v = bn_irreducible(((n - 1, 1), ())) + bn_irreducible(((n - 1,), (1,)))
    bad = []
    for j in range(n + 1):
        term1 = y[j] if j <= n - 1 else 0 * z[0]
        term2 = y[j - 1] * v if j >= 1 else 0 * z[0]
        if z[j] != term1 + term2:
            bad.append(j)
    rec.record(
        "fiber-recursion",
        "lifted-space-fiber-recursion",
        not bad,
        "each degree splits as the lifted piece plus the previous lifted piece "
        "tensor the puncture representation"
        if not bad
        else f"mismatch at degrees {bad}",
    )


def _suite_ungraded(n: int, rec: _Recorder):
    z = graded_character(n, "Z3")
    total = z[0]
    for k in range(1, n + 1):
        total = total + z[k]
    ok = total == regular_character(n)
    rec.record(
        "total-is-regular",
        "ungraded-total-is-regular-representation",
        ok,
        "sum over degrees carries the regular representation"
        if ok
        else _cf_str(total),
    )

    if n <= 3:
        y = graded_character(n, "Y3")
        total = y[0]
        for k in range(1, n + 1):
            total = total + y[k]
        cox = coxeter_element(n + 1)
        chi = coset_permutation_character(n + 1, cyclic_subgroup(cox))
        ok = total == chi
        rec.record(
            "lifted-total-is-coset-representation",
            "lifted-ungraded-total-is-coxeter-coset-module",
            ok,
            "lifted sum equals the permutation character on cosets of a "
            "coxeter cyclic subgroup"
            if ok
            else _cf_str(total),
        )


def _suite_gn1(n: int, rec: _Recorder):
    lam = ((), (n,))
    dim = type_dimension(lam)
    expected = 2 ** (n - 1) * factorial(n - 1)
    rec.record(
        "top-negative-type-dimension",
        "coxeter-type-component-dimension",
        dim == expected,
        f"dim = {dim} = 2^{n - 1} ({n - 1})!"
        if dim == expected
        else f"dim = {dim}, expected {expected}",
    )
    tchar = type_character(lam)
    # eta^a -> w^(a ambient/n), a primitive n-th root; w0 = -1 -> w^(ambient/2)
    eta = tuple(list(range(2, n + 1)) + [1])
    w0 = longest_element(n)
    ambient = lcm(n, 2)
    exponents = {}
    g = identity(n)
    for a in range(n):
        exponents[g] = a * ambient // n
        exponents[compose(g, w0)] = (a * ambient // n + ambient // 2) % ambient
        g = compose(g, eta)
    try:
        ind1 = induce_character(rho_character(lam), n)
        ind2 = induce_character((ambient, exponents), n)
        ok, witness = tchar == ind1 == ind2, _cf_str(tchar)
    except ArithmeticError as exc:
        ok, witness = False, str(exc)
    rec.record(
        "top-negative-type-character",
        "coxeter-type-component-as-induced-character",
        ok,
        "type character equals induction from the coxeter centralizer and from "
        "the unsigned-cycle-with-central-sign subgroup"
        if ok
        else witness,
    )


def _suite_bigrading(n: int, rec: _Recorder):
    dims = bigraded_dimensions(n)
    coeffs = hilbert_coefficients(n)
    by_k = {}
    for (k, l), d in dims.items():
        by_k[k] = by_k.get(k, 0) + d
    bad = [k for k in range(n + 1) if by_k.get(k, 0) != coeffs[k]]
    rec.record(
        "bidegree-partition",
        "loop-degree-refines-the-grading",
        not bad,
        f"bidegree dimensions {sorted(dims.items())} sum to the degree counts"
        if not bad
        else f"degree {bad[0]}: bidegree dimensions sum to {by_k.get(bad[0], 0)}, "
        f"degree count {coeffs[bad[0]]}",
    )

    ring = get_ring("Z3", n)
    bad = []
    shape_counts: dict = {}
    for m in ring.nbc_basis():
        shape = type_shape(m, n)
        shape_counts[shape] = shape_counts.get(shape, 0) + 1
        k = len(m)
        loops = sum(1 for g in m if len(g) == 1)
        if len(shape[0]) != n - k or len(shape[1]) != loops:
            bad.append(m)
    rec.record(
        "type-refines-bidegree",
        "type-components-partition-the-bigrading",
        not bad,
        "every basis monomial of bidegree (k, l) has n-k positive and l negative "
        "type blocks"
        if not bad
        else f"violation at {bad[0]}",
    )

    failure = None
    for (k, l), d in dims.items():
        total = sum(
            c
            for shape, c in shape_counts.items()
            if len(shape[0]) == n - k and len(shape[1]) == l
        )
        if total != d:
            failure = f"bidegree ({k}, {l}): type components sum to {total}, dimension {d}"
            break
    rec.record(
        "bidegree-from-type-sums",
        "bidegree-dimensions-from-type-components",
        failure is None,
        failure or "each bidegree dimension is the sum of its type-component dimensions",
    )


def _suite_equivariant(n: int, rec: _Recorder):
    relset = eqmod.equivariant_relations(n)
    total = len(relset)
    count0, count1 = eqmod.verify_specializations(relset)
    for check_id, at, where, count in (
        ("specialize-to-graded", "zero", "the graded ring at u=0", count0),
        ("specialize-to-function-ring", "one", "the function ring at u=1", count1),
    ):
        rec.record(
            check_id,
            f"equivariant-ideal-specializes-at-{at}",
            count == total,
            f"all {total} orbit relations vanish in {where}"
            if count == total
            else f"{total - count} relations fail",
        )


def _sweep_failure(relation: str, labels: str, ch) -> str:
    return f"{relation} fails at ({labels}) on chamber {chmod.chamber_to_str(ch)}"


def _cyclic_relation_sweep(n: int) -> tuple[int, str | None]:
    """Evaluate the five cyclic-indicator relations on every chamber for
    every letter choice.  Returns the number of (relation, labels) instances
    and the first failing instance with its chamber, or None."""
    letters = [chmod.ZERO, chmod.NEG_ZERO]
    for i in range(1, n + 1):
        letters += [chmod.letter(i), chmod.letter(-i)]
    chams = chmod.all_chambers(n)
    count = 0

    def y(i, j, k, ch):
        return chmod.evaluate_y(i, j, k, ch)

    def labels(*xs):
        return ",".join(chmod.letter_to_str(x) for x in xs)

    for i, j, k in itertools.permutations(letters, 3):
        antipode_ok = -i not in (j, k) and i not in (-j, -k)
        for ch in chams:
            a = y(i, j, k, ch)
            if a * (1 - a) != 0:
                return count, _sweep_failure("0/1 indicator", labels(i, j, k), ch)
            if a != 1 - y(i, k, j, ch):
                return count, _sweep_failure("reversal relation", labels(i, j, k), ch)
            if antipode_ok and y(-i, j, k, ch) != y(i, -j, -k, ch):
                return count, _sweep_failure("antipode relation", labels(i, j, k), ch)
        count += 3 if antipode_ok else 2
    for i, j, k, l in itertools.permutations(letters, 4):
        for ch in chams:
            a, b = y(i, j, k, ch), y(i, j, l, ch)
            c, d = y(i, k, l, ch), y(j, k, l, ch)
            if a - b + c - d != 0:
                return count, _sweep_failure(
                    "four-letter relation", labels(i, j, k, l), ch
                )
            if a * c * (1 - b) + (1 - a) * (1 - c) * b != 0:
                return count, _sweep_failure("support relation", labels(i, j, k, l), ch)
        count += 2
    return count, None


def _function_ring_relation_sweep(n: int) -> tuple[int, str | None]:
    """Evaluate the seven d=1 function-ring relations pointwise via the
    indicator model, over all signed index labels.  Returns the number of
    (relation, labels) instances and the first failing instance with its
    chamber, or None."""
    chams = chmod.all_chambers(n)
    idx = [s * i for i in range(1, n + 1) for s in (1, -1)]
    count = 0

    def z2(a, b, ch):
        return chmod.evaluate_z((a, b), ch)

    def z1v(a, ch):
        return chmod.evaluate_z((a,), ch)

    def labels(*xs):
        return ",".join(str(x) for x in xs)

    for a in idx:
        for ch in chams:
            va = z1v(a, ch)
            if va * (1 - va) != 0:
                return count, _sweep_failure("0/1 loop indicator", labels(a), ch)
            if z1v(-a, ch) != 1 - va:
                return count, _sweep_failure("loop negation relation", labels(a), ch)
        count += 2
    for a, b in itertools.permutations(idx, 2):
        if abs(a) == abs(b):
            continue
        for ch in chams:
            vab = z2(a, b, ch)
            if vab * (1 - vab) != 0:
                return count, _sweep_failure("0/1 pair indicator", labels(a, b), ch)
            if z1v(a, ch) - z1v(b, ch) + vab - z2(-a, -b, ch) != 0:
                return count, _sweep_failure("pair negation relation", labels(a, b), ch)
            va, vb = z1v(a, ch), z1v(b, ch)
            if vab * va * (1 - vb) + (1 - vab) * (1 - va) * vb != 0:
                return count, _sweep_failure("pair-loop relation", labels(a, b), ch)
            vmb = z2(a, -b, ch)
            if vb * vmb * (1 - vab) + (1 - vb) * (1 - vmb) * vab != 0:
                return count, _sweep_failure("mixed-pair relation", labels(a, b), ch)
        count += 4
    for a, b, c in itertools.permutations(idx, 3):
        if len({abs(a), abs(b), abs(c)}) != 3:
            continue
        for ch in chams:
            vab, vbc, vac = z2(a, b, ch), z2(b, c, ch), z2(a, c, ch)
            if vab * vbc * (1 - vac) + (1 - vab) * (1 - vbc) * vac != 0:
                return count, _sweep_failure(
                    "transitivity relation", labels(a, b, c), ch
                )
        count += 1
    return count, None


def _suite_chambers(n: int, rec: _Recorder):
    chams = chmod.all_chambers(n)
    ok = len(chams) == group_order(n)
    rec.record(
        "chamber-count",
        "component-count-is-group-order",
        ok,
        f"{len(chams)} chambers = 2^{n} {n}!"
        if ok
        else f"{len(chams)} chambers, not 2^{n} {n}! = {group_order(n)}",
    )

    if n == 2:
        table_rows = {
            "(0,1,2,-0,-1,-2)": (0, 0, 1, 1, 0, 1),
            "(0,2,1,-0,-2,-1)": (0, 0, 0, 1, 0, 0),
            "(0,-1,2,-0,1,-2)": (1, 0, 0, 1, 1, 1),
            "(0,2,-1,-0,-2,1)": (1, 0, 0, 0, 0, 1),
            "(0,1,-2,-0,-1,2)": (0, 1, 1, 1, 1, 0),
            "(0,-2,1,-0,2,-1)": (0, 1, 1, 0, 0, 0),
            "(0,-1,-2,-0,1,2)": (1, 1, 1, 0, 1, 1),
            "(0,-2,-1,-0,2,1)": (1, 1, 0, 0, 1, 0),
        }
        cols = [
            (chmod.ZERO, chmod.NEG_ZERO, chmod.letter(1)),
            (chmod.ZERO, chmod.NEG_ZERO, chmod.letter(2)),
            (chmod.ZERO, chmod.letter(1), chmod.letter(2)),
            (chmod.ZERO, chmod.letter(1), chmod.letter(-2)),
            (chmod.ZERO, chmod.letter(-1), chmod.letter(2)),
            (chmod.ZERO, chmod.letter(-1), chmod.letter(-2)),
        ]
        mismatch = None
        for word, expected in table_rows.items():
            got = tuple(chmod.evaluate_y(*c, chmod.chamber_from_str(word)) for c in cols)
            if got != expected and mismatch is None:
                mismatch = f"row {word} evaluates to {got}, published {expected}"
        rec.record(
            "indicator-table",
            "published-indicator-values-on-rank-2-chambers",
            mismatch is None,
            mismatch or "the 8 x 6 table of indicator values reproduces exactly",
        )

    if n <= 3:
        count, failure = _cyclic_relation_sweep(n)
        rec.record(
            "cyclic-relations-pointwise",
            "cyclic-indicator-relations-vanish-pointwise",
            failure is None,
            failure or f"{count} relation instances vanish on all {len(chams)} chambers",
        )
        count, failure = _function_ring_relation_sweep(n)
        rec.record(
            "function-ring-relations-pointwise",
            "function-ring-relations-vanish-pointwise",
            failure is None,
            failure or f"{count} relation instances vanish on all {len(chams)} chambers",
        )

    mat, rank = chmod.evaluation_matrix(n)
    rows, cols = mat.shape
    ok = rank == rows == cols == group_order(n)
    rec.record(
        "evaluation-matrix-rank",
        "basis-monomials-evaluate-to-full-rank",
        ok,
        f"rank {rank} of the {rows} x {cols} evaluation matrix is "
        + ("full" if ok else f"not the group order {group_order(n)}"),
    )

    base = chmod.base_chamber(n)
    stab = set(chmod.chamber_stabilizer(n, base))
    cyc = set(cyclic_subgroup(chmod.base_chamber_cycler(n)))
    if stab != cyc:
        g = min(stab ^ cyc)
        where = ("stabilizer", "cyclic group") if g in stab else ("cyclic group", "stabilizer")
        failure = f"({perm_to_str(g)}) is in the {where[0]} but not the {where[1]}"
    elif len(stab) != 2 * (n + 1):
        failure = f"stabilizer has order {len(stab)}, not {2 * (n + 1)}"
    else:
        failure = None
    rec.record(
        "base-chamber-stabilizer",
        "stabilizer-is-coxeter-cyclic-group",
        failure is None,
        failure
        or f"stabilizer of the base chamber is the order-{2 * (n + 1)} cyclic group "
        "of the letter cycle",
    )

    group = list(all_signed_perms(n))
    orbit = {}
    for s in group:
        lifted = tuple([1] + [x + 1 if x > 0 else x - 1 for x in s])
        img = chmod.chamber_action(lifted, base)
        orbit[img] = orbit.get(img, 0) + 1
    repeated = next((ch for ch, v in orbit.items() if v > 1), None)
    if repeated is not None:
        failure = (
            f"chamber {chmod.chamber_to_str(repeated)} is reached by {orbit[repeated]} elements"
        )
    elif len(orbit) != group_order(n):
        failure = f"the orbit has {len(orbit)} chambers, not {group_order(n)}"
    else:
        failure = None
    rec.record(
        "marked-point-action-simply-transitive",
        "subgroup-fixing-marked-point-acts-simply-transitively",
        failure is None,
        failure or "the subgroup fixing the marked letter acts simply transitively on chambers",
    )


_SUITE_FUNCS = {
    "idempotents": _suite_idempotents,
    "tau": _suite_tau,
    "characters": _suite_characters,
    "tables-b2": _suite_tables_b2,
    "hilbert": _suite_hilbert,
    "main-iso": _suite_main_iso,
    "recursion": _suite_recursion,
    "ungraded": _suite_ungraded,
    "gn1": _suite_gn1,
    "bigrading": _suite_bigrading,
    "equivariant": _suite_equivariant,
    "chambers": _suite_chambers,
}


def run_suite(suite: str, n: int) -> SuiteReport:
    """Run one named suite at rank n.  Raises SuiteUsageError (a ValueError)
    for an unknown suite, for n outside the suite's bounds, and for ``all``
    at n < 1; ``all`` clamps n into each constituent's bounds."""
    if suite == "all":
        if n < 1:
            raise SuiteUsageError(f"suite 'all' supports n >= 1; refusing n={n}")
        start = time.perf_counter()
        report = SuiteReport("all", n)
        for name in SUITE_BOUNDS:
            lo, hi = SUITE_BOUNDS[name]
            bounded = min(max(n, lo), hi)
            sub = run_suite(name, bounded)
            for c in sub.checks:
                report.checks.append(
                    Check(f"{name}/{c.id}", c.anchor, c.status, c.witness)
                )
        report.elapsed_ms = int((time.perf_counter() - start) * 1000)
        return report
    if suite not in _SUITE_FUNCS:
        raise SuiteUsageError(f"unknown suite {suite!r}")
    lo, hi = SUITE_BOUNDS[suite]
    if not lo <= n <= hi:
        raise SuiteUsageError(
            f"suite {suite!r} supports n in {lo}..{hi}; refusing n={n}"
        )
    start = time.perf_counter()
    rec = _Recorder()
    _SUITE_FUNCS[suite](n, rec)
    report = SuiteReport(suite, n, rec.checks)
    report.elapsed_ms = int((time.perf_counter() - start) * 1000)
    return report
