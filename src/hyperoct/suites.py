"""Named verification suites: one per headline claim, run by the CLI.

Each suite produces a SuiteReport with one entry per check; a failing
check carries a serialized counterexample in its witness.  All checks are
exact and deterministic: characters are integer vectors (roots of unity
as integer exponents), and a character that cannot be computed exactly
(an inexact division, an irrational induced value) fails its check with
the error text as witness.  Rewrite tables honor the persistent cache.
The chambers suite's pointwise relation sweeps are boolean array checks
and run at every rank; only ungraded's lifted total keeps a size cutoff.
Its Coxeter coset module is the induction formula, with no group data.

Two checks rest on certificates instead of recomputation.  The
orthogonality of both idempotent families follows from their squares and
their sum by the trace lemma, so no off-diagonal product is formed.  The
main isomorphism's d = 1 side is ``rings.associated_graded_mismatch``:
the Z1 rule table cut to degree 2 is the Z3 table and the Z1 generator
images have the Z3 images as their degree-1 parts, so the graded pieces of
the function ring are those of Z3 and no Z1 trace runs.
"""

from __future__ import annotations

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
    coxeter_element,
    cyclic_permutation_character,
    cyclic_subgroup,
    decompose,
    induce_character,
    regular_character,
    rho_character,
    subgroup_character,
)
from .groupdata import element_rows
from .permutations import (
    centralizer_order,
    class_size,
    compose,
    group_order,
    longest_element,
    perm_to_str,
    signed_partition_to_str,
    signed_partitions,
)
from .ringreps import (
    bidegree,
    bigraded_dimensions,
    graded_character,
    type_character,
    type_buckets,
    type_dimension,
)
from .rings import associated_graded_mismatch, get_ring, hilbert_coefficients

SUITE_BOUNDS = {
    "idempotents": (1, 5),
    "tau": (1, 5),
    "characters": (1, 7),
    "tables-b2": (2, 2),
    "hilbert": (1, 6),
    "main-iso": (1, 5),
    "recursion": (2, 5),
    "ungraded": (1, 5),
    "gn1": (2, 5),
    "bigrading": (1, 6),
    "equivariant": (1, 7),
    "chambers": (1, 5),
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


def _total(elements, n: int) -> AlgebraElement:
    total = AlgebraElement.zero(n)
    for e in elements:
        total = total + e
    return total


def _trace_lemma_failure(not_idempotent: list[str], total: AlgebraElement) -> str | None:
    """Why the trace lemma does not make a family orthogonal, or None.

    In characteristic 0, idempotents e_1, ..., e_k of Q[B_n] that sum to 1
    are pairwise orthogonal: left multiplication by e_i is a projection of
    rank |B_n| e_i(1), so the ranks add up to |B_n|, Q[B_n] is the direct
    sum of the images e_i Q[B_n], and e_j = sum_i e_i e_j forces e_i e_j = 0
    for i != j (Curtis and Reiner, Methods of Representation Theory I,
    1981).  So no off-diagonal product is formed."""
    if not_idempotent:
        return f"{not_idempotent[0]} is not idempotent, so the trace lemma does not apply"
    if total != AlgebraElement.unit(total.n):
        return f"sum has {total.support_size()} terms, so the trace lemma does not apply"
    return None


def _suite_idempotents(n: int, rec: _Recorder):
    gs = {
        signed_partition_to_str(lam): vazirani_idempotent(lam)
        for lam in signed_partitions(n)
    }
    bad = [name for name, e in gs.items() if not e.is_idempotent()]
    rec.record(
        "signed-partition-idempotents-square",
        "orthogonal-idempotent-family-signed-partitions",
        not bad,
        f"{len(gs)} elements satisfy e*e = e" if not bad else f"failures at {bad}",
    )

    total = _total(gs.values(), n)
    failure = _trace_lemma_failure(bad, total)
    rec.record(
        "signed-partition-idempotents-orthogonal",
        "orthogonal-idempotent-family-signed-partitions",
        failure is None,
        failure
        or f"all {len(gs) * (len(gs) - 1)} ordered products vanish by the trace "
        f"lemma: {len(gs)} idempotents sum to the identity",
    )

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
    failure = _trace_lemma_failure(
        [f"g_{k}" for k, e in enumerate(gks) if not e.is_idempotent()], _total(gks, n)
    )
    rec.record(
        "positive-part-count-idempotents",
        "orthogonal-idempotent-family-by-positive-part-count",
        failure is None,
        failure
        or f"{n + 1} idempotents indexed by positive part count: complete, "
        "orthogonal by the trace lemma",
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
    try:
        bad = [
            k
            for k in range(n + 1)
            if right_ideal_character(g_k(n, n - k)) != z3[k]
        ]
        ok, witness = not bad, f"mismatch at degrees {bad}"
    except ArithmeticError as exc:
        ok, witness = False, str(exc)
    rec.record(
        "count-idempotent-ideals-match-graded-pieces",
        "main-isomorphism-ideals-vs-cohomology",
        ok,
        "for every k the ideal of g_(n-k) matches cohomological degree 2k; "
        "the degree-k graded piece of the function ring is that piece by "
        "function-ring-associated-graded-is-graded-ring"
        if ok
        else witness,
    )

    mismatch = associated_graded_mismatch(n)
    rec.record(
        "function-ring-associated-graded-is-graded-ring",
        "main-isomorphism-function-ring-associated-graded",
        mismatch is None,
        mismatch
        or "Z1 and Z3 share the nbc basis and rule keys, every Z1 rule cut to "
        "degree 2 is the Z3 rule, and every Z1 generator image under the Coxeter "
        "generators and the class representatives has the Z3 image as its "
        "degree-1 part",
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
        try:
            ok = total == cyclic_permutation_character(coxeter_element(n + 1))
            witness = _cf_str(total)
        except ArithmeticError as exc:
            ok, witness = False, str(exc)
        rec.record(
            "lifted-total-is-coset-representation",
            "lifted-ungraded-total-is-coxeter-coset-module",
            ok,
            "lifted sum equals the permutation character on cosets of a "
            "coxeter cyclic subgroup"
            if ok
            else witness,
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
    # eta -> w^(ambient/n), a primitive n-th root; -1 -> w^(ambient/2)
    eta = tuple(list(range(2, n + 1)) + [1])
    ambient = lcm(n, 2)
    try:
        ind1 = induce_character(rho_character(lam), n)
        ind2 = induce_character(
            subgroup_character(
                n, ambient, [(eta, ambient // n), (longest_element(n), ambient // 2)]
            ),
            n,
        )
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

    basis = get_ring("Z3", n).nbc_basis()
    buckets = type_buckets(n)
    bad = sorted(
        p
        for shape, positions in buckets.items()
        for p in positions
        if bidegree(basis[p]) != (n - len(shape[0]), len(shape[1]))
    )
    rec.record(
        "type-refines-bidegree",
        "type-components-partition-the-bigrading",
        not bad,
        "every basis monomial of bidegree (k, l) has n-k positive and l negative "
        "type blocks"
        if not bad
        else f"violation at {basis[bad[0]]}",
    )

    failure = None
    for (k, l), d in dims.items():
        total = sum(
            len(positions)
            for shape, positions in buckets.items()
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


def _sweep_failure(relation: str, bad: np.ndarray, n: int, fmt, *fixed) -> str | None:
    """Name the first true entry of ``bad``, whose last axis runs over the
    chambers, after the ``fixed`` indices, each formatted by ``fmt``; or None."""
    if not bad.any():
        return None
    *at, r = (int(x) for x in np.unravel_index(np.argmax(bad), bad.shape))
    labels = ",".join(map(fmt, (*fixed, *at)))
    ch = chmod.all_chambers(n)[r]
    return f"{relation} fails at ({labels}) on chamber {chmod.chamber_to_str(ch)}"


def _cyclic_relation_sweep(n: int) -> tuple[int, str | None]:
    """Check the reversal, antipode, support and four-letter relations on
    ``cyclic_indicators(n)``, a few leading letters at a time.  Returns the
    number of (relation, letters) instances and the first failing instance
    with its chamber, or None."""
    y = chmod.cyclic_indicators(n)
    t = np.arange(len(y))
    distinct = t[:, None] != t
    anti = t ^ 1  # the index of each letter's antipode

    def chunks():
        """(relation, leading letters, where it applies, where it holds)"""
        for i in t:
            yi = y[i]
            # y(i,j,k) = 1 - y(i,k,j) at distinct j, k other than i
            pairs = distinct & distinct[i][:, None] & distinct[i]
            yield "reversal relation", (i,), pairs, yi != yi.transpose(1, 0, 2)
            # y(-i,j,k) = y(i,-j,-k) where j, k are not -i either
            away = distinct[i] & distinct[anti[i]]
            yield "antipode relation", (i,), distinct & away[:, None] & away, (
                y[anti[i]] == yi[anti][:, anti]
            )
            for j in t[distinct[i]]:
                # a = y(i,j,k), b = y(i,j,l), c = y(i,k,l), d = y(j,k,l) at
                # distinct k, l: support ac(1-b) + (1-a)(1-c)b = 0 (first: on
                # 0/1 values its failures fail four-letter too) and
                # four-letter a - b + c - d = 0 (equal XORs and ANDs)
                rest = pairs & distinct[j][:, None] & distinct[j]
                a, b, c, d = yi[j][:, None], yi[j], yi, y[j]
                yield "support relation", (i, j), rest, ~(a & c & ~b | ~a & ~c & b)
                yield "four-letter relation", (i, j), rest, (
                    ((a ^ c) == (b ^ d)) & ((a & c) == (b & d))
                )

    names = [chmod.letter_to_str(e) for e in chmod.cyclic_letters(n)]
    count = 0
    for relation, fixed, valid, holds in chunks():
        failure = _sweep_failure(relation, valid[..., None] & ~holds, n, names.__getitem__, *fixed)
        if failure:
            return count, failure
        count += int(valid.sum())
    return count, None


def _function_ring_relation_sweep(n: int) -> tuple[int, str | None]:
    """The d = 1 ring's own relation instances on every chamber: at each
    label of ``relation_labels`` its canonical combination of generator
    columns equals its indicator (the negation relations), and at each
    triple xy(1 - z) + (1 - x)(1 - y)z vanishes on the indicators.
    Returns the instance count and the first failure, or None."""
    ring = get_ring("Z1", n)
    labels, triples = ring.relation_labels()
    gens = chmod.generator_columns(n, ring.gens)
    indicator = chmod.generator_columns(n, list(labels))
    for count, (label, x) in enumerate(labels.items()):
        value = sum(
            c * np.logical_and.reduce([gens[g] for g in m], initial=True)
            for m, c in x.terms.items()
        )
        failure = _sweep_failure("negation relation", value != indicator[label], n, str, *label)
        if failure:
            return count, failure
    x, y, z = (np.array([indicator[t[k]] for t in triples], dtype=bool) for k in range(3))

    def text(t):  # inside the witness's parentheses: "(a,b),(b,c),(a,c)"
        return "),(".join(",".join(map(str, label)) for label in triples[t])

    failure = _sweep_failure("triple relation", x & y & ~z | ~x & ~y & z, n, text)
    return len(labels) + len(triples), failure


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
        labels = [(1,), (2,), (1, 2), (1, -2), (-1, 2), (-1, -2)]
        columns = chmod.generator_columns(2, labels)
        mismatch = None
        for word, expected in table_rows.items():
            r = chams.index(chmod.chamber_from_str(word))
            got = tuple(int(columns[g][r]) for g in labels)
            if got != expected and mismatch is None:
                mismatch = f"row {word} evaluates to {got}, published {expected}"
        rec.record(
            "indicator-table",
            "published-indicator-values-on-rank-2-chambers",
            mismatch is None,
            mismatch or "the 8 x 6 table of indicator values reproduces exactly",
        )

    sweeps = {
        "cyclic-relations-pointwise": ("cyclic-indicator", _cyclic_relation_sweep),
        "function-ring-relations-pointwise": ("function-ring", _function_ring_relation_sweep),
    }
    for check_id, (anchor, sweep) in sweeps.items():
        count, failure = sweep(n)
        rec.record(
            check_id,
            f"{anchor}-relations-vanish-pointwise",
            failure is None,
            failure or f"{count} relation instances vanish on all {len(chams)} chambers",
        )

    rows, rank = chmod.evaluation_matrix(n)
    cols = len(rows)  # one packed row per nbc monomial
    ok = rank == len(chams) == cols == group_order(n)
    rec.record(
        "evaluation-matrix-rank",
        "basis-monomials-evaluate-to-full-rank",
        ok,
        f"rank {rank} of the {len(chams)} x {cols} evaluation matrix is "
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

    # B_n lifted to the elements of B_{n+1} fixing the marked letter:
    # s becomes (1, *map(letter, s)), row by row
    signed = element_rows(n)
    lifted = np.hstack([np.ones((len(signed), 1), dtype=np.int8), signed + np.sign(signed)])
    orbit, first, counts = np.unique(
        chmod.chamber_images(lifted, base), axis=0, return_index=True, return_counts=True
    )
    if (counts > 1).any():
        # the repeated chamber reached first in the order of get_group(n)
        k = np.argmin(np.where(counts > 1, first, len(lifted)))
        repeated = chmod.chamber_to_str(tuple(orbit[k].tolist()))
        failure = f"chamber {repeated} is reached by {counts[k]} elements"
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
