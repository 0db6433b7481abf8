import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperoct
from hyperoct import cache
from hyperoct.cli import main
from hyperoct.permutations import signed_partition_to_str
from hyperoct.suites import SUITE_BOUNDS, SuiteUsageError, run_suite

GOLDEN_ALL_N4 = Path(__file__).parent / "data" / "verify_all_n4.json"


def _strip_elapsed(report_json):
    obj = json.loads(report_json)
    obj.pop("elapsed_ms")
    return obj


def test_run_suite_unknown_name():
    with pytest.raises(SuiteUsageError):
        run_suite("nope", 2)


def test_run_suite_out_of_bounds():
    with pytest.raises(SuiteUsageError):
        run_suite("idempotents", 9)


def test_cli_pass_and_json_schema(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "hilbert", "--n", "2", "--format", "json", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert set(obj) == {"suite", "n", "checks", "elapsed_ms"}
    assert obj["suite"] == "hilbert" and obj["n"] == 2
    for check in obj["checks"]:
        assert set(check) == {"id", "anchor", "status", "witness"}
        assert check["status"] == "pass"


def test_cli_usage_error_exit_code(capsys):
    assert main(["verify", "hilbert", "--n", "7"]) == 2
    err = capsys.readouterr().err
    assert "refusing" in err


def test_cli_unknown_suite_exits_two():
    src = os.path.dirname(os.path.dirname(hyperoct.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "hyperoct.cli", "verify", "bogus", "--n", "2"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("preset", [None, "2"])
def test_cli_process_runs_blas_on_one_thread_unless_told(preset):
    # importing the CLI loads numpy; with no thread variable set it must not
    # start OpenBLAS's worker, and a variable the user set is kept
    src = os.path.dirname(os.path.dirname(hyperoct.__file__))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = (
        "import os, hyperoct.cli; "
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    tasks, value = proc.stdout.split()
    assert value == (preset or "1")
    if preset is None:
        assert tasks == "1"


def test_cli_import_after_numpy_leaves_the_blas_variable_unset():
    # once numpy is loaded the variable would take no effect, and would
    # only pass on to the importing process's children
    src = os.path.dirname(os.path.dirname(hyperoct.__file__))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = "import numpy, os, hyperoct.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["None"]


def test_verify_all_does_not_import_numpy_ma():
    # numpy.ma comes in with 1-D np.unique on integers; no check needs it,
    # and the import would show in every run's start-up time and memory
    src = os.path.dirname(os.path.dirname(hyperoct.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = (
        "import sys; from hyperoct.cli import main; "
        "code = main(['verify', 'all', '--n', '2']); "
        "print(code, 'numpy.ma' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


def test_cli_failure_exit_code(monkeypatch):
    from hyperoct.suites import Check, SuiteReport

    def fake(suite, n):
        return SuiteReport(suite, n, [Check("x", "y", "fail", "counterexample")])

    monkeypatch.setattr("hyperoct.cli.run_suite", fake)
    assert main(["verify", "hilbert", "--n", "2"]) == 1


def test_cli_internal_error_exit_code(monkeypatch, capsys):
    def broken(suite, n):
        raise AssertionError("evaluation matrix rank 7 != 8")

    monkeypatch.setattr("hyperoct.cli.run_suite", broken)
    assert main(["verify", "hilbert", "--n", "2"]) == 3
    assert "AssertionError: evaluation matrix rank" in capsys.readouterr().err


def test_verify_all_report_matches_golden_bytes():
    # every id, anchor, status and witness of `verify all --n 4`, byte for
    # byte; only elapsed_ms may differ between runs
    obj = _strip_elapsed(run_suite("all", 4).to_json())
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == GOLDEN_ALL_N4.read_text()


def test_reports_deterministic_with_cold_and_warm_cache(tmp_path, monkeypatch):
    # the benchmark's warm gate: every ring the warm run builds loads its
    # rewrite table from the cache, one load per build, and nothing is stored
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    from hyperoct import rings, ringreps

    def run_fresh():
        for fn in (rings.get_ring, ringreps.diagonal_coefficients, ringreps.type_buckets):
            fn.cache_clear()
        return run_suite("all", 3).to_json()

    cold = run_fresh()
    assert (tmp_path / "rewrite-v2-Z3-n3.json").exists()
    stored = _counting_stores(monkeypatch)
    loads = _counting_loads(monkeypatch)
    warm = run_fresh()
    builds = rings.get_ring.cache_info().misses
    assert builds > 0 and stored == []
    assert all(hit and key.startswith("rewrite-") for key, hit in loads)
    assert len(loads) == builds
    assert _strip_elapsed(cold) == _strip_elapsed(warm)
    rings.get_ring.cache_clear()


def test_poisoned_cache_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    from hyperoct import rings

    entry = tmp_path / "rewrite-v2-Z3-n2.json"
    entry.write_text("{ not json }")
    rings.get_ring.cache_clear()
    report = run_suite("hilbert", 2)
    assert report.passed
    json.loads(entry.read_text())  # rebuilt and valid again
    rings.get_ring.cache_clear()


def _json_report(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


def test_inexact_induction_product_fails_integrality(monkeypatch, capsys):
    # the identity class of B_2 given size 3 instead of 1 makes the
    # induction product building chi^(1|1) divide 8 by 12 there; the table
    # is never built, and the suite records that as a failed check instead
    # of an internal error
    from hyperoct import characters

    honest = characters._class_sizes
    skewed_class = ((1, 1), ())
    position = characters._class_positions(2)[skewed_class]

    def skewed(n):
        sizes = honest(n)
        if n != 2:
            return sizes
        return sizes[:position] + (sizes[position] + 2,) + sizes[position + 1 :]

    monkeypatch.setattr(characters, "_class_sizes", skewed)
    characters.character_table.cache_clear()
    try:
        code = main(["verify", "characters", "--n", "2", "--format", "json"])
    finally:
        characters.character_table.cache_clear()
    assert code == 1
    checks = {c["id"]: c for c in _json_report(capsys)["checks"]}
    assert checks["integrality"]["status"] == "fail"
    assert signed_partition_to_str(skewed_class) in checks["integrality"]["witness"]


@pytest.mark.parametrize(
    "suite, check_id",
    [
        ("main-iso", "partition-idempotent-ideals-match-type-pieces"),
        ("gn1", "top-negative-type-character"),
    ],
)
def test_irrational_induced_value_fails_the_check(monkeypatch, capsys, suite, check_id):
    # on the Coxeter cyclic group {1, c, c^2, c^3} of B_2 the exponent 1 on
    # c alone is no character: its induced value on the class of c is
    # irrational.  Nothing here is lru_cached, so no cache is poisoned.
    from hyperoct import characters, suites
    from hyperoct.groupdata import get_group

    honest = suites.rho_character
    cox = characters.coxeter_element(2)

    def broken(lam):
        if lam != ((), (2,)):
            return honest(lam)
        index = get_group(2).index
        members = np.array([index[g] for g in characters.cyclic_subgroup(cox)])
        return 4, members, (members == index[cox]).astype(np.intp)

    monkeypatch.setattr(suites, "rho_character", broken)
    assert main(["verify", suite, "--n", "2", "--format", "json"]) == 1
    checks = {c["id"]: c for c in _json_report(capsys)["checks"]}
    assert checks[check_id]["status"] == "fail"
    assert "irrational value at class" in checks[check_id]["witness"]


def test_inexact_coset_formula_fails_the_lifted_total(monkeypatch, capsys):
    # one more on the centralizer order of the Coxeter class of B_3 makes
    # the induction formula's quotient there 2 * 7 / 6; ungraded records
    # the failed check with the class named instead of exiting on an
    # internal error
    from hyperoct import characters

    honest = characters.centralizer_order
    cox = ((), (3,))
    monkeypatch.setattr(
        characters, "centralizer_order", lambda lam: honest(lam) + (lam == cox)
    )
    assert main(["verify", "ungraded", "--n", "2", "--format", "json"]) == 1
    checks = {c["id"]: c for c in _json_report(capsys)["checks"]}
    assert checks["total-is-regular"]["status"] == "pass"
    failed = checks["lifted-total-is-coset-representation"]
    assert failed["status"] == "fail"
    assert f"at class {signed_partition_to_str(cox)} is not an integer" in failed["witness"]


def test_non_character_graded_piece_fails_the_decomposition(monkeypatch, capsys):
    # one more on the Z3 degree-0 character of B_2 at the class (2|) gives
    # it the non-integral multiplicity 5/4 at the trivial character;
    # decompose rejects it, and main-iso records the failed check with
    # that reason instead of exiting on an internal error
    from hyperoct import characters, suites

    honest = suites.graded_character
    position = characters._class_positions(2)[((2,), ())]

    def skewed(n, space):
        pieces = honest(n, space)
        if (n, space) != (2, "Z3"):
            return pieces
        values = list(pieces[0].values)
        values[position] += 1
        return [characters.ClassFunction(2, tuple(values))] + pieces[1:]

    monkeypatch.setattr(suites, "graded_character", skewed)
    assert main(["verify", "main-iso", "--n", "2", "--format", "json"]) == 1
    checks = {c["id"]: c for c in _json_report(capsys)["checks"]}
    check = checks["rank-2-graded-decomposition"]
    assert check["status"] == "fail"
    assert "non-integral or negative multiplicity 5/4" in check["witness"]


def test_unwritable_cache_proceeds_with_warning(tmp_path, monkeypatch, capsys):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    monkeypatch.setenv(cache.ENV_VAR, str(target))
    assert cache.store("anything", {"x": 1}) is False
    assert "cache unavailable" in capsys.readouterr().err
    assert cache.load("anything") is None


def test_cache_disabled_without_env(monkeypatch):
    monkeypatch.delenv(cache.ENV_VAR, raising=False)
    assert cache.store("key", {"x": 1}) is False
    assert cache.load("key") is None


def _counting_stores(monkeypatch) -> list:
    stored = []
    real_store = cache.store

    def store(key, obj):
        stored.append(key)
        return real_store(key, obj)

    monkeypatch.setattr(cache, "store", store)
    return stored


def _counting_loads(monkeypatch) -> list:
    """(key, hit) per ``cache.load`` call."""
    loads = []
    real_load = cache.load

    def load(key):
        obj = real_load(key)
        loads.append((key, obj is not None))
        return obj

    monkeypatch.setattr(cache, "load", load)
    return loads


def test_rewrite_table_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    from hyperoct.rings import PresentedRing

    fresh = PresentedRing("Z3", 2)
    # bits z1 = 1, z2 = 2, z12+ = 4, z12- = 8; one entry per rule, the
    # same-hand pair's mask first: z2*z12+ = z1*z12+ - z1*z2, and so on
    assert json.loads((tmp_path / "rewrite-v2-Z3-n2.json").read_text()) == {
        "space": "Z3",
        "rank": 2,
        "table": [[6, [[3, -1], [5, 1]]], [10, [[3, -1], [9, -1]]], [12, [[5, -1], [9, -1]]]],
    }
    stored = _counting_stores(monkeypatch)
    cached = PresentedRing("Z3", 2)
    assert stored == []  # a certified load stores nothing
    assert cached.rules == fresh.rules
    z2, z12 = cached.generator((2,)), cached.generator((1, 2, 1))
    z1 = cached.generator((1,))
    assert z2 * z12 == z1 * z12 - z1 * z2


def test_rank_ten_ring_builds_and_reloads_from_cache(tmp_path, monkeypatch):
    # rank 10 is the first with two-digit indices
    from hyperoct.rings import PresentedRing

    monkeypatch.delenv(cache.ENV_VAR, raising=False)
    uncached = PresentedRing("Z3", 10)
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    fresh = PresentedRing("Z3", 10)
    assert (tmp_path / "rewrite-v2-Z3-n10.json").exists()
    stored = _counting_stores(monkeypatch)
    loaded = PresentedRing("Z3", 10)
    assert stored == []
    assert loaded.rules == fresh.rules == uncached.rules
    z9, z10 = loaded.generator((9,)), loaded.generator((10,))
    z = loaded.generator((9, 10, 1))
    assert z10 * z == z9 * z - z9 * z10


def _first_rule(table):
    return table["table"][0]


def _wrong_hand_key(table, tmp_path):
    table["table"].append([0b11, []])  # z1 and z2, two hands


def _duplicated_key(table, tmp_path):
    table["table"].append(_first_rule(table))


def _mask_out_of_range(table, tmp_path):
    _first_rule(table)[1][0][0] = 1 << 9  # Z3 has 9 generators at rank 3


def _non_int_coefficient(table, tmp_path):
    term = _first_rule(table)[1][0]
    term[1] = float(term[1])


def _other_ring(table, tmp_path):
    from hyperoct.rings import PresentedRing

    PresentedRing("Z1", 3)
    table.clear()
    table.update(json.loads((tmp_path / "rewrite-v2-Z1-n3.json").read_text()))


@pytest.mark.parametrize(
    "corrupt",
    [_wrong_hand_key, _duplicated_key, _mask_out_of_range, _non_int_coefficient, _other_ring],
)
def test_malformed_rewrite_table_is_rebuilt(corrupt, tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    from hyperoct.rings import PresentedRing

    PresentedRing("Z3", 3)
    entry = tmp_path / "rewrite-v2-Z3-n3.json"
    good = json.loads(entry.read_text())
    table = json.loads(entry.read_text())
    corrupt(table, tmp_path)
    entry.write_text(json.dumps(table))
    stored = _counting_stores(monkeypatch)
    verified = []
    honest = PresentedRing.verify_relations

    def verify_relations(self):
        verified.append(self.space)
        return honest(self)

    monkeypatch.setattr(PresentedRing, "verify_relations", verify_relations)
    PresentedRing("Z3", 3)
    # rejected before any relation is reduced, then rebuilt and stored
    assert stored == ["rewrite-v2-Z3-n3"] and verified == []
    assert json.loads(entry.read_text()) == good


def test_poisoned_rewrite_table_is_recertified(tmp_path, monkeypatch):
    # a well-formed table with one wrong coefficient passes every format
    # and completeness check; only reducing the relations again catches it
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    from hyperoct.rings import PresentedRing

    PresentedRing("Z3", 3)
    entry = tmp_path / "rewrite-v2-Z3-n3.json"
    good = entry.read_text()
    table = json.loads(good)
    term = _first_rule(table)[1][0]
    term[1] = -term[1]
    entry.write_text(json.dumps(table))
    stored = _counting_stores(monkeypatch)
    loaded = PresentedRing("Z3", 3)
    assert stored == ["rewrite-v2-Z3-n3"]
    monkeypatch.delenv(cache.ENV_VAR)
    assert loaded.rules == PresentedRing("Z3", 3).rules
    assert json.loads(entry.read_text()) == json.loads(good)


@pytest.mark.parametrize("k", [0, -1])
def test_all_suite_rejects_rank_below_one(k, capsys):
    with pytest.raises(SuiteUsageError):
        run_suite("all", k)
    assert main(["verify", "all", "--n", str(k)]) == 2
    assert "n >= 1" in capsys.readouterr().err


def test_all_suite_clamps_to_bounds():
    report = run_suite("all", 1)
    names = {c.id.split("/")[0] for c in report.checks}
    assert names == set(SUITE_BOUNDS)
    assert report.passed


def test_character_suite_names_the_first_failing_pairs(monkeypatch):
    # one wrong entry of the B_2 table breaks both orthogonality relations;
    # the matrix checks name the same first pairs, in row-major order, as
    # the Fraction inner products and column sums do
    from hyperoct import suites
    from hyperoct.characters import ClassFunction, character_table, inner_product
    from hyperoct.permutations import centralizer_order, signed_partitions

    n, lam = 2, ((1,), (1,))
    classes = signed_partitions(n)
    table = dict(character_table(n))
    values = list(table[lam].values)
    values[classes.index(((1,), (1,)))] += 1
    table[lam] = ClassFunction(n, tuple(values))
    monkeypatch.setattr(suites, "character_table", lambda k: table)
    checks = {c.id: c for c in run_suite("characters", n).checks}
    lams = list(table)
    row = next(
        (a, b) for a in lams for b in lams if inner_product(table[a], table[b]) != (a == b)
    )
    col = next(
        (c, d)
        for c in classes
        for d in classes
        if sum(table[l][c] * table[l][d] for l in lams)
        != (centralizer_order(c) if c == d else 0)
    )
    assert checks["row-orthonormality"].status == "fail"
    assert checks["row-orthonormality"].witness == f"failure at {row}"
    assert checks["column-orthogonality"].status == "fail"
    assert checks["column-orthogonality"].witness == f"failure at {col}"


def test_cli_unwritable_out_prints_report_and_exits_two(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "r.json"
    assert main(["verify", "tau", "--n", "2", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("suite tau (n=2)")
    assert captured.err.startswith(f"hyperoct: cannot write {target}: ")


def _wrong_b2_entry(monkeypatch):
    from hyperoct import suites
    from hyperoct.characters import ClassFunction
    from hyperoct.permutations import signed_partitions

    honest = suites.character_table
    table = dict(honest(2))
    lam = ((1,), (1,))
    values = list(table[lam].values)
    values[signed_partitions(2).index(lam)] += 1
    table[lam] = ClassFunction(2, tuple(values))
    monkeypatch.setattr(suites, "character_table", lambda k: table if k == 2 else honest(k))
    return {"character-table-b2": "chi^(1|1) at class (1|1) is 1, published 0"}


def _wrong_hilbert_series(monkeypatch):
    from hyperoct import suites

    monkeypatch.setattr(suites, "hilbert_coefficients", lambda n: [1, 4, 4])
    return {
        "total-dimension": "series at t=1 gives 9, not 2^2 2! = 8",
        "rank-2-series": "coefficients [1, 4, 4] != [1, 4, 3]",
        "bidegree-partition": "degree 2: bidegree dimensions sum to 3, degree count 4",
    }


def _non_orthogonal_g0(monkeypatch):
    from hyperoct import suites
    from hyperoct.algebra import AlgebraElement

    honest = suites.g_k
    monkeypatch.setattr(
        suites, "g_k", lambda n, k: AlgebraElement.unit(n) if k == 0 else honest(n, k)
    )
    # g_0 := 1 keeps every square, so the sum is what fails
    return {
        "positive-part-count-idempotents":
        "sum has 8 terms, so the trace lemma does not apply",
    }


def _non_idempotent_vazirani(monkeypatch):
    from hyperoct import suites

    honest = suites.vazirani_idempotent
    monkeypatch.setattr(
        suites,
        "vazirani_idempotent",
        lambda lam: 2 * honest(lam) if lam == ((1,), (1,)) else honest(lam),
    )
    return {
        "signed-partition-idempotents-square": "failures at ['(1|1)']",
        "signed-partition-idempotents-orthogonal":
        "(1|1) is not idempotent, so the trace lemma does not apply",
    }


def _flipped_z1_rule(monkeypatch):
    # the z1*z2 coefficient of the Z1 rule for z2*z12 goes from -1 to 1
    from hyperoct.rings import get_ring

    ring = get_ring("Z1", 2)
    table = {pair: dict(rhs) for pair, rhs in ring._table.items()}
    table[ring.mask_of(((2,), (1, 2, 1)))][ring.mask_of(((1,), (2,)))] *= -1
    monkeypatch.setattr(ring, "_table", table)
    return {
        "function-ring-associated-graded-is-graded-ring":
        "rule z2*z12: Z1 gives (1)*z2 + (1)*z1*z2 + (1)*z1*z12, "
        "Z3 gives (-1)*z1*z2 + (1)*z1*z12",
    }


def _perturbed_z1_image(monkeypatch):
    # the Z1 image of z1 under the Coxeter generator (2,1) gains a z12
    from hyperoct import rings

    honest = rings.PresentedRing.act_on_generator

    def perturbed(ring, sigma, g):
        image = honest(ring, sigma, g)
        if ring.space == "Z1" and sigma == (2, 1) and g == (1,):
            image = image + ring.generator((1, 2, 1))
        return image

    monkeypatch.setattr(rings.PresentedRing, "act_on_generator", perturbed)
    return {
        "function-ring-associated-graded-is-graded-ring":
        "image of z1 under (2,1): degree-1 part (1)*z2 + (1)*z12 in Z1, (1)*z2 in Z3",
    }


def _wrong_bidegree_dimension(monkeypatch):
    from hyperoct import suites

    honest = suites.bigraded_dimensions
    dims = dict(honest(2))
    dims[(1, 1)] += 1
    monkeypatch.setattr(suites, "bigraded_dimensions", lambda n: dims)
    return {"bidegree-from-type-sums": "bidegree (1, 1): type components sum to 2, dimension 3"}


def _short_stabilizer(monkeypatch):
    from hyperoct import chambers
    from hyperoct.permutations import perm_to_str

    honest = chambers.chamber_stabilizer
    missing = honest(2, chambers.base_chamber(2))[-1]
    monkeypatch.setattr(chambers, "chamber_stabilizer", lambda n, ch: honest(n, ch)[:-1])
    return {
        "base-chamber-stabilizer":
        f"({perm_to_str(missing)}) is in the cyclic group but not the stabilizer"
    }


def _duplicated_orbit_image(monkeypatch):
    from hyperoct import chambers

    honest = chambers.chamber_images

    def duplicated(sigmas, ch):
        # the second element of the orbit reaches the chamber of the first;
        # the stabilizer's elements, which may move the marked letter, keep
        # their images
        images = honest(sigmas, ch)
        if (sigmas[:, 0] == 1).all():
            images[1] = images[0]
        return images

    monkeypatch.setattr(chambers, "chamber_images", duplicated)
    return {
        "marked-point-action-simply-transitive":
        "chamber (0,1,2,-0,-1,-2) is reached by 2 elements",
    }


def _flipped_indicator(monkeypatch):
    from hyperoct import chambers

    honest = chambers.cyclic_indicators
    y = honest(2).copy()
    letters = (chambers.ZERO, chambers.letter(1), chambers.letter(2))
    at = [chambers.cyclic_letters(2).index(e) for e in letters]
    y[(*at, chambers.all_chambers(2).index(chambers.base_chamber(2)))] ^= True
    monkeypatch.setattr(chambers, "cyclic_indicators", lambda n: y if n == 2 else honest(n))
    return {
        "indicator-table": "row (0,1,2,-0,-1,-2) evaluates to (0, 0, 0, 1, 0, 1), "
        "published (0, 0, 1, 1, 0, 1)",
        "cyclic-relations-pointwise":
        "reversal relation fails at (0,1,2) on chamber (0,1,2,-0,-1,-2)",
        "function-ring-relations-pointwise":
        "negation relation fails at (2,1) on chamber (0,1,2,-0,-1,-2)",
    }


@pytest.mark.parametrize(
    "suite, inject, ids",
    [
        ("tables-b2", _wrong_b2_entry, ["character-table-b2"]),
        ("hilbert", _wrong_hilbert_series, ["total-dimension", "rank-2-series"]),
        ("bigrading", _wrong_hilbert_series, ["bidegree-partition"]),
        ("idempotents", _non_orthogonal_g0, ["positive-part-count-idempotents"]),
        ("bigrading", _wrong_bidegree_dimension, ["bidegree-from-type-sums"]),
        ("chambers", _short_stabilizer, ["base-chamber-stabilizer"]),
        (
            "chambers",
            _flipped_indicator,
            ["indicator-table", "cyclic-relations-pointwise", "function-ring-relations-pointwise"],
        ),
        ("chambers", _duplicated_orbit_image, ["marked-point-action-simply-transitive"]),
        (
            "idempotents",
            _non_idempotent_vazirani,
            ["signed-partition-idempotents-square", "signed-partition-idempotents-orthogonal"],
        ),
        ("main-iso", _flipped_z1_rule, ["function-ring-associated-graded-is-graded-ring"]),
        ("main-iso", _perturbed_z1_image, ["function-ring-associated-graded-is-graded-ring"]),
    ],
)
def test_failing_checks_name_their_first_mismatch(suite, inject, ids, monkeypatch):
    # the witness of a failed check names its first mismatch instead of
    # repeating the pass text
    witnesses = inject(monkeypatch)
    checks = {c.id: c for c in run_suite(suite, 2).checks}
    for check_id in ids:
        assert (checks[check_id].status, checks[check_id].witness) == (
            "fail",
            witnesses[check_id],
        )


def test_idempotents_suite_forms_no_off_diagonal_product(monkeypatch):
    # orthogonality follows from the squares and the sum by the trace lemma:
    # at n = 4 the suite's products are the 54 that build the 20 Vazirani
    # idempotents, their 20 squares and the 5 squares of g_0..g_4; the
    # pairwise sweep, which is no longer run, formed 400 more
    from hyperoct import algebra, kernels

    honest = kernels.convolve_dense
    calls = []

    def counted(*args):
        calls.append(None)
        return honest(*args)

    monkeypatch.setattr(kernels, "convolve_dense", counted)
    algebra.vazirani_idempotent.cache_clear()
    assert run_suite("idempotents", 4).passed
    assert len(calls) == 79
