import json
import os
import subprocess
import sys
from pathlib import Path

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
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    from hyperoct import rings

    rings.get_ring.cache_clear()
    cold = run_suite("hilbert", 3).to_json()
    assert (tmp_path / "rewrite-v1-Z3-n3.json").exists()
    rings.get_ring.cache_clear()
    stored = _counting_stores(monkeypatch)
    warm = run_suite("hilbert", 3).to_json()
    assert stored == []  # every ring of the warm run loaded from the cache
    assert _strip_elapsed(cold) == _strip_elapsed(warm)
    rings.get_ring.cache_clear()


def test_poisoned_cache_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    from hyperoct import rings

    entry = tmp_path / "rewrite-v1-Z3-n2.json"
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

    honest = suites.rho_character
    cox = characters.coxeter_element(2)

    def broken(lam):
        if lam != ((), (2,)):
            return honest(lam)
        exponents = {g: 0 for g in characters.cyclic_subgroup(cox)}
        exponents[cox] = 1
        return 4, exponents

    monkeypatch.setattr(suites, "rho_character", broken)
    assert main(["verify", suite, "--n", "2", "--format", "json"]) == 1
    checks = {c["id"]: c for c in _json_report(capsys)["checks"]}
    assert checks[check_id]["status"] == "fail"
    assert "irrational value at class" in checks[check_id]["witness"]


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


def test_rewrite_table_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    from hyperoct.rings import PresentedRing

    fresh = PresentedRing("Z3", 2)
    assert (tmp_path / "rewrite-v1-Z3-n2.json").exists()
    stored = _counting_stores(monkeypatch)
    cached = PresentedRing("Z3", 2)
    assert stored == []  # a certified load stores nothing
    assert cached.rules == fresh.rules
    z2, z12 = cached.generator((2,)), cached.generator((1, 2, 1))
    z1 = cached.generator((1,))
    assert z2 * z12 == z1 * z12 - z1 * z2


def test_poisoned_rewrite_table_is_recertified(tmp_path, monkeypatch):
    # a well-formed table with one wrong coefficient passes every format
    # and completeness check; only reducing the relations again catches it
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    from hyperoct.rings import PresentedRing

    PresentedRing("Z3", 3)
    entry = tmp_path / "rewrite-v1-Z3-n3.json"
    good = entry.read_text()
    table = json.loads(good)
    for key in ("z2*z12+", "z12+*z2"):  # both orders, so they still agree
        term = table["rules"][key][0]
        num, den = term["coeff"].split("/")
        term["coeff"] = f"{-int(num)}/{den}"
    entry.write_text(json.dumps(table))
    stored = _counting_stores(monkeypatch)
    loaded = PresentedRing("Z3", 3)
    assert stored == ["rewrite-v1-Z3-n3"]
    monkeypatch.delenv(cache.ENV_VAR)
    assert loaded.rules == PresentedRing("Z3", 3).rules
    assert json.loads(entry.read_text()) == json.loads(good)


def test_rewrite_table_with_disagreeing_pair_orders_is_rebuilt(tmp_path, monkeypatch):
    # the table stores each rule under both generator orders; a file whose
    # two copies differ is rejected before any relation is reduced
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    from hyperoct.rings import PresentedRing

    PresentedRing("Z3", 3)
    entry = tmp_path / "rewrite-v1-Z3-n3.json"
    good = entry.read_text()
    table = json.loads(good)
    term = table["rules"]["z12+*z2"][0]
    num, den = term["coeff"].split("/")
    term["coeff"] = f"{-int(num)}/{den}"
    entry.write_text(json.dumps(table))
    stored = _counting_stores(monkeypatch)
    verified = []
    honest = PresentedRing.verify_relations

    def verify_relations(self):
        verified.append(self.space)
        return honest(self)

    monkeypatch.setattr(PresentedRing, "verify_relations", verify_relations)
    PresentedRing("Z3", 3)
    assert stored == ["rewrite-v1-Z3-n3"] and verified == []
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
    return {"positive-part-count-idempotents": "g_0 * g_1 != 0"}


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


@pytest.mark.parametrize(
    "suite, inject, ids",
    [
        ("tables-b2", _wrong_b2_entry, ["character-table-b2"]),
        ("hilbert", _wrong_hilbert_series, ["total-dimension", "rank-2-series"]),
        ("bigrading", _wrong_hilbert_series, ["bidegree-partition"]),
        ("idempotents", _non_orthogonal_g0, ["positive-part-count-idempotents"]),
        ("bigrading", _wrong_bidegree_dimension, ["bidegree-from-type-sums"]),
        ("chambers", _short_stabilizer, ["base-chamber-stabilizer"]),
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
