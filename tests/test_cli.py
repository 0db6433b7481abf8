import json
import os
import subprocess
import sys

import pytest

import hyperoct
from hyperoct import cache
from hyperoct.cli import main
from hyperoct.suites import SUITE_BOUNDS, SuiteUsageError, run_suite


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


def test_reports_deterministic_with_cold_and_warm_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    from hyperoct import characters

    characters.character_table.cache_clear()
    cold = run_suite("characters", 3).to_json()
    characters.character_table.cache_clear()
    assert (tmp_path / "chartable-v1-n3.json").exists()
    warm = run_suite("characters", 3).to_json()
    assert _strip_elapsed(cold) == _strip_elapsed(warm)
    characters.character_table.cache_clear()


def test_poisoned_cache_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    from hyperoct import characters

    entry = tmp_path / "chartable-v1-n2.json"
    entry.write_text("{ not json }")
    characters.character_table.cache_clear()
    report = run_suite("characters", 2)
    assert report.passed
    json.loads(entry.read_text())  # rebuilt and valid again
    characters.character_table.cache_clear()


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
