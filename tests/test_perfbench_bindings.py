"""The benchmark's span tracer (perfbench/tracer.py) wraps package functions
and methods by name and raises when one of them is gone, or, for an
``lru_cache`` function, when it is called; this runs ``verify all`` under
it, so that a refactor dropping a traced name, or bypassing one the
character metrics read, fails here, not in a benchmark run."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs_and_runs(tmp_path):
    env = dict(os.environ)
    env.pop("HYPEROCT_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    spans = tmp_path / "spans.pkl"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--spans", str(spans),
         "--", "verify", "all", "--n", "2", "--format", "json"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with open(spans, "rb") as fh:
        traced = pickle.load(fh)
    counters = traced["counters"]
    assert counters["rings.get_ring.builds"] > 0
    assert counters["ringreps.diagonal_coefficients.builds"] > 0
    # the benchmark's character metrics read these spans; a run that no
    # longer calls them through the traced names would report them as 0
    assert {
        "algebra.right_ideal_character",
        "characters.induce_character",
        "characters.rho_character",
    } <= set(traced["names"])
    # the kernel metrics read the convolution spans under their products: a
    # run that multiplies without kernels.convolve_dense would report them
    # as zeros
    recorded = {traced["names"][i] for i in traced["name"]}
    assert "algebra.mul" in recorded
    assert any(name.startswith("kernels.") for name in recorded)
