"""The hyperoct benchmark: end-to-end metrics of three workloads, or
per-layer metrics from one traced run of a workload.

    python3 perfbench/run.py --workload verify-all-cold --seed 1 --seconds 25 --trace 0

Run it from a checkout; it imports the package from ``src/`` only and
fails when that is missing.  Every program run is a child process, one at
a time, with ``HYPEROCT_*`` and ``PYTHONDONTWRITEBYTECODE`` removed from
its environment, a fixed ``PYTHONHASHSEED`` and, where a cache is used, a
cache directory of its own under ``.perfbench_work/``, which is deleted at
the end.

Workloads, and why each exists:

verify-all-cold
    ``hyperoct verify all --n 4 --format json`` in a fresh process without
    a cache: the run users make, and every module runs in it.  ``--n 4``
    and not 5, because ``all`` clamps each suite to its own bound, so
    ``--n 5`` changes meaning when a bound is raised.
verify-all-warm
    The same command reading a cache that untimed runs filled during
    set-up: rule completion and character tables come from the cache, so
    a change that makes builds cheaper but loading dearer shows here.
algebra-products
    One process multiplies a seeded batch of AlgebraElements in Q[B_4]
    (see ``algebra_worker.py``): convolution and AlgebraElement arithmetic
    only, no rings, characters or chambers.

The seed chooses the inputs of algebra-products; the verify workloads are
deterministic and ignore it.

End-to-end metrics (``--trace 0``):

wall_s       wall time of one program process (verify) or of one product
             batch (algebra-products), as the expected slowest of three
             repeats, window by window (see below)
cpu_s        user plus system time of the same: wall_s times the CPU share
             of the timed runs
setup_s      interpreter start plus package import (expected slowest of
             three of five); plus a cache fill on verify-all-warm (slowest
             of two fills, window by window), or ``get_group(4)`` and input
             generation on algebra-products (slowest of its three workers)
peak_rss_mb  median peak resident memory of the program's process (on
             algebra-products, up to the end of the first batch)
pass_ratio   1 minus failed over attempted operations (verify checks, or
             product checks); ``failed`` and ``attempted`` on the result
             line give the fail ratio itself

Timing on a shared host (measured on 2 vCPUs of a Xeon): the speed a
process gets varies by up to about 1.65 times, both within a second and
from minute to minute, with the load of other tenants on the same cores,
so whole-run times, and medians of them, spread by 20% or more between
runs of the same code.  So each timed verify process records entry stamps
at a few layer boundaries (``ticker.py``), which cut it into some 21 000
segments that are the same work in every process; ``ticker.slowest``
groups them into windows of about 50 ms and adds up, window by window, the
expected slowest of three processes.  algebra-products does the same with
the products of its batch over the repeats of the batch.  That reads close
to the slow end of the range, which moves less with the host's load than
an average does.  Each verify run starts at least three processes, and
more while another fits in ``--seconds``.  The plain per-process or
per-batch walls are printed on the information line.

Per-layer metrics (``--trace 1``) come from one run under ``tracer.py``;
``trace.overhead_s`` is its wall time minus that of one untraced run.
``MOVES`` records which end-to-end metric each layer's numbers should move.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import algebra_worker
import gates
import ticker
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PY = sys.executable
CLI = [PY, "-c", "import sys; from hyperoct.cli import main; sys.exit(main())"]
VERIFY_ARGS = ["verify", "all", "--n", "4", "--format", "json"]
VERIFY = CLI + VERIFY_ARGS
IMPORT = [PY, "-c", "import hyperoct.cli"]
PROBE = (
    "import json, os, sys, numpy, hyperoct.kernels as k; print(json.dumps("
    "{'python': sys.version.split()[0], 'numpy': numpy.__version__, 'backend': k.BACKEND,"
    " 'hyperoct_env': sorted(v for v in os.environ if v.startswith('HYPEROCT_'))}))"
)
SETUP_REPEATS = 5
WARM_FILLS = 2
MIN_PROCESSES = 3
ALGEBRA_WORKERS = 3
DEADLINE_S = 170.0

MOVES = {
    "suites": "locates a change in wall_s on verify-all-*",
    "groupdata": "wall_s on verify-all-*, setup_s on algebra-products, peak_rss_mb everywhere",
    "kernels": "wall_s and cpu_s on algebra-products (most of it), "
    "part of wall_s on verify-all-cold",
    "algebra": "wall_s on algebra-products and verify-all-*",
    "characters": "wall_s on verify-all-*; nothing on algebra-products",
    "rings": "wall_s on verify-all-* (ring_build_s only on cold); nothing on algebra-products",
    "ringreps": "wall_s on verify-all-* (largest share)",
    "chambers": "wall_s on verify-all-*",
    "equivariant": "wall_s on verify-all-*",
    "linalg": "wall_s on verify-all-*",
    "cache": "wall_s on verify-all-warm against verify-all-cold; setup_s on verify-all-warm",
    "trace": "none; checks on the benchmark itself",
}
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("mpairs_per_s"):
        return "Mpairs/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "ratio")):
        return "ratio"
    if name.startswith("cache.bytes"):
        return "bytes"
    return "count"


@dataclass
class Proc:
    start: float  # time.monotonic() just before the process was spawned
    wall: float
    cpu: float
    rss_mb: float
    code: int
    out: str  # path of its standard output


class Runner:
    """Starts program processes one at a time and measures each one."""

    def __init__(self, work: str):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self._ids = itertools.count()

    def path(self, stem: str) -> str:
        """A fresh file name in the work directory."""
        return os.path.join(self.work, f"{stem}{next(self._ids)}")

    def env(self, cache_dir: str | None = None) -> dict[str, str]:
        # Bytecode caches are written, as for a user, whatever the caller sets.
        env = {
            k: v
            for k, v in os.environ.items()
            if not k.startswith("HYPEROCT_") and k != "PYTHONDONTWRITEBYTECODE"
        }
        env["PYTHONPATH"] = SRC
        env["PYTHONHASHSEED"] = "0"
        if cache_dir is not None:
            env["HYPEROCT_CACHE"] = cache_dir
        return env

    def run(self, argv: list[str], env: dict[str, str]) -> Proc:
        base = self.path("proc")
        limit = max(1.0, self.deadline - time.monotonic())
        with open(base + ".out", "wb") as out, open(base + ".err", "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(base + ".err", encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read()[-2000:])
        return Proc(
            start,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024,
            proc.returncode,
            base + ".out",
        )


def read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def environment(runner: Runner) -> dict:
    """Core count, versions, kernel backend and source identity.  The probe
    is also the untimed first import that writes the bytecode caches."""
    proc = runner.run([PY, "-c", PROBE], runner.env())
    if proc.code != 0:
        raise RuntimeError("cannot import hyperoct from src/")
    env = json.loads(read(proc.out))
    if env.pop("hyperoct_env"):
        raise RuntimeError("HYPEROCT_* variables leaked into a program run")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top, dirs, files in os.walk(os.path.join(SRC, "hyperoct")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(top, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return dict(env, nproc=os.cpu_count(), git_commit=commit, source_sha256=digest.hexdigest())


def cache_snapshot(cache_dir: str) -> list:
    return sorted(
        (e.name, e.stat().st_size, e.stat().st_mtime_ns) for e in os.scandir(cache_dir)
    )


class Tally:
    """Operations attempted and failed across the runs of one benchmark run."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.expected: str | None = None

    def verify(self, proc: Proc) -> None:
        """Gate one `verify all` report; a report that differs from the
        first one of this run (timing aside) fails every check."""
        attempted, failed, report = gates.report_gate(proc.code, read(proc.out))
        if report is not None:
            canon = gates.canonical_report(report)
            if self.expected is None:
                self.expected = canon
            elif canon != self.expected:
                failed = attempted
        self.add(attempted, failed)

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def ticked_verify(runner: Runner, env: dict[str, str]) -> tuple[Proc, list[float]]:
    """One `verify all` process under ``ticker.py``, and its segments."""
    stamps = runner.path("stamps")
    argv = [PY, os.path.join(HERE, "ticker.py"), "--stamps", stamps, "--"] + VERIFY_ARGS
    proc = runner.run(argv, env)
    end = proc.start + proc.wall
    if not os.path.exists(stamps):
        return proc, [proc.wall]
    return proc, ticker.segments(proc.start, ticker.load(stamps), end)


def verify_setup(runner: Runner, tally: Tally, fills: int):
    """(environment, set-up seconds, cache) of a verify workload.

    Set-up is interpreter start plus import, five times; a warm workload
    adds ``fills`` untimed runs, each filling a fresh cache directory of
    its own, and keeps the last directory with a snapshot.  Each part is
    timed with ``ticker.slowest``.
    """
    imports = [[runner.run(IMPORT, runner.env()).wall] for _ in range(SETUP_REPEATS)]
    setup = ticker.slowest(imports)
    if not fills:
        return runner.env(), setup, None
    segments = []
    for i in range(fills):
        cache_dir = os.path.join(runner.work, f"cache{i}")
        os.mkdir(cache_dir)
        env = runner.env(cache_dir)
        fill, segs = ticked_verify(runner, env)
        tally.verify(fill)
        segments.append(segs)
    snapshot = cache_snapshot(cache_dir)
    if not snapshot:
        raise RuntimeError("the cache fill stored nothing")
    return env, setup + ticker.slowest(segments), (cache_dir, snapshot)


def check_unchanged(cache) -> None:
    if cache is not None and cache_snapshot(cache[0]) != cache[1]:
        raise RuntimeError("a warm run wrote to the cache")


def verify_timed(runner: Runner, args, warm: bool):
    tally = Tally()
    env, setup, cache = verify_setup(runner, tally, WARM_FILLS if warm else 0)
    procs: list[Proc] = []
    segments = []
    start = time.monotonic()
    # Start another process while it is expected to end within the run.
    while (
        len(procs) < MIN_PROCESSES
        or time.monotonic() - start + statistics.median(p.wall for p in procs) <= args.seconds
    ):
        proc, segs = ticked_verify(runner, env)
        tally.verify(proc)
        check_unchanged(cache)
        procs.append(proc)
        segments.append(segs)
    wall = ticker.slowest(segments)
    metrics = {
        "wall_s": wall,
        "cpu_s": wall * sum(p.cpu for p in procs) / sum(p.wall for p in procs),
        "setup_s": setup,
        "peak_rss_mb": statistics.median(p.rss_mb for p in procs),
    }
    return tally, metrics, {"process_walls": [p.wall for p in procs]}


def verify_traced(runner: Runner, args, warm: bool):
    tally = Tally()
    env, _, cache = verify_setup(runner, tally, 1 if warm else 0)
    plain = runner.run(VERIFY, env)
    tally.verify(plain)
    spans = os.path.join(runner.work, "spans.pickle")
    argv = [PY, os.path.join(HERE, "tracer.py"), "--spans", spans, "--"] + VERIFY[3:]
    traced = runner.run(argv, env)
    tally.verify(traced)
    check_unchanged(cache)
    metrics = tracer.analyze(tracer.load_spans(spans), traced.wall)
    metrics["trace.overhead_s"] = traced.wall - plain.wall
    if warm:
        builds = metrics["rings.get_ring.builds"]
        if not builds or metrics["cache.load.rewrite_hits"] != builds:
            raise RuntimeError("verify-all-warm built a ring without loading its rules")
        if metrics["cache.store.calls"] or metrics["cache.load.misses"]:
            raise RuntimeError("verify-all-warm stored to or missed the cache")
    elif metrics["cache.load.hits"]:
        raise RuntimeError("verify-all-cold read from a cache")
    return tally, metrics, {}


def algebra_run(runner: Runner, args, seconds: float, extra: list[str]):
    out = runner.path("algebra") + ".json"
    argv = [PY, os.path.join(HERE, "algebra_worker.py"), "--seed", str(args.seed)]
    proc = runner.run(argv + ["--seconds", str(seconds), "--out", out] + extra, runner.env())
    if proc.code != 0 or not os.path.exists(out):
        return proc, None
    with open(out, encoding="utf-8") as fh:
        return proc, json.load(fh)


def algebra_tally(runs) -> Tally:
    """Gate the workers' own checks, and require that every worker
    computed the same products."""
    tally = Tally()
    digests = set()
    for _, result in runs:
        if result is None:
            tally.add(algebra_worker.BATCH_SIZE, algebra_worker.BATCH_SIZE)
            continue
        tally.add(result["attempted"], result["failed"])
        digests.add(result["digest"])
    if len(digests) > 1:
        tally.add(algebra_worker.BATCH_SIZE, algebra_worker.BATCH_SIZE)
    return tally


def algebra_timed(runner: Runner, args):
    share = args.seconds / ALGEBRA_WORKERS
    # Only the first worker checks the definitional sample; the same seed
    # gives every worker the same batch.
    runs = [
        algebra_run(runner, args, share, [] if i == 0 else ["--no-sample"])
        for i in range(ALGEBRA_WORKERS)
    ]
    tally = algebra_tally(runs)
    done = [(p, r) for p, r in runs if r is not None]
    if not done:
        return tally, None, {}
    walls = [w for _, r in done for w in r["walls"]]
    cpus = [c for _, r in done for c in r["cpus"]]
    # Every repetition of the batch, in every worker, times the same products.
    wall = ticker.slowest([products for _, r in done for products in r["products"]])
    metrics = {
        "wall_s": wall,
        "cpu_s": wall * sum(cpus) / sum(walls),
        "setup_s": ticker.slowest([[r["ready"] - p.start] for p, r in done]),
        "peak_rss_mb": statistics.median(r["rss_mb"] for _, r in done),
    }
    return tally, metrics, {"batch_walls": walls}


def algebra_traced(runner: Runner, args):
    spans = os.path.join(runner.work, "spans.pickle")
    plain = algebra_run(runner, args, 0, ["--no-sample"])
    traced = algebra_run(runner, args, 0, ["--no-sample", "--spans", spans])
    tally = algebra_tally([plain, traced])
    if plain[1] is None or traced[1] is None:
        return tally, None, {}
    window = traced[1]["window"]
    metrics = tracer.analyze(tracer.load_spans(spans), window[1] - window[0], window)
    metrics["trace.overhead_s"] = traced[1]["walls"][0] - plain[1]["walls"][0]
    if metrics["rings.get_ring.builds"]:
        raise RuntimeError("algebra-products built a presented ring")
    return tally, metrics, {}


WORKLOADS = {
    "verify-all-cold": (
        lambda r, a: verify_timed(r, a, False),
        lambda r, a: verify_traced(r, a, False),
    ),
    "verify-all-warm": (
        lambda r, a: verify_timed(r, a, True),
        lambda r, a: verify_traced(r, a, True),
    ),
    "algebra-products": (algebra_timed, algebra_traced),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hyperoct", "cli.py")):
        print(f"perfbench: no hyperoct sources under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind so that the running program process is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    self_test = gates.self_test()
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch)
    try:
        runner = Runner(work)
        env = environment(runner)
        tally, metrics, detail = WORKLOADS[args.workload][args.trace](runner, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    if metrics is None:
        print("perfbench: no program run completed", file=sys.stderr)
        return 1

    info = {"environment": env, "gate_self_test": self_test, "runs": detail}
    print(json.dumps(info, sort_keys=True))
    if args.trace:
        print(json.dumps({"moves": MOVES}, sort_keys=True))
        if args.workload == "verify-all-cold" and metrics["trace.attributed_share"] < 0.9:
            print("perfbench: layers account for under 90% of the wall time", file=sys.stderr)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics["pass_ratio"] = 1 - tally.failed / tally.attempted
        units = END_TO_END_UNITS
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
