"""Tick recorder for the timed runs of the verify workloads.

It runs the hyperoct CLI and takes a ``time.monotonic()`` stamp on entry
to a few functions that a run calls in the same order every time, plus one
stamp before the package is imported and one when the command returns.
The stamps cut a run into segments that are the same work in every run of
the same command, so ``slowest`` can compare runs segment by segment.

The ticked functions are layer boundaries that the tracer wraps as well:
about 21 000 calls in ``verify all --n 4``, each costing one clock read
and one append, some 0.45 us or 10 ms in all (0.1% of the run, measured
on a 2-vCPU Xeon).  A function the program no longer has is skipped.

    PYTHONPATH=src python3 perfbench/ticker.py --stamps FILE -- verify all --n 4 --format json
"""

import time

START = time.monotonic()  # before anything of the program is imported

import argparse  # noqa: E402
import array  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from math import comb  # noqa: E402

import tracer  # noqa: E402

# (module, function) ticked on entry, under every name that binds it.
FUNCTIONS = (
    ("suites", "run_suite"),
    ("kernels", "convolve_dense"),
    ("chambers", "chamber_action"),
)
# (module, class, method) ticked on entry.
METHODS = (("rings", "PresentedRing", "act"),)
# ``slowest`` compares runs in windows of about this much work, and takes
# the expected slowest of this many runs in each.
WINDOW_S = 0.05
OF = 3


def install(stamps: array.array) -> None:
    import hyperoct.cli  # noqa: F401  (imports every module)

    modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("hyperoct")]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    clock = time.monotonic
    append = stamps.append

    def ticked(fn):
        def wrapper(*args, **kwargs):
            append(clock())
            return fn(*args, **kwargs)

        return wrapper

    for mod_name, attr in FUNCTIONS:
        fn = getattr(by_name.get(mod_name), attr, None)
        if fn is not None:
            tracer.replace(modules, fn, ticked(fn))
    for mod_name, cls_name, attr in METHODS:
        cls = getattr(by_name.get(mod_name), cls_name, None)
        if cls is not None and hasattr(cls, attr):
            setattr(cls, attr, ticked(getattr(cls, attr)))


def load(path: str) -> list[float]:
    stamps = array.array("d")
    with open(path, "rb") as fh:
        stamps.frombytes(fh.read())
    return stamps.tolist()


def segments(spawn: float, stamps: list[float], exit: float) -> list[float]:
    """Durations between process start, the stamps, and process end."""
    points = [spawn] + stamps + [exit]
    return [b - a for a, b in zip(points, points[1:])]


def slowest(runs: list[list[float]]) -> float:
    """Time of the same work done by several runs, each given as the
    durations of matching segments: the sum over windows of about
    ``WINDOW_S`` of the expected slowest of ``OF`` runs drawn from them
    (of all runs, if there are fewer).

    On a shared host the speed a process gets varies by up to about 1.65
    times, within a second and from minute to minute, with the load of
    other tenants on the same cores, so whole-run times spread widely.  In
    a short window the slowest of three runs is close to the slow end of
    that range, which moves less with the host's load than an average;
    a fixed three, rather than all runs, keeps the figure independent of
    how many runs fitted.  If the runs have different numbers of segments
    they cannot be matched, and each counts as one.
    """
    if len({len(r) for r in runs}) != 1:
        print("perfbench: segments differ between runs; timing whole runs", file=sys.stderr)
        runs = [[sum(r)] for r in runs]
    n = len(runs)
    k = min(OF, n)
    # The j-th fastest of n runs is the slowest of k drawn with this chance.
    weights = [comb(j, k - 1) / comb(n, k) for j in range(n)]
    total = elapsed = 0.0
    lo = 0
    typical = [statistics.median(column) for column in zip(*runs)]
    for hi, t in enumerate(typical, 1):
        elapsed += t
        if elapsed >= WINDOW_S or hi == len(typical):
            window = sorted(sum(r[lo:hi]) for r in runs)
            total += sum(w * x for w, x in zip(weights, window))
            lo, elapsed = hi, 0.0
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the hyperoct CLI with entry stamps.")
    parser.add_argument("--stamps", required=True, help="file the stamps are written to")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    stamps = array.array("d", [START])
    install(stamps)
    from hyperoct.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        stamps.append(time.monotonic())
        with open(args.stamps, "wb") as fh:
            stamps.tofile(fh)


if __name__ == "__main__":
    sys.exit(main())
