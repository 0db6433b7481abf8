"""Command-line entry point.

    hyperoct verify <suite> --n <k> [--format json|text] [--out FILE]

Exit codes: 0 all checks pass, 1 at least one failure, 2 usage error
(unknown suite, n outside the suite's documented bound, n < 1 for
``all``, or an ``--out`` FILE that cannot be written; the report is still
printed to stdout first), 3 internal error (an exception escaped the
suite; the traceback goes to stderr).  A character that cannot be
computed exactly fails its check (exit 1).  Set HYPEROCT_CACHE to a
directory to persist the rings' rewrite tables between runs; reports are
deterministic apart from elapsed_ms.

The CLI process runs numpy's BLAS on one thread: it sets
OPENBLAS_NUM_THREADS=1 unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS is already set, so setting one of them overrides it, or
numpy is already loaded, when it would take no effect and only pass on to
child processes.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

# Before numpy loads, which starts the BLAS worker threads.  No product of
# hyperoct gains from a second thread (each BLAS call multiplies a
# character's row by a matrix), while OpenBLAS's idle worker spins on a
# core: on 2 vCPUs `verify all --n 4` spent 0.69 CPU-s in 0.57 s of wall
# time with it and 0.55 in 0.55 s without (medians of 10 benchmark runs,
# BENCH_16.json).  Only the CLI sets this, since a library import must not
# rewrite its host's environment.
_BLAS_THREAD_VARS = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}
if "numpy" not in sys.modules and not _BLAS_THREAD_VARS & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .suites import SUITE_BOUNDS, SUITE_ORDER, SuiteUsageError, run_suite  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperoct",
        description="Exact verification suites for the signed-permutation "
        "idempotents, characters, and presented cohomology rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser(
        "verify",
        help="run a named verification suite",
        description="Bounds per suite: "
        + "; ".join(f"{k}: n={lo}..{hi}" for k, (lo, hi) in SUITE_BOUNDS.items())
        + "; all: n>=1, each constituent clamps to its own bound.",
    )
    verify.add_argument("suite", choices=SUITE_ORDER)
    verify.add_argument("--n", type=int, required=True, metavar="K")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", metavar="FILE")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = run_suite(args.suite, args.n)
    except SuiteUsageError as exc:
        print(f"hyperoct: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    rendered = report.to_json() if args.format == "json" else report.to_text()
    print(rendered)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            print(f"hyperoct: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
