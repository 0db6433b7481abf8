"""Command-line entry point.

    hyperoct verify <suite> --n <k> [--format json|text] [--out FILE]

Exit codes: 0 all checks pass, 1 at least one failure, 2 usage error
(unknown suite, n outside the suite's documented bound, or n < 1 for
``all``), 3 internal
error (an exception escaped the suite; the traceback goes to stderr).  A
character that cannot be computed exactly fails its check (exit 1).  Set
HYPEROCT_CACHE to a directory to persist the rings' rewrite tables between
runs; reports are deterministic apart from elapsed_ms.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .suites import SUITE_BOUNDS, SUITE_ORDER, SuiteUsageError, run_suite


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
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    print(rendered)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
