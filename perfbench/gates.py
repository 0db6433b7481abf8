"""Output gates of the benchmark: verify reports and group-algebra products.

Each gate counts operations attempted and failed.  The product gate is a
definitional double-sum convolution over signed permutations, written here
and independent of the program's Cayley table and kernel.  ``self_test``
feeds the gates corrupted inputs and raises unless each one is caught.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

# Checks reported by `verify all --n 4` at the commit that defined this
# benchmark; fewer checks count the missing ones as failed.
MIN_CHECKS = 32


def report_gate(returncode: int, text: str) -> tuple[int, int, dict | None]:
    """(attempted, failed, report) for one `verify all --format json` run.

    A non-zero exit or an unparsable report fails every check of the run.
    """
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    checks = report.get("checks") if isinstance(report, dict) else None
    if not isinstance(checks, list):
        return MIN_CHECKS, MIN_CHECKS, None
    attempted = max(len(checks), MIN_CHECKS)
    if returncode != 0 or report.get("suite") != "all":
        return attempted, attempted, report
    failed = sum(1 for c in checks if not isinstance(c, dict) or c.get("status") != "pass")
    return attempted, failed + attempted - len(checks), report


def canonical_report(report: dict) -> str:
    """The report without its timing, for comparing runs."""
    return json.dumps({k: v for k, v in report.items() if k != "elapsed_ms"}, sort_keys=True)


# -- products in Q[B_n] -------------------------------------------------------
# Elements are dicts {signed permutation (one-line tuple): Fraction}; the
# product is sum over g, h of a_g b_h (g o h), with (g o h)(i) = g(h(i)).


def compose(g: tuple, h: tuple) -> tuple:
    return tuple(g[x - 1] if x > 0 else -g[-x - 1] for x in h)


def convolve_definition(a: dict, b: dict) -> dict:
    """The double sum, in integers over the product of the two common
    denominators."""
    den_a = lcm(*(Fraction(c).denominator for c in a.values()))
    den_b = lcm(*(Fraction(c).denominator for c in b.values()))
    int_b = [(h, int(cb * den_b)) for h, cb in b.items()]
    out: dict = {}
    for g, ca in a.items():
        ca = int(ca * den_a)
        for h, cb in int_b:
            k = compose(g, h)
            out[k] = out.get(k, 0) + ca * cb
    return {k: Fraction(v, den_a * den_b) for k, v in out.items() if v}


def _characters(x: dict) -> tuple:
    """Images under two linear characters: augmentation and (-1)^#negatives."""
    den = lcm(*(c.denominator for c in x.values()))
    aug = neg = 0
    for g, c in x.items():
        v = c.numerator * (den // c.denominator)
        aug += v
        neg += -v if sum(e < 0 for e in g) % 2 else v
    return Fraction(aug, den), Fraction(neg, den)


def product_ok(a: dict, b: dict, c: dict) -> bool:
    """c equals the definitional product of a and b."""
    return convolve_definition(a, b) == c


def product_plausible(a: dict, b: dict, c: dict) -> bool:
    """Cheap necessary condition: both linear characters are multiplicative."""
    (ea, na), (eb, nb), (ec, nc) = _characters(a), _characters(b), _characters(c)
    return ec == ea * eb and nc == na * nb


def self_test() -> dict[str, float]:
    """Feed each gate a good and a corrupted input; returns the fail ratios
    of the corrupted inputs and raises if any gate misjudges an input."""
    checks = [
        {"id": f"c{i}", "anchor": "", "status": "pass", "witness": ""} for i in range(MIN_CHECKS)
    ]
    good = {"suite": "all", "n": 4, "checks": checks, "elapsed_ms": 1}
    flipped = dict(good, checks=[dict(checks[0], status="fail")] + checks[1:])
    short = dict(good, checks=checks[:-1])
    ratios = {}
    cases = {
        "good": (0, json.dumps(good)),
        "failed_check": (0, json.dumps(flipped)),
        "missing_check": (0, json.dumps(short)),
        "nonzero_exit": (1, json.dumps(good)),
        "truncated": (0, json.dumps(good)[:-20]),
    }
    for name, (code, text) in cases.items():
        attempted, failed, _ = report_gate(code, text)
        ratios["report." + name] = failed / attempted
    a = {(1, 2): Fraction(1, 2), (-2, 1): Fraction(-3)}
    b = {(2, -1): Fraction(5), (1, -2): Fraction(1, 3), (-1, -2): Fraction(2)}
    right = convolve_definition(a, b)
    wrong = dict(right)
    some = next(iter(wrong))
    wrong[some] += 1
    swapped = convolve_definition(b, a)
    for name, c in (("good", right), ("wrong_coefficient", wrong), ("swapped_factors", swapped)):
        ratios["product." + name] = 0.0 if product_ok(a, b, c) else 1.0
    ratios["product.wrong_coefficient_cheap"] = 0.0 if product_plausible(a, b, wrong) else 1.0
    bad = [k for k, v in ratios.items() if (v == 0) != k.endswith(".good")]
    if bad:
        raise RuntimeError(f"gate self-test misjudged: {', '.join(bad)}")
    return ratios
