"""Multiply a seeded batch of AlgebraElements in Q[B_4] and check the results.

The batch mirrors the products that `hyperoct verify all --n 4` makes: one
product for each (|supp a|, |supp b|) pair it convolves, as often as it
does, with random supports and small rational coefficients.  A further
class has integer coefficients of 2^30..2^31, so that
max|a| * max|b| * |B_4| passes 2^62.

The batch is multiplied repeatedly while another repetition is expected
to end within ``--seconds`` (at least once), with the time of every
product recorded; peak memory is read after the first repetition, so it
does not depend on how many fit.  The results are then checked outside the
timed phase: every product against two linear characters, a seeded sample
against the definitional convolution of ``gates``, a sample of triples
for associativity, and every repetition against the first.

    PYTHONPATH=src python3 perfbench/algebra_worker.py --seed 1 --seconds 5 --out result.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from fractions import Fraction

import gates
import tracer as tracing

RANK = 4
# (|supp a|, |supp b|, calls) of the convolutions in `verify all --n 4`:
# 404 sparse (< 5% of |B_4|^2 pairs), 330 mid and 60 full (> 50%) calls.
SUPPORT_PAIRS = (
    (1, 2, 2), (1, 24, 1), (2, 24, 2), (4, 1, 1), (4, 2, 8), (4, 6, 2), (6, 2, 5),
    (8, 1, 4), (8, 2, 4), (8, 6, 4), (12, 1, 3), (12, 2, 32), (16, 6, 4), (24, 1, 24),
    (24, 2, 44), (48, 1, 24), (48, 2, 48), (48, 48, 12), (48, 96, 6), (48, 120, 6),
    (48, 144, 12), (48, 192, 3), (48, 240, 6), (48, 248, 12), (48, 384, 6), (96, 1, 28),
    (96, 2, 40), (96, 48, 6), (96, 96, 6), (96, 120, 4), (96, 144, 8), (96, 192, 2),
    (96, 240, 4), (96, 248, 8), (96, 384, 4), (120, 48, 6), (120, 96, 4), (120, 120, 6),
    (120, 144, 8), (120, 192, 2), (120, 240, 4), (120, 248, 8), (120, 384, 4),
    (144, 48, 12), (144, 96, 8), (144, 120, 8), (144, 144, 20), (144, 192, 4),
    (144, 240, 8), (144, 248, 16), (144, 384, 8), (192, 1, 32), (192, 2, 16),
    (192, 48, 3), (192, 96, 2), (192, 120, 2), (192, 144, 4), (192, 192, 2),
    (192, 240, 2), (192, 248, 4), (192, 384, 2), (240, 48, 6), (240, 96, 4),
    (240, 120, 4), (240, 144, 8), (240, 192, 2), (240, 240, 6), (240, 248, 8),
    (240, 384, 4), (248, 48, 12), (248, 96, 8), (248, 120, 8), (248, 144, 16),
    (248, 192, 4), (248, 240, 8), (248, 248, 20), (248, 384, 8), (290, 290, 6),
    (290, 384, 6), (384, 1, 16), (384, 48, 6), (384, 96, 4), (384, 120, 4),
    (384, 144, 8), (384, 192, 2), (384, 240, 4), (384, 248, 8), (384, 290, 6),
    (384, 384, 18),
)
OVER_INT64_PRODUCTS = 32
BATCH_SIZE = sum(calls for _, _, calls in SUPPORT_PAIRS) + OVER_INT64_PRODUCTS
NUMERATORS = (-4, -3, -2, -1, 1, 2, 3, 4)
DENOMINATORS = (1, 2, 3, 4, 6, 8, 12, 24)
# Definitional checks per class, and associativity triples (sparse factors).
SAMPLE = {"sparse": 16, "mid": 6, "full": 2, "over_int64": 2}
TRIPLES = 8


def make_batch(seed: int, elements) -> list[tuple[str, dict, dict]]:
    """(class, a, b) coefficient dicts, from the seed alone."""
    rng = random.Random(seed)

    def element(size: int, big: bool = False) -> dict:
        support = rng.sample(elements, size)
        if big:
            return {g: Fraction(rng.choice((-1, 1)) * rng.randint(2**30, 2**31)) for g in support}
        return {g: Fraction(rng.choice(NUMERATORS), rng.choice(DENOMINATORS)) for g in support}

    order = len(elements)
    batch = []
    mids = []
    for sa, sb, calls in SUPPORT_PAIRS:
        kind = tracing.density(sa * sb, order)
        if kind == "mid":
            mids.append((sa, sb))
        batch += [(kind, element(sa), element(sb)) for _ in range(calls)]
    for _ in range(OVER_INT64_PRODUCTS):
        sa, sb = rng.choice(mids)
        batch.append(("over_int64", element(sa, True), element(sb, True)))
    rng.shuffle(batch)
    return batch


def check(seed: int, batch, inputs, results, sample: bool) -> tuple[int, int]:
    """(attempted, failed) checks of the products of one repetition; the
    definitional sample and the triples only when ``sample`` is set."""
    failed = sum(
        not gates.product_plausible(a, b, c.coeffs) for (_, a, b), c in zip(batch, results)
    )
    attempted = len(batch)
    if not sample:
        return attempted, failed
    rng = random.Random(seed + 1)
    for kind, count in SAMPLE.items():
        members = [i for i, (k, _, _) in enumerate(batch) if k == kind]
        for i in rng.sample(members, min(count, len(members))):
            _, a, b = batch[i]
            attempted += 1
            failed += not gates.product_ok(a, b, results[i].coeffs)
    sparse = [i for i, (k, _, _) in enumerate(batch) if k == "sparse"]
    for _ in range(TRIPLES):
        x, y, z = (inputs[i][rng.randrange(2)] for i in rng.sample(sparse, 3))
        attempted += 1
        failed += (x * y) * z != x * (y * z)
    return attempted, failed


def digest(results) -> str:
    h = hashlib.sha256()
    for c in results:
        h.update(repr(sorted(c.coeffs.items())).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="trace the run and write its spans here")
    parser.add_argument("--no-sample", action="store_true", help="skip the definitional checks")
    args = parser.parse_args(argv)

    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    from hyperoct.algebra import AlgebraElement
    from hyperoct.groupdata import get_group

    group = get_group(RANK)
    batch = make_batch(args.seed, group.elements)
    inputs = [(AlgebraElement(RANK, a), AlgebraElement(RANK, b)) for _, a, b in batch]
    ready = time.monotonic()

    walls, cpus, products = [], [], []
    first = None
    attempted = failed = 0
    clock = time.perf_counter
    stamps = [0.0] * (len(inputs) + 1)
    while True:
        t0, c0 = clock(), time.process_time()
        results = []
        for i, (x, y) in enumerate(inputs):
            stamps[i] = clock()
            results.append(x * y)
        stamps[-1] = t1 = clock()
        c1 = time.process_time()
        products.append([b - a for a, b in zip(stamps, stamps[1:])])
        if first is None:
            first, window = results, (t0, t1)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            attempted += len(results)
            failed += sum(r != f for r, f in zip(results, first))
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        if time.monotonic() - ready + walls[-1] > args.seconds:
            break
    if tracer is not None:
        tracer.dump(args.spans)

    more, bad = check(args.seed, batch, inputs, first, not args.no_sample)
    attempted += more
    failed += bad
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "ready": ready,
                "walls": walls,
                "cpus": cpus,
                "products": products,
                "window": window,
                "rss_mb": rss_mb,
                "attempted": attempted,
                "failed": failed,
                "digest": digest(first),
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
