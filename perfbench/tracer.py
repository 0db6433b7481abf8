"""Span tracer for the hyperoct layers, installed from outside the package.

The tracer wraps the public functions of each module (and a few methods)
after the package is imported, so nothing under ``src/`` changes.  Every
wrapped call records a span: name, start, end and the span that caused
it.  Spans are kept in memory, in flat arrays, and pickled to a file when
the run ends; ``analyze`` turns them into per-layer metrics.  A layer's
self time is the duration of its spans minus the time their child spans
cover.

``from .x import f`` copies the binding into every importing module, so a
wrapper replaces the original under every name in every ``hyperoct``
module that holds it.  Hot leaf functions (``compose``, ``evaluate_y``,
``_normal_form``) are not wrapped: their time stays in the caller's self
time.

Run the CLI under the tracer with

    PYTHONPATH=src python3 perfbench/tracer.py --spans FILE -- verify all --n 4 --format json
"""

from __future__ import annotations

import argparse
import array
import os
import pickle
import sys
import time
from collections import Counter

# Modules whose self time counts as attributed; ``suites`` only locates time.
LAYERS = (
    "groupdata",
    "kernels",
    "algebra",
    "characters",
    "rings",
    "ringreps",
    "chambers",
    "equivariant",
    "linalg",
    "cache",
)
SUITES = (
    "idempotents",
    "tau",
    "characters",
    "tables-b2",
    "hilbert",
    "main-iso",
    "recursion",
    "ungraded",
    "gn1",
    "bigrading",
    "equivariant",
    "chambers",
)
DENSITIES = ("sparse", "mid", "full")
INT64_BOUND = 2**62


def density(pairs: int, order: int) -> str:
    """Support density of a product: share of the |B_n|^2 coefficient pairs."""
    share = pairs / (order * order)
    if share < 0.05:
        return "sparse"
    return "full" if share > 0.5 else "mid"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def rename(self, i: int, name: str) -> None:
        self.name[i] = self._id(name)

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``name`` is a string or a function of the
        call's arguments, ``after(result, args)`` updates counters."""
        tracer = self

        def wrapper(*args, **kwargs):
            i = tracer.open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def built(self, name: str, fn):
        """Wrap an ``lru_cache`` function: a call that missed the cache is a
        span named ``<name>.build`` and counts in ``<name>.builds``."""
        tracer = self

        def wrapper(*args, **kwargs):
            before = fn.cache_info().misses
            i = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)
                builds = fn.cache_info().misses - before
                if builds:
                    tracer.rename(i, name + ".build")
                    tracer.counters[name + ".builds"] += builds

        return wrapper

    def count(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            pickle.dump(
                {
                    "names": self.names,
                    "name": self.name,
                    "parent": self.parent,
                    "start": self.start,
                    "end": self.end,
                    "counters": dict(self.counters),
                },
                fh,
            )


def replace(modules, original, wrapper) -> None:
    hits = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                hits += 1
    if not hits:
        raise RuntimeError(f"tracer found no binding of {original!r}")


def _name(module, attr: str) -> str:
    return module.__name__.rsplit(".", 1)[1] + "." + attr


def install(tracer: Tracer) -> None:
    """Import the whole package and wrap every traced function and method."""
    import hyperoct.cli  # noqa: F401  (imports every module)
    from hyperoct import (
        algebra,
        cache,
        chambers,
        characters,
        equivariant,
        groupdata,
        kernels,
        linalg,
        rings,
        ringreps,
        suites,
    )

    modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("hyperoct")]
    counters = tracer.counters

    def kernel_name(group, idx_a, coef_a, idx_b, coef_b):
        pairs = len(idx_a) * len(idx_b)
        counters["kernels.convolve_dense.pairs"] += pairs
        bound = max(map(abs, coef_a)) * max(map(abs, coef_b)) * group.order
        if bound >= INT64_BOUND:
            counters["kernels.over_int64.calls"] += 1
        return "kernels." + density(pairs, group.order)

    def cache_path(key):
        return os.path.join(cache.cache_dir(), key + ".json")

    def after_load(result, args):
        if result is None:
            counters["cache.load.misses"] += 1
            return
        counters["cache.load.hits"] += 1
        if args[0].startswith("rewrite-"):
            counters["cache.load.rewrite_hits"] += 1
        counters["cache.bytes_read"] += os.path.getsize(cache_path(args[0]))

    def after_store(result, args):
        counters["cache.store.calls"] += 1
        if result:
            counters["cache.bytes_written"] += os.path.getsize(cache_path(args[0]))

    def after_relations(result, args):
        counters["equivariant.relations"] += len(result)

    # (module, function, span name, counter hook); the name defaults to
    # "<module>.<function>".
    spans = [
        (suites, "run_suite", lambda suite, n: "suites." + suite, None),
        (kernels, "convolve_dense", kernel_name, None),
        (algebra, "g_k", "algebra.idempotents", None),
        (algebra, "tau_map", "algebra.idempotents", None),
        (algebra, "right_ideal_character", None, None),
        (characters, "induce_character", None, None),
        (characters, "rho_character", None, None),
        (characters, "decompose", None, None),
        (ringreps, "graded_character", None, None),
        (chambers, "evaluation_matrix", None, None),
        (equivariant, "equivariant_relations", None, after_relations),
        (equivariant, "specialize", None, None),
        (linalg, "rank_exact", None, None),
        (linalg, "rank_mod_p", None, None),
        (cache, "load", None, after_load),
        (cache, "store", None, after_store),
    ]
    for mod, attr, name, after in spans:
        fn = getattr(mod, attr)
        replace(modules, fn, tracer.span(name or _name(mod, attr), fn, after))
    built = [
        (groupdata, "get_group", None),
        (characters, "character_table", None),
        (rings, "get_ring", None),
        (ringreps, "diagonal_coefficients", None),
        (algebra, "vazirani_idempotent", "algebra.idempotents"),
        (algebra, "eulerian_idempotents_typeA", "algebra.idempotents"),
    ]
    for mod, attr, name in built:
        fn = getattr(mod, attr)
        replace(modules, fn, tracer.built(name or _name(mod, attr), fn))
    fn = chambers.chamber_action
    replace(modules, fn, tracer.count("chambers.chamber_action.calls", fn))

    methods = [
        (algebra.AlgebraElement, "__mul__", "algebra.mul"),
        (rings.RingElement, "__mul__", "rings.mul"),
        (rings.PresentedRing, "act", "rings.act"),
        (rings.PresentedRing, "reduce_raw", "rings.reduce_raw"),
        (rings.PresentedRing, "nbc_basis", "rings.nbc_basis"),
    ]
    for cls, attr, name in methods:
        setattr(cls, attr, tracer.span(name, getattr(cls, attr)))


def load_spans(path: str) -> dict:
    with open(path, "rb") as fh:
        return pickle.load(fh)


def analyze(spans: dict, wall_s: float, window=None) -> dict[str, float]:
    """Per-layer metrics from a span file.

    ``wall_s`` is the traced run's end-to-end wall time; attribution counts
    the self time of layer spans that lie inside ``window`` (a perf_counter
    interval, default everything).
    """
    names, name, parent = spans["names"], spans["name"], spans["parent"]
    start, end = spans["start"], spans["end"]
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    calls: Counter = Counter()
    total: Counter = Counter()
    self_s: Counter = Counter()
    attributed = 0.0
    lo, hi = window or (float("-inf"), float("inf"))
    for i, nid in enumerate(name):
        key = names[nid]
        dur = end[i] - start[i]
        own = dur - covered[i]
        calls[key] += 1
        total[key] += dur
        self_s[key] += own
        if key.split(".", 1)[0] in LAYERS and lo <= start[i] and end[i] <= hi:
            attributed += own
    c = Counter(spans["counters"])

    def self_of(*keys):
        return sum(self_s[k] for k in keys)

    m: dict[str, float] = {}
    for suite in SUITES:
        m[f"suites.{suite}.wall_s"] = total["suites." + suite]
    m["groupdata.get_group.builds"] = c["groupdata.get_group.builds"]
    m["groupdata.get_group.build_s"] = total["groupdata.get_group.build"]

    kernel_keys = ["kernels." + d for d in DENSITIES]
    conv_calls = sum(calls[k] for k in kernel_keys)
    conv_self = self_of(*kernel_keys)
    m["kernels.convolve_dense.calls"] = conv_calls
    m["kernels.convolve_dense.self_s"] = conv_self
    m["kernels.convolve_dense.pairs"] = c["kernels.convolve_dense.pairs"]
    m["kernels.convolve_dense.mpairs_per_s"] = (
        c["kernels.convolve_dense.pairs"] / conv_self / 1e6 if conv_self else 0.0
    )
    for d in DENSITIES:
        m[f"kernels.{d}.calls"] = calls["kernels." + d]
        m[f"kernels.{d}.self_s"] = self_s["kernels." + d]
        m[f"kernels.{d}.share"] = calls["kernels." + d] / conv_calls if conv_calls else 0.0
    m["kernels.over_int64.calls"] = c["kernels.over_int64.calls"]
    m["kernels.over_int64.share"] = (
        c["kernels.over_int64.calls"] / conv_calls if conv_calls else 0.0
    )

    m["algebra.mul.calls"] = calls["algebra.mul"]
    m["algebra.mul.self_s"] = self_s["algebra.mul"]
    m["algebra.idempotents.self_s"] = self_of("algebra.idempotents", "algebra.idempotents.build")
    m["algebra.right_ideal_character.self_s"] = self_s["algebra.right_ideal_character"]

    m["characters.character_table.builds"] = c["characters.character_table.builds"]
    m["characters.character_table.self_s"] = self_of(
        "characters.character_table", "characters.character_table.build"
    )
    m["characters.induce_character.calls"] = calls["characters.induce_character"]
    m["characters.induce_character.self_s"] = self_s["characters.induce_character"]
    m["characters.rho_character.self_s"] = self_s["characters.rho_character"]
    m["characters.decompose.self_s"] = self_s["characters.decompose"]

    m["rings.get_ring.builds"] = c["rings.get_ring.builds"]
    m["rings.ring_build_s"] = total["rings.get_ring.build"]
    for op in ("mul", "act", "reduce_raw"):
        m[f"rings.{op}.calls"] = calls["rings." + op]
        m[f"rings.{op}.self_s"] = self_s["rings." + op]
    m["rings.act.total_s"] = total["rings.act"]
    m["rings.nbc_basis.self_s"] = self_s["rings.nbc_basis"]

    m["ringreps.diagonal_coefficients.builds"] = c["ringreps.diagonal_coefficients.builds"]
    m["ringreps.diagonal_coefficients.self_s"] = self_of(
        "ringreps.diagonal_coefficients", "ringreps.diagonal_coefficients.build"
    )
    m["ringreps.graded_character.self_s"] = self_s["ringreps.graded_character"]

    m["chambers.evaluation_matrix.self_s"] = self_s["chambers.evaluation_matrix"]
    m["chambers.chamber_action.calls"] = c["chambers.chamber_action.calls"]

    m["equivariant.equivariant_relations.self_s"] = self_s["equivariant.equivariant_relations"]
    m["equivariant.relations"] = c["equivariant.relations"]
    m["equivariant.specialize.self_s"] = self_s["equivariant.specialize"]

    m["linalg.rank_exact.self_s"] = self_s["linalg.rank_exact"]
    m["linalg.rank_mod_p.self_s"] = self_s["linalg.rank_mod_p"]

    hits, misses = c["cache.load.hits"], c["cache.load.misses"]
    m["cache.load.hits"] = hits
    m["cache.load.misses"] = misses
    m["cache.load.rewrite_hits"] = c["cache.load.rewrite_hits"]
    m["cache.store.calls"] = c["cache.store.calls"]
    m["cache.bytes_read"] = c["cache.bytes_read"]
    m["cache.bytes_written"] = c["cache.bytes_written"]
    m["cache.self_s"] = self_of("cache.load", "cache.store")
    m["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
    m["trace.attributed_share"] = attributed / wall_s
    m["trace.unattributed_s"] = wall_s - attributed
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the hyperoct CLI under the span tracer.")
    parser.add_argument("--spans", required=True, help="file the spans are written to")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer()
    install(tracer)
    from hyperoct.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
