"""One cold repetition of a benchmark workload, in a fresh interpreter.

run.py starts this script once per repetition, with the repository's
src/ on PYTHONPATH, so every repetition starts with empty flatpart
caches, as every `flatpart` command does:

    python3 perfbench/rep.py --workload screen --seed 1 --trace 0

It prints one JSON object: the monotonic time at which the inputs were
ready (run.py subtracts the time it started the interpreter), the length
of the timed phase, the item intervals and calibration slices within it,
the correctness checks made and failed, the peak RSS and, with
--trace 1, the per-layer metrics and the spans.

Workloads (closed loop, one caller, no threads or pools):
  screen  search() on one box picked by the seed; checks the JSON
          report against the digest recorded for that box.
  verify  verify_all() on the whole registry at order 200, in an order
          permuted by the seed; every report must pass.
  deep    count vs product plus Euler factorization at order 600 on a
          pair of identities picked by the seed; exact agreement of
          every coefficient and every exponent.
  oracle  the first eight rule sets of acceptance criterion 7, each
          counted by the brute route and the DP at order 32; the two
          series must agree exactly.  The seed changes nothing here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import signal
import sys
import time

import numpy

import flatpart
from flatpart import counting, euler, families, partitions, search, series, verify

from spans import Tracer, partition_numbers

HERE = os.path.dirname(os.path.abspath(__file__))
SCREEN_BOXES = os.path.join(HERE, "screen_boxes.json")

VERIFY_ORDER = 200
DEEP_ORDER = 600
# The five order-600 identities the deep workload draws from.  A pair is
# one FAM1 entry and one of FAM6_K2, FAM7_K2, which makes every pair
# cost about the same: the seed changes the inputs, not the work.
DEEP_PAIRS = tuple((a, b) for a in ("FAM1_1_K3", "FAM1_2_K3", "FAM1_3_K3")
                   for b in ("FAM6_K2", "FAM7_K2"))
ORACLE_ORDER = 32
ORACLE_SETS = 8
# The DP keeps int64 counts up to this order and Python ints beyond.
INT64_ORDER = 300

# A calibration slice (see run.py) runs from a SIGALRM timer this often
# during the timed phase, wherever flatpart is at that moment, and five
# run on each side of it; run.py leaves their time out of every interval.
CALIBRATION_PERIOD_S = 0.5
CALIBRATION_BRACKET = 5

# The caches the cold-start guard and the partitions layer read; the
# names stay bound to the cached originals while spans are installed.
DP = counting.sum_series_dp
KTH = partitions.kth_flattest
PARTS = partitions.partitions_of


class Outcome:
    """Item intervals, calibration slices and exact correctness checks of
    one repetition, on the perf_counter clock."""

    def __init__(self):
        self.items = []
        self.calibration = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.size = {}

    def calibrate(self, *_signal):
        at = time.perf_counter()
        self.calibration.append((at, calibration_slice()))

    def item(self, start: float):
        """An item that began at `start` has just ended."""
        self.items.append((start, time.perf_counter()))

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def series_agree(got, want) -> bool:
    """Exact agreement of two coefficient sequences, length included."""
    return list(got) == list(want)


def deep_ok(count, product, exponents, spec) -> bool:
    """The sum side equals the product to the order, and Euler's
    exponents are exactly the product's exponent of every m."""
    return (series_agree(count, product)
            and list(exponents) == [spec.exponent(m)
                                    for m in range(1, len(product))])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_boxes() -> list:
    with open(SCREEN_BOXES) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- set-up

def setup_screen(rng):
    box = rng.choice(load_boxes())
    return search.SearchBounds.from_json(json.dumps(box["bounds"])), box["sha256"]


def setup_verify(rng):
    names = families.registered_names()
    rng.shuffle(names)
    return names


def setup_deep(rng):
    pair = list(rng.choice(DEEP_PAIRS))
    rng.shuffle(pair)
    return [families.get_identity(name) for name in pair]


def oracle_sets() -> list:
    """The first rule sets acceptance criterion 7 draws: 1-3 rules,
    A 1-2, B 1-3, D 1-6, zeros 0-2, from random.Random(421).

    The draw and its order are fixed, whatever the seed.  One set can
    cost 20 times another on the brute route, so a fresh draw per seed
    moved the timed phase by a factor of two between seeds; and the
    first set pays the cold partitions_of and kth_flattest fills, so a
    seeded order moved item_p50 between 245 and 350 ms."""
    rng = random.Random(421)
    sets = []
    for _ in range(ORACLE_SETS):
        rules = []
        for _ in range(rng.randrange(1, 4)):
            b = rng.randrange(1, 4)
            d = rng.randrange(1, 7)
            rules.append("%d:%d:%d:%d" % (rng.randrange(1, 3), b,
                                          rng.randrange(d), d))
        sets.append(flatpart.parse_condition_set(";".join(rules),
                                                 zeros=rng.randrange(0, 3)))
    return sets


def setup_oracle(rng):
    return oracle_sets()


SETUP = {"screen": setup_screen, "verify": setup_verify,
         "deep": setup_deep, "oracle": setup_oracle}


# ---------------------------------------------------------- timed phase

def run_screen(inputs, out: Outcome):
    bounds, want = inputs
    screen = search.screen_condition_set

    def timed(*args):
        start = time.perf_counter()
        try:
            return screen(*args)
        finally:
            out.item(start)

    search.screen_condition_set = timed
    try:
        reports = search.search(bounds)
    finally:
        search.screen_condition_set = screen
    out.check(digest(search.reports_to_json(reports)) == want,
              "report digest of box %s" % bounds.to_json().replace("\n", ""))
    out.size = {"bounds": json.loads(bounds.to_json()),
                "sets": len(out.items), "hits": len(reports)}


def run_verify(names, out: Outcome):
    listed = verify.registered_names
    verify.registered_names = lambda: list(names)
    try:
        start = time.perf_counter()
        for report in verify.verify_all(VERIFY_ORDER):
            out.item(start)
            out.check(report.passed, str(report))
            start = time.perf_counter()
    finally:
        verify.registered_names = listed
    out.size = {"identities": len(names), "order": VERIFY_ORDER}


def run_deep(idents, out: Outcome):
    for ident in idents:
        start = time.perf_counter()
        count = ident.count_series(DEEP_ORDER)
        product = ident.product_series(DEEP_ORDER)
        fac = euler.euler_exponents(count)
        out.item(start)
        out.check(deep_ok(count, product, fac.exponents, ident.product),
                  "%s to order %d" % (ident.name, DEEP_ORDER))
    out.size = {"identities": [i.name for i in idents], "order": DEEP_ORDER}


def run_oracle(sets, out: Outcome):
    for cs in sets:
        start = time.perf_counter()
        fast = counting.sum_series_dp(cs, ORACLE_ORDER)
        slow = counting.sum_series_brute(cs, ORACLE_ORDER)
        out.item(start)
        out.check(series_agree(fast, slow), "%s +%dz" % (cs.render(), cs.zeros))
    out.size = {"sets": ["%s +%dz" % (cs.render(), cs.zeros) for cs in sets],
                "order": ORACLE_ORDER}


RUN = {"screen": run_screen, "verify": run_verify,
       "deep": run_deep, "oracle": run_oracle}


# --------------------------------------------------------------- tracing

def install_spans(tracer: Tracer):
    """Spans around the public functions each workload reaches, rebound
    in the module that calls them.  kth_flattest and satisfies run
    millions of times, so they are read through counters instead."""
    counters = tracer.counters
    order_arg = lambda args, kwargs: args[1]
    p = partition_numbers(counting.BRUTE_CEILING)

    def hits(args, kwargs, result):
        counters["search.hits"] += len(result)

    def passes(args, kwargs, result):
        counters["euler.exponent_passes"] += sum(abs(c) for c in result.exponents)

    def examined(args, kwargs, result):
        counters["counting.brute_partitions_examined"] += sum(p[:args[1] + 1])

    tracer.rebind(search, "search", "search.search", on_return=hits)
    tracer.rebind(search, "enumerate_condition_sets", "search.enumerate")
    tracer.rebind(search, "screen_condition_set", "search.screen")
    for module in (search, families, counting):
        tracer.rebind(module, "sum_series_dp", "counting.dp", arg=order_arg)
    tracer.rebind(counting, "sum_series_brute", "counting.brute",
                  arg=order_arg, on_return=examined)
    for module in (search, euler):
        tracer.rebind(module, "euler_exponents", "euler.exponents",
                      on_return=passes)
    tracer.rebind(search, "detect_period", "euler.detect_period")
    tracer.rebind(series, "product_series", "series.product_series")
    tracer.rebind(families, "count_by_predicate", "families.count_by_predicate")


def layer_metrics(tracer: Tracer, calibration: list) -> dict:
    """Per-layer counts, and raw self times without the calibration
    slices that ran inside the spans."""
    def key(name, arg):
        if name == "counting.dp":
            return "counting.dp_int64" if arg <= INT64_ORDER else "counting.dp_object"
        return name

    def duration(start_ns, end_ns):
        start, end = start_ns / 1e9, end_ns / 1e9
        return end - start - sum(d for at, d in calibration if start <= at < end)

    own = tracer.self_times(key, duration)
    c = tracer.counters
    sets = c["search.screen.calls"]
    kth = KTH.cache_info()
    return {
        "search.enumerate_s": own["search.enumerate"],
        "search.screen_s": own["search.screen"],
        "search.sets": sets,
        "search.hits": c["search.hits"],
        "search.hit_ratio": c["search.hits"] / sets if sets else 0.0,
        "counting.dp_calls": c["counting.dp.calls"],
        "counting.dp_cache_hits": DP.cache_info().hits,
        "counting.dp_int64_s": own["counting.dp_int64"],
        "counting.dp_object_s": own["counting.dp_object"],
        "counting.brute_s": own["counting.brute"],
        "counting.brute_partitions_examined":
            c["counting.brute_partitions_examined"],
        "partitions.kth_flattest_hits": kth.hits,
        "partitions.kth_flattest_misses": kth.misses,
        "partitions.kth_flattest_hit_ratio":
            kth.hits / (kth.hits + kth.misses) if kth.hits + kth.misses else 0.0,
        "partitions.partitions_of_entries": PARTS.cache_info().currsize,
        "euler.exponents_s": own["euler.exponents"],
        "euler.detect_period_s": own["euler.detect_period"],
        "euler.exponent_passes": c["euler.exponent_passes"],
        "series.product_series_s": own["series.product_series"],
        "families.count_by_predicate_s": own["families.count_by_predicate"],
    }


# ------------------------------------------------------------------ main

def calibration_slice() -> float:
    """Seconds for a fixed mix of interpreter and small-numpy work that
    uses no flatpart code, so that only the machine's speed moves it."""
    start = time.perf_counter()
    p = [1] + [0] * 300
    for part in range(1, 301):
        for n in range(part, 301):
            p[n] += p[n - part]
    slots = {}
    small = numpy.arange(32, dtype=numpy.int64)
    exact = numpy.array(p[-32:], dtype=object)
    for i in range(1500):
        slot = slots.get((i % 5, i % 7))
        if slot is None:
            slot = slots[(i % 5, i % 7)] = numpy.zeros(32, dtype=numpy.int64)
        slot[i % 3:] += small[:32 - i % 3]
        exact[1:] = exact[1:] + exact[:-1] - exact[1:]
    return time.perf_counter() - start


def cold_start_guard():
    """A repetition is valid only if no flatpart cache has been used
    before its timed phase."""
    if DP.cache_info().hits != 0 or KTH.cache_info().currsize != 0:
        raise RuntimeError("flatpart caches are warm before the timed phase: "
                           "sum_series_dp %s, kth_flattest %s"
                           % (DP.cache_info(), KTH.cache_info()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    inputs = SETUP[args.workload](random.Random(args.seed))
    ready = time.monotonic()

    cold_start_guard()
    tracer = None
    if args.trace:
        tracer = Tracer("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        install_spans(tracer)
    out = Outcome()
    for _ in range(CALIBRATION_BRACKET):
        out.calibrate()
    signal.signal(signal.SIGALRM, out.calibrate)
    signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S,
                     CALIBRATION_PERIOD_S)
    start = time.perf_counter()
    try:
        RUN[args.workload](inputs, out)
    finally:
        phase = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer:
            tracer.restore()
    for _ in range(CALIBRATION_BRACKET):
        out.calibrate()

    result = {
        "ready": ready,
        "phase_s": phase,
        "calibration": [(at - start, d) for at, d in out.calibration],
        "items": [(a - start, b - start) for a, b in out.items],
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures[:10],
        "size": out.size,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, out.calibration)
        result["spans"] = tracer.export()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
