"""End-to-end acceptance: eight go/no-go checks, one summary line each.

Each test prints a single `criterion N: PASS/FAIL` line on the live
terminal (bypassing capture) and then asserts, so a red run still shows
exactly which gate broke.  Everything here is exact integer agreement;
there are no tolerances.
"""

import json
import random
import time

from flatpart.bijections import (alternating_sum_type, length_type,
                                 stockhofe_inverse, stockhofe_map,
                                 sylvester_map, verify_bijection,
                                 wrapper_inverse, wrapper_map, wrapper_spec)
from flatpart.conditions import parse_condition_set
from flatpart.counting import sum_series_brute, sum_series_dp
from flatpart.euler import euler_exponents
from flatpart.families import (count_by_predicate, get_identity,
                               registered_names)
from flatpart.overpartitions import (count_A, product_biseries,
                                     r_enumeration, r_series, specialize)
from flatpart.partitions import conjugate, partitions_of
from flatpart.recursions import verify_recursion
from flatpart.search import SearchBounds, search
from flatpart.series import product_from_exponents

CLASSICAL = (
    "RR1", "RR2", "MACMAHON", "ANDREWS_236", "SCHUR", "GG", "CAPPARELLI1",
    "GORDON_K2_I1", "GORDON_K2_I2",
    "GORDON_K3_I1", "GORDON_K3_I2", "GORDON_K3_I3",
    "GORDON_K4_I1", "GORDON_K4_I2", "GORDON_K4_I3", "GORDON_K4_I4",
    "BRESSOUD_K2_I1", "BRESSOUD_K3_I1", "BRESSOUD_K3_I2",
    "BRESSOUD_K4_I1", "BRESSOUD_K4_I2", "BRESSOUD_K4_I3",
    "MOD9_I1", "MOD9_I2", "MOD9_I3",
)

F2_ODD = (40, 23, 14, 14, 12, 11, 6, 6, 6, 5, 5)
F2_IMAGE = (20, 20, 7, 7, 7, 7, 7, 7, 7, 7, 7, 6, 6, 4,
            3, 3, 3, 3, 3, 3, 1, 1, 1, 1, 1)


def report(capsys, num, failures, text):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print("criterion %d: %s - %s" % (num, status, text))
    assert not failures, failures[:4]


def test_criterion_1_classical_regression(capsys):
    failures = []
    for name in CLASSICAL:
        ident = get_identity(name)
        prod40 = ident.product_series(40)
        brute = count_by_predicate(ident.sum_pred, 40)
        if brute != prod40:
            failures.append("%s brute/product split by n=40" % name)
        dp = ident.count_series(200)
        if dp != ident.product_series(200):
            failures.append("%s dp/product split by n=200" % name)
    report(capsys, 1, failures,
           "classical identities, brute to 40 and dp to 200")


def test_criterion_2_every_registered_instance(capsys):
    failures = []
    t0 = time.monotonic()
    for name in registered_names():
        ident = get_identity(name)
        if ident.count_series(200) != ident.product_series(200):
            failures.append("%s disagrees by n=200" % name)
    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        failures.append("sweep took %.1fs" % elapsed)
    report(capsys, 2, failures,
           "all %d registered identities exact (%.1fs)" % (
               len(registered_names()), elapsed))


def test_criterion_3_printed_recursions(capsys):
    failures = []
    for name in ("FAM1_1_K2", "FAM1_2_K2", "FAM1_3_K2", "NOT3MOD4",
                 "FAM8_MOD9_S04", "FAM8_MOD9_S05",
                 "FAM8_MOD9_S37", "FAM8_MOD9_S38"):
        rpt = verify_recursion(name, j_max=40, order=150)
        if not (rpt.passed and rpt.bases_ok):
            failures.append("%s mismatch at %s" % (name, rpt.first_mismatch))
    report(capsys, 3, failures, "registered recursions hold to order 150")


def test_criterion_4_bijections(capsys):
    failures = []
    spec = wrapper_spec("FAM2", 2)
    if wrapper_map(spec, F2_ODD) != F2_IMAGE:
        failures.append("worked example forward image changed")
    trace = {}
    if wrapper_inverse(spec, F2_IMAGE, trace=trace) != F2_ODD:
        failures.append("worked example inverse changed")
    expect = {
        "pi_1": (20, 20, 6, 6, 3, 3, 3, 3, 3, 3),
        "pi_2": (4,),
        "pi_3": (7, 7, 7, 7, 7, 7, 7, 7, 7, 1, 1, 1, 1, 1),
        "pi_1_prime": (20, 20, 7, 7, 7, 7, 6, 6, 3, 3, 3, 3, 3, 3),
        "pi_2_prime": (4,),
        "pi_3_prime": (7, 1),
        "pi_1_double_prime": (40, 14, 14, 12, 6, 6, 6),
        "mu": (7, 4, 1),
        "mu_prime": (7, 3, 1, 1),
        "mu_double_prime": (23, 11, 5, 5),
    }
    for key, value in expect.items():
        if trace.get(key) != value:
            failures.append("intermediate %s changed" % key)

    for family in ("FAM1_1", "FAM1_2", "FAM1_3", "FAM2", "FAM3", "FAM4",
                   "FAM5", "FAM6", "FAM7"):
        for k in (1, 2):
            rpt = verify_bijection(family, k, n_max=25)
            if not rpt.passed:
                failures.append("%s k=%d: %s" % (family, k, rpt.failure))

    # typed correspondence, exhaustively for both moduli
    for m in (2, 3):
        for n in range(1, 31):
            source = [p for p in partitions_of(n)
                      if all(x % m for x in p)]
            target = [p for p in partitions_of(n)
                      if all(p.count(x) < m for x in set(p))]
            images = [stockhofe_map(m, p) for p in source]
            if sorted(images) != sorted(target):
                failures.append("modulus %d classes differ at n=%d" % (m, n))
                break
            for p, q in zip(source, images):
                if length_type(p, m) != alternating_sum_type(q, m) or \
                        stockhofe_inverse(m, q) != p:
                    failures.append("modulus %d statistic broken at n=%d"
                                    % (m, n))
                    break
    report(capsys, 4, failures,
           "worked example bit-exact; maps verify to 25; types to 30")


def test_criterion_5_overpartition_theorem(capsys):
    failures = []
    for k in (2, 3, 4):
        if count_A(k, 25, 25) != product_biseries(k, 25, 25):
            failures.append("two-variable identity fails for k=%d" % k)
    for k in (2, 3):
        table = r_series(k, 20, 14, 5)
        for j in range(21):
            if table[j] != r_enumeration(k, j, 14, 5):
                failures.append("finite level j=%d drifts for k=%d" % (j, k))
                break
    for k in (2, 3):
        if specialize(k, -1, 2, 30) != \
                get_identity("FAM9_K%d" % k).count_series(30):
            failures.append("(-1,2) specialization misses Family 9, k=%d" % k)
        if specialize(k, 2 * k - 3, 2, 30) != \
                get_identity("AND1_K%d" % k).count_series(30):
            failures.append("(2k-3,2) specialization misses And1, k=%d" % k)
    for i in (0, 1, 2):
        if specialize(3, 2 * i - 1, 2, 25) != \
                get_identity("COR_K3_I%d" % i).count_series(25):
            failures.append("corner case i=%d splits" % i)
    report(capsys, 5, failures,
           "overpartition table, finitization, and specializations agree")


def test_criterion_6_search_rediscovers(capsys):
    failures = []
    t0 = time.monotonic()

    bounds = SearchBounds(max_rules=1, a_range=(1, 1), b_range=(1, 2),
                          d_range=(1, 6), zeros_range=(0, 1), n_check=25)
    hits = {(r.condition_set.render(), r.condition_set.zeros):
            r.verdict for r in search(bounds)}
    verdict = hits.get(("1:2:1:2", 1))
    if verdict is None:
        failures.append("consecutive-parts rule not emitted")
    elif verdict.period != 6 or verdict.exponents_dict() != \
            {0: 1, 1: 0, 2: 1, 3: 1, 4: 1, 5: 0}:
        failures.append("wrong verdict on the consecutive-parts rule")

    bounds5 = SearchBounds(max_rules=1, a_range=(1, 5), b_range=(3, 3),
                           d_range=(5, 5), zeros_range=(2, 2), n_check=25)
    found = {r.condition_set.render() for r in search(bounds5)
             if r.verdict.period == 5}
    missing = {"1:3:%d:5" % c for c in range(5)} - found
    if missing:
        failures.append("mod-5 candidates missing: %s" % sorted(missing))

    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        failures.append("search took %.1fs" % elapsed)
    report(capsys, 6, failures,
           "both discovery runs emit the expected candidates (%.1fs)"
           % elapsed)


def test_criterion_7_oracle_equivalence(capsys):
    failures = []
    rng = random.Random(421)
    for trial in range(25):
        rules = []
        for _ in range(rng.randrange(1, 4)):
            b = rng.randrange(1, 4)
            d = rng.randrange(1, 7)
            rules.append("%d:%d:%d:%d" % (rng.randrange(1, 3), b,
                                          rng.randrange(d), d))
        cs = parse_condition_set(";".join(rules),
                                 zeros=rng.randrange(0, 3))
        if sum_series_dp(cs, 35) != sum_series_brute(cs, 35):
            failures.append("routes split on %s +%dz" % (cs.render(),
                                                         cs.zeros))
    for trial in range(20):
        flat = [rng.randrange(-2, 3) for _ in range(40)]
        f = product_from_exponents(flat, 40)
        got = euler_exponents(f).exponents
        if list(got) != flat:
            failures.append("factorization trial %d not inverted" % trial)
    report(capsys, 7, failures,
           "dp equals brute on 25 sets; 20 factorizations invert")


def test_criterion_8_conjugate_duality(capsys):
    failures = []
    duals = [name for name in registered_names()
             if get_identity(name).conj_pred is not None]
    for name in duals:
        ident = get_identity(name)
        for n in range(31):
            sum_class = {p for p in partitions_of(n) if ident.sum_pred(p)}
            conj_class = {p for p in partitions_of(n) if ident.conj_pred(p)}
            if {conjugate(p) for p in sum_class} != conj_class:
                failures.append("%s breaks at n=%d" % (name, n))
                break
    report(capsys, 8, failures,
           "conjugation pairs the two classes for %d identities to n=30"
           % len(duals))
