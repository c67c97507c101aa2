"""Two independent counting routes for window-constrained partitions.

The brute route enumerates partitions and filters.  The dynamic route never
sees a partition.  Their agreement on randomized condition sets is the main
correctness evidence for both.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from flatpart.conditions import (ConditionSet, condition_set,
                                 parse_condition_set, satisfies)
from flatpart.counting import (_lane_primes, _walk, count_by_predicate,
                               sum_series_brute, sum_series_dp)
from flatpart.errors import CeilingExceeded
from flatpart.families import get_identity
from flatpart.partitions import partitions_of
from flatpart.series import ProductSpec, product_series


def random_condition_set(rng):
    rules = []
    for _ in range(rng.randrange(1, 4)):
        b = rng.randrange(1, 4)
        d = rng.randrange(1, 7)
        c = rng.randrange(d)
        a = rng.randrange(1, 3)
        mode = rng.random() < 0.85
        text = "%d:%d:%d:%d" % (a, b, c, d) + ("" if mode else ":n")
        rules.append(text)
    return parse_condition_set(";".join(rules), zeros=rng.randrange(0, 3))


def test_dp_matches_brute_on_random_sets():
    rng = random.Random(2024)
    for _ in range(30):
        cs = random_condition_set(rng)
        order = 28
        assert sum_series_dp(cs, order) == sum_series_brute(cs, order)


@st.composite
def small_condition_sets(draw):
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 6))
        text = "%d:%d:%d:%d" % (draw(st.integers(1, 2)), draw(st.integers(1, 3)),
                                draw(st.integers(0, d - 1)), d)
        rules.append(text + ("" if draw(st.booleans()) else ":n"))
    return parse_condition_set(";".join(rules), zeros=draw(st.integers(0, 2)))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(small_condition_sets(), st.integers(0, 24))
def test_dp_matches_brute_property(cs, order):
    assert sum_series_dp(cs, order) == sum_series_brute(cs, order)


@st.composite
def wide_condition_sets(draw):
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 6))
        text = "%d:%d:%d:%d" % (draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                                draw(st.integers(0, d - 1)), d)
        rules.append(text + ("" if draw(st.booleans()) else ":n"))
    return parse_condition_set(";".join(rules), zeros=draw(st.integers(0, 5)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(wide_condition_sets(), st.integers(0, 24),
       st.none() | st.integers(0, 24), st.integers(1, 3))
def test_dp_matches_brute_with_part_bounds(cs, order, largest_part, min_part):
    top = order if largest_part is None else largest_part

    def pred(p):
        return all(min_part <= x <= top for x in p) and satisfies(cs, p)

    assert (sum_series_dp(cs, order, largest_part, min_part)
            == count_by_predicate(pred, order))


def test_zero_counts_share_one_walk():
    # every zero count after the first reads the walk of the first; the
    # uncached sum_series_dp reaches the walk cache on every call
    assert _walk.cache_info().maxsize is not None
    count = sum_series_dp.__wrapped__
    rng = random.Random(808)
    for _ in range(12):
        rules = []
        for _ in range(rng.randrange(1, 4)):
            d = rng.randrange(1, 7)
            rules.append("%d:%d:%d:%d" % (rng.randrange(1, 4), rng.randrange(1, 4),
                                          rng.randrange(d), d))
        rules = parse_condition_set(";".join(rules)).rules
        cap = max(r.width for r in rules)
        order = 20
        largest_part, min_part = rng.randrange(3, 12), rng.randrange(1, 4)
        hits = _walk.cache_info().hits
        for zeros in range(cap + 3):
            cs = ConditionSet(rules, zeros)
            assert count(cs, order) == sum_series_brute(cs, order), cs

            def pred(p, cs=cs):
                return (all(min_part <= x <= largest_part for x in p)
                        and satisfies(cs, p))

            assert (count(cs, order, largest_part, min_part)
                    == count_by_predicate(pred, order)), (cs, largest_part, min_part)
        assert _walk.cache_info().hits - hits >= 2 * (cap + 2)


def test_dp_is_exact_across_lane_boundaries():
    # p(405) < 2**63 <= p(406): lane 0 alone through order 405, one prime
    # lane from 406 to 600.  300/301 was the old int64/object switch.
    assert _lane_primes(405) == () and len(_lane_primes(406)) == 1
    assert len(_lane_primes(600)) == 1
    ident = get_identity("MACMAHON")
    deep = sum_series_dp(ident.flat, 600)
    assert deep == product_series(ident.product, 600)
    for order in (300, 301, 405, 406):
        assert deep.truncate(order) == sum_series_dp(ident.flat, order)
    # no rules: the counts are p(n), and p(600) > 2**78 needs the CRT
    free = sum_series_dp(condition_set([]), 600)
    assert free == product_series(ProductSpec(1, {0: 1}), 600)
    assert free[600] == 458004788008144308553622


def test_dp_matches_direct_filter():
    cs = parse_condition_set("1:2:1:2", zeros=1)
    dp = sum_series_dp(cs, 20)
    for n in range(21):
        direct = sum(1 for p in partitions_of(n) if satisfies(cs, p))
        assert dp[n] == direct


def test_brute_refuses_to_run_past_its_ceiling():
    cs = parse_condition_set("1:2:1:2")
    with pytest.raises(CeilingExceeded):
        sum_series_brute(cs, 61)
    sum_series_brute(cs, 10, ceiling=10)
    with pytest.raises(CeilingExceeded):
        sum_series_brute(cs, 11, ceiling=10)


def test_largest_part_bound():
    cs = parse_condition_set("1:2:1:2", zeros=1)
    capped = sum_series_dp(cs, 24, largest_part=5)
    for n in range(25):
        direct = sum(1 for p in partitions_of(n, max_part=5)
                     if satisfies(cs, p))
        assert capped[n] == direct


def test_min_part_bound():
    cs = parse_condition_set("1:2:0:1", zeros=0)
    floored = sum_series_dp(cs, 24, min_part=2)
    for n in range(25):
        direct = sum(1 for p in partitions_of(n)
                     if (not p or p[-1] >= 2) and satisfies(cs, p))
        assert floored[n] == direct


def test_empty_partition_always_counts():
    cs = parse_condition_set("1:1:0:1", zeros=2)   # forbids every positive part
    dp = sum_series_dp(cs, 10)
    assert dp[0] == 1
