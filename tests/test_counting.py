"""Two independent counting routes for window-constrained partitions.

The brute route builds partitions part by part and drops a prefix at its
first forbidden window, read with the literal check.  The dynamic route
never sees a partition.  Their agreement on randomized condition sets is
the main correctness evidence for both.
"""

import random
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from flatpart import counting
from flatpart.conditions import (ConditionSet, condition_set,
                                 parse_condition_set, satisfies)
from flatpart.counting import (_walk, count_by_predicate, sum_series_brute,
                               sum_series_dp)
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
def wide_condition_sets(draw, fewest_rules=1):
    rules = []
    for _ in range(draw(st.integers(fewest_rules, 3))):
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

    assert (sum_series_dp(replace(cs, min_part=min_part), order, largest_part)
            == count_by_predicate(pred, order))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(wide_condition_sets(fewest_rules=0), st.integers(0, 22), st.integers(1, 3))
def test_pruned_brute_equals_the_definition(cs, order, min_part):
    # the pruned walk against filtering every partition with satisfies
    cs = replace(cs, min_part=min_part)
    assert sum_series_brute(cs, order) == count_by_predicate(partial(satisfies, cs),
                                                            order)


def test_brute_shares_nothing_with_the_dp_or_the_partition_cache(monkeypatch):
    cs = parse_condition_set("1:2:1:2;2:3:0:2 +2z")
    before = partitions_of.cache_info().currsize
    expected = sum_series_brute(cs, 30)
    assert partitions_of.cache_info().currsize == before
    assert expected == sum_series_dp(cs, 30)

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle reached a DP or enumeration helper")

    for name in ("_window_table", "_walk", "sum_series_dp", "partitions_of"):
        monkeypatch.setattr(counting, name, forbidden)
    assert sum_series_brute(cs, 30) == expected


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

            assert (count(ConditionSet(rules, zeros, min_part), order, largest_part)
                    == count_by_predicate(pred, order)), (cs, largest_part, min_part)
        assert _walk.cache_info().hits - hits >= 2 * (cap + 2)


def test_dp_is_exact_at_every_order():
    # 300/301 and 405/406 were route switches of earlier DPs (int64 to
    # object, one lane to prime lanes at p(405) < 2**63 <= p(406))
    ident = get_identity("MACMAHON")
    deep = sum_series_dp(ident.flat, 600)
    assert deep == product_series(ident.product, 600)
    for order in (300, 301, 405, 406):
        assert deep.truncate(order) == sum_series_dp(ident.flat, order)
    # no rules: the counts are p(n), and p(600) > 2**78
    free = sum_series_dp(condition_set([]), 600)
    assert free == product_series(ProductSpec(1, {0: 1}), 600)
    assert free[600] == 458004788008144308553622
    # p(order) = 2**b - 1 here: the top coefficient fills its field
    for order in (0, 1, 3, 5, 7):
        assert free[order] + 1 == 1 << free[order].bit_length()
        assert sum_series_dp(condition_set([]), order) == free.truncate(order)


def test_dp_matches_direct_filter():
    cs = parse_condition_set("1:2:1:2", zeros=1)
    dp = sum_series_dp(cs, 20)
    for n in range(21):
        direct = sum(1 for p in partitions_of(n) if satisfies(cs, p))
        assert dp[n] == direct


def test_brute_refuses_to_run_past_its_ceiling(monkeypatch):
    cs = parse_condition_set("1:2:1:2")
    with pytest.raises(CeilingExceeded):
        sum_series_brute(cs, 61)
    # the ceiling is read at call time, not bound as a default
    monkeypatch.setattr(counting, "BRUTE_CEILING", 10)
    sum_series_brute(cs, 10)
    with pytest.raises(CeilingExceeded):
        sum_series_brute(cs, 11)


def test_largest_part_bound():
    cs = parse_condition_set("1:2:1:2", zeros=1)
    capped = sum_series_dp(cs, 24, largest_part=5)
    for n in range(25):
        direct = sum(1 for p in partitions_of(n, max_part=5)
                     if satisfies(cs, p))
        assert capped[n] == direct


def test_min_part_bound():
    cs = parse_condition_set("1:2:0:1", zeros=0)
    floored = sum_series_dp(replace(cs, min_part=2), 24)
    for n in range(25):
        direct = sum(1 for p in partitions_of(n)
                     if (not p or p[-1] >= 2) and satisfies(cs, p))
        assert floored[n] == direct


def test_brute_route_honours_the_smallest_part_bound():
    rng = random.Random(612)
    for _ in range(12):
        cs = replace(random_condition_set(rng), min_part=rng.randrange(2, 4))
        assert sum_series_brute(cs, 24) == sum_series_dp(cs, 24), cs


def test_empty_partition_always_counts():
    cs = parse_condition_set("1:1:0:1", zeros=2)   # forbids every positive part
    dp = sum_series_dp(cs, 10)
    assert dp[0] == 1
