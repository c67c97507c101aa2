"""Partition primitives: enumeration, the flatness order, conjugation."""

from itertools import combinations_with_replacement

import pytest

from flatpart.errors import PreconditionViolated
from flatpart.partitions import (as_partition, conjugate, flat_patterns,
                                 frequency_profile, kth_flattest,
                                 parse_partition, partitions_of,
                                 render_partition)

# the reference ordering of all 4-part patterns of 10, flattest first
FOUR_OF_TEN = [
    (3, 3, 2, 2), (3, 3, 3, 1), (4, 2, 2, 2), (4, 3, 2, 1), (4, 4, 1, 1),
    (5, 2, 2, 1), (5, 3, 1, 1), (6, 2, 1, 1), (7, 1, 1, 1),
]


def test_four_part_patterns_of_ten_in_flat_order():
    got = [p for p in flat_patterns(4, 10) if all(x > 0 for x in p)]
    assert got == FOUR_OF_TEN


def test_kth_flattest_indexes_from_one():
    assert kth_flattest(1, 4, 10) == (3, 3, 2, 2)
    assert kth_flattest(2, 4, 10) == (3, 3, 3, 1)
    assert kth_flattest(5, 2, 10) == (9, 1)
    assert kth_flattest(6, 2, 10) == (10, 0)
    assert kth_flattest(1, 1, 7) == (7,)


def test_kth_flattest_runs_out():
    assert kth_flattest(7, 2, 10) is None   # only (5,5) .. (10,0)
    assert kth_flattest(2, 1, 3) is None


def test_missing_pattern_is_cached():
    # a missing pattern is a cached answer, not an exception that makes
    # every later lookup enumerate the patterns again
    before = kth_flattest.cache_info()
    assert kth_flattest(2, 1, 12345) is None
    assert kth_flattest(2, 1, 12345) is None
    after = kth_flattest.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 1


def test_kth_flattest_matches_sorted_enumeration():
    # independent oracle: every weakly decreasing tuple, sorted, flattest first
    for width in range(1, 5):
        for total in range(15):
            patterns = sorted(
                tuple(reversed(c))
                for c in combinations_with_replacement(range(total + 1), width)
                if sum(c) == total)
            for k in range(1, 6):
                if k <= len(patterns):
                    assert kth_flattest(k, width, total) == patterns[k - 1]
                else:
                    assert kth_flattest(k, width, total) is None


def test_caches_are_bounded():
    # lru_cache wrappers with a bound, never an unbounded store
    assert partitions_of.cache_info().maxsize is not None
    assert kth_flattest.cache_info().maxsize is not None


def test_partition_counts_match_pentagonal_recurrence():
    # p(n) via Euler's pentagonal recurrence, independent of the enumerator
    p = [1]
    for n in range(1, 51):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p.append(total)
    for n in range(51):
        assert len(partitions_of(n)) == p[n]


def test_partitions_respect_max_part():
    for n in range(12):
        for cap in range(1, 8):
            subset = partitions_of(n, max_part=cap)
            assert subset == tuple(p for p in partitions_of(n)
                                   if not p or p[0] <= cap)


def test_conjugate_is_an_involution_and_transposes_stats():
    for n in range(26):
        for p in partitions_of(n):
            q = conjugate(p)
            assert sum(q) == n
            assert conjugate(q) == p
            if p:
                assert len(q) == p[0]
                assert q[0] == len(p)


def test_frequency_profile_counts_and_greater():
    prof = frequency_profile((5, 5, 3, 2, 2, 2))
    assert prof == {5: (2, 0), 3: (1, 2), 2: (3, 3)}
    assert frequency_profile(()) == {}


def test_render_and_parse_round_trip():
    assert render_partition((5, 3, 3, 1)) == "5,3,3,1"
    assert render_partition(()) == "-"
    assert parse_partition("5,3,3,1") == (5, 3, 3, 1)
    assert parse_partition("-") == ()
    for n in range(10):
        for p in partitions_of(n):
            assert parse_partition(render_partition(p)) == p


def test_partition_type_validates():
    assert as_partition([4, 2, 2]) == (4, 2, 2)
    assert as_partition(()) == ()
    # never repaired: unsorted, zero, negative or non-int parts are refused
    for bad in ((3, 4), (3, 0), (2, -1), (2.0, 1), ("2", "1"), 5):
        with pytest.raises(PreconditionViolated):
            as_partition(bad)
    with pytest.raises(PreconditionViolated):
        parse_partition("3,4")
