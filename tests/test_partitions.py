"""Partition primitives: enumeration, the flatness order, conjugation."""

import importlib
import pkgutil
from itertools import combinations_with_replacement

import pytest

import flatpart
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


def cache_inventory() -> dict:
    """Every module-level cache in the package, by module.name; __main__
    is skipped because importing it runs the CLI."""
    cached = {}
    for info in pkgutil.iter_modules(flatpart.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module("flatpart." + info.name)
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                cached["%s.%s" % (info.name, name)] = obj
    return cached


def test_caches_are_bounded():
    # every cache has a bound, never an unbounded store
    cached = {name: obj.cache_info().maxsize for name, obj in cache_inventory().items()}
    assert {"automaton.automaton_rows", "partitions.kth_flattest",
            "automaton.minimal_automaton"} <= set(cached)
    assert [name for name, maxsize in cached.items() if maxsize is None] == []


# one call per cached name the package exports, every integer argument 1
PUBLIC_CACHED_CALLS = {
    "kth_flattest": (1, 1, 1),
    "partitions_of": (1, 1),
    "sum_series_dp": (flatpart.parse_condition_set("1:2:1:2"), 1),
}


def test_public_caches_check_before_the_cache():
    # a cache keys True as 1, so a check behind it lets True through once
    # 1 is cached: each integer argument must refuse True with 1 cached
    public = {name.split(".")[1] for name, obj in cache_inventory().items()
              if getattr(flatpart, name.split(".")[1], None) is obj}
    assert public == set(PUBLIC_CACHED_CALLS)
    for name, args in PUBLIC_CACHED_CALLS.items():
        call = getattr(flatpart, name)
        call(*args)
        for i in [i for i, v in enumerate(args) if type(v) is int]:
            with pytest.raises(PreconditionViolated):
                call(*args[:i], True, *args[i + 1:])


def test_partition_cache_is_bounded_by_partitions_held():
    # p(0) + ... + p(50) is 1,295,971 partitions, p(0) + ... + p(40) is
    # 215,308; the cache holds at most maxsize of them at every step
    for n in range(51):
        assert len(partitions_of(n)) > 0
        info = partitions_of.cache_info()
        assert 215308 <= info.maxsize < 1295971 // 4
        assert info.currsize <= info.maxsize
    # the oldest results made room for the newest, so p(40) is enumerated
    # again
    partitions_of(40)
    assert partitions_of.cache_info().misses == info.misses + 1


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
