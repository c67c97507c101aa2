"""Two independent counting routes for window-constrained partitions.

The brute route builds partitions part by part and drops a prefix at its
first forbidden window, read with the literal check.  The dynamic route
never sees a partition.  Their agreement on randomized condition sets is
the main correctness evidence for both.
"""

import gc
import random
import tracemalloc
import weakref
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from flatpart import automaton, conditions, counting
from flatpart.automaton import _build, automaton_rows, minimal_automaton
from flatpart.conditions import (CONGRUENT, NOT_CONGRUENT, ConditionSet, FlatRule,
                                 condition_set, matching_windows,
                                 parse_condition_set, satisfies)
from flatpart.counting import (count_by_predicate, sum_series_brute,
                               sum_series_dp)
from flatpart.errors import CeilingExceeded
from flatpart.families import get_identity
from flatpart.partitions import partitions_of
from flatpart.series import (IntSeries, ProductSpec, partition_bits,
                             product_series)


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
# largest part 0: the empty partition only
@example(parse_condition_set("1:2:1:2"), 5, 0, 1)
def test_dp_matches_brute_with_part_bounds(cs, order, largest_part, min_part):
    top = order if largest_part is None else largest_part

    def pred(p):
        return all(min_part <= x <= top for x in p) and satisfies(cs, p)

    assert (sum_series_dp(replace(cs, min_part=min_part), order, largest_part)
            == count_by_predicate(pred, order))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(wide_condition_sets(fewest_rules=0), st.integers(0, 22), st.integers(1, 3))
# the slowest oracle set, whose 2:1 rule can never fire
@example(parse_condition_set("2:1:1:4;2:2:1:2 +2z"), 20, 1)
# more zeros than any rule is wide
@example(parse_condition_set("1:3:0:1;2:2:1:2 +5z"), 20, 2)
# every rule of width 1: a suffix of no parts would lose the bound that
# the last part puts on the next
@example(parse_condition_set("1:1:0:2;2:1:1:3;1:1:2:3 +2z"), 22, 1)
def test_pruned_brute_equals_the_definition(cs, order, min_part):
    # the pruned walk against filtering every partition with satisfies
    cs = replace(cs, min_part=min_part)
    assert sum_series_brute(cs, order) == count_by_predicate(partial(satisfies, cs),
                                                            order)


def automaton_series(cs, order, largest_part=None):
    """sum_series_dp's series counted on the automaton, past every cache
    of counting."""
    start = order if largest_part is None else min(order, largest_part)
    b = partition_bits(order)
    rows = automaton_rows.__wrapped__(cs.rules, order, start, cs.min_part)
    packed = rows[min(cs.zeros, len(rows) - 1)]
    # packed high-first: coefficient n in bits [(order-n)*b, (order-n+1)*b)
    return IntSeries([packed >> (order - n) * b & (1 << b) - 1
                      for n in range(order + 1)])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(wide_condition_sets(), st.integers(0, 40), st.integers(1, 3))
def test_automaton_matches_brute(cs, order, min_part):
    cs = replace(cs, min_part=min_part)
    assert automaton_series(cs, order) == sum_series_brute(cs, order)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(wide_condition_sets(), st.integers(0, 24), st.integers(0, 24),
       st.integers(1, 3))
def test_automaton_matches_brute_with_a_largest_part(cs, order, largest_part,
                                                     min_part):
    cs = replace(cs, min_part=min_part)

    def pred(p):
        return all(x <= largest_part for x in p) and satisfies(cs, p)

    assert (automaton_series(cs, order, largest_part)
            == count_by_predicate(pred, order))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(wide_condition_sets(fewest_rules=0), st.integers(1, 3))
# a rule that forbids every part makes the bound's own first phase too
# late for the set: the product must place it on the union of checks
@example(parse_condition_set("1:1:0:1"), 3)
def test_product_automaton_equals_the_direct_build(cs, min_part):
    direct, product = _build(cs.rules, min_part), minimal_automaton(cs.rules, min_part)
    assert ((len(product.moves), product.first, product.period, product.more)
            == (len(direct.moves), direct.first, direct.period, direct.more))
    order = 24
    rows = automaton_rows(cs.rules, order, order, min_part)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(automaton, "minimal_automaton", lambda *_: direct)
        assert automaton_rows.__wrapped__(cs.rules, order, order, min_part) == rows


@st.composite
def sets_with_implied_rules(draw):
    """One to two rules x, each with a rule y of its own A and B that x
    implies, and at most one other rule; some zeros and a smallest part."""
    rules = []
    for _ in range(draw(st.integers(1, 2))):
        a, b, d = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
        # x:n with D = 1 fires on no total and implies only itself
        mode = draw(st.sampled_from((CONGRUENT, NOT_CONGRUENT) if d > 1 else (CONGRUENT,)))
        x = FlatRule(a, b, draw(st.integers(0, d - 1)), d, mode)
        implied = [y for e in range(1, 2 * d + 1) for c in range(e)
                   for y in (FlatRule(a, b, c, e), FlatRule(a, b, c, e, NOT_CONGRUENT))
                   if y != x and x.implies(y)]
        rules += [x, draw(st.sampled_from(implied))]
    rules += draw(st.lists(wide_condition_sets().map(lambda cs: cs.rules[0]),
                           max_size=1))
    return ConditionSet(tuple(rules), draw(st.integers(0, 4)), draw(st.integers(1, 3)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(sets_with_implied_rules())
# two rules that forbid the same totals: one of them stays
@example(parse_condition_set("1:2:1:2:n;1:2:0:2;2:3:1:3", zeros=1))
def test_dropping_implied_rules_changes_no_series(cs):
    # the DP counts on the irredundant rules; the automaton of every rule
    # and the brute oracle read them all
    assert cs.irredundant_rules() != cs.rules
    assert sum_series_dp(cs, 60) == automaton_series(cs, 60)
    assert sum_series_dp(cs, 30) == sum_series_brute(cs, 30)


def test_brute_shares_nothing_with_the_dp_or_the_partition_cache(monkeypatch):
    cs = parse_condition_set("1:2:1:2;2:3:0:2 +2z")
    before = partitions_of.cache_info().currsize
    expected = sum_series_brute(cs, 30)
    assert partitions_of.cache_info().currsize == before
    assert expected == sum_series_dp(cs, 30)

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle reached a DP or enumeration helper")

    for name in ("sum_series_dp", "partitions_of", "automaton_rows",
                 "count_by_predicate"):
        monkeypatch.setattr(counting, name, forbidden)
    for name in ("_checks_by_top", "minimal_automaton", "automaton_rows"):
        monkeypatch.setattr(automaton, name, forbidden)
    # the definition the pruned walk is tested against stays out of it
    monkeypatch.setattr(conditions, "satisfies", forbidden)
    assert sum_series_brute(cs, 30) == expected


@pytest.mark.parametrize("text", ["1:2:1:2 +3z", "2:1:1:4;2:2:1:2 +2z",
                                  "1:3:0:1;2:2:1:2 +5z"])
def test_brute_reads_only_real_windows(monkeypatch, text):
    # every window the oracle reads is as wide as its table and holds a
    # part: all-zero windows can never match, so reading one is waste
    cs = parse_condition_set(text)
    expected = sum_series_brute(cs, 20)
    read = []

    class Recording(frozenset):
        def __contains__(self, window):
            read.append((self.width, window))
            return frozenset.__contains__(self, window)

    def spy(rule, order):
        table = Recording(matching_windows(rule, order))
        table.width = rule.width
        return table

    monkeypatch.setattr(counting, "matching_windows", spy)
    assert sum_series_brute(cs, 20) == expected
    assert read and all(len(w) == width and sum(w) > 0 for width, w in read)


def test_brute_leaves_nothing_alive_after_the_call(monkeypatch):
    # the window tables and the suffix table's entries die at return,
    # without the cyclic collector: the call makes no reference cycle
    cs = parse_condition_set("1:2:1:2;2:3:0:2 +2z")
    tables, entries = [], []
    suffix_entry = counting._suffix_entry

    class Table(frozenset):
        pass

    class Entry(list):
        pass

    def table_spy(rule, order):
        table = Table(matching_windows(rule, order))
        tables.append(weakref.ref(table))
        return table

    def entry_spy(*args):
        entry = Entry(suffix_entry(*args))
        entries.append(weakref.ref(entry))
        return entry

    monkeypatch.setattr(counting, "matching_windows", table_spy)
    monkeypatch.setattr(counting, "_suffix_entry", entry_spy)
    expected = sum_series_dp(cs, 30)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert sum_series_brute(cs, 30) == expected
        assert len(tables) == len(cs.rules) and entries
        assert all(ref() is None for ref in tables + entries)
    finally:
        if enabled:
            gc.enable()


# the slowest set of the brute's tests: four parts wide, three of them in
# each suffix
CEILING_SET = "1:4:0:1;2:4:1:2 +2z"


def test_brute_agrees_with_the_dp_at_its_ceiling():
    cs = parse_condition_set(CEILING_SET)
    assert sum_series_brute(cs, counting.BRUTE_CEILING) == sum_series_dp(
        cs, counting.BRUTE_CEILING)


def test_brute_memory_stays_bounded_at_its_ceiling():
    # the suffix table holds one entry per distinct suffix, each at most
    # order parts; at the ceiling the call peaks at 0.9-1.3 MB
    cs = parse_condition_set(CEILING_SET)
    tracemalloc.start()
    try:
        sum_series_brute(cs, counting.BRUTE_CEILING)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("limit", [0, 5])
def test_brute_past_its_suffix_limit_counts_the_same(monkeypatch, limit):
    # past SUFFIX_ENTRIES an entry is worked out at each visit and dropped
    cs = parse_condition_set("1:2:1:2;2:3:0:2 +2z")
    expected = sum_series_brute(cs, 30)
    monkeypatch.setattr(counting, "SUFFIX_ENTRIES", limit)
    assert sum_series_brute(cs, 30) == expected


def test_zero_counts_share_one_walk():
    # every zero count after the first reads the walk of the first;
    # sum_series_dp keeps no cache of its own and reads the walk's
    assert automaton_rows.cache_info().maxsize is not None
    count = sum_series_dp
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
        hits = automaton_rows.cache_info().hits
        for zeros in range(cap + 3):
            cs = ConditionSet(rules, zeros)
            assert count(cs, order) == sum_series_brute(cs, order), cs

            def pred(p, cs=cs):
                return (all(min_part <= x <= largest_part for x in p)
                        and satisfies(cs, p))

            assert (count(ConditionSet(rules, zeros, min_part), order, largest_part)
                    == count_by_predicate(pred, order)), (cs, largest_part, min_part)
        assert automaton_rows.cache_info().hits - hits >= 2 * (cap + 2)


def test_walk_is_keyed_by_the_part_bound_it_reads():
    # no largest part and any largest part at or above the order read
    # parts up to the order, so they share one walk
    cs = parse_condition_set("1:2:1:2;2:3:0:2", zeros=1)
    automaton_rows.cache_clear()
    free = sum_series_dp(cs, 30)
    assert sum_series_dp(cs, 30, largest_part=30) == free
    assert sum_series_dp(cs, 30, largest_part=45) == free
    assert automaton_rows.cache_info().misses == 1


def test_dp_is_exact_at_every_order():
    # 300/301 and 405/406 were route switches of earlier DPs (int64 to
    # object, one lane to prime lanes at p(405) < 2**63 <= p(406))
    ident = get_identity("MACMAHON")
    deep = sum_series_dp(ident.flat, 600)
    assert deep == product_series(ident.product, 600)
    for order in (300, 301, 405, 406):
        assert deep.coeffs[:order + 1] == sum_series_dp(ident.flat, order).coeffs
    # every walk counts on the automaton: a sweep over largest parts
    # builds the set's product once (one entry per nonempty prefix of its
    # rules and one per later rule, in the one automaton cache) and reads
    # it from the cache after that
    ident = get_identity("FAM1_1_K3")
    rules, order = ident.flat.rules, 40
    product = product_series(ident.product, order)
    automaton.minimal_automaton.cache_clear()
    for j in range(1, order + 1):
        automaton_rows.__wrapped__(rules, order, j, 1)
    info = automaton.minimal_automaton.cache_info()
    assert (info.misses, info.hits) == (2 * len(rules) - 1, order - 1)
    for j in range(1, order + 1):
        capped = sum_series_dp(ident.flat, order, largest_part=j)
        # partitions of n <= j have no part above j
        assert capped.coeffs[:j + 1] == product.coeffs[:j + 1]
    assert capped == product
    # no rules: the counts are p(n), and p(600) > 2**78
    free = sum_series_dp(condition_set([]), 600)
    assert free == product_series(ProductSpec(1, {0: 1}), 600)
    assert free[600] == 458004788008144308553622
    # p(order) = 2**b - 1 here: the top coefficient fills its field
    for order in (0, 1, 3, 5, 7):
        assert free[order] + 1 == 1 << free[order].bit_length()
        assert sum_series_dp(condition_set([]), order).coeffs == free.coeffs[:order + 1]


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
