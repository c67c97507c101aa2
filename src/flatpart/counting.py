"""Exact counting of partitions obeying a window condition set.

Two independent routes are provided on purpose.  sum_series_brute, the
reference oracle, is a pruned literal enumeration: a partial partition
reads each window it closes once, never one made only of zeros, and is
dropped at its first forbidden window.  A window is forbidden when it
lies in its width's table, built afresh at each call by
conditions.matching_windows from matches_at's definition: the windows
of weight at most the order that some rule of that width forbids, at
most order per rule.  The windows a prefix closes lie in its last
max(W - 1, 1) parts and the next part, W the widest width, so a suffix
table, also built per call, keeps for each distinct suffix whether its
windows into the zeros pass and which parts may follow it: at most one
entry per distinct suffix, each at most order parts, and SUFFIX_ENTRIES
in all.  It never holds a count, so every counted partition is still
visited once, and nothing of the call survives it.  The oracle reads
every rule of the set, and it shares no table, automaton or walk with
the DP; it stops above BRUTE_CEILING.

sum_series_dp chooses the multiplicity of every part value and counts
the choices that complete no forbidden window.  It reads only the
irredundant rules (ConditionSet.irredundant_rules): a rule that another
rule of the set implies forbids no window that rule does not, so
dropping it changes no series, and a set such as {x, y} with y implied
by x shares the automaton and the walk of {x}.  It counts on the minimal
automaton of the sum side (automaton.py), made once per rule set and
smallest-part bound and kept in the one automaton cache: the product of
its prefix's automaton and its last rule's when those are cached, else
built from the set's own window table.
The walk (automaton.automaton_rows) goes from the order down to 1.  A
period lemma shows that past a bound U that depends only on the rules,
the windows whose top value is u repeat at u + L, L the lcm of
D/gcd(B, D) over the rules.  So the automaton reads values by phase,
and at each value only the few classes of its phase are live.

Only the fictitious zeros below the smallest part read the zero count.
So the walk, automaton_rows, the only series cache (an lru_cache of 128),
ends with one row per zero count 0..cap, read at the class that the
start, class 0, reaches after that many zeros; packed_sum_series picks
its row, and sum_series_dp unpacks it.  A search box that tries several
zero counts on one rule set, as every box does, walks once for all of
them.

Each series the walk carries is one Python int (Kronecker substitution),
packed high-first: coefficient n sits in bits [(order-n)*b, (order-n+1)*b),
b the bit length of p(order) (partition_bits, by Euler's pentagonal
recurrence with no series expanded).  Every count stored is a number of
distinct partitions of its weight, so it lies in [0, p(order)] < 2**b and
never carries into the next field.  Multiplying by q**k is a right shift
by k*b bits that drops every coefficient it moves past the order, so no
mask is needed, no int outgrows (order+1)*b bits, and the counts stay
exact Python ints at every order.  The walk is compared against the
brute oracle in the test suite.

Since no field carries, Statement.first_mismatch compares the row
packed_sum_series returns with the packed product as two ints: equal
ints are equal series, and the highest bit of their XOR lies in the
field of the first split (series.first_split).  It unpacks nothing
unless a class exponent above 1 makes the product's fields wider.
"""

from __future__ import annotations

from typing import Callable

from .automaton import automaton_rows
from .conditions import ConditionSet, matching_windows
from .errors import CeilingExceeded, PreconditionViolated, require_type
from .partitions import partitions_of
from .series import IntSeries, partition_bits, require_order, unpack

BRUTE_CEILING = 60
# the most suffix entries sum_series_brute keeps at once; past it, an
# entry is worked out at each visit and dropped
SUFFIX_ENTRIES = 1 << 15


def _under_ceiling(order: int) -> int:
    if require_order(order) > BRUTE_CEILING:
        raise CeilingExceeded("brute enumeration capped at order %d, asked for %d"
                              % (BRUTE_CEILING, order))
    return order


def count_by_predicate(pred: Callable, order: int) -> IntSeries:
    """Count the partitions of 0..order that pass `pred`, by enumeration,
    up to order BRUTE_CEILING (read at call time)."""
    if not callable(pred):
        raise PreconditionViolated("a predicate must be callable, got %r" % (pred,))
    return IntSeries([sum(1 for p in partitions_of(n) if pred(p))
                      for n in range(_under_ceiling(order) + 1)])


def sum_series_brute(cs: ConditionSet, order: int) -> IntSeries:
    """Count satisfying partitions of 0..order by pruned literal
    enumeration, up to order BRUTE_CEILING (read at call time).

    Parts are added largest first, each in cs.min_part..the part before
    it.  A rule's window ending at a new part never changes after it, so
    the first that is forbidden drops every extension.  A prefix counts
    once its windows into the fictitious zeros pass too: its last k
    parts, then width - k >= 1 zeros; no window of zeros alone is read.
    Each window is one set lookup in its width's table, the union of
    matching_windows over the rules of that width.

    Both verdicts read only the prefix's suffix: its last max(W - 1, 1)
    parts, W the widest width, so at least the last part, which bounds
    the next.  The suffix table maps a suffix to whether its closing
    windows pass and the parts that may follow it, largest first, worked
    out at its first visit; a later prefix ending in it makes one lookup
    and tests only that each part fits the order.  A suffix is keyed as
    one int, its parts the digits in base order + 1.  No part is 0, so a
    shorter suffix, which is a whole prefix, has a key of its own; it is
    not kept, since no prefix is visited twice.  The table holds verdicts
    on windows, never a count, so every counted partition is still
    visited.  Both tables are built for this call only: O(order) windows
    per rule, and at most one entry per distinct suffix, each at most
    order parts, SUFFIX_ENTRIES entries in all.  Many suffixes share one
    entry, so a stored entry is interned through a third dict of this
    call, which holds only stored entries.  No object of the call refers
    to itself, so nothing survives it."""
    counts = [0] * (_under_ceiling(order) + 1)
    tables = {}
    for r in require_type(cs, ConditionSet, "cs").rules:
        found = matching_windows(r, order)
        tables[r.width] = tables[r.width] | found if r.width in tables else found
    by_width = list(tables.items())
    ends = [(table, w - z, (0,) * z) for w, table in by_width
            for z in range(1, min(w - 1, cs.zeros) + 1)]
    base = order + 1
    # the place of a full suffix's first part: suffix % first drops it
    first = base ** (max(cs.max_width() - 1, 1) - 1)
    suffixes, shared = {}, {}
    stack = [(0, 0)]
    while stack:
        suffix, total = stack.pop()
        entry = suffixes.get(suffix)
        if entry is None:
            entry = _suffix_entry(suffix, base, cs.min_part, by_width, ends)
            # a shorter suffix is a whole prefix, and every prefix is visited once
            if suffix >= first and len(suffixes) < SUFFIX_ENTRIES:
                suffixes[suffix] = shared.setdefault(entry, entry)
        closes, nexts = entry
        if closes:
            counts[total] += 1
        room = order - total
        head = suffix % first * base
        for part in nexts:
            if part <= room:
                stack.append((head + part, total + part))
    return IntSeries(counts)


def _suffix_entry(suffix: int, base: int, min_part: int,
                  by_width: list, ends: list) -> tuple:
    """(closes, nexts) for the prefixes that end in suffix, its parts the
    digits of an int in base order + 1 (the empty prefix is 0): whether
    its windows into the zeros pass, and the parts, largest first, that
    are at most its last, fit the order after it, are at least min_part
    and close no forbidden window."""
    parts = []
    while suffix:
        suffix, part = divmod(suffix, base)
        parts.append(part)
    parts = tuple(reversed(parts))
    n = len(parts)
    closes = not any(k <= n and parts[n - k:] + pad in table
                     for table, k, pad in ends)
    # each width's window ending at the next part, but for that part
    heads = [(parts[n + 1 - w:], table) for w, table in by_width if w <= n + 1]
    nexts = []
    top = min(parts[-1], base - 1 - sum(parts)) if parts else base - 1
    for part in range(top, min_part - 1, -1):
        last = (part,)
        for head, table in heads:
            if head + last in table:
                break
        else:
            nexts.append(part)
    return closes, tuple(nexts)


def packed_sum_series(cs: ConditionSet, order: int) -> tuple:
    """(row, b): the walk's row for cs.zeros, the counting series packed
    high-first in b-bit fields, b = partition_bits(order).  The walk
    reads the set's irredundant rules, where the brute oracle reads every
    rule; an implied rule has its implier's width, so the widest width,
    and with it the clamp of the zero count, stays.  The arguments are
    checked before the walk's cache is read, so an unhashable one is
    refused like any other."""
    order = require_order(order)
    rows = automaton_rows(require_type(cs, ConditionSet, "cs").irredundant_rules(),
                          order, cs.min_part)
    return rows[min(cs.zeros, len(rows) - 1)], partition_bits(order)


def sum_series_dp(cs: ConditionSet, order: int) -> IntSeries:
    """Exact counting series of satisfying partitions: packed_sum_series
    unpacked.  Handles orders well beyond the brute ceiling (hundreds)."""
    row, b = packed_sum_series(cs, order)
    return unpack(row, b, order)


# sum_series_dp keeps no cache of its own: these are the walk's statistics
sum_series_dp.cache_info = automaton_rows.cache_info
