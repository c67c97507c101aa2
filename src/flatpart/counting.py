"""Exact counting of partitions obeying a window condition set.

Two independent routes are provided on purpose.  sum_series_brute, the
reference oracle, is a pruned literal enumeration: it reads every window
with matches_at and drops a partial partition at its first forbidden
window.  It shares no table, profile or walk with the DP, and refuses
orders above BRUTE_CEILING.
sum_series_dp walks part values from the largest allowed down to 1,
choosing the multiplicity of each value, and keeps only as much state
as the rules can see: the multiplicities of the last few values, each
capped just above the widest window.  The forbidden windows are listed
once per call from their totals (a rule's window of total t is its
k-th flattest pattern of t), and the profile spans the widest of them
among parts <= the largest part, so the capped profile decides every
rule exactly.  A smallest-part bound adds one check per value below it,
which any copy of the value completes.  The DP is compared against the
brute oracle in the test suite.

Only the last step, the fictitious zeros below the smallest part, reads
the zero count.  So the walk itself (_walk) is cached by the rules, the
order and the part bounds, in a bounded lru_cache of 128 entries, and
it ends with one row per zero count 0..cap; sum_series_dp picks its
row.  A search box that tries several zero counts on one rule set, as
every box does, walks once for all of them.

Each profile's series is one Python int (Kronecker substitution):
coefficient n sits in bits [n*b, (n+1)*b), b the bit length of p(order).
Every count the DP stores is a number of distinct partitions of its
weight, so it lies in [0, p(order)] < 2**b and never carries into the
next field.  Multiplying by q**k is a shift by k*b bits and truncating
past order is a mask, so the counts stay exact Python ints at every
order.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache
from typing import Callable

from .conditions import ConditionSet, matches_at
from .errors import CeilingExceeded
from .partitions import kth_flattest, partitions_of
from .series import IntSeries, ProductSpec, product_series, require_order

BRUTE_CEILING = 60


def _under_ceiling(order: int) -> int:
    if require_order(order) > BRUTE_CEILING:
        raise CeilingExceeded("brute enumeration capped at order %d, asked for %d"
                              % (BRUTE_CEILING, order))
    return order


def count_by_predicate(pred: Callable, order: int) -> IntSeries:
    """Count the partitions of 0..order that pass `pred`, by enumeration,
    up to order BRUTE_CEILING (read at call time)."""
    return IntSeries([sum(1 for p in partitions_of(n) if pred(p))
                      for n in range(_under_ceiling(order) + 1)])


def sum_series_brute(cs: ConditionSet, order: int) -> IntSeries:
    """Count satisfying partitions of 0..order by pruned literal
    enumeration, up to order BRUTE_CEILING (read at call time).

    Parts are added largest first, each in cs.min_part..the part before
    it.  The windows ending at a new part never change after it, so the
    first that matches drops every extension; a prefix counts once the
    windows running into its fictitious zeros pass too.  Memory is
    O(order): nothing is cached."""
    counts = [0] * (_under_ceiling(order) + 1)
    parts, zeros = [], [0] * cs.zeros

    def clean(padded, last):
        """No rule matches a window of padded that ends at index >= last."""
        for r in cs.rules:
            for i in range(max(last - r.width + 1, 0), len(padded) - r.width + 1):
                if matches_at(r, padded[i:i + r.width]):
                    return False
        return True

    def grow(total, top):
        if clean(parts + zeros, len(parts)):
            counts[total] += 1
        for part in range(min(top, order - total), cs.min_part - 1, -1):
            parts.append(part)
            if clean(parts, len(parts) - 1):
                grow(total + part, part)
            parts.pop()

    grow(0, order)
    return IntSeries(counts)


def _window_table(rules, start: int):
    """Every forbidden window among parts <= start, as checks grouped by
    bottom value, and the widest spread w[0] - w[-1] among them.

    A window of rule A:B:C:D is fixed by its total t: it is
    kth_flattest(A, B, t).  A window whose parts are all <= start has
    t <= B*start, and the all-zero window (t = 0) is exempt, so walking
    t = 1..B*start lists each window that can occur exactly once.  A
    bottom value of 0 means the window ends in fictitious zeros.

    A check (c0, eq, ge) with bottom value v says the window occurs iff
    the multiplicity of v is >= c0, the profile slots in eq (slot i holds
    the multiplicity of v+1+i) hold exactly the stated count, and the
    slots in ge hold at least it."""
    table = defaultdict(list)
    span = 0
    for rule in rules:
        for t in range(1, rule.width * start + 1):
            if not rule.sum_matches(t):
                continue
            w = kth_flattest(rule.flatness_index, rule.width, t)
            if w is None or w[0] > start:
                continue
            counts = Counter(x - w[-1] for x in w)
            top = w[0] - w[-1]
            eq = tuple((u - 1, counts[u]) for u in range(1, top))
            ge = ((top - 1, counts[top]),) if top > 0 else ()
            table[w[-1]].append((counts[0], eq, ge))
            span = max(span, top)
    return table, span


def _profile_ok(prof, eq, ge) -> bool:
    for i, val in eq:
        if prof[i] != val:
            return False
    for i, val in ge:
        if prof[i] < val:
            return False
    return True


def _lowest_completion(prof, checks, more: int) -> int:
    """Smallest multiplicity of the bottom value that completes one of
    these windows over the profile, or `more` when none does."""
    lowest = more
    for c0, eq, ge in checks:
        if c0 < lowest and _profile_ok(prof, eq, ge):
            lowest = c0
    return lowest


@lru_cache(maxsize=16)
def _field_bits(order: int) -> int:
    """Bits per packed coefficient: p(order) < 2**b bounds every count."""
    return product_series(ProductSpec(1, {0: 1}), order)[order].bit_length()


@lru_cache(maxsize=128)
def _walk(rules: tuple, order: int, largest_part: int | None,
          min_part: int) -> tuple:
    """The value walk of sum_series_dp, shared by every zero count.

    Returns cap+1 packed series, cap the widest rule's width: row mu0
    holds the partitions that no window forbids when mu0 fictitious
    zeros sit below the smallest part, coefficient n in bits
    [n*b, (n+1)*b) with b = _field_bits(order)."""
    cap = ConditionSet(rules).max_width()
    more = cap + 1  # capped multiplicity meaning "more than any window uses"
    start = order if largest_part is None else min(order, largest_part)
    windows, window_span = _window_table(rules, start)
    for v in range(1, min(min_part, start + 1)):
        windows[v].append((1, (), ()))  # any copy of v is one too many

    # No field carries into the next (see the module docstring), so a
    # zero int is a zero series and its profile is dropped exactly.
    b = _field_bits(order)
    width = (order + 1) * b
    mask = (1 << width) - 1
    dp = {(0,) * window_span: 1}

    for v in range(start, 0, -1):
        checks = windows.get(v, ())
        step = v * b
        ndp = defaultdict(int)
        for prof, vec in dp.items():
            lowest = _lowest_completion(prof, checks, more)
            for mu in range(min(cap, lowest - 1, order // v) + 1):
                ndp[((mu,) + prof)[:window_span]] += (vec << mu * step) & mask
            if lowest == more and more * v <= order:
                # vec * q**(more*v) / (1 - q**v), summed by doubling; each
                # partial sum still counts distinct partitions, so no carry
                tail, run = (vec << more * step) & mask, step
                while run < width:
                    tail += (tail << run) & mask
                    run <<= 1
                ndp[((more,) + prof)[:window_span]] += tail
        dp = {prof: vec for prof, vec in ndp.items() if vec}

    # fictitious zeros: one final batch of checks, no weight.  A profile
    # counts for mu0 zeros iff the fewest zeros completing a window over
    # it exceeds mu0.  Every check needs at most cap zeros, so more zeros
    # than that change nothing.  Each row sums a subset of the profiles,
    # as a single zero count's total would.
    checks = windows.get(0, ())
    rows = [0] * more
    for prof, vec in dp.items():
        for mu0 in range(_lowest_completion(prof, checks, more)):
            rows[mu0] += vec
    return tuple(rows)


@lru_cache(maxsize=128)
def sum_series_dp(cs: ConditionSet, order: int,
                  largest_part: int | None = None) -> IntSeries:
    """Exact counting series of satisfying partitions, parts at most
    largest_part when that is given.  Handles orders well beyond the
    brute ceiling (hundreds)."""
    rows = _walk(cs.rules, require_order(order), largest_part, cs.min_part)
    packed, b = rows[min(cs.zeros, len(rows) - 1)], _field_bits(order)
    field = (1 << b) - 1
    return IntSeries([packed >> n * b & field for n in range(order + 1)])
