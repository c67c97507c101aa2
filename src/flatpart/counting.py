"""Exact counting of partitions obeying a window condition set.

Two independent routes are provided on purpose.  sum_series_brute, the
reference oracle, is a pruned literal enumeration: it reads every window
with matches_at and drops a partial partition at its first forbidden
window.  It shares no table, profile, automaton or walk with the DP, and
refuses orders above BRUTE_CEILING.

sum_series_dp chooses the multiplicity of every part value and counts
the choices that complete no forbidden window.  The windows are listed
from their totals (a rule's window of total t is its k-th flattest
pattern of t), and every multiplicity is capped just above the widest
window, which decides every rule exactly.  A smallest-part bound adds
one check per value below it, which any copy of the value completes.
The DP counts by one of two walks, chosen by size (ROUTE_FACTOR):

- The profile walk (_profile_walk) goes from the largest allowed value
  down to 1 and carries every capped profile, the multiplicities of the
  last few values, that some partition reaches.  It lists the windows
  among parts <= the largest part on each call.
- The automaton walk (automaton.py) counts on the minimal automaton of
  the sum side, built once per rule set and smallest-part bound.  Its
  period lemma shows that past a bound U that depends only on the rules,
  the windows whose top value is u repeat at u + L, L the lcm of
  D/gcd(B, D) over the rules.  So the automaton reads values by phase,
  and its few classes per phase stand in for the many profiles.

Only the fictitious zeros below the smallest part read the zero count.
So the walk (_walk) is cached by the rules, the order and the part
bounds, in a bounded lru_cache of 128 entries, and it ends with one row
per zero count 0..cap; sum_series_dp picks its row.  A search box that
tries several zero counts on one rule set, as every box does, walks once
for all of them.

Each series the walks carry is one Python int (Kronecker substitution):
coefficient n sits in bits [n*b, (n+1)*b), b the bit length of p(order).
Every count stored is a number of distinct partitions of its weight, so
it lies in [0, p(order)] < 2**b and never carries into the next field.
Multiplying by q**k is a shift by k*b bits and truncating past order is
a mask, so the counts stay exact Python ints at every order.  Both
walks are compared against the brute oracle in the test suite.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from typing import Callable

from .automaton import _window_table, automaton_rows, period_bound
from .conditions import ConditionSet, matches_at
from .errors import CeilingExceeded, PreconditionViolated
from .partitions import partitions_of
from .series import IntSeries, ProductSpec, product_series, require_order

BRUTE_CEILING = 60
ROUTE_FACTOR = 1


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
    """The rows of sum_series_dp, shared by every zero count.

    Returns cap+1 packed series, cap the widest rule's width: row mu0
    holds the partitions that no window forbids when mu0 fictitious
    zeros sit below the smallest part, coefficient n in bits
    [n*b, (n+1)*b) with b = _field_bits(order).

    The size rule: count on the automaton when the largest allowed part
    is at least ROUTE_FACTOR * (U + L), U and L from
    automaton.period_bound, and walk the profiles otherwise.  Measured
    cold on 4,628 walks (the screen box, the registry and 300 random
    sets with A, B <= 4, at orders 8, 15, 30 and 60; Python 3.11 on a
    2-CPU Xeon), the automaton's build and count took 1.2 to 10 times
    the profile walk's total time where start / (U + L) is below 1, 0.4
    to 0.8 times it from 1 to 2, and 1/4 to 1/12 of it above 2."""
    start = order if largest_part is None else min(order, largest_part)
    bound, period = period_bound(rules, min_part)
    if start >= ROUTE_FACTOR * (bound + period):
        return automaton_rows(rules, order, start, min_part, _field_bits(order))
    return _profile_walk(rules, order, start, min_part)


def _profile_walk(rules: tuple, order: int, start: int, min_part: int) -> tuple:
    """_walk's rows by the value walk over capped profiles, parts in
    min_part..start."""
    cap = ConditionSet(rules).max_width()
    more = cap + 1  # capped multiplicity meaning "more than any window uses"
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
    if largest_part is not None and not isinstance(largest_part, int):
        raise PreconditionViolated(
            "largest_part must be an int or None, got %r" % (largest_part,))
    rows = _walk(cs.rules, require_order(order), largest_part, cs.min_part)
    packed, b = rows[min(cs.zeros, len(rows) - 1)], _field_bits(order)
    field = (1 << b) - 1
    return IntSeries([packed >> n * b & field for n in range(order + 1)])
