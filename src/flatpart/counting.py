"""Exact counting of partitions obeying a window condition set.

Two independent routes are provided on purpose.  sum_series_brute
enumerates every partition of every n and filters with the literal
window check; it is the reference oracle and refuses large orders.
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

Counts are held as int64 residue lanes, one array of shape
(lanes, order+1) per profile.  Lane 0 is plain int64 arithmetic, which
numpy wraps modulo 2**64; each further lane holds residues modulo a
prime below 2**31.  Every count the DP stores is a number of distinct
partitions of its weight, so it lies in [0, p(order)], and the DP takes
the fewest primes with 2**63 times their product above p(order).  While
p(order) < 2**63 (order <= 405) lane 0 alone holds the counts
themselves; beyond, each coefficient is rebuilt exactly from its
residues by the Chinese remainder theorem.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache, partial
from math import isqrt
from typing import Callable

import numpy as np

from .conditions import ConditionSet, satisfies
from .errors import CeilingExceeded
from .partitions import kth_flattest, partitions_of
from .series import IntSeries, ProductSpec, product_series

BRUTE_CEILING = 60


def count_by_predicate(pred: Callable, order: int) -> IntSeries:
    """Count the partitions of 0..order that pass `pred`, by enumeration,
    up to order BRUTE_CEILING (read at call time)."""
    if order > BRUTE_CEILING:
        raise CeilingExceeded("brute enumeration capped at order %d, asked for %d"
                              % (BRUTE_CEILING, order))
    return IntSeries(
        [sum(1 for p in partitions_of(n) if pred(p)) for n in range(order + 1)])


def sum_series_brute(cs: ConditionSet, order: int) -> IntSeries:
    """Count satisfying partitions of 0..order by full enumeration."""
    return count_by_predicate(partial(satisfies, cs), order)


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


def _strided_cumsum(vec, stride: int):
    """Running sums along each residue class of the column index mod
    stride, lane by lane: out[:, n] = vec[:, n] + vec[:, n-stride] + ..."""
    lanes, n = vec.shape
    padded = np.zeros((lanes, -(-n // stride) * stride), dtype=np.int64)
    padded[:, :n] = vec
    grid = padded.reshape(lanes, -1, stride)
    np.cumsum(grid, axis=1, out=grid)
    return padded[:, :n]


@lru_cache(maxsize=16)
def _lane_primes(order: int) -> tuple:
    """Moduli of the extra lanes: the fewest primes below 2**31, largest
    first, whose product times 2**63 exceeds p(order)."""
    bound = product_series(ProductSpec(1, {0: 1}), order)[order] >> 63
    primes, product, n = [], 1, 2**31 - 1
    while product <= bound:
        if all(n % d for d in range(3, isqrt(n) + 1, 2)):
            primes.append(n)
            product *= n
        n -= 2
    return tuple(primes)


def _from_lanes(lanes, primes) -> list:
    """Each column rebuilt from its residues (lane 0 modulo 2**64, lane
    i modulo primes[i-1]) by Garner's form of the Chinese remainder
    theorem; exact for values below 2**64 times the primes' product."""
    values = lanes[0].view(np.uint64).tolist()
    modulus = 1 << 64
    for residues, p in zip(lanes[1:].tolist(), primes):
        inv = pow(modulus, -1, p)
        values = [x + modulus * ((r - x) * inv % p)
                  for x, r in zip(values, residues)]
        modulus *= p
    return values


@lru_cache(maxsize=128)
def _walk(rules: tuple, order: int, largest_part: int | None,
          min_part: int):
    """The value walk of sum_series_dp, shared by every zero count.

    Returns a read-only int64 array of shape (cap+1, lanes, order+1), cap
    the widest rule's width: row mu0 holds the lanes of the partitions
    that no window forbids when mu0 fictitious zeros sit below the
    smallest part, with every prime lane reduced."""
    cap = ConditionSet(rules).max_width()
    more = cap + 1  # capped multiplicity meaning "more than any window uses"
    start = order if largest_part is None else min(order, largest_part)
    windows, window_span = _window_table(rules, start)
    for v in range(1, min(min_part, start + 1)):
        windows[v].append((1, (), ()))  # any copy of v is one too many

    length = order + 1
    # Every entry the DP stores or adds counts distinct partitions of its
    # weight, so it lies in [0, p(order)], below 2**63 * prod(primes).
    # Hence a profile whose lanes are all zero has a true count of zero
    # and is dropped exactly.  Prime lanes are reduced once per stage;
    # in between, a slot receives at most cap+2 vectors (one per value
    # of the profile entry that falls off, or of mu when nothing falls
    # off), each entry below (order+1) * 2**31 even after the geometric
    # tail's running sum, so it stays below 2**63 for any feasible order.
    primes = _lane_primes(order)
    moduli = np.array(primes, dtype=np.int64)[:, None]
    shape = (1 + len(primes), length)

    blank = (0,) * window_span
    init = np.zeros(shape, dtype=np.int64)
    init[:, 0] = 1
    dp = {blank: init}

    for v in range(start, 0, -1):
        checks = windows.get(v, ())
        ndp = defaultdict(partial(np.zeros, shape, dtype=np.int64))
        for prof, vec in dp.items():
            lowest = _lowest_completion(prof, checks, more)
            hi = min(cap, lowest - 1)
            for mu in range(0, hi + 1):
                shift = mu * v
                if shift >= length:
                    break
                slot = ndp[((mu,) + prof)[:window_span]]
                if shift:
                    slot[:, shift:] += vec[:, :length - shift]
                else:
                    slot += vec
            if lowest == more:
                base = more * v
                if base < length:
                    slot = ndp[((more,) + prof)[:window_span]]
                    slot[:, base:] += _strided_cumsum(vec[:, :length - base], v)
        dp = {}
        for prof, vec in ndp.items():
            if primes:
                np.remainder(vec[1:], moduli, out=vec[1:])
            if vec.any():
                dp[prof] = vec

    # fictitious zeros: one final batch of checks, no weight.  A profile
    # counts for mu0 zeros iff the fewest zeros completing a window over
    # it exceeds mu0, so bucket the profiles by that fewest number and
    # sum the buckets above each mu0.  Every check needs at most cap
    # zeros, so more zeros than that change nothing.  Each row sums a
    # subset of the profiles, as a single zero count's total would.
    checks = windows.get(0, ())
    buckets = np.zeros((more + 1,) + shape, dtype=np.int64)
    for prof, vec in dp.items():
        buckets[_lowest_completion(prof, checks, more)] += vec
    rows = np.cumsum(buckets[:0:-1], axis=0)[::-1]
    np.remainder(rows[:, 1:], moduli, out=rows[:, 1:])
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=128)
def sum_series_dp(cs: ConditionSet, order: int,
                  largest_part: int | None = None) -> IntSeries:
    """Exact counting series of satisfying partitions, parts at most
    largest_part when that is given.  Handles orders well beyond the
    brute ceiling (hundreds)."""
    rows = _walk(cs.rules, order, largest_part, cs.min_part)
    return IntSeries(_from_lanes(rows[min(cs.zeros, len(rows) - 1)],
                                 _lane_primes(order)))
