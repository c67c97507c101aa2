"""Exact counting of partitions obeying a window condition set.

Two independent routes are provided on purpose.  sum_series_brute
enumerates every partition of every n and filters with the literal
window check; it is the reference oracle and refuses large orders.
sum_series_dp walks part values from the largest allowed down to 1,
choosing the multiplicity of each value, and keeps only as much state
as the rules can see: the multiplicities of the last few values, each
capped just above the widest window.  A forbidden window always lies
inside a span of nearby values (flat patterns have small spread), so
the capped profile decides every rule exactly.  The DP is compared
against the brute oracle in the test suite.

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

from collections import defaultdict
from functools import lru_cache, partial
from math import isqrt
from typing import Callable

import numpy as np

from .conditions import ConditionSet, satisfies
from .errors import CeilingExceeded, NotEnoughPatterns
from .partitions import kth_flattest, partitions_of
from .series import IntSeries, ProductSpec, product_series

BRUTE_CEILING = 60


def count_by_predicate(pred: Callable, order: int,
                       ceiling: int = BRUTE_CEILING) -> IntSeries:
    """Count the partitions of 0..order that pass `pred`, by enumeration."""
    if order > ceiling:
        raise CeilingExceeded(
            "brute enumeration capped at order %d, asked for %d" % (ceiling, order))
    return IntSeries(
        [sum(1 for p in partitions_of(n) if pred(p)) for n in range(order + 1)])


def sum_series_brute(cs: ConditionSet, order: int, ceiling: int = BRUTE_CEILING) -> IntSeries:
    """Count satisfying partitions of 0..order by full enumeration."""
    return count_by_predicate(partial(satisfies, cs), order, ceiling)


def _pattern_spread(flatness_index: int, width: int) -> int:
    """Largest gap max-min over all k-th flattest patterns of this shape.

    Patterns of consecutive sums eventually repeat shifted by one (adding
    1 to every entry of the first k patterns of sum m gives the first k
    patterns of sum m+width, provided no zero-entry tuple can slip in
    between; the margin check below is inductive, so once it holds on a
    full window it holds for all larger sums).  Scan until that window
    is reached and take the maximum spread seen.
    """
    if width == 1:
        return 0
    scan = width * (flatness_index + 6)
    while True:
        pats = {}
        for m in range(scan + 1):
            try:
                pats[m] = kth_flattest(flatness_index, width, m)
            except NotEnoughPatterns:
                continue
        stable = True
        for m in range(scan - 2 * width + 1, scan + 1):
            prev = pats.get(m - width)
            cur = pats.get(m)
            if prev is None or cur is None:
                stable = False
                break
            if cur != tuple(x + 1 for x in prev):
                stable = False
                break
            if (width - 1) * (cur[0] + 1) >= m + width:
                stable = False
                break
        if stable:
            return max(p[0] - p[-1] for p in pats.values())
        scan *= 2


def _rule_offset_shapes(width: int, spread: int):
    """Weakly decreasing nonnegative offset tuples, last entry 0, first
    entry at most spread.  A window with bottom value v has shape v+O."""
    if width == 1:
        return [(0,)]
    shapes = []

    def rec(prefix, todo):
        if todo == 0:
            shapes.append(tuple(prefix) + (0,))
            return
        hi = prefix[-1] if prefix else spread
        for o in range(hi, -1, -1):
            rec(prefix + [o], todo - 1)

    rec([], width - 1)
    return shapes


def _stage_checks(rules_info, v: int):
    """Forbidden-window tests whose bottom value is v, as (c0, eq, ge):
    the window occurs iff the multiplicity of v is >= c0, profile slots
    in eq hold exactly the stated count, and slots in ge hold at least it."""
    checks = []
    for rule, shapes in rules_info:
        b = rule.width
        for off in shapes:
            if v == 0 and off[0] == 0:
                continue  # window of fictitious zeros only
            total = b * v + sum(off)
            if not rule.sum_matches(total):
                continue
            window = tuple(v + o for o in off)
            try:
                if kth_flattest(rule.flatness_index, b, total) != window:
                    continue
            except NotEnoughPatterns:
                continue
            counts = {}
            for o in off:
                counts[o] = counts.get(o, 0) + 1
            top = off[0]
            eq = tuple((u - 1, counts.get(u, 0)) for u in range(1, top))
            ge = ((top - 1, counts[top]),) if top > 0 else ()
            checks.append((counts[0], eq, ge))
    return checks


def _profile_ok(prof, eq, ge) -> bool:
    for i, val in eq:
        if prof[i] != val:
            return False
    for i, val in ge:
        if prof[i] < val:
            return False
    return True


def _strided_cumsum(vec, stride: int):
    """Running sums along each residue class of the column index mod
    stride, lane by lane: out[:, n] = vec[:, n] + vec[:, n-stride] + ..."""
    lanes, n = vec.shape
    padded = np.zeros((lanes, -(-n // stride) * stride), dtype=np.int64)
    padded[:, :n] = vec
    grid = padded.reshape(lanes, -1, stride)
    np.cumsum(grid, axis=1, out=grid)
    return padded[:, :n]


def _lane_primes(order: int) -> list:
    """Moduli of the extra lanes: the fewest primes below 2**31, largest
    first, whose product times 2**63 exceeds p(order)."""
    bound = product_series(ProductSpec(1, {0: 1}), order)[order] >> 63
    primes, product, n = [], 1, 2**31 - 1
    while product <= bound:
        if all(n % d for d in range(3, isqrt(n) + 1, 2)):
            primes.append(n)
            product *= n
        n -= 2
    return primes


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
def sum_series_dp(cs: ConditionSet, order: int,
                  largest_part: int | None = None,
                  min_part: int = 1) -> IntSeries:
    """Exact counting series of satisfying partitions, parts restricted to
    [min_part, largest_part] when bounds are given.  Handles orders well
    beyond the brute ceiling (hundreds)."""
    cap = max((r.width for r in cs.rules), default=1)
    spreads = [(_pattern_spread(r.flatness_index, r.width), r) for r in cs.rules]
    window_span = max((s for s, _ in spreads), default=0)
    rules_info = [(r, _rule_offset_shapes(r.width, s)) for s, r in spreads]
    more = cap + 1  # capped multiplicity meaning "more than any window uses"

    length = order + 1
    start = order if largest_part is None else min(order, largest_part)
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
        checks = _stage_checks(rules_info, v)
        ndp = defaultdict(partial(np.zeros, shape, dtype=np.int64))
        for prof, vec in dp.items():
            lowest = None  # smallest multiplicity of v that completes a window
            for c0, eq, ge in checks:
                if (lowest is None or c0 < lowest) and _profile_ok(prof, eq, ge):
                    lowest = c0
            hi = cap if lowest is None else min(cap, lowest - 1)
            if v < min_part:
                hi = 0
            for mu in range(0, hi + 1):
                shift = mu * v
                if shift >= length:
                    break
                slot = ndp[((mu,) + prof)[:window_span]]
                if shift:
                    slot[:, shift:] += vec[:, :length - shift]
                else:
                    slot += vec
            if lowest is None and v >= min_part:
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

    # fictitious zeros: one final batch of checks, no weight
    checks = _stage_checks(rules_info, 0)
    mu0 = min(cs.zeros, more)
    out = np.zeros(shape, dtype=np.int64)
    for prof, vec in dp.items():
        dead = False
        for c0, eq, ge in checks:
            if mu0 >= c0 and _profile_ok(prof, eq, ge):
                dead = True
                break
        if not dead:
            out += vec
    np.remainder(out[1:], moduli, out=out[1:])
    return IntSeries(_from_lanes(out, primes))
