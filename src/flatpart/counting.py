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

Counts are held in numpy arrays: int64 when the order is at most 300
(all intermediate counts are bounded by sums of partition numbers,
well below 2**63 there) and object dtype with Python ints beyond.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .conditions import ConditionSet, satisfies
from .errors import CeilingExceeded, NotEnoughPatterns
from .partitions import kth_flattest, partitions_of
from .series import IntSeries

BRUTE_CEILING = 60
_INT64_SAFE_ORDER = 300


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
    out = vec.copy()
    for r in range(stride):
        out[r::stride] = np.cumsum(out[r::stride])
    return out


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
    dtype = np.int64 if order <= _INT64_SAFE_ORDER else object
    start = order if largest_part is None else min(order, largest_part)

    blank = (0,) * window_span
    init = np.zeros(length, dtype=dtype)
    init[0] = 1
    dp = {blank: init}

    for v in range(start, 0, -1):
        checks = _stage_checks(rules_info, v)
        ndp = {}
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
                target = ((mu,) + prof)[:window_span]
                slot = ndp.get(target)
                if slot is None:
                    slot = np.zeros(length, dtype=dtype)
                    ndp[target] = slot
                if shift:
                    slot[shift:] += vec[:length - shift]
                else:
                    slot += vec
            if lowest is None and v >= min_part:
                base = more * v
                if base < length:
                    tail = _strided_cumsum(vec, v)
                    target = ((more,) + prof)[:window_span]
                    slot = ndp.get(target)
                    if slot is None:
                        slot = np.zeros(length, dtype=dtype)
                        ndp[target] = slot
                    slot[base:] += tail[:length - base]
        dp = {p: vec for p, vec in ndp.items() if np.any(vec)}

    # fictitious zeros: one final batch of checks, no weight
    checks = _stage_checks(rules_info, 0)
    mu0 = min(cs.zeros, more)
    out = np.zeros(length, dtype=dtype)
    for prof, vec in dp.items():
        dead = False
        for c0, eq, ge in checks:
            if mu0 >= c0 and _profile_ok(prof, eq, ge):
                dead = True
                break
        if not dead:
            out += vec
    return IntSeries([int(x) for x in out])
