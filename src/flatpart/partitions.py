"""Integer partitions and the flatness order on fixed-length patterns.

A partition is a plain tuple of positive ints in weakly decreasing
order.  as_partition is the one check of outside input, and it never
repairs what it is given.

Length-B windows of a partition (possibly padded with zeros on the right)
are compared by *flatness*: a pattern is flatter when it is longer, or,
at equal length, lexicographically smaller.  The flattest B-tuple with a
given sum is the balanced one, entries floor(m/B) and ceil(m/B); walking
the lexicographic order from there yields the second flattest, third
flattest, and so on.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from functools import lru_cache
from itertools import islice
from typing import Iterator, Sequence

from .errors import PreconditionViolated, require_int, require_type


def as_partition(parts) -> tuple:
    """The parts as a tuple, checked to be positive ints in weakly
    decreasing order.  Input is never repaired: anything else raises
    PreconditionViolated."""
    try:
        parts = tuple(parts)
    except TypeError:
        raise PreconditionViolated(
            "a partition is a sequence of ints, got %r" % (parts,)) from None
    if not all(isinstance(p, int) and not isinstance(p, bool) and p > 0
               for p in parts):
        raise PreconditionViolated("parts must be positive ints: %r" % (parts,))
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise PreconditionViolated(
            "parts must be weakly decreasing: %r" % (parts,))
    return parts


def render_partition(parts: Sequence[int]) -> str:
    """Text form used by the command line tools: "5,3,3,1", "-" if empty."""
    if not parts:
        return "-"
    return ",".join(str(p) for p in parts)


def parse_partition(text: str) -> tuple:
    """Inverse of render_partition.  Accepts "-" or "" for the empty partition."""
    text = require_type(text, str, "partition text").strip()
    if text in ("-", ""):
        return ()
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise PreconditionViolated(
            "parts must be comma-separated integers: %r" % text) from None
    return as_partition(parts)


def _gen_partitions(n: int, max_part: int) -> Iterator[tuple]:
    """The partitions of n with parts <= max_part, in reverse
    lexicographic order: each next one lowers the last part above 1 by
    one and refills the rest greedily with parts no larger."""
    if n == 0:
        yield ()
        return
    q, r = divmod(n, max_part)
    parts = [max_part] * q + ([r] if r else [])
    while True:
        yield tuple(parts)
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        x = parts.pop() - 1
        q, r = divmod(ones + 1 + x, x)
        parts += [x] * q
        if r:
            parts.append(r)


PARTITIONS_HELD = 2**18
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
_partitions = OrderedDict()  # (n, max_part) -> partitions, oldest use first
_partitions_stats = [0, 0, 0]  # hits, misses, partitions held


def partitions_of(n: int, max_part: int | None = None) -> tuple:
    """All partitions of n, largest part first within each partition.

    The list is ordered so that the partition with the larger leading
    part comes first: (4), (3,1), (2,2), (2,1,1), (1,1,1,1).  The last
    results used are cached, PARTITIONS_HELD partitions in all, and a
    longer result is not cached; callers must not mutate them.
    """
    require_int(n, "n")
    if max_part is not None:
        require_int(max_part, "max_part")
    key = (n, max_part)
    stats = _partitions_stats
    found = _partitions.get(key)
    if found is not None:
        stats[0] += 1
        _partitions.move_to_end(key)
        return found
    stats[1] += 1
    cap = n if max_part is None else min(max_part, n)
    found = () if n < 0 or (n > 0 and cap <= 0) else tuple(_gen_partitions(n, cap))
    if len(found) <= PARTITIONS_HELD:
        _partitions[key] = found
        stats[2] += len(found)
        while stats[2] > PARTITIONS_HELD:
            stats[2] -= len(_partitions.popitem(last=False)[1])
    return found


def _partitions_info():
    """lru_cache's statistics for partitions_of, its sizes counted in
    partitions held rather than in entries."""
    hits, misses, held = _partitions_stats
    return CacheInfo(hits, misses, PARTITIONS_HELD, held)


partitions_of.cache_info = _partitions_info


def flat_patterns(length: int, total: int) -> Iterator[tuple]:
    """Weakly decreasing nonnegative tuples of the given length and sum,
    flattest first (= lexicographic order).  The arguments are checked
    here, at the call, not at the first next()."""
    require_int(length, "length")
    require_int(total, "total")
    return _flat_patterns(length, total, total)


def _flat_patterns(length: int, total: int, cap: int) -> Iterator[tuple]:
    if length < 1 or total < 0:
        return
    if length == 1:
        if total <= cap:
            yield (total,)
        return
    # first entry runs from the balanced value upward; the remainder is
    # filled recursively, so the whole stream is lexicographically sorted
    lo = -(-total // length)  # ceil
    for first in range(lo, min(total, cap) + 1):
        for rest in _flat_patterns(length - 1, total - first, first):
            yield (first,) + rest


def kth_flattest(k: int, length: int, total: int) -> tuple | None:
    """The k-th flattest weakly decreasing nonnegative tuple (1-indexed)
    of the given length and sum, or None when fewer than k exist.  Both
    answers are cached, the last 2**14 of them, so a missing pattern is
    enumerated once.  The arguments are checked before the cache, which
    keys True as 1; the package's own callers read the cache directly."""
    require_int(k, "k", 1)
    require_int(length, "length")
    return _kth_flattest(k, length, require_int(total, "total"))


@lru_cache(maxsize=2**14)
def _kth_flattest(k: int, length: int, total: int) -> tuple | None:
    return next(islice(_flat_patterns(length, total, total), k - 1, None), None)


kth_flattest.cache_info = _kth_flattest.cache_info
kth_flattest.cache_clear = _kth_flattest.cache_clear


def conjugate(parts: Sequence[int]) -> tuple:
    """Conjugate partition via column counts of the Ferrers diagram."""
    parts = as_partition(parts)
    if not parts:
        return ()
    return tuple(
        sum(1 for p in parts if p > c) for c in range(parts[0])
    )


def frequency_profile(parts: Sequence[int]) -> dict:
    """Map each part value to (frequency, number of strictly greater parts)."""
    parts = as_partition(parts)
    profile = {}
    greater = 0
    i = 0
    while i < len(parts):
        v = parts[i]
        j = i
        while j < len(parts) and parts[j] == v:
            j += 1
        profile[v] = (j - i, greater)
        greater += j - i
        i = j
    return profile
