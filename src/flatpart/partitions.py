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

from functools import lru_cache
from itertools import islice
from typing import Iterator, Sequence

from .errors import PreconditionViolated


def as_partition(parts) -> tuple:
    """The parts as a tuple, checked to be positive ints in weakly
    decreasing order.  Input is never repaired: anything else raises
    PreconditionViolated."""
    try:
        parts = tuple(parts)
    except TypeError:
        raise PreconditionViolated(
            "a partition is a sequence of ints, got %r" % (parts,)) from None
    if not all(isinstance(p, int) and p > 0 for p in parts):
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
    text = text.strip()
    if text in ("-", ""):
        return ()
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise PreconditionViolated(
            "parts must be comma-separated integers: %r" % text) from None
    return as_partition(parts)


def _gen_partitions(n: int, max_part: int) -> Iterator[tuple]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _gen_partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=2**10)
def partitions_of(n: int, max_part: int | None = None) -> tuple:
    """All partitions of n, largest part first within each partition.

    The list is ordered so that the partition with the larger leading
    part comes first: (4), (3,1), (2,2), (2,1,1), (1,1,1,1).  The last
    1024 results are cached; callers must not mutate them.
    """
    if n < 0:
        return ()
    cap = n if max_part is None else min(max_part, n)
    if n > 0 and cap <= 0:
        return ()
    return tuple(_gen_partitions(n, cap))


def flat_patterns(length: int, total: int, cap: int | None = None) -> Iterator[tuple]:
    """Weakly decreasing nonnegative tuples of the given length and sum,
    flattest first (= lexicographic order)."""
    if length < 1 or total < 0:
        return
    if cap is None:
        cap = total
    if length == 1:
        if total <= cap:
            yield (total,)
        return
    # first entry runs from the balanced value upward; the remainder is
    # filled recursively, so the whole stream is lexicographically sorted
    lo = -(-total // length)  # ceil
    for first in range(lo, min(total, cap) + 1):
        for rest in flat_patterns(length - 1, total - first, first):
            yield (first,) + rest


@lru_cache(maxsize=2**14)
def kth_flattest(k: int, length: int, total: int) -> tuple | None:
    """The k-th flattest weakly decreasing nonnegative tuple (1-indexed)
    of the given length and sum, or None when fewer than k exist.  Both
    answers are cached, the last 2**14 of them, so a missing pattern is
    enumerated once."""
    if k < 1:
        raise PreconditionViolated("k is 1-indexed, got %d" % k)
    return next(islice(flat_patterns(length, total), k - 1, None), None)


def conjugate(parts: Sequence[int]) -> tuple:
    """Conjugate partition via column counts of the Ferrers diagram."""
    parts = tuple(parts)
    if not parts:
        return ()
    return tuple(
        sum(1 for p in parts if p > c) for c in range(parts[0])
    )


def frequency_profile(parts: Sequence[int]) -> dict:
    """Map each part value to (frequency, number of strictly greater parts)."""
    parts = tuple(parts)
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
