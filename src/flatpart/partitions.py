"""Integer partitions and the flatness order on fixed-length patterns.

A partition is stored as a weakly decreasing tuple of positive parts.
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

from .errors import NotEnoughPatterns


class Partition:
    """An immutable integer partition (weakly decreasing positive parts)."""

    __slots__ = ("parts", "weight")

    def __init__(self, parts: Sequence[int] = ()):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive: %r" % (parts,))
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "weight", sum(parts))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)

    def __str__(self):
        return render_partition(self.parts)

    def conjugate(self) -> "Partition":
        return Partition(conjugate(self.parts))

    def frequencies(self) -> dict:
        return frequency_profile(self.parts)


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
    parts = tuple(int(tok) for tok in text.split(","))
    if any(p <= 0 for p in parts):
        raise ValueError("parts must be positive: %r" % text)
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("parts must be weakly decreasing: %r" % text)
    return parts


def _gen_partitions(n: int, max_part: int) -> Iterator[tuple]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _gen_partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def partitions_of(n: int, max_part: int | None = None) -> tuple:
    """All partitions of n, largest part first within each partition.

    The list is ordered so that the partition with the larger leading
    part comes first: (4), (3,1), (2,2), (2,1,1), (1,1,1,1).  Results
    are cached; callers must not mutate them.
    """
    if n < 0:
        return ()
    cap = n if max_part is None else min(max_part, n)
    if n > 0 and cap <= 0:
        return ()
    return tuple(_gen_partitions(n, cap))


def compare_flatter(a: Sequence[int], b: Sequence[int]) -> int:
    """Negative if a is flatter than b, zero if equal, positive if steeper.

    Flatter means longer; at equal length, lexicographically smaller.
    """
    ta, tb = tuple(a), tuple(b)
    if len(ta) != len(tb):
        return -1 if len(ta) > len(tb) else 1
    if ta == tb:
        return 0
    return -1 if ta < tb else 1


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


@lru_cache(maxsize=None)
def kth_flattest(k: int, length: int, total: int) -> tuple:
    """The k-th flattest weakly decreasing nonnegative tuple (1-indexed)
    of the given length and sum.

    Raises NotEnoughPatterns when fewer than k such tuples exist.
    """
    if k < 1:
        raise ValueError("k is 1-indexed, got %d" % k)
    got = list(islice(flat_patterns(length, total), k))
    if len(got) < k:
        raise NotEnoughPatterns(
            "only %d patterns of length %d summing to %d, wanted %d"
            % (len(got), length, total, k)
        )
    return got[k - 1]


def count_flat_patterns(length: int, total: int) -> int:
    """Number of weakly decreasing nonnegative tuples of a length and sum."""
    return sum(1 for _ in flat_patterns(length, total))


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
