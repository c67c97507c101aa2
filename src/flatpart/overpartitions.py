"""Overpartition counts behind the odd-even split families.

A_k(m, n) counts overpartitions of n with exactly m overlined parts in
which an overline on b rules out non-overlined parts b through b+k-2 and
overlined parts b+1 through b+k-1.  The two-variable generating function
factors as (-aq; q^k)_inf / (q; q)_inf.  A finite recursion in the
largest allowed part builds each truncation r_j, and r_enumeration
counts the same levels directly as its reference.

Substituting a -> q^s, q -> q^t collapses the product to one variable,
and specialize expands it as a one-variable product.  With t = 2 that
turns each overline into a parity marker, which is how the odd/even
families with spread conditions fall out as corollaries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import (InvalidSpecialization, PreconditionViolated, require_int,
                     require_iterable)
from .partitions import as_partition, partitions_of
from .series import IntSeries, div_one_minus_qm, product_from_exponents

__all__ = [
    "Overpartition", "BiSeries", "overpartitions_of", "count_A",
    "product_biseries", "r_enumeration", "r_series", "specialize",
]


@dataclass(frozen=True)
class Overpartition:
    """A partition plus a set of overlined part values.

    Only the last occurrence of a value can carry the overline, so the
    flag lives on values, not positions.  The parts are checked with
    as_partition and never reordered."""
    parts: tuple
    overlined: frozenset

    def __post_init__(self):
        parts = as_partition(self.parts)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "overlined", frozenset(require_iterable(
            self.overlined, "overlined", "part values")))
        if not self.overlined <= set(parts):
            raise PreconditionViolated("overlined a value that is not a part")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def satisfies(self, k: int) -> bool:
        """The two adjacency prohibitions triggered by overlines, k >= 2."""
        require_int(k, "k", 2)
        freq = {}
        for p in self.parts:
            freq[p] = freq.get(p, 0) + 1
        marked = sorted(self.overlined)
        for prev, nxt in zip(marked, marked[1:]):
            if nxt - prev < k:
                return False
        for b in marked:
            for v in range(b, b + k - 1):
                if freq.get(v, 0) - (v in self.overlined) > 0:
                    return False
        return True

    def __str__(self):
        seen = set()
        out = []
        for p in reversed(self.parts):      # overline the last occurrence
            if p in self.overlined and p not in seen:
                out.append("%d~" % p)
                seen.add(p)
            else:
                out.append(str(p))
        return "+".join(reversed(out)) if out else "0"


def overpartitions_of(n: int, max_part: Optional[int] = None):
    """All overpartitions of n, as (partition, overline choices) pairs."""
    for p in partitions_of(n, max_part):
        values = sorted(set(p), reverse=True)
        for r in range(len(values) + 1):
            for chosen in itertools.combinations(values, r):
                yield Overpartition(p, frozenset(chosen))


class BiSeries:
    """Rectangular table of integer coefficients of a^m q^n."""

    __slots__ = ("rows", "n_max", "m_max")

    def __init__(self, rows, n_max: int, m_max: int):
        require_int(n_max, "n_max", 0)
        require_int(m_max, "m_max", 0)
        self.rows = []
        for r in itertools.islice(require_iterable(rows, "rows", "rows"), m_max + 1):
            row = [require_int(c, "a coefficient") for c in
                   itertools.islice(require_iterable(r, "a row", "ints"), n_max + 1)]
            self.rows.append(row + [0] * (n_max + 1 - len(row)))
        while len(self.rows) < m_max + 1:
            self.rows.append([0] * (n_max + 1))
        self.n_max = n_max
        self.m_max = m_max

    @classmethod
    def one(cls, n_max: int, m_max: int) -> "BiSeries":
        b = cls([], n_max, m_max)
        b.rows[0][0] = 1
        return b

    def coeff(self, m: int, n: int) -> int:
        require_int(m, "m")
        require_int(n, "n")
        if 0 <= m <= self.m_max and 0 <= n <= self.n_max:
            return self.rows[m][n]
        return 0

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return (self.n_max == other.n_max and self.m_max == other.m_max
                and self.rows == other.rows)

    def __add__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        if (self.n_max, self.m_max) != (other.n_max, other.m_max):
            raise PreconditionViolated("mismatched truncations")
        return BiSeries([[x + y for x, y in zip(r, s)]
                         for r, s in zip(self.rows, other.rows)],
                        self.n_max, self.m_max)

    def divide_one_minus_qm(self, j: int) -> "BiSeries":
        rows = [list(r) for r in self.rows]
        for r in rows:
            div_one_minus_qm(r, j)
        return BiSeries(rows, self.n_max, self.m_max)

    def times_a_power(self, e: int) -> "BiSeries":
        """Multiply by a * q^e, e >= 0 (truncating at the table edges)."""
        require_int(e, "e", 0)
        rows = [[0] * (self.n_max + 1)]
        for m in range(1, self.m_max + 1):
            src = self.rows[m - 1]
            rows.append([0] * min(e, self.n_max + 1)
                        + src[:max(0, self.n_max + 1 - e)])
        return BiSeries(rows, self.n_max, self.m_max)

    def __str__(self):
        width = max((len(str(c)) for r in self.rows for c in r), default=1)
        return "\n".join(" ".join(str(c).rjust(width) for c in r)
                         for r in self.rows)


def _require_table(k: int, n_max: int, m_max: int) -> None:
    require_int(k, "k", 2)
    require_int(n_max, "n_max", 0)
    require_int(m_max, "m_max", 0)


def count_A(k: int, n_max: int, m_max: int) -> BiSeries:
    """The overpartition table, by direct enumeration."""
    _require_table(k, n_max, m_max)
    # an overpartition of n <= n_max has every part <= n_max, so r_j's
    # bounds at j = n_max + k - 1 exclude nothing
    return r_enumeration(k, n_max + k - 1, n_max, m_max)


def product_biseries(k: int, n_max: int, m_max: int) -> BiSeries:
    """Expansion of prod_{j>=0} (1 + a q^(jk+1)) / prod_{j>=1} (1 - q^j)."""
    _require_table(k, n_max, m_max)
    b = BiSeries.one(n_max, m_max)
    e = 1
    while e <= n_max:
        b = b + b.times_a_power(e)
        e += k
    for j in range(1, n_max + 1):
        b = b.divide_one_minus_qm(j)
    return b


# ------------------------------------------------------------- recursion

def r_enumeration(k: int, j: int, n_max: int, m_max: int) -> BiSeries:
    """r_j(m, n): parts at most j and no overline above j - k + 1."""
    _require_table(k, n_max, m_max)
    require_int(j, "j", 0)
    table = BiSeries([], n_max, m_max)
    for n in range(n_max + 1):
        for op in overpartitions_of(n, max_part=j):
            if (len(op.overlined) <= m_max and op.satisfies(k)
                    and all(b <= j - k + 1 for b in op.overlined)):
                table.rows[len(op.overlined)][n] += 1
    return table


def r_series(k: int, j_max: int, n_max: int, m_max: int) -> dict:
    """R_j tables for j = 0..j_max from the recursion

        R_j = R_{j-1} / (1 - q^j) + a q^(j-k+1) R_{j-k} / (1 - q^j),

    run from j = 1 with R_0 = 1 and R_j = 0 for negative j.

    R_j has frozen the coefficient of q^n once n <= j - k + 1, where it
    equals product_biseries: heavier overpartitions can still hold an
    overline too large for level j (a single overlined j-k+2 is the
    first one), so the stabilization horizon trails the level by k - 1."""
    _require_table(k, n_max, m_max)
    require_int(j_max, "j_max", 0)
    values = {0: BiSeries.one(n_max, m_max)}
    for j in range(1, j_max + 1):
        term = values[j - 1]
        if j - k >= 0:
            term = term + values[j - k].times_a_power(j - k + 1)
        values[j] = term.divide_one_minus_qm(j)
    return values


# -------------------------------------------------------- specialization

def specialize(k: int, s: int, t: int, n_max: int) -> IntSeries:
    """Single-variable series from a -> q^s, q -> q^t in the product:
    prod_{j>=0} (1 + q^(t(jk+1)+s)) / prod_{j>=1} (1 - q^(tj)), expanded
    with 1 + x = (1 - x^2)/(1 - x).  The smallest overlined part, t + s,
    must stay positive."""
    if require_int(t, "t") < 1:
        raise InvalidSpecialization("q must map to a positive power")
    if require_int(s, "s") + t < 1:
        raise InvalidSpecialization(
            "overlined 1 would map to the non-positive part %d" % (t + s))
    require_int(k, "k", 2)
    # room for every 2e; product_from_exponents reads the first n_max
    exponents = [0] * (2 * require_int(n_max, "n_max", 0))
    for m in range(t, n_max + 1, t):
        exponents[m - 1] += 1
    for e in range(t + s, n_max + 1, t * k):
        exponents[e - 1] += 1
        exponents[2 * e - 1] -= 1
    return product_from_exponents(exponents, n_max)
