"""Overpartition counts behind the odd-even split families.

A_k(m, n) counts overpartitions of n with exactly m overlined parts in
which an overline on b rules out non-overlined parts b through b+k-2 and
overlined parts b+1 through b+k-1.  The two-variable generating function
factors as (-aq; q^k)_inf / (q; q)_inf, and a finite recursion in the
largest allowed part pins the same table down a second way.

Substituting a -> q^s, q -> q^t collapses the table to one variable.
With t = 2 that turns each overline into a parity marker, which is how
the odd/even families with spread conditions fall out as corollaries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidSpecialization, PreconditionViolated
from .partitions import partitions_of
from .series import IntSeries, div_one_minus_qm, geom, series_mul

__all__ = [
    "Overpartition", "BiSeries", "overpartitions_of", "count_A",
    "product_biseries", "r_enumeration", "r_series", "r_recursion",
    "RecursionCheck", "specialize", "specialization_family",
]


@dataclass(frozen=True)
class Overpartition:
    """A partition plus a set of overlined part values.

    Only the last occurrence of a value can carry the overline, so the
    flag lives on values, not positions."""
    parts: tuple
    overlined: frozenset

    def __post_init__(self):
        parts = tuple(sorted((int(p) for p in self.parts), reverse=True))
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "overlined", frozenset(self.overlined))
        if any(p <= 0 for p in parts):
            raise PreconditionViolated("parts must be positive")
        if not self.overlined <= set(parts):
            raise PreconditionViolated("overlined a value that is not a part")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def satisfies(self, k: int) -> bool:
        """The two adjacency prohibitions triggered by overlines."""
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
        self.rows = [list(r[:n_max + 1]) + [0] * (n_max + 1 - len(r))
                     for r in rows[:m_max + 1]]
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
        if 0 <= m <= self.m_max and 0 <= n <= self.n_max:
            return self.rows[m][n]
        return 0

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return (self.n_max == other.n_max and self.m_max == other.m_max
                and self.rows == other.rows)

    def __add__(self, other):
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
        """Multiply by a * q^e (truncating at the table edges)."""
        rows = [[0] * (self.n_max + 1)]
        for m in range(1, self.m_max + 1):
            src = self.rows[m - 1]
            rows.append([0] * min(e, self.n_max + 1)
                        + src[:max(0, self.n_max + 1 - e)])
        return BiSeries(rows, self.n_max, self.m_max)

    def specialized(self, s: int, t: int, order: int) -> IntSeries:
        """Collapse a^m q^n to q^(t*n + s*m)."""
        coeffs = [0] * (order + 1)
        for m, row in enumerate(self.rows):
            for n, c in enumerate(row):
                if not c:
                    continue
                e = t * n + s * m
                if e < 0:
                    raise InvalidSpecialization(
                        "a^%d q^%d maps to exponent %d" % (m, n, e))
                if e <= order:
                    coeffs[e] += c
        return IntSeries(coeffs)

    def __str__(self):
        width = max((len(str(c)) for r in self.rows for c in r), default=1)
        return "\n".join(" ".join(str(c).rjust(width) for c in r)
                         for r in self.rows)


def count_A(k: int, n_max: int, m_max: int) -> BiSeries:
    """The overpartition table, by direct enumeration."""
    if k < 2:
        raise PreconditionViolated("k must be at least 2")
    # an overpartition of n <= n_max has every part <= n_max, so r_j's
    # bounds at j = n_max + k - 1 exclude nothing
    return r_enumeration(k, n_max + k - 1, n_max, m_max)


def product_biseries(k: int, n_max: int, m_max: int) -> BiSeries:
    """Expansion of prod_{j>=0} (1 + a q^(jk+1)) / prod_{j>=1} (1 - q^j)."""
    if k < 2:
        raise PreconditionViolated("k must be at least 2")
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
    table = BiSeries([], n_max, m_max)
    for n in range(n_max + 1):
        for op in overpartitions_of(n, max_part=j):
            if (len(op.overlined) <= m_max and op.satisfies(k)
                    and all(b <= j - k + 1 for b in op.overlined)):
                table.rows[len(op.overlined)][n] += 1
    return table


def r_series(k: int, j_max: int, n_max: int, m_max: int,
             two_part_start: bool = True) -> dict:
    """R_j tables from the recursion

        R_j = R_{j-1} / (1 - q^j) + a q^(j-k+1) R_{j-k} / (1 - q^j).

    With two_part_start the recursion runs from j = 1 with R_0 = 1 and
    R_j = 0 for negative j; otherwise the first k levels are seeded with
    1/(q;q)_j and the recursion starts at j = k.  Both give the same
    tables."""
    if k < 2:
        raise PreconditionViolated("k must be at least 2")
    values = {0: BiSeries.one(n_max, m_max)}
    if two_part_start:
        start = 1
    else:
        start = k
        acc = geom(1, n_max)
        for j in range(1, k):
            if j > 1:
                acc = series_mul(acc, geom(j, n_max))
            values[j] = BiSeries([list(acc)], n_max, m_max)
    for j in range(start, j_max + 1):
        term = values[j - 1]
        if j - k >= 0:
            term = term + values[j - k].times_a_power(j - k + 1)
        values[j] = term.divide_one_minus_qm(j)
    return values


@dataclass(frozen=True)
class RecursionCheck:
    k: int
    j_max: int
    n_max: int
    m_max: int
    passed: bool
    forms_agree: bool
    tail_matches_product: bool
    first_mismatch: Optional[tuple] = None   # (j, m, n, got, want)

    def __str__(self):
        verdict = "pass" if self.passed else "FAIL"
        text = ("k=%d overline recursion, levels 0..%d to q^%d a^%d: %s"
                % (self.k, self.j_max, self.n_max, self.m_max, verdict))
        if not self.forms_agree:
            text += "\n  the two initial-condition forms disagree"
        if not self.tail_matches_product:
            text += "\n  top level drifts from the infinite product"
        if self.first_mismatch:
            j, m, n, got, want = self.first_mismatch
            text += ("\n  first mismatch at level %d, a^%d q^%d: "
                     "recursion %d, enumeration %d" % (j, m, n, got, want))
        return text


def r_recursion(k: int, j_max: int, n_max: int, m_max: int) -> RecursionCheck:
    """Run the recursion both ways and compare each level against direct
    enumeration, then compare the top level against the product for
    exponents the truncation has already frozen."""
    primary = r_series(k, j_max, n_max, m_max, two_part_start=False)
    alternate = r_series(k, j_max, n_max, m_max, two_part_start=True)
    forms_agree = all(primary[j] == alternate[j] for j in range(j_max + 1))

    mismatch = None
    for j in range(j_max + 1):
        want = r_enumeration(k, j, n_max, m_max)
        if primary[j] != want:
            for m in range(m_max + 1):
                for n in range(n_max + 1):
                    if primary[j].coeff(m, n) != want.coeff(m, n):
                        mismatch = (j, m, n, primary[j].coeff(m, n),
                                    want.coeff(m, n))
                        break
                if mismatch:
                    break
            break

    # R_j has frozen the coefficient of q^n once n <= j - k + 1: heavier
    # overpartitions can still hold an overline too large for level j
    # (a single overlined j-k+2 is the first one), so the stabilization
    # horizon trails the level by k - 1.
    stable = min(n_max, j_max - k + 1)
    prod = product_biseries(k, n_max, m_max)
    tail_ok = all(primary[j_max].coeff(m, n) == prod.coeff(m, n)
                  for m in range(m_max + 1) for n in range(stable + 1))

    return RecursionCheck(k, j_max, n_max, m_max,
                          forms_agree and tail_ok and mismatch is None,
                          forms_agree, tail_ok, mismatch)


# -------------------------------------------------------- specialization

def specialize(k: int, s: int, t: int, n_max: int) -> IntSeries:
    """Single-variable series from a -> q^s, q -> q^t in the product.

    Non-overlined parts become t*j and overlined ones t*j + s, so the
    smallest overlined part must stay positive."""
    if t < 1:
        raise InvalidSpecialization("q must map to a positive power")
    if t + s < 1:
        raise InvalidSpecialization(
            "overlined 1 would map to the non-positive part %d" % (t + s))
    table = product_biseries(k, n_max, n_max)
    return table.specialized(s, t, n_max)


def specialization_family(k: int, s: int, t: int) -> Optional[str]:
    """Registry name whose sum-side count the specialization should match."""
    if t != 2 or s % 2 == 0:
        return None
    i = (s + 1) // 2
    if 0 <= i <= k - 1:
        return "COR_K%d_I%d" % (k, i)
    return None
