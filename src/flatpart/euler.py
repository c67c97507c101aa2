"""Euler's algorithm: write a series as a product of powers of (1-q^m).

Any integer series with constant term 1 factors uniquely as
prod_{m>=1} (1-q^m)^(-c_m) up to the truncation order.  The exponents
come from the logarithmic derivative (the inverse Euler transform of
Sloane & Plouffe, The Encyclopedia of Integer Sequences, 1995): with
q f'/f = sum_n b_n q^n,

    n a_n = sum_{k=1..n} b_k a_{n-k},     b_m = sum_{d | m} d c_d,

so each b_n, and then each c_m, follows from the earlier ones in
O(n^2) integer operations altogether, whatever the size of the c_m.
exponent_stream yields each c_m as soon as b_m is known, so a reader
that stops early never pays for the later convolutions; euler_exponents
drains the stream.

When the exponent sequence is periodic with small entries, the series
is (to its order) the partition series of a congruence-restricted part
set; detect_period looks for the smallest such period backed by at
least three full repetitions.  It reads the exponents once, forward,
and stops at the first one that decides its verdict: an entry above
the bound, or the entry that breaks the last candidate period.  The
search screen feeds it the live stream, so a rejected rule set never
computes its tail exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Iterator, Optional, Union

from .errors import (InsufficientOrder, NonUnitConstantTerm,
                     PreconditionViolated)
from .series import IntSeries, ProductSpec, require_order


@dataclass(frozen=True)
class EulerFactorization:
    exponents: tuple     # c_1 .. c_N, N the order of the factored series


@dataclass(frozen=True)
class PeriodicVerdict:
    periodic: bool
    period: int                # 0 when aperiodic
    class_exponents: tuple     # ((residue, exponent), ...) for 0..period-1

    def exponents_dict(self) -> dict:
        return dict(self.class_exponents)

    def to_product_spec(self) -> ProductSpec:
        if not self.periodic:
            raise PreconditionViolated(
                "no product spec for an aperiodic factorization")
        return ProductSpec(self.period, {r: e for r, e in self.class_exponents})


def exponent_stream(series: IntSeries) -> Iterator[int]:
    """c_1, c_2, .., c_N with series = prod (1-q^m)^(-c_m) + O(q^(N+1)),
    each yielded as soon as it is known.  The series is checked here,
    at the call, not at the first next()."""
    if not isinstance(series, IntSeries):
        raise PreconditionViolated(
            "factorization needs an IntSeries, got %s" % type(series).__name__)
    if series.coeffs[0] != 1:
        raise NonUnitConstantTerm(
            "factorization needs constant term 1, got %r" % (series.coeffs[0],))
    # sliced as a list: slices of the coefficient tuple stayed allocated
    # until the next full collection (about 200 bytes per call), which
    # raised the peak memory of a search
    return _exponents(list(series.coeffs), series.order)


def _exponents(a: list, n: int) -> Iterator[int]:
    b = [0] * (n + 1)
    # found[m] is the sum of d c_d over the divisors d < m read so far;
    # it is kept apart from b, which the later convolutions read whole
    found = [0] * (n + 1)
    for m in range(1, n + 1):
        # m a_m = b_m + sum_{j<m} b_j a_{m-j}, since a_0 = 1
        b[m] = m * a[m] - sum(map(mul, b[1:m], a[m - 1:0:-1]))
        # Once c_d is known for every d < m, b_m less its terms d c_d is
        # m c_m.  The division is exact for any integer series with
        # a_0 = 1: Euler's factorization multiplies or divides by 1 - q^m
        # |c_m| times, which keeps every coefficient an integer, so each
        # c_m is an integer.
        c = (b[m] - found[m]) // m
        if c:
            for j in range(2 * m, n + 1, m):
                found[j] += m * c
        yield c


def euler_exponents(series: IntSeries) -> EulerFactorization:
    """Exponents c_1..c_N with series = prod (1-q^m)^(-c_m) + O(q^(N+1))."""
    return EulerFactorization(tuple(exponent_stream(series)))


def _require_bound(value, name: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise PreconditionViolated("%s must be an int, got %r" % (name, value))


def detect_period(fac: Union[EulerFactorization, Iterable[int]], d_max: int,
                  e_max: int = 4, order: Optional[int] = None) -> PeriodicVerdict:
    """Smallest period d <= d_max with c_m depending only on m mod d and
    |c_m| <= e_max throughout, else aperiodic (period 0, no classes).
    Requires order >= 3*d_max: a reported period is seen three times.

    fac is an EulerFactorization, or a stream of c_1, c_2, .. such as
    exponent_stream's together with its length as order.  The exponents
    are read once, forward, and only as far as the verdict needs."""
    _require_bound(d_max, "d_max")
    _require_bound(e_max, "e_max")
    if d_max < 1 or e_max < 0:
        raise PreconditionViolated(
            "period bounds need d_max >= 1 and e_max >= 0, got %d and %d"
            % (d_max, e_max))
    if order is None:
        exps, order = fac.exponents, len(fac.exponents)
    else:
        exps, order = fac, require_order(order)
    if order < 3 * d_max:
        raise InsufficientOrder(
            "order %d cannot certify periods up to %d (need >= %d)"
            % (order, d_max, 3 * d_max))
    # the periods d with c_m == c_((m-1) mod d + 1) for every m read
    alive = range(1, d_max + 1)
    seen = []
    for i, c in enumerate(exps):
        if abs(c) > e_max:
            return PeriodicVerdict(False, 0, ())
        seen.append(c)
        alive = [d for d in alive if c == seen[i % d]]
        if not alive:
            return PeriodicVerdict(False, 0, ())
    d = alive[0]
    return PeriodicVerdict(
        True, d, tuple(sorted((m % d, seen[m - 1]) for m in range(1, d + 1))))
