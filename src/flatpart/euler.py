"""Euler's algorithm: write a series as a product of powers of (1-q^m).

Any integer series with constant term 1 factors uniquely as
prod_{m>=1} (1-q^m)^(-c_m) up to the truncation order.  The exponents
come from the logarithmic derivative (the inverse Euler transform of
Sloane & Plouffe, The Encyclopedia of Integer Sequences, 1995): with
q f'/f = sum_n b_n q^n,

    n a_n = sum_{k=1..n} b_k a_{n-k},     b_m = sum_{d | m} d c_d,

so each b_n, and then each c_m, follows from the earlier ones, whatever
the size of the c_m.  The convolution is blocked: in each block of
_BLOCK indices after the first, the terms with j below the block come
from one product of two packed ints (_block_sums), and only those inside
it are multiplied one by one.  Order N costs about N*_BLOCK/2 small
products and N/_BLOCK big ones, against N^2/2 for the plain sum; an
order up to _BLOCK, as every search screen is, builds no big one.
exponent_stream yields each c_m as soon as b_m is known, so a reader
that stops early never pays for the later blocks; euler_exponents
drains the stream.

When the exponent sequence is periodic with small entries, the series
is (to its order) the partition series of a congruence-restricted part
set; detect_period looks for the smallest such period backed by at
least three full repetitions.  It reads at most order exponents (all of
them when order is omitted) once, forward, and stops at the first one
that decides its verdict: an entry above the bound, or the entry that
breaks the last candidate period.  The search screen feeds it the live
stream, so a rejected rule set never computes its tail exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Iterator, Optional, Union

from .errors import (InsufficientOrder, NonUnitConstantTerm,
                     PreconditionViolated, require_int, require_iterable,
                     require_type)
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
        return ProductSpec(self.period, self.class_exponents)


def exponent_stream(series: IntSeries) -> Iterator[int]:
    """c_1, c_2, .., c_N with series = prod (1-q^m)^(-c_m) + O(q^(N+1)),
    each yielded as soon as it is known.  The series is checked here,
    at the call, not at the first next()."""
    if require_type(series, IntSeries, "series").coeffs[0] != 1:
        raise NonUnitConstantTerm(
            "factorization needs constant term 1, got %r" % (series.coeffs[0],))
    # sliced as a list: slices of the coefficient tuple stayed allocated
    # until the next full collection (about 200 bytes per call), which
    # raised the peak memory of a search
    return _exponents(list(series.coeffs), series.order)


_BLOCK = 128  # indices per block of the convolution
_NOTHING_BELOW = (0,) * _BLOCK  # the first block's terms from below it


def _exponents(a: list, n: int) -> Iterator[int]:
    b = [0] * (n + 1)
    # found[m] is the sum of d c_d over the divisors d < m read so far;
    # it is kept apart from b, which the later convolutions read whole
    found = [0] * (n + 1)
    s, below = 1, _NOTHING_BELOW  # the block's start, its terms with j < s
    for m in range(1, n + 1):
        if m == s + _BLOCK:
            s, below = m, _block_sums(b, a, m, min(m + _BLOCK, n + 1))
        # m a_m = b_m + sum_{j<m} b_j a_{m-j}, since a_0 = 1
        b[m] = m * a[m] - below[m - s] - sum(map(mul, b[s:m], a[m - s:0:-1]))
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


def _block_sums(b: list, a: list, s: int, end: int) -> list:
    """sum_{j<s} b_j a_(i-j) for each i in [s, end): fields s-2.. of the
    product of b_1..b_(s-1) and a_1..a_(end-2), one signed value per w-byte
    field.  A field sums at most s - 1 terms below 2**(bits(max|b|) +
    bits(max|a|)), so with a sign bit it lies in [-2**(8w-1), 2**(8w-1)).
    b_j wider than every a_l would pad each a_l to their width (five times
    slower at order 1200 far from a product): those sums go term by term."""
    low, high = b[1:s], a[1:end - 1]
    bits_b, bits_a = (max(map(abs, v)).bit_length() for v in (low, high))
    if bits_b > bits_a:
        return [sum(map(mul, low, a[i - 1:i - s:-1])) for i in range(s, end)]
    w = (bits_b + bits_a + s.bit_length() + 8) // 8
    fields = len(low) + len(high) - 1
    # 2**(8w-1) added to every field makes each a base-2**(8w) digit
    digits = (_pack(low, w) * _pack(high, w) + _halves(fields, w)).to_bytes(
        fields * w, "little")
    half = 1 << 8 * w - 1
    return [int.from_bytes(digits[k * w:(k + 1) * w], "little") - half
            for k in range(s - 2, end - 2)]


def _pack(values: list, w: int) -> int:
    """sum_k values[k] 2**(8wk), each value in [-2**(8w-1), 2**(8w-1))."""
    half = 1 << 8 * w - 1
    raised = b"".join((v + half).to_bytes(w, "little") for v in values)
    return int.from_bytes(raised, "little") - _halves(len(values), w)


def _halves(count: int, w: int) -> int:
    """2**(8w-1) in each of count w-byte fields."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * count, "little")


def euler_exponents(series: IntSeries) -> EulerFactorization:
    """Exponents c_1..c_N with series = prod (1-q^m)^(-c_m) + O(q^(N+1))."""
    return EulerFactorization(tuple(exponent_stream(series)))


def detect_period(fac: Union[EulerFactorization, Iterable[int]], d_max: int,
                  e_max: int = 4, order: Optional[int] = None) -> PeriodicVerdict:
    """Smallest period d <= d_max with c_m depending only on m mod d and
    |c_m| <= e_max throughout, else aperiodic (period 0, no classes).
    Requires order >= 3*d_max: a reported period is seen three times.

    fac is an EulerFactorization or any iterable of int exponents c_1,
    c_2, .., read once, forward, and only as far as the verdict needs:
    at most order of them, or all of them, counted as the order, when
    order is omitted (a stream is given with its length as order)."""
    require_int(d_max, "d_max", 1)
    require_int(e_max, "e_max", 0)
    if isinstance(fac, EulerFactorization):
        fac = fac.exponents
    exps = require_iterable(fac, "the exponents", "ints")
    if order is None:
        exps = tuple(exps)
        order = len(exps)
    if require_order(order) < 3 * d_max:
        raise InsufficientOrder(
            "order %d cannot certify periods up to %d (need >= %d)"
            % (order, d_max, 3 * d_max))
    # the periods d with c_m == c_((m-1) mod d + 1) for every m read
    alive = range(1, d_max + 1)
    seen = []
    for i, c in zip(range(order), exps):  # never asks for item order + 1
        if type(c) is not int:  # the class test is the cheap one
            require_int(c, "an exponent")
        if abs(c) > e_max:
            return PeriodicVerdict(False, 0, ())
        seen.append(c)
        alive = [d for d in alive if c == seen[i % d]]
        if not alive:
            return PeriodicVerdict(False, 0, ())
    if len(seen) < order:  # a short stream has not shown d three times
        raise InsufficientOrder("the exponents ended after %d of %d"
                                % (len(seen), order))
    d = alive[0]
    return PeriodicVerdict(
        True, d, tuple(sorted((m % d, seen[m - 1]) for m in range(1, d + 1))))
