"""Euler's algorithm: write a series as a product of powers of (1-q^m).

Any integer series with constant term 1 factors uniquely as
prod_{m>=1} (1-q^m)^(-c_m) up to the truncation order.  The exponents
come from the logarithmic derivative (the inverse Euler transform of
Sloane & Plouffe, The Encyclopedia of Integer Sequences, 1995): with
q f'/f = sum_n b_n q^n,

    n a_n = sum_{k=1..n} b_k a_{n-k},     b_m = sum_{d | m} d c_d,

so each b_n, and then each c_m, follows from the earlier ones in
O(n^2) integer operations altogether, whatever the size of the c_m.
When the exponent sequence is periodic with small entries, the series
is (to its order) the partition series of a congruence-restricted part
set; detect_period looks for the smallest such period backed by at
least three full repetitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import (InsufficientOrder, NonUnitConstantTerm,
                     PreconditionViolated)
from .series import IntSeries, ProductSpec


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


def euler_exponents(series: IntSeries) -> EulerFactorization:
    """Exponents c_1..c_N with series = prod (1-q^m)^(-c_m) + O(q^(N+1))."""
    if series.coeffs[0] != 1:
        raise NonUnitConstantTerm(
            "factorization needs constant term 1, got %r" % (series.coeffs[0],))
    # sliced as a list: slices of the coefficient tuple stayed allocated
    # until the next full collection (about 200 bytes per call), which
    # raised the peak memory of a search
    a = list(series.coeffs)
    n = series.order
    b = [0] * (n + 1)
    for k in range(1, n + 1):
        # k a_k = b_k + sum_{j<k} b_j a_{k-j}, since a_0 = 1
        b[k] = k * a[k] - sum(map(mul, b[1:k], a[k - 1:0:-1]))
    # Once c_d is known for every d < m, b_m less its terms d c_d is m c_m.
    # The division is exact for any integer series with a_0 = 1: Euler's
    # factorization multiplies or divides by 1 - q^m |c_m| times, which
    # keeps every coefficient an integer, so each c_m is an integer.
    exps = []
    for m in range(1, n + 1):
        c = b[m] // m
        exps.append(c)
        if c:
            for j in range(2 * m, n + 1, m):
                b[j] -= m * c
    return EulerFactorization(tuple(exps))


def detect_period(fac: EulerFactorization, d_max: int, e_max: int = 4) -> PeriodicVerdict:
    """Smallest period d <= d_max with c_m depending only on m mod d and
    |c_m| <= e_max throughout, else aperiodic (period 0, no classes).
    Requires order >= 3*d_max: a reported period is seen three times."""
    if d_max < 1 or e_max < 0:
        raise PreconditionViolated(
            "period bounds need d_max >= 1 and e_max >= 0, got %d and %d"
            % (d_max, e_max))
    exps = fac.exponents
    n = len(exps)
    if n < 3 * d_max:
        raise InsufficientOrder(
            "order %d cannot certify periods up to %d (need >= %d)"
            % (n, d_max, 3 * d_max))
    if any(abs(c) > e_max for c in exps):
        return PeriodicVerdict(False, 0, ())
    for d in range(1, d_max + 1):
        if all(exps[m - 1] == exps[(m - 1) % d] for m in range(1, n + 1)):
            classes = tuple(
                sorted((m % d, exps[m - 1]) for m in range(1, d + 1)))
            return PeriodicVerdict(True, d, classes)
    return PeriodicVerdict(False, 0, ())
