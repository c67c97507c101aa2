"""Euler's algorithm: write a series as a product of powers of (1-q^m).

Any integer series with constant term 1 factors uniquely as
prod_{m>=1} (1-q^m)^(-c_m) up to the truncation order: at step m the
current residual determines c_m, and multiplying by (1-q^m)^(c_m)
clears the q^m coefficient.  When the exponent sequence is periodic
with small entries, the series is (to its order) the partition series
of a congruence-restricted part set; detect_period looks for the
smallest such period backed by at least three full repetitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (InsufficientOrder, NonUnitConstantTerm,
                     PreconditionViolated)
from .series import (IntSeries, ProductSpec, div_one_minus_qm,
                     mul_one_minus_qm)


@dataclass(frozen=True)
class EulerFactorization:
    exponents: tuple     # c_1 .. c_N
    source_order: int

    def exponent(self, m: int) -> int:
        return self.exponents[m - 1]


@dataclass(frozen=True)
class PeriodicVerdict:
    periodic: bool
    period: int                # 0 when aperiodic
    class_exponents: tuple     # ((residue, exponent), ...) for 0..period-1
    max_abs_exponent: int

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
    n = series.order
    residual = list(series.coeffs)
    exps = []
    for m in range(1, n + 1):
        c = residual[m]
        exps.append(c)
        for _ in range(abs(c)):
            if c > 0:
                mul_one_minus_qm(residual, m)
            else:
                div_one_minus_qm(residual, m)
    return EulerFactorization(tuple(exps), n)


def detect_period(fac: EulerFactorization, d_max: int, e_max: int = 4) -> PeriodicVerdict:
    """Smallest period d <= d_max with c_m depending only on m mod d and
    |c_m| <= e_max throughout.  Requires order >= 3*d_max so that any
    reported period is seen at least three times."""
    if d_max < 1 or e_max < 0:
        raise PreconditionViolated(
            "period bounds need d_max >= 1 and e_max >= 0, got %d and %d"
            % (d_max, e_max))
    n = fac.source_order
    if n < 3 * d_max:
        raise InsufficientOrder(
            "order %d cannot certify periods up to %d (need >= %d)"
            % (n, d_max, 3 * d_max))
    exps = fac.exponents
    if max((abs(c) for c in exps), default=0) > e_max:
        return PeriodicVerdict(False, 0, (), max(abs(c) for c in exps))
    for d in range(1, d_max + 1):
        if all(exps[m - 1] == exps[(m - 1) % d] for m in range(1, n + 1)):
            classes = tuple(
                sorted((m % d, exps[m - 1]) for m in range(1, d + 1)))
            return PeriodicVerdict(True, d, classes,
                                   max((abs(c) for c in exps), default=0))
    return PeriodicVerdict(False, 0, (), max((abs(c) for c in exps), default=0))
