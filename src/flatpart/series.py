"""Truncated power series with exact integer coefficients.

An IntSeries holds coefficients of q^0 .. q^order as Python ints, so
nothing ever overflows or rounds.  Binary operations truncate to the
shorter operand's order.  Division requires the divisor to have constant
term +1 or -1 (all the series we divide by are of this shape), and is
exact long division.

A ProductSpec describes an infinite product prod_{m>=1} (1-q^m)^(-e(m mod M))
by its modulus and the exponent attached to each residue class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import NonUnitConstantTerm, PreconditionViolated


class IntSeries:
    """Coefficients of q^0..q^order, exact integers, immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        if len(coeffs) == 0:
            raise PreconditionViolated("a series needs at least the q^0 coefficient")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __len__(self):
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, IntSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        if self.order >= 8:
            head += ", ..."
        return "IntSeries([%s], order=%d)" % (head, self.order)

    def truncate(self, order: int) -> "IntSeries":
        if order >= self.order:
            return self
        return IntSeries(self.coeffs[:order + 1])

    def shift(self, k: int) -> "IntSeries":
        """Multiply by q^k (k >= 0), keeping the order."""
        if k == 0:
            return self
        if k < 0:
            raise PreconditionViolated("shift must be nonnegative")
        n = len(self.coeffs)
        return IntSeries(((0,) * min(k, n) + self.coeffs)[:n])

    def _coerce(self, other):
        if isinstance(other, IntSeries):
            return other
        if isinstance(other, int):
            return IntSeries((other,) + (0,) * self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(len(self.coeffs), len(o.coeffs))
        return IntSeries([self.coeffs[i] + o.coeffs[i] for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(len(self.coeffs), len(o.coeffs))
        return IntSeries([self.coeffs[i] - o.coeffs[i] for i in range(n)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self):
        return IntSeries([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntSeries([c * other for c in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(len(self.coeffs), len(o.coeffs))
        a, b = self.coeffs, o.coeffs
        out = [0] * n
        for i in range(n):
            ai = a[i]
            if ai == 0:
                continue
            for j in range(n - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return IntSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return series_div(self, o)


def zero(order: int) -> IntSeries:
    return IntSeries((0,) * (order + 1))


def one(order: int) -> IntSeries:
    return IntSeries((1,) + (0,) * order)


def first_difference(a: IntSeries, b: IntSeries) -> int | None:
    """First index where the coefficients differ, compared over the
    shorter series; None when they agree there."""
    for n, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return n
    return None


def monomial(k: int, order: int, coeff: int = 1) -> IntSeries:
    """coeff * q^k truncated at the given order."""
    c = [0] * (order + 1)
    if k <= order:
        c[k] = coeff
    return IntSeries(c)


def series_mul(a: IntSeries, b: IntSeries) -> IntSeries:
    return a * b


def series_div(a: IntSeries, b: IntSeries) -> IntSeries:
    """Exact long division; b must have constant term +1 or -1."""
    lead = b.coeffs[0]
    if lead not in (1, -1):
        raise NonUnitConstantTerm(
            "divisor constant term must be +-1, got %r" % (lead,))
    n = min(len(a.coeffs), len(b.coeffs))
    out = [0] * n
    bc = b.coeffs
    ac = a.coeffs
    for i in range(n):
        acc = ac[i]
        for j in range(1, i + 1):
            if bc[j]:
                acc -= bc[j] * out[i - j]
        out[i] = acc * lead  # divide by +-1
    return IntSeries(out)


def geom(m: int, order: int) -> IntSeries:
    """1/(1 - q^m): the generating series for parts equal to m."""
    if m < 1:
        raise PreconditionViolated("m must be >= 1")
    c = [0] * (order + 1)
    for i in range(0, order + 1, m):
        c[i] = 1
    return IntSeries(c)


def mul_one_minus_qm(coeffs: list, m: int) -> None:
    """In place: multiply a coefficient list by (1 - q^m)."""
    for i in range(len(coeffs) - 1, m - 1, -1):
        coeffs[i] -= coeffs[i - m]


def div_one_minus_qm(coeffs: list, m: int) -> None:
    """In place: divide a coefficient list by (1 - q^m)."""
    for i in range(m, len(coeffs)):
        coeffs[i] += coeffs[i - m]


@dataclass(frozen=True)
class ProductSpec:
    """prod_{m>=1} (1 - q^m)^(-e(m mod modulus)), e >= 0 per residue class."""

    modulus: int
    residue_exponents: tuple  # sorted ((residue, exponent), ...)

    def __init__(self, modulus: int, residue_exponents):
        if modulus < 1:
            raise PreconditionViolated("modulus must be >= 1")
        if isinstance(residue_exponents, dict):
            items = residue_exponents.items()
        else:
            items = residue_exponents
        norm = {}
        for r, e in items:
            r, e = int(r) % modulus, int(e)
            if e < 0:
                raise PreconditionViolated("exponents must be nonnegative")
            if e:
                norm[r] = norm.get(r, 0) + e
        if not norm:
            raise PreconditionViolated(
                "at least one residue class must have a nonzero exponent")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "residue_exponents",
                           tuple(sorted(norm.items())))

    @classmethod
    def from_residues(cls, modulus: int, residues: Iterable[int]) -> "ProductSpec":
        return cls(modulus, {r: 1 for r in residues})

    def exponent(self, m: int) -> int:
        r = m % self.modulus
        for rr, e in self.residue_exponents:
            if rr == r:
                return e
        return 0

    def exponents_dict(self) -> dict:
        return dict(self.residue_exponents)

    def allows_part(self, p: int) -> bool:
        return self.exponent(p) > 0

    def render_classes(self) -> str:
        return ",".join("%d:%d" % (r, e) for r, e in self.residue_exponents)


def product_series(spec: ProductSpec, order: int) -> IntSeries:
    """Expand the product exactly to the given order."""
    return product_from_exponents(
        [spec.exponent(m) for m in range(1, order + 1)], order)


def product_from_exponents(exponents: Sequence[int], order: int) -> IntSeries:
    """prod_m (1-q^m)^(-c_m) for explicit per-m exponents c_1..c_N (any sign).

    One pass of multiplying or dividing by (1-q^m) per unit of |c_m|, so
    the cost grows with sum |c_m|.  That is kept on purpose: this is the
    oracle route that euler_exponents, which never looks at the size of
    the exponents, is tested against."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for m in range(1, min(len(exponents) + 1, order + 1)):
        c = exponents[m - 1]
        for _ in range(abs(c)):
            if c > 0:
                div_one_minus_qm(coeffs, m)
            else:
                mul_one_minus_qm(coeffs, m)
    return IntSeries(coeffs)


def save_series(series: IntSeries, path) -> None:
    """One integer per line, first line the q^0 coefficient."""
    with open(path, "w") as fh:
        for c in series.coeffs:
            fh.write("%d\n" % c)


def load_series(path) -> IntSeries:
    with open(path) as fh:
        coeffs = [int(line) for line in fh if line.strip()]
    return IntSeries(coeffs)
