"""Truncated power series with exact integer coefficients.

An IntSeries holds coefficients of q^0 .. q^order as Python ints, so
nothing ever overflows or rounds.  It has no arithmetic: series work runs
on coefficient lists (mul_one_minus_qm, div_one_minus_qm) or packed ints.

A ProductSpec describes an infinite product prod_{m>=1} (1-q^m)^(-e(m mod M))
by its modulus and each residue class's exponent; with none nonzero it is 1.

A series can also be packed into one Python int high-first, b bits per
coefficient (see unpack): the DP's rows (counting.packed_sum_series)
and the product's divisions (packed_product) work on such ints.  When
every coefficient lies in [0, 2**b), no field carries, so two series
packed at one width agree exactly when their ints are equal, and the
highest bit of their XOR lies in the field of the least n where they
differ: first_split reads that n, and both coefficients, from it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, repeat
from typing import Iterable, Sequence

from .errors import PreconditionViolated, require_int, require_iterable, require_type


def require_order(order: int) -> int:
    """The order itself; one that is not an int, or is negative, raises
    PreconditionViolated."""
    if require_int(order, "an order") < 0:
        raise PreconditionViolated("a series needs at least the q^0 coefficient")
    return order


class IntSeries:
    """Coefficients of q^0..q^order, exact integers, immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        # checked apart: tuple() copies a list several times faster than
        # it reads the list's iterator
        require_iterable(coeffs, "coefficients", "ints")
        coeffs = tuple(coeffs)
        require_order(len(coeffs) - 1)
        if (not all(map(isinstance, coeffs, repeat(int)))
                or any(map(isinstance, coeffs, repeat(bool)))):
            raise PreconditionViolated("coefficients must be ints, not bools")
        object.__setattr__(self, "coeffs", coeffs)

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


def one(order: int) -> IntSeries:
    return IntSeries((1,) + (0,) * require_order(order))


def first_mismatch(a: IntSeries, b: IntSeries) -> tuple | None:
    """(n, a[n], b[n]) at the first index where the coefficients differ,
    compared over the shorter series; None when they agree there."""
    for n, (x, y) in enumerate(zip(require_type(a, IntSeries, "a"),
                                   require_type(b, IntSeries, "b"))):
        if x != y:
            return n, x, y
    return None


def mul_one_minus_qm(coeffs: list, m: int) -> None:
    """In place: multiply a coefficient list by (1 - q^m), m >= 1."""
    require_int(m, "m", 1)
    for i in range(len(coeffs) - 1, m - 1, -1):
        coeffs[i] -= coeffs[i - m]


def div_one_minus_qm(coeffs: list, m: int) -> None:
    """In place: divide a coefficient list by (1 - q^m), m >= 1."""
    require_int(m, "m", 1)
    for i in range(m, len(coeffs)):
        coeffs[i] += coeffs[i - m]


def unpack(x: int, b: int, order: int) -> IntSeries:
    """The series packed in x high-first: coefficient n in bits
    [(order-n)*b, (order-n+1)*b)."""
    field = (1 << b) - 1
    return IntSeries([x >> n * b & field for n in range(order, -1, -1)])


def first_split(x: int, y: int, b: int, order: int) -> tuple | None:
    """(n, x[n], y[n]) at the least n where the series packed high-first
    in x and y, b-bit fields to the given order, differ; None when x == y.
    Exact only when every field of both lies in [0, 2**b): then field n
    holds bits [(order-n)*b, (order-n+1)*b) of the int and nothing else,
    so the highest differing bit lies in the field of the least n."""
    diff = x ^ y
    if not diff:
        return None
    low = (diff.bit_length() - 1) // b * b
    field = (1 << b) - 1
    return order - low // b, x >> low & field, y >> low & field


def packed_div_one_minus_qm(x: int, step: int, top: int) -> int:
    """Divide a series packed high-first in b-bit fields by (1 - q^m), with
    step = m*b and top = order*b: multiply by (1+q^m)(1+q^(2m))(1+q^(4m))..,
    each factor a right shift that drops what passes the order.  The
    doubling ends once step > min(top, x.bit_length() - 1): a shift by
    x's bit length or more adds 0, and top keeps a top field wider than
    b bits from leaking into the low fields."""
    if step < 1:  # the doubling below would never end
        raise PreconditionViolated("step must be >= 1, got %r" % (step,))
    while step <= top and step < x.bit_length():
        x += x >> step
        step <<= 1
    return x


@dataclass(frozen=True)
class ProductSpec:
    """prod_{m>=1} (1 - q^m)^(-e(m mod modulus)), e >= 0 per residue class;
    with no e > 0 it is the empty product 1, which allows no part."""

    modulus: int
    residue_exponents: tuple  # sorted ((residue, exponent), ...)

    def __init__(self, modulus: int, residue_exponents):
        require_int(modulus, "modulus", 1)
        if isinstance(residue_exponents, dict):
            residue_exponents = residue_exponents.items()
        norm = {}
        for pair in require_iterable(residue_exponents, "residue classes",
                                     "(residue, exponent) pairs"):
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise PreconditionViolated(
                    "not a (residue, exponent) pair: %r" % (pair,))
            r, e = pair
            require_int(r, "a residue")
            if require_int(e, "an exponent", 0):
                norm[r % modulus] = norm.get(r % modulus, 0) + e
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "residue_exponents",
                           tuple(sorted(norm.items())))

    @classmethod
    def from_residues(cls, modulus: int, residues: Iterable[int]) -> "ProductSpec":
        """Exponent 1 on each class named; congruent residues name one class."""
        require_int(modulus, "modulus", 1)
        return cls(modulus, {require_int(r, "a residue") % modulus: 1 for r in
                             require_iterable(residues, "residues", "ints")})

    def exponents(self, order: int) -> list:
        """[e(1), .., e(order)], read from one table of the residue classes."""
        table = [0] * self.modulus
        for r, e in self.residue_exponents:
            table[r] = e
        return [table[m % self.modulus] for m in range(1, require_order(order) + 1)]

    def exponent(self, m: int) -> int:
        r = require_int(m, "a part") % self.modulus
        for rr, e in self.residue_exponents:
            if rr == r:
                return e
        return 0

    def allows_part(self, p: int) -> bool:
        return self.exponent(p) > 0


def product_series(spec: ProductSpec, order: int) -> IntSeries:
    """Expand the product exactly to the given order."""
    require_type(spec, ProductSpec, "spec")
    return unpack(*packed_product(spec.exponents(order), order), order)


def packed_product(exponents: list, order: int) -> tuple:
    """(x, b): prod_m (1-q^m)^(-c_m) for per-m ints c_1..c_order >= 0,
    packed high-first in b-bit fields as in unpack.

    One division by (1-q^m) per unit of c_m, each a right shift that
    drops what passes the order, with no mask.  With E the largest c_m
    (at least 1), b = E*bits(p(order)) + (E-1)*bitlen(order+1): every
    partial product is coefficientwise at most (q;q)**-E, whose q^n
    coefficient sums p(n_1)...p(n_E) <= p(n)**E over at most (n+1)**(E-1)
    ways to write n = n_1 + ... + n_E, so no field carries.  With E = 1,
    b is partition_bits(order), the DP's width.  A c_m that is not an
    int >= 0 raises PreconditionViolated: this route only divides."""
    if set(map(type, exponents)) - {int} or exponents and min(exponents) < 0:
        for c in exponents:  # names the first bad one
            require_int(c, "an exponent", 0)
    most = max([1] + exponents)
    b = most * partition_bits(order) + (most - 1) * (order + 1).bit_length()
    packed = 1 << order * b
    for m, c in enumerate(exponents, 1):
        for _ in range(c):
            packed = packed_div_one_minus_qm(packed, m * b, order * b)
    return packed, b


def product_from_exponents(exponents: Iterable[int], order: int) -> IntSeries:
    """prod_m (1-q^m)^(-c_m) for explicit per-m exponents c_1..c_N (any sign),
    read from any iterable; only the first `order` are used.

    One pass of dividing or multiplying by (1-q^m) per unit of |c_m|: this
    is the oracle route that euler_exponents, which never looks at the
    size of the exponents, is tested against.  The divisions are
    packed_product's on the positive c_m; the multiplications follow on
    the unpacked list."""
    order = require_order(order)
    used = [require_int(c, "an exponent") for c in
            islice(require_iterable(exponents, "exponents", "ints"), order)]
    coeffs = list(unpack(*packed_product([max(c, 0) for c in used], order), order))
    for m, c in enumerate(used, 1):
        for _ in range(-c):
            mul_one_minus_qm(coeffs, m)
    return IntSeries(coeffs)


def partition_bits(n: int) -> int:
    """The bit length of p(n), by Euler's pentagonal recurrence."""
    return _partition_bits(require_order(n))  # checked before the cache


@lru_cache(maxsize=16)
def _partition_bits(n: int) -> int:
    signed, k = [], 1
    while k * (3 * k - 1) // 2 <= n:  # the generalized pentagonal numbers
        signed += [(k * (3 * k + j) // 2, 1 if k % 2 else -1) for j in (-1, 1)]
        k += 1
    p = [1]
    for m in range(1, n + 1):
        total = 0
        for g, s in signed:  # ascending: stop at the first above m
            if g > m:
                break
            total += s * p[m - g]
        p.append(total)
    return p[n].bit_length()


def load_series(path) -> IntSeries:
    """One integer per line, first line the q^0 coefficient; blank lines
    are skipped, and any other line that is not an integer raises
    PreconditionViolated naming it.  The path is a str or an os.PathLike:
    an int would name an open file descriptor."""
    coeffs = []
    with open(require_type(path, (str, os.PathLike), "path")) as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    coeffs.append(int(line))
                except ValueError:
                    raise PreconditionViolated(
                        "%s, line %d: not an integer: %r"
                        % (path, number, line.strip())) from None
    return IntSeries(coeffs)
