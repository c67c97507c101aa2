"""Truncation recursions for selected identities.

P_j here always means the generating function for the identity's sum
side restricted to partitions whose largest part is at most j.  Every
recursion below has one form (see Recursion): P_j is a sum of terms
sign * q^shift * prod(1 - q^up) / prod(1 - q^down) * P_{j-k}, each
exponent affine in j.  One loop replays all nine with the in-place
(1 - q^m) multiplications and divisions of the product side, and
verify_recursion compares every computed P_j against the truncations
that one upward push over the sum side's automaton gives
(automaton.pushed_rows), reporting the first (j, n) disagreement.  The
offset tables advance j by 1, FAM2_K1 by 2 and the mod-9 class-pair
recursions by 3, each of the last five in one term, telescoped from its
printed sum; values of j a recursion never defines are skipped in the
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .automaton import pushed_rows
from .errors import UnknownRecursion, require_int
from .families import canonical_name, get_identity
from .series import (IntSeries, div_one_minus_qm, first_mismatch,
                     mul_one_minus_qm, one, partition_bits, require_order,
                     unpack)


def _combine(terms, order: int) -> IntSeries:
    """The sum of sign * q^shift * prod(1 - q^up) / prod(1 - q^down) * p
    over the terms (p, sign, shift, up, down), truncated at the order."""
    acc = [0] * (order + 1)
    for p, sign, shift, up, down in terms:
        c = list(p.coeffs[:max(order + 1 - shift, 0)])
        for m in up:
            mul_one_minus_qm(c, m)
        for m in down:
            div_one_minus_qm(c, m)
        for i, x in enumerate(c, shift):
            acc[i] += sign * x
    return IntSeries(acc)


def _offsets(table: dict) -> Callable:
    """The terms of an offset table: for each residue of j mod the table's
    length the pairs (offset, sign) in

        P_j = P_{j-1} + q^j/(1-q^j) * sum(sign * P_{j-offset})"""
    return lambda j: ((1, 1, 0, (), ()),) + tuple(
        (off, sign, j, (), (j,)) for off, sign in table[j % len(table)])


def _mod9(s: int) -> Callable:
    """The telescoped mod-9 step (see Recursion), s = 5 low and 4 high."""
    return lambda j: ((3, 1, 0, (3 * j, 3 * j - s), (j, j - 1, j - 2)),)


def _fam8_p1(order: int) -> IntSeries:
    # P_1 = 1 + q + q^2, at most two 1s: where the odd mod-9 recursions start
    return IntSeries(([1, 1, 1] + [0] * require_order(order))[:order + 1])


@dataclass(frozen=True)
class RecursionReport:
    name: str
    order: int
    levels: tuple
    passed: bool
    first_mismatch: Optional[tuple] = None   # (j, n, recursion, dp)
    bases_ok: bool = True


class Recursion(NamedTuple):
    """P_first = start(order), then for j = first + stride, first + 2*stride,
    ... P_j sums the terms (k, sign, shift, up, down) of terms(j), each

        sign * q^shift * prod_{m in up} (1 - q^m) / prod_{m in down} (1 - q^m) * P_{j-k}

    with every exponent affine in j; a level not yet defined counts as 0.
    bases(order) gives the printed truncations {j: P_j} the replay must
    regenerate.

    The printed mod-9 step is (1 + q^j + q^2j) * T * P_{j-3}, where
    1 + q^j + q^2j = (1 - q^3j)/(1 - q^j) and, with a = j-1 and c = j-2,
    T telescopes to one quotient through q^a(1 - q^2c) + (1 - q^a) =
    1 - q^(a+2c) (low) and q^2a(1 - q^c) + (1 - q^2a) = 1 - q^(2a+c) (high):

        low:  q^a/(1-q^a) (1 + q^c) + 1/(1-q^c) = (1 - q^(3j-5)) / ((1-q^a)(1-q^c))
        high: q^2a/(1-q^a) + (1 + q^a)/(1-q^c) = (1 - q^(3j-4)) / ((1-q^a)(1-q^c))

    FAM2_K1's printed step (q^j/(1-q^j) + 1/(1-q^(j-1))) * P_{j-2} is
    (1 - q^(2j-1)) / ((1-q^j)(1-q^(j-1))) * P_{j-2}, through
    q^j(1 - q^(j-1)) + (1 - q^j) = 1 - q^(2j-1)."""
    first: int
    start: Callable
    stride: int
    terms: Callable
    bases: Callable = lambda order: {}


def _printed(table: dict) -> Callable:
    """bases(order) of printed truncations {j: terms (sign, shift, up, down) over 1}."""
    return lambda order: {j: _combine(((one(order),) + t for t in terms), order)
                          for j, terms in table.items()}


_ONE, _MINUS_ONE = (1, 0, (), ()), (-1, 0, (), ())
_G2, _G3 = (1, 0, (), (2,)), (1, 0, (), (3,))  # 1/(1 - q^2), 1/(1 - q^3)
_P3 = (1, 0, (5,), (3, 2))  # FAM1_3_K2's (1 - q^5) / ((1 - q^3)(1 - q^2))
_TRIANGLE = _printed({1: ((1, 0, (3,), (1,)),)})  # (1 - q^3)/(1 - q)

_RECURSIONS = {
    "FAM1_1_K2": Recursion(0, one, 1, _offsets({0: ((2, 1), (4, -1), (5, 1)),
                                                1: ((3, 1), (4, -1), (5, 1)),
                                                2: ((2, 1),)}),
                           _printed({1: (_ONE,), 2: (_G2,),
                                     3: (_G3, _G2, _MINUS_ONE)})),
    "FAM1_2_K2": Recursion(0, one, 1, _offsets({0: ((2, 1),),
                                                1: ((2, 1), (4, -1), (5, 1)),
                                                2: ((3, 1), (4, -1), (5, 1))}),
                           _printed({1: (_ONE,), 2: (_ONE,), 3: (_G3,), 4: (_G3,),
                                     5: ((1, 0, (), (5,)), _G3, _MINUS_ONE)})),
    "FAM1_3_K2": Recursion(0, one, 1, _offsets({0: ((3, 1), (4, -1), (5, 1)),
                                                1: ((2, 1),),
                                                2: ((2, 1), (4, -1), (5, 1))}),
                           _printed({1: (_ONE,), 2: (_G2,), 3: (_P3,),
                                     4: (_P3, (1, 4, (), (4, 2))),
                                     5: (_P3, (1, 4, (), (4, 2)),
                                         (1, 5, (5,), (5, 3, 2)))})),
    "FAM3_K1": Recursion(0, one, 1, _offsets({0: ((2, 1),), 1: ((1, 1),)}),
                         _printed({2: ((1, 0, (3,), (1, 2)),)})),
    # defined on odd truncation levels only
    "FAM2_K1": Recursion(1, one, 2,
                         lambda j: ((2, 1, 0, (2 * j - 1,), (j, j - 1)),)),
    "FAM8_MOD9_S04": Recursion(0, one, 3, _mod9(5)),
    "FAM8_MOD9_S05": Recursion(0, one, 3, _mod9(4)),
    "FAM8_MOD9_S37": Recursion(1, _fam8_p1, 3, _mod9(5), _TRIANGLE),
    "FAM8_MOD9_S38": Recursion(1, _fam8_p1, 3, _mod9(4), _TRIANGLE),
}


def recursion_names() -> list:
    return sorted(_RECURSIONS)


def _resolve(name: str) -> str:
    key = canonical_name(name)
    if key not in _RECURSIONS:
        raise UnknownRecursion("no recursion registered under %r" % name)
    return key


def recursion_values(name: str, j_max: int, order: int) -> dict:
    """All truncations P_j the recursion defines for j <= j_max,
    as a dict level -> IntSeries."""
    row = _RECURSIONS[_resolve(name)]
    require_int(j_max, "j_max", 0)
    values = {row.first: row.start(order)}
    for j in range(row.first + row.stride, j_max + 1, row.stride):
        values[j] = _combine(((values[j - k], *rest) for k, *rest in row.terms(j)
                              if j - k in values), order)
    return {j: p for j, p in values.items() if j <= j_max}


def verify_recursion(name: str, j_max: int, order: int) -> RecursionReport:
    """The recursion's levels up to j_max, at least its first level,
    against one push over the sum side's irredundant rules."""
    key = _resolve(name)
    row = _RECURSIONS[key]
    require_int(j_max, "j_max", row.first)
    values = recursion_values(key, j_max, order)
    printed = row.bases(order)
    bases_ok = all(values[j] == p for j, p in printed.items() if j in values)

    levels = tuple(sorted(values))
    flat = get_identity(key).flat
    pushed = pushed_rows(flat.irredundant_rules(), order, flat.zeros,
                         flat.min_part, levels[-1])
    b = partition_bits(order)
    for j in levels:
        split = first_mismatch(values[j], unpack(pushed[j], b, order))
        if split is not None:
            return RecursionReport(key, order, levels, False, (j,) + split,
                                   bases_ok)
    return RecursionReport(key, order, levels, bases_ok,
                           None, bases_ok)
