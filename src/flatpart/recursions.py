"""Truncation recursions for selected identities.

P_j here always means the generating function for the identity's sum
side restricted to partitions whose largest part is at most j.  The
recursions below build P_j from earlier truncations using only exact
series arithmetic; verify_recursion replays them and compares every
computed P_j against the window-condition DP with the same largest-part
bound, reporting the first (j, n) disagreement.

Four of the mod-9 family recursions advance j by 3; the rest advance
by 1 or 2.  Values of j the recursion never defines are simply skipped
in the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .counting import sum_series_dp
from .errors import UnknownRecursion, require_int
from .families import canonical_name, get_identity
from .series import IntSeries, first_mismatch, geom, monomial, one, zero


def _q_over(j: int, order: int) -> IntSeries:
    """q^j / (1 - q^j), truncated."""
    return geom(j, order).shift(j)


def _offsets(table: dict) -> Callable:
    """The step of an offset table: for each residue of j mod the table's
    length the terms (offset, sign) in

        P_j = P_{j-1} + q^j/(1-q^j) * sum(sign * P_{j-offset})"""
    def step(j: int, values: dict, order: int) -> IntSeries:
        zero_s = zero(order)
        acc = zero_s
        for off, sign in table[j % len(table)]:
            prev = values.get(j - off, zero_s)
            acc = acc + prev if sign > 0 else acc - prev
        return values[j - 1] + _q_over(j, order) * acc
    return step


def _fam2k1_step(j: int, values: dict, order: int) -> IntSeries:
    prev = values[j - 2]
    return _q_over(j, order) * prev + geom(j - 1, order) * prev


def _fam8(shape: str) -> Callable:
    """The step of the mod-9 class-pair recursions: one advancement
    factor takes the truncation level from j-3 up to j."""
    def step(j: int, values: dict, order: int) -> IntSeries:
        head = one(order) + monomial(j, order) + monomial(2 * j, order)
        a, c = j - 1, j - 2
        if shape == "low":
            tail = _q_over(a, order) * (one(order) + monomial(c, order)) \
                + geom(c, order)
        else:
            tail = geom(a, order).shift(2 * a) \
                + geom(c, order) * (one(order) + monomial(a, order))
        return head * tail * values[j - 3]
    return step


def _fam8_p1(order: int) -> IntSeries:
    # P_1 = 1 + q + q^2, at most two 1s: where the odd mod-9 recursions start
    return one(order) + monomial(1, order) + monomial(2, order)


# printed starting truncations, as exact series builders keyed by j;
# verify_recursion checks the recursion regenerates each of these
def _fam1_1_bases(order):
    g2, g3 = geom(2, order), geom(3, order)
    return {1: one(order), 2: g2, 3: g3 + g2 - one(order)}


def _fam1_2_bases(order):
    g3 = geom(3, order)
    return {1: one(order), 2: one(order), 3: g3, 4: g3,
            5: geom(5, order) + g3 - one(order)}


def _fam1_3_bases(order):
    g2 = geom(2, order)
    p3 = (one(order) - monomial(5, order)) * geom(3, order) * g2
    p4 = p3 + geom(4, order).shift(4) * g2
    p5 = p4 + _q_over(5, order) * p3
    return {1: one(order), 2: g2, 3: p3, 4: p4, 5: p5}


def _not3mod4_bases(order):
    return {2: (one(order) - monomial(3, order)) * geom(1, order) * geom(2, order)}


def _triangle_base(order):
    return {1: (one(order) - monomial(3, order)) * geom(1, order)}  # (1-q^3)/(1-q)


@dataclass(frozen=True)
class RecursionReport:
    name: str
    order: int
    levels: tuple
    passed: bool
    first_mismatch: Optional[tuple] = None   # (j, n, recursion, dp)
    bases_ok: bool = True


class Recursion(NamedTuple):
    """P_first = start(order), then P_j = step(j, values, order) for
    j = first + stride, first + 2*stride, ...; bases(order) gives the
    printed truncations {j: P_j} the replay must regenerate."""
    first: int
    start: Callable
    stride: int
    step: Callable
    bases: Callable = lambda order: {}


_RECURSIONS = {
    "FAM1_1_K2": Recursion(0, one, 1, _offsets({0: ((2, 1), (4, -1), (5, 1)),
                                                1: ((3, 1), (4, -1), (5, 1)),
                                                2: ((2, 1),)}), _fam1_1_bases),
    "FAM1_2_K2": Recursion(0, one, 1, _offsets({0: ((2, 1),),
                                                1: ((2, 1), (4, -1), (5, 1)),
                                                2: ((3, 1), (4, -1), (5, 1))}),
                           _fam1_2_bases),
    "FAM1_3_K2": Recursion(0, one, 1, _offsets({0: ((3, 1), (4, -1), (5, 1)),
                                                1: ((2, 1),),
                                                2: ((2, 1), (4, -1), (5, 1))}),
                           _fam1_3_bases),
    "FAM3_K1": Recursion(0, one, 1, _offsets({0: ((2, 1),), 1: ((1, 1),)}),
                         _not3mod4_bases),
    # defined on odd truncation levels only
    "FAM2_K1": Recursion(1, one, 2, _fam2k1_step),
    "FAM8_MOD9_S04": Recursion(0, one, 3, _fam8("low")),
    "FAM8_MOD9_S05": Recursion(0, one, 3, _fam8("high")),
    "FAM8_MOD9_S37": Recursion(1, _fam8_p1, 3, _fam8("low"), _triangle_base),
    "FAM8_MOD9_S38": Recursion(1, _fam8_p1, 3, _fam8("high"), _triangle_base),
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
        values[j] = row.step(j, values, order)
    return {j: p for j, p in values.items() if j <= j_max}


def verify_recursion(name: str, j_max: int, order: int) -> RecursionReport:
    key = _resolve(name)
    ident = get_identity(key)
    values = recursion_values(key, j_max, order)
    printed = _RECURSIONS[key].bases(order)
    bases_ok = all(values[j] == p for j, p in printed.items() if j in values)

    levels = tuple(sorted(values))
    for j in levels:
        via_dp = sum_series_dp(ident.flat, order, largest_part=j)
        split = first_mismatch(values[j], via_dp)
        if split is not None:
            return RecursionReport(key, order, levels, False, (j,) + split,
                                   bases_ok)
    return RecursionReport(key, order, levels, bases_ok,
                           None, bases_ok)
