"""Truncation recursions for selected identities.

P_j here always means the generating function for the identity's sum
side restricted to partitions whose largest part is at most j.  The
recursions below build P_j from earlier truncations using only exact
series arithmetic; verify_recursion replays them and compares every
computed P_j against the window-condition DP with the same largest-part
bound, reporting the first (j, n) disagreement.

Three of the mod-9 family recursions advance j by 3; the rest advance
by 1 or 2.  Values of j the recursion never defines are simply skipped
in the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .counting import sum_series_dp
from .errors import UnknownRecursion
from .families import canonical_name, get_identity
from .series import IntSeries, first_difference, geom, monomial, one

# offset tables: for each residue of j mod the table's length the terms
# (offset, sign) in
#   P_j = P_{j-1} + q^j/(1-q^j) * sum(sign * P_{j-offset})
_OFFSETS = {
    "FAM1_1_K2": {0: ((2, 1), (4, -1), (5, 1)),
                  1: ((3, 1), (4, -1), (5, 1)),
                  2: ((2, 1),)},
    "FAM1_2_K2": {0: ((2, 1),),
                  1: ((2, 1), (4, -1), (5, 1)),
                  2: ((3, 1), (4, -1), (5, 1))},
    "FAM1_3_K2": {0: ((3, 1), (4, -1), (5, 1)),
                  1: ((2, 1),),
                  2: ((2, 1), (4, -1), (5, 1))},
    "FAM3_K1": {0: ((2, 1),), 1: ((1, 1),)},
}


def _q_over(j: int, order: int) -> IntSeries:
    """q^j / (1 - q^j), truncated."""
    return geom(j, order).shift(j)


def _offset_values(name: str, j_max: int, order: int) -> dict:
    table = _OFFSETS[name]
    zero_s = IntSeries([0] * (order + 1))
    values = {0: one(order)}
    for j in range(1, j_max + 1):
        acc = zero_s
        for off, sign in table[j % len(table)]:
            prev = values.get(j - off, zero_s)
            acc = acc + prev if sign > 0 else acc - prev
        values[j] = values[j - 1] + _q_over(j, order) * acc
    return values


def _fam2k1_values(_name: str, j_max: int, order: int) -> dict:
    # defined on odd truncation levels only
    values = {1: one(order)}
    j = 1
    while j + 2 <= j_max:
        j += 2
        prev = values[j - 2]
        values[j] = _q_over(j, order) * prev + geom(j - 1, order) * prev
    return values


def _fam8_step(shape: str, j: int, order: int) -> IntSeries:
    """One advancement factor of the mod-9 class-pair recursions, taking
    the truncation level from j-3 up to j."""
    head = one(order) + monomial(j, order) + monomial(2 * j, order)
    a, c = j - 1, j - 2
    if shape == "low":
        tail = _q_over(a, order) * (one(order) + monomial(c, order)) \
            + geom(c, order)
    else:
        tail = geom(a, order).shift(2 * a) \
            + geom(c, order) * (one(order) + monomial(a, order))
    return head * tail


def _fam8_values(shape: str, start: int):
    def build(_name: str, j_max: int, order: int) -> dict:
        if start == 0:
            values = {0: one(order)}
        else:
            values = {1: IntSeries([1, 1, 1] + [0] * (order - 2))}
        j = start
        while j + 3 <= j_max:
            j += 3
            values[j] = _fam8_step(shape, j, order) * values[j - 3]
        return values
    return build


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
    return {1: IntSeries([1, 1, 1] + [0] * (order - 2))}


@dataclass(frozen=True)
class RecursionReport:
    name: str
    identity: str
    order: int
    levels: tuple
    passed: bool
    first_mismatch: Optional[tuple] = None   # (j, n, recursion, dp)
    bases_ok: bool = True

    def __str__(self):
        if self.passed:
            return ("%s: recursion matches DP at levels %d..%d to order %d"
                    % (self.name, self.levels[0], self.levels[-1], self.order))
        if not self.bases_ok:
            return "%s: printed starting values disagree" % self.name
        j, n, got, want = self.first_mismatch
        return ("%s: first mismatch at level %d, coefficient %d (%d vs %d)"
                % (self.name, j, n, got, want))


_RECURSIONS = {
    "FAM1_1_K2": (_offset_values, _fam1_1_bases),
    "FAM1_2_K2": (_offset_values, _fam1_2_bases),
    "FAM1_3_K2": (_offset_values, _fam1_3_bases),
    "FAM3_K1": (_offset_values, _not3mod4_bases),
    "FAM2_K1": (_fam2k1_values, None),
    "FAM8_MOD9_S04": (_fam8_values("low", 0), None),
    "FAM8_MOD9_S05": (_fam8_values("high", 0), None),
    "FAM8_MOD9_S37": (_fam8_values("low", 1), _triangle_base),
    "FAM8_MOD9_S38": (_fam8_values("high", 1), _triangle_base),
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
    key = _resolve(name)
    builder, _bases = _RECURSIONS[key]
    return builder(key, j_max, order)


def verify_recursion(name: str, j_max: int, order: int) -> RecursionReport:
    key = _resolve(name)
    ident = get_identity(key)
    values = recursion_values(key, j_max, order)
    _builder, bases = _RECURSIONS[key]

    bases_ok = True
    if bases is not None:
        for j, printed in bases(order).items():
            if j in values and values[j] != printed:
                bases_ok = False

    levels = tuple(sorted(values))
    for j in levels:
        via_dp = sum_series_dp(ident.flat, order, largest_part=j)
        got = values[j]
        n = first_difference(got, via_dp)
        if n is not None:
            return RecursionReport(key, ident.name, order, levels, False,
                                   (j, n, got.coeffs[n], via_dp.coeffs[n]),
                                   bases_ok)
    return RecursionReport(key, ident.name, order, levels, bases_ok,
                           None, bases_ok)
