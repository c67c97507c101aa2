"""The catalog of registered partition identities.

Each entry pairs a product side (parts restricted to residue classes,
as a ProductSpec) with a sum side (a predicate on partitions written
straight from the identity's prose statement) and its exact window
encoding (ConditionSet), by which it counts.  Many entries also carry
a conjugate-side predicate: membership of the conjugate partition is
governed by part frequencies and counts of strictly greater parts.

Each of Families 1-7 is one table row, a function of k, that states the
product classes and the sum side's prose conditions.  The window form,
the conjugate side, the product and the bijections' copy counts are all
derived from the row's one table of banned differences.  The corollary
linking Family 9 to Andrews' companion has rows of the same kind, from
which its window forms are derived.  Capparelli's first identity adds
a smallest-part bound to its window rules; every entry counts by the DP.

Names follow the pattern FAMILY_K<k>[_I<i>] for parametrized families;
one-off classical identities have bare names (MACMAHON, SCHUR, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from .conditions import ConditionSet, condition_set
# count_by_predicate is re-exported as the enumeration route for any
# entry's sum_pred; count_series itself always takes the DP
from .counting import count_by_predicate  # noqa: F401
from .counting import packed_sum_series, sum_series_dp
from .errors import PreconditionViolated, UnknownFamily, require_int, require_type
from .partitions import as_partition, frequency_profile
from .series import (IntSeries, ProductSpec, first_mismatch, first_split,
                     packed_product, require_order, unpack)

SUM = "sum"
CONJUGATE = "conjugate"
PRODUCT = "product"


@dataclass(frozen=True)
class Statement:
    """The claim that the sum side, counted by the window form, equals
    the product.

    first_mismatch compares the two sides packed: the DP's row
    (packed_sum_series) and the product's divisions (packed_product),
    both high-first in b-bit fields.  When every class exponent is at
    most 1, as for every registry entry, both use b = partition_bits
    (order), every field lies in [0, 2**b) and none carries, so the sides
    agree exactly when the two ints are equal, and the highest bit of
    their XOR lies in the field of the first split (series.first_split);
    nothing is unpacked.  A class exponent above 1 widens the product's
    fields beyond the count's; only then are both sides unpacked and
    compared coefficient by coefficient."""
    flat: ConditionSet
    product: ProductSpec

    def __post_init__(self):
        require_type(self.flat, ConditionSet, "flat")
        require_type(self.product, ProductSpec, "product")

    def count_series(self, order: int) -> IntSeries:
        """Sum-side counting series by the DP over the window form."""
        return sum_series_dp(self.flat, order)

    def product_series(self, order: int) -> IntSeries:
        from .series import product_series
        return product_series(self.product, order)

    def first_mismatch(self, order: int) -> Optional[tuple]:
        """(n, sum, product) at the first split up to order, or None."""
        order = require_order(order)
        row, b = packed_sum_series(self.flat, order)
        packed, width = packed_product(self.product.exponents(order), order)
        if width == b:
            return first_split(row, packed, b, order)
        return first_mismatch(unpack(row, b, order), unpack(packed, width, order))


@dataclass(frozen=True)
class RegisteredIdentity(Statement):
    name: str
    summary: str
    sum_pred: Callable
    conj_pred: Optional[Callable] = None
    family: str = ""
    params: tuple = ()

    def param(self, key, default=None):
        return dict(self.params).get(key, default)


def _adjacent(parts):
    return zip(parts, parts[1:])


# ----------------------------------------------------------- Families 1-7
#
# Each pairs the multiples of a core modulus (3 for Family 1, 2 for the
# rest) and a few other classes with a sum side that bans flat 2-windows
# (b+d, b) by the class of b mod core.  bans() reads a row's prose as
# {banned difference d: banned classes of b}, with b = 0 for a fictitious
# zero below the smallest part.  The prose predicate is kept as written,
# and the test suite checks every derived form against it.

def _steps3(lo: int, hi: int) -> frozenset:
    return frozenset(range(lo, hi + 1, 3))


def _odds(lo: int, hi: int) -> frozenset:
    return frozenset(range(lo, hi + 1, 2))


@dataclass(frozen=True)
class Family1Row:
    """One variant of Family 1 at one k, modulus 3k+3: low differences
    2, 5, ..., 3k-4 and high differences 4, 7, ..., 3k-2 of adjacent parts."""
    core = 3
    k: int
    residues: tuple      # product classes off 0 mod 3: (2 mod 3, 1 mod 3)
    low_residue: int     # smaller part's residue mod 3 banned at a low difference
    high_residue: int    # smaller part's residue mod 3 required at a high difference
    initial: frozenset   # part values that may not appear at all

    @property
    def modulus(self) -> int:
        return 3 * self.k + 3

    @property
    def low(self) -> frozenset:
        return _steps3(2, 3 * self.k - 4)

    @property
    def high(self) -> frozenset:
        return _steps3(4, 3 * self.k - 2)

    def sum_pred(self) -> Callable:
        low, high = self.low, self.high

        def pred(parts) -> bool:
            if any(p in self.initial for p in parts):
                return False
            for a, b in _adjacent(parts):
                d = a - b
                if d == 1:
                    return False
                if d in low and b % 3 == self.low_residue:
                    return False
                if d in high and b % 3 != self.high_residue:
                    return False
            return True

        return pred

    def bans(self) -> dict:
        every = frozenset(range(3))
        bans = {1: every}
        bans.update(dict.fromkeys(self.low, frozenset({self.low_residue})))
        bans.update(dict.fromkeys(self.high, every - {self.high_residue}))
        return bans


@dataclass(frozen=True)
class FamilyRow:
    """One of Families 2-7 at one k: the product's one odd class, and a sum
    side that bans some smallest parts, some adjacent differences, and some
    values lying a given odd distance below a part of a given parity."""
    core = 2
    modulus: int
    residues: tuple       # the product's one odd class
    smallest: frozenset   # banned values of the smallest part
    diffs: frozenset      # banned differences of adjacent parts
    parity: int           # parity of the parts that trigger the distance ban
    distances: frozenset  # banned distances below a triggering part

    def sum_pred(self) -> Callable:
        def pred(parts) -> bool:
            if parts and parts[-1] in self.smallest:
                return False
            if any(a - b in self.diffs for a, b in _adjacent(parts)):
                return False
            present = set(parts)
            for p in present:
                if p % 2 == self.parity:
                    if any((p - d) in present for d in self.distances):
                        return False
            return True

        return pred

    def bans(self) -> dict:
        # distances are odd, so the part one distance below a trigger has
        # the other parity; a banned difference bans both parities
        bans = dict.fromkeys(self.distances, frozenset({1 - self.parity}))
        bans.update(dict.fromkeys(self.diffs, frozenset(range(2))))
        return bans


# family: k -> row.  Family 1: k, residues, low and high residue, initial
# parts.  Families 2-7: modulus, odd class; smallest, diffs, parity, distances.
_FAMILY_ROWS = {
    "FAM1_1": lambda k: Family1Row(k, (2, 3 * k + 1), 2, 1, _steps3(1, 3 * k - 2)),
    "FAM1_2": lambda k: Family1Row(k, (3 * k - 1, 3 * k + 1), 0, 2,
                                   _steps3(1, 3 * k - 2) | _steps3(2, 3 * k - 4)),
    "FAM1_3": lambda k: Family1Row(k, (2, 4), 1, 0, frozenset({1})),
    "FAM2": lambda k: FamilyRow(
        2 * k + 2, (2 * k + 1,), _odds(1, 2 * k - 1), frozenset(), 1,
        _odds(1, 2 * k - 1)),
    "FAM3": lambda k: FamilyRow(
        2 * k + 2, (1,), frozenset(), frozenset(), 0, _odds(1, 2 * k - 1)),
    "FAM4": lambda k: FamilyRow(
        2 * k + 6, (3,), frozenset({1}), frozenset({1}), 0, _odds(3, 2 * k + 1)),
    "FAM5": lambda k: FamilyRow(
        2 * k + 6, (2 * k + 3,), _odds(1, 2 * k + 1), frozenset({1}), 1,
        _odds(3, 2 * k + 1)),
    "FAM6": lambda k: FamilyRow(
        4 * k + 8, (2 * k + 5,), _odds(1, 2 * k + 3), _odds(1, 2 * k + 1), 1,
        frozenset({2 * k + 3})),
    "FAM7": lambda k: FamilyRow(
        4 * k + 8, (2 * k + 3,), _odds(1, 2 * k + 1), _odds(1, 2 * k + 1), 0,
        frozenset({2 * k + 3})),
}


def family_row(family: str, k: int):
    """The row of FAM1_1 .. FAM1_3 or FAM2 .. FAM7 at k."""
    fam = normalize_name(family)
    make = _FAMILY_ROWS.get(fam)
    if make is None:
        raise UnknownFamily("%r is not one of Families 1-7" % family)
    if require_int(k, "k") < 1:
        raise PreconditionViolated("%s needs k >= 1, got k=%d" % (fam, k))
    return make(k)


def row_product(row) -> ProductSpec:
    return ProductSpec.from_residues(
        row.modulus, set(range(0, row.modulus, row.core)) | set(row.residues))


def row_flat(row) -> ConditionSet:
    """The window form.  The window (b+d, b) is the (d//2 + 1)-th flattest
    2-window of its total 2b + d, so banning b = rho mod core at difference
    d forbids it on totals 2rho + d mod 2core, and a difference banned for
    every class forbids it on totals of d's parity.  One fictitious zero
    covers the banned smallest parts (b = 0)."""
    bans = row.bans()
    m = 2 * row.core
    rules = []
    for d, classes in bans.items():
        if len(classes) == row.core:
            rules.append((d // 2 + 1, 2, d % 2, 2))
        else:
            rules.extend((d // 2 + 1, 2, (2 * rho + d) % m, m) for rho in classes)
    return condition_set(rules, zeros=int(any(0 in c for c in bans.values())))


def row_conj_pred(row) -> Callable:
    """Conjugate side: a part with frequency f and g strictly greater parts
    is banned when g mod core is a class the row bans at difference f."""
    bans = row.bans()

    def pred(parts) -> bool:
        for _v, (f, g) in frequency_profile(parts).items():
            if g % row.core in bans.get(f, ()):
                return False
        return True

    return pred


# ---------------------------------------------------------------- Family 8

def fam8_sum_pred(residues, modulus: int, width: int, zeros: int) -> Callable:
    """Forbid any width-window of the zero-padded partition whose first and
    last entries differ by less than 2 and whose sum falls in the class set."""
    classes = set(r % modulus for r in residues)

    def pred(parts) -> bool:
        ext = tuple(parts) + (0,) * zeros
        for i in range(len(ext) - width + 1):
            win = ext[i:i + width]
            if win[0] == 0:
                continue
            if win[0] - win[-1] < 2 and sum(win) % modulus in classes:
                return False
        return True

    return pred


def fam8_flat(residues, modulus: int, width: int, zeros: int) -> ConditionSet:
    return condition_set(
        [(1, width, r, modulus) for r in residues], zeros=zeros)


def _avoiding(classes, modulus: int) -> ProductSpec:
    """Parts in none of the classes mod modulus."""
    banned = set(r % modulus for r in classes)
    return ProductSpec.from_residues(
        modulus, [r for r in range(modulus) if r not in banned])


# -------------------------------------- Family 9 and its Andrews companion
#
# The corollary at k interpolates, through i = 0 .. k-1, between Family 9
# (i = 0) and Andrews' companion (i = k-1); FAM9_K<k> and AND1_K<k> are
# its ends.  Every condition bans a pair of parts by the smaller part's
# parity, and a part lying between a banned pair forms a banned pair with
# one of its ends, so adjacent pairs suffice and row_flat reads the row
# like those of Families 2-7.

@dataclass(frozen=True)
class CorRow:
    """The corollary at k and 0 <= i < k, modulus 4k: an odd part p is at
    least 2i+1, and no other part q has p <= q <= p+2k-2 if q is odd, or
    p+1-2i <= q <= p+2k-2i-3 if q is even."""
    core = 2
    k: int
    i: int

    def sum_pred(self) -> Callable:
        k, i = self.k, self.i

        def pred(parts) -> bool:
            for a, p in enumerate(parts):
                if p % 2 == 1:
                    if p < 2 * i + 1:
                        return False
                    for b, q in enumerate(parts):
                        if b == a:
                            continue
                        if q % 2 == 0 and p + 1 - 2 * i <= q <= p + 2 * k - 2 * i - 3:
                            return False
                        if q % 2 == 1 and p <= q <= p + 2 * k - 2:
                            return False
            return True

        return pred

    def bans(self) -> dict:
        # two odd parts at an even distance; an odd part below an even one
        # (class 1) or above one (class 0, the zero standing for p < 2i+1)
        below = _odds(1, 2 * self.k - 2 * self.i - 3)
        above = _odds(1, 2 * self.i - 1)
        bans = dict.fromkeys(range(0, 2 * self.k - 1, 2), frozenset({1}))
        for d in below | above:
            bans[d] = frozenset(c for c, ds in ((0, above), (1, below)) if d in ds)
        return bans


def cor_product(k: int, i: int) -> ProductSpec:
    m = 4 * k
    residues = [r for r in range(0, m, 2) if r != (4 * i + 2) % m]
    residues += [2 * i + 1, (2 * k + 2 * i + 1) % m]
    return ProductSpec.from_residues(m, residues)


# ------------------------------------------------------------- classical

def schur_sum_pred(parts) -> bool:
    for a, b in _adjacent(parts):
        if a - b < 3:
            return False
        if a - b == 3 and a % 3 == 0 and b % 3 == 0:
            return False
    return True


def gg_sum_pred(parts) -> bool:
    for a, b in _adjacent(parts):
        if a - b < 2:
            return False
        if a - b == 2 and a % 2 == 0:
            return False
    return True


def capparelli_sum_pred(parts) -> bool:
    if parts and parts[-1] < 2:
        return False
    for a, b in _adjacent(parts):
        if a - b < 2:
            return False
        if a - b in (2, 3) and (a + b) % 3 != 0:
            return False
    return True


def gordon_sum_pred(k: int, i: int) -> Callable:
    def pred(parts) -> bool:
        if sum(1 for p in parts if p == 1) > i - 1:
            return False
        for j in range(len(parts) - k + 1):
            if parts[j] - parts[j + k - 1] < 2:
                return False
        return True

    return pred


def bressoud_sum_pred(k: int, i: int) -> Callable:
    base = gordon_sum_pred(k, i)

    def pred(parts) -> bool:
        if not base(parts):
            return False
        for j in range(len(parts) - k + 2):
            win = parts[j:j + k - 1]
            if win and win[0] - win[-1] <= 1 and sum(win) % 2 != (i - 1) % 2:
                return False
        return True

    return pred


def mod9_sum_pred(min_part: int) -> Callable:
    def pred(parts) -> bool:
        if parts and parts[-1] < min_part:
            return False
        for a, b in _adjacent(parts):
            if a - b <= 1 and (a + b) % 3 != 0:
                return False
        for j in range(len(parts) - 2):
            if parts[j] - parts[j + 2] < 3:
                return False
        return True

    return pred


_MOD9_FLAT_RULES = [(1, 2, 1, 3), (1, 2, 2, 3), (1, 3, 0, 1), (2, 3, 0, 1)]


# ------------------------------------------------------------- the registry

_REGISTRY: dict = {}
_ALIASES = {"NOT3MOD4": "FAM3_K1"}


def _register(ident: RegisteredIdentity):
    if ident.name in _REGISTRY:
        raise ValueError("duplicate identity name %r" % ident.name)
    _REGISTRY[ident.name] = ident


def _build_registry():
    # Families 1-7; Family 1 up to k=3 (k=1 collapses onto MacMahon)
    for family, make in _FAMILY_ROWS.items():
        fam1 = family.startswith("FAM1")
        for k in (1, 2, 3) if fam1 else (1, 2):
            row = make(k)
            _register(RegisteredIdentity(
                name="%s_K%d" % (family, k),
                summary=("Family 1.%s with modulus %d" % (family[5:], row.modulus)
                         if fam1 else "Family %s with k=%d" % (family[3:], k)),
                product=row_product(row),
                sum_pred=row.sum_pred(),
                flat=row_flat(row),
                conj_pred=row_conj_pred(row),
                family=family,
                params=(("k", k),),
            ))

    # Family 8: the mod-5 base family and the multi-class sets.  Zero
    # counts below are the ones that make each identity true; see the
    # refuted catalog for class pairs whose window form overcounts.
    for j in range(1, 6):
        _register(_fam8_entry("FAM8_MOD5_J%d" % j, (j,), 5, 3, 2))
    mod9 = [((0, 3), 0), ((0, 4), 0), ((0, 5), 0), ((0, 6), 0),
            ((1, 6), 2), ((2, 6), 1), ((3, 6), 0), ((3, 7), 0), ((3, 8), 0)]
    for s, zeros in mod9:
        _register(_fam8_entry("FAM8_MOD9_S%d%d" % s, s, 9, 3, zeros))
    for s in [(0, 5), (3, 8), (4, 9)]:
        _register(_fam8_entry("FAM8_MOD10_S%d%d" % s, s, 10, 3, 0))
    mod11_z0 = [(0, 5), (0, 6), (3, 8), (3, 9), (4, 9), (4, 10), (5, 10)]
    mod11_z1 = [(2, 7), (2, 8)]
    mod11_z2 = [(1, 6), (1, 7)]
    for zeros, sets in ((0, mod11_z0), (1, mod11_z1), (2, mod11_z2)):
        for s in sets:
            _register(_fam8_entry(_mod11_name(s, zeros), s, 11, 3, zeros))
    _register(_fam8_entry("FAM8_MOD23", (0, 9, 16), 23, 3, 0))
    _register(_fam8_entry("FAM8_MOD17_D3", (0, 7), 17, 4, 0))

    # Class pairs in the same style whose sum side strictly overcounts
    # the product from some n on, for every fictitious zero count.  Each
    # carries the first overcount location for regression pinning.
    _refute((3, 9), 10, 35)
    _refute((5, 9), 10, 45)
    _refute((0, 4), 11, 40)
    _refute((3, 7), 11, 45)
    _refute((6, 10), 11, 50)
    _refute((2, 9), 11, 55, zeros=1)

    # the interpolating corollary, then Family 9 and its Andrews-style
    # companion as its ends
    for k in (2, 3):
        for i in range(k):
            row = CorRow(k, i)
            _register(RegisteredIdentity(
                name="COR_K%d_I%d" % (k, i),
                summary="Interpolated odd-isolation identity (k=%d, i=%d)" % (k, i),
                product=cor_product(k, i),
                sum_pred=row.sum_pred(),
                flat=row_flat(row),
                family="COR", params=(("k", k), ("i", i)),
            ))
        for family, i, side in (("FAM9", 0, "above"), ("AND1", k - 1, "below")):
            _register(replace(
                _REGISTRY["COR_K%d_I%d" % (k, i)], name="%s_K%d" % (family, k),
                summary="Odd parts isolated %s, modulus %d" % (side, 4 * k),
                family=family))

    # classical regressions; the Rogers-Ramanujan pair is Gordon at k=2,
    # MacMahon is Family 1 at k=1, and Andrews' mod-6 identity is Bressoud
    # at k=3, i=1 with a second window encoding
    _register(replace(_gordon(2, 2), name="RR1",
                      summary="Difference at least 2",
                      family="RR", params=(("i", 1),)))
    _register(replace(_gordon(2, 1), name="RR2",
                      summary="Difference at least 2, parts at least 2",
                      family="RR", params=(("i", 2),)))
    _register(replace(_REGISTRY["FAM1_1_K1"], name="MACMAHON",
                      summary="No consecutive integers, no ones",
                      family="MACMAHON", params=()))
    _register(RegisteredIdentity(
        name="ANDREWS_236",
        summary="No consecutive integers, no ones, no part three times",
        product=_avoiding((0, 1, -1), 6),
        sum_pred=bressoud_sum_pred(3, 1),
        flat=condition_set([(1, 2, 1, 2), (1, 3, 0, 3)], zeros=1),
        family="ANDREWS_236"))
    _register(RegisteredIdentity(
        name="SCHUR",
        summary="Difference at least 3, no adjacent multiples of 3",
        product=ProductSpec.from_residues(6, [1, 5]),
        sum_pred=schur_sum_pred,
        flat=condition_set([(1, 2, 0, 1), (2, 2, 0, 6), (2, 2, 2, 6),
                            (2, 2, 3, 6), (2, 2, 4, 6)]),
        family="SCHUR"))
    _register(RegisteredIdentity(
        name="GG",
        summary="Difference at least 2, no adjacent evens two apart",
        product=ProductSpec.from_residues(8, [1, 4, 7]),
        sum_pred=gg_sum_pred,
        flat=condition_set([(1, 2, 0, 1), (2, 2, 2, 4)]),
        family="GG"))
    _register(RegisteredIdentity(
        name="CAPPARELLI1",
        summary="Gap 2, gaps of 2 or 3 need sums divisible by 3, no ones",
        product=ProductSpec.from_residues(12, [2, 3, 9, 10]),
        sum_pred=capparelli_sum_pred,
        flat=condition_set([(1, 2, 0, 1), (2, 2, 1, 3), (2, 2, 2, 3)],
                           min_part=2),
        family="CAPPARELLI"))
    for k in (2, 3, 4):
        for i in range(1, k + 1):
            _register(_gordon(k, i))
        for i in range(1, k):
            _register(RegisteredIdentity(
                name="BRESSOUD_K%d_I%d" % (k, i),
                summary="Even-modulus gap condition with a parity constraint",
                product=_avoiding((0, i, -i), 2 * k),
                sum_pred=bressoud_sum_pred(k, i),
                flat=condition_set([(1, k, 0, 1), (1, k - 1, i % 2, 2)],
                                   zeros=k - i),
                family="BRESSOUD", params=(("k", k), ("i", i)),
            ))
    mod9_products = {1: (1, 3, 6, 8), 2: (2, 3, 6, 7), 3: (3, 4, 5, 6)}
    for idx in (1, 2, 3):
        _register(RegisteredIdentity(
            name="MOD9_I%d" % idx,
            summary="Distance-2 gap of 3 with a mod-3 pair condition",
            product=ProductSpec.from_residues(9, mod9_products[idx]),
            sum_pred=mod9_sum_pred(idx),
            flat=condition_set(_MOD9_FLAT_RULES, zeros=idx - 1),
            family="MOD9", params=(("i", idx),)))


def _gordon(k: int, i: int) -> RegisteredIdentity:
    return RegisteredIdentity(
        name="GORDON_K%d_I%d" % (k, i),
        summary="Gordon-style gap condition at distance %d" % (k - 1),
        product=_avoiding((0, i, -i), 2 * k + 1),
        sum_pred=gordon_sum_pred(k, i),
        flat=condition_set([(1, k, 0, 1)], zeros=k - i),
        family="GORDON", params=(("k", k), ("i", i)),
    )


def _fam8_entry(name, residues, modulus, width, zeros) -> RegisteredIdentity:
    return RegisteredIdentity(
        name=name,
        summary="Flat %d-windows avoid sums in %r mod %d"
                % (width, tuple(residues), modulus),
        product=_avoiding(residues, modulus),
        sum_pred=fam8_sum_pred(residues, modulus, width, zeros),
        flat=fam8_flat(residues, modulus, width, zeros),
        family="FAM8",
        params=(("residues", tuple(residues)), ("modulus", modulus),
                ("width", width), ("zeros", zeros)),
    )


def _mod11_name(s, zeros) -> str:
    tag = "_".join(str(x) for x in s) if max(s) > 9 else "%d%d" % tuple(s)
    if zeros == 0:
        return "FAM8_MOD11_S%s" % tag
    return "FAM8_MOD11_Z%d_S%s" % (zeros, tag)


@dataclass(frozen=True)
class RefutedConjecture(Statement):
    """A window/product class pair whose sum side first exceeds the product
    at `counterexample_n`, the first split that verify checks for (with the
    stated zeros; no other zero count rescues it)."""
    name: str
    counterexample_n: int


_REFUTED: dict = {}


def _refute(residues, modulus, counterexample_n, zeros=0):
    if modulus == 11:
        name = _mod11_name(residues, zeros)
    else:
        name = "FAM8_MOD%d_S%d%d" % ((modulus,) + tuple(residues))
    _REFUTED[name] = RefutedConjecture(
        fam8_flat(residues, modulus, 3, zeros), _avoiding(residues, modulus),
        name, counterexample_n)


_build_registry()


def refuted_names() -> list:
    return sorted(_REFUTED)


def get_refuted(name: str) -> RefutedConjecture:
    key = normalize_name(name)
    try:
        return _REFUTED[key]
    except KeyError:
        raise UnknownFamily("no refuted conjecture recorded under %r" % name) from None


def registered_names() -> list:
    return sorted(_REGISTRY)


def normalize_name(name: str) -> str:
    """A user-typed family or identity name, stripped and upper-cased; a
    name that is not a str raises PreconditionViolated."""
    return require_type(name, str, "name").strip().upper()


def canonical_name(name: str) -> str:
    """The registry key a user-typed identity name stands for."""
    key = normalize_name(name)
    return _ALIASES.get(key, key)


def get_identity(name: str) -> RegisteredIdentity:
    key = canonical_name(name)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise UnknownFamily("no identity registered under %r" % name) from None


def family_satisfies(name: str, parts, form: str = SUM) -> bool:
    """Membership test for one side of a registered identity; the parts
    must form a partition (positive, weakly decreasing)."""
    ident = get_identity(name)
    parts = as_partition(parts)
    if form == SUM:
        return bool(ident.sum_pred(parts))
    if form == CONJUGATE:
        if ident.conj_pred is None:
            raise UnknownFamily("%s states no conjugate form" % ident.name)
        return bool(ident.conj_pred(parts))
    if form == PRODUCT:
        return all(ident.product.allows_part(p) for p in parts)
    raise PreconditionViolated("form must be sum, conjugate, or product")
