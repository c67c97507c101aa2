"""Executable bijections behind the product/conjugate identities.

The core is the hook dissection of an odd partition into a distinct one
(sylvester_map): writing each odd part as 2a_i + 1 and letting d_c count
the rows with a_j >= c, the image parts come in pairs

    mu_{2i-1} = a_i + d_{i-1} - 2(i-1),
    mu_{2i}   = a_i + d_i   - 2i + 1,

taken while positive.  The inverse peels the same pairs back off and
recovers the remaining short rows from column counts.  A part-count
statistic survives the map: the number of odd parts equals the
alternating sum of the image.

On top of that sit the modulus-m regular/restricted map (stockhofe_map)
and one wrapper that serves all of Families 1-7, at m = 3 for Family 1
and m = 2 for the rest: it splits the parts divisible by m, sends each
product residue class to a class of m-regular parts, runs the core map,
and copies each image part a number of times fixed by its index mod m;
the copy counts are the gaps between successive product classes.

Every public map checks its input with as_partition: parts out of
weakly decreasing order raise PreconditionViolated and are never sorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional

from .errors import (NotInProductClass, PreconditionViolated, UnknownFamily, require_int,
                     require_type)
from .families import family_row, normalize_name, row_conj_pred, row_product
from .partitions import as_partition, frequency_profile, partitions_of

SYLVESTER_CORE = "structural hook dissection"
RANK_CORE = "rank matching within (weight, type) classes"


def length_type(parts, modulus: int) -> tuple:
    """Counts of parts in each nonzero residue class mod `modulus`."""
    parts = as_partition(parts)
    require_int(modulus, "modulus", 2)
    if any(p % modulus == 0 for p in parts):
        raise PreconditionViolated(
            "length type undefined: part divisible by %d" % modulus)
    alpha = [0] * (modulus - 1)
    for p in parts:
        alpha[p % modulus - 1] += 1
    return tuple(alpha)


def alternating_sum_type(parts, modulus: int) -> tuple:
    """Differences M_i - M_{i+1} of index-class part sums, where M_i sums
    the parts whose (1-based) index is congruent to i mod `modulus`."""
    parts = as_partition(parts)
    require_int(modulus, "modulus", 2)
    if any(f >= modulus for f, _g in frequency_profile(parts).values()):
        raise PreconditionViolated(
            "alternating sum type undefined: a part repeats %d times" % modulus)
    sums = [0] * modulus
    for idx, p in enumerate(parts, start=1):
        sums[idx % modulus] += p
    ordered = sums[1:] + sums[:1]        # M_1, ..., M_{m-1}, M_m
    return tuple(ordered[i] - ordered[i + 1] for i in range(modulus - 1))


# ------------------------------------------------------- odd <-> distinct

def sylvester_map(parts) -> tuple:
    parts = as_partition(parts)
    if any(p % 2 == 0 for p in parts):
        raise PreconditionViolated("sylvester_map needs all parts odd")
    a = [(p - 1) // 2 for p in parts]
    ell = len(a)

    def d(c):
        return ell if c == 0 else sum(1 for x in a if x >= c)

    image = []
    for i in range(1, ell + 1):
        first = (a[i - 1] - i + 1) + max(0, d(i - 1) - (i - 1))
        if first <= 0:
            break
        image.append(first)
        second = (a[i - 1] - i) + max(0, d(i) - (i - 1))
        if second <= 0:
            break
        image.append(second)
    return tuple(image)


def sylvester_inverse(parts) -> tuple:
    mu = as_partition(parts)
    if len(set(mu)) != len(mu):
        raise PreconditionViolated("sylvester_inverse needs distinct parts")
    if not mu:
        return ()
    ell = sum(p if i % 2 == 0 else -p for i, p in enumerate(mu))
    pinned = len(mu) - len(mu) // 2      # rows recovered from hook pairs
    full = len(mu) // 2                  # pairs giving a column count too
    a, d = [], [ell]
    for i in range(1, pinned + 1):
        a_i = mu[2 * i - 2] + (i - 1) - max(0, d[i - 1] - (i - 1))
        a.append(a_i)
        if 2 * i - 1 < len(mu):
            d.append(mu[2 * i - 1] - a_i + 2 * i - 1)
    # short rows below the hooks, from leftover column counts
    tail_counts = [d[c] - sum(1 for x in a if x >= c) for c in range(1, full + 1)]
    tail = [sum(1 for t in tail_counts if t >= j) for j in range(1, ell - pinned + 1)]
    rows = a + tail
    if (len(rows) != ell or any(x < 0 for x in rows)
            or any(rows[i] < rows[i + 1] for i in range(len(rows) - 1))):
        raise PreconditionViolated("not in the image of the odd-parts map: %r" % (mu,))
    odd = tuple(2 * x + 1 for x in rows)
    if sylvester_map(odd) != mu:
        raise PreconditionViolated("not in the image of the odd-parts map: %r" % (mu,))
    return odd


# --------------------------------------- m-regular <-> m-distinct, typed

@lru_cache(maxsize=4096)
def _typed_classes(modulus: int, n: int):
    """Canonically ordered members of each (type) class on both sides."""
    domain, codomain = {}, {}
    for p in partitions_of(n):
        if all(x % modulus for x in p):
            domain.setdefault(length_type(p, modulus), []).append(p)
        if all(f < modulus for f, _g in frequency_profile(p).values()):
            codomain.setdefault(alternating_sum_type(p, modulus), []).append(p)
    return domain, codomain


def stockhofe_core(modulus: int) -> str:
    """Which implementation stockhofe_map uses for this modulus."""
    return SYLVESTER_CORE if modulus == 2 else RANK_CORE


def stockhofe_map(modulus: int, parts) -> tuple:
    parts = as_partition(parts)
    require_int(modulus, "modulus", 2)
    if any(p % modulus == 0 for p in parts):
        raise PreconditionViolated(
            "input has a part divisible by %d" % modulus)
    if modulus == 2:
        return sylvester_map(parts)
    n = sum(parts)
    domain, codomain = _typed_classes(modulus, n)
    key = length_type(parts, modulus)
    rank = domain[key].index(parts)
    return codomain[key][rank]


def stockhofe_inverse(modulus: int, parts) -> tuple:
    parts = as_partition(parts)
    require_int(modulus, "modulus", 2)
    if any(f >= modulus for f, _g in frequency_profile(parts).values()):
        raise PreconditionViolated("input repeats a part %d times" % modulus)
    if modulus == 2:
        return sylvester_inverse(parts)
    n = sum(parts)
    domain, codomain = _typed_classes(modulus, n)
    key = alternating_sum_type(parts, modulus)
    rank = codomain[key].index(parts)
    return domain[key][rank]


# ------------------------------------------------ families 1-7 wrapper

@dataclass(frozen=True)
class WrapperSpec:
    """How one family dresses up the modulus-`core` regular/distinct core.
    A product part modulus*j + residues[r-1] maps to core*j + r, parts
    divisible by `core` split into `core` equal parts, and image part
    number i gets copies[i % core] copies.  Every copy count is congruent
    to one unit mod `core`.  `marked` is the index class that splits the
    inverse's piles (see wrapper_inverse)."""
    family: str
    k: int
    core: int
    modulus: int
    residues: tuple
    copies: tuple
    marked: int

    def to_core(self, part: int) -> int:
        j, rem = divmod(part, self.modulus)
        if rem not in self.residues:
            raise NotInProductClass(
                "%d is not in the product class of %s k=%d"
                % (part, self.family, self.k))
        return self.core * j + self.residues.index(rem) + 1

    def from_core(self, part: int) -> int:
        j, r = divmod(part, self.core)
        return self.modulus * j + self.residues[r - 1]


# trace names per core modulus: the split parts and the residue-mapped
# parts forward, and the piles whose share of mu the inverse reports
_TRACE_NAMES = {2: ("evens_halved", "odd_mapped", (2, 3)),
                3: ("triples", "affine_mapped", ())}


def wrapper_spec(family: str, k: int) -> WrapperSpec:
    """The wrapper of FAM1_1 .. FAM1_3 or FAM2 .. FAM7, from its table row.
    With r = (0, residues..., modulus), copies[i % core] = r_i - r_(i-1):
    the copy counts are the gaps between successive product classes."""
    fam = normalize_name(family)
    row = family_row(fam, k)
    r = (0,) + row.residues + (row.modulus,)
    gaps = tuple(b - a for a, b in zip(r, r[1:]))
    marked = -row.high_residue % 3 if row.core == 3 else 1
    return WrapperSpec(fam, k, row.core, row.modulus, row.residues,
                       gaps[-1:] + gaps[:-1], marked)


def wrapper_map(spec: WrapperSpec, parts, trace: Optional[dict] = None) -> tuple:
    parts = as_partition(parts)
    m = spec.core
    split, small = [], []
    for p in parts:
        if p % m == 0:
            split.extend([p // m] * m)
        else:
            small.append(spec.to_core(p))
    small = tuple(sorted(small, reverse=True))
    mu = stockhofe_map(m, small)
    replicated = []
    for idx, v in enumerate(mu, start=1):
        replicated.extend([v] * spec.copies[idx % m])
    image = tuple(sorted(split + replicated, reverse=True))
    if trace is not None:
        split_name, mapped_name, _piles = _TRACE_NAMES[m]
        require_type(trace, dict, "trace").update({
            split_name: tuple(sorted(split, reverse=True)), mapped_name: small,
            "mu": mu, "replicated": tuple(sorted(replicated, reverse=True))})
    return image


def wrapper_inverse(spec: WrapperSpec, parts, trace: Optional[dict] = None) -> tuple:
    """Undo wrapper_map.  A part with frequency f and g greater parts
    occurs e = f/c times in mu from index class 1 + g/c on (c any copy
    count, division mod core).  It lands in pile pi_1 if e = 0, else in
    pi_{2e+1} if those e classes include the marked one, else in pi_{2e}."""
    parts = as_partition(parts)
    m = spec.core
    inv = pow(spec.copies[0], -1, m)
    piles = {j: [] for j in range(1, 2 * m)}
    kept = {j: [] for j in range(1, 2 * m)}      # each pile's share of mu
    spilled = []
    for v, (f, g) in sorted(frequency_profile(parts).items(), reverse=True):
        e = f * inv % m
        classes = [(1 + g * inv + t) % m for t in range(e)]
        retained = sum(spec.copies[c] for c in classes)
        if f < retained:
            raise PreconditionViolated(
                "part %d appears %d times, fewer than the %d %s k=%d "
                "requires" % (v, f, retained, spec.family, spec.k))
        pile = 2 * e + (spec.marked in classes) if e else 1
        piles[pile].extend([v] * f)
        kept[pile].extend([v] * e)
        spilled.extend([v] * (f - retained))
    mu = tuple(sorted((v for share in kept.values() for v in share),
                      reverse=True))
    small = stockhofe_inverse(m, mu)
    unmapped = tuple(sorted((spec.from_core(o) for o in small), reverse=True))
    # f and the retained count agree mod m, so each spilled run merges whole
    merged = [m * v for v in spilled[0::m]]
    result = tuple(sorted(merged + list(unmapped), reverse=True))
    if trace is not None:
        require_type(trace, dict, "trace").update(
            ("pi_%d" % j, tuple(pile)) for j, pile in piles.items())
        trace["pi_1_prime"] = tuple(spilled)
        trace.update(("pi_%d_prime" % j, tuple(kept[j]))
                     for j in _TRACE_NAMES[m][2])
        trace.update(pi_1_double_prime=tuple(merged), mu=mu,
                     mu_prime=small, mu_double_prime=unmapped)
    return result


# ---------------------------------------------------------------- harness

@dataclass(frozen=True)
class BijectionReport:
    family: str
    k: int
    n_max: int
    passed: bool
    core: str                       # which regular/restricted core ran
    checked: int = 0
    failure: Optional[str] = None


def family_maps(family: str, k: int):
    """(forward, inverse, core) of the bijection behind a Family 1-7
    identity: FAM1_1 .. FAM1_3 or FAM2 .. FAM7.  Both maps take
    (parts, trace=None).  Raises UnknownFamily for any other family."""
    try:
        spec = wrapper_spec(family, k)
    except UnknownFamily:
        raise UnknownFamily("no bijection for %r" % family) from None
    return (partial(wrapper_map, spec), partial(wrapper_inverse, spec),
            stockhofe_core(spec.core))


def verify_bijection(family: str, k: int, n_max: int) -> BijectionReport:
    """Exhaustively check the family's map on all weights up to n_max:
    forward lands in the conjugate class, weight is preserved, the round
    trip is the identity, and all three class sizes agree."""
    fam = normalize_name(family)
    require_int(n_max, "n_max", 0)
    fwd, inv, core = family_maps(fam, k)
    row = family_row(fam, k)  # the three classes the registry builds
    product, conj_pred, sum_pred = row_product(row), row_conj_pred(row), row.sum_pred()
    checked = 0
    for n in range(n_max + 1):
        prod_class, conj_class, sum_class = [], [], []
        for p in partitions_of(n):
            if all(product.allows_part(x) for x in p):
                prod_class.append(p)
            if conj_pred(p):
                conj_class.append(p)
            if sum_pred(p):
                sum_class.append(p)
        if not (len(prod_class) == len(conj_class) == len(sum_class)):
            return BijectionReport(
                fam, k, n_max, False, core, checked,
                "class sizes differ at n=%d: product %d, conjugate %d, sum %d"
                % (n, len(prod_class), len(conj_class), len(sum_class)))
        for p in prod_class:
            image = fwd(p)
            checked += 1
            if sum(image) != n:
                return BijectionReport(fam, k, n_max, False, core, checked,
                                       "weight broken: %r -> %r" % (p, image))
            if image not in conj_class:
                return BijectionReport(
                    fam, k, n_max, False, core, checked,
                    "image outside conjugate class: %r -> %r" % (p, image))
            back = inv(image)
            if back != p:
                return BijectionReport(
                    fam, k, n_max, False, core, checked,
                    "round trip broken: %r -> %r -> %r" % (p, image, back))
    return BijectionReport(fam, k, n_max, True, core, checked)
