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
and the per-family wrapper maps, which splice an affine residue map and
a copy-replication step around the core bijection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional

from .errors import NotInProductClass, PreconditionViolated, UnknownFamily
from .families import family1_row, family_row, get_identity
from .partitions import frequency_profile, partitions_of

SYLVESTER_CORE = "structural hook dissection"
RANK_CORE = "rank matching within (weight, type) classes"


def _as_parts(p) -> tuple:
    if hasattr(p, "parts"):
        p = p.parts
    parts = tuple(int(x) for x in p)
    if any(x <= 0 for x in parts):
        raise PreconditionViolated("parts must be positive: %r" % (parts,))
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        parts = tuple(sorted(parts, reverse=True))
    return parts


def length_type(parts, modulus: int) -> tuple:
    """Counts of parts in each nonzero residue class mod `modulus`."""
    parts = _as_parts(parts)
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
    parts = _as_parts(parts)
    if any(f >= modulus for f, _g in frequency_profile(parts).values()):
        raise PreconditionViolated(
            "alternating sum type undefined: a part repeats %d times" % modulus)
    sums = [0] * modulus
    for idx, p in enumerate(parts, start=1):
        sums[idx % modulus] += p
    ordered = sums[1:] + sums[:1]        # M_1, ..., M_{m-1}, M_m
    return tuple(ordered[i] - ordered[i + 1] for i in range(modulus - 1))


@dataclass(frozen=True)
class TypedPartition:
    partition: tuple
    modulus: int

    @property
    def length_type(self) -> tuple:
        return length_type(self.partition, self.modulus)

    @property
    def alternating_sum_type(self) -> tuple:
        return alternating_sum_type(self.partition, self.modulus)


# ------------------------------------------------------- odd <-> distinct

def sylvester_map(parts) -> tuple:
    parts = _as_parts(parts)
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
    mu = _as_parts(parts)
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
    parts = _as_parts(parts)
    if modulus < 2:
        raise PreconditionViolated("modulus must be at least 2")
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
    parts = _as_parts(parts)
    if modulus < 2:
        raise PreconditionViolated("modulus must be at least 2")
    if any(f >= modulus for f, _g in frequency_profile(parts).values()):
        raise PreconditionViolated("input repeats a part %d times" % modulus)
    if modulus == 2:
        return sylvester_inverse(parts)
    n = sum(parts)
    domain, codomain = _typed_classes(modulus, n)
    key = alternating_sum_type(parts, modulus)
    rank = codomain[key].index(parts)
    return domain[key][rank]


# ------------------------------------------------- families 2-7 wrappers

@dataclass(frozen=True)
class WrapperSpec:
    """How one family dresses up the odd/distinct core: the product's odd
    class (parts M*m + offset, m >= 0, map to the odd number 2m + 1), and
    how many copies each image part receives by index parity: `offset`
    copies at odd indices and M - offset at even ones."""
    family: str
    k: int
    modulus: int
    offset: int

    @property
    def odd_copies(self) -> int:
        return self.offset

    @property
    def even_copies(self) -> int:
        return self.modulus - self.offset

    def to_small_odd(self, part: int) -> int:
        m, rem = divmod(part - self.offset, self.modulus)
        if rem or m < 0:
            raise NotInProductClass(
                "%d is not a legal odd-class part for %s k=%d"
                % (part, self.family, self.k))
        return 2 * m + 1

    def from_small_odd(self, odd: int) -> int:
        return self.modulus * (odd // 2) + self.offset


def wrapper_spec(family: str, k: int) -> WrapperSpec:
    """The wrapper of one of Families 2-7, read from its table row."""
    row = family_row(family, k)
    return WrapperSpec(family.strip().upper(), k, row.modulus, row.odd_residue)


def wrapper_map(spec: WrapperSpec, parts, trace: Optional[dict] = None) -> tuple:
    parts = _as_parts(parts)
    halved, odd_class = [], []
    for p in parts:
        if p % 2 == 0:
            halved.extend((p // 2, p // 2))
        else:
            odd_class.append(p)
    small = tuple(sorted((spec.to_small_odd(p) for p in odd_class),
                         reverse=True))
    mu = sylvester_map(small)
    replicated = []
    for idx, m in enumerate(mu, start=1):
        copies = spec.odd_copies if idx % 2 == 1 else spec.even_copies
        replicated.extend([m] * copies)
    image = tuple(sorted(halved + replicated, reverse=True))
    if trace is not None:
        trace.update(evens_halved=tuple(sorted(halved, reverse=True)),
                     odd_mapped=small, mu=mu,
                     replicated=tuple(sorted(replicated, reverse=True)))
    return image


def wrapper_inverse(spec: WrapperSpec, parts, trace: Optional[dict] = None) -> tuple:
    parts = _as_parts(parts)
    profile = frequency_profile(parts)
    pi1, pi2, pi3 = [], [], []
    for v, (f, g) in sorted(profile.items(), reverse=True):
        if f % 2 == 0:
            pi1.extend([v] * f)
        elif g % 2 == 1:
            pi2.extend([v] * f)
        else:
            pi3.extend([v] * f)
    # retain an odd number of copies of each odd-frequency part, spilling
    # the even-sized excess into the halving pile
    pi1_p, pi2_p, pi3_p = list(pi1), [], []
    for v, (f, _g) in sorted(profile.items(), reverse=True):
        if f % 2 == 0:
            continue
        retained = spec.even_copies if (v in set(pi2)) else spec.odd_copies
        if f < retained:
            raise PreconditionViolated(
                "part %d appears %d times, fewer than the %d the family "
                "wrapper requires" % (v, f, retained))
        pi1_p.extend([v] * (f - retained))
        (pi2_p if v in set(pi2) else pi3_p).append(v)
    pi1_p.sort(reverse=True)
    mu = tuple(sorted(pi2_p + pi3_p, reverse=True))
    if len(set(mu)) != len(mu):
        raise PreconditionViolated("odd-frequency parts are not distinct")
    small = sylvester_inverse(mu)
    unmapped = tuple(sorted((spec.from_small_odd(o) for o in small),
                            reverse=True))
    merged_evens = [2 * v for v in pi1_p[0::2]]
    if pi1_p[0::2] != pi1_p[1::2]:
        raise PreconditionViolated("leftover parts do not pair up evenly")
    result = tuple(sorted(merged_evens + list(unmapped), reverse=True))
    if trace is not None:
        trace.update(
            pi_1=tuple(pi1), pi_2=tuple(pi2), pi_3=tuple(pi3),
            pi_1_prime=tuple(pi1_p), pi_2_prime=tuple(pi2_p),
            pi_3_prime=tuple(pi3_p),
            pi_1_double_prime=tuple(sorted(merged_evens, reverse=True)),
            mu=mu, mu_prime=small, mu_double_prime=unmapped)
    return result


# --------------------------------------------------- family 1 (three maps)

@dataclass(frozen=True)
class _Fam1Data:
    modulus: int
    offset_low: int    # parts M*m - offset_low map to 3m - 2
    offset_high: int   # parts M*m - offset_high map to 3m - 1
    copies: tuple      # replication for image index = 1, 2, 0 mod 3
    rho3: int          # greater-count residue marking the long retention
    rho4: int          # greater-count residue marking the short double


def _fam1_data(variant: int, k: int) -> _Fam1Data:
    row = family1_row(variant, k)
    low, high = row.residues
    copies, rho3, rho4 = {1: ((2, 3 * k - 1, 2), 2, 1),
                          2: ((3 * k - 1, 2, 2), 0, 2),
                          3: ((2, 2, 3 * k - 1), 1, 0)}[variant]
    return _Fam1Data(row.modulus, row.modulus - low, row.modulus - high,
                     copies, rho3, rho4)


def family1_map(variant: int, k: int, parts,
                trace: Optional[dict] = None) -> tuple:
    parts = _as_parts(parts)
    data = _fam1_data(variant, k)
    modulus = data.modulus
    triples, small = [], []
    for p in parts:
        if p % 3 == 0:
            triples.extend([p // 3] * 3)
        elif (p + data.offset_low) % modulus == 0:
            m = (p + data.offset_low) // modulus
            small.append(3 * m - 2)
        elif (p + data.offset_high) % modulus == 0:
            m = (p + data.offset_high) // modulus
            small.append(3 * m - 1)
        else:
            raise NotInProductClass(
                "%d is not in the product class of family 1.%d, k=%d"
                % (p, variant, k))
    small = tuple(sorted(small, reverse=True))
    mu = stockhofe_map(3, small)
    replicated = []
    for idx, m in enumerate(mu, start=1):
        replicated.extend([m] * data.copies[[2, 0, 1][idx % 3]])
    image = tuple(sorted(triples + replicated, reverse=True))
    if trace is not None:
        trace.update(triples=tuple(sorted(triples, reverse=True)),
                     affine_mapped=small, mu=mu,
                     replicated=tuple(sorted(replicated, reverse=True)))
    return image


def family1_inverse(variant: int, k: int, parts,
                    trace: Optional[dict] = None) -> tuple:
    parts = _as_parts(parts)
    data = _fam1_data(variant, k)
    modulus = data.modulus
    profile = frequency_profile(parts)

    groups = {1: [], 2: [], 3: [], 4: [], 5: []}
    retention = {}
    for v, (f, g) in sorted(profile.items(), reverse=True):
        if f % 3 == 0:
            groups[1].extend([v] * f)
            continue
        if f % 3 == 2:
            which = 3 if g % 3 == data.rho3 else 2
            retention[v] = 3 * k - 1 if which == 3 else 2
        else:
            which = 4 if g % 3 == data.rho4 else 5
            retention[v] = 4 if which == 4 else 3 * k + 1
        groups[which].extend([v] * f)

    pi1_p = list(groups[1])
    mu_parts = []
    for which, keep in ((2, 1), (3, 1), (4, 2), (5, 2)):
        for v in sorted(set(groups[which]), reverse=True):
            f = profile[v][0]
            if f < retention[v]:
                raise PreconditionViolated(
                    "part %d appears %d times, fewer than the %d required"
                    % (v, f, retention[v]))
            pi1_p.extend([v] * (f - retention[v]))
            mu_parts.extend([v] * keep)
    pi1_p.sort(reverse=True)
    mu = tuple(sorted(mu_parts, reverse=True))

    small = stockhofe_inverse(3, mu)
    unmapped = []
    for o in small:
        m = (o + 2) // 3
        if o % 3 == 1:
            unmapped.append(modulus * m - data.offset_low)
        else:
            unmapped.append(modulus * m - data.offset_high)
    if len(pi1_p) % 3:
        raise PreconditionViolated("leftover parts do not come in triples")
    coalesced = [3 * v for v in pi1_p[0::3]]
    if pi1_p[0::3] != pi1_p[1::3] or pi1_p[0::3] != pi1_p[2::3]:
        raise PreconditionViolated("leftover parts do not come in triples")
    result = tuple(sorted(coalesced + unmapped, reverse=True))
    if trace is not None:
        trace.update(
            pi_1=tuple(groups[1]), pi_2=tuple(groups[2]),
            pi_3=tuple(groups[3]), pi_4=tuple(groups[4]),
            pi_5=tuple(groups[5]), pi_1_prime=tuple(pi1_p),
            pi_1_double_prime=tuple(sorted(coalesced, reverse=True)),
            mu=mu, mu_prime=small,
            mu_double_prime=tuple(sorted(unmapped, reverse=True)))
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

    def __str__(self):
        verdict = "pass" if self.passed else "FAIL"
        text = ("%s k=%d bijection to n=%d: %s (%d partitions mapped; core: %s)"
                % (self.family, self.k, self.n_max, verdict,
                   self.checked, self.core))
        if self.failure:
            text += "\n  " + self.failure
        return text


_FAMILY1 = {"FAM1_1": 1, "FAM1_2": 2, "FAM1_3": 3}


def family_maps(family: str, k: int):
    """(forward, inverse, core) of the bijection behind a Family 1-7
    identity: FAM1_1 .. FAM1_3 or FAM2 .. FAM7.  Both maps take
    (parts, trace=None).  Raises UnknownFamily for any other family."""
    fam = family.strip().upper()
    if fam in _FAMILY1:
        variant = _FAMILY1[fam]
        return (partial(family1_map, variant, k),
                partial(family1_inverse, variant, k), stockhofe_core(3))
    try:
        spec = wrapper_spec(fam, k)
    except UnknownFamily:
        raise UnknownFamily("no bijection for %r" % family) from None
    return (partial(wrapper_map, spec), partial(wrapper_inverse, spec),
            stockhofe_core(2))


def verify_bijection(family: str, k: int, n_max: int) -> BijectionReport:
    """Exhaustively check the family's map on all weights up to n_max:
    forward lands in the conjugate class, weight is preserved, the round
    trip is the identity, and all three class sizes agree."""
    fam = family.strip().upper()
    fwd, inv, core = family_maps(fam, k)
    ident = get_identity("%s_K%d" % (fam, k))
    checked = 0
    for n in range(n_max + 1):
        prod_class, conj_class, sum_class = [], [], []
        for p in partitions_of(n):
            if all(ident.product.allows_part(x) for x in p):
                prod_class.append(p)
            if ident.conj_pred(p):
                conj_class.append(p)
            if ident.sum_pred(p):
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
