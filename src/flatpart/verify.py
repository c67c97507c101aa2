"""One front door for checking any registered identity.

Each family name maps to a bundle of checks appropriate to what is
known about it: the counting series against the product always, plus a
finite recursion, an explicit bijection, or an overline specialization
where one is on file.  Names from the refuted list get their
counterexample reproduced instead, and the report says so plainly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import UnknownFamily, UnknownRecursion
from . import recursions
from .families import get_identity, get_refuted, refuted_names, registered_names
from .series import first_difference, product_series

PREDICATE_CAP = 40


@dataclass(frozen=True)
class CheckResult:
    label: str
    passed: bool
    detail: str = ""

    def __str__(self):
        line = "%s: %s" % (self.label, "pass" if self.passed else "FAIL")
        if self.detail:
            line += " (%s)" % self.detail
        return line


@dataclass(frozen=True)
class VerifyReport:
    name: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self):
        head = "%s: %s" % (self.name, "pass" if self.passed else "FAIL")
        return "\n".join([head] + ["  " + str(c) for c in self.checks])


def _count_check(ident, nmax: Optional[int]) -> CheckResult:
    dp_capable = ident.flat is not None or ident.dp_rules is not None
    order = nmax if nmax is not None else (200 if dp_capable else PREDICATE_CAP)
    note = ""
    if not dp_capable and order > PREDICATE_CAP:
        order = PREDICATE_CAP
        note = ", enumeration capped at %d" % PREDICATE_CAP
    got = ident.count_series(order)
    want = ident.product_series(order)
    n = first_difference(got, want)
    if n is not None:
        return CheckResult(
            "count vs product", False,
            "first mismatch at n=%d: sum %d, product %d"
            % (n, got[n], want[n]))
    return CheckResult("count vs product", True,
                       "exact to n=%d%s" % (order, note))


def _recursion_check(name: str, order: int) -> Optional[CheckResult]:
    try:
        report = recursions.verify_recursion(name, j_max=30, order=order)
    except UnknownRecursion:
        return None
    detail = ("levels %d..%d to order %d"
              % (report.levels[0], report.levels[-1], report.order))
    if not report.passed and report.first_mismatch:
        j, n, got, want = report.first_mismatch
        detail = ("level %d at n=%d: recursion %d, direct %d"
                  % (j, n, got, want))
    if not report.bases_ok:
        detail += "; printed base forms disagree"
    return CheckResult("finite recursion", report.passed and report.bases_ok,
                       detail)


def _bijection_check(ident, n_max: int) -> Optional[CheckResult]:
    from .bijections import verify_bijection
    try:
        report = verify_bijection(ident.family, ident.param("k"), n_max)
    except UnknownFamily:
        return None
    detail = ("%d partitions mapped to n=%d; core: %s"
              % (report.checked, report.n_max, report.core))
    if report.failure:
        detail = report.failure
    return CheckResult("bijection round trip", report.passed, detail)


def _specialization_check(ident) -> Optional[CheckResult]:
    k = ident.param("k")
    if ident.family == "FAM9":
        s = -1
    elif ident.family == "AND1":
        s = 2 * k - 3
    elif ident.family == "COR":
        s = 2 * ident.param("i") - 1
    else:
        return None
    from .overpartitions import specialize
    order = 30
    series = specialize(k, s, 2, order)
    want = ident.count_series(order)
    n = first_difference(series, want)
    if n is not None:
        return CheckResult(
            "overline specialization", False,
            "a->q^%d, q->q^2 diverges at n=%d: %d vs %d"
            % (s, n, series[n], want[n]))
    return CheckResult("overline specialization", True,
                       "a->q^%d, q->q^2 matches counts to n=%d" % (s, order))


def _refuted_report(name: str) -> VerifyReport:
    from .counting import sum_series_dp
    entry = get_refuted(name)
    n = entry.counterexample_n
    got = sum_series_dp(entry.flat(), n)[n]
    want = product_series(entry.product(), n)[n]
    if got != want:
        detail = ("not a theorem: sum side %d, product side %d at n=%d"
                  % (got, want, n))
    else:
        detail = "recorded counterexample at n=%d did not reproduce" % n
    return VerifyReport(name, (CheckResult("identity holds", False, detail),))


def verify_identity(name: str, nmax: Optional[int] = None,
                    bijection_n: int = 16,
                    recursion_order: int = 150) -> VerifyReport:
    """Run every check on file for this family name."""
    key = name.strip().upper()
    if key in refuted_names():
        return _refuted_report(key)
    ident = get_identity(key)
    checks = [_count_check(ident, nmax)]
    for extra in (_recursion_check(ident.name, recursion_order),
                  _bijection_check(ident, bijection_n),
                  _specialization_check(ident)):
        if extra is not None:
            checks.append(extra)
    return VerifyReport(ident.name, tuple(checks))


def verify_all(nmax: Optional[int] = None):
    """Count-vs-product sweep over the whole registry; yields reports."""
    for name in registered_names():
        ident = get_identity(name)
        yield VerifyReport(name, (_count_check(ident, nmax),))
