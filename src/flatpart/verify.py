"""One front door for checking any registered identity.

Each family name maps to a bundle of checks appropriate to what is
known about it: the counting series against the product always (every
entry counts by the DP over its window rules, to n = 200 unless another
order is asked for), plus a finite recursion, an explicit bijection, or an overline specialization
where one is on file.  A refuted name instead has its counterexample
checked as the first split of the two sides; the report says so plainly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import UnknownFamily, UnknownRecursion
from . import recursions
from .families import (get_identity, get_refuted, normalize_name, refuted_names,
                       registered_names)
from .series import first_mismatch


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
    order = 200 if nmax is None else nmax
    split = ident.first_mismatch(order)
    if split is not None:
        return CheckResult("count vs product", False,
                           "first mismatch at n=%d: sum %d, product %d" % split)
    return CheckResult("count vs product", True, "exact to n=%d" % order)


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
    return CheckResult("finite recursion", report.passed, detail)


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
    if ident.family not in ("FAM9", "AND1", "COR"):
        return None
    from .overpartitions import specialize
    s = 2 * ident.param("i") - 1
    order = 30
    series = specialize(ident.param("k"), s, 2, order)
    split = first_mismatch(series, ident.count_series(order))
    if split is not None:
        return CheckResult(
            "overline specialization", False,
            "a->q^%d, q->q^2 diverges at n=%d: %d vs %d" % ((s,) + split))
    return CheckResult("overline specialization", True,
                       "a->q^%d, q->q^2 matches counts to n=%d" % (s, order))


def _refuted_report(name: str) -> VerifyReport:
    entry = get_refuted(name)
    n = entry.counterexample_n
    split = entry.first_mismatch(n)
    if split is not None and split[0] == n:
        detail = ("not a theorem: sum side %d, product side %d at n=%d"
                  % (split[1], split[2], n))
    else:
        detail = "recorded counterexample at n=%d did not reproduce" % n
    return VerifyReport(name, (CheckResult("identity holds", False, detail),))


def verify_identity(name: str, nmax: Optional[int] = None) -> VerifyReport:
    """Run every check on file for this family name.  The recursion runs
    to order 150 and the bijection maps every partition up to n = 16."""
    key = normalize_name(name)
    if key in refuted_names():
        return _refuted_report(key)
    ident = get_identity(key)
    checks = [_count_check(ident, nmax)]
    for extra in (_recursion_check(ident.name, 150),
                  _bijection_check(ident, 16),
                  _specialization_check(ident)):
        if extra is not None:
            checks.append(extra)
    return VerifyReport(ident.name, tuple(checks))


def verify_all(nmax: Optional[int] = None):
    """Count-vs-product sweep over the whole registry; yields reports."""
    for name in registered_names():
        ident = get_identity(name)
        yield VerifyReport(name, (_count_check(ident, nmax),))
