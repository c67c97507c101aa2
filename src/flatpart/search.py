"""Parameter-space sweep for new product identities.

A bounds object fixes how many window rules a candidate may carry and
the ranges for the rule parameters; every normalized condition set in
the box is screened by expanding its counting series, factoring it into
(1 - q^m) powers, and testing the exponents for a short period with
small entries.  Survivors can then be re-verified at a much higher
order against the product their verdict implies.

Identical series reached through different rule sets are reported
separately on purpose: recognizing that two condition sets coincide
semantically is a harder problem than finding them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterable, Iterator, List, Optional

from .conditions import CONGRUENT, NOT_CONGRUENT, ConditionSet, FlatRule
from .counting import sum_series_dp
from .euler import PeriodicVerdict, detect_period, euler_exponents
from .series import first_difference, one, product_series

DEFAULT_SCREEN_ORDER = 25
DEFAULT_VERIFY_ORDER = 200


def _pair(value, name):
    lo, hi = (int(value[0]), int(value[1]))
    if lo > hi:
        raise ValueError("%s is empty: (%d, %d)" % (name, lo, hi))
    return lo, hi


@dataclass(frozen=True)
class SearchBounds:
    """Inclusive parameter ranges for the rule sweep."""

    max_rules: int
    a_range: tuple
    b_range: tuple
    d_range: tuple
    zeros_range: tuple = (0, 0)
    n_check: int = DEFAULT_SCREEN_ORDER
    d_max: int = 8
    e_max: int = 4
    allow_neq: bool = False

    def __post_init__(self):
        object.__setattr__(self, "a_range", _pair(self.a_range, "a_range"))
        object.__setattr__(self, "b_range", _pair(self.b_range, "b_range"))
        object.__setattr__(self, "d_range", _pair(self.d_range, "d_range"))
        object.__setattr__(self, "zeros_range",
                           _pair(self.zeros_range, "zeros_range"))
        if self.max_rules < 1:
            raise ValueError("max_rules must be at least 1")
        if min(self.a_range[0], self.b_range[0], self.d_range[0]) < 1:
            raise ValueError("A, B, D ranges must start at 1 or higher")
        if self.zeros_range[0] < 0:
            raise ValueError("zeros cannot be negative")
        if self.n_check < 3 * self.d_max:
            raise ValueError(
                "screening order %d cannot support period detection up to "
                "%d (need at least three repetitions)"
                % (self.n_check, self.d_max))

    @classmethod
    def from_json(cls, text: str) -> "SearchBounds":
        raw = json.loads(text)
        extra = set(raw) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError("unknown bounds keys: %s" % ", ".join(sorted(extra)))
        return cls(**{k: tuple(v) if k.endswith("_range") else v
                      for k, v in raw.items()})

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def enumerate_condition_sets(bounds: SearchBounds) -> Iterator[ConditionSet]:
    """Every deduplicated rule set in the box, in canonical order: rules
    by (width, modulus, residue, flatness index, mode), sets
    lexicographically.  Sets stream out depth first over the sorted
    rules: a prefix sorts before its extensions, and the zero count is
    the last key."""
    modes = (CONGRUENT, NOT_CONGRUENT) if bounds.allow_neq else (CONGRUENT,)
    rules = sorted(
        (FlatRule(a, b, c, d, mode)
         for b in range(bounds.b_range[0], bounds.b_range[1] + 1)
         for d in range(bounds.d_range[0], bounds.d_range[1] + 1)
         for c in range(d)
         for a in range(bounds.a_range[0], bounds.a_range[1] + 1)
         for mode in modes),
        key=FlatRule.sort_key)
    zeros = range(bounds.zeros_range[0], bounds.zeros_range[1] + 1)

    def extend(prefix, start):
        for i in range(start, len(rules)):
            combo = prefix + (rules[i],)
            for z in zeros:
                yield ConditionSet(combo, z)
            if len(combo) < bounds.max_rules:
                yield from extend(combo, i + 1)

    return extend((), 0)


@dataclass(frozen=True)
class CandidateReport:
    condition_set: ConditionSet
    screening_order: int
    euler_exponents: tuple
    verdict: PeriodicVerdict
    status: str = "screened"
    verified_to: int = 0
    failed_at: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {
            "rules": self.condition_set.render(),
            "zeros": self.condition_set.zeros,
            "period": self.verdict.period,
            "class_exponents": {str(r): e
                                for r, e in self.verdict.class_exponents},
            "status": self.status,
            "verified_to": self.verified_to,
        }

    def __str__(self):
        classes = ",".join("%d:%d" % c for c in self.verdict.class_exponents)
        return ("%s | period %d [%s] | %s"
                % (self.condition_set, self.verdict.period, classes,
                   self.status))


def reports_to_json(reports: Iterable[CandidateReport]) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2)


def screen_condition_set(cs: ConditionSet, n_check: int, d_max: int,
                         e_max: int) -> Optional[CandidateReport]:
    """One screening pass; None when the series does not look like a
    congruence-class product."""
    series = sum_series_dp(cs, n_check)
    fac = euler_exponents(series)
    verdict = detect_period(fac, d_max, e_max)
    if not verdict.periodic:
        return None
    exps = verdict.exponents_dict().values()
    if any(e < 0 or e > e_max for e in exps):
        return None
    return CandidateReport(cs, n_check, fac.exponents, verdict,
                           status="screened", verified_to=n_check)


def search(bounds: SearchBounds, nontrivial: bool = True) -> List[CandidateReport]:
    """Screen every condition set in the box.  With the default
    nontrivial filter a candidate must exclude at least one residue
    class from its product, which drops the unrestricted-partition hit."""
    reports = []
    for cs in enumerate_condition_sets(bounds):
        report = screen_condition_set(cs, bounds.n_check, bounds.d_max,
                                      bounds.e_max)
        if report is None:
            continue
        exponents = [e for _r, e in report.verdict.class_exponents]
        if nontrivial and (all(e > 0 for e in exponents)
                           or not any(exponents)):
            continue
        reports.append(report)
    return reports


def verify_candidate(report: CandidateReport,
                     n_big: int = DEFAULT_VERIFY_ORDER) -> CandidateReport:
    """Recompute the sum side at high order against the product the
    verdict promises, and stamp the outcome."""
    series = sum_series_dp(report.condition_set, n_big)
    if any(e for _r, e in report.verdict.class_exponents):
        expected = product_series(report.verdict.to_product_spec(), n_big)
    else:
        expected = one(n_big)       # empty product: only the empty partition
    n = first_difference(series, expected)
    if n is not None:
        return replace(report, status="refuted-at-%d" % n,
                       verified_to=n - 1, failed_at=n)
    return replace(report, status="verified-to-%d" % n_big,
                   verified_to=n_big, failed_at=None)
