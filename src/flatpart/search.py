"""Parameter-space sweep for new product identities.

A bounds object fixes how many window rules a candidate may carry and
the ranges for the rule parameters; every normalized condition set in
the box is screened by expanding its counting series, factoring it into
(1 - q^m) powers, and testing the exponents for a short period with
small entries.  Survivors can then be re-verified at a much higher
order against the product their verdict implies.

The screen feeds Euler's exponents into the period test as they are
computed, so it stops at the first exponent that decides the verdict; a
rejected set never computes its tail exponents.

The verdict depends only on the packed n_check row, so one search call
screens each distinct row once: a set whose row an earlier set of the
same call already had reuses that verdict, with no unpacking and no
Euler pass.  A set with a rule that another of its rules implies is
counted on its irredundant rules (counting.packed_sum_series), so it
shares their automaton and walk and builds no product of its own.
Reports stay per set: identical series reached through different rule
sets are still reported separately, each under its own rules.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import Iterable, Iterator, List, Optional

from .conditions import CONGRUENT, NOT_CONGRUENT, ConditionSet, FlatRule
from .counting import packed_sum_series
# unused here, but perfbench/rep.py rebinds search.sum_series_dp and
# search.euler_exponents in its traced runs, so the names stay bound
from .counting import sum_series_dp  # noqa: F401
from .errors import PreconditionViolated, require_int, require_type
from .euler import PeriodicVerdict, detect_period, exponent_stream
from .euler import euler_exponents  # noqa: F401
from .families import Statement
from .series import require_order, unpack

DEFAULT_SCREEN_ORDER = 25
DEFAULT_VERIFY_ORDER = 200


def _pair(value, name):
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(type(x) is int for x in value)):
        raise PreconditionViolated(
            "%s must be a pair of integers, got %r" % (name, value))
    lo, hi = value
    if lo > hi:
        raise PreconditionViolated("%s is empty: (%d, %d)" % (name, lo, hi))
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
        for name in ("max_rules", "n_check", "d_max", "e_max"):
            require_int(getattr(self, name), name)
        if type(self.allow_neq) is not bool:
            raise PreconditionViolated("allow_neq must be true or false, got %r"
                                       % (self.allow_neq,))
        object.__setattr__(self, "a_range", _pair(self.a_range, "a_range"))
        object.__setattr__(self, "b_range", _pair(self.b_range, "b_range"))
        object.__setattr__(self, "d_range", _pair(self.d_range, "d_range"))
        object.__setattr__(self, "zeros_range",
                           _pair(self.zeros_range, "zeros_range"))
        if self.max_rules < 1:
            raise PreconditionViolated("max_rules must be at least 1")
        if min(self.a_range[0], self.b_range[0], self.d_range[0]) < 1:
            raise PreconditionViolated("A, B, D ranges must start at 1 or higher")
        if self.zeros_range[0] < 0:
            raise PreconditionViolated("zeros cannot be negative")
        if self.d_max < 1 or self.e_max < 0:
            raise PreconditionViolated("d_max must be at least 1, e_max at least 0")
        if self.n_check < 3 * self.d_max:
            raise PreconditionViolated(
                "screening order %d cannot support period detection up to "
                "%d (need at least three repetitions)"
                % (self.n_check, self.d_max))

    @classmethod
    def from_json(cls, text: str) -> "SearchBounds":
        try:
            raw = json.loads(require_type(text, str, "bounds text"))
        except json.JSONDecodeError as exc:
            raise PreconditionViolated("bounds are not valid JSON: %s" % exc) from None
        if not isinstance(raw, dict):
            raise PreconditionViolated("bounds must be a JSON object, got %s"
                                       % type(raw).__name__)
        extra = set(raw) - {f.name for f in fields(cls)}
        if extra:
            raise PreconditionViolated(
                "unknown bounds keys: %s" % ", ".join(sorted(extra)))
        missing = [f.name for f in fields(cls)
                   if f.default is MISSING and f.name not in raw]
        if missing:
            raise PreconditionViolated(
                "missing bounds keys: %s" % ", ".join(missing))
        return cls(**raw)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def enumerate_condition_sets(bounds: SearchBounds) -> Iterator[ConditionSet]:
    """Every deduplicated rule set in the box, in canonical order: rules
    by (width, modulus, residue, flatness index, mode), sets
    lexicographically.  Sets stream out depth first over the sorted
    rules: a prefix sorts before its extensions, and the zero count is
    the last key."""
    require_type(bounds, SearchBounds, "bounds")
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
    """A screened condition set and the verdict that names its product;
    status and verified_to say how far that product has been checked."""

    condition_set: ConditionSet
    verdict: PeriodicVerdict
    status: str = "screened"
    verified_to: int = 0
    failed_at: Optional[int] = None

    def __post_init__(self):
        for name, kind in (("condition_set", ConditionSet),
                           ("verdict", PeriodicVerdict), ("status", str)):
            require_type(getattr(self, name), kind, name)
        require_int(self.verified_to, "verified_to", 0)
        if self.failed_at is not None:
            require_int(self.failed_at, "failed_at")

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
                         e_max: int, verdicts: Optional[dict] = None
                         ) -> Optional[CandidateReport]:
    """One screening pass; None when the series does not look like a
    congruence-class product.  The verdict depends only on the packed
    n_check row, so verdicts, when given, maps each row already screened
    to its verdict, and a row met again is neither unpacked nor
    factored.  One dict serves one n_check, d_max and e_max."""
    row, b = packed_sum_series(cs, n_check)
    verdicts = {} if verdicts is None else require_type(verdicts, dict, "verdicts")
    verdict = verdicts.get(row)
    if verdict is None:
        verdict = verdicts[row] = detect_period(
            exponent_stream(unpack(row, b, n_check)), d_max, e_max, order=n_check)
    if not verdict.periodic:
        return None
    # detect_period has bounded |c_m| by e_max; a product needs c_m >= 0
    if any(e < 0 for _r, e in verdict.class_exponents):
        return None
    return CandidateReport(cs, verdict, status="screened", verified_to=n_check)


def search(bounds: SearchBounds, nontrivial: bool = True) -> List[CandidateReport]:
    """Screen every condition set in the box, each distinct sum-side row
    once.  With the default nontrivial filter a candidate must exclude
    at least one residue class from its product, which drops the
    unrestricted-partition hit."""
    require_type(nontrivial, bool, "nontrivial")
    reports, verdicts = [], {}
    for cs in enumerate_condition_sets(bounds):
        # positional: a caller may wrap the screen as f(*args)
        report = screen_condition_set(cs, bounds.n_check, bounds.d_max,
                                      bounds.e_max, verdicts)
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
    verdict promises, and stamp the outcome.  An n_big below the order
    already screened to verifies to that order instead, so verified_to
    never drops."""
    require_type(report, CandidateReport, "report")
    n_big = max(require_order(n_big), report.verified_to)
    split = Statement(report.condition_set,
                      report.verdict.to_product_spec()).first_mismatch(n_big)
    if split is not None:
        n = split[0]
        return replace(report, status="refuted-at-%d" % n,
                       verified_to=n - 1, failed_at=n)
    return replace(report, status="verified-to-%d" % n_big,
                   verified_to=n_big, failed_at=None)
