"""Window condition sets: forbidden flattest sub-patterns.

A FlatRule (A, B, C, D) forbids any contiguous length-B window of a
partition whose entries form the A-th flattest B-tuple of their sum m,
whenever m is congruent to C mod D.  A rule may instead fire on sums
*not* congruent to C mod D.  A ConditionSet bundles several rules with
a count of fictitious zeros appended to the right of the smallest part,
which is how identities state their initial conditions.  Windows made
entirely of fictitious zeros never match.

Rules have a one-line text form "A:B:C:D" (append ":n" for the negated
congruence), and condition sets join rules with ";".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import NotEnoughPatterns, PreconditionViolated
from .partitions import kth_flattest

CONGRUENT = "congruent"
NOT_CONGRUENT = "not_congruent"


@dataclass(frozen=True, order=True)
class FlatRule:
    """Forbid the flatness_index-th flattest window of width `width` whose
    sum falls in (or out of) a residue class."""

    flatness_index: int  # A: 1 = flattest
    width: int           # B: window length
    residue: int         # C
    modulus: int         # D
    mode: str = CONGRUENT

    def __post_init__(self):
        if self.flatness_index < 1:
            raise PreconditionViolated("flatness index must be >= 1")
        if self.width < 1:
            raise PreconditionViolated("window width must be >= 1")
        if self.modulus < 1:
            raise PreconditionViolated("modulus must be >= 1")
        if self.mode not in (CONGRUENT, NOT_CONGRUENT):
            raise PreconditionViolated("bad mode %r" % (self.mode,))
        object.__setattr__(self, "residue", self.residue % self.modulus)

    def sum_matches(self, total: int) -> bool:
        hit = (total % self.modulus) == self.residue
        return hit if self.mode == CONGRUENT else not hit

    def sort_key(self):
        return (self.width, self.modulus, self.residue,
                self.flatness_index, self.mode)

    def render(self) -> str:
        text = "%d:%d:%d:%d" % (self.flatness_index, self.width,
                                self.residue, self.modulus)
        if self.mode == NOT_CONGRUENT:
            text += ":n"
        return text


def parse_rule(text: str) -> FlatRule:
    fields = text.strip().split(":")
    if len(fields) == 5 and fields[4] == "n":
        mode = NOT_CONGRUENT
        fields = fields[:4]
    elif len(fields) == 4:
        mode = CONGRUENT
    else:
        raise PreconditionViolated(
            "rule must look like A:B:C:D or A:B:C:D:n, got %r" % text)
    a, b, c, d = (int(f) for f in fields)
    return FlatRule(a, b, c, d, mode)


def matches_at(rule: FlatRule, window: Sequence[int]) -> bool:
    """Does this window (one entry per position, zeros allowed) match the rule?"""
    window = tuple(window)
    if len(window) != rule.width:
        return False
    if not any(window):
        return False  # fictitious-zero windows are exempt
    total = sum(window)
    if not rule.sum_matches(total):
        return False
    try:
        return window == kth_flattest(rule.flatness_index, rule.width, total)
    except NotEnoughPatterns:
        return False


@dataclass(frozen=True)
class ConditionSet:
    """A deduplicated, canonically ordered set of rules plus a zero count."""

    rules: tuple
    zeros: int = 0
    label: str = ""

    def __post_init__(self):
        if self.zeros < 0:
            raise PreconditionViolated("zeros must be >= 0")
        seen = []
        for r in self.rules:
            if not isinstance(r, FlatRule):
                raise TypeError("rules must be FlatRule instances")
            if r not in seen:
                seen.append(r)
        seen.sort(key=FlatRule.sort_key)
        object.__setattr__(self, "rules", tuple(seen))

    def max_width(self) -> int:
        return max((r.width for r in self.rules), default=1)

    def render(self) -> str:
        return ";".join(r.render() for r in self.rules)

    def sort_key(self):
        return (tuple(r.sort_key() for r in self.rules), self.zeros)

    def __str__(self):
        text = self.render() or "(no rules)"
        if self.zeros:
            text += " +%dz" % self.zeros
        return text


def condition_set(rules: Iterable, zeros: int = 0, label: str = "") -> ConditionSet:
    """Build a ConditionSet from FlatRules, tuples (A, B, C, D[, mode]), or
    rule text."""
    built = []
    for r in rules:
        if isinstance(r, FlatRule):
            built.append(r)
        elif isinstance(r, str):
            built.append(parse_rule(r))
        else:
            built.append(FlatRule(*r))
    return ConditionSet(tuple(built), zeros, label)


def parse_condition_set(text: str, zeros: int = 0, label: str = "") -> ConditionSet:
    """Parse "A:B:C:D;A:B:C:D:n;..." into a ConditionSet."""
    text = text.strip()
    rules = [parse_rule(tok) for tok in text.split(";") if tok.strip()] if text else []
    return ConditionSet(tuple(rules), zeros, label)


def satisfies(cs: ConditionSet, parts: Sequence[int]) -> bool:
    """True when no window of the zero-padded partition matches any rule."""
    if hasattr(parts, "parts"):
        parts = parts.parts
    extended = tuple(parts) + (0,) * cs.zeros
    n = len(extended)
    for rule in cs.rules:
        w = rule.width
        for i in range(n - w + 1):
            if matches_at(rule, extended[i:i + w]):
                return False
    return True
