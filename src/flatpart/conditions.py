"""Window condition sets: forbidden flattest sub-patterns.

A FlatRule (A, B, C, D) forbids any contiguous length-B window of a
partition whose entries form the A-th flattest B-tuple of their sum m,
whenever m is congruent to C mod D.  A rule may instead fire on sums
*not* congruent to C mod D.  A ConditionSet bundles several rules with
a count of fictitious zeros appended to the right of the smallest part,
which is how identities state their initial conditions.  Windows made
entirely of fictitious zeros never match.  A set may also bound its
smallest part (min_part): Capparelli's first identity has an initial
condition that no window rule, with any zero count, can state.

One rule implies another (FlatRule.implies) when both have the same A
and B and the first fires on every sum the second fires on; a set's
irredundant rules, those no other rule of it implies, forbid exactly
the windows all its rules forbid.

Rules have a one-line text form "A:B:C:D" (append ":n" for the negated
congruence).  A condition set joins its rules with ";" ("(no rules)"
when there are none) and appends " +Nz" for N zeros and " parts>=N" for
a smallest-part bound: str() prints that form and parse_condition_set
reads it back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import lcm
from typing import Iterable, Sequence

from .errors import PreconditionViolated, require_int, require_iterable, require_type
from .partitions import _kth_flattest, as_partition

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
        require_int(self.flatness_index, "A", 1)
        require_int(self.width, "B", 1)
        require_int(self.residue, "C")
        require_int(self.modulus, "D", 1)
        if self.mode not in (CONGRUENT, NOT_CONGRUENT):
            raise PreconditionViolated("bad mode %r" % (self.mode,))
        object.__setattr__(self, "residue", self.residue % self.modulus)

    def sum_matches(self, total: int) -> bool:
        hit = (total % self.modulus) == self.residue
        return hit if self.mode == CONGRUENT else not hit

    def implies(self, other: "FlatRule") -> bool:
        """True when this rule forbids every window that `other` forbids:
        both have the same A and B, and every total `other` fires on fires
        this rule too.  Totals that agree mod lcm(D, D') fire both rules
        alike, so one such period of totals decides."""
        require_type(other, FlatRule, "other")
        if (self.flatness_index, self.width) != (other.flatness_index, other.width):
            return False
        return all(self.sum_matches(t) for t in range(lcm(self.modulus, other.modulus))
                   if other.sum_matches(t))

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
    text = require_type(text, str, "rule text").strip()  # every message quotes this
    fields = text.split(":")
    if len(fields) == 5 and fields[4] == "n":
        mode = NOT_CONGRUENT
        fields = fields[:4]
    elif len(fields) == 4:
        mode = CONGRUENT
    else:
        raise PreconditionViolated(
            "rule must look like A:B:C:D or A:B:C:D:n, got %r" % text)
    try:
        a, b, c, d = (int(f) for f in fields)
    except ValueError:
        raise PreconditionViolated(
            "rule fields A, B, C, D must be integers, got %r" % text) from None
    return FlatRule(a, b, c, d, mode)


def matches_at(rule: FlatRule, window: Sequence[int]) -> bool:
    """Does this window (one entry per position, zeros allowed) match the rule?"""
    require_type(rule, FlatRule, "rule")
    return _matches(rule, tuple(require_int(x, "a window entry")
                                for x in require_iterable(window, "window", "ints")))


def _matches(rule: FlatRule, window: tuple) -> bool:
    # matches_at on a window known to be a tuple of ints
    if len(window) != rule.width or not any(window):
        return False  # fictitious-zero windows are exempt
    total = sum(window)
    return (rule.sum_matches(total)
            and window == _kth_flattest(rule.flatness_index, rule.width, total))


def matching_windows(rule: FlatRule, order: int) -> frozenset:
    """Every window of weight at most order that matches_at accepts: the
    A-th flattest B-tuple of each weight 1..order whose weight passes the
    congruence, so at most order windows."""
    a, b = require_type(rule, FlatRule, "rule").flatness_index, rule.width
    found = (_kth_flattest(a, b, t) for t in range(1, require_int(order, "order", 0) + 1)
             if rule.sum_matches(t))
    return frozenset(w for w in found if w is not None)


@dataclass(frozen=True)
class ConditionSet:
    """A deduplicated, canonically ordered set of rules plus a zero count
    and a smallest-part bound."""

    rules: tuple
    zeros: int = 0
    min_part: int = 1

    def __post_init__(self):
        require_int(self.zeros, "zeros", 0)
        require_int(self.min_part, "min_part", 1)
        seen = []
        for r in require_iterable(self.rules, "rules", "rules"):
            if require_type(r, FlatRule, "a rule") not in seen:
                seen.append(r)
        seen.sort(key=FlatRule.sort_key)
        object.__setattr__(self, "rules", tuple(seen))

    def max_width(self) -> int:
        return max((r.width for r in self.rules), default=1)

    def irredundant_rules(self) -> tuple:
        """The rules that no other rule of the set implies, in canonical
        order; of rules that forbid the same totals, only the first is
        kept.  They forbid the same windows as all the rules, and, since a
        rule implies only rules of its own width, the widest width stays."""
        rules = self.rules
        # only rules of one (A, B) can imply each other
        shapes = [(r.flatness_index, r.width) for r in rules]
        return tuple(y for j, y in enumerate(rules)
                     if not any(shapes[i] == shapes[j] and x.implies(y)
                                and (i < j or not y.implies(x))
                                for i, x in enumerate(rules) if i != j))

    def render(self) -> str:
        return ";".join(r.render() for r in self.rules)

    def sort_key(self):
        return (tuple(r.sort_key() for r in self.rules), self.zeros)

    def __str__(self):
        text = self.render() or "(no rules)"
        if self.zeros:
            text += " +%dz" % self.zeros
        if self.min_part > 1:
            text += " parts>=%d" % self.min_part
        return text


def condition_set(rules: Iterable, zeros: int = 0, min_part: int = 1) -> ConditionSet:
    """Build a ConditionSet from FlatRules, tuples (A, B, C, D[, mode]), or
    rule text."""
    built = []
    for r in require_iterable(rules, "rules", "rules"):
        if isinstance(r, FlatRule):
            built.append(r)
        elif isinstance(r, str):
            built.append(parse_rule(r))
        elif isinstance(r, (tuple, list)) and len(r) in (4, 5):
            built.append(FlatRule(*r))
        else:
            raise PreconditionViolated(
                "a rule must be a FlatRule, a tuple (A, B, C, D[, mode]) "
                "or rule text, got %r" % (r,))
    return ConditionSet(tuple(built), zeros, min_part)


_SET_TEXT = re.compile(r"(.*?)(?:\s+\+(\d+)z)?(?:\s+parts>=(\d+))?")


def parse_condition_set(text: str, zeros: int = 0) -> ConditionSet:
    """Parse the text str(ConditionSet) prints: "A:B:C:D;A:B:C:D:n;..."
    or "(no rules)", then an optional " +Nz" zero count and an optional
    " parts>=N" smallest-part bound.  `zeros` gives the zero count when
    the text has no "+Nz"; giving both is an error."""
    text = require_type(text, str, "condition set text")
    body, nz, bound = _SET_TEXT.fullmatch(" " + text.strip()).groups()
    if nz is not None:
        if zeros:
            raise PreconditionViolated(
                "zeros given twice: %r and zeros=%d" % (text, zeros))
        zeros = int(nz)
    body = "" if body.strip() == "(no rules)" else body
    rules = [parse_rule(tok) for tok in body.split(";") if tok.strip()]
    return ConditionSet(tuple(rules), zeros, int(bound or 1))


def satisfies(cs: ConditionSet, parts: Sequence[int]) -> bool:
    """True when the smallest part is at least cs.min_part and no window
    of the zero-padded partition matches any rule; the parts must form a
    partition (positive, weakly decreasing)."""
    require_type(cs, ConditionSet, "cs")
    parts = as_partition(parts)
    if parts and parts[-1] < cs.min_part:
        return False
    extended = parts + (0,) * cs.zeros
    n = len(extended)
    for rule in cs.rules:
        w = rule.width
        for i in range(n - w + 1):
            if _matches(rule, extended[i:i + w]):
                return False
    return True
