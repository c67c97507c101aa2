"""Forbidden-window rules and condition sets, including the text format."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from flatpart.conditions import (CONGRUENT, NOT_CONGRUENT, ConditionSet,
                                 FlatRule, condition_set, matches_at,
                                 matching_windows, parse_condition_set,
                                 parse_rule, satisfies)
from flatpart.errors import PreconditionViolated
from flatpart.families import get_identity, registered_names
from flatpart.partitions import flat_patterns


def test_rule_text_round_trip():
    r = parse_rule("1:2:1:2")
    assert r == FlatRule(1, 2, 1, 2, CONGRUENT)
    assert r.render() == "1:2:1:2"
    neq = parse_rule("2:3:0:4:n")
    assert neq.mode is NOT_CONGRUENT
    assert neq.render() == "2:3:0:4:n"


def test_rule_rejects_garbage():
    for text in ("", "1:2:1", "0:2:1:2", "1:0:1:2", "1:2:1:2:x", "a:2:1:2"):
        with pytest.raises(ValueError):
            parse_rule(text)


@pytest.mark.parametrize("parse", [parse_rule, parse_condition_set])
@pytest.mark.parametrize("text, quoted", [
    ("1:2:1:2 +1z junk", "'1:2:1:2 +1z junk'"),
    ("  1:2 ", "'1:2'"),
])
def test_rule_errors_quote_the_rule_as_typed(parse, text, quoted):
    with pytest.raises(PreconditionViolated) as exc:
        parse(text)
    assert str(exc.value).endswith("got %s" % quoted)


def test_rule_parser_reduces_residues():
    assert parse_rule("1:2:5:2") == parse_rule("1:2:1:2")
    assert parse_rule("1:2:-1:4") == parse_rule("1:2:3:4")


def test_condition_set_text_round_trip():
    cs = parse_condition_set("1:2:1:2;2:3:0:4:n", zeros=2)
    assert cs.render() == "1:2:1:2;2:3:0:4:n"
    assert cs.zeros == 2
    again = parse_condition_set(cs.render(), zeros=cs.zeros)
    assert again.rules == cs.rules


flat_rules = st.builds(FlatRule, st.integers(1, 4), st.integers(1, 4),
                       st.integers(-6, 12), st.integers(1, 6),
                       st.sampled_from((CONGRUENT, NOT_CONGRUENT)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(flat_rules, max_size=4), st.integers(0, 5), st.integers(1, 4))
def test_printed_condition_set_parses_back(rule_list, zeros, min_part):
    cs = ConditionSet(tuple(rule_list), zeros, min_part)
    assert parse_condition_set(str(cs)) == cs


def test_printed_suffixes():
    assert parse_condition_set("1:2:1:2 +1z") == parse_condition_set(
        "1:2:1:2", zeros=1)
    assert parse_condition_set("(no rules)") == parse_condition_set("")
    # a zero count given twice, or a malformed suffix, is refused
    for text, zeros in (("1:2:1:2 +1z", 1), ("1:2:1:2 +0z", 2),
                        ("1:2:1:2 +xz", 0),
                        ("1:2:1:2 parts>=", 0), ("1:2:1:2 parts>=0", 0)):
        with pytest.raises(PreconditionViolated):
            parse_condition_set(text, zeros=zeros)


def test_rules_are_deduped_and_sorted():
    a = FlatRule(1, 3, 2, 5, CONGRUENT)
    b = FlatRule(1, 2, 1, 2, CONGRUENT)
    cs = condition_set([a, b, a, b])
    assert cs.rules == (b, a)


def test_rule_sort_key_orders_width_first():
    rules = [parse_rule(t) for t in
             ("1:3:0:5", "2:2:1:2", "1:2:1:2", "1:2:0:2", "1:2:1:2:n")]
    ordered = sorted(rules, key=FlatRule.sort_key)
    assert [r.render() for r in ordered] == [
        "1:2:0:2", "1:2:1:2", "1:2:1:2:n", "2:2:1:2", "1:3:0:5"]


def test_matches_at_picks_out_forbidden_windows():
    # 1:2:1:2 forbids the flattest 2-window of odd weight
    rule = parse_rule("1:2:1:2")
    assert matches_at(rule, (3, 2))             # weight 5, (3,2) is flattest
    assert not matches_at(rule, (4, 1))
    assert not matches_at(rule, (5, 3))         # weight 8, wrong residue


def test_matching_windows_tabulates_matches_at():
    # every weakly decreasing window of the rule's width and of weight
    # 0..order, zeros included, is in the table exactly when matches_at
    # accepts it
    rng = random.Random(2419)
    for _ in range(60):
        d = rng.randrange(1, 7)
        rule = FlatRule(rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(d),
                        d, rng.choice((CONGRUENT, NOT_CONGRUENT)))
        order = rng.randrange(0, 31)
        accepted = {w for t in range(order + 1)
                    for w in flat_patterns(rule.width, t) if matches_at(rule, w)}
        assert matching_windows(rule, order) == accepted, (rule, order)


def test_all_zero_windows_are_exempt():
    rule = parse_rule("1:2:0:2")                # flattest even window
    assert not matches_at(rule, (0, 0))
    assert matches_at(rule, (1, 1))             # (1,1) flattest of weight 2


def test_satisfies_with_fictitious_zeros():
    # two trailing zeros expose windows that end past the last part
    cs = parse_condition_set("1:2:1:2", zeros=1)
    assert not satisfies(cs, (1,))              # window (1,0) weight 1, flattest
    assert satisfies(cs, (2,))                  # (2,0) not flattest: (1,1) is
    bare = parse_condition_set("1:2:1:2", zeros=0)
    assert bare.zeros == 0
    assert satisfies(bare, (1,))


def test_condition_set_max_width():
    cs = parse_condition_set("1:2:1:2;1:4:3:6")
    assert cs.max_width() == 4


def test_an_always_firing_rule_implies_every_rule_of_its_window():
    x = parse_rule("1:2:0:1")
    for d in range(1, 7):
        for c in range(d):
            for mode in (CONGRUENT, NOT_CONGRUENT):
                assert x.implies(FlatRule(1, 2, c, d, mode))


@pytest.mark.parametrize("x, y, implied", [
    ("1:2:1:2", "1:2:3:4", True),     # odd totals include 3 mod 4
    ("1:2:1:2", "1:2:2:4", False),
    ("2:2:0:1", "1:2:0:2", False),    # another flatness index
    ("1:2:0:1", "1:3:0:2", False),    # another width
    ("1:2:0:2:n", "1:2:1:4", True),   # not even: odd
    ("1:2:0:2", "1:2:1:2:n", True),   # the same totals, both ways
    ("1:2:1:2:n", "1:2:0:2", True),
])
def test_implication_hand_cases(x, y, implied):
    assert parse_rule(x).implies(parse_rule(y)) is implied


@settings(derandomize=True, max_examples=200, deadline=None)
@given(flat_rules, flat_rules)
def test_implication_is_containment_of_forbidden_windows(x, y):
    # y takes x's A and B; every residue class mod 30 has a total in
    # 6..60 that has a window, unless B = 1 and A > 1 leave no window
    y = FlatRule(x.flatness_index, x.width, y.residue, y.modulus, y.mode)
    if x.width == 1 and x.flatness_index > 1:
        return
    assert x.implies(y) == (matching_windows(y, 60) <= matching_windows(x, 60))


@pytest.mark.parametrize("text, kept", [
    ("1:2:0:1;1:2:1:2;1:2:1:3:n", "1:2:0:1"),
    ("1:2:1:2;1:2:3:4;1:2:2:4", "1:2:1:2;1:2:2:4"),
    ("1:2:0:2:n;1:2:1:4;2:2:1:4", "1:2:0:2:n;2:2:1:4"),
    # of two rules that forbid the same totals, the first in canonical order
    ("1:2:1:2:n;1:2:0:2", "1:2:0:2"),
    ("1:2:1:2;1:3:0:2", "1:2:1:2;1:3:0:2"),
])
def test_irredundant_rules_drop_each_implied_rule(text, kept):
    assert (parse_condition_set(text).irredundant_rules()
            == parse_condition_set(kept).rules)


def test_no_registered_statement_has_an_implied_rule():
    for name in registered_names():
        flat = get_identity(name).flat
        assert flat.irredundant_rules() == flat.rules, name


def test_set_sort_key_is_by_rule_then_zeros():
    small = parse_condition_set("1:2:1:2", zeros=0)
    bigger = parse_condition_set("1:2:1:2", zeros=1)
    other = parse_condition_set("1:3:0:5", zeros=0)
    ordered = sorted([other, bigger, small], key=ConditionSet.sort_key)
    assert ordered == [small, bigger, other]


def test_condition_set_validates_zeros():
    with pytest.raises(ValueError):
        condition_set([parse_rule("1:2:1:2")], zeros=-1)


def test_smallest_part_bound():
    with pytest.raises(ValueError):
        ConditionSet((parse_rule("1:2:1:2"),), min_part=0)
    cs = condition_set(["1:2:1:2"], zeros=1, min_part=3)
    assert str(cs) == "1:2:1:2 +1z parts>=3"
    assert cs.render() == "1:2:1:2"             # rules only, as search prints
    assert not satisfies(cs, (5, 2))            # smallest part below the bound
    assert satisfies(cs, (5, 3))
    assert satisfies(cs, ())
    assert not satisfies(cs, (4, 3))            # the rule still applies
