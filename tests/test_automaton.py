"""The period lemma behind the minimal automaton, and the automaton's
rows against the profile walk.

The lemma is checked on the patterns themselves, with no automaton: past
T = (A+1)B(B-1) - B, adding B to a total adds 1 to every entry of each
of the first A flattest patterns.
"""

import pytest

from flatpart.automaton import (_checks_by_top, automaton_rows,
                                minimal_automaton, period_bound)
from flatpart.conditions import parse_condition_set
from flatpart.counting import _field_bits, _profile_walk
from flatpart.families import get_identity, registered_names
from flatpart.partitions import kth_flattest


def registry_forms():
    forms = {(f.rules, f.min_part)
             for f in (get_identity(name).flat for name in registered_names())}
    return sorted(forms, key=str)


@pytest.mark.parametrize("width", range(1, 6))
def test_flat_patterns_shift_past_the_lemma_threshold(width):
    for a in range(1, 6):
        # width 1 has the one pattern (t) from t = 1
        threshold = (a + 1) * width * (width - 1) - width if width > 1 else 1
        for t in range(threshold, threshold + 61):
            w = kth_flattest(a, width, t)
            shifted = kth_flattest(a, width, t + width)
            if w is None:
                assert width == 1 and a > 1 and shifted is None
            else:
                assert shifted == tuple(x + 1 for x in w), (a, width, t)


def test_checks_repeat_with_the_period_past_the_bound():
    # the tightened bound first is at most the lemma's, and exact too
    for rules, min_part in registry_forms():
        bound, period = period_bound(rules, min_part)
        first = minimal_automaton(rules, min_part).first
        assert first <= bound
        top = bound + 3 * period + 8
        groups = _checks_by_top(rules, min_part, top)
        for u in range(first, top - period + 1):
            assert groups[u] == groups[u + period], (rules, min_part, u)


@pytest.mark.parametrize("order", [200, 600])
def test_automaton_equals_the_profile_walk_on_the_registry(order):
    b = _field_bits(order)
    for rules, min_part in registry_forms():
        assert (automaton_rows(rules, order, order, min_part, b)
                == _profile_walk(rules, order, order, min_part)), (rules, order)


def test_minimization_merges_profiles():
    # FAM1_1_K3's profile walk carries 73 or more profiles per stage at
    # order 600; its minimal automaton has 41 classes in 10 phases
    auto = minimal_automaton(get_identity("FAM1_1_K3").flat.rules, 1)
    assert (auto.first, auto.period, len(auto.moves)) == (7, 3, 41)
    assert max(map(len, auto.classes)) == 6
    # no rules: one class, every multiplicity allowed
    auto = minimal_automaton(parse_condition_set("").rules, 1)
    assert len(auto.moves) == 1 and len(auto.moves[0]) == auto.more + 1
